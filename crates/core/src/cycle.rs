//! Causal chains, cycles, and the relevant/non-relevant classification
//! (Definitions 2 and 3 of the paper).
//!
//! A *cycle* `Z` in an execution graph `G` is a subgraph corresponding to a
//! cycle of the undirected shadow graph `Ĝ`. Its edges are partitioned into
//! two classes of identically-directed edges; writing `Z−`/`Z+` for the
//! restriction of the classes to messages, the class labelling is chosen so
//! that `|Z+| ≤ |Z−|`. The *orientation* of `Z` is the direction of the
//! forward edges `Z+`, and `Z` is **relevant** iff every local edge is a
//! backward edge. The ABC synchrony condition (Definition 4) then requires
//! `|Z−|/|Z+| < Ξ` for every relevant cycle.
//!
//! This module represents cycles as closed walks of *steps* (an edge plus
//! the direction in which the walk traverses it), validates them against a
//! graph, and classifies them per Definition 3. Figures 1, 3 and 4 of the
//! paper appear as unit tests.

use std::collections::HashSet;
use std::fmt;

use abc_rational::Ratio;

use crate::graph::{EventId, ExecutionGraph, LocalEdge, MessageId, ProcessId};
use crate::xi::Xi;

/// An edge of the shadow graph: a message or a local edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShadowEdge {
    /// A message (non-local edge).
    Message(MessageId),
    /// A local edge between consecutive events of one process.
    Local(LocalEdge),
}

/// One step of a cycle traversal: an edge and whether the walk runs against
/// the edge's direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CycleStep {
    /// The edge being traversed.
    pub edge: ShadowEdge,
    /// `true` iff the walk traverses the edge from head to tail (against
    /// its direction in the execution graph).
    pub against: bool,
}

impl CycleStep {
    /// Traversal start event in graph `g`.
    #[must_use]
    pub fn start(&self, g: &ExecutionGraph) -> EventId {
        let (from, to) = endpoints(self.edge, g);
        if self.against {
            to
        } else {
            from
        }
    }

    /// Traversal end event in graph `g`.
    #[must_use]
    pub fn end(&self, g: &ExecutionGraph) -> EventId {
        let (from, to) = endpoints(self.edge, g);
        if self.against {
            from
        } else {
            to
        }
    }
}

fn endpoints(edge: ShadowEdge, g: &ExecutionGraph) -> (EventId, EventId) {
    match edge {
        ShadowEdge::Message(m) => {
            let msg = g.message(m);
            (msg.from, msg.to)
        }
        ShadowEdge::Local(l) => (l.from, l.to),
    }
}

/// A cycle: a closed walk in the shadow graph with pairwise-distinct edges
/// and pairwise-distinct vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cycle {
    steps: Vec<CycleStep>,
}

/// Errors reported by [`Cycle::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CycleError {
    /// A cycle needs at least two steps.
    TooShort,
    /// Step `i` does not start where step `i − 1` ends.
    BrokenChain(usize),
    /// The walk does not return to its starting event.
    NotClosed,
    /// An edge appears twice.
    RepeatedEdge(usize),
    /// A vertex is visited twice (other than start = end).
    RepeatedVertex(usize),
    /// A message step uses a message that is exempt from the synchrony
    /// condition (sent by a faulty process or explicitly exempted).
    IneffectiveMessage(MessageId),
    /// A local step's edge does not exist in the graph.
    UnknownLocalEdge(LocalEdge),
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::TooShort => write!(f, "cycle has fewer than two steps"),
            CycleError::BrokenChain(i) => write!(f, "step {i} does not continue the walk"),
            CycleError::NotClosed => write!(f, "walk does not return to its start"),
            CycleError::RepeatedEdge(i) => write!(f, "step {i} repeats an edge"),
            CycleError::RepeatedVertex(i) => write!(f, "step {i} revisits a vertex"),
            CycleError::IneffectiveMessage(m) => {
                write!(f, "message {m} is exempt from the synchrony condition")
            }
            CycleError::UnknownLocalEdge(l) => {
                write!(f, "no local edge {} -> {} in the graph", l.from, l.to)
            }
        }
    }
}

impl std::error::Error for CycleError {}

/// The Definition 3 classification of a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification {
    /// `|Z−|`: number of backward messages.
    pub backward_messages: usize,
    /// `|Z+|`: number of forward messages.
    pub forward_messages: usize,
    /// Number of local edges that are backward w.r.t. the orientation.
    pub backward_locals: usize,
    /// Number of local edges that are forward w.r.t. the orientation.
    pub forward_locals: usize,
    /// Whether the chosen orientation is the reverse of the walk direction.
    pub orientation_reversed: bool,
    /// Whether the cycle is relevant (all local edges backward).
    pub relevant: bool,
}

impl Classification {
    /// `|Z−|/|Z+|`, or `None` when `|Z+| = 0` (only possible for
    /// non-relevant cycles).
    #[must_use]
    pub fn ratio(&self) -> Option<Ratio> {
        (self.forward_messages > 0).then(|| {
            Ratio::new(
                i64::try_from(self.backward_messages).expect("cycle size fits i64"),
                i64::try_from(self.forward_messages).expect("cycle size fits i64"),
            )
        })
    }

    /// Whether this cycle *violates* the ABC synchrony condition for `xi`:
    /// it is relevant and `|Z−|/|Z+| ≥ Ξ`.
    #[must_use]
    pub fn violates(&self, xi: &Xi) -> bool {
        if !self.relevant {
            return false;
        }
        match self.ratio() {
            Some(r) => &r >= xi.as_ratio(),
            None => unreachable!("relevant cycles have at least one forward message"),
        }
    }
}

impl Cycle {
    /// Creates a cycle from traversal steps (validated lazily; call
    /// [`Cycle::validate`] to check against a graph).
    #[must_use]
    pub fn new(steps: Vec<CycleStep>) -> Cycle {
        Cycle { steps }
    }

    /// The traversal steps.
    #[must_use]
    pub fn steps(&self) -> &[CycleStep] {
        &self.steps
    }

    /// Messages of the cycle with their traversal direction
    /// (`true` = against the message direction).
    pub fn messages(&self) -> impl Iterator<Item = (MessageId, bool)> + '_ {
        self.steps.iter().filter_map(|s| match s.edge {
            ShadowEdge::Message(m) => Some((m, s.against)),
            ShadowEdge::Local(_) => None,
        })
    }

    /// Number of messages (the *length* `|Z|` in Definition 2 counts
    /// non-local edges).
    #[must_use]
    pub fn num_messages(&self) -> usize {
        self.messages().count()
    }

    /// The vertex sequence visited by the walk (one entry per step,
    /// starting events).
    #[must_use]
    pub fn vertices(&self, g: &ExecutionGraph) -> Vec<EventId> {
        self.steps.iter().map(|s| s.start(g)).collect()
    }

    /// Validates the walk against `g`: chained, closed, edge- and
    /// vertex-simple, and using only effective messages and existing local
    /// edges.
    ///
    /// # Errors
    ///
    /// Returns the first [`CycleError`] found.
    pub fn validate(&self, g: &ExecutionGraph) -> Result<(), CycleError> {
        if self.steps.len() < 2 {
            return Err(CycleError::TooShort);
        }
        for (i, step) in self.steps.iter().enumerate() {
            match step.edge {
                ShadowEdge::Message(m) => {
                    if !g.is_effective(m) {
                        return Err(CycleError::IneffectiveMessage(m));
                    }
                }
                ShadowEdge::Local(l) => {
                    if g.local_succ(l.from) != Some(l.to) {
                        return Err(CycleError::UnknownLocalEdge(l));
                    }
                }
            }
            let prev = &self.steps[(i + self.steps.len() - 1) % self.steps.len()];
            if prev.end(g) != step.start(g) {
                if i == 0 {
                    return Err(CycleError::NotClosed);
                }
                return Err(CycleError::BrokenChain(i));
            }
        }
        let mut edges = HashSet::new();
        for (i, step) in self.steps.iter().enumerate() {
            if !edges.insert(step.edge) {
                return Err(CycleError::RepeatedEdge(i));
            }
        }
        let mut vertices = HashSet::new();
        for (i, step) in self.steps.iter().enumerate() {
            if !vertices.insert(step.start(g)) {
                return Err(CycleError::RepeatedVertex(i));
            }
        }
        Ok(())
    }

    /// Classifies the cycle per Definition 3.
    ///
    /// The two edge classes are the steps traversed along vs. against their
    /// edge direction; the class with fewer *messages* becomes the forward
    /// class `Z+` (ties are broken towards relevance: if either choice makes
    /// all local edges backward, that choice is taken).
    #[must_use]
    pub fn classify(&self) -> Classification {
        let mut msgs_along = 0usize;
        let mut msgs_against = 0usize;
        let mut locals_along = 0usize;
        let mut locals_against = 0usize;
        for step in &self.steps {
            match (step.edge, step.against) {
                (ShadowEdge::Message(_), false) => msgs_along += 1,
                (ShadowEdge::Message(_), true) => msgs_against += 1,
                (ShadowEdge::Local(_), false) => locals_along += 1,
                (ShadowEdge::Local(_), true) => locals_against += 1,
            }
        }
        // Orientation: forward class = fewer messages. On a tie, prefer the
        // orientation that makes the cycle relevant, defaulting to the walk
        // direction.
        let reversed = match msgs_along.cmp(&msgs_against) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => locals_along != 0 && locals_against == 0,
        };
        let (fwd_msgs, bwd_msgs, fwd_locals, bwd_locals) = if reversed {
            (msgs_against, msgs_along, locals_against, locals_along)
        } else {
            (msgs_along, msgs_against, locals_along, locals_against)
        };
        Classification {
            backward_messages: bwd_msgs,
            forward_messages: fwd_msgs,
            backward_locals: bwd_locals,
            forward_locals: fwd_locals,
            orientation_reversed: reversed,
            relevant: fwd_locals == 0,
        }
    }
}

/// A human-oriented summary of a violation witness: the process path the
/// cycle visits plus its Definition 3 classification. This is what CLIs and
/// reports print instead of the raw edge list ([`Cycle`]'s `Display`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessSummary {
    /// The classification of the summarized cycle.
    pub classification: Classification,
    /// Processes visited by the walk, in traversal order, deduplicated
    /// along consecutive repeats (a chain through one process appears once).
    pub process_path: Vec<ProcessId>,
    /// Number of steps (edges) in the walk.
    pub steps: usize,
}

impl Cycle {
    /// Summarizes the cycle against its graph: process path + ratio.
    #[must_use]
    pub fn summarize(&self, g: &ExecutionGraph) -> WitnessSummary {
        let procs = self.steps.iter().map(|s| g.event(s.start(g)).process);
        WitnessSummary::from_walk(self, procs)
    }
}

impl WitnessSummary {
    /// Summarizes the closed walk `cycle` whose `i`-th step starts at an
    /// event of process `procs[i]` — no graph needed, so the monitor can
    /// summarize from its live window. Consecutive repeats collapse and
    /// the closing repeat is dropped.
    pub(crate) fn from_walk(
        cycle: &Cycle,
        procs: impl IntoIterator<Item = ProcessId>,
    ) -> WitnessSummary {
        let mut path: Vec<ProcessId> = Vec::new();
        for p in procs {
            if path.last() != Some(&p) {
                path.push(p);
            }
        }
        if path.len() > 1 && path.first() == path.last() {
            path.pop();
        }
        WitnessSummary {
            classification: cycle.classify(),
            process_path: path,
            steps: cycle.steps.len(),
        }
    }
}

/// Single-token wire rendering of a [`WitnessSummary`], for line-oriented
/// protocols: no spaces, so a violation witness fits into one field of a
/// reply line (`abc-service` replies `violation <seq> <wire>`). Produced by
/// [`WitnessSummary::wire`], parsed back by [`WitnessSummary::from_wire`];
/// the round trip is exact, so client and server can compare verdicts byte
/// for byte.
#[derive(Clone, Copy, Debug)]
pub struct WireWitness<'a>(&'a WitnessSummary);

impl fmt::Display for WireWitness<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let c = &s.classification;
        write!(
            f,
            "zm={}/{};zl={}/{};rev={};rel={};steps={};path=",
            c.backward_messages,
            c.forward_messages,
            c.backward_locals,
            c.forward_locals,
            u8::from(c.orientation_reversed),
            u8::from(c.relevant),
            s.steps,
        )?;
        for (i, p) in s.process_path.iter().enumerate() {
            if i > 0 {
                write!(f, ">")?;
            }
            write!(f, "{}", p.0)?;
        }
        Ok(())
    }
}

impl WitnessSummary {
    /// The compact single-token wire form (see [`WireWitness`]).
    #[must_use]
    pub fn wire(&self) -> WireWitness<'_> {
        WireWitness(self)
    }

    /// Parses the wire form produced by [`WitnessSummary::wire`].
    ///
    /// # Errors
    ///
    /// A human-readable message on any malformed field.
    pub fn from_wire(s: &str) -> Result<WitnessSummary, String> {
        let mut fields: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
        for part in s.split(';') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("witness wire form: expected key=value, got {part:?}"))?;
            if fields.insert(k, v).is_some() {
                return Err(format!("witness wire form: duplicate key {k:?}"));
            }
        }
        let get = |k: &str| {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("witness wire form: missing key {k:?}"))
        };
        let pair = |k: &str| -> Result<(usize, usize), String> {
            let v = get(k)?;
            let (a, b) = v
                .split_once('/')
                .ok_or_else(|| format!("witness wire form: {k} expects a/b, got {v:?}"))?;
            Ok((
                a.parse().map_err(|e| format!("{k}: {e}"))?,
                b.parse().map_err(|e| format!("{k}: {e}"))?,
            ))
        };
        let flag = |k: &str| -> Result<bool, String> {
            match get(k)? {
                "0" => Ok(false),
                "1" => Ok(true),
                other => Err(format!("witness wire form: {k} expects 0/1, got {other:?}")),
            }
        };
        let (backward_messages, forward_messages) = pair("zm")?;
        let (backward_locals, forward_locals) = pair("zl")?;
        let orientation_reversed = flag("rev")?;
        let relevant = flag("rel")?;
        let steps: usize = get("steps")?.parse().map_err(|e| format!("steps: {e}"))?;
        let path_field = get("path")?;
        let mut process_path = Vec::new();
        if !path_field.is_empty() {
            for p in path_field.split('>') {
                process_path.push(ProcessId(p.parse().map_err(|e| format!("path: {e}"))?));
            }
        }
        if fields.len() != 6 {
            return Err("witness wire form: unexpected extra keys".into());
        }
        Ok(WitnessSummary {
            classification: Classification {
                backward_messages,
                forward_messages,
                backward_locals,
                forward_locals,
                orientation_reversed,
                relevant,
            },
            process_path,
            steps,
        })
    }
}

impl fmt::Display for WitnessSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.classification;
        match c.ratio() {
            Some(r) => write!(
                f,
                "|Z-|/|Z+| = {}/{} = {r}",
                c.backward_messages, c.forward_messages
            )?,
            None => write!(f, "|Z-|/|Z+| = {}/0", c.backward_messages)?,
        }
        write!(
            f,
            " ({}relevant, {} steps) via ",
            if c.relevant { "" } else { "non-" },
            self.steps
        )?;
        for (i, p) in self.process_path.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match s.edge {
                ShadowEdge::Message(m) => {
                    write!(f, "{}{}", if s.against { "-" } else { "+" }, m)?;
                }
                ShadowEdge::Local(l) => {
                    write!(
                        f,
                        "{}l({}->{})",
                        if s.against { "-" } else { "+" },
                        l.from,
                        l.to
                    )?;
                }
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProcessId;

    fn msg(m: MessageId, against: bool) -> CycleStep {
        CycleStep {
            edge: ShadowEdge::Message(m),
            against,
        }
    }

    fn local(from: EventId, to: EventId, against: bool) -> CycleStep {
        CycleStep {
            edge: ShadowEdge::Local(LocalEdge { from, to }),
            against,
        }
    }

    /// Figure 1: a "slow" chain C1 of 4 messages spans a chain C2 of 5
    /// messages between the same endpoint processes.
    ///
    /// Returns `(graph, cycle)` where the cycle traverses C1 forward, the
    /// local edge at `p` backward, and C2 backward.
    fn fig1() -> (ExecutionGraph, Cycle) {
        // Processes: 0 = q, 1 = p, 2..=5 = C2 relays, 6..=8 = C1 relays.
        let mut b = ExecutionGraph::builder(9);
        let q0 = b.init(ProcessId(0));
        let _p0 = b.init(ProcessId(1));
        for i in 2..9 {
            b.init(ProcessId(i));
        }
        // C2: q -> r2 -> r3 -> r4 -> r5 -> p (messages m0..m4).
        let (m0, a1) = b.send(q0, ProcessId(2));
        let (m1, a2) = b.send(a1, ProcessId(3));
        let (m2, a3) = b.send(a2, ProcessId(4));
        let (m3, a4) = b.send(a3, ProcessId(5));
        let (m4, u) = b.send(a4, ProcessId(1)); // arrives first at p
                                                // C1: q -> s6 -> s7 -> s8 -> p (messages m5..m8).
        let (m5, c1) = b.send(q0, ProcessId(6));
        let (m6, c2) = b.send(c1, ProcessId(7));
        let (m7, c3) = b.send(c2, ProcessId(8));
        let (m8, w) = b.send(c3, ProcessId(1)); // arrives second at p
        let g = b.finish();
        let cycle = Cycle::new(vec![
            msg(m5, false),
            msg(m6, false),
            msg(m7, false),
            msg(m8, false),
            local(u, w, true),
            msg(m4, true),
            msg(m3, true),
            msg(m2, true),
            msg(m1, true),
            msg(m0, true),
        ]);
        cycle.validate(&g).expect("figure 1 cycle is well-formed");
        (g, cycle)
    }

    #[test]
    fn fig1_is_relevant_with_ratio_five_fourths() {
        let (_g, cycle) = fig1();
        let c = cycle.classify();
        assert!(c.relevant);
        assert_eq!(c.forward_messages, 4); // C1
        assert_eq!(c.backward_messages, 5); // C2
        assert_eq!(c.backward_locals, 1);
        assert_eq!(c.ratio(), Some(Ratio::new(5, 4)));
        // Admissible for Xi = 3/2, violating for Xi = 5/4 (ratio == Xi is a
        // violation because Definition 4 requires strict inequality).
        assert!(!c.violates(&Xi::from_fraction(3, 2)));
        assert!(c.violates(&Xi::from_fraction(5, 4)));
    }

    /// Figures 3 and 4: ping-pong with `p_fast` while a reply from `p_slow`
    /// is outstanding. If the slow reply arrives *after* the fast chain's
    /// final event, a relevant cycle with ratio 4/2 = Ξ closes (Fig. 3);
    /// if it arrives *before*, the cycle is non-relevant (Fig. 4).
    fn pingpong(reply_last: bool) -> (ExecutionGraph, Cycle) {
        let mut b = ExecutionGraph::builder(3);
        let p0 = b.init(ProcessId(0)); // p
        b.init(ProcessId(1)); // p_slow
        b.init(ProcessId(2)); // p_fast
        let (m_a, s1) = b.send(p0, ProcessId(1)); // p -> p_slow
        let (m_b, f1) = b.send(p0, ProcessId(2)); // p -> p_fast
        let (m_c, e1) = b.send(f1, ProcessId(0)); // pong 1
        let (m_d, f2) = b.send(e1, ProcessId(2)); // ping 2
        let (m_e, m_f, e2, e_phi);
        if reply_last {
            let (me, x2) = b.send(f2, ProcessId(0)); // pong 2 (event ψ)
            let (mf, xphi) = b.send(s1, ProcessId(0)); // slow reply after ψ
            m_e = me;
            m_f = mf;
            e2 = x2;
            e_phi = xphi;
        } else {
            let (mf, xphi) = b.send(s1, ProcessId(0)); // slow reply before ψ
            let (me, x2) = b.send(f2, ProcessId(0)); // pong 2 (event ψ)
            m_e = me;
            m_f = mf;
            e2 = x2;
            e_phi = xphi;
        }
        let g = b.finish();
        let cycle = if reply_last {
            Cycle::new(vec![
                msg(m_a, false),
                msg(m_f, false),
                local(e2, e_phi, true),
                msg(m_e, true),
                msg(m_d, true),
                msg(m_c, true),
                msg(m_b, true),
            ])
        } else {
            Cycle::new(vec![
                msg(m_a, false),
                msg(m_f, false),
                local(e_phi, e2, false),
                msg(m_e, true),
                msg(m_d, true),
                msg(m_c, true),
                msg(m_b, true),
            ])
        };
        cycle.validate(&g).expect("ping-pong cycle is well-formed");
        (g, cycle)
    }

    #[test]
    fn fig3_late_reply_closes_violating_relevant_cycle() {
        let (_g, cycle) = pingpong(true);
        let c = cycle.classify();
        assert!(c.relevant);
        assert_eq!(c.forward_messages, 2);
        assert_eq!(c.backward_messages, 4);
        assert_eq!(c.ratio(), Some(Ratio::from_integer(2)));
        assert!(
            c.violates(&Xi::from_integer(2)),
            "|Z-|/|Z+| = 4/2 = Xi violates"
        );
        assert!(!c.violates(&Xi::from_fraction(5, 2)));
    }

    #[test]
    fn fig4_early_reply_cycle_is_non_relevant() {
        let (_g, cycle) = pingpong(false);
        let c = cycle.classify();
        assert!(!c.relevant, "local edge is forward => non-relevant");
        assert_eq!(c.forward_locals, 1);
        assert!(!c.violates(&Xi::from_integer(2)));
    }

    #[test]
    fn message_parallel_to_local_path_is_non_relevant() {
        // A self-message spans its own process line: the forward class has
        // zero messages, so the cycle cannot be relevant.
        let mut b = ExecutionGraph::builder(2);
        let a = b.init(ProcessId(0));
        let p1 = b.init(ProcessId(1));
        let (mx, r1) = b.send(a, ProcessId(1)); // creates a second event at p1
        let (my, r2) = b.send(r1, ProcessId(1)); // third event at p1
        let g = b.finish();
        let _ = (mx, p1);
        // Cycle: message my (r1 -> r2) vs the local edge r1 -> r2.
        let cycle = Cycle::new(vec![msg(my, false), local(r1, r2, true)]);
        cycle.validate(&g).expect("well-formed two-edge cycle");
        let c = cycle.classify();
        assert!(!c.relevant);
        assert_eq!(c.forward_messages, 0);
        assert_eq!(c.ratio(), None);
        assert!(!c.violates(&Xi::from_integer(2)));
    }

    #[test]
    fn witness_wire_form_round_trips_exactly() {
        let (g, cycle) = fig1();
        let summary = cycle.summarize(&g);
        let wire = summary.wire().to_string();
        assert!(!wire.contains(' '), "wire form must be one token: {wire}");
        let parsed = WitnessSummary::from_wire(&wire).unwrap();
        assert_eq!(parsed, summary);
        assert_eq!(parsed.wire().to_string(), wire);
        // Malformed inputs are rejected with a useful message.
        assert!(WitnessSummary::from_wire("").is_err());
        assert!(WitnessSummary::from_wire("zm=1/2").is_err(), "missing keys");
        assert!(WitnessSummary::from_wire(&wire.replace("rel=1", "rel=7")).is_err());
        assert!(WitnessSummary::from_wire(&format!("{wire};zz=1")).is_err());
    }

    #[test]
    fn validation_rejects_broken_chains_and_repeats() {
        let (g, cycle) = fig1();
        // Reversing one step breaks the chain.
        let mut broken = cycle.steps().to_vec();
        broken[0].against = true;
        assert!(matches!(
            Cycle::new(broken).validate(&g),
            Err(CycleError::NotClosed | CycleError::BrokenChain(_))
        ));
        // Too short.
        assert_eq!(
            Cycle::new(vec![cycle.steps()[0]]).validate(&g),
            Err(CycleError::TooShort)
        );
    }

    #[test]
    fn validation_rejects_exempt_messages() {
        let mut b = ExecutionGraph::builder(2);
        let a = b.init(ProcessId(0));
        let _ = b.init(ProcessId(1));
        let (m1, r1) = b.send(a, ProcessId(1));
        let (m2, _r2) = b.send(r1, ProcessId(0));
        b.mark_faulty(ProcessId(0));
        let g = b.finish();
        let cycle = Cycle::new(vec![msg(m1, false), msg(m2, false)]);
        assert!(matches!(
            cycle.validate(&g),
            Err(CycleError::IneffectiveMessage(m)) if m == m1
        ));
        let _ = m2;
    }

    #[test]
    fn witness_summary_reports_path_and_ratio() {
        let (g, cycle) = fig1();
        let s = cycle.summarize(&g);
        assert_eq!(s.steps, 10);
        assert_eq!(s.classification.ratio(), Some(Ratio::new(5, 4)));
        // The walk starts at q (p0), runs the C1 relays, hits p (p1), and
        // returns through the C2 relays; consecutive repeats collapse.
        assert_eq!(s.process_path.first(), Some(&ProcessId(0)));
        assert!(s.process_path.contains(&ProcessId(1)));
        assert_eq!(
            s.process_path.len(),
            s.process_path.windows(2).filter(|w| w[0] != w[1]).count() + 1,
            "no consecutive duplicates"
        );
        let text = s.to_string();
        assert!(text.contains("5/4"), "{text}");
        assert!(text.contains("relevant"), "{text}");
        assert!(text.contains("p0"), "{text}");
    }

    #[test]
    fn display_is_readable() {
        let (_, cycle) = fig1();
        let s = cycle.to_string();
        assert!(s.starts_with('['));
        assert!(s.contains("+m5"));
        assert!(s.contains("-m0"));
    }
}
