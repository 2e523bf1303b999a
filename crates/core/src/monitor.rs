//! Online (incremental) monitoring of the ABC synchrony condition.
//!
//! [`crate::check`] decides Definition 4 in `O(V·E)` — but from scratch,
//! over the whole execution, every time it is asked. A long-running system
//! that wants to *monitor* the condition as its execution unfolds cannot
//! afford a full Bellman–Ford pass per event: re-checking an execution of
//! `n` events after each of its events costs `O(n²·E)` overall.
//!
//! [`IncrementalChecker`] turns the batch reduction into a streaming one.
//! It mirrors the [`crate::graph::ExecutionGraphBuilder`] API (`append_init`
//! / `append_send`) and maintains Bellman–Ford *potentials* over the same
//! arena-backed [`TraversalGraph`] the batch checker walks (grown
//! incrementally here instead of built in one pass): a label `π(v)` per
//! event such that every arc `u → v` of weight `w` satisfies
//! `π(v) ≤ π(u) + w`. Such labels exist iff `T` has no negative cycle, i.e.
//! iff the execution so far is admissible. Appending an event adds at most
//! three arcs (forward + backward for its triggering message, one local
//! back-arc), and the labels are repaired by re-relaxing only the affected
//! frontier — amortized far below a full pass, and exactly zero work for
//! events that do not disturb any label. The first violation is latched
//! together with a witness of the same [`Cycle`] type the batch checker
//! produces (violations never go away: appending events only adds cycles).
//!
//! # Weights without a global scale factor
//!
//! The batch reduction encodes the predicate "some cycle has
//! `q·B − p·F ≥ 0`" by scaling arc weights with `K = #arcs + 1`, which
//! changes whenever an arc is added — useless incrementally. The monitor
//! instead uses *lexicographic pairs* `(p·[fwd] − q·[bwd], −1)` compared
//! component-wise: a cycle's pair sum is `(p·F − q·B, −len)`, which is
//! lexicographically negative iff `q·B − p·F ≥ 0` — the same predicate,
//! stable under insertion.
//!
//! # Canonical witnesses
//!
//! When a violation is confirmed, every *new* violating cycle necessarily
//! passes through the event `v` whose append created it (all new arcs are
//! incident to `v`), and — because the pre-append graph was feasible — has
//! the canonical shape *forward arc `u → v`, local back-arc `v → prev`,
//! then a pre-existing path `prev ⇝ u`*. The monitor therefore extracts
//! its witness as the most-violating such cycle via one single-source
//! shortest-path pass over the pre-append arcs. This makes the witness a
//! pure function of the live traversal graph — independent of relaxation
//! order, queue state, *and of how much settled prefix has been pruned*,
//! which is what keeps pruned and unpruned monitors byte-identical.
//!
//! # Bounded memory: settled-prefix pruning
//!
//! A long-lived monitor (an `abc-service` session, a days-long simulation)
//! must not hold every event forever. Violation evidence in the ABC model
//! is local: a new violating cycle always runs through the event just
//! appended, and the only ways it can reach back into an old prefix
//! `[0, W)` are the *boundary arcs* that cross `W` — so once the caller
//! promises that no **future** `append_send` will name a send event below
//! `W` (the `oldest_inflight_send` watermark; only the application knows
//! its in-flight messages), the prefix is *settled*: its internal arcs are
//! frozen forever, and [`IncrementalChecker::prune_settled`] compacts it
//! away after **condensing** its boundary:
//!
//! * every (entry arc, exit arc) pair crossing the cut is replaced by one
//!   **shortcut arc** between their live endpoints, weighted by the exact
//!   shortest path through the settled region (plus the crossing arcs) and
//!   carrying its step-by-step expansion so witnesses can be reproduced
//!   byte-for-byte;
//! * every process whose newest event falls below the cut leaves behind a
//!   **frontier row**: its frozen potential plus the condensed shortest
//!   paths from that event to each exit, materialized as shortcut arcs by
//!   the process's next receive (whose local edge is the one future arc
//!   that may still point into the region).
//!
//! Because the settled region's arcs can never change, those condensations
//! are exact for all time: a negative cycle exists in the compacted graph
//! iff one exists in the full graph, the canonical confirmation finds the
//! same most-violating cycle with the same total weight, and expanding the
//! shortcuts reproduces the identical [`Cycle`] witness. Verdicts,
//! violation latch points, witnesses, and summaries are **byte-identical**
//! with and without pruning, at any call cadence. Memory becomes
//! `O(processes + active window + in-flight messages + boundary
//! condensation)` instead of `O(all events)` — the condensation term is
//! the pairwise shortcuts of the (few) arcs crossing each cut, plus their
//! stored expansions; [`MonitorStats`] reports `pruned_events` and the
//! live high-water marks. Call [`IncrementalChecker::enable_pruning`]
//! first to also drop the full [`ExecutionGraph`] mirror (after which
//! [`IncrementalChecker::graph`] is unavailable — use
//! [`IncrementalChecker::violation_summary`] for witness reporting).
//!
//! # Live synchrony margin
//!
//! Beyond the binary verdict, the monitor can report how *close* the
//! execution is to the tripwire: [`IncrementalChecker::current_margin`]
//! returns the exact maximum `|Z−|/|Z+|` over all relevant cycles so far
//! (the same value [`crate::check::max_relevant_cycle_ratio`] computes
//! batch-side), and [`IncrementalChecker::margin_upper_bound`] derives a
//! cheap `O(arcs)` upper bound from the feasible potentials — the fast
//! path that gates the exact probe. Both margins, batch and live, come
//! from one engine (the crate's `maxratio` module): it asks "is there a
//! cycle with ratio strictly above `B₀/F₀`", jumps to the ratio of the
//! cycle a *yes* finds, and stops at the first *no* — two to four seeded
//! Bellman–Ford probes over the live arcs, not a bisection. Pruned
//! monitors stay exact through two devices: the **margin floor** (margins
//! only grow, so the exact margin is folded into a floor right before each
//! prune, and later probes only ask above it) and per-shortcut **signature
//! envelopes** (each boundary shortcut keeps the lower envelope of its
//! crossing paths' `x·F − B` cost lines over probe ratios at or above the
//! floor, so probes below `Ξ` see the exact minimum crossing cost, not
//! just the `Ξ`-optimal path the violation machinery stores). Margin
//! tracking is opt-in for pruning monitors
//! ([`IncrementalChecker::enable_margin_tracking`]): the fold is a few
//! hundred microseconds on a 500-event window, but growing the envelopes
//! makes a tracked prune several times the work of an untracked one
//! (1.2–2.2 ms against 0.2–0.5 ms at horizon 256).
//!
//! # Example: streaming detection
//!
//! ```
//! use abc_core::monitor::IncrementalChecker;
//! use abc_core::graph::ProcessId;
//! use abc_core::Xi;
//!
//! // Monitor the 2-chain-spanned-by-a-slow-message execution for Ξ = 2.
//! let mut mon = IncrementalChecker::new(3, &Xi::from_integer(2)).unwrap();
//! let q = mon.append_init(ProcessId(0));
//! mon.append_init(ProcessId(1));
//! mon.append_init(ProcessId(2));
//! let (_, relay) = mon.append_send(q, ProcessId(2));
//! mon.append_send(relay, ProcessId(1)); // fast chain arrives first at p1
//! assert!(mon.is_admissible()); // no relevant cycle yet
//! mon.append_send(q, ProcessId(1)); // the slow spanning message closes it
//! let witness = mon.violation().expect("ratio 2/1 >= 2");
//! assert!(witness.classify().violates(mon.xi()));
//! ```

use std::collections::VecDeque;

use abc_rational::Ratio;

use crate::check::{self, CheckError};
use crate::cycle::{Cycle, CycleStep, ShadowEdge, WitnessSummary};
use crate::graph::{
    EventId, ExecutionGraph, ExecutionGraphBuilder, LocalEdge, MessageId, ProcessId, Trigger,
};
use crate::maxratio::{self, step_reverses, Shortcuts};
use crate::traversal::{ArcKind, TraversalGraph};
use crate::xi::Xi;

// Flight-recorder hooks (no-ops unless the embedding process called
// `abc_obs::enable`). The hot append path gets only relaxed counter
// adds; RAII spans are reserved for the rare phases (frontier repair,
// violation confirmation, prune condensation, margin probes).
static OBS_APPENDS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.appends");
static OBS_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.arcs");
static OBS_RELAXATIONS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.relaxations");
static OBS_REPAIRS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.frontier_repairs");
static OBS_CONFIRMS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.confirm_sssp");
static OBS_PRUNED_EVENTS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.pruned_events");
static OBS_PRUNED_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.pruned_arcs");
static OBS_PROBES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.margin_probes");

/// Lexicographic arc weight: `(p·[fwd] − q·[bwd], −1)`. Tuples compare
/// lexicographically in Rust, which is exactly the order the reduction
/// needs; components are added independently.
type Weight = (i128, i128);

/// Counters describing the monitor's work and footprint, for observability
/// and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events appended so far (including pruned ones).
    pub events: usize,
    /// Messages appended so far (including exempt ones).
    pub messages: usize,
    /// Traversal-graph arcs created so far (including pruned ones).
    pub arcs: usize,
    /// Total label relaxations performed across all appends.
    pub relaxations: u64,
    /// Violation confirmations triggered (a violation latch, or — rarely —
    /// a false alarm of the relaxation-count heuristic).
    pub full_checks: u64,
    /// Events compacted away by [`IncrementalChecker::prune_settled`].
    pub pruned_events: usize,
    /// Arcs compacted away by [`IncrementalChecker::prune_settled`].
    pub pruned_arcs: usize,
    /// High-water mark of simultaneously live (non-pruned) events — the
    /// monitor's memory is proportional to this, not to `events`.
    pub live_events_peak: usize,
    /// High-water mark of simultaneously live arcs.
    pub live_arcs_peak: usize,
}

/// One margin *signature* of a condensed settled-region path: its forward
/// and backward message counts, plus the expansion needed to reproduce a
/// witness through it. While the `weight`/`steps` of [`ShortcutInfo`] and
/// [`RowOut`] describe the one path that is lex-optimal at `Ξ`, margin
/// probes evaluate cost lines `x·f − b` at probe ratios `x < Ξ`, where a
/// different crossing path may be cheaper — so margin tracking keeps, per
/// condensed arc, the *lower envelope* of all crossing paths' cost lines
/// over the closed interval `[floor, ∞)` of still-reachable probe ratios.
#[derive(Clone, Debug)]
struct MarginSig {
    /// Forward message steps along the path.
    f: i128,
    /// Backward message steps along the path.
    b: i128,
    /// The condensed steps, in traversal order (tail → head).
    steps: Vec<CycleStep>,
    /// Processes of interior vertices (`procs.len() == steps.len() - 1`).
    procs: Vec<ProcessId>,
}

/// A margin signature *while a prune condenses the boundary*: the counts
/// and boundary steps that every envelope and junction decision reads,
/// plus a link to how the path was put together. Copying one copies no
/// path; only the signatures that survive onto a [`ShortcutInfo`] or
/// [`RowOut`] are expanded into a [`MarginSig`] ([`Sig::materialize`]).
#[derive(Clone, Copy)]
struct Sig<'a> {
    f: i128,
    b: i128,
    /// First and last step of the path (`None` for the empty path).
    first: Option<CycleStep>,
    last: Option<CycleStep>,
    path: SigPath<'a>,
}

/// How a [`Sig`]'s path is spelled out.
#[derive(Clone, Copy)]
enum SigPath<'a> {
    Empty,
    Step(CycleStep),
    /// A signature an earlier prune stored.
    Stored(&'a MarginSig),
    /// `left · joint · right`, at this index of the prune's [`SigArena`].
    Concat(usize),
}

/// The concatenations one prune makes: `(left, joint process, right)`.
type SigArena<'a> = Vec<(SigPath<'a>, Option<ProcessId>, SigPath<'a>)>;

/// A frontier-row path whose signature envelope is still links.
type LinkedRowOut<'a> = (RowOut, Vec<Sig<'a>>);

impl<'a> Sig<'a> {
    fn empty() -> Sig<'a> {
        Sig {
            f: 0,
            b: 0,
            first: None,
            last: None,
            path: SigPath::Empty,
        }
    }

    fn step(f: i128, b: i128, step: CycleStep) -> Sig<'a> {
        Sig {
            f,
            b,
            first: Some(step),
            last: Some(step),
            path: SigPath::Step(step),
        }
    }

    fn stored(sig: &'a MarginSig) -> Sig<'a> {
        Sig {
            f: sig.f,
            b: sig.b,
            first: sig.steps.first().copied(),
            last: sig.steps.last().copied(),
            path: SigPath::Stored(sig),
        }
    }

    /// Concatenates two path signatures meeting at the vertex with process
    /// `joint` (`None` when `self` is empty — the meeting vertex is the
    /// composite's start and stays excluded from the interior). Returns
    /// `None` when the junction would immediately reverse one message —
    /// see [`step_reverses`].
    fn concat(
        &self,
        joint: Option<ProcessId>,
        d: &Sig<'a>,
        arena: &mut SigArena<'a>,
    ) -> Option<Sig<'a>> {
        if let (Some(last), Some(first)) = (&self.last, &d.first) {
            if step_reverses(last, first) {
                return None;
            }
        }
        arena.push((self.path, joint, d.path));
        Some(Sig {
            f: self.f + d.f,
            b: self.b + d.b,
            first: self.first.or(d.first),
            last: d.last.or(self.last),
            path: SigPath::Concat(arena.len() - 1),
        })
    }

    /// Spells the path out: its steps and interior processes.
    fn materialize(&self, arena: &SigArena<'a>) -> MarginSig {
        enum Item<'a> {
            Path(SigPath<'a>),
            Joint(ProcessId),
        }
        let mut steps = Vec::new();
        let mut procs = Vec::new();
        let mut todo = vec![Item::Path(self.path)];
        while let Some(item) = todo.pop() {
            match item {
                Item::Joint(p) => procs.push(p),
                Item::Path(SigPath::Empty) => {}
                Item::Path(SigPath::Step(s)) => steps.push(s),
                Item::Path(SigPath::Stored(sig)) => {
                    steps.extend_from_slice(&sig.steps);
                    procs.extend_from_slice(&sig.procs);
                }
                Item::Path(SigPath::Concat(i)) => {
                    let (left, joint, right) = arena[i];
                    todo.push(Item::Path(right));
                    todo.extend(joint.map(Item::Joint));
                    todo.push(Item::Path(left));
                }
            }
        }
        MarginSig {
            f: self.f,
            b: self.b,
            steps,
            procs,
        }
    }
}

/// A condensed boundary path of a pruned prefix: the exact lexicographic
/// weight of the shortest settled-region path it stands for, plus the
/// expansion needed to reproduce witnesses byte-for-byte.
#[derive(Clone, Debug)]
struct ShortcutInfo {
    weight: Weight,
    /// The condensed steps, in traversal order (tail → head).
    steps: Vec<CycleStep>,
    /// Processes of the expansion's *interior* vertices (between the live
    /// endpoints): `procs.len() == steps.len() - 1`.
    procs: Vec<ProcessId>,
    /// Margin-signature envelope of *all* condensed paths behind this arc
    /// (empty when margin tracking is off).
    sigs: Vec<MarginSig>,
}

impl Shortcuts for [ShortcutInfo] {
    fn lines(&self, id: usize) -> usize {
        self[id].sigs.len()
    }
    fn line(&self, id: usize, pick: usize) -> (i128, i128) {
        let sig = &self[id].sigs[pick];
        (sig.f, sig.b)
    }
    fn ends(&self, id: usize, pick: usize) -> (Option<CycleStep>, Option<CycleStep>) {
        let steps = &self[id].sigs[pick].steps;
        (steps.first().copied(), steps.last().copied())
    }
}

/// One condensed path out of a pruned frontier event: `prev ⇝ head`
/// (ending on a live event), with its expansion.
#[derive(Clone, Debug)]
struct RowOut {
    /// Live head event (global id).
    head: usize,
    /// Exact weight of the condensed path `prev ⇝ head`.
    weight: Weight,
    /// Steps of the condensed path, tail-first.
    steps: Vec<CycleStep>,
    /// Processes of interior vertices (`procs.len() == steps.len() - 1`).
    procs: Vec<ProcessId>,
    /// Margin-signature envelope of all condensed `prev ⇝ head` paths
    /// (empty when margin tracking is off).
    sigs: Vec<MarginSig>,
}

/// An exact live-margin sample: the current maximum relevant-cycle ratio
/// `|Z−|/|Z+|` over the whole monitored execution, and — when one was
/// extracted — a summary of the tightest cycle attaining it.
///
/// Produced by [`IncrementalChecker::current_margin`]; equals what
/// [`crate::check::max_relevant_cycle_ratio`] reports on the same
/// execution. The witness is `None` exactly when the margin is attained
/// only at ratio `1` (where the cheapest certificate may be a degenerate
/// back-and-forth walk rather than a genuine relevant cycle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarginReport {
    /// The exact maximum `|Z−|/|Z+|` over all relevant cycles so far.
    pub ratio: Ratio,
    /// Summary of a tightest cycle attaining `ratio`, if one was extracted.
    pub witness: Option<WitnessSummary>,
}

/// What a pruned per-process frontier leaves behind: the frozen potential
/// of the process's newest (compacted) event, and the condensed paths from
/// it to every live exit. Read exactly once, by the process's next append,
/// which materializes the paths as shortcut arcs hanging off the new
/// receive's local edge.
#[derive(Clone, Debug)]
struct FrontierRow {
    label: Weight,
    outs: Vec<RowOut>,
}

/// The append that opened the current repair, for violation confirmation:
/// every cycle the append can have created runs `u → v → prev → ⋯ → u`.
#[derive(Clone, Debug)]
struct ConfirmCtx {
    /// Send event of the appended message.
    u: usize,
    /// The appended receive event.
    v: usize,
    /// `v`'s local predecessor: the global event id, and whether it is
    /// still live (below-base predecessors were compacted by pruning).
    prev_global: usize,
    prev_live: bool,
    /// The frontier row of `v`'s process when `prev` was compacted: seeds
    /// the confirmation's shortest-path pass in place of `dist[prev] = 0`.
    seeds: Option<FrontierRow>,
    /// The appended message.
    mid: MessageId,
    /// Arena length before this append's arcs: `arcs[..old_arcs]` is the
    /// pre-append (feasible) traversal graph.
    old_arcs: usize,
}

/// Incremental decision of the ABC synchrony condition (Definition 4).
///
/// Mirrors the [`ExecutionGraphBuilder`] discipline: every process's first
/// event is [`append_init`], every other event is the receive event of an
/// [`append_send`]. Faulty processes must be declared with [`mark_faulty`]
/// *before* they send (their messages are exempt from the condition, and
/// the monitor never retracts arcs).
///
/// [`append_init`]: IncrementalChecker::append_init
/// [`append_send`]: IncrementalChecker::append_send
/// [`mark_faulty`]: IncrementalChecker::mark_faulty
#[derive(Clone, Debug)]
pub struct IncrementalChecker {
    xi: Xi,
    p: i128,
    q: i128,
    num_processes: usize,
    faulty: Vec<bool>,
    /// Whether each process has sent at least one message (the
    /// [`mark_faulty`](IncrementalChecker::mark_faulty) guard).
    has_sent: Vec<bool>,
    /// Full execution-graph mirror, dropped when pruning is enabled. All
    /// monitoring decisions run on the windowed state below; the mirror
    /// only serves [`IncrementalChecker::graph`].
    builder: Option<ExecutionGraphBuilder>,
    /// The shared CSR traversal graph, grown arc by arc (and compacted
    /// from the front by pruning).
    tg: TraversalGraph,
    /// Process of each live event (windowed by `tg.base()`).
    proc_of: Vec<ProcessId>,
    /// Bellman–Ford potential per live event; feasible (no tense arc)
    /// whenever `violation` is `None`.
    pot: Vec<Weight>,
    /// Per-append relaxation counts (reset via `touched` after each append).
    relax_count: Vec<u64>,
    in_queue: Vec<bool>,
    touched: Vec<usize>,
    queue: VecDeque<usize>,
    /// Latest event id of each process (survives pruning — it guards
    /// double-init and locates local predecessors).
    last_event: Vec<Option<usize>>,
    /// What a pruned per-process frontier left behind (see [`FrontierRow`]);
    /// recomposed by later prunes, consumed by the process's next append.
    frontier_row: Vec<Option<FrontierRow>>,
    /// Expansion table for the arena's [`ArcKind::Shortcut`] arcs; rebuilt
    /// (compacted) at every prune.
    shortcuts: Vec<ShortcutInfo>,
    total_messages: usize,
    pending: Option<ConfirmCtx>,
    violation: Option<Cycle>,
    violation_summary: Option<WitnessSummary>,
    /// Whether margin-signature envelopes are maintained across prunes
    /// (see [`IncrementalChecker::enable_margin_tracking`]).
    margin_tracking: bool,
    /// Monotone floor on the execution's margin: the exact live margin is
    /// folded in right before every prune, so probes after the prune only
    /// range above it (which keeps the signature envelopes finite). Held
    /// as the `(B, F)` counts of the cycle that attained it.
    margin_floor: Option<(i128, i128)>,
    /// Witness summary attaining `margin_floor`, when one was extracted.
    margin_floor_witness: Option<WitnessSummary>,
    stats: MonitorStats,
}

impl IncrementalChecker {
    /// Creates a monitor over `num_processes` processes for the parameter
    /// `Ξ`.
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed `i64` — the label
    /// arithmetic accumulates weights along relaxation paths and needs the
    /// headroom of `i128` above machine-word parts. (The batch checker
    /// accepts wider parts; astronomically large `Ξ` is its domain.)
    pub fn new(num_processes: usize, xi: &Xi) -> Result<IncrementalChecker, CheckError> {
        let (p, q) = xi.as_i64_parts().ok_or(CheckError::XiTooLarge)?;
        Ok(IncrementalChecker {
            xi: xi.clone(),
            p: i128::from(p),
            q: i128::from(q),
            num_processes,
            faulty: vec![false; num_processes],
            has_sent: vec![false; num_processes],
            builder: Some(ExecutionGraph::builder(num_processes)),
            tg: TraversalGraph::new(),
            proc_of: Vec::new(),
            pot: Vec::new(),
            relax_count: Vec::new(),
            in_queue: Vec::new(),
            touched: Vec::new(),
            queue: VecDeque::new(),
            last_event: vec![None; num_processes],
            frontier_row: vec![None; num_processes],
            shortcuts: Vec::new(),
            total_messages: 0,
            pending: None,
            violation: None,
            violation_summary: None,
            margin_tracking: false,
            margin_floor: None,
            margin_floor_witness: None,
            stats: MonitorStats::default(),
        })
    }

    /// Builds a monitor by replaying an existing execution graph event by
    /// event (in its creation order, which is topological).
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] as in [`IncrementalChecker::new`].
    pub fn from_graph(g: &ExecutionGraph, xi: &Xi) -> Result<IncrementalChecker, CheckError> {
        let mut mon = IncrementalChecker::new(g.num_processes(), xi)?;
        for p in 0..g.num_processes() {
            if g.is_faulty(ProcessId(p)) {
                mon.mark_faulty(ProcessId(p));
            }
        }
        for ev in g.events() {
            match ev.trigger {
                Trigger::Init => {
                    mon.append_init(ev.process);
                }
                Trigger::Message(m) => {
                    let msg = g.message(m);
                    mon.append_send_inner(msg.from, ev.process, msg.exempt);
                }
            }
        }
        Ok(mon)
    }

    /// Drops the full execution-graph mirror so memory stays bounded by the
    /// live window: from here on only [`IncrementalChecker::prune_settled`]
    /// bookkeeping is kept per event, and [`IncrementalChecker::graph`] /
    /// [`IncrementalChecker::finish`] are unavailable (use
    /// [`IncrementalChecker::violation_summary`] for witness reporting).
    ///
    /// Pruning itself ([`IncrementalChecker::prune_settled`]) also works
    /// with the mirror kept — useful when verdict-identical comparison
    /// against the full graph is wanted — but only this call makes the
    /// memory bound `O(processes + active window + in-flight)` real.
    ///
    /// # Panics
    ///
    /// Panics if events have already been appended.
    pub fn enable_pruning(&mut self) {
        assert!(
            self.tg.total_nodes() == 0,
            "enable_pruning() must be called before any event is appended"
        );
        self.builder = None;
    }

    /// Keeps margin tracking exact across [`IncrementalChecker::prune_settled`]:
    /// every prune folds the exact live margin into a monotone floor and
    /// equips the condensed boundary shortcuts with margin-signature
    /// envelopes, so [`IncrementalChecker::current_margin`] stays equal to
    /// the batch [`crate::check::max_relevant_cycle_ratio`] on the full
    /// (never-pruned) execution. Each prune then also runs the margin fold
    /// (a few cycle probes over the live window) and one signature-envelope
    /// pass per boundary landing — a millisecond or two where an untracked
    /// prune takes a few hundred microseconds; without it, margin queries on a
    /// pruning monitor whose mirror was dropped
    /// ([`IncrementalChecker::enable_pruning`]) are unavailable.
    ///
    /// # Panics
    ///
    /// Panics if events were already pruned — the signatures of past
    /// prunes cannot be reconstructed.
    pub fn enable_margin_tracking(&mut self) {
        assert!(
            self.stats.pruned_events == 0,
            "enable_margin_tracking() must be called before the first prune_settled()"
        );
        self.margin_tracking = true;
    }

    /// The monitored parameter `Ξ`.
    #[must_use]
    pub fn xi(&self) -> &Xi {
        &self.xi
    }

    /// The execution graph accumulated so far (identical to what
    /// [`ExecutionGraphBuilder`] would have produced from the same calls).
    ///
    /// # Panics
    ///
    /// Panics if [`IncrementalChecker::enable_pruning`] dropped the mirror.
    #[must_use]
    pub fn graph(&self) -> &ExecutionGraph {
        self.builder
            .as_ref()
            .expect("graph() is unavailable on a pruning monitor (enable_pruning was called)")
            .graph()
    }

    /// Whether the execution appended so far satisfies the ABC condition.
    #[must_use]
    pub fn is_admissible(&self) -> bool {
        self.violation.is_none()
    }

    /// The first violating relevant cycle found, if any (latched: once a
    /// violation exists, appending more events cannot remove it).
    #[must_use]
    pub fn violation(&self) -> Option<&Cycle> {
        self.violation.as_ref()
    }

    /// The summary of the latched violation witness, if any — computed from
    /// the live window at latch time, so it is available (and identical)
    /// with or without pruning, with or without the graph mirror.
    #[must_use]
    pub fn violation_summary(&self) -> Option<&WitnessSummary> {
        self.violation_summary.as_ref()
    }

    /// Work counters and footprint marks.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Events currently held live (not pruned).
    #[must_use]
    pub fn live_events(&self) -> usize {
        self.tg.num_live_nodes()
    }

    /// Arcs currently held live (not pruned).
    #[must_use]
    pub fn live_arcs(&self) -> usize {
        self.tg.num_arcs()
    }

    /// Whether process `p` has any event yet (works in every mode; the
    /// pruning-safe replacement for `graph().events_of(p).is_empty()`).
    #[must_use]
    pub fn process_has_events(&self, p: ProcessId) -> bool {
        self.last_event[p.0].is_some()
    }

    /// Marks process `p` Byzantine faulty: its future messages are exempt
    /// from the synchrony condition.
    ///
    /// # Panics
    ///
    /// Panics if `p` has already sent a message — the monitor cannot
    /// retract arcs, so faults must be declared up front (as a simulation
    /// does when the process is registered).
    pub fn mark_faulty(&mut self, p: ProcessId) {
        assert!(
            !self.has_sent[p.0],
            "{p} must be marked faulty before it sends"
        );
        self.faulty[p.0] = true;
        if let Some(b) = &mut self.builder {
            b.mark_faulty(p);
        }
    }

    /// Appends the wake-up (initial) event of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` already has events.
    pub fn append_init(&mut self, p: ProcessId) -> EventId {
        assert!(self.last_event[p.0].is_none(), "{p} already initialized");
        let id = self.push_node(p);
        self.last_event[p.0] = Some(id);
        self.stats.events += 1;
        if let Some(b) = &mut self.builder {
            let mirrored = b.init(p);
            debug_assert_eq!(mirrored.0, id);
        }
        EventId(id)
    }

    /// Appends a message from the computing step at `from` to process `to`
    /// (and its receive event), then re-checks the condition incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, already pruned, or `to` has no
    /// init event yet.
    pub fn append_send(&mut self, from: EventId, to: ProcessId) -> (MessageId, EventId) {
        self.append_send_inner(from, to, false)
    }

    /// Like [`IncrementalChecker::append_send`], but the message is exempt
    /// from the synchrony condition (the paper's restricted-graph hook).
    pub fn append_send_exempt(&mut self, from: EventId, to: ProcessId) -> (MessageId, EventId) {
        self.append_send_inner(from, to, true)
    }

    fn append_send_inner(
        &mut self,
        from: EventId,
        to: ProcessId,
        exempt: bool,
    ) -> (MessageId, EventId) {
        assert!(from.0 < self.tg.total_nodes(), "unknown send event");
        assert!(
            from.0 >= self.tg.base(),
            "send event {from} was already pruned: the prune_settled watermark promised \
             no further sends below e{}",
            self.tg.base()
        );
        assert!(
            self.last_event[to.0].is_some(),
            "{to} must be initialized before receiving"
        );
        OBS_APPENDS.add(1);
        // Arcs are counted as one batched add at the exit (forward +
        // backward + order + any shortcut crossings land together): one
        // recorder touch per append instead of one per arc.
        let arcs_before = self.stats.arcs;
        let base = self.tg.base();
        let sender = self.proc_of[from.0 - base];
        let effective = !exempt && !self.faulty[sender.0];
        let mid = MessageId(self.total_messages);
        self.total_messages += 1;
        self.has_sent[sender.0] = true;
        let old_arcs = self.tg.num_arcs();
        let prev_global = self.last_event[to.0].expect("receiver is initialized");
        let recv = self.push_node(to);
        self.last_event[to.0] = Some(recv);
        self.stats.events += 1;
        self.stats.messages += 1;
        if let Some(b) = &mut self.builder {
            let (mirrored_mid, mirrored_recv) = b.send(from, to);
            debug_assert_eq!((mirrored_mid, mirrored_recv.0), (mid, recv));
            if exempt {
                b.set_exempt(mirrored_mid);
            }
        }
        if self.violation.is_some() {
            // Latched: the verdict can never change, skip all arc work.
            return (mid, EventId(recv));
        }
        // Choose the new node's label directly instead of relaxing it from
        // scratch: the feasible window for `π(recv)` is
        //
        //   max(π(send) + (q,1), π(local_pred) + (0,1))  ≤  π(recv)
        //                                                ≤  π(send) + (p,−1)
        //
        // (lower bounds from recv's outgoing backward/local arcs, upper
        // bound from the incoming forward arc). Taking the *earliest*
        // feasible label — timestamp semantics: every message charged its
        // minimum delay `q` — keeps all existing labels untouched, so an
        // append that opens no window conflict costs zero relaxations. Only
        // when the window is empty (the message "spans": it arrives later
        // than the fast paths from its send event permit) is the label
        // capped to the upper bound and the tension propagated.
        let mut lower: Option<Weight> = None;
        let mut upper: Option<Weight> = None;
        if effective {
            self.push_arc(from.0, recv, ArcKind::Forward(mid));
            self.push_arc(recv, from.0, ArcKind::Backward(mid));
            let pu = self.pot[from.0 - base];
            lower = Some((pu.0 + self.q, pu.1 + 1));
            upper = Some((pu.0 + self.p, pu.1 - 1));
        }
        let live_prev = prev_global >= base;
        let mut row: Option<FrontierRow> = None;
        if live_prev {
            self.push_arc(
                recv,
                prev_global,
                ArcKind::LocalBack(LocalEdge {
                    from: EventId(prev_global),
                    to: EventId(recv),
                }),
            );
        } else {
            // `prev` was compacted: materialize its frontier row — the
            // condensed `prev ⇝ exit` paths, prefixed with the local edge
            // `recv → prev` — as shortcut arcs out of the new receive, so
            // the settled region stays exactly reachable.
            let r = self.frontier_row[to.0]
                .take()
                .expect("a pruned frontier always leaves its row behind");
            for out in &r.outs {
                let id = self.shortcuts.len();
                let local_step = CycleStep {
                    edge: ShadowEdge::Local(LocalEdge {
                        from: EventId(prev_global),
                        to: EventId(recv),
                    }),
                    against: true,
                };
                let mut steps = Vec::with_capacity(out.steps.len() + 1);
                steps.push(local_step.clone());
                steps.extend(out.steps.iter().cloned());
                let mut procs = Vec::with_capacity(out.procs.len() + 1);
                procs.push(to); // `prev` belongs to the receiving process
                procs.extend(out.procs.iter().cloned());
                // Every signature path gets the same local-edge prefix; a
                // local step carries no message, so `f`/`b` are unchanged.
                let sigs = out
                    .sigs
                    .iter()
                    .map(|s| {
                        let mut steps = Vec::with_capacity(s.steps.len() + 1);
                        steps.push(local_step.clone());
                        steps.extend(s.steps.iter().cloned());
                        let mut procs = Vec::with_capacity(s.procs.len() + 1);
                        procs.push(to);
                        procs.extend(s.procs.iter().cloned());
                        MarginSig {
                            f: s.f,
                            b: s.b,
                            steps,
                            procs,
                        }
                    })
                    .collect();
                self.shortcuts.push(ShortcutInfo {
                    weight: (out.weight.0, out.weight.1 - 1),
                    steps,
                    procs,
                    sigs,
                });
                self.push_arc(recv, out.head, ArcKind::Shortcut(id));
            }
            row = Some(r);
        }
        let pw = if live_prev {
            self.pot[prev_global - base]
        } else {
            row.as_ref().expect("row taken above").label
        };
        let bound = (pw.0, pw.1 + 1);
        lower = Some(match lower {
            Some(l) if l >= bound => l,
            _ => bound,
        });
        let mut label = lower.unwrap_or((0, 0));
        let mut tense = false;
        if let Some(u) = upper {
            if label > u {
                label = u;
                tense = true;
            }
        }
        self.pot[recv - base] = label;
        if tense {
            self.pending = Some(ConfirmCtx {
                u: from.0,
                v: recv,
                prev_global,
                prev_live: live_prev,
                seeds: row,
                mid,
                old_arcs,
            });
            self.enqueue(recv);
            self.restore_feasibility();
            self.pending = None;
        }
        OBS_ARCS.add((self.stats.arcs - arcs_before) as u64);
        (mid, EventId(recv))
    }

    fn push_node(&mut self, p: ProcessId) -> usize {
        let id = self.tg.push_node();
        self.proc_of.push(p);
        self.pot.push((0, 0));
        self.relax_count.push(0);
        self.in_queue.push(false);
        self.stats.live_events_peak = self.stats.live_events_peak.max(self.tg.num_live_nodes());
        id
    }

    fn push_arc(&mut self, from: usize, to: usize, kind: ArcKind) {
        self.tg.push_arc(from, to, kind);
        self.stats.arcs += 1;
        self.stats.live_arcs_peak = self.stats.live_arcs_peak.max(self.tg.num_arcs());
    }

    fn arc_weight(&self, kind: ArcKind) -> Weight {
        let first = match kind {
            ArcKind::Forward(_) => self.p,
            ArcKind::Backward(_) => -self.q,
            ArcKind::LocalBack(_) => 0,
            ArcKind::Shortcut(id) => return self.shortcuts[id].weight,
        };
        (first, -1)
    }

    /// Relaxes `arc`; returns the head node (global id) if its label
    /// dropped.
    fn try_relax(&mut self, ai: usize) -> Option<usize> {
        let arc = self.tg.arcs()[ai];
        let base = self.tg.base();
        let w = self.arc_weight(arc.kind);
        let from = arc.from - base;
        let to = arc.to - base;
        let cand = (self.pot[from].0 + w.0, self.pot[from].1 + w.1);
        if cand < self.pot[to] {
            self.pot[to] = cand;
            if self.relax_count[to] == 0 {
                self.touched.push(arc.to);
            }
            self.relax_count[to] += 1;
            self.stats.relaxations += 1;
            Some(arc.to)
        } else {
            None
        }
    }

    /// Queue-based re-relaxation from the enqueued tense nodes until the
    /// labels are feasible again — or, if that cannot happen (a negative
    /// cycle through a new arc), until the relaxation-count heuristic trips
    /// and the exact canonical confirmation latches the witness.
    fn restore_feasibility(&mut self) {
        let _span = abc_obs::span("monitor.frontier_repair");
        OBS_REPAIRS.add(1);
        let relaxations_before = self.stats.relaxations;
        // Without negative cycles a label only improves via simple paths, so
        // > #nodes improvements of one node in a single repair is a strong
        // negative-cycle signal — but queue orderings can exceed it benignly,
        // so every trip is confirmed by the exact canonical check (and the
        // threshold doubles on a false alarm to keep repair near-linear).
        let mut threshold = self.pot.len() as u64 + 2;
        'repair: while let Some(u) = self.queue.pop_front() {
            self.in_queue[u - self.tg.base()] = false;
            let mut cursor = self.tg.first_out(u);
            while let Some(ai) = cursor {
                cursor = self.tg.next_out(ai);
                let Some(head) = self.try_relax(ai) else {
                    continue;
                };
                if self.relax_count[head - self.tg.base()] > threshold {
                    self.stats.full_checks += 1;
                    if let Some((cycle, summary)) = self.confirm_violation() {
                        assert!(
                            summary.classification.violates(&self.xi),
                            "internal error: extracted cycle {cycle} does not violate Xi = {}",
                            self.xi
                        );
                        if let Some(b) = &self.builder {
                            debug_assert!(cycle.validate(b.graph()).is_ok());
                            debug_assert_eq!(summary, cycle.summarize(b.graph()));
                        }
                        self.violation = Some(cycle);
                        self.violation_summary = Some(summary);
                        break 'repair;
                    }
                    threshold = threshold.saturating_mul(2);
                }
                self.enqueue(head);
            }
        }
        self.queue.clear();
        let base = self.tg.base();
        for v in self.touched.drain(..) {
            self.relax_count[v - base] = 0;
            self.in_queue[v - base] = false;
        }
        OBS_RELAXATIONS.add(self.stats.relaxations - relaxations_before);
    }

    fn enqueue(&mut self, v: usize) {
        if !self.in_queue[v - self.tg.base()] {
            self.in_queue[v - self.tg.base()] = true;
            self.queue.push_back(v);
        }
    }

    /// Seeded shortest-path pass over the selected arena arcs (by index),
    /// relaxed in descending index order per round — backward and local
    /// arcs point to older events, so each round propagates whole
    /// descending chains. `seeds` are `(global node, initial label)` pairs
    /// (lex-min kept per node, first seed winning ties). Returns
    /// `(dist, pred, seed_of)` windowed by `base`/`width`: `pred` is the
    /// arc index that last improved a node, `seed_of` the index of the
    /// seed still owning its label (cleared once a relaxation beats it).
    ///
    /// # Panics
    ///
    /// Panics if relaxation does not converge within `width` rounds — the
    /// caller's arc set must be free of negative cycles (pre-append arcs
    /// during confirmation, settled prefixes during condensation).
    #[allow(clippy::type_complexity)]
    fn seeded_sssp(
        &self,
        arc_indices: &[usize],
        base: usize,
        width: usize,
        seeds: &[(usize, Weight)],
    ) -> (Vec<Option<Weight>>, Vec<Option<usize>>, Vec<Option<usize>>) {
        let arcs = self.tg.arcs();
        let mut dist: Vec<Option<Weight>> = vec![None; width];
        let mut pred: Vec<Option<usize>> = vec![None; width];
        let mut seed_of: Vec<Option<usize>> = vec![None; width];
        for (k, &(node, w)) in seeds.iter().enumerate() {
            let slot = node - base;
            if dist[slot].is_none_or(|x| w < x) {
                dist[slot] = Some(w);
                seed_of[slot] = Some(k);
            }
        }
        let mut converged = false;
        for _round in 0..=width {
            let mut changed = false;
            for &ai in arc_indices.iter().rev() {
                let arc = arcs[ai];
                let Some(d) = dist[arc.from - base] else {
                    continue;
                };
                let w = self.arc_weight(arc.kind);
                let cand = (d.0 + w.0, d.1 + w.1);
                let slot = arc.to - base;
                if dist[slot].is_none_or(|x| cand < x) {
                    dist[slot] = Some(cand);
                    pred[slot] = Some(ai);
                    seed_of[slot] = None;
                    changed = true;
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        assert!(
            converged,
            "internal error: seeded shortest-path region contains a negative cycle"
        );
        (dist, pred, seed_of)
    }

    /// Exact violation confirmation via the canonical cycle shape (module
    /// docs): the append of `v` created a violating cycle iff
    /// `w(u→v) + w(v→prev) + shortest-path(prev ⇝ u over pre-append arcs)`
    /// is lexicographically negative. Pre-append arcs are feasible (no
    /// negative cycle), so the seeded shortest-path pass terminates.
    fn confirm_violation(&self) -> Option<(Cycle, WitnessSummary)> {
        let _span = abc_obs::span("monitor.confirm_sssp");
        OBS_CONFIRMS.add(1);
        let ctx = self
            .pending
            .as_ref()
            .expect("repairs always carry their append");
        let base = self.tg.base();
        let n = self.tg.num_live_nodes();
        let arcs = &self.tg.arcs()[..ctx.old_arcs];
        // A live `prev` seeds the pass at zero; a compacted one seeds it
        // with its condensed `prev ⇝ exit` paths, so `dist[u]` is the same
        // shortest `prev ⇝ u` distance the full graph would yield.
        let seeds: Vec<(usize, Weight)> = if ctx.prev_live {
            vec![(ctx.prev_global, (0, 0))]
        } else {
            let row = ctx.seeds.as_ref()?;
            if row.outs.is_empty() {
                return None;
            }
            row.outs.iter().map(|o| (o.head, o.weight)).collect()
        };
        let pre_append: Vec<usize> = (0..ctx.old_arcs).collect();
        let (dist, pred, seed_of) = self.seeded_sssp(&pre_append, base, n, &seeds);
        let du = dist[ctx.u - base]?;
        let w_fwd = self.arc_weight(ArcKind::Forward(ctx.mid));
        let w_local = (0i128, -1i128);
        let total = (du.0 + w_fwd.0 + w_local.0, du.1 + w_fwd.1 + w_local.1);
        if total >= (0, 0) {
            return None;
        }
        // Collect the path prev ⇝ u by walking predecessors back from u;
        // the walk bottoms out at a seeded node (a compacted `prev`'s seed
        // carries the condensed expansion to splice into the witness).
        let mut path = Vec::new();
        let mut node = ctx.u;
        let seed = loop {
            match pred[node - base] {
                Some(ai) => {
                    path.push(ai);
                    node = arcs[ai].from;
                }
                None => break seed_of[node - base].expect("unseeded dead end on the path"),
            }
        };
        path.reverse();
        let seed = if ctx.prev_live {
            debug_assert_eq!(node, ctx.prev_global, "live-prev paths end at prev");
            None
        } else {
            Some(seed)
        };
        // Assemble the witness steps and, in parallel, the process of every
        // vertex the cycle visits (shortcut arcs expand to their condensed
        // steps and stored interior processes).
        let mut steps = Vec::with_capacity(path.len() + 2);
        let mut procs_seq: Vec<ProcessId> = Vec::with_capacity(path.len() + 2);
        steps.push(CycleStep {
            edge: ShadowEdge::Message(ctx.mid),
            against: false,
        });
        procs_seq.push(self.proc_of[ctx.u - base]);
        steps.push(CycleStep {
            edge: ShadowEdge::Local(LocalEdge {
                from: EventId(ctx.prev_global),
                to: EventId(ctx.v),
            }),
            against: true,
        });
        procs_seq.push(self.proc_of[ctx.v - base]);
        if let Some(k) = seed {
            let out = &ctx.seeds.as_ref().expect("seed implies a row").outs[k];
            // `prev` belongs to `v`'s process; then the condensed interior.
            procs_seq.push(self.proc_of[ctx.v - base]);
            procs_seq.extend(out.procs.iter().copied());
            steps.extend(out.steps.iter().cloned());
        }
        for &ai in &path {
            let arc = arcs[ai];
            procs_seq.push(self.proc_of[arc.from - base]);
            match arc.kind {
                ArcKind::Forward(m) => steps.push(CycleStep {
                    edge: ShadowEdge::Message(m),
                    against: false,
                }),
                ArcKind::Backward(m) => steps.push(CycleStep {
                    edge: ShadowEdge::Message(m),
                    against: true,
                }),
                ArcKind::LocalBack(l) => steps.push(CycleStep {
                    edge: ShadowEdge::Local(l),
                    against: true,
                }),
                ArcKind::Shortcut(id) => {
                    let info = &self.shortcuts[id];
                    steps.extend(info.steps.iter().cloned());
                    procs_seq.extend(info.procs.iter().copied());
                }
            }
        }
        let cycle = Cycle::new(steps);
        // Summarize from the live window (no graph needed): process path in
        // traversal order, consecutive repeats collapsed, closing repeat
        // dropped — exactly `Cycle::summarize`.
        let mut process_path: Vec<ProcessId> = Vec::new();
        for &p in &procs_seq {
            if process_path.last() != Some(&p) {
                process_path.push(p);
            }
        }
        if process_path.len() > 1 && process_path.first() == process_path.last() {
            process_path.pop();
        }
        let summary = WitnessSummary {
            classification: cycle.classify(),
            process_path,
            steps: cycle.steps().len(),
        };
        Some((cycle, summary))
    }

    /// Compacts the settled prefix `[base, W)` of the monitored execution,
    /// freeing its events, arcs, potentials and bookkeeping. The cut `W` is
    /// the caller's watermark: `oldest_inflight_send` promises that **no
    /// future [`append_send`](IncrementalChecker::append_send) names a send
    /// event below it** (`None` = no old event will ever be named again —
    /// the stream is effectively over). A later append below the watermark
    /// panics — that promise is the *only* condition; in-flight messages
    /// whose send event falls below the cut are handled by the boundary
    /// condensation (see the module docs), not forbidden.
    ///
    /// Verdicts, violation latch points, and witnesses are **byte-identical**
    /// with and without pruning, at any call cadence. Returns the number of
    /// events compacted by this call — `0`, with the window left intact,
    /// when a margin-tracking monitor cannot fold its margin first because
    /// the window is beyond the exact probes' integer range
    /// ([`CheckError::GraphTooLarge`]).
    pub fn prune_settled(&mut self, oldest_inflight_send: Option<EventId>) -> usize {
        let _span = abc_obs::span("monitor.prune");
        let total = self.tg.total_nodes();
        let base = self.tg.base();
        debug_assert!(self.queue.is_empty(), "prune between appends only");
        let w = oldest_inflight_send.map_or(total, |e| e.0.min(total));
        if w <= base {
            return 0;
        }
        if self.violation.is_none() {
            // Fold the exact live margin into the monotone floor *before*
            // the prefix is condensed: probes after the prune only range
            // above the floor, which is what keeps the boundary signature
            // envelopes finite and exact. Without the fold there is no
            // exact condensation, so the prune is declined.
            if self.margin_tracking && self.fold_margin_floor().is_err() {
                return 0;
            }
            // Replace every path through the condemned prefix with an exact
            // live-to-live shortcut before the arcs disappear. Once the
            // verdict is latched no future confirmation ever walks the
            // arcs, so a latched monitor compacts without condensing.
            self.condense_boundary(w);
        }
        let dropped = w - base;
        let (nodes, arcs) = self.tg.compact_below(w);
        debug_assert_eq!(nodes, dropped);
        self.proc_of.drain(..dropped);
        self.pot.drain(..dropped);
        self.relax_count.drain(..dropped);
        self.in_queue.drain(..dropped);
        self.stats.pruned_events += nodes;
        self.stats.pruned_arcs += arcs;
        OBS_PRUNED_EVENTS.add(nodes as u64);
        OBS_PRUNED_ARCS.add(arcs as u64);
        nodes
    }

    /// Condenses the boundary of the to-be-pruned prefix `[base, w)`,
    /// ahead of `compact_below(w)`:
    ///
    /// * every (entry arc, exit arc) pair whose crossing path through the
    ///   prefix exists becomes one shortcut arc between the live endpoints,
    ///   weighted by entry + shortest internal path + exit (with the full
    ///   step expansion stored for witness reproduction);
    /// * every process whose newest event falls below the cut gets a
    ///   [`FrontierRow`] freezing its potential and its condensed paths to
    ///   each exit; stale rows (frozen at an earlier prune) whose heads now
    ///   fall below the cut are recomposed through the new prefix.
    ///
    /// The prefix's internal arcs can never change after the cut (future
    /// message arcs attach at or above the watermark, future local arcs
    /// attach to frontier rows), so these condensations stay exact forever.
    fn condense_boundary(&mut self, w: usize) {
        let base = self.tg.base();
        let win = w - base;
        // Classify the arena against the cut.
        let mut internal: Vec<usize> = Vec::new();
        let mut entries: Vec<usize> = Vec::new();
        let mut exits: Vec<usize> = Vec::new();
        for (ai, a) in self.tg.arcs().iter().enumerate() {
            match (a.from < w, a.to < w) {
                (true, true) => internal.push(ai),
                (false, true) => entries.push(ai),
                (true, false) => exits.push(ai),
                (false, false) => {}
            }
        }
        // Landing points that need a shortest-path tree inside the prefix:
        // entry-arc heads, freshly pruned frontiers, stale row heads.
        let mut landing_idx: Vec<Option<usize>> = vec![None; win];
        let mut landings: Vec<usize> = Vec::new();
        let add_landing =
            |landing_idx: &mut Vec<Option<usize>>, landings: &mut Vec<usize>, v: usize| {
                if landing_idx[v - base].is_none() {
                    landing_idx[v - base] = Some(landings.len());
                    landings.push(v);
                }
            };
        if !exits.is_empty() {
            for &ai in &entries {
                add_landing(&mut landing_idx, &mut landings, self.tg.arcs()[ai].to);
            }
            for p in 0..self.num_processes {
                match self.last_event[p] {
                    Some(le) if le >= base && le < w => {
                        add_landing(&mut landing_idx, &mut landings, le);
                    }
                    Some(le) if le < base => {
                        if let Some(row) = &self.frontier_row[p] {
                            for out in &row.outs {
                                if out.head < w {
                                    add_landing(&mut landing_idx, &mut landings, out.head);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        // One shortest-path tree per landing, over the internal arcs only
        // (same seeded pass as the confirmation's — settled prefixes
        // typically converge in a handful of rounds).
        let mut dists: Vec<Vec<Option<Weight>>> = Vec::with_capacity(landings.len());
        let mut preds: Vec<Vec<Option<usize>>> = Vec::with_capacity(landings.len());
        for &start in &landings {
            let (dist, pred, _) = self.seeded_sssp(&internal, base, win, &[(start, (0, 0))]);
            dists.push(dist);
            preds.push(pred);
        }
        // Margin tracking: the parametric companion of the lex trees above.
        // `exit_sigs[li][bi]` is the signature envelope of *all* paths
        // `landings[li] ⇝ head(exits[bi])` (internal signature labels
        // extended by the exit arc), over probe ratios at or above the
        // just-folded margin floor.
        // While a tree grows its signatures are links into `links`; only
        // the few that reach an exit are spelled out, and the links of one
        // landing are dropped before the next landing's are made.
        let floor = self.margin_floor.unwrap_or((1, 1));
        let mut exit_sigs: Vec<Vec<Vec<MarginSig>>> = Vec::new();
        if self.margin_tracking {
            let mut links: SigArena = Vec::new();
            for &start in &landings {
                links.clear();
                let labels = self.margin_sig_sssp(&internal, base, win, start, floor, &mut links);
                let mut per_exit = Vec::with_capacity(exits.len());
                for &b in &exits {
                    let exit_arc = self.tg.arcs()[b];
                    let mut cands = Vec::new();
                    for l in &labels[exit_arc.from - base] {
                        let joint = l.first.map(|_| self.proc_of[exit_arc.from - base]);
                        for d in self.arc_sigs(exit_arc.kind) {
                            cands.extend(l.concat(joint, &d, &mut links));
                        }
                    }
                    let envelope = margin_envelope(cands, floor);
                    per_exit.push(envelope.iter().map(|s| s.materialize(&links)).collect());
                }
                exit_sigs.push(per_exit);
            }
        }
        // The compositions below (entry · exit paths, row · exit paths,
        // merges with stored envelopes) link the same way, and again only
        // what survives every merge is spelled out, at the end.
        let mut arena: SigArena = Vec::new();
        // The expansion of one arc: its steps and interior processes.
        let expand = |kind: ArcKind| -> (Vec<CycleStep>, Vec<ProcessId>) {
            match kind {
                ArcKind::Forward(m) => (
                    vec![CycleStep {
                        edge: ShadowEdge::Message(m),
                        against: false,
                    }],
                    Vec::new(),
                ),
                ArcKind::Backward(m) => (
                    vec![CycleStep {
                        edge: ShadowEdge::Message(m),
                        against: true,
                    }],
                    Vec::new(),
                ),
                ArcKind::LocalBack(l) => (
                    vec![CycleStep {
                        edge: ShadowEdge::Local(l),
                        against: true,
                    }],
                    Vec::new(),
                ),
                ArcKind::Shortcut(id) => {
                    let info = &self.shortcuts[id];
                    (info.steps.clone(), info.procs.clone())
                }
            }
        };
        // The composite `landings[li] ⇝ head(exit b)` going shortest-path
        // inside the prefix then out through `b`: (weight, steps, interior
        // procs), with the landing itself excluded from the procs.
        let compose_to_exit =
            |li: usize, b: usize| -> Option<(Weight, Vec<CycleStep>, Vec<ProcessId>)> {
                let exit_arc = self.tg.arcs()[b];
                let d = dists[li][exit_arc.from - base]?;
                let mut chain: Vec<usize> = Vec::new();
                let mut node = exit_arc.from;
                while node != landings[li] {
                    let ai = preds[li][node - base].expect("reachable nodes have predecessors");
                    chain.push(ai);
                    node = self.tg.arcs()[ai].from;
                }
                chain.reverse();
                chain.push(b);
                let bw = self.arc_weight(exit_arc.kind);
                let weight = (d.0 + bw.0, d.1 + bw.1);
                let mut steps = Vec::new();
                let mut procs = Vec::new();
                for (i, &ai) in chain.iter().enumerate() {
                    let arc = self.tg.arcs()[ai];
                    if i > 0 {
                        procs.push(self.proc_of[arc.from - base]);
                    }
                    let (s, ip) = expand(arc.kind);
                    steps.extend(s);
                    procs.extend(ip);
                }
                Some((weight, steps, procs))
            };
        // Entry → exit shortcuts, lex-min deduped per live endpoint pair —
        // both among this prune's candidates and against shortcut arcs that
        // survive the cut (long-lived boundaries would otherwise pile up
        // parallel arcs prune after prune).
        let mut live_shortcut: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for a in self.tg.arcs() {
            if a.from >= w && a.to >= w {
                if let ArcKind::Shortcut(id) = a.kind {
                    live_shortcut
                        .entry((a.from, a.to))
                        .and_modify(|e| {
                            if self.shortcuts[id].weight < self.shortcuts[*e].weight {
                                *e = id;
                            }
                        })
                        .or_insert(id);
                }
            }
        }
        let mut shortcut_slots: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        let mut new_arcs: Vec<(usize, usize, ShortcutInfo, Vec<Sig>)> = Vec::new();
        let mut replacements: Vec<(usize, ShortcutInfo)> = Vec::new();
        let mut updated_weights: std::collections::HashMap<usize, Weight> =
            std::collections::HashMap::new();
        // Signature merges for *surviving* shortcut arcs, keyed by old id
        // and applied after the table remap: a survivor absorbs the
        // envelopes of every new crossing path between its endpoints even
        // when its lex weight does not improve — a probe below `Ξ` may
        // prefer the new path.
        let mut sig_updates: std::collections::HashMap<usize, Vec<Sig>> =
            std::collections::HashMap::new();
        for &ea in entries.iter().filter(|_| !exits.is_empty()) {
            let entry_arc = self.tg.arcs()[ea];
            let li = landing_idx[entry_arc.to - base].expect("entry heads are landings");
            let ew = self.arc_weight(entry_arc.kind);
            for (bi, &b) in exits.iter().enumerate() {
                let Some((cw, csteps, cprocs)) = compose_to_exit(li, b) else {
                    continue;
                };
                let from = entry_arc.from;
                let to = self.tg.arcs()[b].to;
                let weight = (ew.0 + cw.0, ew.1 + cw.1);
                if from == to && weight >= (0, 0) {
                    // A non-negative self-loop can never improve a shortest
                    // path nor close a violating cycle: drop it. (A negative
                    // one would be a negative cycle — impossible while the
                    // verdict is open.) Margin probes lose nothing either:
                    // any cycle through the loop existed before this prune,
                    // so its ratio is already folded into the margin floor.
                    continue;
                }
                debug_assert!(
                    from != to || weight < (0, 0) || self.violation.is_some(),
                    "unlatched monitors have no negative self-loops"
                );
                let sigs = if self.margin_tracking {
                    let joint = Some(self.proc_of[entry_arc.to - base]);
                    let mut cands = Vec::new();
                    for e in self.arc_sigs(entry_arc.kind) {
                        for s in &exit_sigs[li][bi] {
                            cands.extend(e.concat(joint, &Sig::stored(s), &mut arena));
                        }
                    }
                    margin_envelope(cands, floor)
                } else {
                    Vec::new()
                };
                if let Some(&id) = live_shortcut.get(&(from, to)) {
                    // A surviving shortcut already covers this endpoint
                    // pair: keep whichever path is shorter, in place.
                    // (`updated_weights` overlays in-flight improvements so
                    // later candidates compare against the best so far.)
                    if self.margin_tracking {
                        let mut cands = sig_updates.remove(&id).unwrap_or_else(|| {
                            self.shortcuts[id].sigs.iter().map(Sig::stored).collect()
                        });
                        cands.extend(sigs);
                        sig_updates.insert(id, margin_envelope(cands, floor));
                    }
                    let current = updated_weights
                        .get(&id)
                        .copied()
                        .unwrap_or(self.shortcuts[id].weight);
                    if weight < current {
                        let (mut steps, mut procs) = expand(entry_arc.kind);
                        procs.push(self.proc_of[entry_arc.to - base]);
                        steps.extend(csteps);
                        procs.extend(cprocs);
                        replacements.push((
                            id,
                            ShortcutInfo {
                                weight,
                                steps,
                                procs,
                                // `sig_updates` lands after the remap and
                                // carries the merged envelope.
                                sigs: Vec::new(),
                            },
                        ));
                        updated_weights.insert(id, weight);
                    }
                    continue;
                }
                let (mut steps, mut procs) = expand(entry_arc.kind);
                procs.push(self.proc_of[entry_arc.to - base]);
                steps.extend(csteps);
                procs.extend(cprocs);
                let info = ShortcutInfo {
                    weight,
                    steps,
                    procs,
                    sigs: Vec::new(), // spelled out from the slot's links below
                };
                match shortcut_slots.entry((from, to)) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(new_arcs.len());
                        new_arcs.push((from, to, info, sigs));
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (_, _, slot, slot_sigs) = &mut new_arcs[*e.get()];
                        if self.margin_tracking {
                            let mut cands = std::mem::take(slot_sigs);
                            cands.extend(sigs);
                            *slot_sigs = margin_envelope(cands, floor);
                        }
                        if info.weight < slot.weight {
                            *slot = info;
                        }
                    }
                }
            }
        }
        // Frontier rows: freeze fresh ones, recompose stale ones. Per live
        // head, the lex-min path wins the row slot, but the signature
        // envelopes of *all* candidate paths to that head are merged — the
        // same weight-vs-signature split as for shortcut arcs.
        let margin_tracking = self.margin_tracking;
        fn push_min<'a>(
            outs: &mut Vec<LinkedRowOut<'a>>,
            cand: RowOut,
            sigs: Vec<Sig<'a>>,
            floor: (i128, i128),
        ) {
            match outs.iter_mut().find(|(o, _)| o.head == cand.head) {
                Some((o, merged)) => {
                    if !sigs.is_empty() {
                        merged.extend(sigs);
                        *merged = margin_envelope(std::mem::take(merged), floor);
                    }
                    if cand.weight < o.weight {
                        *o = cand;
                    }
                }
                None => outs.push((cand, sigs)),
            }
        }
        let mut new_rows: Vec<(usize, Weight, Vec<LinkedRowOut>)> = Vec::new();
        for p in 0..self.num_processes {
            match self.last_event[p] {
                Some(le) if le >= base && le < w => {
                    let mut outs: Vec<LinkedRowOut> = Vec::new();
                    if !exits.is_empty() {
                        let li = landing_idx[le - base].expect("fresh frontiers are landings");
                        for (bi, &b) in exits.iter().enumerate() {
                            let Some((weight, steps, procs)) = compose_to_exit(li, b) else {
                                continue;
                            };
                            let sigs = if margin_tracking {
                                exit_sigs[li][bi].iter().map(Sig::stored).collect()
                            } else {
                                Vec::new()
                            };
                            let out = RowOut {
                                head: self.tg.arcs()[b].to,
                                weight,
                                steps,
                                procs,
                                sigs: Vec::new(),
                            };
                            push_min(&mut outs, out, sigs, floor);
                        }
                    }
                    new_rows.push((p, self.pot[le - base], outs));
                }
                Some(le) if le < base => {
                    let Some(row) = &self.frontier_row[p] else {
                        continue;
                    };
                    let mut outs: Vec<LinkedRowOut> = Vec::new();
                    for out in &row.outs {
                        if out.head >= w {
                            let kept = RowOut {
                                head: out.head,
                                weight: out.weight,
                                steps: out.steps.clone(),
                                procs: out.procs.clone(),
                                sigs: Vec::new(),
                            };
                            let sigs = out.sigs.iter().map(Sig::stored).collect();
                            push_min(&mut outs, kept, sigs, floor);
                            continue;
                        }
                        if exits.is_empty() {
                            continue;
                        }
                        let li = landing_idx[out.head - base].expect("stale heads are landings");
                        for (bi, &b) in exits.iter().enumerate() {
                            let Some((cw, csteps, cprocs)) = compose_to_exit(li, b) else {
                                continue;
                            };
                            let mut steps = out.steps.clone();
                            let mut procs = out.procs.clone();
                            procs.push(self.proc_of[out.head - base]);
                            steps.extend(csteps);
                            procs.extend(cprocs);
                            let sigs = if margin_tracking {
                                let joint = Some(self.proc_of[out.head - base]);
                                let mut cands = Vec::new();
                                for s in &out.sigs {
                                    for c in &exit_sigs[li][bi] {
                                        let c = Sig::stored(c);
                                        cands.extend(Sig::stored(s).concat(joint, &c, &mut arena));
                                    }
                                }
                                margin_envelope(cands, floor)
                            } else {
                                Vec::new()
                            };
                            let recomposed = RowOut {
                                head: self.tg.arcs()[b].to,
                                weight: (out.weight.0 + cw.0, out.weight.1 + cw.1),
                                steps,
                                procs,
                                sigs: Vec::new(),
                            };
                            push_min(&mut outs, recomposed, sigs, floor);
                        }
                    }
                    new_rows.push((p, row.label, outs));
                }
                _ => {}
            }
        }
        // Spell out the surviving signatures; the links end here.
        let spell = |sigs: Vec<Sig>| -> Vec<MarginSig> {
            sigs.iter().map(|s| s.materialize(&arena)).collect()
        };
        let new_arcs: Vec<(usize, usize, ShortcutInfo)> = new_arcs
            .into_iter()
            .map(|(from, to, info, sigs)| {
                let sigs = spell(sigs);
                (from, to, ShortcutInfo { sigs, ..info })
            })
            .collect();
        let sig_updates: Vec<(usize, Vec<MarginSig>)> = sig_updates
            .into_iter()
            .map(|(id, sigs)| (id, spell(sigs)))
            .collect();
        let new_rows: Vec<(usize, FrontierRow)> = new_rows
            .into_iter()
            .map(|(p, label, outs)| {
                let outs = outs
                    .into_iter()
                    .map(|(out, sigs)| RowOut {
                        sigs: spell(sigs),
                        ..out
                    })
                    .collect();
                (p, FrontierRow { label, outs })
            })
            .collect();
        // Apply: rebuild the shortcut table (survivors keep their info under
        // new ids, consumed entries vanish with their arcs), then push the
        // fresh shortcut arcs and install the rows.
        let old_table = std::mem::take(&mut self.shortcuts);
        let mut remap: Vec<Option<usize>> = vec![None; old_table.len()];
        let mut new_table: Vec<ShortcutInfo> = Vec::new();
        for a in self.tg.arcs() {
            if a.from >= w && a.to >= w {
                if let ArcKind::Shortcut(id) = a.kind {
                    if remap[id].is_none() {
                        remap[id] = Some(new_table.len());
                        new_table.push(old_table[id].clone());
                    }
                }
            }
        }
        for a in self.tg.arcs_mut() {
            if a.from >= w && a.to >= w {
                if let ArcKind::Shortcut(id) = a.kind {
                    a.kind = ArcKind::Shortcut(remap[id].expect("survivor was remapped"));
                }
            }
        }
        for (old_id, info) in replacements {
            let new_id = remap[old_id].expect("replaced shortcuts survive the cut");
            new_table[new_id] = info;
        }
        for (old_id, sigs) in sig_updates {
            let new_id = remap[old_id].expect("sig-merged shortcuts survive the cut");
            new_table[new_id].sigs = sigs;
        }
        self.shortcuts = new_table;
        for (from, to, info) in new_arcs {
            let id = self.shortcuts.len();
            self.shortcuts.push(info);
            self.push_arc(from, to, ArcKind::Shortcut(id));
        }
        for (p, row) in new_rows {
            self.frontier_row[p] = Some(row);
        }
    }

    /// The margin signatures of one live arc: plain arcs carry their single
    /// step, shortcut arcs their stored envelope.
    fn arc_sigs(&self, kind: ArcKind) -> impl Iterator<Item = Sig<'_>> {
        let step =
            |f, b, edge, against| (Some(Sig::step(f, b, CycleStep { edge, against })), &[][..]);
        let (own, stored): (Option<Sig>, &[MarginSig]) = match kind {
            ArcKind::Forward(m) => step(1, 0, ShadowEdge::Message(m), false),
            ArcKind::Backward(m) => step(0, 1, ShadowEdge::Message(m), true),
            ArcKind::LocalBack(l) => step(0, 0, ShadowEdge::Local(l), true),
            ArcKind::Shortcut(id) => (None, &self.shortcuts[id].sigs),
        };
        own.into_iter().chain(stored.iter().map(Sig::stored))
    }

    /// Signature-envelope shortest paths from `start` over the internal
    /// arcs — the parametric companion of
    /// [`IncrementalChecker::seeded_sssp`]: instead of the one lex-optimal
    /// path at `Ξ`, every node keeps the lower envelope of all incoming
    /// path signatures over probe ratios at or above the margin floor.
    ///
    /// Terminates because an insert only succeeds when a node's envelope
    /// strictly improves on some open sub-interval, and prefix cycles cost
    /// `≥ 0` everywhere on it (their ratios were folded into the floor
    /// right before condensation), so lapped signatures never survive the
    /// envelope.
    fn margin_sig_sssp<'a>(
        &'a self,
        internal: &[usize],
        base: usize,
        win: usize,
        start: usize,
        floor: (i128, i128),
        arena: &mut SigArena<'a>,
    ) -> Vec<Vec<Sig<'a>>> {
        let arcs = self.tg.arcs();
        let mut labels: Vec<Vec<Sig>> = vec![Vec::new(); win];
        labels[start - base] = vec![Sig::empty()];
        let mut rounds: usize = 0;
        loop {
            let mut changed = false;
            for &ai in internal.iter().rev() {
                let arc = arcs[ai];
                let (from, to) = (arc.from - base, arc.to - base);
                // A self-loop only laps a prefix cycle (see above).
                if from == to || labels[from].is_empty() {
                    continue;
                }
                let (sources, target) = if from < to {
                    let (lo, hi) = labels.split_at_mut(to);
                    (&lo[from], &mut hi[0])
                } else {
                    let (lo, hi) = labels.split_at_mut(from);
                    (&hi[0], &mut lo[to])
                };
                for l in sources {
                    let joint = l.first.map(|_| self.proc_of[from]);
                    for d in self.arc_sigs(arc.kind) {
                        // A dominated line never wins anywhere: skip it
                        // before it costs an arena link.
                        if dominated(target, l.f + d.f, l.b + d.b) {
                            continue;
                        }
                        if let Some(cand) = l.concat(joint, &d, arena) {
                            changed |= margin_envelope_insert(target, cand, floor);
                        }
                    }
                }
            }
            if !changed {
                return labels;
            }
            rounds += 1;
            assert!(
                rounds <= 100_000,
                "internal error: margin signature envelopes failed to converge"
            );
        }
    }

    /// The live window's best cycle strictly above the folded floor (at
    /// or above `1` while there is none), with the witness summary of a
    /// cycle attaining it — one run of the crate's max-cycle-ratio engine
    /// over the live arena, shortcut arcs charged their signature
    /// envelopes. `Ok(None)` when the window does not beat the floor.
    #[allow(clippy::type_complexity)]
    fn window_best(&self) -> Result<Option<((i128, i128), Option<WitnessSummary>)>, CheckError> {
        debug_assert!(
            self.violation.is_none(),
            "latched margins come from the witness summary"
        );
        let best = maxratio::max_cycle_ratio(&self.tg, &self.shortcuts[..], self.margin_floor)?;
        Ok(best.map(|found| {
            // At ratio exactly 1 there is no canonical cycle to show.
            let witness = (!found.cycle.is_empty()).then(|| self.expand_window_cycle(&found.cycle));
            ((found.b, found.f), witness)
        }))
    }

    /// Folds the exact live margin into the monotone floor: margins never
    /// shrink as an execution grows, so the pre-prune margin bounds every
    /// later one from below. Runs right before each condensation so that
    /// probes after the prune only range above the floor.
    fn fold_margin_floor(&mut self) -> Result<(), CheckError> {
        // Fast path: if the potentials already bound the live window at or
        // below the floor, the fold cannot raise it.
        if let (Some(floor), Some(bound)) = (self.margin_floor, self.margin_upper_bound()) {
            if bound <= maxratio::ratio_of(floor) {
                return Ok(());
            }
        }
        if let Some((ratio, witness)) = self.window_best()? {
            self.margin_floor = Some(ratio);
            self.margin_floor_witness = witness;
        }
        Ok(())
    }

    /// Expands a probe cycle (arc + chosen-signature picks, traversal
    /// order) into a witness summary — the same assembly as the violation
    /// confirmation's, shortcut arcs spliced from the chosen signature.
    fn expand_window_cycle(&self, picks: &[(usize, usize)]) -> WitnessSummary {
        let base = self.tg.base();
        let arcs = self.tg.arcs();
        let mut steps: Vec<CycleStep> = Vec::new();
        let mut procs_seq: Vec<ProcessId> = Vec::new();
        for &(ai, si) in picks {
            let arc = arcs[ai];
            procs_seq.push(self.proc_of[arc.from - base]);
            match arc.kind {
                ArcKind::Forward(m) => steps.push(CycleStep {
                    edge: ShadowEdge::Message(m),
                    against: false,
                }),
                ArcKind::Backward(m) => steps.push(CycleStep {
                    edge: ShadowEdge::Message(m),
                    against: true,
                }),
                ArcKind::LocalBack(l) => steps.push(CycleStep {
                    edge: ShadowEdge::Local(l),
                    against: true,
                }),
                ArcKind::Shortcut(id) => {
                    let sig = &self.shortcuts[id].sigs[si];
                    steps.extend(sig.steps.iter().cloned());
                    procs_seq.extend(sig.procs.iter().copied());
                }
            }
        }
        let cycle = Cycle::new(steps);
        let mut process_path: Vec<ProcessId> = Vec::new();
        for &p in &procs_seq {
            if process_path.last() != Some(&p) {
                process_path.push(p);
            }
        }
        if process_path.len() > 1 && process_path.first() == process_path.last() {
            process_path.pop();
        }
        WitnessSummary {
            classification: cycle.classify(),
            process_path,
            steps: cycle.steps().len(),
        }
    }

    /// The execution's current **synchrony margin**: the exact maximum
    /// relevant-cycle ratio `|Z−|/|Z+|` over everything appended so far, or
    /// `Ok(None)` while no relevant cycle exists. Matches the batch
    /// [`crate::check::max_relevant_cycle_ratio`] over the same events at
    /// every point of the stream — pruned or not — so the margin is a
    /// monotone "distance to violation" gauge: the monitor stays admissible
    /// exactly while the margin is below `Ξ`, and once the verdict latches
    /// the margin freezes at the witness's ratio.
    ///
    /// ```
    /// use abc_core::monitor::IncrementalChecker;
    /// use abc_core::graph::ProcessId;
    /// use abc_core::Xi;
    /// use abc_rational::Ratio;
    ///
    /// let xi = Xi::from_integer(3);
    /// let mut mon = IncrementalChecker::new(3, &xi)?;
    /// let q = mon.append_init(ProcessId(0));
    /// mon.append_init(ProcessId(1));
    /// mon.append_init(ProcessId(2));
    /// assert_eq!(mon.current_margin()?, None); // acyclic: no cycle yet
    /// // Fast chain 0 → 2 → 1, spanned by a slow direct message 0 → 1.
    /// let (_, r) = mon.append_send(q, ProcessId(2));
    /// mon.append_send(r, ProcessId(1));
    /// mon.append_send(q, ProcessId(1));
    /// let margin = mon.current_margin()?.expect("the span closes a cycle");
    /// assert_eq!(margin.ratio, Ratio::from_integer(2)); // 2 hops against 1
    /// assert!(mon.is_admissible()); // margin 2 is still below Ξ = 3
    /// # Ok::<(), abc_core::check::CheckError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`CheckError::GraphTooLarge`] when the (windowed) probe arithmetic
    /// would overflow, exactly as in the batch computation.
    ///
    /// # Panics
    ///
    /// Panics on a pruning monitor whose mirror was dropped unless
    /// [`IncrementalChecker::enable_margin_tracking`] was called before the
    /// first prune.
    pub fn current_margin(&self) -> Result<Option<MarginReport>, CheckError> {
        let _span = abc_obs::span("monitor.margin_probe");
        OBS_PROBES.add(1);
        if let Some(s) = &self.violation_summary {
            let ratio = s
                .classification
                .ratio()
                .expect("latched witnesses are relevant cycles");
            return Ok(Some(MarginReport {
                ratio,
                witness: Some(s.clone()),
            }));
        }
        if !self.margin_tracking {
            let mirror = self.builder.as_ref().expect(
                "current_margin() on a pruning monitor requires enable_margin_tracking() \
                 before the first prune_settled()",
            );
            // The window is the whole execution until something is pruned
            // from it; after an untracked prune only the mirror is exact.
            if self.stats.pruned_events > 0 {
                let g = mirror.graph();
                return Ok(
                    check::max_ratio_cycle(g)?.map(|(ratio, cycle)| MarginReport {
                        ratio,
                        witness: cycle.map(|c| c.summarize(g)),
                    }),
                );
            }
        }
        let floor = || {
            self.margin_floor
                .map(|f| (f, self.margin_floor_witness.clone()))
        };
        Ok(self
            .window_best()?
            .or_else(floor)
            .map(|(ratio, witness)| MarginReport {
                ratio: maxratio::ratio_of(ratio),
                witness,
            }))
    }

    /// A cheap upper bound on [`IncrementalChecker::current_margin`]: an
    /// `O(live arcs)` scan of the feasible Bellman–Ford potentials, no
    /// shortest-path probe. For every live forward arc the potential
    /// stretch `Δ = π(recv).0 − π(send).0` certifies that no relevant
    /// cycle through that message has ratio above `Δ/q` (scaling the
    /// potentials by `1/q` yields a feasible potential for the probe at
    /// that ratio; boundary-shortcut signatures with `f > 0` contribute
    /// `(Δ + q·b)/(q·f)` the same way), so the maximum stretch, combined
    /// with the folded floor, bounds the margin from above. The bound is
    /// never above `Ξ` while the verdict is open, equals the latched ratio
    /// after, and is `None` only when no relevant cycle can exist at all.
    ///
    /// This is the fast path for threshold alerting: only when the bound
    /// crosses a warning threshold does an exact (and much costlier)
    /// [`current_margin`](IncrementalChecker::current_margin) probe need
    /// to run.
    ///
    /// # Panics
    ///
    /// Panics on a pruning monitor whose mirror was dropped unless margin
    /// tracking is enabled (pruned shortcut arcs need their signatures).
    #[must_use]
    pub fn margin_upper_bound(&self) -> Option<Ratio> {
        let _span = abc_obs::span("monitor.margin_bound");
        if let Some(s) = &self.violation_summary {
            return s.classification.ratio();
        }
        assert!(
            self.builder.is_some() || self.stats.pruned_events == 0 || self.margin_tracking,
            "margin_upper_bound() on a pruning monitor requires enable_margin_tracking() \
             before the first prune_settled()"
        );
        let base = self.tg.base();
        // Max candidate as an i128 fraction (numerator, positive denominator).
        let mut best: Option<(i128, i128)> = None;
        let mut push = |num: i128, den: i128| {
            debug_assert!(den > 0);
            if best.is_none_or(|(bn, bd)| num * bd > bn * den) {
                best = Some((num, den));
            }
        };
        for arc in self.tg.arcs() {
            let d = self.pot[arc.to - base].0 - self.pot[arc.from - base].0;
            match arc.kind {
                ArcKind::Forward(_) => push(d, self.q),
                ArcKind::Shortcut(id) => {
                    for s in &self.shortcuts[id].sigs {
                        if s.f > 0 {
                            push(d + self.q * s.b, self.q * s.f);
                        }
                    }
                }
                ArcKind::Backward(_) | ArcKind::LocalBack(_) => {}
            }
        }
        let scan = best.map(maxratio::ratio_of);
        match (scan, self.margin_floor.map(maxratio::ratio_of)) {
            (Some(s), Some(f)) => Some(if s > f { s } else { f }),
            (s, f) => s.or(f),
        }
    }

    /// Consumes the monitor, returning the accumulated graph and the
    /// violation witness (if any).
    ///
    /// # Panics
    ///
    /// Panics if [`IncrementalChecker::enable_pruning`] dropped the mirror.
    #[must_use]
    pub fn finish(self) -> (ExecutionGraph, Option<Cycle>) {
        let builder = self
            .builder
            .expect("finish() is unavailable on a pruning monitor (enable_pruning was called)");
        (builder.finish(), self.violation)
    }
}

/// The probe ratio where the cost lines of `hi` and `lo` intersect, as a
/// positive-denominator fraction. Requires `hi.f > lo.f`.
fn sig_isect(hi: &Sig, lo: &Sig) -> (i128, i128) {
    debug_assert!(hi.f > lo.f);
    (hi.b - lo.b, hi.f - lo.f)
}

/// `a ≤ b` for fractions with positive denominators.
fn frac_le(a: (i128, i128), b: (i128, i128)) -> bool {
    debug_assert!(a.1 > 0 && b.1 > 0);
    a.0 * b.1 <= b.0 * a.1
}

/// Rebuilds the lower envelope of the cost lines `x·f − b` over the closed
/// probe-ratio interval `x ∈ [lo, ∞)` (`lo > 0`, as `(numerator,
/// denominator)`): keeps exactly the signatures attaining the pointwise
/// minimum on a nonempty open sub-interval (weak dominance — a line tying
/// the minimum at one point only is dropped), deterministically preferring
/// earlier candidates on exact `(f, b)` ties.
fn margin_envelope<'a>(mut lines: Vec<Sig<'a>>, lo: (i128, i128)) -> Vec<Sig<'a>> {
    if lines.len() <= 1 {
        return lines;
    }
    // Per slope only the lowest line (max `b`) can win; the stable sort
    // keeps the first-seen representative of exact ties.
    lines.sort_by(|a, b| a.f.cmp(&b.f).then(b.b.cmp(&a.b)));
    lines.dedup_by(|cur, kept| cur.f == kept.f);
    // Steepest-first hull scan, in place: `lines[..kept]` is the hull so
    // far, each line winning an interval left of its successor's; a line
    // whose takeover point is not strictly right of its predecessor's
    // takeover never wins anywhere.
    lines.reverse();
    let mut kept = 0;
    for i in 0..lines.len() {
        let line = lines[i];
        while kept >= 2
            && frac_le(
                sig_isect(&lines[kept - 1], &line),
                sig_isect(&lines[kept - 2], &lines[kept - 1]),
            )
        {
            kept -= 1;
        }
        lines[kept] = line;
        kept += 1;
    }
    lines.truncate(kept);
    // Clip at `lo`: leading (steepest) lines already overtaken there never
    // win on the closed interval.
    let mut start = 0;
    while start + 1 < lines.len() && frac_le(sig_isect(&lines[start], &lines[start + 1]), lo) {
        start += 1;
    }
    lines.drain(..start);
    lines
}

/// Whether some line of `sigs` costs no more than `x·f − b` at every
/// `x > 0` — such a candidate (exact duplicates included) never improves
/// the envelope.
fn dominated(sigs: &[Sig], f: i128, b: i128) -> bool {
    sigs.iter().any(|s| s.f <= f && s.b >= b)
}

/// Envelope-inserts `cand` into `sigs`; returns whether `cand` survived
/// (improved the envelope somewhere on `[lo, ∞)`). Exact `(f, b)`
/// duplicates keep the incumbent, so label-correcting passes cannot cycle
/// through zero-cost loops.
fn margin_envelope_insert<'a>(sigs: &mut Vec<Sig<'a>>, cand: Sig<'a>, lo: (i128, i128)) -> bool {
    let key = (cand.f, cand.b);
    if dominated(sigs, cand.f, cand.b) {
        return false;
    }
    let mut lines = std::mem::take(sigs);
    lines.push(cand);
    *sigs = margin_envelope(lines, lo);
    sigs.iter().any(|s| (s.f, s.b) == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use abc_rational::Ratio;

    /// Replays the batch-test "two chains" shape through the monitor.
    fn stream_two_chain(hops: usize, xi: &Xi) -> IncrementalChecker {
        let mut mon = IncrementalChecker::new(hops + 1, xi).unwrap();
        let q = mon.append_init(ProcessId(0));
        for i in 1..=hops {
            mon.append_init(ProcessId(i));
        }
        let mut cur = q;
        for i in 2..=hops {
            let (_, r) = mon.append_send(cur, ProcessId(i));
            cur = r;
        }
        mon.append_send(cur, ProcessId(1));
        assert!(
            mon.is_admissible(),
            "no relevant cycle before the spanning message"
        );
        mon.append_send(q, ProcessId(1));
        mon
    }

    #[test]
    fn detects_violation_exactly_at_the_closing_event() {
        for hops in 2..=6 {
            // Violating at Xi = hops (ratio == Xi), admissible just above.
            let at = Xi::from_integer(hops as i64);
            let mon = stream_two_chain(hops, &at);
            let w = mon.violation().expect("ratio hops >= hops");
            assert!(w.validate(mon.graph()).is_ok());
            assert!(w.classify().violates(&at));
            let above = Xi::new(Ratio::from_integer(hops as i64) + Ratio::new(1, 7)).unwrap();
            let mon = stream_two_chain(hops, &above);
            assert!(mon.is_admissible(), "hops = {hops}");
        }
    }

    #[test]
    fn violation_is_latched() {
        let xi = Xi::from_integer(2);
        let mut mon = stream_two_chain(3, &xi);
        assert!(!mon.is_admissible());
        let before = mon.violation().cloned();
        // Appending more traffic does not clear the latch.
        let (_, r) = mon.append_send(EventId(0), ProcessId(2));
        let _ = mon.append_send(r, ProcessId(0));
        assert_eq!(mon.violation().cloned(), before);
    }

    #[test]
    fn agrees_with_batch_after_every_event() {
        // A dense little exchange, checked step by step.
        let xi = Xi::from_fraction(3, 2);
        let mut mon = IncrementalChecker::new(3, &xi).unwrap();
        let script: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 1), (2, 1), (1, 0)];
        let e0 = mon.append_init(ProcessId(0));
        mon.append_init(ProcessId(1));
        mon.append_init(ProcessId(2));
        let _ = e0;
        for &(from, to) in script {
            let from = EventId(from % mon.graph().num_events());
            mon.append_send(from, ProcessId(to % 3));
            assert_eq!(
                mon.is_admissible(),
                check::is_admissible(mon.graph(), &xi).unwrap(),
                "monitor and batch disagree after appending from {from:?}"
            );
        }
    }

    #[test]
    fn faulty_and_exempt_messages_carry_no_arcs() {
        // two_chain(4) violates Xi = 3/2 — unless the chain's relay is
        // faulty or the spanning message is exempt.
        let xi = Xi::from_fraction(3, 2);
        let mut mon = IncrementalChecker::new(5, &xi).unwrap();
        mon.mark_faulty(ProcessId(4));
        let q = mon.append_init(ProcessId(0));
        for i in 1..=4 {
            mon.append_init(ProcessId(i));
        }
        let (_, r2) = mon.append_send(q, ProcessId(2));
        let (_, r3) = mon.append_send(r2, ProcessId(3));
        let (_, r4) = mon.append_send(r3, ProcessId(4)); // faulty relay
        mon.append_send(r4, ProcessId(1));
        mon.append_send(q, ProcessId(1));
        assert!(mon.is_admissible(), "faulty relay breaks the chain");
        assert_eq!(
            check::is_admissible(mon.graph(), &xi).unwrap(),
            mon.is_admissible()
        );

        let mut mon = IncrementalChecker::new(5, &xi).unwrap();
        let q = mon.append_init(ProcessId(0));
        for i in 1..=4 {
            mon.append_init(ProcessId(i));
        }
        let (_, r2) = mon.append_send(q, ProcessId(2));
        let (_, r3) = mon.append_send(r2, ProcessId(3));
        let (_, r4) = mon.append_send(r3, ProcessId(4));
        mon.append_send(r4, ProcessId(1));
        mon.append_send_exempt(q, ProcessId(1));
        assert!(mon.is_admissible(), "exempt spanning message");
        assert_eq!(
            check::is_admissible(mon.graph(), &xi).unwrap(),
            mon.is_admissible()
        );
    }

    #[test]
    fn mark_faulty_after_sending_panics() {
        let xi = Xi::from_integer(2);
        let mut mon = IncrementalChecker::new(2, &xi).unwrap();
        let a = mon.append_init(ProcessId(0));
        mon.append_init(ProcessId(1));
        mon.append_send(a, ProcessId(1));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mon.mark_faulty(ProcessId(0));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn from_graph_replays_faithfully() {
        let xi = Xi::from_fraction(5, 2);
        for hops in 2..=5 {
            let mut b = ExecutionGraph::builder(hops + 1);
            let q = b.init(ProcessId(0));
            for i in 1..=hops {
                b.init(ProcessId(i));
            }
            let mut cur = q;
            for i in 2..=hops {
                let (_, r) = b.send(cur, ProcessId(i));
                cur = r;
            }
            b.send(cur, ProcessId(1));
            b.send(q, ProcessId(1));
            let g = b.finish();
            let mon = IncrementalChecker::from_graph(&g, &xi).unwrap();
            assert_eq!(mon.graph(), &g);
            assert_eq!(
                mon.is_admissible(),
                check::is_admissible(&g, &xi).unwrap(),
                "hops = {hops}"
            );
        }
    }

    #[test]
    fn xi_beyond_i64_is_rejected() {
        let wide = Xi::new(Ratio::from_bigints(
            abc_rational::BigInt::from(1i128 << 80),
            abc_rational::BigInt::from(3),
        ))
        .unwrap();
        assert_eq!(
            IncrementalChecker::new(2, &wide).err(),
            Some(CheckError::XiTooLarge)
        );
    }

    #[test]
    fn stats_reflect_the_stream() {
        // Comfortably admissible: every append's feasible window is open,
        // so the earliest-label assignment does zero relaxation work.
        let xi = Xi::from_integer(3);
        let mon = stream_two_chain(2, &xi);
        let s = mon.stats();
        assert_eq!(s.events, 6); // 3 inits + 3 receive events
        assert_eq!(s.messages, 3);
        assert!(s.arcs >= 2 * s.messages);
        assert_eq!(s.relaxations, 0, "no spanning message, no repair");
        assert_eq!(s.full_checks, 0);
        assert_eq!(s.pruned_events, 0);
        assert_eq!(s.live_events_peak, 6);
        // A violating stream must do real work: tension propagation and the
        // confirming canonical pass that extracts the witness.
        let xi = Xi::from_integer(2);
        let mon = stream_two_chain(2, &xi);
        assert!(!mon.is_admissible());
        assert!(mon.stats().relaxations > 0);
        assert!(mon.stats().full_checks >= 1);
    }

    #[test]
    fn violation_summary_matches_the_graph_summary() {
        let xi = Xi::from_integer(2);
        let mon = stream_two_chain(4, &xi);
        let w = mon.violation().expect("ratio 4 >= 2");
        let summary = mon.violation_summary().expect("summary latched with it");
        assert_eq!(summary, &w.summarize(mon.graph()));
        assert!(summary.classification.violates(&xi));
    }

    /// Streams a near-frontier script into two monitors, pruning one of
    /// them after every append with an honest watermark (scripts only ever
    /// send from the last `horizon` events), and asserts identical
    /// verdicts and witness bytes at every step.
    fn assert_prune_equivalent(n: usize, script: &[(usize, usize)], xi: &Xi) {
        const HORIZON: usize = 3;
        let mut plain = IncrementalChecker::new(n, xi).unwrap();
        let mut pruned = IncrementalChecker::new(n, xi).unwrap();
        pruned.enable_pruning();
        for p in 0..n {
            plain.append_init(ProcessId(p));
            pruned.append_init(ProcessId(p));
        }
        let mut total = n;
        for &(back, to) in script {
            let from = EventId(total - 1 - (back % HORIZON.min(total)));
            plain.append_send(from, ProcessId(to % n));
            pruned.append_send(from, ProcessId(to % n));
            total += 1;
            assert_eq!(plain.is_admissible(), pruned.is_admissible());
            assert_eq!(
                plain.violation_summary().map(|s| s.wire().to_string()),
                pruned.violation_summary().map(|s| s.wire().to_string())
            );
            // Honest promise: future sends name one of the last HORIZON
            // events only.
            pruned.prune_settled(Some(EventId(total.saturating_sub(HORIZON))));
        }
        assert_eq!(plain.stats().events, pruned.stats().events);
    }

    #[test]
    fn pruned_monitor_latches_identical_witnesses() {
        // A long, prunable admissible ping-pong prefix, then a violating
        // two-chain pattern built at the live frontier: the pruned monitor
        // must have compacted real state *and* still latch byte-identical
        // verdict + witness.
        for hops in 2..=5 {
            let xi = Xi::from_integer(2);
            let n = hops + 1;
            let mut plain = IncrementalChecker::new(n, &xi).unwrap();
            let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
            pruned.enable_pruning();
            let mut cur = plain.append_init(ProcessId(0));
            pruned.append_init(ProcessId(0));
            for i in 1..n {
                plain.append_init(ProcessId(i));
                pruned.append_init(ProcessId(i));
            }
            // Phase 1: 100 immediately-delivered ping-pongs between p0 and
            // p1, pruning as the frontier advances.
            for round in 0..100 {
                let to = if round % 2 == 0 {
                    ProcessId(1)
                } else {
                    ProcessId(0)
                };
                let (_, r) = plain.append_send(cur, to);
                pruned.append_send(cur, to);
                cur = r;
                pruned.prune_settled(Some(cur));
            }
            // Everything but the live frontier event is compacted round by
            // round: ~(n inits + 100 ping-pongs) events pruned in total.
            assert!(
                pruned.stats().pruned_events > 90,
                "expected substantial pruning, got {}",
                pruned.stats().pruned_events
            );
            assert!(
                pruned.live_events() < 4,
                "window stayed at {} events",
                pruned.live_events()
            );
            // Phase 2: the two-chain violation rooted at the live frontier
            // event `q = cur`. Its spanning message keeps `q` in flight, so
            // the honest watermark is `q` from here on.
            let q = cur;
            pruned.prune_settled(Some(q));
            let mut chain = q;
            for i in 2..=hops {
                let (_, r) = plain.append_send(chain, ProcessId(i));
                pruned.append_send(chain, ProcessId(i));
                chain = r;
            }
            plain.append_send(chain, ProcessId(1));
            pruned.append_send(chain, ProcessId(1));
            assert!(plain.is_admissible() && pruned.is_admissible());
            plain.append_send(q, ProcessId(1));
            pruned.append_send(q, ProcessId(1));
            assert!(!plain.is_admissible(), "hops = {hops}");
            assert_eq!(plain.is_admissible(), pruned.is_admissible());
            assert_eq!(
                plain
                    .violation_summary()
                    .map(|s| s.wire().to_string())
                    .unwrap(),
                pruned
                    .violation_summary()
                    .map(|s| s.wire().to_string())
                    .unwrap(),
                "hops = {hops}"
            );
            assert_eq!(
                format!("{}", plain.violation().unwrap()),
                format!("{}", pruned.violation().unwrap()),
                "the full Cycle is byte-identical too"
            );
        }
    }

    #[test]
    fn pruning_compacts_settled_prefixes_and_keeps_verdicts() {
        // A long admissible ping-pong between two processes: with no
        // messages in flight after each delivery, nearly everything before
        // the per-process frontiers is settled.
        let xi = Xi::from_integer(3);
        let mut mon = IncrementalChecker::new(2, &xi).unwrap();
        mon.enable_pruning();
        let mut cur = mon.append_init(ProcessId(0));
        mon.append_init(ProcessId(1));
        let mut pruned_total = 0;
        for round in 0..200 {
            let to = ProcessId((round + 1) % 2);
            let (_, r) = mon.append_send(cur, to);
            cur = r;
            // The only in-flight message was just delivered; next send
            // comes from `cur`.
            pruned_total += mon.prune_settled(Some(cur));
        }
        assert!(mon.is_admissible());
        // Each of the ~202 events is compacted exactly once; only the live
        // frontier survives.
        assert!(pruned_total > 190, "pruned only {pruned_total}");
        assert_eq!(mon.stats().pruned_events, pruned_total);
        assert!(
            mon.live_events() < 10,
            "window stayed at {} events",
            mon.live_events()
        );
        assert!(mon.stats().live_events_peak < 12);
        // The bookkeeping still matches: totals count everything.
        assert_eq!(mon.stats().events, 202);
    }

    #[test]
    fn append_below_the_watermark_panics() {
        let xi = Xi::from_integer(2);
        let mut mon = IncrementalChecker::new(2, &xi).unwrap();
        mon.enable_pruning();
        let a = mon.append_init(ProcessId(0));
        mon.append_init(ProcessId(1));
        let (_, r) = mon.append_send(a, ProcessId(1));
        mon.prune_settled(Some(r));
        assert!(mon.stats().pruned_events > 0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mon.append_send(a, ProcessId(1));
        }));
        assert!(res.is_err(), "the watermark promise must be enforced");
    }

    #[test]
    fn graph_access_panics_once_pruning_is_enabled() {
        let xi = Xi::from_integer(2);
        let mut mon = IncrementalChecker::new(1, &xi).unwrap();
        mon.enable_pruning();
        mon.append_init(ProcessId(0));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = mon.graph();
        }));
        assert!(res.is_err());
    }

    #[test]
    fn prune_cuts_through_crossing_messages_exactly() {
        // The watermark cut slices right through messages whose send event
        // is compacted while their receive stays live: the boundary
        // condensation must keep the settled region exactly reachable, so
        // a violation later closed *through* it latches with the same
        // witness bytes as an unpruned monitor.
        let xi = Xi::from_integer(2);
        let mut plain = IncrementalChecker::new(3, &xi).unwrap();
        let mut pruned = IncrementalChecker::new(3, &xi).unwrap();
        pruned.enable_pruning();
        let step = |m: &mut IncrementalChecker| {
            let a = m.append_init(ProcessId(0));
            m.append_init(ProcessId(1));
            m.append_init(ProcessId(2));
            let (_, r1) = m.append_send(a, ProcessId(1));
            // Delivered promptly (before the r1 -> p2 relay), so the prefix
            // stays admissible — but the send event `a` is about to be
            // compacted while the receive stays live: a crossing message.
            let (_, rx) = m.append_send(a, ProcessId(2));
            let (_, r2) = m.append_send(r1, ProcessId(2));
            (rx, r2)
        };
        let (rx, q) = step(&mut plain);
        step(&mut pruned);
        let cut = pruned.prune_settled(Some(rx));
        assert_eq!(cut, 4, "events 0..4 compacted at the watermark");
        assert!(pruned.stats().pruned_events > 0);
        // Close a two-chain violation rooted at the live frontier: its
        // confirmation walks paths that dip through the pruned region (via
        // the materialized frontier rows) — weights must match exactly.
        for m in [&mut plain, &mut pruned] {
            let (_, r4) = m.append_send(q, ProcessId(0));
            m.append_send(r4, ProcessId(1));
            assert!(m.is_admissible());
            m.append_send(q, ProcessId(1)); // spans the 2-chain: ratio 2
        }
        assert!(!plain.is_admissible());
        assert!(!pruned.is_admissible());
        assert_eq!(
            format!("{}", plain.violation().unwrap()),
            format!("{}", pruned.violation().unwrap())
        );
        assert_eq!(
            plain.violation_summary().unwrap().wire().to_string(),
            pruned.violation_summary().unwrap().wire().to_string()
        );
    }

    #[test]
    fn prune_equivalence_smoke_on_dense_scripts() {
        // Dense random-ish exchanges with all-delivered semantics.
        let xi = Xi::from_fraction(3, 2);
        assert_prune_equivalent(3, &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 1), (2, 1)], &xi);
        assert_prune_equivalent(4, &[(0, 1), (4, 2), (1, 3), (2, 0), (5, 1), (3, 2)], &xi);
    }

    /// Drives the same script through an unpruned monitor and a pruning,
    /// margin-tracking one; at every event both margins must equal the
    /// batch `max_relevant_cycle_ratio` over the full graph, witnesses
    /// must attain the margin, and the cheap bound must dominate it.
    fn assert_margin_prune_equivalent(n: usize, script: &[(usize, usize)], xi: &Xi) {
        const HORIZON: usize = 3;
        let mut plain = IncrementalChecker::new(n, xi).unwrap();
        let mut pruned = IncrementalChecker::new(n, xi).unwrap();
        pruned.enable_pruning();
        pruned.enable_margin_tracking();
        for p in 0..n {
            plain.append_init(ProcessId(p));
            pruned.append_init(ProcessId(p));
        }
        let mut total = n;
        for &(back, to) in script {
            let from = EventId(total - 1 - (back % HORIZON.min(total)));
            plain.append_send(from, ProcessId(to % n));
            pruned.append_send(from, ProcessId(to % n));
            total += 1;
            let plain_margin = plain.current_margin().unwrap();
            let pruned_margin = pruned.current_margin().unwrap();
            if plain_margin.as_ref().map(|m| m.ratio.clone())
                != pruned_margin.as_ref().map(|m| m.ratio.clone())
            {
                panic!(
                    "margins diverge at event {total}: plain {:?} pruned {:?} admissible {} xi {:?}",
                    plain_margin.as_ref().map(|m| m.ratio.clone()),
                    pruned_margin.as_ref().map(|m| m.ratio.clone()),
                    plain.is_admissible(),
                    xi.as_ratio(),
                );
            }
            if plain.is_admissible() {
                let batch = check::max_relevant_cycle_ratio(plain.graph()).unwrap();
                assert_eq!(
                    plain_margin.as_ref().map(|m| m.ratio.clone()),
                    batch,
                    "margin disagrees with batch at event {total}"
                );
            } else {
                // Latched: both froze at the (identical) witness ratio.
                let latched = plain.violation_summary().unwrap().classification.ratio();
                assert_eq!(plain_margin.as_ref().map(|m| m.ratio.clone()), latched);
            }
            for report in [&plain_margin, &pruned_margin].into_iter().flatten() {
                if let Some(w) = &report.witness {
                    assert!(w.classification.relevant, "margin witness must be relevant");
                    assert_eq!(w.classification.ratio(), Some(report.ratio.clone()));
                }
            }
            for (mon, margin) in [(&plain, &plain_margin), (&pruned, &pruned_margin)] {
                match (mon.margin_upper_bound(), margin) {
                    (Some(bound), Some(m)) => {
                        assert!(bound >= m.ratio, "bound {bound} below margin {}", m.ratio);
                        if mon.is_admissible() {
                            assert!(bound <= *xi.as_ratio(), "open-verdict bound above Ξ");
                        }
                    }
                    (None, Some(m)) => panic!("no bound despite margin {}", m.ratio),
                    (_, None) => {}
                }
            }
            pruned.prune_settled(Some(EventId(total.saturating_sub(HORIZON))));
        }
    }

    #[test]
    fn margin_matches_batch_under_pruning_on_dense_scripts() {
        let scripts: &[(usize, &[(usize, usize)])] = &[
            (3, &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 1), (2, 1), (1, 0)]),
            (4, &[(0, 1), (4, 2), (1, 3), (2, 0), (5, 1), (3, 2), (0, 3)]),
            (2, &[(0, 1), (0, 0), (1, 1), (2, 0), (0, 1), (1, 0)]),
        ];
        for xi in [Xi::from_fraction(3, 2), Xi::from_integer(4)] {
            for &(n, script) in scripts {
                assert_margin_prune_equivalent(n, script, &xi);
            }
        }
    }

    #[test]
    fn margin_reports_the_two_chain_ratio() {
        for hops in 2..=5 {
            let ratio = Ratio::from_integer(hops as i64);
            // Admissible just above: the margin is exactly `hops`.
            let above = Xi::new(ratio.clone() + Ratio::new(1, 7)).unwrap();
            let mon = stream_two_chain(hops, &above);
            assert!(mon.is_admissible());
            let m = mon.current_margin().unwrap().expect("cycle exists");
            assert_eq!(m.ratio, ratio);
            let w = m.witness.expect("margins above 1 carry a witness");
            assert!(w.classification.relevant);
            assert_eq!(w.classification.ratio(), Some(ratio.clone()));
            let bound = mon.margin_upper_bound().expect("candidates exist");
            assert!(bound >= ratio && bound <= *above.as_ratio());
            // Latched at Ξ = hops: the margin freezes at the witness.
            let at = Xi::from_integer(hops as i64);
            let mon = stream_two_chain(hops, &at);
            assert!(!mon.is_admissible());
            let m = mon.current_margin().unwrap().unwrap();
            assert_eq!(m.ratio, ratio);
            assert_eq!(m.witness.as_ref(), mon.violation_summary());
            assert_eq!(mon.margin_upper_bound(), Some(ratio));
        }
    }

    #[test]
    fn margin_floor_survives_pruning_the_witness_away() {
        // A ratio-3 two-chain, then a long prunable ping-pong: the margin
        // must stay 3 (served from the folded floor, witness intact) after
        // every trace of the cycle has been compacted away.
        let xi = Xi::from_integer(4);
        let n = 4;
        let mut plain = IncrementalChecker::new(n, &xi).unwrap();
        let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
        pruned.enable_pruning();
        pruned.enable_margin_tracking();
        let q = plain.append_init(ProcessId(0));
        pruned.append_init(ProcessId(0));
        for i in 1..n {
            plain.append_init(ProcessId(i));
            pruned.append_init(ProcessId(i));
        }
        let mut cur = q;
        for i in 2..=3 {
            let (_, r) = plain.append_send(cur, ProcessId(i));
            pruned.append_send(cur, ProcessId(i));
            cur = r;
        }
        let (_, r) = plain.append_send(cur, ProcessId(1));
        pruned.append_send(cur, ProcessId(1));
        let _ = r;
        let (_, span) = plain.append_send(q, ProcessId(1));
        pruned.append_send(q, ProcessId(1));
        let three = Ratio::from_integer(3);
        assert_eq!(pruned.current_margin().unwrap().unwrap().ratio, three);
        // Ping-pong p1 ⇄ p0 rooted at the spanning receive, pruning every
        // round: the two-chain is fully compacted early on.
        let mut cur = span;
        for round in 0..50 {
            let to = ProcessId(round % 2);
            let (_, r) = plain.append_send(cur, to);
            pruned.append_send(cur, to);
            cur = r;
            pruned.prune_settled(Some(cur));
            let m = pruned.current_margin().unwrap().expect("floor persists");
            assert_eq!(m.ratio, three, "round {round}");
            let w = m.witness.expect("floor keeps its witness");
            assert!(w.classification.relevant);
            assert_eq!(w.classification.ratio(), Some(three.clone()));
            assert_eq!(
                plain.current_margin().unwrap().unwrap().ratio,
                three,
                "round {round}"
            );
            assert!(pruned.margin_upper_bound().unwrap() >= three);
        }
        assert!(
            pruned.live_events() < 5,
            "window stayed at {} events",
            pruned.live_events()
        );
        assert!(pruned.stats().pruned_events > 40);
    }

    #[test]
    fn a_fold_beyond_the_integer_range_declines_the_prune() {
        // No real execution gets a window past the probe-weight guard (its
        // boundary is pinned in `maxratio::tests`), so plant a floor whose
        // parts alone overflow it: the margin query reports the clean
        // error and the prune leaves the window as it was.
        let xi = Xi::from_integer(4);
        let mut mon = IncrementalChecker::new(4, &xi).unwrap();
        mon.enable_pruning();
        mon.enable_margin_tracking();
        let q = mon.append_init(ProcessId(0));
        for i in 1..4 {
            mon.append_init(ProcessId(i));
        }
        let (_, r) = mon.append_send(q, ProcessId(2));
        let (_, r) = mon.append_send(r, ProcessId(3));
        mon.append_send(r, ProcessId(1));
        let (_, last) = mon.append_send(q, ProcessId(1)); // spans 3 hops
        let three = Ratio::from_integer(3);
        assert_eq!(mon.current_margin().unwrap().unwrap().ratio, three);
        mon.margin_floor = Some(((1 << 125) + 1, 1 << 125)); // just above 1
        let live = mon.live_events();
        assert_eq!(mon.current_margin(), Err(CheckError::GraphTooLarge));
        assert_eq!(mon.prune_settled(Some(last)), 0);
        assert_eq!((mon.live_events(), mon.stats().pruned_events), (live, 0));
        // With a floor that fits, the same call folds and prunes.
        mon.margin_floor = None;
        assert!(mon.prune_settled(Some(last)) > 0);
        assert_eq!(mon.current_margin().unwrap().unwrap().ratio, three);
    }

    #[test]
    fn margin_tracking_after_a_prune_panics() {
        let xi = Xi::from_integer(2);
        let mut mon = IncrementalChecker::new(2, &xi).unwrap();
        mon.enable_pruning();
        let a = mon.append_init(ProcessId(0));
        mon.append_init(ProcessId(1));
        mon.append_send(a, ProcessId(1));
        mon.prune_settled(None);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mon.enable_margin_tracking();
        }));
        assert!(res.is_err(), "tracking after a prune must be rejected");
    }

    #[test]
    fn margin_queries_on_untracked_pruning_monitors_panic() {
        let xi = Xi::from_integer(2);
        let mut mon = IncrementalChecker::new(2, &xi).unwrap();
        mon.enable_pruning();
        let a = mon.append_init(ProcessId(0));
        mon.append_init(ProcessId(1));
        mon.append_send(a, ProcessId(1));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mon.current_margin().unwrap();
        }));
        assert!(res.is_err(), "margin without tracking must be rejected");
    }
}
