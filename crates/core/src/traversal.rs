//! The shared traversal-graph core: one compact, arena-backed CSR
//! representation of the graph `T` that every Definition-4 decision in this
//! workspace walks.
//!
//! # Why one representation
//!
//! The reduction of [`crate::check`] decides the ABC condition by
//! negative-cycle detection over the *traversal graph* `T` of an execution
//! graph `G`:
//!
//! * for every effective message `m = (u → v)`: a **forward** arc `u → v`
//!   and a **backward** arc `v → u`;
//! * for every local edge `(u → v)`: a **backward** arc `v → u` only.
//!
//! Historically this repo materialized `T` three different ways — a
//! throwaway arc list per batch check, per-head `Vec<Vec<usize>>` in-arc
//! buckets inside the line-graph pass, and per-tail `Vec<Vec<usize>>`
//! out-arc pushes inside [`crate::monitor::IncrementalChecker`]. This
//! module replaces all of them with a single [`TraversalGraph`]:
//!
//! * **arena arcs**: one flat `Vec<Arc>` in insertion order (batch builds
//!   list all message arcs first, then all local arcs — the exact legacy
//!   order, so witness extraction stays byte-stable);
//! * **intrusive out-CSR**: `out_head`/`out_tail` per node plus `out_next`
//!   per arc form per-tail adjacency as linked lists threaded through the
//!   arena — `push_arc` is O(1), there is no per-node `Vec`, and iteration
//!   order equals insertion order;
//! * **prefix-sum in-CSR**: [`TraversalGraph::in_csr`] builds the in-arc
//!   adjacency as two flat arrays by counting sort, for the line-graph
//!   simple-cycle pass (needed only when a kept margin is exactly `1`,
//!   as [`crate::check::max_relevant_cycle_ratio`] and the monitor's
//!   margin ask).
//!
//! # How check and monitor share it
//!
//! The batch checker ([`crate::check::find_violation`] /
//! [`crate::check::is_admissible`]) first tries the timestamp potential
//! straight off the execution graph; only when a forward arc is tense
//! under it does it build a `TraversalGraph` with
//! [`TraversalGraph::from_graph`] and hand it to the crate's worklist
//! negative-cycle kernel, which walks the out-lists and decides and
//! extracts the witness in one pass; `max_relevant_cycle_ratio` replays
//! the monitor's kept margin over the same structure, event by event, on
//! the same kernel, and the line-graph pass reads the in-CSR. The online
//! monitor builds the *same* structure on demand: a quiet append touches
//! labels only, and the first append that leaves a forward arc tense (or
//! the first kept margin) builds the arena in one pass, after which it
//! grows incrementally ([`push_node`] / [`push_arc`]) as events are
//! appended — so batch and streaming decisions literally walk the same
//! arcs.
//!
//! # Bounded-memory compaction
//!
//! The monitor's settled-prefix pruning compacts events out of the front of
//! the graph: [`TraversalGraph::compact_below`] drops every arc with an
//! endpoint below the new base and drains the per-node columns, keeping
//! live arc order stable. Node ids stay **global** (they are event ids);
//! only the node-indexed columns are windowed by `base`. See
//! [`crate::monitor`] for the cut condition that makes this sound.
//!
//! [`push_node`]: TraversalGraph::push_node
//! [`push_arc`]: TraversalGraph::push_arc

use crate::cycle::{CycleStep, ShadowEdge};
use crate::graph::{EventId, ExecutionGraph, LocalEdge, MessageId};

/// Role of a traversal-graph arc.
///
/// Two words on purpose: every payload is one word at the same offset, so
/// an `ArcKind` travels between functions in two registers (and an
/// [`Arc`] is four words). A payload that breaks that — a local edge on
/// `LocalBack` would make the kind three words — makes every caller that
/// is not inlined spill the kind with word-sized stores that the callee
/// reloads at once with a wider load, which the store buffer cannot
/// forward: a stall on every arc pushed. The layout pins in this module's
/// tests hold the size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcKind {
    /// The forward arc of an effective message (send → receive).
    Forward(MessageId),
    /// The backward arc of an effective message (receive → send).
    Backward(MessageId),
    /// The backward arc of a local edge (later event → earlier event). The
    /// edge is the arc reversed: it runs from the arc's head to its tail.
    LocalBack,
    /// A condensed boundary path of a pruned prefix (monitor-only): stands
    /// for a shortest path through compacted events, identified by an index
    /// into the owning [`crate::monitor::IncrementalChecker`]'s shortcut
    /// table (which holds its weight and its step-by-step expansion).
    /// Batch builds ([`TraversalGraph::from_graph`]) never create these.
    Shortcut(usize),
}

impl ArcKind {
    /// Forward and backward message counts `(f, b)` of a plain arc's step;
    /// `Err` with the table id for a shortcut arc.
    #[inline]
    pub(crate) fn counts(self) -> Result<(i128, i128), usize> {
        match self {
            ArcKind::Forward(_) => Ok((1, 0)),
            ArcKind::Backward(_) => Ok((0, 1)),
            ArcKind::LocalBack => Ok((0, 0)),
            ArcKind::Shortcut(id) => Err(id),
        }
    }
}

/// One arc of the traversal graph `T`. Endpoints are **global** event ids.
#[derive(Clone, Copy, Debug)]
pub struct Arc {
    /// Tail event id.
    pub from: usize,
    /// Head event id.
    pub to: usize,
    /// What the arc encodes.
    pub kind: ArcKind,
}

impl Arc {
    /// The walk step a plain arc stands for: a forward arc takes its
    /// message along, backward and local arcs run against their edge (a
    /// local arc's edge is the arc reversed). A shortcut arc stands for a
    /// whole condensed path, not one step: `Err` with its table id.
    #[inline]
    pub(crate) fn step(self) -> Result<CycleStep, usize> {
        let edge = match self.kind {
            ArcKind::Forward(m) | ArcKind::Backward(m) => ShadowEdge::Message(m),
            ArcKind::LocalBack => ShadowEdge::Local(LocalEdge {
                from: EventId(self.to),
                to: EventId(self.from),
            }),
            ArcKind::Shortcut(id) => return Err(id),
        };
        let against = !matches!(self.kind, ArcKind::Forward(_));
        Ok(CycleStep { edge, against })
    }
}

/// Sentinel for "no next arc" in the intrusive adjacency lists.
const NONE: usize = usize::MAX;

/// The arena-backed CSR traversal graph (see the module docs).
///
/// Nodes are event ids `base..base + num_live_nodes()`; arcs live in one
/// flat arena with intrusive per-tail linked lists. Both the batch checker
/// and the incremental monitor drive their label-correcting passes over
/// this structure.
#[derive(Clone, Debug, Default)]
pub struct TraversalGraph {
    arcs: Vec<Arc>,
    /// First outgoing arc per live node (indexed by `id - base`).
    out_head: Vec<usize>,
    /// Last outgoing arc per live node (push appends in insertion order).
    out_tail: Vec<usize>,
    /// Next outgoing arc of the same tail, per arc.
    out_next: Vec<usize>,
    /// Event id of the first live node (all columns are windowed by this).
    base: usize,
}

impl TraversalGraph {
    /// An empty graph for incremental growth (the monitor path).
    #[must_use]
    pub fn new() -> TraversalGraph {
        TraversalGraph::default()
    }

    /// Builds the whole traversal graph of `g` in one pass (the batch
    /// path): forward + backward arcs for every effective message in id
    /// order, then the local back-arc of every local edge — the canonical
    /// arc order every witness extraction in this crate relies on.
    #[must_use]
    pub fn from_graph(g: &ExecutionGraph) -> TraversalGraph {
        let n = g.num_events();
        let mut tg = TraversalGraph {
            arcs: Vec::with_capacity(2 * g.num_messages() + n),
            out_head: vec![NONE; n],
            out_tail: vec![NONE; n],
            out_next: Vec::with_capacity(2 * g.num_messages() + n),
            base: 0,
        };
        for m in g.effective_messages() {
            tg.push_arc(m.from.0, m.to.0, ArcKind::Forward(m.id));
            tg.push_arc(m.to.0, m.from.0, ArcKind::Backward(m.id));
        }
        for l in g.local_edges() {
            tg.push_arc(l.to.0, l.from.0, ArcKind::LocalBack);
        }
        tg
    }

    /// Empties the graph in place — no node, no arc, base `0`, as after
    /// [`TraversalGraph::new`] — keeping every column's capacity, so a
    /// graph of the same size grown again allocates nothing.
    pub fn clear(&mut self) {
        let TraversalGraph {
            arcs,
            out_head,
            out_tail,
            out_next,
            base,
        } = self;
        arcs.clear();
        out_head.clear();
        out_tail.clear();
        out_next.clear();
        *base = 0;
    }

    /// What [`TraversalGraph::clear`] keeps: the capacity of every column,
    /// summed.
    pub(crate) fn capacity(&self) -> usize {
        self.arcs.capacity()
            + self.out_head.capacity()
            + self.out_tail.capacity()
            + self.out_next.capacity()
    }

    /// Event id of the first live node.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of live (non-compacted) nodes.
    #[must_use]
    pub fn num_live_nodes(&self) -> usize {
        self.out_head.len()
    }

    /// Total node count ever pushed (`base + live`): the exclusive upper
    /// bound of valid event ids.
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.base + self.out_head.len()
    }

    /// The live arcs, in stable insertion order.
    #[must_use]
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Mutable access to the arc arena, for the monitor's shortcut-id
    /// remapping after a compaction (endpoints must not be changed — the
    /// intrusive adjacency threads through them).
    pub(crate) fn arcs_mut(&mut self) -> &mut [Arc] {
        &mut self.arcs
    }

    /// Number of live arcs.
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Appends a node (the next event id) and returns its id.
    pub fn push_node(&mut self) -> usize {
        self.out_head.push(NONE);
        self.out_tail.push(NONE);
        self.base + self.out_head.len() - 1
    }

    /// Appends `nodes` nodes at once and reserves room for exactly `arcs`
    /// more arcs, for a caller that builds a window in one pass.
    pub(crate) fn grow(&mut self, nodes: usize, arcs: usize) {
        self.out_head.resize(self.out_head.len() + nodes, NONE);
        self.out_tail.resize(self.out_tail.len() + nodes, NONE);
        self.arcs.reserve_exact(arcs);
        self.out_next.reserve_exact(arcs);
    }

    /// Appends an arc between live nodes; returns its arena index.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is compacted or not yet pushed.
    pub fn push_arc(&mut self, from: usize, to: usize, kind: ArcKind) -> usize {
        assert!(
            from >= self.base && to >= self.base,
            "arc endpoint below the compaction base"
        );
        assert!(
            from < self.total_nodes() && to < self.total_nodes(),
            "arc endpoint not yet pushed"
        );
        self.push_live_arc(from, to, kind)
    }

    /// [`TraversalGraph::push_arc`] for a caller that knows both endpoints
    /// are live, without the checks.
    pub(crate) fn push_live_arc(&mut self, from: usize, to: usize, kind: ArcKind) -> usize {
        debug_assert!(from >= self.base && from < self.total_nodes());
        debug_assert!(to >= self.base && to < self.total_nodes());
        let idx = self.arcs.len();
        self.arcs.push(Arc { from, to, kind });
        self.out_next.push(NONE);
        let slot = from - self.base;
        if self.out_head[slot] == NONE {
            self.out_head[slot] = idx;
        } else {
            self.out_next[self.out_tail[slot]] = idx;
        }
        self.out_tail[slot] = idx;
        idx
    }

    /// Pushes the arcs of receive `recv`, in the order every arena holds
    /// them: the forward and backward arc of its message when that carries
    /// arcs (`message`: its send event and id), then the local back-arc to
    /// `prev` (`None`: there is none to push). One call per receive, for a
    /// caller that knows every endpoint is live; the arcs, their order and
    /// every out-list are those of [`TraversalGraph::push_live_arc`]
    /// called arc by arc.
    pub(crate) fn push_receive(
        &mut self,
        recv: usize,
        message: Option<(usize, MessageId)>,
        prev: Option<usize>,
    ) {
        if let Some((send, mid)) = message {
            self.push_live_arc(send, recv, ArcKind::Forward(mid));
            self.push_live_arc(recv, send, ArcKind::Backward(mid));
        }
        if let Some(prev) = prev {
            self.push_live_arc(recv, prev, ArcKind::LocalBack);
        }
    }

    /// First outgoing arc index of global node `v` (cursor form of
    /// [`TraversalGraph::out_arcs`], for callers that must not hold a
    /// borrow across the loop body).
    ///
    /// # Panics
    ///
    /// Panics if `v` is compacted or not yet pushed.
    #[must_use]
    pub fn first_out(&self, v: usize) -> Option<usize> {
        assert!(
            v >= self.base && v < self.total_nodes(),
            "node out of range"
        );
        let head = self.out_head[v - self.base];
        (head != NONE).then_some(head)
    }

    /// The next outgoing arc of the same tail after arena index `arc_idx`.
    #[must_use]
    pub fn next_out(&self, arc_idx: usize) -> Option<usize> {
        let next = self.out_next[arc_idx];
        (next != NONE).then_some(next)
    }

    /// Iterates the outgoing arc indices of global node `v`, in insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is compacted or not yet pushed.
    pub fn out_arcs(&self, v: usize) -> OutArcs<'_> {
        assert!(
            v >= self.base && v < self.total_nodes(),
            "node out of range"
        );
        OutArcs {
            tg: self,
            next: self.out_head[v - self.base],
        }
    }

    /// Drops every node below `new_base` and every arc with an endpoint
    /// below it, preserving the relative order of surviving arcs. Returns
    /// `(nodes_dropped, arcs_dropped)`.
    ///
    /// # Panics
    ///
    /// Panics if `new_base` is below the current base or above
    /// [`TraversalGraph::total_nodes`].
    pub fn compact_below(&mut self, new_base: usize) -> (usize, usize) {
        assert!(
            new_base >= self.base && new_base <= self.total_nodes(),
            "compaction base out of range"
        );
        let nodes_dropped = new_base - self.base;
        if nodes_dropped == 0 {
            return (0, 0);
        }
        let before = self.arcs.len();
        self.arcs.retain(|a| a.from >= new_base && a.to >= new_base);
        let arcs_dropped = before - self.arcs.len();
        self.base = new_base;
        self.out_head.drain(..nodes_dropped);
        self.out_tail.drain(..nodes_dropped);
        // Rebuild the intrusive lists over the surviving arena.
        self.out_head.fill(NONE);
        self.out_tail.fill(NONE);
        self.out_next.clear();
        self.out_next.resize(self.arcs.len(), NONE);
        for idx in 0..self.arcs.len() {
            let slot = self.arcs[idx].from - self.base;
            if self.out_head[slot] == NONE {
                self.out_head[slot] = idx;
            } else {
                self.out_next[self.out_tail[slot]] = idx;
            }
            self.out_tail[slot] = idx;
        }
        (nodes_dropped, arcs_dropped)
    }

    /// Builds the in-arc adjacency as a prefix-sum CSR over the live nodes:
    /// `(starts, arc_indices)` with the in-arcs of local node `v` (global id
    /// `base + v`) at `arc_indices[starts[v]..starts[v + 1]]`, each bucket
    /// in insertion order. Two flat arrays — no per-node `Vec` — feeding the
    /// line-graph pass of [`crate::check`].
    #[must_use]
    pub fn in_csr(&self) -> (Vec<usize>, Vec<usize>) {
        let (mut starts, mut arc_indices) = (Vec::new(), Vec::new());
        self.in_csr_into(&mut starts, &mut arc_indices);
        (starts, arc_indices)
    }

    /// [`TraversalGraph::in_csr`] into buffers the caller keeps, which are
    /// overwritten whole.
    pub(crate) fn in_csr_into(&self, starts: &mut Vec<usize>, arc_indices: &mut Vec<usize>) {
        let n = self.num_live_nodes();
        starts.clear();
        starts.resize(n + 1, 0);
        for a in &self.arcs {
            starts[a.to - self.base + 1] += 1;
        }
        for v in 0..n {
            starts[v + 1] += starts[v];
        }
        // Filled bucket by bucket from the back: `starts[v + 1]` counts
        // down to `starts[v]`, which it ends on.
        arc_indices.clear();
        arc_indices.resize(self.arcs.len(), 0);
        for (idx, a) in self.arcs.iter().enumerate().rev() {
            let slot = a.to - self.base + 1;
            starts[slot] -= 1;
            arc_indices[starts[slot]] = idx;
        }
        // Each bucket's end moved onto its start: shift them back.
        starts.rotate_left(1);
        starts[n] = self.arcs.len();
    }
}

/// Iterator over the outgoing arc indices of one node.
pub struct OutArcs<'a> {
    tg: &'a TraversalGraph,
    next: usize,
}

impl Iterator for OutArcs<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == NONE {
            return None;
        }
        let idx = self.next;
        self.next = self.tg.out_next[idx];
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProcessId;

    fn sample() -> ExecutionGraph {
        let mut b = ExecutionGraph::builder(3);
        let a = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        let (_, r) = b.send(a, ProcessId(2));
        b.send(r, ProcessId(1));
        b.send(a, ProcessId(1));
        b.finish()
    }

    #[test]
    fn from_graph_matches_the_legacy_arc_order() {
        let g = sample();
        let tg = TraversalGraph::from_graph(&g);
        assert_eq!(tg.num_live_nodes(), g.num_events());
        // fwd+bwd per message, then local backs.
        assert_eq!(tg.num_arcs(), 2 * g.num_messages() + 3);
        for (i, m) in g.effective_messages().enumerate() {
            assert!(matches!(tg.arcs()[2 * i].kind, ArcKind::Forward(id) if id == m.id));
            assert!(matches!(tg.arcs()[2 * i + 1].kind, ArcKind::Backward(id) if id == m.id));
        }
        // Each local arc's step is rebuilt from its endpoints: its edge is
        // the graph's, the arc reversed.
        let locals = &tg.arcs()[2 * g.num_messages()..];
        assert!(locals.iter().all(|a| a.kind == ArcKind::LocalBack));
        for (arc, edge) in locals.iter().zip(g.local_edges()) {
            let step = CycleStep {
                edge: ShadowEdge::Local(edge),
                against: true,
            };
            assert_eq!(arc.step(), Ok(step));
        }
    }

    /// Layout pins. A kind of more than two words, or an arc of more than
    /// four, is passed through memory by every caller that is not
    /// inlined, and the callee's wide reload of the caller's word stores
    /// stalls on every arc pushed (the module docs of [`ArcKind`]).
    #[test]
    fn an_arc_kind_is_two_words_and_an_arc_four() {
        assert_eq!(std::mem::size_of::<ArcKind>(), 16);
        assert_eq!(std::mem::size_of::<Arc>(), 32);
    }

    /// Every arc of `tg`, each out-list of its nodes, and its arc count.
    type Shape = (Vec<(usize, usize, ArcKind)>, Vec<Vec<usize>>, usize);

    fn shape(tg: &TraversalGraph) -> Shape {
        let arcs = tg.arcs().iter().map(|a| (a.from, a.to, a.kind));
        let outs = (tg.base()..tg.total_nodes()).map(|v| tg.out_arcs(v).collect());
        (arcs.collect(), outs.collect(), tg.num_arcs())
    }

    #[test]
    fn push_receive_leaves_what_pushing_arc_by_arc_leaves() {
        // Receives of node 3 and then node 4 onto a window with arcs in it
        // already, with and without an effective message, with and
        // without a live local predecessor (a send and a `prev` that are
        // the same node included).
        for message in [None, Some((1, MessageId(7)))] {
            for prev in [None, Some(1), Some(2)] {
                let (mut one_call, mut arc_by_arc) = (TraversalGraph::new(), TraversalGraph::new());
                for tg in [&mut one_call, &mut arc_by_arc] {
                    grow_ladder(tg, 3);
                    tg.compact_below(1);
                    tg.push_node();
                    tg.push_node();
                }
                for recv in [3, 4] {
                    one_call.push_receive(recv, message, prev);
                    if let Some((send, mid)) = message {
                        arc_by_arc.push_arc(send, recv, ArcKind::Forward(mid));
                        arc_by_arc.push_arc(recv, send, ArcKind::Backward(mid));
                    }
                    if let Some(prev) = prev {
                        arc_by_arc.push_arc(recv, prev, ArcKind::LocalBack);
                    }
                }
                assert_eq!(shape(&one_call), shape(&arc_by_arc), "{message:?} {prev:?}");
                for arc in one_call
                    .arcs()
                    .iter()
                    .filter(|a| a.kind == ArcKind::LocalBack)
                {
                    let edge = LocalEdge {
                        from: EventId(arc.to),
                        to: EventId(arc.from),
                    };
                    let step = CycleStep {
                        edge: ShadowEdge::Local(edge),
                        against: true,
                    };
                    assert_eq!(arc.step(), Ok(step));
                }
            }
        }
    }

    #[test]
    fn out_arcs_iterate_in_insertion_order() {
        let mut tg = TraversalGraph::new();
        let a = tg.push_node();
        let b = tg.push_node();
        let i0 = tg.push_arc(a, b, ArcKind::Forward(MessageId(0)));
        let i1 = tg.push_arc(b, a, ArcKind::Backward(MessageId(0)));
        let i2 = tg.push_arc(a, a, ArcKind::Forward(MessageId(1)));
        assert_eq!(tg.out_arcs(a).collect::<Vec<_>>(), vec![i0, i2]);
        assert_eq!(tg.out_arcs(b).collect::<Vec<_>>(), vec![i1]);
    }

    #[test]
    fn in_csr_buckets_by_head() {
        let g = sample();
        let tg = TraversalGraph::from_graph(&g);
        let (starts, idx) = tg.in_csr();
        assert_eq!(starts.len(), tg.num_live_nodes() + 1);
        assert_eq!(*starts.last().unwrap(), tg.num_arcs());
        for v in 0..tg.num_live_nodes() {
            let bucket = &idx[starts[v]..starts[v + 1]];
            let heading_to_v = (0..tg.num_arcs()).filter(|&ai| tg.arcs()[ai].to == v);
            assert_eq!(
                bucket,
                heading_to_v.collect::<Vec<_>>(),
                "in insertion order"
            );
        }
        // Buffers that held a larger graph's CSR are overwritten whole.
        let (mut reused_starts, mut reused_idx) = (vec![7; 40], vec![9; 40]);
        tg.in_csr_into(&mut reused_starts, &mut reused_idx);
        assert_eq!((reused_starts, reused_idx), (starts, idx));
    }

    #[test]
    fn compact_below_drops_prefix_arcs_and_keeps_order() {
        let mut tg = TraversalGraph::new();
        for _ in 0..5 {
            tg.push_node();
        }
        tg.push_arc(0, 1, ArcKind::Forward(MessageId(0)));
        tg.push_arc(1, 0, ArcKind::Backward(MessageId(0)));
        let keep0 = tg.push_arc(2, 3, ArcKind::Forward(MessageId(1)));
        tg.push_arc(3, 1, ArcKind::LocalBack);
        let keep1 = tg.push_arc(4, 2, ArcKind::Backward(MessageId(1)));
        let _ = (keep0, keep1);
        let (nodes, arcs) = tg.compact_below(2);
        assert_eq!((nodes, arcs), (2, 3));
        assert_eq!(tg.base(), 2);
        assert_eq!(tg.num_live_nodes(), 3);
        assert_eq!(tg.num_arcs(), 2);
        assert_eq!((tg.arcs()[0].from, tg.arcs()[0].to), (2, 3));
        assert_eq!((tg.arcs()[1].from, tg.arcs()[1].to), (4, 2));
        assert_eq!(tg.out_arcs(2).collect::<Vec<_>>(), vec![0]);
        assert_eq!(tg.out_arcs(4).collect::<Vec<_>>(), vec![1]);
        // Growth continues seamlessly after compaction.
        let v = tg.push_node();
        assert_eq!(v, 5);
        tg.push_arc(v, 3, ArcKind::LocalBack);
        assert_eq!(tg.out_arcs(v).count(), 1);
    }

    /// A small ladder: `n` nodes, each with a forward/backward pair to its
    /// successor.
    fn grow_ladder(tg: &mut TraversalGraph, n: usize) {
        for v in 0..n {
            assert_eq!(tg.push_node(), v);
            if v > 0 {
                tg.push_arc(v - 1, v, ArcKind::Forward(MessageId(v)));
                tg.push_arc(v, v - 1, ArcKind::Backward(MessageId(v)));
            }
        }
    }

    #[test]
    fn clear_restarts_at_zero_and_keeps_every_capacity() {
        let mut tg = TraversalGraph::new();
        grow_ladder(&mut tg, 100);
        tg.compact_below(40);
        tg.clear();
        assert_eq!((tg.base(), tg.total_nodes(), tg.num_arcs()), (0, 0, 0));
        grow_ladder(&mut tg, 100);
        let capacities = |tg: &TraversalGraph| {
            [
                tg.arcs.capacity(),
                tg.out_head.capacity(),
                tg.out_tail.capacity(),
                tg.out_next.capacity(),
            ]
        };
        let before = capacities(&tg);
        tg.clear();
        grow_ladder(&mut tg, 100);
        assert_eq!(capacities(&tg), before, "the second run allocated");
        // Indistinguishable from a graph grown from nothing.
        let mut fresh = TraversalGraph::new();
        grow_ladder(&mut fresh, 100);
        for v in 0..100 {
            assert_eq!(
                tg.out_arcs(v).collect::<Vec<_>>(),
                fresh.out_arcs(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(tg.in_csr(), fresh.in_csr());
    }

    #[test]
    #[should_panic(expected = "below the compaction base")]
    fn pushing_arcs_into_the_compacted_region_panics() {
        let mut tg = TraversalGraph::new();
        for _ in 0..3 {
            tg.push_node();
        }
        tg.compact_below(2);
        tg.push_arc(2, 1, ArcKind::Forward(MessageId(0)));
    }
}
