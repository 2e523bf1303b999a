//! The one negative-cycle kernel behind the batch checker
//! ([`crate::check::find_violation`]) and every probe of the max-ratio
//! engine: FIFO label-correcting with **subtree disassembly** (Tarjan 1981,
//! "Shortest paths"; the BFCT variant of Cherkassky & Goldberg 1999,
//! "Negative-cycle detection algorithms").
//!
//! Labels start wherever the caller put them and every node starts queued,
//! in event order. A scan relaxes one node's out-arcs in insertion order.
//! The arcs that last lowered a label form a forest, kept as child/sibling
//! links, and a relaxation `u → v` first **disassembles** `v`'s subtree:
//! its nodes held labels derived from `v`'s old one, so they leave the
//! forest and go dormant — a queued one is skipped — until a relaxation
//! labels them afresh. If `u` itself sits in that subtree, the forest path
//! `v ⇝ u` plus `u → v` is a cycle, and it is negative: forest arcs are
//! tight (a node whose label drops loses its children first) and the
//! closing arc was tense. So the forest never closes a cycle, every label
//! is a start label plus a *simple* path — nothing laps a cycle, which is
//! what the callers' overflow bounds rest on — and the work is
//! proportional to the labels that move, not to the arena times the zigzag
//! depth. `O(V·E)` at worst, exact both ways.
//!
//! Deterministic: queue order and arc order are fixed by the graph, so the
//! cycle handed back is a pure function of graph, weights and start labels.

use std::collections::VecDeque;

use crate::traversal::TraversalGraph;

/// Successful relaxations and arcs examined, over every run of the kernel
/// (a batch check is one run, a max-ratio computation one per probe).
static OBS_RELAXATIONS: abc_obs::CounterDef = abc_obs::CounterDef::new("check.relaxations");
static OBS_ARC_VISITS: abc_obs::CounterDef = abc_obs::CounterDef::new("check.arc_visits");

/// Weight of an arc the kernel must not take.
pub(crate) const SKIP: i128 = i128::MAX;

/// Sentinel for "no arc" / "no node" in the forest links.
const NONE: usize = usize::MAX;

/// Queue membership of a node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Queued {
    No,
    Yes,
    /// Still in the queue, but dormant: skipped when it surfaces unless a
    /// relaxation re-labels it first.
    Dormant,
}

/// The kernel's per-node scratch, reusable across runs over one graph.
/// Node columns are windowed by the graph's `base`.
pub(crate) struct NegCycle {
    /// Labels: the caller's start labels going in; after a `None` a
    /// feasible potential (`dist[to] ≤ dist[from] + w` on every arc).
    pub(crate) dist: Vec<i128>,
    /// The arc that last lowered each node's label, while it still
    /// vouches for it (`NONE`: a root or a disassembled node).
    pred: Vec<usize>,
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    prev_sibling: Vec<usize>,
    queued: Vec<Queued>,
    queue: VecDeque<usize>,
    /// The subtree under disassembly, parents before children.
    subtree: Vec<usize>,
}

impl NegCycle {
    pub(crate) fn new(nodes: usize) -> NegCycle {
        NegCycle {
            dist: vec![0; nodes],
            pred: vec![NONE; nodes],
            first_child: vec![NONE; nodes],
            next_sibling: vec![NONE; nodes],
            prev_sibling: vec![NONE; nodes],
            queued: vec![Queued::No; nodes],
            queue: VecDeque::with_capacity(nodes),
            subtree: Vec::new(),
        }
    }

    /// Sets the start labels to the **earliest-feasible potential**: in
    /// event order, the smallest label the arcs into older events allow
    /// (backward, local and descending shortcut arcs form a DAG, so one
    /// pass satisfies all of them; an event without any continues from its
    /// predecessor's label, which keeps it in step with its
    /// neighbourhood). Timestamp semantics — every message charged its
    /// minimum delay — and the monitor's trick: on admissible executions
    /// the ascending arcs are usually satisfied too, and [`NegCycle::run`]
    /// is one changeless scan of every node, `O(V + E)`, where an all-zero
    /// start makes labels zigzag through the whole execution.
    pub(crate) fn seed_earliest_feasible(&mut self, tg: &TraversalGraph, weights: &[i128]) {
        let arcs = tg.arcs();
        let base = tg.base();
        for v in 0..self.dist.len() {
            let mut label: Option<i128> = None;
            let mut cursor = tg.first_out(base + v);
            while let Some(ai) = cursor {
                cursor = tg.next_out(ai);
                let to = arcs[ai].to - base;
                if to < v && weights[ai] != SKIP {
                    let bound = self.dist[to] - weights[ai];
                    label = Some(label.map_or(bound, |l| l.max(bound)));
                }
            }
            self.dist[v] = label.unwrap_or(if v > 0 { self.dist[v - 1] } else { 0 });
        }
    }

    /// Runs the kernel over `tg` from the labels in `dist` under the
    /// per-arc `weights` ([`SKIP`] leaves an arc out). Returns the arc
    /// indices of a negative cycle in traversal order, or `None` with
    /// `dist` a feasible potential.
    pub(crate) fn run(&mut self, tg: &TraversalGraph, weights: &[i128]) -> Option<Vec<usize>> {
        let arcs = tg.arcs();
        let base = tg.base();
        self.pred.fill(NONE);
        self.first_child.fill(NONE);
        self.queued.fill(Queued::Yes);
        self.queue.clear();
        self.queue.extend(0..self.dist.len());
        let (mut relaxations, mut arc_visits) = (0u64, 0u64);
        let mut cycle = None;
        'scan: while let Some(u) = self.queue.pop_front() {
            if std::mem::replace(&mut self.queued[u], Queued::No) == Queued::Dormant {
                continue;
            }
            let du = self.dist[u];
            let mut cursor = tg.first_out(base + u);
            while let Some(ai) = cursor {
                cursor = tg.next_out(ai);
                arc_visits += 1;
                let w = weights[ai];
                let v = arcs[ai].to - base;
                if w == SKIP || du + w >= self.dist[v] {
                    continue;
                }
                relaxations += 1;
                if self.disassemble(tg, v, u) {
                    let mut found = vec![ai];
                    let mut node = u;
                    while node != v {
                        found.push(self.pred[node]);
                        node = arcs[self.pred[node]].from - base;
                    }
                    found.reverse(); // the walk collects arcs head-first
                    cycle = Some(found);
                    break 'scan;
                }
                self.dist[v] = du + w;
                self.pred[v] = ai;
                self.next_sibling[v] = self.first_child[u];
                self.prev_sibling[v] = NONE;
                if self.first_child[u] != NONE {
                    self.prev_sibling[self.first_child[u]] = v;
                }
                self.first_child[u] = v;
                if std::mem::replace(&mut self.queued[v], Queued::Yes) == Queued::No {
                    self.queue.push_back(v);
                }
            }
        }
        OBS_RELAXATIONS.add(relaxations);
        OBS_ARC_VISITS.add(arc_visits);
        debug_assert!(
            cycle.is_some()
                || arcs
                    .iter()
                    .zip(weights)
                    .all(|(a, &w)| w == SKIP
                        || self.dist[a.to - base] <= self.dist[a.from - base] + w),
            "an empty queue leaves no tense arc"
        );
        cycle
    }

    /// Takes `v` out of its parent's children and its whole subtree out of
    /// the forest, unless `u` is in that subtree (`v` included): then
    /// nothing is touched and the answer is `true`.
    fn disassemble(&mut self, tg: &TraversalGraph, v: usize, u: usize) -> bool {
        self.subtree.clear();
        self.subtree.push(v);
        let mut next = 0;
        while let Some(&x) = self.subtree.get(next) {
            next += 1;
            if x == u {
                return true;
            }
            let mut child = self.first_child[x];
            while child != NONE {
                self.subtree.push(child);
                child = self.next_sibling[child];
            }
        }
        if self.pred[v] != NONE {
            let (before, after) = (self.prev_sibling[v], self.next_sibling[v]);
            if before == NONE {
                self.first_child[tg.arcs()[self.pred[v]].from - tg.base()] = after;
            } else {
                self.next_sibling[before] = after;
            }
            if after != NONE {
                self.prev_sibling[after] = before;
            }
        }
        self.first_child[v] = NONE;
        for &x in &self.subtree[1..] {
            self.pred[x] = NONE;
            self.first_child[x] = NONE;
            if self.queued[x] == Queued::Yes {
                self.queued[x] = Queued::Dormant;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MessageId;
    use crate::traversal::ArcKind;

    /// Both answers certify themselves, so no oracle is needed: a *no*
    /// must leave a feasible potential (which rules out every negative
    /// cycle), a *yes* a closed simple walk of negative weight. Random
    /// multigraphs with self-loops, parallel arcs and skipped arcs, from
    /// arbitrary and from earliest-feasible start labels, whole and
    /// windowed by a non-zero base.
    #[test]
    fn every_answer_carries_its_own_certificate() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = move |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            usize::try_from(state >> 33).unwrap() % bound
        };
        let (mut yes, mut no) = (0, 0);
        for case in 0..4_000 {
            let n = 1 + below(8);
            let base = if case % 3 == 0 { below(4) } else { 0 };
            let mut tg = TraversalGraph::new();
            for _ in 0..base + n {
                tg.push_node();
            }
            tg.compact_below(base);
            let mut weights = Vec::new();
            for i in 0..below(3 * n + 1) {
                let (from, to) = (base + below(n), base + below(n));
                tg.push_arc(from, to, ArcKind::Forward(MessageId(i)));
                weights.push(if below(8) == 0 {
                    SKIP
                } else {
                    i128::try_from(below(12)).unwrap() - 3
                });
            }
            let mut kernel = NegCycle::new(n);
            if case % 2 == 0 {
                kernel.seed_earliest_feasible(&tg, &weights);
            } else {
                for label in &mut kernel.dist {
                    *label = i128::try_from(below(21)).unwrap() - 10;
                }
            }
            let arcs = tg.arcs();
            let Some(cycle) = kernel.run(&tg, &weights) else {
                no += 1;
                for (arc, &w) in arcs.iter().zip(&weights) {
                    let (from, to) = (kernel.dist[arc.from - base], kernel.dist[arc.to - base]);
                    assert!(w == SKIP || to <= from + w, "case {case}: a tense arc");
                }
                continue;
            };
            yes += 1;
            let mut tails: Vec<usize> = cycle.iter().map(|&ai| arcs[ai].from).collect();
            for (i, &ai) in cycle.iter().enumerate() {
                assert_ne!(weights[ai], SKIP, "case {case}: took a skipped arc");
                assert_eq!(arcs[ai].to, tails[(i + 1) % tails.len()], "case {case}");
            }
            assert!(cycle.iter().map(|&ai| weights[ai]).sum::<i128>() < 0);
            tails.sort_unstable();
            tails.dedup();
            assert_eq!(tails.len(), cycle.len(), "case {case}: not simple");
        }
        assert!(yes > 400 && no > 400, "{yes} cycles, {no} potentials");
    }
}
