//! The crate's one label-correcting loop: the negative-cycle kernel behind
//! the batch checker ([`crate::check::find_violation`]) and Theorem 7's
//! delay assignment ([`crate::assign::assign_delays`], the same run with
//! its potential kept), and both repairs of the monitor
//! ([`crate::monitor`]): its potentials at `Ξ`, and its labels at its kept
//! margin — kept as it appends, or replayed, which is how
//! [`crate::check::max_relevant_cycle_ratio`] runs it.
//! FIFO label-correcting with **subtree disassembly** (Tarjan 1981,
//! "Shortest paths"; the BFCT variant of Cherkassky & Goldberg 1999,
//! "Negative-cycle detection algorithms").
//!
//! Labels are the caller's — any [`Label`] — and start wherever the caller
//! put them; the caller also names the **start set**, queued in the order
//! given. The batch callers start every node, in event order, from the
//! earliest-feasible potential; the monitor starts the one node its append
//! left tense, over potentials feasible everywhere else (Ramalingam, Song,
//! Joskowicz & Miller 1999, "Solving systems of difference constraints
//! incrementally"). A scan relaxes one node's out-arcs in insertion order.
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
//! The scratch holds no labels and **undoes what it touched**: a run ends
//! by resetting the nodes it queued, and only those. So it is clean between
//! runs, serves windows of any size and base, is left alone by a prune of
//! the monitor's window, and moves *k* labels in *O(k)* whatever the window.
//! The same list can hand the caller its labels back
//! ([`NegCycle::run`] with `moved`): a *yes* leaves labels that are feasible
//! nowhere in particular, and the kept-margin repair, which retries at a
//! higher ratio, starts again from the ones it had.
//!
//! Deterministic: queue order and arc order are fixed by the graph, so the
//! cycle handed back is a pure function of graph, weights, start labels
//! and start set. The batch callers report it; the monitor drops it for its
//! canonical `u → v → prev ⇝ u` witness, which no prune cadence changes.

use std::collections::VecDeque;

use crate::traversal::TraversalGraph;

/// A label: totally ordered, summed with an arc weight (tuples have no `Add`).
pub(crate) trait Label: Copy + Ord {
    fn plus(self, w: Self) -> Self;
}

impl Label for i128 {
    #[inline]
    fn plus(self, w: i128) -> i128 {
        self + w
    }
}

/// Lexicographic pairs, summed component-wise (the monitor's weights).
impl Label for (i128, i128) {
    #[inline]
    fn plus(self, w: (i128, i128)) -> (i128, i128) {
        (self.0 + w.0, self.1 + w.1)
    }
}

/// Sentinel for "no arc" / "no node" in the forest links.
const NONE: usize = usize::MAX;

/// What one run has done to a node so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    /// Not touched by this run (every node, between runs).
    Clean,
    /// Touched, not in the queue.
    Idle,
    Queued,
    /// In the queue, skipped when it surfaces unless re-labelled first.
    Dormant,
}

/// One run's answer and its work, for the caller's own recorder counters.
#[derive(Default)]
pub(crate) struct Run {
    /// Arc indices of a negative cycle, in traversal order.
    pub(crate) cycle: Option<Vec<usize>>,
    /// Successful relaxations, and arcs examined.
    pub(crate) relaxations: u64,
    pub(crate) arc_visits: u64,
}

/// The kernel's per-node scratch, windowed by the graph's `base`.
#[derive(Clone, Debug, Default)]
pub(crate) struct NegCycle {
    /// The arc that last lowered each node's label, while it still
    /// vouches for it (`NONE`: a root or a disassembled node).
    pred: Vec<usize>,
    first_child: Vec<usize>,
    next_sibling: Vec<usize>,
    prev_sibling: Vec<usize>,
    mark: Vec<Mark>,
    queue: VecDeque<usize>,
    /// The subtree under disassembly, parents before children.
    subtree: Vec<usize>,
    /// Every node whose mark is not `Clean`: what the run resets.
    touched: Vec<usize>,
}

/// Sets `labels` to the **earliest-feasible potential**: in event order,
/// the smallest label the arcs into older events allow (backward, local
/// and descending shortcut arcs form a DAG, so one pass satisfies all of
/// them; an event without any continues from its predecessor's label,
/// which keeps it in step with its neighbourhood). Timestamp semantics —
/// every message charged its minimum delay — and the monitor's trick: on
/// admissible executions the ascending arcs are usually satisfied too, and
/// [`NegCycle::run`] from every node is one changeless scan, `O(V + E)`,
/// where an all-zero start makes labels zigzag through the execution. The
/// batch check reads these labels straight off the execution graph
/// (`check.rs`, which holds them against this function) and skips that
/// scan when no ascending arc is tense.
pub(crate) fn seed_earliest_feasible(
    tg: &TraversalGraph,
    labels: &mut [i128],
    weight: impl Fn(usize) -> Option<i128>,
) {
    let arcs = tg.arcs();
    let base = tg.base();
    for v in 0..labels.len() {
        let mut label: Option<i128> = None;
        let mut cursor = tg.first_out(base + v);
        while let Some(ai) = cursor {
            cursor = tg.next_out(ai);
            let to = arcs[ai].to - base;
            if let Some(w) = weight(ai).filter(|_| to < v) {
                let bound = labels[to] - w;
                label = Some(label.map_or(bound, |l| l.max(bound)));
            }
        }
        labels[v] = label.unwrap_or(if v > 0 { labels[v - 1] } else { 0 });
    }
}

impl NegCycle {
    /// Runs the kernel over `tg` from `labels` (one per live node), the
    /// nodes of `starts` (window slots, each once) queued in that order,
    /// under the per-arc `weight` (`None` leaves an arc out). Every tense arc
    /// must leave a start node; a *no* leaves `labels` a feasible potential.
    ///
    /// Given `moved`, the run also hands back what it moved: `moved` is
    /// cleared, then receives every node the run touched (the starts, and
    /// each node it relaxed), once, with its label from before the run.
    /// Writing those back undoes the run, which is how a caller that wants
    /// the labels of a *yes* undone gets them without copying every label.
    pub(crate) fn run<L: Label>(
        &mut self,
        tg: &TraversalGraph,
        labels: &mut [L],
        starts: impl IntoIterator<Item = usize>,
        weight: impl Fn(usize) -> Option<L>,
        mut moved: Option<&mut Vec<(usize, L)>>,
    ) -> Run {
        if let Some(moved) = moved.as_deref_mut() {
            moved.clear();
        }
        let arcs = tg.arcs();
        let base = tg.base();
        if self.mark.len() < labels.len() {
            self.pred.resize(labels.len(), NONE);
            self.first_child.resize(labels.len(), NONE);
            self.next_sibling.resize(labels.len(), NONE);
            self.prev_sibling.resize(labels.len(), NONE);
            self.mark.resize(labels.len(), Mark::Clean);
        }
        for s in starts {
            debug_assert!(self.mark[s] == Mark::Clean, "a start node named twice");
            self.mark[s] = Mark::Queued;
            self.touched.push(s);
            self.queue.push_back(s);
            if let Some(moved) = moved.as_deref_mut() {
                moved.push((s, labels[s]));
            }
        }
        let mut run = Run::default();
        'scan: while let Some(u) = self.queue.pop_front() {
            if std::mem::replace(&mut self.mark[u], Mark::Idle) == Mark::Dormant {
                continue;
            }
            let du = labels[u];
            let mut cursor = tg.first_out(base + u);
            while let Some(ai) = cursor {
                cursor = tg.next_out(ai);
                run.arc_visits += 1;
                let v = arcs[ai].to - base;
                let Some(cand) = weight(ai).map(|w| du.plus(w)).filter(|&c| c < labels[v]) else {
                    continue;
                };
                run.relaxations += 1;
                if self.disassemble(tg, v, u) {
                    let mut found = vec![ai];
                    let mut node = u;
                    while node != v {
                        found.push(self.pred[node]);
                        node = arcs[self.pred[node]].from - base;
                    }
                    found.reverse(); // the walk collects arcs head-first
                    run.cycle = Some(found);
                    break 'scan;
                }
                let before = std::mem::replace(&mut labels[v], cand);
                self.pred[v] = ai;
                self.next_sibling[v] = self.first_child[u];
                self.prev_sibling[v] = NONE;
                if self.first_child[u] != NONE {
                    self.prev_sibling[self.first_child[u]] = v;
                }
                self.first_child[u] = v;
                match std::mem::replace(&mut self.mark[v], Mark::Queued) {
                    Mark::Clean => {
                        self.touched.push(v);
                        self.queue.push_back(v);
                        if let Some(moved) = moved.as_deref_mut() {
                            moved.push((v, before));
                        }
                    }
                    Mark::Idle => self.queue.push_back(v),
                    Mark::Queued | Mark::Dormant => {}
                }
            }
        }
        debug_assert!(
            run.cycle.is_some()
                || arcs.iter().enumerate().all(|(ai, a)| weight(ai)
                    .is_none_or(|w| labels[a.to - base] <= labels[a.from - base].plus(w))),
            "an empty queue leaves no tense arc"
        );
        // Forest parents and members were all queued once.
        self.queue.clear();
        for x in self.touched.drain(..) {
            self.pred[x] = NONE;
            self.first_child[x] = NONE;
            self.mark[x] = Mark::Clean;
        }
        run
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
            if self.mark[x] == Mark::Queued {
                self.mark[x] = Mark::Dormant;
            }
        }
        false
    }

    /// Everything the scratch holds on to, summed (for the monitor's
    /// "a second document allocates nothing" tests).
    pub(crate) fn capacity(&self) -> usize {
        let of_usize = [
            &self.pred,
            &self.first_child,
            &self.next_sibling,
            &self.prev_sibling,
            &self.subtree,
            &self.touched,
        ];
        let of_usize = of_usize.iter().map(|c| c.capacity()).sum::<usize>();
        of_usize + self.mark.capacity() + self.queue.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MessageId;
    use crate::traversal::ArcKind;
    use std::fmt::Debug;

    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            usize::try_from(self.0 >> 33).unwrap() % bound
        }

        /// Uniform in `[-shift, span - shift)`.
        fn around(&mut self, span: usize, shift: i128) -> i128 {
            i128::try_from(self.below(span)).unwrap() - shift
        }
    }

    /// One run on the `shared` scratch and one on a new scratch, which
    /// must agree in everything (the shared one is clean between runs,
    /// whatever sizes and bases it served before). Then the answer's own
    /// certificate: a *no* leaves every arc slack, a *yes* is a closed
    /// simple walk of negative weight over arcs that were not left out —
    /// through `through`, if one is named. Returns whether it was a *yes*.
    fn certified_run<L: Label + Debug>(
        shared: &mut NegCycle,
        tg: &TraversalGraph,
        labels: &mut [L],
        starts: &[usize],
        weights: &[Option<L>],
        (zero, through): (L, Option<usize>),
        case: &str,
    ) -> bool {
        let (arcs, base) = (tg.arcs(), tg.base());
        let before = labels.to_vec();
        let mut relabeled = labels.to_vec();
        let starts = || starts.iter().copied();
        let anew = NegCycle::default().run(tg, &mut relabeled, starts(), |ai| weights[ai], None);
        let mut moved = vec![(usize::MAX, zero)]; // a stale entry: the run clears it
        let run = shared.run(tg, labels, starts(), |ai| weights[ai], Some(&mut moved));
        assert_eq!(
            (&run.cycle, run.relaxations, run.arc_visits, &*labels),
            (&anew.cycle, anew.relaxations, anew.arc_visits, &*relabeled),
            "{case}: a used scratch answers differently"
        );
        // What the run hands back undoes it, naming each node once.
        let mut undone = labels.to_vec();
        for &(x, label) in &moved {
            undone[x] = label;
        }
        assert_eq!(undone, before, "{case}: a moved label was not handed back");
        let mut named: Vec<usize> = moved.iter().map(|&(x, _)| x).collect();
        named.sort_unstable();
        named.dedup();
        assert_eq!(named.len(), moved.len(), "{case}: a node handed back twice");
        let Some(cycle) = run.cycle else {
            for (arc, w) in arcs.iter().zip(weights) {
                let (from, to) = (labels[arc.from - base], labels[arc.to - base]);
                assert!(w.is_none_or(|w| to <= from.plus(w)), "{case}: a tense arc");
            }
            return false;
        };
        let mut tails: Vec<usize> = cycle.iter().map(|&ai| arcs[ai].from).collect();
        let mut sum = zero;
        for (i, &ai) in cycle.iter().enumerate() {
            sum = sum.plus(weights[ai].expect("took an arc that was left out"));
            assert_eq!(arcs[ai].to, tails[(i + 1) % tails.len()], "{case}");
        }
        assert!(sum < zero, "{case}: {sum:?} is not negative");
        assert!(through.is_none_or(|s| tails.contains(&s)), "{case}");
        tails.sort_unstable();
        tails.dedup();
        assert_eq!(tails.len(), cycle.len(), "{case}: not simple");
        true
    }

    /// A random multigraph over the window `base..base + n`, self-loops
    /// and parallel arcs included; the arcs off the last node come after
    /// the `inner` others.
    struct Case {
        base: usize,
        n: usize,
        ends: Vec<(usize, usize)>,
        inner: usize,
    }

    impl Case {
        /// The window with the first `arcs` arcs.
        fn graph(&self, arcs: usize) -> TraversalGraph {
            let mut tg = TraversalGraph::new();
            for _ in 0..self.base + self.n {
                tg.push_node();
            }
            tg.compact_below(self.base);
            for (i, &(from, to)) in self.ends[..arcs].iter().enumerate() {
                tg.push_arc(from, to, ArcKind::Forward(MessageId(i)));
            }
            tg
        }
    }

    /// The two ways the crate runs the kernel, on one case:
    ///
    /// * **batch** — every node started from `labels`, over the graph
    ///   without its last node's arcs;
    /// * **repair** (the monitor's situation) — when that left a feasible
    ///   potential, the last node's arcs are added, its label set to what
    ///   its in-arcs allow (`spare` without any), and it alone is started:
    ///   its out-arcs are the only tense ones, and a cycle has to pass
    ///   through it.
    ///
    /// Returns whether each was a *yes*.
    fn batch_then_repair<L: Label + Debug>(
        shared: &mut NegCycle,
        case: &Case,
        weights: &[Option<L>],
        mut labels: Vec<L>,
        (zero, spare): (L, L),
        what: &str,
    ) -> (bool, Option<bool>) {
        let Case { base, n, inner, .. } = *case;
        let all: Vec<usize> = (0..n).collect();
        let tg = case.graph(inner);
        let (batch, certificate) = (&weights[..inner], (zero, None));
        if certified_run(shared, &tg, &mut labels, &all, batch, certificate, what) {
            return (true, None);
        }
        let last = base + n - 1;
        let allowed = (inner..weights.len())
            .filter(|&ai| case.ends[ai].0 != last)
            .filter_map(|ai| weights[ai].map(|w| labels[case.ends[ai].0 - base].plus(w)))
            .min();
        labels[n - 1] = allowed.unwrap_or(spare);
        let tg = case.graph(weights.len());
        let certificate = (zero, Some(last));
        let repair = certified_run(
            shared,
            &tg,
            &mut labels,
            &[n - 1],
            weights,
            certificate,
            what,
        );
        (false, Some(repair))
    }

    /// Both answers certify themselves, so no oracle is needed: 4 000
    /// random multigraphs with left-out arcs, whole and windowed by a
    /// non-zero base, each through [`batch_then_repair`] under scalar
    /// labels (arbitrary and earliest-feasible starts) and under pair
    /// labels, the second component breaking the first one's ties as the
    /// monitor's `−1` does. One scratch serves every run.
    #[test]
    fn every_answer_carries_its_own_certificate() {
        let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
        let mut shared = NegCycle::default();
        // (yes, no) per leg: scalar batch and repair, pair batch and repair.
        let mut tally = [(0, 0); 4];
        let mut count = |leg: usize, (batch, repair): (bool, Option<bool>)| {
            for (leg, yes) in [(leg, Some(batch)), (leg + 1, repair)] {
                match yes {
                    Some(true) => tally[leg].0 += 1,
                    Some(false) => tally[leg].1 += 1,
                    None => {}
                }
            }
        };
        for id in 0..4_000 {
            let n = 1 + rng.below(8);
            let base = if id % 3 == 0 { rng.below(4) } else { 0 };
            let last = base + n - 1;
            let mut ends: Vec<(usize, usize)> = (0..rng.below(3 * n + 1))
                .map(|_| (base + rng.below(n), base + rng.below(n)))
                .collect();
            ends.sort_by_key(|&(from, to)| from == last || to == last);
            let inner = ends.partition_point(|&(from, to)| from != last && to != last);
            let case = Case {
                base,
                n,
                ends,
                inner,
            };
            let weights: Vec<Option<i128>> = (0..case.ends.len())
                .map(|_| (rng.below(8) != 0).then(|| rng.around(12, 3)))
                .collect();

            let mut labels = vec![0i128; n];
            if id % 2 == 0 {
                seed_earliest_feasible(&case.graph(inner), &mut labels, |ai| weights[ai]);
            } else {
                labels.fill_with(|| rng.around(21, 10));
            }
            let spare = rng.around(21, 10);
            let what = format!("case {id}, scalar labels");
            let answers =
                batch_then_repair(&mut shared, &case, &weights, labels, (0, spare), &what);
            count(0, answers);

            let weights: Vec<Option<(i128, i128)>> =
                weights.iter().map(|w| w.map(|w| (w, -1))).collect();
            let labels = (0..n)
                .map(|_| (rng.around(21, 10), rng.around(5, 2)))
                .collect();
            let spare = (rng.around(21, 10), 0);
            let what = format!("case {id}, pair labels");
            let certificate = ((0, 0), spare);
            let answers =
                batch_then_repair(&mut shared, &case, &weights, labels, certificate, &what);
            count(2, answers);
        }
        for (leg, (yes, no)) in tally.into_iter().enumerate() {
            assert!(
                yes > 400 && no > 400,
                "leg {leg}: {yes} cycles, {no} potentials"
            );
        }
    }
}
