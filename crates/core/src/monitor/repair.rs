//! Frontier repair: restoring feasible potentials after an append opened
//! a window conflict, and deciding exactly when that cannot be done.
//!
//! The append leaves one tense node; `restore_feasibility` re-relaxes from
//! it with a FIFO queue. A node improved more than `#nodes` times signals
//! a negative cycle through the new arcs, and since queue orderings can
//! exceed that benignly every trip is settled by the exact
//! `confirm_violation`: one `seeded_sssp` over the pre-append arcs (which
//! are feasible, so it converges). The same seeded pass grows the
//! shortest-path trees a prune condenses its boundary with.

use crate::cycle::{Cycle, WitnessSummary};
use crate::graph::MessageId;
use crate::traversal::ArcKind;

use super::prune::FrontierRow;
use super::{IncrementalChecker, Weight};

static OBS_RELAXATIONS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.relaxations");
static OBS_REPAIRS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.frontier_repairs");
static OBS_CONFIRMS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.confirm_sssp");

/// The append that opened the current repair, for violation confirmation:
/// every cycle the append can have created runs `u → v → prev → ⋯ → u`.
#[derive(Clone, Debug)]
pub(super) struct ConfirmCtx {
    /// Send event of the appended message.
    pub(super) u: usize,
    /// The appended receive event.
    pub(super) v: usize,
    /// `v`'s local predecessor (global event id).
    pub(super) prev_global: usize,
    /// The frontier row of `v`'s process when `prev` was compacted by
    /// pruning (`None`: `prev` is live): seeds the confirmation's
    /// shortest-path pass in place of `dist[prev] = 0`.
    pub(super) seeds: Option<FrontierRow>,
    /// The appended message.
    pub(super) mid: MessageId,
    /// Arena length before this append's arcs: `arcs[..old_arcs]` is the
    /// pre-append (feasible) traversal graph.
    pub(super) old_arcs: usize,
}

impl IncrementalChecker {
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
    pub(super) fn restore_feasibility(&mut self, ctx: &ConfirmCtx) {
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
                    if let Some((cycle, summary)) = self.confirm_violation(ctx) {
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

    pub(super) fn enqueue(&mut self, v: usize) {
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
    pub(super) fn seeded_sssp(
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

    /// Exact violation confirmation via the canonical cycle shape (see
    /// the `witness` module): the append of `v` created a violating cycle
    /// iff `w(u→v) + w(v→prev) + shortest-path(prev ⇝ u over pre-append
    /// arcs)` is lexicographically negative. Pre-append arcs are feasible
    /// (no negative cycle), so the seeded shortest-path pass terminates.
    fn confirm_violation(&self, ctx: &ConfirmCtx) -> Option<(Cycle, WitnessSummary)> {
        let _span = abc_obs::span("monitor.confirm_sssp");
        OBS_CONFIRMS.add(1);
        let base = self.tg.base();
        let n = self.tg.num_live_nodes();
        let arcs = &self.tg.arcs()[..ctx.old_arcs];
        // A live `prev` seeds the pass at zero; a compacted one seeds it
        // with its condensed `prev ⇝ exit` paths, so `dist[u]` is the same
        // shortest `prev ⇝ u` distance the full graph would yield.
        let seeds: Vec<(usize, Weight)> = match &ctx.seeds {
            None => vec![(ctx.prev_global, (0, 0))],
            Some(row) => row.outs.iter().map(|o| (o.head, o.info.weight)).collect(),
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
        debug_assert!(ctx.seeds.is_some() || node == ctx.prev_global);
        Some(self.canonical_witness(ctx, seed, &path))
    }
}
