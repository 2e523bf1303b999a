//! Frontier repair: restoring feasible potentials after an append opened
//! a window conflict, and deciding exactly when that cannot be done.
//!
//! No heuristic: the potentials were feasible before the append, its arcs
//! all touch the new receive `v`, and capping `π(v)` leaves `v` the one
//! node with tense out-arcs. `restore_feasibility` runs the crate's
//! negative-cycle kernel (`negcycle.rs`) from the start set `[v]`. Lowered
//! labels all derive from `π(v)` and `v`'s only in-arc is `u → v`, so the
//! repair converges — to `min(π(x), π(v) + d(v ⇝ x))`, whatever the scan
//! order — or lowers `u` until `u → v` is tense again, the kernel closing
//! a cycle: a violation exists iff the repair closes one. Its canonical
//! witness is then one `seeded_sssp` over the pre-append arcs (feasible,
//! so it converges), the pass that also grows the shortest-path trees a
//! prune condenses its boundary with.

use crate::cycle::{Cycle, WitnessSummary};
use crate::graph::MessageId;
use crate::negcycle::Label;

use super::prune::FrontierRow;
use super::{weight_of, IncrementalChecker, Weight};

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
    /// Runs the kernel from the tense node `ctx.v`: the potentials are
    /// feasible again, or — iff the append closed a violating cycle — its
    /// canonical witness is latched (the kernel's own is only the proof).
    pub(super) fn restore_feasibility(&mut self, ctx: &ConfirmCtx) {
        let _span = abc_obs::span("monitor.frontier_repair");
        OBS_REPAIRS.add(1);
        let (arcs, shortcuts, p, q) = (self.tg.arcs(), &self.shortcuts, self.p, self.q);
        let weight = |ai: usize| Some(weight_of(arcs[ai].kind, p, q, shortcuts));
        let start = ctx.v - self.tg.base();
        let run = self
            .kernel
            .run(&self.tg, &mut self.pot, [start], weight, None);
        self.stats.relaxations += run.relaxations;
        OBS_RELAXATIONS.add(run.relaxations);
        if run.cycle.is_none() {
            return;
        }
        let (cycle, summary) = self.confirm_violation(ctx);
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
                let cand = d.plus(self.arc_weight(arc.kind));
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

    /// The canonical witness of the violation the repair has just proved
    /// (see the `witness` module): `u → v → prev` closed by the shortest
    /// path `prev ⇝ u` over the pre-append arcs, which are feasible, so the
    /// seeded pass terminates. Once per latch. Every cycle the append made
    /// has that shape: a `u` the pass did not reach is an internal error,
    /// as is a canonical cycle that does not violate (the caller's assert).
    fn confirm_violation(&self, ctx: &ConfirmCtx) -> (Cycle, WitnessSummary) {
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
        let (_, pred, seed_of) = self.seeded_sssp(&pre_append, base, n, &seeds);
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
                None => {
                    break seed_of[node - base]
                        .expect("internal error: the closed cycle reaches `u` from `prev`")
                }
            }
        };
        path.reverse();
        debug_assert!(ctx.seeds.is_some() || node == ctx.prev_global);
        self.canonical_witness(ctx, seed, &path)
    }
}
