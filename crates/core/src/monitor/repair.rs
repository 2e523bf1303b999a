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
//! witness is then one lex pass ([`LexScratch::run`]) over the pre-append
//! arcs (feasible, so it converges), the pass that also grows the
//! shortest-path trees a prune condenses its boundary with.
//!
//! # The lex pass
//!
//! The pass is Gauss–Seidel Bellman–Ford: rounds over the arcs in
//! descending arena order — backward and local arcs point to older events,
//! so a round carries whole descending chains — until a round relaxes
//! nothing. It visits only the arcs whose tail label changed since their
//! last visit. Such a visit is the only one that can relax: after an arc
//! `t → h` is visited, `d(h) ≤ d(t) + w`, and head labels only fall, so
//! while `d(t)` stands still the arc stays relaxed. When a visit lowers
//! `d(h)`, the out-arcs of `h` below the current arc in arena order are
//! still ahead in this round and join its bitset, the others (above it;
//! never the arc itself, self-loops are left out) join the next round's.
//! The pass therefore makes the round loop's relaxations, in the round
//! loop's order, and leaves the same labels, predecessors and seeds
//! (`monitor/tests.rs` keeps the round loop as the oracle). On the
//! certified windows a prune runs it on (the `window` module) over the
//! bounded served documents, that is ≈134 arc visits per landing for ≈67
//! relaxations. A window keeps the arcs' arena order, so its pass visits
//! its arcs in the rounds and the order the whole prefix's pass would.

use crate::cycle::{Cycle, WitnessSummary};
use crate::graph::MessageId;
use crate::negcycle::Label;
use crate::traversal::{Arc, ArcKind};

use super::margin::ArcLines;
use super::prune::FrontierRow;
use super::{narrow, weight_of, IncrementalChecker, Weight};

/// Arcs indexed for the lex pass, and for a prune's envelope pass: by
/// *rank* (ascending arena order) each arc's arena index, windowed ends and
/// lex weight, and by windowed tail a CSR of what a scan of the arc reads,
/// highest rank first, self-loops left out (in a region without negative
/// cycles they never relax, and an envelope pass only laps a prefix cycle
/// with them). The monitor keeps one per window size a prune indexes
/// (the `window` module) and one for its latch confirmations, refilled in
/// place, so neither allocates once a cut of its size has been indexed.
#[derive(Clone, Debug, Default)]
pub(super) struct LexArcs {
    /// Arena index of each rank.
    pub(super) arena: Vec<usize>,
    tail: Vec<usize>,
    /// Each rank's CSR entry, in rank order.
    by_rank: Vec<OutArc>,
    weight: Vec<Weight>,
    out_start: Vec<usize>,
    out: Vec<OutArc>,
}

/// One CSR entry of [`LexArcs`]: everything a scan of an out-arc reads
/// before it knows whether the arc's line can win — its rank (the lex
/// pass's bitset index, and the way to the arena index for a winner), its
/// windowed head and, in an index built for the envelope pass, its cost
/// lines. Sixteen bytes, four to a cache line
/// (`tests::an_envelope_slot_is_48_bytes_and_a_csr_entry_16` pins it): the
/// envelope pass turns most scans away on this entry and the head's slot
/// alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct OutArc {
    pub(super) rank: u32,
    pub(super) head: u32,
    pub(super) lines: ArcLines,
}

impl LexArcs {
    /// Indexes `arcs` — `(arena index, arc, weight)` in ascending arena
    /// order, both ends in the window — over the `width` nodes from `base`,
    /// each CSR entry carrying `lines` of the arc's kind: [`ArcLines::of`]
    /// for an envelope pass, [`ArcLines::UNREAD`] for the lex pass alone.
    /// Refills the columns in place, keeping their capacity.
    pub(super) fn index(
        &mut self,
        width: usize,
        base: usize,
        arcs: impl Iterator<Item = (usize, Arc, Weight)>,
        lines: impl Fn(ArcKind) -> ArcLines,
    ) {
        let LexArcs {
            arena,
            tail,
            by_rank,
            weight,
            out_start,
            out,
        } = self;
        arena.clear();
        tail.clear();
        by_rank.clear();
        weight.clear();
        // First each tail's count, then (prefix sums) the end of its run.
        out_start.clear();
        out_start.resize(width + 1, 0);
        for (ai, arc, w) in arcs {
            let (from, head) = (arc.from - base, arc.to - base);
            by_rank.push(OutArc {
                rank: narrow(arena.len()),
                head: narrow(head),
                lines: lines(arc.kind),
            });
            arena.push(ai);
            tail.push(from);
            weight.push(w);
            if from != head {
                out_start[from] += 1;
            }
        }
        for v in 1..=width {
            out_start[v] += out_start[v - 1];
        }
        // Counting sort by tail: ascending ranks fill each run from its
        // end, so it lists the highest rank first, and its end cursor
        // comes to rest at its start.
        out.clear();
        let unread = OutArc {
            rank: 0,
            head: 0,
            lines: ArcLines::UNREAD,
        };
        out.resize(out_start[width], unread);
        for (&from, &entry) in tail.iter().zip(by_rank.iter()) {
            if from != entry.head as usize {
                out_start[from] -= 1;
                out[out_start[from]] = entry;
            }
        }
    }

    /// What the monitor keeps of it across prunes, latches and
    /// [`IncrementalChecker::reset`] (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        // Exhaustive on purpose: a new column is counted or does not compile.
        let LexArcs {
            arena,
            tail,
            by_rank,
            weight,
            out_start,
            out,
        } = self;
        arena.capacity()
            + tail.capacity()
            + by_rank.capacity()
            + weight.capacity()
            + out_start.capacity()
            + out.capacity()
    }

    /// The windowed tail and head of the arc of rank `r`.
    pub(super) fn ends(&self, r: usize) -> (usize, usize) {
        (self.tail[r], self.by_rank[r].head as usize)
    }

    /// The out-arcs of windowed node `v`, highest rank first.
    pub(super) fn out(&self, v: usize) -> &[OutArc] {
        &self.out[self.out_start[v]..self.out_start[v + 1]]
    }

    /// How many arcs the CSR holds.
    pub(super) fn num_out(&self) -> usize {
        self.out.len()
    }
}

/// The lex pass's labels and work lists, owned by the monitor and kept
/// across landings, prunes, latch confirmations and
/// [`IncrementalChecker::reset`]: a landing's tree, or a latch's, makes no
/// allocation once a pass of its size has run.
#[derive(Clone, Debug, Default)]
pub(super) struct LexScratch {
    /// Per windowed node: its label, the arena index of the arc that last
    /// lowered it, and the index of the seed still owning it (cleared once
    /// a relaxation beats it).
    pub(super) dist: Vec<Option<Weight>>,
    pub(super) pred: Vec<Option<usize>>,
    pub(super) seed_of: Vec<Option<usize>>,
    /// Ranks to visit in the current round and in the next, as bitsets.
    this_round: Vec<u64>,
    next_round: Vec<u64>,
}

impl LexScratch {
    /// What a reset keeps (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        self.dist.capacity()
            + self.pred.capacity()
            + self.seed_of.capacity()
            + self.this_round.capacity()
            + self.next_round.capacity()
    }

    /// The seeded lex pass over `arcs`: `seeds` are `(global node, initial
    /// label)` pairs, lex-min kept per node, the first seed winning ties,
    /// `base` the global id of windowed node 0. Rounds in descending arena
    /// order visit only the arcs whose tail label changed since their last
    /// visit — the only visits that can relax (module docs) — so the pass
    /// makes the round loop's relaxations in its order. Leaves `dist`,
    /// `pred` and `seed_of` over the window; returns the arc visits and the
    /// relaxations it made.
    ///
    /// # Panics
    ///
    /// Panics if relaxation does not converge within `width + 1` rounds —
    /// the caller's arc set must be free of negative cycles (pre-append arcs
    /// during confirmation, settled prefixes during condensation).
    pub(super) fn run(
        &mut self,
        arcs: &LexArcs,
        base: usize,
        seeds: &[(usize, Weight)],
    ) -> (u64, u64) {
        let width = arcs.out_start.len() - 1;
        let words = arcs.arena.len().div_ceil(64);
        let LexScratch {
            dist,
            pred,
            seed_of,
            this_round,
            next_round,
        } = self;
        for column in [&mut *pred, &mut *seed_of] {
            column.clear();
            column.resize(width, None);
        }
        dist.clear();
        dist.resize(width, None);
        for bits in [&mut *this_round, &mut *next_round] {
            bits.clear();
            bits.resize(words, 0);
        }
        let queue = |bits: &mut Vec<u64>, r: usize| bits[r / 64] |= 1 << (r % 64);
        for (k, &(node, w)) in seeds.iter().enumerate() {
            let slot = node - base;
            if dist[slot].is_none_or(|x| w < x) {
                dist[slot] = Some(w);
                seed_of[slot] = Some(k);
            }
        }
        for (v, d) in dist.iter().enumerate() {
            if d.is_some() {
                for o in arcs.out(v) {
                    queue(this_round, o.rank as usize);
                }
            }
        }
        let (mut visits, mut relaxations) = (0, 0);
        let mut rounds = 0;
        loop {
            let mut relaxed = false;
            // Highest rank first; a visit only queues ranks below its own
            // into this round, so re-reading the word finds them.
            for word in (0..words).rev() {
                while this_round[word] != 0 {
                    let bit = 63 - this_round[word].leading_zeros() as usize;
                    this_round[word] &= !(1 << bit);
                    let r = word * 64 + bit;
                    visits += 1;
                    let (tail, head) = (arcs.tail[r], arcs.by_rank[r].head as usize);
                    let d = dist[tail].expect("only arcs out of labelled nodes are queued");
                    let cand = d.plus(arcs.weight[r]);
                    if dist[head].is_some_and(|x| cand >= x) {
                        continue;
                    }
                    dist[head] = Some(cand);
                    pred[head] = Some(arcs.arena[r]);
                    seed_of[head] = None;
                    relaxations += 1;
                    relaxed = true;
                    for o in arcs.out(head) {
                        let next = o.rank as usize;
                        let bits = if next < r {
                            &mut *this_round
                        } else {
                            &mut *next_round
                        };
                        queue(bits, next);
                    }
                }
            }
            if !relaxed {
                break;
            }
            rounds += 1;
            assert!(
                rounds <= width,
                "internal error: seeded shortest-path region contains a negative cycle"
            );
            std::mem::swap(this_round, next_round);
        }
        (visits, relaxations)
    }
}

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
        // The monitor's cut columns and lex scratch, lent to the
        // confirmation.
        let mut cut_arcs = std::mem::take(&mut self.cut_arcs);
        let mut lex = std::mem::take(&mut self.lex);
        let (cycle, summary) = self.confirm_violation(ctx, &mut cut_arcs, &mut lex);
        self.cut_arcs = cut_arcs;
        self.lex = lex;
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

    /// The canonical witness of the violation the repair has just proved
    /// (see the `witness` module): `u → v → prev` closed by the shortest
    /// path `prev ⇝ u` over the pre-append arcs, which are feasible, so the
    /// seeded pass terminates. Once per latch. Every cycle the append made
    /// has that shape: a `u` the pass did not reach is an internal error,
    /// as is a canonical cycle that does not violate (the caller's assert).
    fn confirm_violation(
        &self,
        ctx: &ConfirmCtx,
        pre_append: &mut LexArcs,
        lex: &mut LexScratch,
    ) -> (Cycle, WitnessSummary) {
        let _span = abc_obs::span("monitor.confirm_sssp");
        OBS_CONFIRMS.add(1);
        let base = self.tg.base();
        let n = self.tg.num_live_nodes();
        let arcs = &self.tg.arcs()[..ctx.old_arcs];
        let indexed = arcs
            .iter()
            .enumerate()
            .map(|(ai, &a)| (ai, a, weight_of(a.kind, self.p, self.q, &self.shortcuts)));
        pre_append.index(n, base, indexed, |_| ArcLines::UNREAD);
        // A live `prev` seeds the pass at zero; a compacted one seeds it
        // with its condensed `prev ⇝ exit` paths, so `dist[u]` is the same
        // shortest `prev ⇝ u` distance the full graph would yield.
        let seeds: Vec<(usize, Weight)> = match &ctx.seeds {
            None => vec![(ctx.prev_global, (0, 0))],
            Some(row) => row.outs.iter().map(|o| (o.head, o.info.weight)).collect(),
        };
        lex.run(pre_append, base, &seeds);
        let (pred, seed_of) = (&lex.pred, &lex.seed_of);
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
