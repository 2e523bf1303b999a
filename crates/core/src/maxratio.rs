//! The one exact **maximum cycle ratio** engine behind
//! [`crate::check::max_relevant_cycle_ratio`] and the monitor's live
//! margin ([`crate::monitor::IncrementalChecker::current_margin`], pruned
//! or not).
//!
//! # Ascent by cycle ratios
//!
//! The engine asks one question repeatedly: *is there a cycle whose ratio
//! `B/F` lies strictly above `B₀/F₀`?* Counts are integers, so that is
//! `B·F₀ − B₀·F ≥ 1`: a plain negative cycle under the arc weights
//! `+B₀` per forward message and `−F₀` per backward message — no scale
//! factor, and parts never above the number of live messages. A *yes*
//! hands back the cycle it found, and the next question is asked strictly
//! above **that cycle's own ratio**; a *no* ends the ascent at the last
//! ratio found, which is therefore attained and maximal. A margin costs a
//! handful of *yes* probes plus one *no*, each one run of the crate's
//! worklist negative-cycle kernel (`negcycle.rs`) in scratch the engine
//! allocates once and every probe of the computation shares:
//!
//! * labels start at the **earliest-feasible potential** of the arcs that
//!   point to older events (backward, local and descending shortcut arcs
//!   form a DAG, so one pass in event order satisfies all of them), and
//!   the kernel re-scans only the nodes the ascending arcs still pull
//!   on — a *no* is usually one changeless scan of every node;
//! * a *yes* is the cycle the kernel's tree of relaxing arcs was about to
//!   close: the closing arc was tense against labels the tree's tight
//!   arcs had fixed, so the cycle's weight is negative — it is a cycle
//!   with ratio above `B₀/F₀`, and its own counts are the next
//!   `(B₀, F₀)`. No label ever laps a cycle, which is what
//!   [`probe_weights_fit`] relies on.
//!
//! The node-level probe is exact even though every message contributes a
//! forward/backward arc pair: with `B₀ ≥ F₀` that two-arc loop weighs
//! `B₀ − F₀ ≥ 0`, so a negative closed walk always contains a genuine
//! cycle of larger ratio.
//!
//! # Ratio exactly one
//!
//! Only "is the margin exactly `1`, or is there no relevant cycle" needs
//! more than that. It is asked only when the probe above `1/1` said *no*,
//! and then that probe's final labels are a feasible potential `π` for the
//! weights `f − b`: every closed walk costs `≥ 0`, and the walks costing
//! exactly `0` (`B = F`) are the ones made of **tight** arcs
//! (`π(head) = π(tail) + f − b`). A relevant cycle of ratio `1` exists iff
//! the tight arcs close a walk that never re-traverses a message it just
//! took ([`step_reverses`]) — a directed-cycle test on the reversal-free
//! line graph of the tight arcs, done by peeling arcs without successors.
//!
//! # Shortcut arcs
//!
//! A pruned monitor's window carries [`ArcKind::Shortcut`] arcs standing
//! for whole families of condensed paths; [`Shortcuts`] tells the engine
//! the cost lines `(f, b)` behind each. A probe charges such an arc the
//! cheapest of its lines at the probed ratio and remembers which
//! (`pick`), so a found cycle's counts and witness come from the paths
//! actually used. Batch graphs pass [`NoShortcuts`].

use abc_rational::{BigInt, Ratio};

use crate::check::CheckError;
use crate::cycle::{CycleStep, ShadowEdge};
use crate::negcycle::{self, NegCycle};
use crate::traversal::{ArcKind, TraversalGraph};

/// Cycle probes run by the engine (one per "is there a cycle above
/// `B₀/F₀`" question), across batch and monitor callers.
static OBS_RATIO_PROBES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.ratio_probes");
/// Ratio-exactly-one passes (tight-arc cycle tests) the engine ran.
static OBS_RATIO_ONE: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.ratio_one_passes");

/// Weight of an arc a probe must not take.
const SKIP: i128 = i128::MAX;

/// The condensed paths behind the shortcut arcs of a pruned window.
pub(crate) trait Shortcuts {
    /// How many cost lines shortcut `id` carries.
    fn lines(&self, id: usize) -> usize;
    /// Forward and backward message counts `(f, b)` of line `pick`.
    fn line(&self, id: usize, pick: usize) -> (i128, i128);
    /// First and last step of the expansion of line `pick`.
    fn ends(&self, id: usize, pick: usize) -> (Option<CycleStep>, Option<CycleStep>);
}

/// The shortcut table of a graph that has none (batch builds).
pub(crate) struct NoShortcuts;

impl Shortcuts for NoShortcuts {
    fn lines(&self, _: usize) -> usize {
        unreachable!("batch graphs carry no shortcut arcs")
    }
    fn line(&self, _: usize, _: usize) -> (i128, i128) {
        unreachable!("batch graphs carry no shortcut arcs")
    }
    fn ends(&self, _: usize, _: usize) -> (Option<CycleStep>, Option<CycleStep>) {
        unreachable!("batch graphs carry no shortcut arcs")
    }
}

/// A cycle attaining the maximum ratio `b/f`.
pub(crate) struct Attained {
    /// Backward message steps of the cycle.
    pub b: i128,
    /// Forward message steps of the cycle.
    pub f: i128,
    /// The cycle as `(arc index, picked line)` pairs in traversal order.
    /// Empty when the ratio is exactly `1`: the certificate is then a
    /// tight closed walk, not one canonical cycle.
    pub cycle: Vec<(usize, usize)>,
}

/// Do consecutive walk steps `a` then `b` immediately re-traverse one
/// message in opposite directions? Such walks are excluded from cycles,
/// and dropping them loses no optimal path at probe ratios `≥ 1`:
/// contracting the pair yields a valid walk whose cost is lower by
/// `x − 1 ≥ 0`, and that walk is explored on its own.
pub(crate) fn step_reverses(a: &CycleStep, b: &CycleStep) -> bool {
    match (a.edge, b.edge) {
        (ShadowEdge::Message(m1), ShadowEdge::Message(m2)) => m1 == m2 && a.against != b.against,
        _ => false,
    }
}

/// `b/f` as a [`Ratio`].
pub(crate) fn ratio_of((b, f): (i128, i128)) -> Ratio {
    Ratio::from_bigints(BigInt::from(b), BigInt::from(f))
}

/// Whether every label a probe with parts `≤ part` can produce fits
/// `i128`: an arc weighs at most `part·mass` (`mass` = the most message
/// steps one arc stands for), seed labels stack at most `size` of those,
/// and the kernel lowers a label by a simple path of at most `size` more —
/// `2·size` arc weights in all, which `part·mass·(size + 2)²` bounds with
/// room to spare.
pub(crate) fn probe_weights_fit(part: i128, mass: i128, size: usize) -> bool {
    let Ok(size) = i128::try_from(size) else {
        return false;
    };
    part.checked_mul(mass)
        .and_then(|x| x.checked_mul(size + 2))
        .and_then(|x| x.checked_mul(size + 2))
        .is_some()
}

/// The exact maximum of `B/F` over the cycles of `tg` — strictly above
/// `floor` when one is given, at least `1` otherwise — together with a
/// cycle attaining it; `Ok(None)` when no cycle gets there.
///
/// `floor` is a ratio some (possibly compacted) cycle of the execution
/// already attains, as `(B, F)` parts with `B ≥ F ≥ 1`.
///
/// # Errors
///
/// [`CheckError::GraphTooLarge`] when the probe labels could overflow
/// `i128` ([`probe_weights_fit`]); checked before any probe runs.
pub(crate) fn max_cycle_ratio<S: Shortcuts + ?Sized>(
    tg: &TraversalGraph,
    shortcuts: &S,
    floor: Option<(i128, i128)>,
) -> Result<Option<Attained>, CheckError> {
    let mut engine = Engine::new(tg, shortcuts);
    // Probe parts are the floor's or a live cycle's own counts, and a
    // cycle takes each arc at most once.
    let mut part = engine.f_sum.max(engine.b_sum);
    if part == 0 {
        return Ok(None);
    }
    if let Some((b, f)) = floor {
        part = part.max(b).max(f);
    }
    let size = tg.num_live_nodes().max(tg.num_arcs());
    if !probe_weights_fit(part, engine.mass, size) {
        return Err(CheckError::GraphTooLarge);
    }
    let (mut b, mut f) = floor.unwrap_or((1, 1));
    let mut best: Option<Attained> = None;
    while let Some(found) = engine.cycle_above(b, f) {
        (b, f) = (found.b, found.f);
        best = Some(found);
    }
    if best.is_none() && floor.is_none() && engine.tight_cycle_exists() {
        best = Some(Attained {
            b: 1,
            f: 1,
            cycle: Vec::new(),
        });
    }
    Ok(best)
}

/// Whether the batch graph `tg` closes any cycle with `B ≥ F` at all.
pub(crate) fn has_cycle_at_least_one(tg: &TraversalGraph) -> bool {
    // Parts `1/1`: labels stay within the arc count, far inside `i128`.
    let mut engine = Engine::new(tg, &NoShortcuts);
    engine.cycle_above(1, 1).is_some() || engine.tight_cycle_exists()
}

/// How many cost lines an arc carries: one, or a shortcut's envelope.
fn line_count<S: Shortcuts + ?Sized>(shortcuts: &S, kind: ArcKind) -> usize {
    kind.counts().map_or_else(|id| shortcuts.lines(id), |_| 1)
}

/// Forward and backward message counts `(f, b)` of line `pick` of an arc.
fn line<S: Shortcuts + ?Sized>(shortcuts: &S, kind: ArcKind, pick: usize) -> (i128, i128) {
    kind.counts().unwrap_or_else(|id| shortcuts.line(id, pick))
}

/// The steps line `pick` of an arc begins and ends with.
fn ends<S: Shortcuts + ?Sized>(
    shortcuts: &S,
    kind: ArcKind,
    pick: usize,
) -> (Option<CycleStep>, Option<CycleStep>) {
    kind.step()
        .map_or_else(|id| shortcuts.ends(id, pick), |s| (Some(s), Some(s)))
}

/// One max-ratio computation: the scratch every probe of it reuses. Cost
/// lines are read off the arcs (and the shortcut table) as needed, never
/// copied, so the scratch is a few words per arc and per node.
struct Engine<'a, S: ?Sized> {
    tg: &'a TraversalGraph,
    shortcuts: &'a S,
    /// Per-arc maxima summed over the arena: no cycle takes more forward
    /// (backward) steps than this.
    f_sum: i128,
    b_sum: i128,
    /// The most message steps a single arc stands for.
    mass: i128,
    /// Per probe: each arc's weight and the line attaining it.
    weights: Vec<i128>,
    picks: Vec<usize>,
    /// The kernel scratch every probe runs in, and its labels (windowed by
    /// `tg.base()`): feasible after a *no*.
    kernel: NegCycle,
    labels: Vec<i128>,
}

impl<'a, S: Shortcuts + ?Sized> Engine<'a, S> {
    fn new(tg: &'a TraversalGraph, shortcuts: &'a S) -> Engine<'a, S> {
        let arcs = tg.arcs();
        let (mut f_sum, mut b_sum, mut mass) = (0i128, 0i128, 1i128);
        for arc in arcs {
            let count = line_count(shortcuts, arc.kind);
            debug_assert!(count > 0, "margin probes need signature envelopes");
            let (mut f, mut b) = (0, 0);
            for pick in 0..count {
                let (lf, lb) = line(shortcuts, arc.kind, pick);
                (f, b) = (f.max(lf), b.max(lb));
            }
            f_sum += f;
            b_sum += b;
            mass = mass.max(f + b);
        }
        Engine {
            tg,
            shortcuts,
            f_sum,
            b_sum,
            mass,
            weights: vec![0; arcs.len()],
            picks: vec![0; arcs.len()],
            kernel: NegCycle::default(),
            labels: vec![0; tg.num_live_nodes()],
        }
    }

    /// A cycle with `B·q − p·F ≥ 1` (ratio strictly above `p/q`), if any.
    /// After a `None` the labels are a feasible potential for the probed
    /// weights.
    fn cycle_above(&mut self, p: i128, q: i128) -> Option<Attained> {
        OBS_RATIO_PROBES.add(1);
        let arcs = self.tg.arcs();
        for (ai, arc) in arcs.iter().enumerate() {
            // A shortcut whose envelope is empty stands for no path.
            let (mut w, mut pick) = (SKIP, 0);
            for i in 0..line_count(self.shortcuts, arc.kind) {
                let (f, b) = line(self.shortcuts, arc.kind, i);
                let cost = p * f - q * b;
                if cost < w {
                    (w, pick) = (cost, i);
                }
            }
            self.weights[ai] = w;
            self.picks[ai] = pick;
        }
        let weights = &self.weights;
        let weight = |ai: usize| Some(weights[ai]).filter(|&w| w != SKIP);
        negcycle::seed_earliest_feasible(self.tg, &mut self.labels, weight);
        let starts = 0..self.labels.len();
        let run = self.kernel.run(self.tg, &mut self.labels, starts, weight);
        crate::check::record_kernel_run(&run);
        let indices = run.cycle?;
        let mut found = Attained {
            b: 0,
            f: 0,
            cycle: Vec::with_capacity(indices.len()),
        };
        for ai in indices {
            let pick = self.picks[ai];
            let (f, b) = line(self.shortcuts, arcs[ai].kind, pick);
            found.f += f;
            found.b += b;
            found.cycle.push((ai, pick));
        }
        debug_assert!(found.b * q - p * found.f >= 1, "closed cycles are negative");
        Some(found)
    }

    /// Whether the arcs that are tight under the current labels — a
    /// feasible potential for the weights `f − b`, left by a *no* above
    /// `1/1` — close a reversal-free walk (module docs): some relevant
    /// cycle has `B = F`. Works line by line: every cost line of a
    /// shortcut arc is its own parallel arc of the line graph.
    fn tight_cycle_exists(&self) -> bool {
        OBS_RATIO_ONE.add(1);
        let tg = self.tg;
        let arcs = tg.arcs();
        let base = tg.base();
        // Lines of arc `ai` are numbered `starts[ai]..starts[ai + 1]`.
        let mut starts = Vec::with_capacity(arcs.len() + 1);
        let mut total = 0;
        for arc in arcs {
            starts.push(total);
            total += line_count(self.shortcuts, arc.kind);
        }
        starts.push(total);
        let lines_of = |ai: usize| starts[ai]..starts[ai + 1];
        let mut tight = vec![false; total];
        for (ai, arc) in arcs.iter().enumerate() {
            let slack = self.labels[arc.to - base] - self.labels[arc.from - base];
            for li in lines_of(ai) {
                let (f, b) = line(self.shortcuts, arc.kind, li - starts[ai]);
                tight[li] = f - b == slack;
            }
        }
        // May line `lc` of arc `ci` follow line `la` of arc `ai`?
        let follows = |(ai, la): (usize, usize), (ci, lc): (usize, usize)| {
            let (_, last) = ends(self.shortcuts, arcs[ai].kind, la - starts[ai]);
            let (first, _) = ends(self.shortcuts, arcs[ci].kind, lc - starts[ci]);
            match (last, first) {
                (Some(last), Some(first)) => !step_reverses(&last, &first),
                _ => true,
            }
        };
        // Peel lines no walk can continue from; what survives lies on or
        // leads into a cycle of the line graph.
        let mut successors = vec![0usize; total];
        let mut dead: Vec<(usize, usize)> = Vec::new();
        let mut alive = 0usize;
        for (ai, arc) in arcs.iter().enumerate() {
            for la in lines_of(ai).filter(|&la| tight[la]) {
                let mut cursor = tg.first_out(arc.to);
                while let Some(ci) = cursor {
                    cursor = tg.next_out(ci);
                    successors[la] += lines_of(ci)
                        .filter(|&lc| tight[lc] && follows((ai, la), (ci, lc)))
                        .count();
                }
                if successors[la] == 0 {
                    dead.push((ai, la));
                } else {
                    alive += 1;
                }
            }
        }
        let (in_starts, in_arcs) = tg.in_csr();
        while let Some(gone) = dead.pop() {
            let tail = arcs[gone.0].from - base;
            for &ai in &in_arcs[in_starts[tail]..in_starts[tail + 1]] {
                for la in lines_of(ai) {
                    if successors[la] > 0 && follows((ai, la), gone) {
                        successors[la] -= 1;
                        if successors[la] == 0 {
                            dead.push((ai, la));
                            alive -= 1;
                        }
                    }
                }
            }
        }
        alive > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_overflow_guard_is_exact_at_its_boundary() {
        // part · mass · (size + 2)² against i128::MAX = 2¹²⁷ − 1, with
        // size + 2 = 2³⁰: the product of the other two may reach 2⁶⁷ − 1.
        let size = (1usize << 30) - 2;
        assert!(probe_weights_fit((1 << 67) - 1, 1, size));
        assert!(!probe_weights_fit(1 << 67, 1, size));
        assert!(probe_weights_fit(1 << 33, (1 << 34) - 1, size));
        assert!(!probe_weights_fit(1 << 33, 1 << 34, size));
        // Everything a real monitor window or batch graph presents is far
        // inside: a million messages in one graph still fits.
        assert!(probe_weights_fit(1_000_000, 1, 3_000_000));
    }
}
