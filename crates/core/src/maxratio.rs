//! The one exact **maximum cycle ratio** engine behind
//! [`crate::check::max_relevant_cycle_ratio`] and the live margin of a
//! monitor that has pruned nothing and keeps no margin
//! ([`crate::monitor::IncrementalChecker::current_margin`]). A monitor that
//! keeps its margin (the monitor's `margin` module) uses the engine once,
//! to seed its kept labels when keeping starts on a window that holds
//! events already — at its first prune, or when asked to — and the
//! ratio-one pass below; the proptests hold what it keeps against the
//! engine and the batch checker at every prefix.
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
//!   on. A *no* is one changeless scan of every node only when those
//!   labels happen to fit the probed ratio already: on the `sweep_band`
//!   runs (seeds 1000–1009) that held for 0.28 of the one final *no* per
//!   run, and the others relaxed 25 to 1 069 times (median 147) before
//!   they settled;
//! * a probe's weights are read off the arcs' kinds as the kernel visits
//!   them — `+B₀` forward, `−F₀` backward, `0` local — not filled into a
//!   per-arc table before every probe;
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
//! more than that. It is asked only when the probe above `1/1` said *no*
//! (or a tracking monitor's kept margin is `1`), and then that probe's final
//! labels (or the kept ones) are a feasible potential `π` for the weights
//! `f − b`: every closed walk costs `≥ 0`, and the walks costing exactly
//! `0` (`B = F`) are the ones made of **tight** arcs
//! (`π(head) = π(tail) + f − b`). A relevant cycle of ratio `1` exists iff
//! the tight arcs close a walk that never re-traverses a message it just
//! took ([`step_reverses`]) — a directed-cycle test on the reversal-free
//! line graph of the tight arcs, done by peeling arcs without successors,
//! in scratch each thread keeps from one pass to the next.
//!
//! # Shortcut arcs
//!
//! A pruned monitor's window carries [`ArcKind::Shortcut`] arcs standing
//! for whole families of condensed paths; [`Shortcuts`] tells the cost
//! lines `(f, b)` behind each. The ascent never meets one: it searches batch
//! graphs and windows nothing was pruned from (a monitor that pruned keeps
//! its margin). A tracking monitor's kept labels charge
//! a shortcut arc the cheapest of its lines at the kept margin
//! ([`cheapest_line`]) and remember which, so a cycle's counts and witness
//! come from the paths actually used, and the ratio-one pass takes every
//! line of a shortcut arc as its own parallel arc.

use std::cell::RefCell;

use abc_rational::{BigInt, Ratio};

use crate::check::CheckError;
use crate::cycle::{CycleStep, ShadowEdge};
use crate::negcycle::{self, NegCycle};
use crate::traversal::{Arc, ArcKind, TraversalGraph};

/// Cycle probes run by the engine (one per "is there a cycle above
/// `B₀/F₀`" question), across batch and monitor callers.
static OBS_RATIO_PROBES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.ratio_probes");
/// Ratio-exactly-one passes (tight-arc cycle tests) the engine ran.
static OBS_RATIO_ONE: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.ratio_one_passes");

/// The condensed paths behind the shortcut arcs of a pruned window.
pub(crate) trait Shortcuts {
    /// How many cost lines shortcut `id` carries.
    fn lines(&self, id: usize) -> usize;
    /// Forward and backward message counts `(f, b)` of line `pick`.
    fn line(&self, id: usize, pick: usize) -> (i128, i128);
    /// First and last step of the expansion of line `pick`.
    fn ends(&self, id: usize, pick: usize) -> (Option<CycleStep>, Option<CycleStep>);
}

/// The shortcut table of a window that has none: the windows the ascent
/// searches.
struct NoShortcuts;

impl Shortcuts for NoShortcuts {
    fn lines(&self, _: usize) -> usize {
        unreachable!("the ascent searches windows without shortcut arcs")
    }
    fn line(&self, _: usize, _: usize) -> (i128, i128) {
        unreachable!("the ascent searches windows without shortcut arcs")
    }
    fn ends(&self, _: usize, _: usize) -> (Option<CycleStep>, Option<CycleStep>) {
        unreachable!("the ascent searches windows without shortcut arcs")
    }
}

/// A cycle attaining the maximum ratio `b/f`.
pub(crate) struct Attained {
    /// Backward message steps of the cycle.
    pub b: i128,
    /// Forward message steps of the cycle.
    pub f: i128,
    /// The cycle's arc indices in traversal order. Empty when the ratio is
    /// exactly `1`: the certificate is then a tight closed walk, not one
    /// canonical cycle.
    pub cycle: Vec<usize>,
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

/// The weight of an arc at the probe ratio `p/q`, read off its kind:
/// `p` forward, `−q` backward, `0` local, and for a shortcut arc
/// `shortcut(id)`, the cheapest of its cost lines (`None`: it carries
/// none, and stands for no path).
#[inline]
pub(crate) fn kind_weight(
    kind: ArcKind,
    p: i128,
    q: i128,
    shortcut: impl FnOnce(usize) -> Option<i128>,
) -> Option<i128> {
    match kind {
        ArcKind::Forward(_) => Some(p),
        ArcKind::Backward(_) => Some(-q),
        ArcKind::LocalBack => Some(0),
        ArcKind::Shortcut(id) => shortcut(id),
    }
}

/// The cheapest cost line `p·f − q·b` of shortcut `id`, and which line
/// it is (the first of equals); `None` for a shortcut without lines.
pub(crate) fn cheapest_line<S: Shortcuts + ?Sized>(
    shortcuts: &S,
    id: usize,
    p: i128,
    q: i128,
) -> Option<(i128, usize)> {
    let mut best: Option<(i128, usize)> = None;
    for pick in 0..shortcuts.lines(id) {
        let (f, b) = shortcuts.line(id, pick);
        let cost = p * f - q * b;
        if best.is_none_or(|(w, _)| cost < w) {
            best = Some((cost, pick));
        }
    }
    best
}

/// Forward and backward message counts `(f, b)` of line `pick` of an arc.
pub(crate) fn line<S: Shortcuts + ?Sized>(
    shortcuts: &S,
    kind: ArcKind,
    pick: usize,
) -> (i128, i128) {
    kind.counts().unwrap_or_else(|id| shortcuts.line(id, pick))
}

/// The exact maximum of `B/F` over the cycles of `tg`, at least `1`,
/// together with a cycle attaining it; `Ok(None)` when no cycle gets
/// there. `tg` is a batch graph or a monitor window that nothing was
/// pruned from: it carries no shortcut arc.
///
/// # Errors
///
/// [`CheckError::GraphTooLarge`] when the probe labels could overflow
/// `i128` ([`probe_weights_fit`]); checked before any probe runs.
pub(crate) fn max_cycle_ratio(tg: &TraversalGraph) -> Result<Option<Attained>, CheckError> {
    let Some(mut engine) = Engine::fitted(tg)? else {
        return Ok(None);
    };
    if let Some(best) = engine.ascend() {
        return Ok(Some(best));
    }
    let one = tight_cycle_exists(tg, &NoShortcuts, &engine.labels);
    Ok(one.then(|| Attained {
        b: 1,
        f: 1,
        cycle: Vec::new(),
    }))
}

/// [`max_cycle_ratio`] without its ratio-one pass, for a monitor that
/// starts keeping its margin with events already in its window: the
/// highest cycle above `1` (`None` without one), and in `labels` the
/// final *no*'s potential, one per live node — feasible at that cycle's
/// ratio, or at `1/1`.
///
/// # Errors
///
/// As [`max_cycle_ratio`]; `labels` then holds no potential.
pub(crate) fn ascend_into(
    tg: &TraversalGraph,
    labels: &mut Vec<i128>,
) -> Result<Option<Attained>, CheckError> {
    labels.clear();
    labels.resize(tg.num_live_nodes(), 0);
    let Some(mut engine) = Engine::fitted(tg)? else {
        return Ok(None);
    };
    let best = engine.ascend();
    std::mem::swap(labels, &mut engine.labels);
    Ok(best)
}

/// Whether the batch graph `tg` closes any cycle with `B ≥ F` at all.
pub(crate) fn has_cycle_at_least_one(tg: &TraversalGraph) -> bool {
    // Parts `1/1`: labels stay within the arc count, far inside `i128`.
    let mut engine = Engine::new(tg);
    engine.cycle_above(1, 1).is_some() || tight_cycle_exists(tg, &NoShortcuts, &engine.labels)
}

/// How many cost lines an arc carries: one, or a shortcut's envelope.
fn line_count<S: Shortcuts + ?Sized>(shortcuts: &S, kind: ArcKind) -> usize {
    kind.counts().map_or_else(|id| shortcuts.lines(id), |_| 1)
}

/// The steps line `pick` of an arc begins and ends with.
fn ends<S: Shortcuts + ?Sized>(
    shortcuts: &S,
    arc: Arc,
    pick: usize,
) -> (Option<CycleStep>, Option<CycleStep>) {
    arc.step()
        .map_or_else(|id| shortcuts.ends(id, pick), |s| (Some(s), Some(s)))
}

/// One max-ratio computation: the scratch every probe of it reuses. A
/// probe's weights are read off the arcs' kinds, never stored, so the
/// scratch is a few words per node.
struct Engine<'a> {
    tg: &'a TraversalGraph,
    /// Forward and backward arcs in the arena: no cycle takes more forward
    /// (backward) steps than this.
    f_sum: i128,
    b_sum: i128,
    /// The kernel scratch every probe runs in, and its labels (windowed by
    /// `tg.base()`): feasible after a *no*.
    kernel: NegCycle,
    labels: Vec<i128>,
}

impl<'a> Engine<'a> {
    fn new(tg: &'a TraversalGraph) -> Engine<'a> {
        let (mut f_sum, mut b_sum) = (0i128, 0i128);
        for arc in tg.arcs() {
            let (f, b) = arc
                .kind
                .counts()
                .expect("the ascent searches windows without shortcut arcs");
            f_sum += f;
            b_sum += b;
        }
        Engine {
            tg,
            f_sum,
            b_sum,
            kernel: NegCycle::default(),
            labels: vec![0; tg.num_live_nodes()],
        }
    }

    /// An engine whose probes cannot overflow, or `None` when no arc
    /// takes a message at all (no cycle has a ratio).
    fn fitted(tg: &'a TraversalGraph) -> Result<Option<Self>, CheckError> {
        let engine = Engine::new(tg);
        // Probe parts are a live cycle's own counts, and a cycle takes
        // each arc at most once.
        let part = engine.f_sum.max(engine.b_sum);
        if part == 0 {
            return Ok(None);
        }
        let size = tg.num_live_nodes().max(tg.num_arcs());
        if !probe_weights_fit(part, 1, size) {
            return Err(CheckError::GraphTooLarge);
        }
        Ok(Some(engine))
    }

    /// The ascent from `1/1`: the last cycle a *yes* found, `None` when the
    /// first probe said *no*. The labels are then the final *no*'s.
    fn ascend(&mut self) -> Option<Attained> {
        let (mut b, mut f) = (1, 1);
        let mut best: Option<Attained> = None;
        while let Some(found) = self.cycle_above(b, f) {
            (b, f) = (found.b, found.f);
            best = Some(found);
        }
        best
    }

    /// A cycle with `B·q − p·F ≥ 1` (ratio strictly above `p/q`), if any.
    /// After a `None` the labels are a feasible potential for the probed
    /// weights.
    fn cycle_above(&mut self, p: i128, q: i128) -> Option<Attained> {
        OBS_RATIO_PROBES.add(1);
        let arcs = self.tg.arcs();
        let weight = |ai: usize| kind_weight(arcs[ai].kind, p, q, |_| None);
        negcycle::seed_earliest_feasible(self.tg, &mut self.labels, weight);
        let starts = 0..self.labels.len();
        let run = self
            .kernel
            .run(self.tg, &mut self.labels, starts, weight, None);
        crate::check::record_kernel_run(&run);
        let cycle = run.cycle?;
        let (mut b, mut f) = (0, 0);
        for &ai in &cycle {
            let (lf, lb) = line(&NoShortcuts, arcs[ai].kind, 0);
            (f, b) = (f + lf, b + lb);
        }
        debug_assert!(b * q - p * f >= 1, "closed cycles are negative");
        Some(Attained { b, f, cycle })
    }
}

/// What the ratio-one pass keeps between calls, per thread: a margin of
/// exactly `1` is asked after every swept run at the `[1, 2]` band point,
/// and a tracking monitor asks it of its kept potential at every query
/// and prune that finds its margin at `1`.
#[derive(Default)]
struct TightScratch {
    /// Lines of arc `ai` are numbered `starts[ai]..starts[ai + 1]`.
    starts: Vec<usize>,
    tight: Vec<bool>,
    successors: Vec<usize>,
    dead: Vec<(usize, usize)>,
    in_starts: Vec<usize>,
    in_arcs: Vec<usize>,
}

thread_local! {
    static TIGHT: RefCell<TightScratch> = RefCell::default();
}

/// Whether the arcs that are tight under `labels` — a feasible potential
/// for the weights `f − b`, as a *no* above `1/1` leaves one — close a
/// reversal-free walk (module docs): some relevant cycle has `B = F`.
/// Works line by line: every cost line of a shortcut arc is its own
/// parallel arc of the line graph.
pub(crate) fn tight_cycle_exists<S: Shortcuts + ?Sized>(
    tg: &TraversalGraph,
    shortcuts: &S,
    labels: &[i128],
) -> bool {
    OBS_RATIO_ONE.add(1);
    TIGHT.with(|scratch| tight_cycle_in(tg, shortcuts, labels, &mut scratch.borrow_mut()))
}

fn tight_cycle_in<S: Shortcuts + ?Sized>(
    tg: &TraversalGraph,
    shortcuts: &S,
    labels: &[i128],
    sc: &mut TightScratch,
) -> bool {
    let arcs = tg.arcs();
    let base = tg.base();
    sc.starts.clear();
    let mut total = 0;
    for arc in arcs {
        sc.starts.push(total);
        total += line_count(shortcuts, arc.kind);
    }
    sc.starts.push(total);
    let starts = &sc.starts;
    let lines_of = |ai: usize| starts[ai]..starts[ai + 1];
    sc.tight.clear();
    for arc in arcs {
        let slack = labels[arc.to - base] - labels[arc.from - base];
        for pick in 0..line_count(shortcuts, arc.kind) {
            let (f, b) = line(shortcuts, arc.kind, pick);
            sc.tight.push(f - b == slack);
        }
    }
    let tight = &sc.tight;
    // May line `lc` of arc `ci` follow line `la` of arc `ai`?
    let follows = |(ai, la): (usize, usize), (ci, lc): (usize, usize)| {
        let (_, last) = ends(shortcuts, arcs[ai], la - starts[ai]);
        let (first, _) = ends(shortcuts, arcs[ci], lc - starts[ci]);
        match (last, first) {
            (Some(last), Some(first)) => !step_reverses(&last, &first),
            _ => true,
        }
    };
    // Peel lines no walk can continue from; what survives lies on or
    // leads into a cycle of the line graph.
    sc.successors.clear();
    sc.successors.resize(total, 0);
    sc.dead.clear();
    let mut alive = 0usize;
    for (ai, arc) in arcs.iter().enumerate() {
        for la in lines_of(ai).filter(|&la| tight[la]) {
            let mut cursor = tg.first_out(arc.to);
            while let Some(ci) = cursor {
                cursor = tg.next_out(ci);
                sc.successors[la] += lines_of(ci)
                    .filter(|&lc| tight[lc] && follows((ai, la), (ci, lc)))
                    .count();
            }
            if sc.successors[la] == 0 {
                sc.dead.push((ai, la));
            } else {
                alive += 1;
            }
        }
    }
    if alive == 0 || sc.dead.is_empty() {
        return alive > 0;
    }
    tg.in_csr_into(&mut sc.in_starts, &mut sc.in_arcs);
    while let Some(gone) = sc.dead.pop() {
        let tail = arcs[gone.0].from - base;
        for &ai in &sc.in_arcs[sc.in_starts[tail]..sc.in_starts[tail + 1]] {
            for la in lines_of(ai) {
                if sc.successors[la] > 0 && follows((ai, la), gone) {
                    sc.successors[la] -= 1;
                    if sc.successors[la] == 0 {
                        sc.dead.push((ai, la));
                        alive -= 1;
                    }
                }
            }
        }
    }
    alive > 0
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
