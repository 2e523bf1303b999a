//! What the kept margin (the monitor's `margin` module) reads beside its
//! labels: the cost lines of an arc, the test that a walk reverses a
//! message on the spot, the guard that keeps the labels inside `i128`
//! ([`kept_labels_fit`]), and the one pass that needs more than the
//! labels — whether a cycle of ratio **exactly one** exists. Every margin in the
//! crate is a kept one: a tracking monitor keeps it as appends come in,
//! and an untracked monitor, a monitor that starts keeping late and the
//! batch [`crate::check::max_relevant_cycle_ratio`] replay the same steps
//! over a finished arena.
//!
//! # Ratio exactly one
//!
//! A kept margin `r = B/F` above `1` is attained by the cycle that last
//! raised it. At `r = 1/1` the kept labels say only "no cycle above `1`":
//! they are a feasible potential `π` for the weights `f − b`, every closed
//! walk costs `≥ 0`, and the walks costing exactly `0` (`B = F`) are the
//! ones made of **tight** arcs (`π(head) = π(tail) + f − b`). A relevant
//! cycle of ratio `1` exists iff the tight arcs close a walk that never
//! re-traverses a message it just took ([`step_reverses`]) — a
//! directed-cycle test on the reversal-free line graph of the tight arcs,
//! done by peeling arcs without successors, in scratch each thread keeps
//! from one pass to the next.
//!
//! # Shortcut arcs
//!
//! A pruned monitor's window carries [`ArcKind::Shortcut`] arcs standing
//! for whole families of condensed paths; the [`ShortcutTable`] tells the
//! cost lines `(f, b)` behind each. The kept labels charge a shortcut arc
//! the cheapest of its lines at the kept margin ([`cheapest_line`]) and
//! remember which, so a cycle's counts and witness come from the paths
//! actually used, and the ratio-one pass takes every line of a shortcut
//! arc as its own parallel arc.

use std::cell::RefCell;

use abc_rational::{BigInt, Ratio};

use crate::cycle::{CycleStep, ShadowEdge};
use crate::monitor::ShortcutTable;
use crate::traversal::{Arc, ArcKind, TraversalGraph};

/// Ratio-exactly-one passes (tight-arc cycle tests) run.
static OBS_RATIO_ONE: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.ratio_one_passes");

/// Do consecutive walk steps `a` then `b` immediately re-traverse one
/// message in opposite directions? Such walks are excluded from cycles,
/// and dropping them loses no optimal path at ratios `≥ 1`: contracting
/// the pair yields a valid walk whose cost is lower by `x − 1 ≥ 0`, and
/// that walk is explored on its own.
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

/// Whether labels kept at ratio `(b, f)` stay inside `i128` on a monitor
/// that has appended `size` events and arcs, shortcut lines standing for at
/// most `mass` message steps. A kept label is a sum of arc weights (at most
/// `part·mass` each, `part = max(b, f)`; a raise rescales the labels along
/// with the weights) over a chain of the assignments that derived it: a
/// simple path per repair, back to the label it was capped from, which an
/// earlier append or repair set — `size` arcs per append, `size²` in all.
/// A raise multiplies a label by the new `F` before it divides: hence
/// `part²`. Asked at every append, so by bit lengths, which add under
/// multiplication (a product of factors below `2^k₁ … 2^kₙ` is below
/// `2^(k₁ + … + kₙ)`), not by `i128` multiplications.
pub(crate) fn kept_labels_fit((b, f): (i128, i128), mass: i128, size: usize) -> bool {
    let bits = |x: u128| 128 - x.leading_zeros();
    let part = bits(b.max(f).unsigned_abs());
    let size = bits(size as u128 + 2);
    2 * part + bits(mass.unsigned_abs()) + 2 * size <= 127
}

/// The cheapest cost line `p·f − q·b` of shortcut `id`, and which line
/// it is (the first of equals); `None` for a shortcut without lines.
pub(crate) fn cheapest_line(
    shortcuts: &ShortcutTable,
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
pub(crate) fn line(shortcuts: &ShortcutTable, kind: ArcKind, pick: usize) -> (i128, i128) {
    kind.counts().unwrap_or_else(|id| shortcuts.line(id, pick))
}

/// How many cost lines an arc carries: one, or a shortcut's envelope.
fn line_count(shortcuts: &ShortcutTable, kind: ArcKind) -> usize {
    kind.counts().map_or_else(|id| shortcuts.lines(id), |_| 1)
}

/// The steps line `pick` of an arc begins and ends with.
fn ends(
    shortcuts: &ShortcutTable,
    arc: Arc,
    pick: usize,
) -> (Option<CycleStep>, Option<CycleStep>) {
    arc.step()
        .map_or_else(|id| shortcuts.ends(id, pick), |s| (Some(s), Some(s)))
}

/// What the ratio-one pass keeps between calls, per thread: a margin of
/// exactly `1` is asked after every swept run at the `[1, 2]` band point,
/// and a monitor asks it of its kept potential at every query and prune
/// that finds its margin at `1`.
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
/// for the weights `f − b`, as kept labels at `1/1` are — close a
/// reversal-free walk (module docs): some relevant cycle has `B = F`.
/// Works line by line: every cost line of a shortcut arc is its own
/// parallel arc of the line graph.
pub(crate) fn tight_cycle_exists(
    tg: &TraversalGraph,
    shortcuts: &ShortcutTable,
    labels: &[i128],
) -> bool {
    OBS_RATIO_ONE.add(1);
    TIGHT.with(|scratch| tight_cycle_in(tg, shortcuts, labels, &mut scratch.borrow_mut()))
}

fn tight_cycle_in(
    tg: &TraversalGraph,
    shortcuts: &ShortcutTable,
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
        // 2·bits(part) + bits(mass) + 2·bits(size + 2) against 127, with
        // size + 2 = 2³⁰ (31 bits): a part of 32 bits fits beside a one-step
        // mass, 33 bits do not, and a 32-bit part leaves room for no heavier
        // mass.
        let size = (1usize << 30) - 2;
        assert!(kept_labels_fit(((1 << 32) - 1, 1), 1, size));
        assert!(!kept_labels_fit((1 << 32, 1), 1, size));
        assert!(kept_labels_fit((1, (1 << 32) - 1), 1, size));
        assert!(kept_labels_fit((1 << 31, 1), 1, size));
        assert!(!kept_labels_fit((1 << 31, 1), 2, size));
        // At ratio 1/1 (a batch ratio, or a monitor that nothing raised) the
        // guard fails only past 2⁶² − 3 events and arcs.
        assert!(kept_labels_fit((1, 1), 1, (1 << 62) - 3));
        assert!(!kept_labels_fit((1, 1), 1, (1 << 62) - 2));
        // Everything a real monitor window or batch graph presents is far
        // inside: a million messages in one graph still fits.
        assert!(kept_labels_fit((1_000_000, 999_999), 1, 3_000_000));
    }
}
