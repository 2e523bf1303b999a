//! Whether a cycle of ratio **exactly one** exists: the one margin question
//! the kept labels (the `margin` module) do not answer alone.
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
//! from one pass to the next. Every cost line of a shortcut arc is its own
//! parallel arc of that line graph.

use std::cell::RefCell;

use crate::traversal::{Arc, TraversalGraph};

use super::margin::{line_ends, step_reverses};
use super::prune::ShortcutTable;

/// Ratio-exactly-one passes (tight-arc cycle tests) run.
static OBS_RATIO_ONE: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.ratio_one_passes");

/// What the pass keeps between calls, per thread: a margin of exactly `1`
/// is asked after every swept run at the `[1, 2]` band point, and a monitor
/// asks it of its kept potential at every query and prune that finds its
/// margin at `1`.
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
pub(super) fn tight_cycle_exists(
    tg: &TraversalGraph,
    shortcuts: &ShortcutTable,
    labels: &[i128],
) -> bool {
    OBS_RATIO_ONE.add(1);
    TIGHT.with(|scratch| tight_cycle_in(tg, shortcuts, labels, &mut scratch.borrow_mut()))
}

/// The counts `(f, b)` of each cost line of `arc`, in line order: a plain
/// arc's one, or a shortcut's envelope.
fn line_counts(shortcuts: &ShortcutTable, arc: Arc) -> impl Iterator<Item = (i128, i128)> + '_ {
    let (own, stored) = match arc.kind.counts() {
        Ok(counts) => (Some(counts), &[][..]),
        Err(id) => (None, shortcuts.sigs(id)),
    };
    own.into_iter().chain(stored.iter().map(|s| (s.f, s.b)))
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
    sc.tight.clear();
    for &arc in arcs {
        sc.starts.push(sc.tight.len());
        let slack = labels[arc.to - base] - labels[arc.from - base];
        sc.tight
            .extend(line_counts(shortcuts, arc).map(|(f, b)| f - b == slack));
    }
    let total = sc.tight.len();
    sc.starts.push(total);
    let (starts, tight) = (&sc.starts, &sc.tight);
    let lines_of = |ai: usize| starts[ai]..starts[ai + 1];
    // May line `lc` of arc `ci` follow line `la` of arc `ai`?
    let follows = |(ai, la): (usize, usize), (ci, lc): (usize, usize)| {
        let (_, last) = line_ends(shortcuts, arcs[ai], la - starts[ai]);
        let (first, _) = line_ends(shortcuts, arcs[ci], lc - starts[ci]);
        !step_reverses(&last, &first)
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
