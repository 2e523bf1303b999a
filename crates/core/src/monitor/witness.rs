//! Witness expansion: from arcs of the live window back to steps of the
//! full execution.
//!
//! # Canonical witnesses
//!
//! When a violation is confirmed, every *new* violating cycle necessarily
//! passes through the event `v` whose append created it (all new arcs are
//! incident to `v`), and — because the pre-append graph was feasible — has
//! the canonical shape *forward arc `u → v`, local back-arc `v → prev`,
//! then a pre-existing path `prev ⇝ u`*. The monitor therefore extracts
//! its witness as the most-violating such cycle via one single-source
//! shortest-path pass over the pre-append arcs. This makes the witness a
//! pure function of the live traversal graph — independent of relaxation
//! order, queue state, *and of how much settled prefix has been pruned*,
//! which is what keeps pruned and unpruned monitors byte-identical.
//!
//! A shortcut arc stands for a whole condensed path, which the shortcut
//! table keeps as a run of [`Step`]s in one pool (see the `prune` module);
//! a witness walk is assembled from the same steps. Every step carries the
//! process of the event it starts at, so two paths that meet at an event
//! join by concatenation, and a walk's steps alone give its summary.

use crate::cycle::{Cycle, CycleStep, ShadowEdge, WitnessSummary};
use crate::graph::{EventId, LocalEdge, ProcessId};
use crate::traversal::Arc;

use super::prune::ShortcutTable;
use super::repair::ConfirmCtx;
use super::IncrementalChecker;

/// One step of a path spelled out in steps of the full execution: what a
/// shortcut arc, a frontier-row path or a margin signature stands for, and
/// what a witness walk is assembled in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Step {
    pub(super) step: CycleStep,
    /// The process of the event the step starts at.
    pub(super) proc: ProcessId,
}

/// Where one non-empty path's steps sit in the shortcut table's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct PathRef {
    pub(super) start: u32,
    pub(super) end: u32,
}

/// One part of a [`Spelling`]: a plain arc's one step, or a path in the
/// pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Part {
    Step(Step),
    Path(PathRef),
}

/// A path a prune composes, not yet spelled out: `head`, then `tail` (the
/// two meet at the event `tail` starts at). Equal spellings spell equal
/// paths, so a signature whose spelling is its shortcut's shares its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Spelling {
    pub(super) head: Part,
    pub(super) tail: Option<PathRef>,
}

impl Spelling {
    /// A path already in the pool.
    pub(super) fn stored(path: PathRef) -> Spelling {
        Spelling {
            head: Part::Path(path),
            tail: None,
        }
    }
}

/// Closes a walk that returns to the event it starts at into a cycle and
/// its summary, from the live window alone (exactly what
/// [`Cycle::summarize`] reads off the graph).
fn into_witness(walk: &[Step]) -> (Cycle, WitnessSummary) {
    let cycle = Cycle::new(walk.iter().map(|s| s.step).collect());
    let summary = WitnessSummary::from_walk(&cycle, walk.iter().map(|s| s.proc));
    (cycle, summary)
}

/// `walk · arc` for a live arc whose tail event belongs to `proc`: a plain
/// arc adds its one step, a shortcut arc the path `table` keeps for it
/// (its lex path, or the path of its line `pick`).
fn push_arc(
    walk: &mut Vec<Step>,
    table: &ShortcutTable,
    proc: ProcessId,
    arc: Arc,
    pick: Option<usize>,
) {
    match table.arc_part(proc, arc, pick) {
        Part::Step(step) => walk.push(step),
        Part::Path(path) => walk.extend_from_slice(table.path(path)),
    }
}

impl IncrementalChecker {
    /// The canonical violating cycle of the append `ctx`: forward arc
    /// `u → v`, local back-arc `v → prev`, then `prev ⇝ u` — the condensed
    /// path of row-out `seed` when `prev` was compacted, then the live arcs
    /// `path`, shortcut arcs spliced from their lex-optimal expansion.
    pub(super) fn canonical_witness(
        &self,
        ctx: &ConfirmCtx,
        seed: usize,
        path: &[usize],
    ) -> (Cycle, WitnessSummary) {
        let base = self.tg.base();
        let arcs = self.tg.arcs();
        let table = &self.shortcuts;
        let (u_proc, v_proc) = (self.proc_of[ctx.u - base], self.proc_of[ctx.v - base]);
        let local = LocalEdge {
            from: EventId(ctx.prev_global),
            to: EventId(ctx.v),
        };
        let step = |edge, against, proc| Step {
            step: CycleStep { edge, against },
            proc,
        };
        let mut walk = vec![
            step(ShadowEdge::Message(ctx.mid), false, u_proc),
            step(ShadowEdge::Local(local), true, v_proc),
        ];
        if let Some(row) = &ctx.seeds {
            // The condensed interior, from `prev` on.
            walk.extend_from_slice(table.path(row.outs[seed].info.path));
        }
        for &ai in path {
            let arc = arcs[ai];
            push_arc(&mut walk, table, self.proc_of[arc.from - base], arc, None);
        }
        into_witness(&walk)
    }

    /// Expands a non-empty kept-margin cycle (picks of arena `arcs` + chosen
    /// signature, traversal order) into a witness summary, shortcut arcs
    /// spliced from the chosen signature. `arcs` is the window's arena, or
    /// the one a deferring monitor built for a query, with a replayed cycle.
    pub(super) fn expand_window_cycle(
        &self,
        arcs: &[Arc],
        picks: &[(usize, usize)],
    ) -> WitnessSummary {
        let base = self.tg.base();
        let mut walk = Vec::new();
        for &(ai, si) in picks {
            let proc = self.proc_of[arcs[ai].from - base];
            push_arc(&mut walk, &self.shortcuts, proc, arcs[ai], Some(si));
        }
        into_witness(&walk).1
    }
}
