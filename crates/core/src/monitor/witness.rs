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
//! A shortcut arc stands for a whole condensed path and stores it as an
//! [`Expansion`]; every walk the monitor reports and every condensed path
//! a prune stores is assembled by the three operations of that type.

use crate::cycle::{Cycle, CycleStep, WitnessSummary};
use crate::graph::{EventId, LocalEdge, ProcessId};
use crate::traversal::{Arc, ArcKind};

use super::repair::ConfirmCtx;
use super::IncrementalChecker;

/// A path spelled out in steps of the full execution: what a shortcut
/// arc, a frontier-row path or a margin signature stands for, and what a
/// witness walk is assembled in.
#[derive(Clone, Debug, Default)]
pub(super) struct Expansion {
    /// The steps, in traversal order (tail → head).
    pub(super) steps: Vec<CycleStep>,
    /// Processes of the *interior* vertices — the start of every step but
    /// the first: `procs.len() == steps.len() - 1`.
    pub(super) procs: Vec<ProcessId>,
}

impl Expansion {
    fn meet(&mut self, joint: ProcessId) {
        if !self.steps.is_empty() {
            self.procs.push(joint);
        }
    }

    /// `self · tail`, meeting at an event of process `joint`. An empty
    /// `self` has no vertex to meet at: the result starts where `tail`
    /// does, and its start stays excluded from the interior.
    pub(super) fn extend(&mut self, joint: ProcessId, tail: &Expansion) {
        self.meet(joint);
        self.steps.extend_from_slice(&tail.steps);
        self.procs.extend_from_slice(&tail.procs);
    }

    /// `self · arc` for a live arc whose tail event belongs to `joint`: a
    /// plain arc adds its one step, a shortcut arc the condensed path
    /// `shortcut` finds behind its table id.
    pub(super) fn push_arc<'a>(
        &mut self,
        joint: ProcessId,
        kind: ArcKind,
        shortcut: impl FnOnce(usize) -> &'a Expansion,
    ) {
        match kind.step() {
            Ok(step) => {
                self.meet(joint);
                self.steps.push(step);
            }
            Err(id) => self.extend(joint, shortcut(id)),
        }
    }

    /// `step · self`, meeting at an event of process `joint`.
    pub(super) fn prefixed(&self, step: CycleStep, joint: ProcessId) -> Expansion {
        let mut path = Expansion {
            steps: vec![step],
            procs: Vec::new(),
        };
        path.extend(joint, self);
        path
    }

    /// Closes the walk — it starts, and ends, at an event of process
    /// `start` — into a cycle and its summary, from the live window alone
    /// (exactly what [`Cycle::summarize`] reads off the graph).
    pub(super) fn into_witness(self, start: ProcessId) -> (Cycle, WitnessSummary) {
        let cycle = Cycle::new(self.steps);
        let summary = WitnessSummary::from_walk(&cycle, std::iter::once(start).chain(self.procs));
        (cycle, summary)
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
        let lex_path = |id: usize| &self.shortcuts[id].path;
        let (u_proc, v_proc) = (self.proc_of[ctx.u - base], self.proc_of[ctx.v - base]);
        let local = LocalEdge {
            from: EventId(ctx.prev_global),
            to: EventId(ctx.v),
        };
        let mut walk = Expansion::default();
        walk.push_arc(u_proc, ArcKind::Forward(ctx.mid), lex_path);
        walk.push_arc(v_proc, ArcKind::LocalBack(local), lex_path);
        if let Some(row) = &ctx.seeds {
            // `prev` belongs to `v`'s process; then the condensed interior.
            walk.extend(v_proc, &row.outs[seed].info.path);
        }
        for &ai in path {
            let arc = arcs[ai];
            walk.push_arc(self.proc_of[arc.from - base], arc.kind, lex_path);
        }
        walk.into_witness(u_proc)
    }

    /// Expands a non-empty probe cycle (picks of arena `arcs` + chosen
    /// signature, traversal order) into a witness summary, shortcut arcs
    /// spliced from the chosen signature. `arcs` is the window's arena, or
    /// the one a deferring monitor built for a query.
    pub(super) fn expand_window_cycle(
        &self,
        arcs: &[Arc],
        picks: &[(usize, usize)],
    ) -> WitnessSummary {
        let base = self.tg.base();
        let proc_of_tail = |ai: usize| self.proc_of[arcs[ai].from - base];
        let mut walk = Expansion::default();
        for &(ai, si) in picks {
            walk.push_arc(proc_of_tail(ai), arcs[ai].kind, |id| {
                &self.shortcuts[id].sigs[si].path
            });
        }
        walk.into_witness(proc_of_tail(picks[0].0)).1
    }
}
