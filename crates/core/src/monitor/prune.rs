//! Bounded memory: compacting the settled prefix after condensing its
//! boundary.
//!
//! # Settled-prefix pruning
//!
//! A long-lived monitor (an `abc-service` session, a days-long simulation)
//! must not hold every event forever. Violation evidence in the ABC model
//! is local: a new violating cycle always runs through the event just
//! appended, and the only ways it can reach back into an old prefix
//! `[0, W)` are the *boundary arcs* that cross `W` — so once the caller
//! promises that no **future** `append_send` will name a send event below
//! `W` (the `oldest_inflight_send` watermark; only the application knows
//! its in-flight messages), the prefix is *settled*: its internal arcs are
//! frozen forever, and [`IncrementalChecker::prune_settled`] compacts it
//! away after **condensing** its boundary:
//!
//! * every (entry arc, exit arc) pair crossing the cut is replaced by one
//!   **shortcut arc** between their live endpoints, weighted by the exact
//!   shortest path through the settled region (plus the crossing arcs) and
//!   carrying its step-by-step expansion so witnesses can be reproduced
//!   byte-for-byte;
//! * every process whose newest event falls below the cut leaves behind a
//!   **frontier row**: its frozen potential plus the condensed shortest
//!   paths from that event to each exit, materialized as shortcut arcs by
//!   the process's next receive (whose local edge is the one future arc
//!   that may still point into the region).
//!
//! Because the settled region's arcs can never change, those condensations
//! are exact for all time: a negative cycle exists in the compacted graph
//! iff one exists in the full graph, the canonical confirmation finds the
//! same most-violating cycle with the same total weight, and expanding the
//! shortcuts reproduces the identical witness. Memory becomes
//! `O(processes + active window + in-flight messages + boundary
//! condensation)` instead of `O(all events)` — the condensation term is
//! the pairwise shortcuts of the (few) arcs crossing each cut, plus their
//! stored expansions.
//!
//! # One merge rule
//!
//! `condense_boundary` classifies the arena against the cut ([`Cut`]),
//! grows one shortest-path tree per landing point inside the prefix,
//! composes entry × exit shortcuts and frontier rows from those trees,
//! and remaps the shortcut table. Wherever several composed paths end on
//! the same live endpoint, `Candidate::absorb` decides: the lex-min path
//! keeps the slot, every path's margin signatures join its envelope.
//!
//! What a cut computes it computes once. The internal arcs are indexed
//! into **flat columns** per cut (`LexArcs`: ends and lex weight by rank,
//! one CSR by tail whose entries carry what a scan reads — rank, head and
//! the arc's cost lines), which every landing's lex pass and envelope pass
//! read; the lex pass visits only the arcs whose tail moved (the `repair`
//! module has the argument). A landing's envelope pass is **warm-started
//! from its lex tree**: that tree is the parametric tree at `x = Ξ`, its
//! arcs give every reached event a genuine path line to start on, and from
//! any start made of genuine path lines the worklist ends in the envelope
//! of all paths (the `margin` module has the argument, and the one
//! junction rule that reads which path holds a line). The composite
//! `landing ⇝ exit` — the walk up the predecessor chain, its path, its
//! envelope — is spelled **once per (landing, exit)**, in `landing_trees`;
//! every entry arc and row that lands there composes with it by
//! reference.
//!
//! A composed path is not spelled until it is kept. A candidate is its
//! lex weight, a [`Spelling`] (at most two stored paths, or a step and a
//! path) and its signatures' counts; the candidates for one slot — a live
//! endpoint pair, or a row's head, indexed densely — are merged, and only
//! the slot's winner and the signatures that survive its envelope are
//! spelled, into the one step pool of the [`ShortcutTable`]. A signature
//! spelled like its shortcut shares the shortcut's path. The pool and the
//! table's signature column only grow during a prune; `install` copies
//! what is still referenced into spare columns and swaps them in, and the
//! merge rule's columns are the table's too, so once the columns have
//! grown, a prune allocates a few buffers per cut and nothing per path.

use std::ops::Index;

use crate::cycle::{CycleStep, ShadowEdge};
use crate::graph::{EventId, LocalEdge, ProcessId};
use crate::negcycle::Label;
use crate::traversal::{Arc, ArcKind};

use super::margin::{arc_sigs, margin_envelope, ArcLines, EnvelopeScratch, MarginSig, Sig};
use super::repair::{LexArcs, LexScratch};
use super::witness::{Part, PathRef, Spelling, Step};
use super::{narrow, weight_of, IncrementalChecker, Weight};

static OBS_PRUNED_EVENTS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.pruned_events");
static OBS_PRUNED_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.pruned_arcs");
// What the lex passes of tracked prunes did, summed over landings: arc
// visits and relaxations (`crates/bench/tests/prune_lex_work.rs` bounds
// the first by the second).
static OBS_LEX_SCANS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_lex_scans");
static OBS_LEX_RELAXATIONS: abc_obs::CounterDef =
    abc_obs::CounterDef::new("monitor.prune_lex_relaxations");

/// A condensed boundary path of a pruned prefix: the exact lexicographic
/// weight of the shortest settled-region path it stands for, where its
/// steps sit in the [`ShortcutTable`]'s pool (to reproduce witnesses
/// byte-for-byte), and its margin signatures' run in the table.
#[derive(Clone, Copy, Debug)]
pub(super) struct ShortcutInfo {
    pub(super) weight: Weight,
    pub(super) path: PathRef,
    /// Margin-signature envelope of *all* condensed paths behind it.
    sigs: SigRun,
}

/// Where one [`ShortcutInfo`]'s signatures sit in the table.
#[derive(Clone, Copy, Debug)]
struct SigRun {
    start: u32,
    end: u32,
}

/// The condensed paths of the arena's [`ArcKind::Shortcut`] arcs (by table
/// id) and of the frontier rows, in flat columns: every signature in one
/// run per path, every path's steps in one run of a shared pool. A prune
/// appends what it composes; [`ShortcutTable::compact`] keeps what is
/// still referenced.
#[derive(Clone, Debug, Default)]
pub(super) struct ShortcutTable {
    infos: Vec<ShortcutInfo>,
    sigs: Vec<MarginSig>,
    steps: Vec<Step>,
    /// What `compact` copies into and swaps in, kept for its capacity.
    spare_sigs: Vec<MarginSig>,
    spare_steps: Vec<Step>,
    /// The merge rule's columns while a prune composes into the table,
    /// kept for their capacity.
    merge: Merge,
}

impl Index<usize> for ShortcutTable {
    type Output = ShortcutInfo;

    fn index(&self, id: usize) -> &ShortcutInfo {
        &self.infos[id]
    }
}

impl ShortcutTable {
    pub(super) fn len(&self) -> usize {
        self.infos.len()
    }

    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    pub(super) fn push(&mut self, info: ShortcutInfo) -> usize {
        self.infos.push(info);
        self.infos.len() - 1
    }

    /// Forgets every shortcut and path, keeping every column's capacity.
    pub(super) fn clear(&mut self) {
        self.infos.clear();
        self.sigs.clear();
        self.steps.clear();
    }

    /// What a reset keeps (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        self.infos.capacity()
            + self.sigs.capacity()
            + self.steps.capacity()
            + self.spare_sigs.capacity()
            + self.spare_steps.capacity()
            + self.merge.capacity()
    }

    /// The steps of a path.
    pub(super) fn path(&self, path: PathRef) -> &[Step] {
        &self.steps[path.start as usize..path.end as usize]
    }

    /// The signatures of `info`.
    pub(super) fn sigs_of(&self, info: &ShortcutInfo) -> &[MarginSig] {
        &self.sigs[info.sigs.start as usize..info.sigs.end as usize]
    }

    /// The signatures of shortcut `id`.
    pub(super) fn sigs(&self, id: usize) -> &[MarginSig] {
        self.sigs_of(&self.infos[id])
    }

    /// The path of shortcut `id`: its lex path, or that of its line `pick`.
    pub(super) fn arc_path(&self, id: usize, pick: Option<usize>) -> PathRef {
        pick.map_or(self.infos[id].path, |pick| self.sigs(id)[pick].path)
    }

    /// The first and the last step of a path.
    pub(super) fn path_ends(&self, path: PathRef) -> (Step, Step) {
        let steps = self.path(path);
        (steps[0], steps[steps.len() - 1])
    }

    /// Appends a stored path to the path being spelled.
    pub(super) fn push_path(&mut self, path: PathRef) {
        self.steps
            .extend_from_within(path.start as usize..path.end as usize);
    }

    /// What live arc `arc`, whose tail event belongs to `proc`, stands
    /// for: its step, or the shortcut's path (see
    /// [`ShortcutTable::arc_path`]).
    pub(super) fn arc_part(&self, proc: ProcessId, arc: Arc, pick: Option<usize>) -> Part {
        match arc.step() {
            Ok(step) => Part::Step(Step { step, proc }),
            Err(id) => Part::Path(self.arc_path(id, pick)),
        }
    }

    /// Appends `part` to the path being spelled.
    pub(super) fn push_part(&mut self, part: Part) {
        match part {
            Part::Step(step) => self.steps.push(step),
            Part::Path(path) => self.push_path(path),
        }
    }

    /// Where the next spelled path starts.
    pub(super) fn open(&self) -> usize {
        self.steps.len()
    }

    /// The path spelled since `start`; one equal to `share`'s steps is
    /// dropped again, and `share` is returned for it.
    pub(super) fn close(&mut self, start: usize, share: Option<PathRef>) -> PathRef {
        let path = PathRef {
            start: narrow(start),
            end: narrow(self.steps.len()),
        };
        debug_assert!(path.start < path.end, "no condensed path is empty");
        match share {
            Some(other) if self.path(other) == self.path(path) => {
                self.steps.truncate(start);
                other
            }
            _ => path,
        }
    }

    /// The path `spelling` stands for: a stored path as it is, anything
    /// else spelled out at the end of the pool.
    pub(super) fn spell(&mut self, spelling: Spelling) -> PathRef {
        if let Spelling {
            head: Part::Path(path),
            tail: None,
        } = spelling
        {
            return path;
        }
        let start = self.open();
        self.push_part(spelling.head);
        if let Some(tail) = spelling.tail {
            self.push_path(tail);
        }
        self.close(start, None)
    }

    /// Appends `sigs` as the signature run of a path of lex weight
    /// `weight` stored at `path`.
    pub(super) fn info(
        &mut self,
        weight: Weight,
        path: PathRef,
        sigs: impl IntoIterator<Item = MarginSig>,
    ) -> ShortcutInfo {
        let start = narrow(self.sigs.len());
        self.sigs.extend(sigs);
        ShortcutInfo {
            weight,
            path,
            sigs: SigRun {
                start,
                end: narrow(self.sigs.len()),
            },
        }
    }

    /// Keeps the paths and signatures the table's shortcuts and `rows`
    /// reference, and nothing else: copies them into the spare columns,
    /// a signature that shares its shortcut's path sharing it still, and
    /// swaps the columns.
    fn compact(&mut self, rows: &mut [Option<FrontierRow>]) {
        let ShortcutTable {
            infos,
            sigs,
            steps,
            spare_sigs,
            spare_steps,
            merge: _,
        } = self;
        spare_sigs.clear();
        spare_steps.clear();
        let copy = |path: PathRef, into: &mut Vec<Step>| {
            let start = narrow(into.len());
            into.extend_from_slice(&steps[path.start as usize..path.end as usize]);
            PathRef {
                start,
                end: narrow(into.len()),
            }
        };
        let outs = rows.iter_mut().flatten().flat_map(|row| &mut row.outs);
        for info in infos.iter_mut().chain(outs.map(|out| &mut out.info)) {
            let path = copy(info.path, spare_steps);
            let start = narrow(spare_sigs.len());
            for sig in &sigs[info.sigs.start as usize..info.sigs.end as usize] {
                let moved = if sig.path == info.path {
                    path
                } else {
                    copy(sig.path, spare_steps)
                };
                spare_sigs.push(MarginSig {
                    path: moved,
                    ..*sig
                });
            }
            info.path = path;
            info.sigs = SigRun {
                start,
                end: narrow(spare_sigs.len()),
            };
        }
        // The columns swap roles every prune: the one that comes in as
        // the pool grows to the capacity of the one that goes out, so a
        // second equal document finds room in either.
        spare_sigs.reserve_exact(sigs.capacity() - spare_sigs.len());
        spare_steps.reserve_exact(steps.capacity() - spare_steps.len());
        std::mem::swap(sigs, spare_sigs);
        std::mem::swap(steps, spare_steps);
    }
}

/// One condensed path out of a pruned frontier event: `prev ⇝ head`,
/// ending on the live event `head` (global id).
#[derive(Clone, Debug)]
pub(super) struct RowOut {
    pub(super) head: usize,
    pub(super) info: ShortcutInfo,
}

/// What a pruned per-process frontier leaves behind: the frozen potential
/// of the process's newest (compacted) event, and the condensed paths from
/// it to every live exit. Read exactly once, by the process's next append,
/// which materializes the paths as shortcut arcs hanging off the new
/// receive's local edge.
#[derive(Clone, Debug)]
pub(super) struct FrontierRow {
    pub(super) label: Weight,
    pub(super) outs: Vec<RowOut>,
}

/// The live arena classified against a cut `w`, ahead of `compact_below(w)`.
pub(super) struct Cut {
    pub(super) base: usize,
    pub(super) w: usize,
    entries: Vec<usize>,
    pub(super) exits: Vec<usize>,
    /// The internal arcs (both ends below the cut), indexed for every
    /// landing's lex and envelope pass in the monitor's columns, lent to
    /// the cut; not refilled without exits, when no pass runs.
    pub(super) lex: LexArcs,
    /// Prefix events that need a shortest-path tree: entry-arc heads,
    /// freshly pruned frontiers, stale row heads (none without exits).
    pub(super) landings: Vec<usize>,
    /// Each prefix event's index into `landings` (windowed by `base`).
    landing_idx: Vec<Option<usize>>,
    /// The kept margin (`1/1` while there is none above it): signature
    /// envelopes range over the probe ratios at or above it.
    pub(super) floor: (i128, i128),
}

/// What each landing reaches inside the prefix: at `landing · exits +
/// exit`, the composite `landing ⇝ head(exit)` going shortest-path inside
/// the prefix then out through the exit arc, with the signature envelope
/// of *all* such paths; `None` when the exit is out of the landing's
/// reach. Spelled once per pair, whoever composes with it.
type Trees = Vec<Option<ShortcutInfo>>;

/// A candidate for a slot: its lex weight, how its path is put together,
/// its signatures (a run of [`Merge::sigs`]), whether merging it re-cuts
/// the slot's envelope, and the slot's next candidate.
#[derive(Clone, Debug)]
struct Candidate {
    weight: Weight,
    path: Spelling,
    sigs: (usize, usize),
    recut: bool,
    next: Option<usize>,
}

/// The one merge rule of a prune, for candidates ending on the same live
/// endpoints (a *slot*): the lex-min path keeps the slot (the first on
/// ties), and every candidate's signatures merge into the slot's envelope
/// — a probe below `Ξ` may prefer a path that loses at `Ξ`. Candidates are
/// offered in prune order and settled once all are in; only then is a
/// path spelled. Its columns are the table's, lent out while a prune
/// composes (taken by [`Merge::lend`]), so a prune of a size seen before
/// grows none of them.
#[derive(Clone, Debug, Default)]
struct Merge {
    candidates: Vec<Candidate>,
    sigs: Vec<Sig>,
    /// Per slot, its first and its last candidate.
    slots: Vec<(usize, usize)>,
    /// The envelope being merged, and its signatures spelled, while a slot
    /// settles.
    merging: Vec<Sig>,
    spelled: Vec<MarginSig>,
}

impl Merge {
    /// The table's merge columns, emptied, for the caller to hand back.
    fn lend(table: &mut ShortcutTable) -> Merge {
        let mut merge = std::mem::take(&mut table.merge);
        merge.clear();
        merge
    }

    /// Forgets every candidate and slot, keeping every column's capacity.
    fn clear(&mut self) {
        // Exhaustive on purpose: a new column is cleared or does not compile.
        let Merge {
            candidates,
            sigs,
            slots,
            merging,
            spelled,
        } = self;
        candidates.clear();
        sigs.clear();
        slots.clear();
        merging.clear();
        spelled.clear();
    }

    fn capacity(&self) -> usize {
        self.candidates.capacity()
            + self.sigs.capacity()
            + self.slots.capacity()
            + self.merging.capacity()
            + self.spelled.capacity()
    }

    /// Offers a candidate to slot `slot` (opened if `slot` is the next
    /// one). `recut`: whether the candidate's signatures are recut at the
    /// floor even if it stays alone in its slot (a stored path that a later
    /// candidate never joins keeps its signatures as they were).
    fn offer(
        &mut self,
        slot: usize,
        weight: Weight,
        path: Spelling,
        sigs: impl IntoIterator<Item = Sig>,
        recut: bool,
    ) {
        let start = self.sigs.len();
        self.sigs.extend(sigs);
        let id = self.candidates.len();
        self.candidates.push(Candidate {
            weight,
            path,
            sigs: (start, self.sigs.len()),
            recut,
            next: None,
        });
        if slot == self.slots.len() {
            self.slots.push((id, id));
        } else {
            let last = &mut self.slots[slot].1;
            self.candidates[*last].next = Some(id);
            *last = id;
        }
    }

    /// Settles slot `slot` into `table`: spells its winner's path and the
    /// signatures of its envelope.
    fn settle(
        &mut self,
        slot: usize,
        table: &mut ShortcutTable,
        floor: (i128, i128),
    ) -> ShortcutInfo {
        let (first, _) = self.slots[slot];
        let mut best = first;
        self.merging.clear();
        let mut recut = self.candidates[first].recut;
        let mut at = Some(first);
        while let Some(id) = at {
            let c = &self.candidates[id];
            if c.weight < self.candidates[best].weight {
                best = id;
            }
            let sigs = &self.sigs[c.sigs.0..c.sigs.1];
            recut |= id != first && !sigs.is_empty();
            self.merging.extend_from_slice(sigs);
            at = c.next;
        }
        if recut {
            margin_envelope(&mut self.merging, floor);
        }
        let winner = &self.candidates[best];
        let path = table.spell(winner.path);
        self.spelled.clear();
        for sig in &self.merging {
            let sig_path = if sig.path == winner.path {
                path
            } else {
                table.spell(sig.path)
            };
            self.spelled.push(MarginSig {
                f: sig.f,
                b: sig.b,
                path: sig_path,
            });
        }
        table.info(winner.weight, path, self.spelled.drain(..))
    }
}

/// The shortcut between one pair of live endpoints after this prune.
struct Slot {
    from: usize,
    to: usize,
    /// Old table id of the surviving shortcut arc the slot continues in
    /// place; `None` for a pair that gets a new arc.
    survivor: Option<usize>,
    info: ShortcutInfo,
}

/// No index yet.
const NONE: usize = usize::MAX;

impl IncrementalChecker {
    /// Compacts the settled prefix `[base, W)` of the monitored execution,
    /// freeing its events, arcs, potentials and bookkeeping. The cut `W` is
    /// the caller's watermark: `oldest_inflight_send` promises that **no
    /// future [`append_send`](IncrementalChecker::append_send) names a send
    /// event below it** (`None` = no old event will ever be named again —
    /// the stream is effectively over). A later append below the watermark
    /// panics — that promise is the *only* condition; in-flight messages
    /// whose send event falls below the cut are handled by the boundary
    /// condensation (see the module docs), not forbidden.
    ///
    /// Verdicts, violation latch points, and witnesses are **byte-identical**
    /// with and without pruning, at any call cadence, and so is the margin:
    /// every prune keeps it. A monitor that was not keeping its margin
    /// ([`IncrementalChecker::enable_margin_tracking`]) starts at its first
    /// prune, by a replay of its window, which is then still the whole
    /// execution: from then on it keeps what a monitor that kept its margin
    /// from its first append keeps. Returns the number of events compacted
    /// by this call — `0`, with the window left intact, when there is no
    /// exact margin to condense with because the kept labels are beyond
    /// their integer range ([`IncrementalChecker::current_margin`] is then
    /// [`crate::check::CheckError::GraphTooLarge`]).
    pub fn prune_settled(&mut self, oldest_inflight_send: Option<EventId>) -> usize {
        let _span = abc_obs::span("monitor.prune");
        let total = self.total_events();
        let base = self.tg.base();
        let w = oldest_inflight_send.map_or(total, |e| e.0.min(total));
        if w <= base {
            return 0;
        }
        if !self.keeps_margin() {
            // The first prune of a monitor that did not keep its margin from
            // its first append: the window is still the whole execution, so
            // a replay seeds the kept column, which is kept from here on.
            self.seed_kept_margin();
        }
        if self.violation.is_none() {
            // The kept margin is the floor the boundary signature
            // envelopes range above, which keeps them finite and exact;
            // what the prefix holds of it (the witness's arcs, a cycle of
            // ratio exactly 1) is folded *before* the prefix is condensed.
            // Without an exact margin there is no exact condensation, so
            // the prune is declined.
            if !self.fold_margin() {
                return 0;
            }
            // Replace every path through the condemned prefix with an exact
            // live-to-live shortcut before the arcs disappear. Once the
            // verdict is latched no future confirmation ever walks the
            // arcs, so a latched monitor compacts without condensing.
            self.condense_boundary(w);
        }
        let dropped = w - base;
        let (nodes, arcs) = self.tg.compact_below(w);
        debug_assert_eq!(nodes, dropped);
        self.proc_of.drain(..dropped);
        self.pot.drain(..dropped);
        self.kept.pot.drain(..dropped);
        self.stats.pruned_events += nodes;
        self.stats.pruned_arcs += arcs;
        OBS_PRUNED_EVENTS.add(nodes as u64);
        OBS_PRUNED_ARCS.add(arcs as u64);
        nodes
    }

    /// Hangs a consumed frontier row off `recv`, the next receive of its
    /// process: each condensed `prev ⇝ exit` path, prefixed with the local
    /// edge `recv → prev`, becomes a shortcut arc out of `recv`, so the
    /// settled region stays exactly reachable.
    pub(super) fn materialize_row(&mut self, row: &FrontierRow, prev: usize, recv: usize) {
        // `prev` belongs to the receiving process.
        let proc = self.proc_of[recv - self.tg.base()];
        let local = LocalEdge {
            from: EventId(prev),
            to: EventId(recv),
        };
        let step = Step {
            step: CycleStep {
                edge: ShadowEdge::Local(local),
                against: true,
            },
            proc,
        };
        let weight = self.arc_weight(ArcKind::LocalBack);
        // Every signature path gets the same local-edge prefix; a local
        // step carries no message, so `f`/`b` are unchanged.
        let prefixed = |path| Spelling {
            head: Part::Step(step),
            tail: Some(path),
        };
        let mut sigs = Vec::new();
        for out in &row.outs {
            let table = &mut self.shortcuts;
            let path = table.spell(prefixed(out.info.path));
            for k in 0..table.sigs_of(&out.info).len() {
                let sig = table.sigs_of(&out.info)[k];
                let sig_path = if sig.path == out.info.path {
                    path
                } else {
                    table.spell(prefixed(sig.path))
                };
                sigs.push(MarginSig {
                    path: sig_path,
                    ..sig
                });
            }
            let info = table.info(out.info.weight.plus(weight), path, sigs.drain(..));
            let id = table.push(info);
            self.push_arc(recv, out.head, ArcKind::Shortcut(id));
        }
    }

    /// Condenses the boundary of the to-be-pruned prefix `[base, w)`,
    /// ahead of `compact_below(w)` (module docs): crossing paths become
    /// shortcut arcs, pruned frontiers become [`FrontierRow`]s, and stale
    /// rows (frozen at an earlier prune) whose heads now fall below the cut
    /// are recomposed through the new prefix.
    ///
    /// The prefix's internal arcs can never change after the cut (future
    /// message arcs attach at or above the watermark, future local arcs
    /// attach to frontier rows), so these condensations stay exact forever.
    fn condense_boundary(&mut self, w: usize) {
        let lex_arcs = std::mem::take(&mut self.cut_arcs);
        let cut = self.classify_cut(w, lex_arcs);
        // Lent to the prune's passes, then back for the next one.
        let mut table = std::mem::take(&mut self.shortcuts);
        let mut lex = std::mem::take(&mut self.lex);
        let mut envelopes = std::mem::take(&mut self.envelopes);
        let trees = self.landing_trees(&cut, &mut table, &mut lex, &mut envelopes);
        self.lex = lex;
        self.envelopes = envelopes;
        let slots = self.entry_exit_shortcuts(&cut, &trees, &mut table);
        let rows = self.frontier_rows(&cut, &trees, &mut table);
        self.shortcuts = table;
        self.install(w, slots, rows);
        self.cut_arcs = cut.lex;
    }

    /// Classifies the arena against the cut, indexes the internal arcs into
    /// `lex` and finds the landing points.
    pub(super) fn classify_cut(&self, w: usize, lex: LexArcs) -> Cut {
        let base = self.tg.base();
        let mut cut = Cut {
            base,
            w,
            entries: Vec::new(),
            exits: Vec::new(),
            lex,
            landings: Vec::new(),
            landing_idx: vec![None; w - base],
            floor: self.kept.ratio,
        };
        let arcs = self.tg.arcs();
        for (ai, a) in arcs.iter().enumerate() {
            match (a.from < w, a.to < w) {
                (false, true) => cut.entries.push(ai),
                (true, false) => cut.exits.push(ai),
                _ => {}
            }
        }
        if cut.exits.is_empty() {
            return cut;
        }
        let internal = arcs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.from < w && a.to < w);
        let indexed = internal.map(|(ai, &a)| (ai, a, self.arc_weight(a.kind)));
        cut.lex.index(w - base, base, indexed, ArcLines::of);
        let mut heads: Vec<usize> = Vec::new();
        heads.extend(cut.entries.iter().map(|&ai| arcs[ai].to));
        for p in 0..self.num_processes {
            match (self.last_event[p], &self.frontier_row[p]) {
                (Some(le), _) if le >= base && le < w => heads.push(le),
                (Some(le), Some(row)) if le < base => {
                    heads.extend(row.outs.iter().map(|o| o.head).filter(|&h| h < w));
                }
                _ => {}
            }
        }
        for v in heads {
            if cut.landing_idx[v - base].is_none() {
                cut.landing_idx[v - base] = Some(cut.landings.len());
                cut.landings.push(v);
            }
        }
        cut
    }

    /// One shortest-path tree per landing, over the internal arcs only
    /// (the lex pass the confirmation runs too — settled prefixes
    /// typically converge in a handful of rounds), its parametric
    /// companion, started from that tree, and what the two say about
    /// every exit, spelled into `table`'s pool.
    fn landing_trees(
        &self,
        cut: &Cut,
        table: &mut ShortcutTable,
        lex: &mut LexScratch,
        envelopes: &mut EnvelopeScratch,
    ) -> Trees {
        let arcs = self.tg.arcs();
        let mut trees = Trees::with_capacity(cut.landings.len() * cut.exits.len());
        let mut chain = Vec::new();
        let (mut scans, mut relaxations) = (0, 0);
        for &start in &cut.landings {
            let (visits, relaxed) = lex.run(&cut.lex, cut.base, &[(start, (0, 0))]);
            scans += visits;
            relaxations += relaxed;
            self.margin_sig_sssp(cut, start, &lex.pred, table, envelopes);
            for (bi, &b) in cut.exits.iter().enumerate() {
                let exit_arc = arcs[b];
                let Some(d) = lex.dist[exit_arc.from - cut.base] else {
                    trees.push(None);
                    continue;
                };
                // The prune's one walk up a predecessor chain.
                chain.clear();
                chain.push(b);
                let mut node = exit_arc.from;
                while node != start {
                    let ai = lex.pred[node - cut.base].expect("reachable nodes have predecessors");
                    chain.push(ai);
                    node = arcs[ai].from;
                }
                let open = table.open();
                for &ai in chain.iter().rev() {
                    let proc = self.proc_of[arcs[ai].from - cut.base];
                    table.push_part(table.arc_part(proc, arcs[ai], None));
                }
                let path = table.close(open, None);
                let weight = d.plus(weight_of(exit_arc.kind, self.p, self.q, table));
                let sigs = self.exit_envelope(cut, envelopes, bi, table, Some(path));
                trees.push(Some(table.info(weight, path, sigs.iter().copied())));
            }
        }
        OBS_LEX_SCANS.add(scans);
        OBS_LEX_RELAXATIONS.add(relaxations);
        trees
    }

    /// Entry → exit shortcuts, one slot per live endpoint pair — shared
    /// among this prune's candidates and with the lex-min shortcut arc
    /// that survives the cut between the same endpoints (long-lived
    /// boundaries would otherwise pile up parallel arcs prune after prune).
    fn entry_exit_shortcuts(
        &self,
        cut: &Cut,
        trees: &Trees,
        table: &mut ShortcutTable,
    ) -> Vec<Slot> {
        let arcs = self.tg.arcs();
        if cut.exits.is_empty() {
            return Vec::new();
        }
        // Slots are indexed densely: live events above the cut get an
        // index as entry tails and as exit heads, a pair its slot.
        let live = self.total_events() - cut.w;
        let (mut tail_idx, mut head_idx) = (vec![NONE; live], vec![NONE; live]);
        let mut tails = 0;
        for &ea in &cut.entries {
            let t = &mut tail_idx[arcs[ea].from - cut.w];
            if *t == NONE {
                (*t, tails) = (tails, tails + 1);
            }
        }
        let mut heads = 0;
        for &b in &cut.exits {
            let h = &mut head_idx[arcs[b].to - cut.w];
            if *h == NONE {
                (*h, heads) = (heads, heads + 1);
            }
        }
        let pair = |from: usize, to: usize| {
            let (t, h) = (tail_idx[from - cut.w], head_idx[to - cut.w]);
            (t != NONE && h != NONE).then(|| t * heads + h)
        };
        let mut survivors = vec![NONE; tails * heads];
        for a in arcs.iter().filter(|a| a.from >= cut.w && a.to >= cut.w) {
            if let (ArcKind::Shortcut(id), Some(k)) = (a.kind, pair(a.from, a.to)) {
                let best = &mut survivors[k];
                if *best == NONE || table[id].weight < table[*best].weight {
                    *best = id;
                }
            }
        }
        let mut slot_of = vec![NONE; tails * heads];
        let mut keys: Vec<(usize, usize, Option<usize>)> = Vec::new();
        let mut merge = Merge::lend(table);
        for &ea in &cut.entries {
            let entry = arcs[ea];
            let li = cut.landing_idx[entry.to - cut.base].expect("entry heads are landings");
            let ew = weight_of(entry.kind, self.p, self.q, table);
            let tail_proc = self.proc_of[entry.from - cut.base];
            let head = table.arc_part(tail_proc, entry, None);
            let composites = &trees[li * cut.exits.len()..(li + 1) * cut.exits.len()];
            for (tail, &b) in composites.iter().zip(&cut.exits) {
                let Some(tail) = tail else {
                    continue;
                };
                let (from, to) = (entry.from, arcs[b].to);
                if from == to && ew.plus(tail.weight) >= (0, 0) {
                    // A non-negative self-loop can never improve a shortest
                    // path nor close a violating cycle: drop it. (A negative
                    // one would be a negative cycle — impossible while the
                    // verdict is open.) The kept margin loses nothing either:
                    // any cycle through the loop existed before this prune,
                    // so its ratio is already folded into the margin floor.
                    continue;
                }
                let k = pair(from, to).expect("entry tails and exit heads are indexed");
                if slot_of[k] == NONE {
                    slot_of[k] = keys.len();
                    let survivor = (survivors[k] != NONE).then_some(survivors[k]);
                    keys.push((from, to, survivor));
                    if let Some(id) = survivor {
                        // The survivor's envelope was cut for an older
                        // floor: it is re-cut, then merged as ever.
                        let kept = table[id];
                        let sigs = table.sigs_of(&kept).iter().map(|s| Sig::stored(table, s));
                        merge.offer(
                            slot_of[k],
                            kept.weight,
                            Spelling::stored(kept.path),
                            sigs,
                            true,
                        );
                    }
                }
                let sigs = tail_sigs(table, arc_sigs(table, entry, tail_proc), tail);
                let path = Spelling {
                    head,
                    tail: Some(tail.path),
                };
                merge.offer(slot_of[k], ew.plus(tail.weight), path, sigs, true);
            }
        }
        let mut slots = Vec::with_capacity(keys.len());
        for (slot, (from, to, survivor)) in keys.into_iter().enumerate() {
            let info = merge.settle(slot, table, cut.floor);
            slots.push(Slot {
                from,
                to,
                survivor,
                info,
            });
        }
        table.merge = merge;
        slots
    }

    /// Frontier rows, per process: fresh ones are frozen, stale ones
    /// (frozen at an earlier prune) keep the paths whose heads are still
    /// live and are recomposed through the new prefix where a head now
    /// falls below the cut.
    fn frontier_rows(
        &self,
        cut: &Cut,
        trees: &Trees,
        table: &mut ShortcutTable,
    ) -> Vec<(usize, FrontierRow)> {
        let (base, w) = (cut.base, cut.w);
        let exits = cut.exits.len();
        // What the landing at `v` reaches, by live exit head (without exits
        // there are no landings at all, and nothing to reach).
        let reach = |v: usize| {
            let tails = cut.landing_idx[v - base]
                .map_or(&[][..], |li| &trees[li * exits..(li + 1) * exits]);
            let heads = cut.exits.iter().map(|&b| self.tg.arcs()[b].to);
            heads
                .zip(tails)
                .filter_map(|(head, tail)| Some((head, tail.as_ref()?)))
        };
        let mut rows = Vec::new();
        let mut merge = Merge::lend(table);
        for p in 0..self.num_processes {
            merge.clear();
            let mut heads: Vec<usize> = Vec::new();
            let mut slot = |head: usize| match heads.iter().position(|&h| h == head) {
                Some(slot) => slot,
                None => {
                    heads.push(head);
                    heads.len() - 1
                }
            };
            let label = match (self.last_event[p], &self.frontier_row[p]) {
                (Some(le), _) if le >= base && le < w => {
                    for (head, tail) in reach(le) {
                        let sigs = table.sigs_of(tail).iter().map(|s| Sig::stored(table, s));
                        let path = Spelling::stored(tail.path);
                        merge.offer(slot(head), tail.weight, path, sigs, false);
                    }
                    self.pot[le - base]
                }
                (Some(le), Some(row)) if le < base => {
                    for out in &row.outs {
                        let stored = table
                            .sigs_of(&out.info)
                            .iter()
                            .map(|s| Sig::stored(table, s));
                        if out.head >= w {
                            let path = Spelling::stored(out.info.path);
                            merge.offer(slot(out.head), out.info.weight, path, stored, false);
                            continue;
                        }
                        for (head, tail) in reach(out.head) {
                            let sigs = tail_sigs(table, stored.clone(), tail);
                            let path = Spelling {
                                head: Part::Path(out.info.path),
                                tail: Some(tail.path),
                            };
                            let weight = out.info.weight.plus(tail.weight);
                            merge.offer(slot(head), weight, path, sigs, true);
                        }
                    }
                    row.label
                }
                _ => continue,
            };
            let outs = (0..heads.len())
                .map(|slot| RowOut {
                    head: heads[slot],
                    info: merge.settle(slot, table, cut.floor),
                })
                .collect();
            rows.push((p, FrontierRow { label, outs }));
        }
        table.merge = merge;
        rows
    }

    /// Table remap: rebuilds the shortcut table (survivors keep their info
    /// under new ids, consumed entries vanish with their arcs), then lands
    /// the slots — a survivor's in place, a new pair's as a fresh shortcut
    /// arc — installs the rows, and compacts the table's columns to what
    /// its shortcuts and the rows reference.
    fn install(&mut self, w: usize, slots: Vec<Slot>, rows: Vec<(usize, FrontierRow)>) {
        let capacity = self.shortcuts.len() + slots.len();
        let old = std::mem::replace(&mut self.shortcuts.infos, Vec::with_capacity(capacity));
        let mut remap: Vec<Option<usize>> = vec![None; old.len()];
        for a in self.tg.arcs_mut() {
            if a.from >= w && a.to >= w {
                if let ArcKind::Shortcut(id) = a.kind {
                    let new_id = *remap[id].get_or_insert_with(|| self.shortcuts.push(old[id]));
                    a.kind = ArcKind::Shortcut(new_id);
                }
            }
        }
        for slot in slots {
            match slot.survivor {
                Some(old_id) => {
                    let id = remap[old_id].expect("surviving shortcuts were remapped");
                    self.kept.carries(self.shortcuts.sigs_of(&slot.info));
                    self.shortcuts.infos[id] = slot.info;
                }
                None => {
                    let id = self.shortcuts.push(slot.info);
                    self.push_arc(slot.from, slot.to, ArcKind::Shortcut(id));
                }
            }
        }
        for (p, row) in rows {
            self.frontier_row[p] = Some(row);
        }
        self.shortcuts.compact(&mut self.frontier_row);
    }
}

/// The signatures of `head · tail` for every line `head` offers and every
/// line of the composite `tail`, but those whose junction reverses a
/// message.
fn tail_sigs<'a>(
    table: &'a ShortcutTable,
    head: impl Iterator<Item = Sig> + 'a,
    tail: &'a ShortcutInfo,
) -> impl Iterator<Item = Sig> + 'a {
    head.flat_map(move |h| {
        let tails = table.sigs_of(tail).iter();
        tails.filter_map(move |s| h.concat(table, s))
    })
}
