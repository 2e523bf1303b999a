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
//! into **one CSR by tail** per cut, which every landing's envelope pass
//! reads. A landing's envelope pass is **warm-started from its lex tree**:
//! that tree is the parametric tree at `x = Ξ`, its arcs give every
//! reached event a genuine path line to start on, and from any start made
//! of genuine path lines the worklist ends in the envelope of all paths
//! (the `margin` module has the argument, and the one junction rule that
//! reads which path holds a line). And the composite `landing ⇝ exit` —
//! the walk up the predecessor chain, its expansion, its envelope — is
//! spelled **once per (landing, exit)**, in `landing_trees`; every entry
//! arc and row that lands there composes with it by reference.

use std::collections::hash_map::{Entry, HashMap};

use crate::graph::{EventId, LocalEdge, ProcessId};
use crate::negcycle::Label;
use crate::traversal::ArcKind;

use super::margin::{margin_envelope, EnvelopeScratch, MarginSig, Sig};
use super::witness::Expansion;
use super::{IncrementalChecker, Weight};

static OBS_PRUNED_EVENTS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.pruned_events");
static OBS_PRUNED_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.pruned_arcs");

/// A condensed boundary path of a pruned prefix: the exact lexicographic
/// weight of the shortest settled-region path it stands for, plus the
/// expansion needed to reproduce witnesses byte-for-byte. The arena's
/// [`ArcKind::Shortcut`] arcs index a table of these.
#[derive(Clone, Debug, Default)]
pub(super) struct ShortcutInfo {
    pub(super) weight: Weight,
    /// The condensed path, between (and excluding) its live endpoints.
    pub(super) path: Expansion,
    /// Margin-signature envelope of *all* condensed paths behind this arc.
    pub(super) sigs: Vec<MarginSig>,
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
    /// Arcs with both ends, only the head, only the tail below the cut.
    pub(super) internal: Vec<usize>,
    entries: Vec<usize>,
    pub(super) exits: Vec<usize>,
    /// The internal arcs as one CSR by tail, for every landing's envelope
    /// pass: the out-arcs of prefix event `v` (windowed by `base`) are
    /// `out[out_start[v]..out_start[v + 1]]`, in descending arena order,
    /// self-loops left out.
    out_start: Vec<usize>,
    out: Vec<usize>,
    /// Prefix events that need a shortest-path tree: entry-arc heads,
    /// freshly pruned frontiers, stale row heads (none without exits).
    pub(super) landings: Vec<usize>,
    /// Each prefix event's index into `landings` (windowed by `base`).
    landing_idx: Vec<Option<usize>>,
    /// The kept margin (`1/1` while there is none above it): signature
    /// envelopes range over the probe ratios at or above it.
    pub(super) floor: (i128, i128),
}

impl Cut {
    /// The internal out-arcs of prefix event `v` (windowed by `base`).
    pub(super) fn out_arcs(&self, v: usize) -> &[usize] {
        &self.out[self.out_start[v]..self.out_start[v + 1]]
    }

    /// How many arcs the CSR holds.
    pub(super) fn num_out_arcs(&self) -> usize {
        self.out.len()
    }
}

/// What each landing reaches inside the prefix: per landing and exit, the
/// composite `landing ⇝ head(exit)` going shortest-path inside the prefix
/// then out through the exit arc (the landing itself stays excluded from
/// the expansion's interior), with the signature envelope of *all* such
/// paths; `None` when the exit is out of the landing's reach. Spelled
/// once per pair, whoever composes with it.
type Trees = Vec<Vec<Option<ShortcutInfo>>>;

/// A condensed path while a prune assembles it: a [`ShortcutInfo`] whose
/// signature envelope still borrows the paths it is composed of.
struct Candidate<'a> {
    weight: Weight,
    path: Expansion,
    sigs: Vec<Sig<'a>>,
}

impl<'a> Candidate<'a> {
    fn stored(info: &'a ShortcutInfo) -> Candidate<'a> {
        Candidate {
            weight: info.weight,
            path: info.path.clone(),
            sigs: info.sigs.iter().map(Sig::stored).collect(),
        }
    }

    /// `head · tail`, meeting at an event of process `joint`; `head` is
    /// given by its lex weight, its expansion and its signatures.
    fn joined(
        weight: Weight,
        mut path: Expansion,
        sigs: impl Iterator<Item = Sig<'a>>,
        joint: ProcessId,
        tail: &'a ShortcutInfo,
        floor: (i128, i128),
    ) -> Candidate<'a> {
        path.extend(joint, &tail.path);
        let mut cands = Vec::new();
        for h in sigs {
            for s in &tail.sigs {
                cands.extend(h.concat(joint, s));
            }
        }
        margin_envelope(&mut cands, floor);
        Candidate {
            weight: weight.plus(tail.weight),
            path,
            sigs: cands,
        }
    }

    /// The one merge rule of a prune, for candidates ending on the same
    /// live endpoint: the lex-min path keeps the slot (the incumbent on
    /// ties), and every candidate's signatures merge into the slot's
    /// envelope — a probe below `Ξ` may prefer a path that loses at `Ξ`.
    fn absorb(&mut self, other: Candidate<'a>, floor: (i128, i128)) {
        if !other.sigs.is_empty() {
            self.sigs.extend(other.sigs);
            margin_envelope(&mut self.sigs, floor);
        }
        if other.weight < self.weight {
            self.weight = other.weight;
            self.path = other.path;
        }
    }

    /// Spells the surviving signatures out; the borrows end here.
    fn spell(self) -> ShortcutInfo {
        ShortcutInfo {
            weight: self.weight,
            path: self.path,
            sigs: self.sigs.iter().map(Sig::materialize).collect(),
        }
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
    /// prune, seeded by one search of its window, which is then still the
    /// whole execution. Returns the number of events compacted by this call
    /// — `0`, with the window left intact, when there is no exact margin to
    /// condense with because the kept labels are beyond their integer range
    /// ([`IncrementalChecker::current_margin`] is then
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
            // one search seeds the kept column, which is kept from here on.
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
        let joint = self.proc_of[recv - self.tg.base()];
        let local = ArcKind::LocalBack(LocalEdge {
            from: EventId(prev),
            to: EventId(recv),
        });
        let step = local.step().expect("a local arc is one step");
        for out in &row.outs {
            // Every signature path gets the same local-edge prefix; a
            // local step carries no message, so `f`/`b` are unchanged.
            let sigs = out.info.sigs.iter().map(|s| MarginSig {
                path: s.path.prefixed(step, joint),
                ..*s
            });
            let id = self.shortcuts.len();
            self.shortcuts.push(ShortcutInfo {
                weight: out.info.weight.plus(self.arc_weight(local)),
                path: out.info.path.prefixed(step, joint),
                sigs: sigs.collect(),
            });
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
        let cut = self.classify_cut(w);
        // Lent to the trees for the prune, then back for the next one.
        let mut scratch = std::mem::take(&mut self.envelopes);
        let trees = self.landing_trees(&cut, &mut scratch);
        self.envelopes = scratch;
        let slots = self.entry_exit_shortcuts(&cut, &trees);
        let rows = self.frontier_rows(&cut, &trees);
        self.install(w, slots, rows);
    }

    /// Classifies the arena against the cut and finds the landing points.
    pub(super) fn classify_cut(&self, w: usize) -> Cut {
        let base = self.tg.base();
        let mut cut = Cut {
            base,
            w,
            internal: Vec::new(),
            entries: Vec::new(),
            exits: Vec::new(),
            out_start: vec![0; w - base + 1],
            out: Vec::new(),
            landings: Vec::new(),
            landing_idx: vec![None; w - base],
            floor: self.kept.ratio,
        };
        for (ai, a) in self.tg.arcs().iter().enumerate() {
            match (a.from < w, a.to < w) {
                (true, true) => cut.internal.push(ai),
                (false, true) => cut.entries.push(ai),
                (true, false) => cut.exits.push(ai),
                (false, false) => {}
            }
        }
        if cut.exits.is_empty() {
            return cut;
        }
        // Counting sort by tail, filled from the back of the arena.
        let arcs = self.tg.arcs();
        let inner = || {
            let arcs = cut.internal.iter().rev().map(|&ai| (ai, arcs[ai]));
            arcs.filter(|(_, a)| a.from != a.to)
        };
        for (_, a) in inner() {
            cut.out_start[a.from - base + 1] += 1;
        }
        for v in 0..w - base {
            cut.out_start[v + 1] += cut.out_start[v];
        }
        let mut next = cut.out_start.clone();
        cut.out = vec![0; next[w - base]];
        for (ai, a) in inner() {
            cut.out[next[a.from - base]] = ai;
            next[a.from - base] += 1;
        }
        let mut heads: Vec<usize> = Vec::new();
        heads.extend(cut.entries.iter().map(|&ai| self.tg.arcs()[ai].to));
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
    /// (same seeded pass as the confirmation's — settled prefixes
    /// typically converge in a handful of rounds), its parametric
    /// companion, started from that tree, and what the two say about
    /// every exit.
    fn landing_trees(&self, cut: &Cut, scratch: &mut EnvelopeScratch) -> Trees {
        let arcs = self.tg.arcs();
        let mut trees = Trees::with_capacity(cut.landings.len());
        let mut chain = Vec::new();
        for &start in &cut.landings {
            let seed = [(start, (0, 0))];
            let (dist, pred, _) =
                self.seeded_sssp(&cut.internal, cut.base, cut.w - cut.base, &seed);
            self.margin_sig_sssp(cut, start, &pred, scratch);
            let to_exit = |(bi, &b): (usize, &usize)| {
                let exit_arc = arcs[b];
                let d = dist[exit_arc.from - cut.base]?;
                // The prune's one walk up a predecessor chain.
                chain.clear();
                chain.push(b);
                let mut node = exit_arc.from;
                while node != start {
                    let ai = pred[node - cut.base].expect("reachable nodes have predecessors");
                    chain.push(ai);
                    node = arcs[ai].from;
                }
                let mut path = Expansion::default();
                for &ai in chain.iter().rev() {
                    let joint = self.proc_of[arcs[ai].from - cut.base];
                    path.push_arc(joint, arcs[ai].kind, |id| &self.shortcuts[id].path);
                }
                Some(ShortcutInfo {
                    weight: d.plus(self.arc_weight(exit_arc.kind)),
                    path,
                    sigs: self.exit_envelope(cut, scratch, bi),
                })
            };
            trees.push(cut.exits.iter().enumerate().map(to_exit).collect());
        }
        trees
    }

    /// Entry → exit shortcuts, one slot per live endpoint pair — shared
    /// among this prune's candidates and with the lex-min shortcut arc
    /// that survives the cut between the same endpoints (long-lived
    /// boundaries would otherwise pile up parallel arcs prune after prune).
    fn entry_exit_shortcuts(&self, cut: &Cut, trees: &Trees) -> Vec<Slot> {
        let arcs = self.tg.arcs();
        if cut.exits.is_empty() {
            return Vec::new();
        }
        let mut survivors: HashMap<(usize, usize), usize> = HashMap::new();
        for a in arcs.iter().filter(|a| a.from >= cut.w && a.to >= cut.w) {
            if let ArcKind::Shortcut(id) = a.kind {
                let best = survivors.entry((a.from, a.to)).or_insert(id);
                if self.shortcuts[id].weight < self.shortcuts[*best].weight {
                    *best = id;
                }
            }
        }
        // Only what survives every merge is spelled out, at the end.
        let mut keys: Vec<(usize, usize, Option<usize>)> = Vec::new();
        let mut linked: Vec<Candidate> = Vec::new();
        let mut slot_of: HashMap<(usize, usize), usize> = HashMap::new();
        for &ea in &cut.entries {
            let entry = arcs[ea];
            let li = cut.landing_idx[entry.to - cut.base].expect("entry heads are landings");
            let ew = self.arc_weight(entry.kind);
            for (tail, &b) in trees[li].iter().zip(&cut.exits) {
                let Some(tail) = tail else {
                    continue;
                };
                let (from, to) = (entry.from, arcs[b].to);
                if from == to && ew.plus(tail.weight) >= (0, 0) {
                    // A non-negative self-loop can never improve a shortest
                    // path nor close a violating cycle: drop it. (A negative
                    // one would be a negative cycle — impossible while the
                    // verdict is open.) Margin probes lose nothing either:
                    // any cycle through the loop existed before this prune,
                    // so its ratio is already folded into the margin floor.
                    continue;
                }
                let mut head = Expansion::default();
                let tail_proc = self.proc_of[from - cut.base];
                head.push_arc(tail_proc, entry.kind, |id| &self.shortcuts[id].path);
                let joint = self.proc_of[entry.to - cut.base];
                let sigs = self.arc_sigs(entry.kind);
                let cand = Candidate::joined(ew, head, sigs, joint, tail, cut.floor);
                match slot_of.entry((from, to)) {
                    Entry::Occupied(e) => linked[*e.get()].absorb(cand, cut.floor),
                    Entry::Vacant(e) => {
                        e.insert(linked.len());
                        let survivor = survivors.get(&(from, to)).copied();
                        keys.push((from, to, survivor));
                        linked.push(match survivor {
                            // The survivor's envelope was cut for an older
                            // floor: re-cut it, then merge as ever.
                            Some(id) => {
                                let mut kept = Candidate::stored(&self.shortcuts[id]);
                                margin_envelope(&mut kept.sigs, cut.floor);
                                kept.absorb(cand, cut.floor);
                                kept
                            }
                            None => cand,
                        });
                    }
                }
            }
        }
        let spell = |((from, to, survivor), c): (_, Candidate)| Slot {
            from,
            to,
            survivor,
            info: c.spell(),
        };
        keys.into_iter().zip(linked).map(spell).collect()
    }

    /// Frontier rows, per process: fresh ones are frozen, stale ones
    /// (frozen at an earlier prune) keep the paths whose heads are still
    /// live and are recomposed through the new prefix where a head now
    /// falls below the cut.
    fn frontier_rows(&self, cut: &Cut, trees: &Trees) -> Vec<(usize, FrontierRow)> {
        let (base, w) = (cut.base, cut.w);
        // What the landing at `v` reaches, by live exit head (without exits
        // there are no landings at all, and nothing to reach).
        let reach = |v: usize| {
            let tails = cut.landing_idx[v - base].map_or(&[][..], |li| &trees[li][..]);
            let heads = cut.exits.iter().map(|&b| self.tg.arcs()[b].to);
            heads
                .zip(tails)
                .filter_map(|(head, tail)| Some((head, tail.as_ref()?)))
        };
        let mut rows = Vec::new();
        for p in 0..self.num_processes {
            let mut outs: Vec<(usize, Candidate)> = Vec::new();
            let mut keep = |head: usize, cand| match outs.iter_mut().find(|(h, _)| *h == head) {
                Some((_, slot)) => slot.absorb(cand, cut.floor),
                None => outs.push((head, cand)),
            };
            let label = match (self.last_event[p], &self.frontier_row[p]) {
                (Some(le), _) if le >= base && le < w => {
                    for (head, tail) in reach(le) {
                        keep(head, Candidate::stored(tail));
                    }
                    self.pot[le - base]
                }
                (Some(le), Some(row)) if le < base => {
                    for out in &row.outs {
                        if out.head >= w {
                            keep(out.head, Candidate::stored(&out.info));
                            continue;
                        }
                        let joint = self.proc_of[out.head - base];
                        for (head, tail) in reach(out.head) {
                            let sigs = out.info.sigs.iter().map(Sig::stored);
                            let (weight, path) = (out.info.weight, out.info.path.clone());
                            let cand =
                                Candidate::joined(weight, path, sigs, joint, tail, cut.floor);
                            keep(head, cand);
                        }
                    }
                    row.label
                }
                _ => continue,
            };
            let spell = |(head, c): (usize, Candidate)| RowOut {
                head,
                info: c.spell(),
            };
            let outs = outs.into_iter().map(spell).collect();
            rows.push((p, FrontierRow { label, outs }));
        }
        rows
    }

    /// Table remap: rebuilds the shortcut table (survivors keep their info
    /// under new ids, consumed entries vanish with their arcs), then lands
    /// the slots — a survivor's in place, a new pair's as a fresh shortcut
    /// arc — and installs the rows.
    fn install(&mut self, w: usize, slots: Vec<Slot>, rows: Vec<(usize, FrontierRow)>) {
        let mut old_table = std::mem::take(&mut self.shortcuts);
        let mut remap: Vec<Option<usize>> = vec![None; old_table.len()];
        let mut new_table: Vec<ShortcutInfo> = Vec::new();
        for a in self.tg.arcs_mut() {
            if a.from >= w && a.to >= w {
                if let ArcKind::Shortcut(id) = a.kind {
                    let new_id = *remap[id].get_or_insert_with(|| {
                        new_table.push(std::mem::take(&mut old_table[id]));
                        new_table.len() - 1
                    });
                    a.kind = ArcKind::Shortcut(new_id);
                }
            }
        }
        self.shortcuts = new_table;
        for slot in slots {
            match slot.survivor {
                Some(old_id) => {
                    let id = remap[old_id].expect("surviving shortcuts were remapped");
                    self.kept.carries(&slot.info);
                    self.shortcuts[id] = slot.info;
                }
                None => {
                    let id = self.shortcuts.len();
                    self.shortcuts.push(slot.info);
                    self.push_arc(slot.from, slot.to, ArcKind::Shortcut(id));
                }
            }
        }
        for (p, row) in rows {
            self.frontier_row[p] = Some(row);
        }
    }
}
