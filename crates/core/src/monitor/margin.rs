//! The live synchrony margin, and what keeps it exact across prunes.
//!
//! # Live synchrony margin
//!
//! Beyond the binary verdict, the monitor can report how *close* the
//! execution is to the tripwire: [`IncrementalChecker::current_margin`]
//! returns the exact maximum `|Z−|/|Z+|` over all relevant cycles so far
//! (the same value [`crate::check::max_relevant_cycle_ratio`] computes
//! batch-side), and [`IncrementalChecker::margin_upper_bound`] derives a
//! cheap `O(arcs)` upper bound from the feasible potentials — the fast
//! path that gates the exact probe. Both margins, batch and live, come
//! from one engine (the crate's `maxratio` module): it asks "is there a
//! cycle with ratio strictly above `B₀/F₀`", jumps to the ratio of the
//! cycle a *yes* finds, and stops at the first *no* — two to four runs of
//! the crate's worklist negative-cycle kernel over the live arcs, not a
//! bisection.
//!
//! # Floor and signature envelopes
//!
//! Pruned monitors stay exact through two devices: the **margin floor**
//! (margins only grow, so the exact margin is folded into a floor right
//! before each prune, and later probes only ask above it) and
//! per-shortcut **signature envelopes** (each boundary shortcut keeps the
//! lower envelope of its crossing paths' `x·F − B` cost lines over probe
//! ratios at or above the floor, so probes below `Ξ` see the exact
//! minimum crossing cost, not just the `Ξ`-optimal path the violation
//! machinery stores). Margin tracking is opt-in for pruning monitors
//! ([`IncrementalChecker::enable_margin_tracking`]): the fold is under a
//! hundred microseconds on a 500-event window, and growing the envelopes
//! makes a tracked prune two to three times the work of an untracked one
//! (0.6 ms against 0.23 ms at horizon 256, of which the envelope passes
//! are 0.2).
//!
//! # The envelope pass
//!
//! Per boundary landing a prune grows the envelopes of the condemned
//! prefix with one pass, `margin_sig_sssp`: a parametric shortest-path
//! computation started from the tree that is optimal at one parameter
//! value (Young, Tarjan & Orlin 1991) — the landing's lex tree, built a
//! moment earlier, is that tree at `x = Ξ` — and then run as a FIFO
//! worklist over one per-cut CSR, re-scanning only the events whose
//! envelope changed (Cherkassky & Goldberg 1999, the discipline of the
//! crate's kernel). A candidate line costs an arena link and an envelope
//! rebuild only after an exact, allocation-free test that it wins
//! somewhere on `[floor, ∞)` (`can_win`), and the labels live in flat
//! scratch the monitor owns (`EnvelopeScratch`), so a tree makes no
//! per-node allocation. `crates/bench/tests/prune_work.rs` pins the
//! pass's work by count; `monitor/tests.rs` keeps the cold, round-based
//! pass it replaced as a differential oracle.

use std::collections::VecDeque;

use abc_rational::Ratio;

use crate::check::{self, CheckError};
use crate::cycle::{CycleStep, WitnessSummary};
use crate::graph::ProcessId;
use crate::maxratio::{self, step_reverses, Shortcuts};
use crate::traversal::ArcKind;

use super::prune::{Cut, ShortcutInfo};
use super::witness::Expansion;
use super::{IncrementalChecker, MarginReport};

static OBS_PROBES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.margin_probes");
// What the envelope passes of tracked prunes did, summed over landings:
// arena links made and out-arc scans done, beside the slots each pass
// reached (prefix events and exit heads) and the internal arcs it ran over
// (`crates/bench/tests/prune_work.rs` bounds the first two by the last
// two).
static OBS_SIG_LINKS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_links");
static OBS_SIG_SCANS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_scans");
static OBS_SIG_NODES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_nodes");
static OBS_SIG_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_arcs");
/// Junctions a pass refused for reversing a message although their line
/// could win: the one decision that reads *which* path holds a line.
static OBS_SIG_REFUSALS: abc_obs::CounterDef =
    abc_obs::CounterDef::new("monitor.prune_sig_refusals");

/// One margin *signature* of a condensed settled-region path: its forward
/// and backward message counts, plus the expansion needed to reproduce a
/// witness through it. While the `weight`/`path` of a [`ShortcutInfo`]
/// describe the one path that is lex-optimal at `Ξ`, margin probes
/// evaluate cost lines `x·f − b` at probe ratios `x < Ξ`, where a
/// different crossing path may be cheaper — so margin tracking keeps, per
/// condensed arc, the *lower envelope* of all crossing paths' cost lines
/// over the closed interval `[floor, ∞)` of still-reachable probe ratios.
#[derive(Clone, Debug)]
pub(super) struct MarginSig {
    /// Forward message steps along the path.
    pub(super) f: i128,
    /// Backward message steps along the path.
    pub(super) b: i128,
    pub(super) path: Expansion,
}

/// A margin signature *while a prune composes shortcuts and rows*: the
/// counts and boundary steps that every envelope and junction decision
/// reads, plus what its path is put together from. Copying one copies no
/// path; only the signatures that survive onto a [`ShortcutInfo`] are
/// expanded into a [`MarginSig`] ([`Sig::materialize`]).
#[derive(Clone, Copy)]
pub(super) struct Sig<'a> {
    f: i128,
    b: i128,
    /// First and last step of the path (no path here is empty).
    first: Option<CycleStep>,
    last: Option<CycleStep>,
    head: SigHead<'a>,
    /// What follows `head`, and the process of the event they meet at.
    tail: Option<(ProcessId, &'a MarginSig)>,
}

/// How a [`Sig`]'s path starts.
#[derive(Clone, Copy)]
enum SigHead<'a> {
    Step(CycleStep),
    /// A signature an earlier prune, or this prune's tree, stored.
    Stored(&'a MarginSig),
}

impl<'a> Sig<'a> {
    fn step(f: i128, b: i128, step: CycleStep) -> Sig<'a> {
        Sig {
            f,
            b,
            first: Some(step),
            last: Some(step),
            head: SigHead::Step(step),
            tail: None,
        }
    }

    pub(super) fn stored(sig: &'a MarginSig) -> Sig<'a> {
        Sig {
            f: sig.f,
            b: sig.b,
            first: sig.path.steps.first().copied(),
            last: sig.path.steps.last().copied(),
            head: SigHead::Stored(sig),
            tail: None,
        }
    }

    /// `self · tail`, meeting at the vertex with process `joint`. Returns
    /// `None` when the junction would immediately reverse one message —
    /// see [`step_reverses`].
    pub(super) fn concat(&self, joint: ProcessId, tail: &'a MarginSig) -> Option<Sig<'a>> {
        debug_assert!(self.tail.is_none(), "a prune composes two paths, not three");
        if let (Some(last), Some(first)) = (&self.last, tail.path.steps.first()) {
            if step_reverses(last, first) {
                return None;
            }
        }
        Some(Sig {
            f: self.f + tail.f,
            b: self.b + tail.b,
            last: tail.path.steps.last().copied().or(self.last),
            tail: Some((joint, tail)),
            ..*self
        })
    }

    /// Spells the path out: its steps and interior processes.
    pub(super) fn materialize(&self) -> MarginSig {
        let mut path = match self.head {
            SigHead::Step(step) => Expansion {
                steps: vec![step],
                procs: Vec::new(),
            },
            SigHead::Stored(sig) => sig.path.clone(),
        };
        if let Some((joint, tail)) = self.tail {
            path.extend(joint, &tail.path);
        }
        MarginSig {
            f: self.f,
            b: self.b,
            path,
        }
    }
}

/// A cost line `x·f − b`, as the envelope rule reads it.
pub(super) trait CostLine: Copy {
    /// Forward and backward message counts `(f, b)`.
    fn counts(&self) -> (i128, i128);
}

impl CostLine for Sig<'_> {
    fn counts(&self) -> (i128, i128) {
        (self.f, self.b)
    }
}

/// One line of a prefix event's envelope while a landing's tree grows: the
/// counts of a path `landing ⇝ event` and the link that spells it out.
#[derive(Clone, Copy, Debug)]
struct TreeLine {
    f: i128,
    b: i128,
    /// Index into [`EnvelopeScratch::links`]; [`ROOT`] for the empty path.
    link: usize,
}

impl CostLine for TreeLine {
    fn counts(&self) -> (i128, i128) {
        (self.f, self.b)
    }
}

/// How a [`TreeLine`]'s path ends: the path of link `parent`, then line
/// `pick` of arena arc `arc`.
#[derive(Clone, Copy, Debug)]
struct TreeLink {
    parent: usize,
    arc: usize,
    pick: usize,
}

/// The link of the empty path, at the landing itself.
const ROOT: usize = usize::MAX;

/// Where one slot's lines sit in [`EnvelopeScratch::lines`].
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    start: usize,
    len: usize,
    cap: usize,
}

/// The envelope pass's scratch, owned by the monitor and kept across
/// landings, prunes and [`IncrementalChecker::reset`]: a landing's tree
/// makes no per-node allocation. Slots are the cut's prefix events
/// (windowed by its `base`) followed by one per exit arc, the exit's live
/// head as seen from this landing. Nothing in it outlives a prune.
#[derive(Clone, Debug, Default)]
pub(super) struct EnvelopeScratch {
    /// Every slot's envelope, steepest line first, in one run per slot; a
    /// run that outgrows its room moves to the end.
    lines: Vec<TreeLine>,
    runs: Vec<Run>,
    links: Vec<TreeLink>,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// One insert's old lines and candidate, while the rule sorts them.
    merging: Vec<TreeLine>,
    /// A tree-order walk's pending nodes, or the links of a path being
    /// spelled, last first.
    chain: Vec<usize>,
    /// Junctions the landing's pass refused although their line could win
    /// (see [`IncrementalChecker::margin_sig_sssp`]).
    pub(super) refused: usize,
}

impl EnvelopeScratch {
    /// What a reset keeps (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        // Exhaustive on purpose: a new buffer is counted or does not compile.
        let EnvelopeScratch {
            lines,
            runs,
            links,
            queue,
            queued,
            merging,
            chain,
            refused: _,
        } = self;
        lines.capacity()
            + runs.capacity()
            + links.capacity()
            + queue.capacity()
            + queued.capacity()
            + merging.capacity()
            + chain.capacity()
    }

    /// Empties every slot for the next landing's tree over `slots` slots.
    fn arm(&mut self, slots: usize) {
        self.lines.clear();
        self.links.clear();
        self.queue.clear();
        self.runs.clear();
        self.runs.resize(slots, Run::default());
        self.queued.clear();
        self.queued.resize(slots, false);
        self.refused = 0;
    }

    fn envelope(&self, slot: usize) -> &[TreeLine] {
        let run = self.runs[slot];
        &self.lines[run.start..run.start + run.len]
    }

    /// Envelope-inserts `cand`, which [`can_win`], into `slot`.
    fn insert(&mut self, slot: usize, cand: TreeLine, lo: (i128, i128)) {
        let mut run = self.runs[slot];
        self.merging.clear();
        self.merging
            .extend_from_slice(&self.lines[run.start..run.start + run.len]);
        self.merging.push(cand);
        margin_envelope(&mut self.merging, lo);
        debug_assert!(self.merging.iter().any(|l| l.link == cand.link));
        let len = self.merging.len();
        if len > run.cap {
            // A run that moves gets room to double.
            run = Run {
                start: self.lines.len(),
                len,
                cap: 2 * len,
            };
            self.lines.resize(run.start + run.cap, cand);
        }
        run.len = len;
        self.lines[run.start..run.start + len].copy_from_slice(&self.merging);
        self.runs[slot] = run;
    }
}

impl Shortcuts for [ShortcutInfo] {
    fn lines(&self, id: usize) -> usize {
        self[id].sigs.len()
    }
    fn line(&self, id: usize, pick: usize) -> (i128, i128) {
        let sig = &self[id].sigs[pick];
        (sig.f, sig.b)
    }
    fn ends(&self, id: usize, pick: usize) -> (Option<CycleStep>, Option<CycleStep>) {
        let steps = &self[id].sigs[pick].path.steps;
        (steps.first().copied(), steps.last().copied())
    }
}

impl IncrementalChecker {
    /// The margin signatures of one live arc: plain arcs carry their single
    /// step, shortcut arcs their stored envelope.
    pub(super) fn arc_sigs(&self, kind: ArcKind) -> impl Iterator<Item = Sig<'_>> {
        let (own, stored): (Option<Sig>, &[MarginSig]) = match kind.step() {
            Ok(step) => (kind.counts().ok().map(|(f, b)| Sig::step(f, b, step)), &[]),
            Err(id) => (None, &self.shortcuts[id].sigs),
        };
        own.into_iter().chain(stored.iter().map(Sig::stored))
    }

    /// Signature-envelope shortest paths from `start` over the cut's
    /// internal arcs — the parametric companion of
    /// [`IncrementalChecker::seeded_sssp`]: instead of the one lex-optimal
    /// path at `Ξ`, every prefix event keeps the lower envelope of all
    /// incoming path signatures over probe ratios at or above the margin
    /// floor, and so does the live head of every exit arc (the internal
    /// envelopes extended by the exit arc), in the slot after the events.
    ///
    /// `pred` is the landing's lex tree, and it already *is* this
    /// parametric tree evaluated at `x = Ξ`, a ratio at or above the floor:
    /// the pass first relaxes the tree's own arcs, parents before children,
    /// so every reached event starts on the line of its `Ξ`-optimal path,
    /// and then re-scans — FIFO, a node's out-arcs in descending arena
    /// order — only the events whose envelope changed. The start is exact
    /// because it is made of genuine path lines, and any such start ends in
    /// the same `(f, b)` line sets: the fixpoint is the envelope of *all*
    /// paths, and a line is only ever kept out by lines that beat it —
    /// with one exception, counted in [`EnvelopeScratch::refused`]: where
    /// two shortcut arcs meet, a line that could win is refused when the
    /// path holding the tail's line ends on the message the next shortcut
    /// starts by taking back ([`step_reverses`]). Another path of the same
    /// counts might not; which one holds the line is the scan order's
    /// choice, here as in any other order. Nothing exact hangs on it (the
    /// walk refused costs `x − 1 ≥ 0` more than its contraction, which the
    /// live window explores on its own), and a pass that refused nothing
    /// has the one fixpoint every order reaches.
    ///
    /// Terminates because an insert only succeeds when a node's envelope
    /// strictly improves on some open sub-interval, and prefix cycles cost
    /// `≥ 0` everywhere on it (their ratios were folded into the floor
    /// right before condensation), so lapped signatures never survive the
    /// envelope.
    pub(super) fn margin_sig_sssp(
        &self,
        cut: &Cut,
        start: usize,
        pred: &[Option<usize>],
        sc: &mut EnvelopeScratch,
    ) {
        let base = cut.base;
        let width = cut.w - base;
        let arcs = self.tg.arcs();
        sc.arm(width + cut.exits.len());
        sc.insert(
            start - base,
            TreeLine {
                f: 0,
                b: 0,
                link: ROOT,
            },
            cut.floor,
        );
        sc.queued[start - base] = true;
        sc.queue.push_back(start - base);
        let mut scans = 0;
        // The warm start. A tree arc that gives its head no line (its tail
        // has none) leaves the head to the worklist.
        for v in 0..width {
            let mut node = v;
            while let Some(ai) = pred[node].filter(|_| !sc.queued[node]) {
                sc.chain.push(node);
                node = arcs[ai].from - base;
            }
            while let Some(node) = sc.chain.pop() {
                let ai = pred[node].expect("only nodes with a tree arc are pending");
                scans += 1;
                if self.relax_sigs(cut, sc, ai, node) {
                    sc.queued[node] = true;
                    sc.queue.push_back(node);
                }
            }
        }
        let mut pops = 0;
        while let Some(from) = sc.queue.pop_front() {
            sc.queued[from] = false;
            pops += 1;
            assert!(
                pops <= 100_000 * width,
                "internal error: margin signature envelopes failed to converge"
            );
            for &ai in cut.out_arcs(from) {
                let to = arcs[ai].to - base;
                scans += 1;
                if self.relax_sigs(cut, sc, ai, to) && !sc.queued[to] {
                    sc.queued[to] = true;
                    sc.queue.push_back(to);
                }
            }
        }
        for (bi, &b) in cut.exits.iter().enumerate() {
            self.relax_sigs(cut, sc, b, width + bi);
        }
        let reached = sc.runs.iter().filter(|r| r.len > 0).count();
        OBS_SIG_LINKS.add(sc.links.len() as u64);
        OBS_SIG_SCANS.add(scans);
        OBS_SIG_NODES.add(reached as u64);
        OBS_SIG_ARCS.add(cut.num_out_arcs() as u64);
        OBS_SIG_REFUSALS.add(sc.refused as u64);
    }

    /// The one relax step of the envelope pass: every line at the tail of
    /// arena arc `ai`, extended by every line of the arc, is offered to
    /// slot `to`. Returns whether `to`'s envelope changed.
    fn relax_sigs(&self, cut: &Cut, sc: &mut EnvelopeScratch, ai: usize, to: usize) -> bool {
        let arc = self.tg.arcs()[ai];
        let mut changed = false;
        let from = sc.runs[arc.from - cut.base];
        // `to` is another slot (the CSR leaves self-loops out: they only
        // lap a prefix cycle), so its inserts leave the tail's run alone.
        for at in from.start..from.start + from.len {
            let l = sc.lines[at];
            for (pick, d) in self.arc_sigs(arc.kind).enumerate() {
                let (f, b) = (l.f + d.f, l.b + d.b);
                // Nothing is linked or rebuilt for a line that cannot win.
                if !can_win(sc.envelope(to), f, b, cut.floor) {
                    continue;
                }
                let last = sc.links.get(l.link).map(|k| self.last_step(k));
                if let (Some(last), Some(first)) = (&last, &d.first) {
                    if step_reverses(last, first) {
                        sc.refused += 1;
                        continue;
                    }
                }
                let link = sc.links.len();
                sc.links.push(TreeLink {
                    parent: l.link,
                    arc: ai,
                    pick,
                });
                sc.insert(to, TreeLine { f, b, link }, cut.floor);
                changed = true;
            }
        }
        changed
    }

    /// The last step of the path `link` ends.
    fn last_step(&self, link: &TreeLink) -> CycleStep {
        match self.tg.arcs()[link.arc].kind.step() {
            Ok(step) => step,
            Err(id) => *self.shortcuts[id].sigs[link.pick]
                .path
                .steps
                .last()
                .expect("a condensed path has steps"),
        }
    }

    /// Spells out what the landing whose tree `sc` holds sees behind exit
    /// `bi` of `cut`: the envelope of all its paths to the exit's head.
    pub(super) fn exit_envelope(
        &self,
        cut: &Cut,
        sc: &mut EnvelopeScratch,
        bi: usize,
    ) -> Vec<MarginSig> {
        let arcs = self.tg.arcs();
        let run = sc.runs[cut.w - cut.base + bi];
        let mut sigs = Vec::with_capacity(run.len);
        for at in run.start..run.start + run.len {
            let line = sc.lines[at];
            let mut link = line.link;
            while let Some(k) = sc.links.get(link) {
                sc.chain.push(link);
                link = k.parent;
            }
            let mut path = Expansion::default();
            while let Some(link) = sc.chain.pop() {
                let TreeLink { arc, pick, .. } = sc.links[link];
                let joint = self.proc_of[arcs[arc].from - cut.base];
                path.push_arc(joint, arcs[arc].kind, |id| {
                    &self.shortcuts[id].sigs[pick].path
                });
            }
            sigs.push(MarginSig {
                f: line.f,
                b: line.b,
                path,
            });
        }
        sigs
    }

    /// The live window's best cycle strictly above the folded floor (at
    /// or above `1` while there is none), with the witness summary of a
    /// cycle attaining it — one run of the crate's max-cycle-ratio engine
    /// over the live arena, shortcut arcs charged their signature
    /// envelopes. `Ok(None)` when the window does not beat the floor.
    #[allow(clippy::type_complexity)]
    fn window_best(&self) -> Result<Option<((i128, i128), Option<WitnessSummary>)>, CheckError> {
        debug_assert!(
            self.violation.is_none(),
            "latched margins come from the witness summary"
        );
        let best = maxratio::max_cycle_ratio(&self.tg, &self.shortcuts[..], self.margin_floor)?;
        Ok(best.map(|found| {
            // At ratio exactly 1 there is no canonical cycle to show.
            let witness = (!found.cycle.is_empty()).then(|| self.expand_window_cycle(&found.cycle));
            ((found.b, found.f), witness)
        }))
    }

    /// Folds the exact live margin into the monotone floor: margins never
    /// shrink as an execution grows, so the pre-prune margin bounds every
    /// later one from below. Runs right before each condensation so that
    /// probes after the prune only range above the floor.
    pub(super) fn fold_margin_floor(&mut self) -> Result<(), CheckError> {
        // Fast path: if the potentials already bound the live window at or
        // below the floor, the fold cannot raise it.
        if let (Some(floor), Some(bound)) = (self.margin_floor, self.margin_upper_bound()) {
            if bound <= maxratio::ratio_of(floor) {
                return Ok(());
            }
        }
        if let Some((ratio, witness)) = self.window_best()? {
            self.margin_floor = Some(ratio);
            self.margin_floor_witness = witness;
        }
        Ok(())
    }

    /// The execution's current **synchrony margin**: the exact maximum
    /// relevant-cycle ratio `|Z−|/|Z+|` over everything appended so far, or
    /// `Ok(None)` while no relevant cycle exists. Matches the batch
    /// [`crate::check::max_relevant_cycle_ratio`] over the same events at
    /// every point of the stream — pruned or not — so the margin is a
    /// monotone "distance to violation" gauge: the monitor stays admissible
    /// exactly while the margin is below `Ξ`, and once the verdict latches
    /// the margin freezes at the witness's ratio.
    ///
    /// ```
    /// use abc_core::monitor::IncrementalChecker;
    /// use abc_core::graph::ProcessId;
    /// use abc_core::Xi;
    /// use abc_rational::Ratio;
    ///
    /// let xi = Xi::from_integer(3);
    /// let mut mon = IncrementalChecker::new(3, &xi)?;
    /// let q = mon.append_init(ProcessId(0));
    /// mon.append_init(ProcessId(1));
    /// mon.append_init(ProcessId(2));
    /// assert_eq!(mon.current_margin()?, None); // acyclic: no cycle yet
    /// // Fast chain 0 → 2 → 1, spanned by a slow direct message 0 → 1.
    /// let (_, r) = mon.append_send(q, ProcessId(2));
    /// mon.append_send(r, ProcessId(1));
    /// mon.append_send(q, ProcessId(1));
    /// let margin = mon.current_margin()?.expect("the span closes a cycle");
    /// assert_eq!(margin.ratio, Ratio::from_integer(2)); // 2 hops against 1
    /// assert!(mon.is_admissible()); // margin 2 is still below Ξ = 3
    /// # Ok::<(), abc_core::check::CheckError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`CheckError::GraphTooLarge`] when the (windowed) probe arithmetic
    /// would overflow, exactly as in the batch computation.
    ///
    /// # Panics
    ///
    /// Panics after a prune on a monitor whose mirror was dropped, unless
    /// [`IncrementalChecker::enable_margin_tracking`] was called before that
    /// prune. A monitor that has pruned nothing answers in every mode: its
    /// window is the whole execution.
    pub fn current_margin(&self) -> Result<Option<MarginReport>, CheckError> {
        let _span = abc_obs::span("monitor.margin_probe");
        OBS_PROBES.add(1);
        if let Some(s) = &self.violation_summary {
            let ratio = s
                .classification
                .ratio()
                .expect("latched witnesses are relevant cycles");
            return Ok(Some(MarginReport {
                ratio,
                witness: Some(s.clone()),
            }));
        }
        // The window is the whole execution until something is pruned from
        // it; after an untracked prune only the mirror is exact.
        if !self.margin_tracking && self.stats.pruned_events > 0 {
            let mirror = self.builder.as_ref().expect(
                "current_margin() on a pruning monitor requires enable_margin_tracking() \
                 before the first prune_settled()",
            );
            let g = mirror.graph();
            return Ok(
                check::max_ratio_cycle(g)?.map(|(ratio, cycle)| MarginReport {
                    ratio,
                    witness: cycle.map(|c| c.summarize(g)),
                }),
            );
        }
        let floor = || {
            self.margin_floor
                .map(|f| (f, self.margin_floor_witness.clone()))
        };
        Ok(self
            .window_best()?
            .or_else(floor)
            .map(|(ratio, witness)| MarginReport {
                ratio: maxratio::ratio_of(ratio),
                witness,
            }))
    }

    /// A cheap upper bound on [`IncrementalChecker::current_margin`]: an
    /// `O(live arcs)` scan of the feasible Bellman–Ford potentials, no
    /// shortest-path probe. For every live forward arc the potential
    /// stretch `Δ = π(recv).0 − π(send).0` certifies that no relevant
    /// cycle through that message has ratio above `Δ/q` (scaling the
    /// potentials by `1/q` yields a feasible potential for the probe at
    /// that ratio; boundary-shortcut signatures with `f > 0` contribute
    /// `(Δ + q·b)/(q·f)` the same way), so the maximum stretch, combined
    /// with the folded floor, bounds the margin from above. The bound is
    /// never above `Ξ` while the verdict is open, equals the latched ratio
    /// after, and is `None` only when no relevant cycle can exist at all.
    ///
    /// This is the fast path for threshold alerting: only when the bound
    /// crosses a warning threshold does an exact (and much costlier)
    /// [`current_margin`](IncrementalChecker::current_margin) probe need
    /// to run.
    ///
    /// # Panics
    ///
    /// Panics after a prune on a monitor whose mirror was dropped, unless
    /// margin tracking is enabled (pruned shortcut arcs need their
    /// signatures).
    #[must_use]
    pub fn margin_upper_bound(&self) -> Option<Ratio> {
        let _span = abc_obs::span("monitor.margin_bound");
        if let Some(s) = &self.violation_summary {
            return s.classification.ratio();
        }
        assert!(
            self.builder.is_some() || self.stats.pruned_events == 0 || self.margin_tracking,
            "margin_upper_bound() on a pruning monitor requires enable_margin_tracking() \
             before the first prune_settled()"
        );
        let base = self.tg.base();
        // Max candidate as an i128 fraction (numerator, positive denominator).
        let mut best: Option<(i128, i128)> = None;
        let mut push = |num: i128, den: i128| {
            debug_assert!(den > 0);
            if best.is_none_or(|(bn, bd)| num * bd > bn * den) {
                best = Some((num, den));
            }
        };
        for arc in self.tg.arcs() {
            let d = self.pot[arc.to - base].0 - self.pot[arc.from - base].0;
            match arc.kind {
                ArcKind::Forward(_) => push(d, self.q),
                ArcKind::Shortcut(id) => {
                    for s in &self.shortcuts[id].sigs {
                        if s.f > 0 {
                            push(d + self.q * s.b, self.q * s.f);
                        }
                    }
                }
                ArcKind::Backward(_) | ArcKind::LocalBack(_) => {}
            }
        }
        let scan = best.map(maxratio::ratio_of);
        match (scan, self.margin_floor.map(maxratio::ratio_of)) {
            (Some(s), Some(f)) => Some(if s > f { s } else { f }),
            (s, f) => s.or(f),
        }
    }
}

/// The probe ratio where the cost lines `hi` and `lo`, as `(f, b)`,
/// intersect, as a positive-denominator fraction. Requires `hi.f > lo.f`.
fn isect(hi: (i128, i128), lo: (i128, i128)) -> (i128, i128) {
    debug_assert!(hi.0 > lo.0);
    (hi.1 - lo.1, hi.0 - lo.0)
}

/// `a ≤ b` for fractions with positive denominators.
fn frac_le(a: (i128, i128), b: (i128, i128)) -> bool {
    debug_assert!(a.1 > 0 && b.1 > 0);
    a.0 * b.1 <= b.0 * a.1
}

/// Rebuilds, in place, the lower envelope of the cost lines `x·f − b` over
/// the closed probe-ratio interval `x ∈ [lo, ∞)` (`lo > 0`, as
/// `(numerator, denominator)`): keeps exactly the lines attaining the
/// pointwise minimum on a nonempty open sub-interval (weak dominance — a
/// line tying the minimum at one point only is dropped), deterministically
/// preferring earlier candidates on exact `(f, b)` ties, and leaves them
/// steepest first, each winning left of its successor, the first at `lo`.
pub(super) fn margin_envelope<L: CostLine>(lines: &mut Vec<L>, lo: (i128, i128)) {
    if lines.len() <= 1 {
        return;
    }
    // Per slope only the lowest line (max `b`) can win; the stable sort
    // keeps the first-seen representative of exact ties.
    lines.sort_by(|a, b| {
        let ((af, ab), (bf, bb)) = (a.counts(), b.counts());
        af.cmp(&bf).then(bb.cmp(&ab))
    });
    lines.dedup_by(|cur, kept| cur.counts().0 == kept.counts().0);
    // Steepest-first hull scan, in place: `lines[..kept]` is the hull so
    // far, each line winning an interval left of its successor's; a line
    // whose takeover point is not strictly right of its predecessor's
    // takeover never wins anywhere.
    lines.reverse();
    let mut kept = 0;
    for i in 0..lines.len() {
        let line = lines[i];
        while kept >= 2
            && frac_le(
                isect(lines[kept - 1].counts(), line.counts()),
                isect(lines[kept - 2].counts(), lines[kept - 1].counts()),
            )
        {
            kept -= 1;
        }
        lines[kept] = line;
        kept += 1;
    }
    lines.truncate(kept);
    // Clip at `lo`: leading (steepest) lines already overtaken there never
    // win on the closed interval.
    let mut start = 0;
    while start + 1 < lines.len()
        && frac_le(isect(lines[start].counts(), lines[start + 1].counts()), lo)
    {
        start += 1;
    }
    lines.drain(..start);
}

/// Whether the line `x·f − b` is strictly below `envelope` (as
/// [`margin_envelope`] leaves one) somewhere on `[lo, ∞)` — exactly when
/// inserting it would keep it. Exact `(f, b)` duplicates cannot win, so
/// label-correcting passes cannot cycle through zero-cost loops. Reads the
/// counts only and allocates nothing: the line minus the envelope is
/// convex, with its minimum where the envelope's slope falls below `f`.
fn can_win(envelope: &[TreeLine], f: i128, b: i128, lo: (i128, i128)) -> bool {
    let Some(j) = envelope.iter().position(|l| l.f <= f) else {
        // Flatter than every line: it wins right of the last breakpoint.
        return true;
    };
    let next = envelope[j];
    if next.f == f {
        return b > next.b;
    }
    // Steeper than `next` and flatter than the line before it: the two
    // meet where it is lowest against them. Steepest of all: at `lo`,
    // where the first line is the envelope.
    let (num, den) = match j.checked_sub(1) {
        Some(i) => isect(envelope[i].counts(), next.counts()),
        None => lo,
    };
    num * f - den * b < num * next.f - den * next.b
}
