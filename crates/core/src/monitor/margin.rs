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
//! cycle a *yes* finds, and stops at the first *no* — two to four seeded
//! Bellman–Ford probes over the live arcs, not a bisection.
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
//! ([`IncrementalChecker::enable_margin_tracking`]): the fold is a few
//! hundred microseconds on a 500-event window, but growing the envelopes
//! makes a tracked prune several times the work of an untracked one
//! (1.2–2.2 ms against 0.2–0.5 ms at horizon 256).

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

/// A margin signature *while a prune condenses the boundary*: the counts
/// and boundary steps that every envelope and junction decision reads,
/// plus a link to how the path was put together. Copying one copies no
/// path; only the signatures that survive onto a [`ShortcutInfo`] are
/// expanded into a [`MarginSig`] ([`Sig::materialize`]).
#[derive(Clone, Copy)]
pub(super) struct Sig<'a> {
    f: i128,
    b: i128,
    /// First and last step of the path (`None` for the empty path).
    first: Option<CycleStep>,
    last: Option<CycleStep>,
    path: SigPath<'a>,
}

/// How a [`Sig`]'s path is spelled out.
#[derive(Clone, Copy)]
pub(super) enum SigPath<'a> {
    Empty,
    Step(CycleStep),
    /// A signature an earlier prune stored.
    Stored(&'a MarginSig),
    /// `left · joint · right`, at this index of the prune's [`SigArena`].
    Concat(usize),
}

/// The concatenations one prune makes: `(left, joint process, right)`.
pub(super) type SigArena<'a> = Vec<(SigPath<'a>, Option<ProcessId>, SigPath<'a>)>;

impl<'a> Sig<'a> {
    fn empty() -> Sig<'a> {
        Sig {
            f: 0,
            b: 0,
            first: None,
            last: None,
            path: SigPath::Empty,
        }
    }

    fn step(f: i128, b: i128, step: CycleStep) -> Sig<'a> {
        Sig {
            f,
            b,
            first: Some(step),
            last: Some(step),
            path: SigPath::Step(step),
        }
    }

    pub(super) fn stored(sig: &'a MarginSig) -> Sig<'a> {
        Sig {
            f: sig.f,
            b: sig.b,
            first: sig.path.steps.first().copied(),
            last: sig.path.steps.last().copied(),
            path: SigPath::Stored(sig),
        }
    }

    /// Concatenates two path signatures meeting at the vertex with process
    /// `joint` (`None` when `self` is empty — the meeting vertex is the
    /// composite's start and stays excluded from the interior). Returns
    /// `None` when the junction would immediately reverse one message —
    /// see [`step_reverses`].
    pub(super) fn concat(
        &self,
        joint: Option<ProcessId>,
        d: &Sig<'a>,
        arena: &mut SigArena<'a>,
    ) -> Option<Sig<'a>> {
        if let (Some(last), Some(first)) = (&self.last, &d.first) {
            if step_reverses(last, first) {
                return None;
            }
        }
        arena.push((self.path, joint, d.path));
        Some(Sig {
            f: self.f + d.f,
            b: self.b + d.b,
            first: self.first.or(d.first),
            last: d.last.or(self.last),
            path: SigPath::Concat(arena.len() - 1),
        })
    }

    /// Spells the path out: its steps and interior processes.
    pub(super) fn materialize(&self, arena: &SigArena<'a>) -> MarginSig {
        enum Item<'a> {
            Path(SigPath<'a>),
            Joint(ProcessId),
        }
        let mut path = Expansion::default();
        let mut todo = vec![Item::Path(self.path)];
        while let Some(item) = todo.pop() {
            match item {
                Item::Joint(p) => path.procs.push(p),
                Item::Path(SigPath::Empty) => {}
                Item::Path(SigPath::Step(s)) => path.steps.push(s),
                Item::Path(SigPath::Stored(sig)) => {
                    path.steps.extend_from_slice(&sig.path.steps);
                    path.procs.extend_from_slice(&sig.path.procs);
                }
                Item::Path(SigPath::Concat(i)) => {
                    let (left, joint, right) = arena[i];
                    todo.push(Item::Path(right));
                    todo.extend(joint.map(Item::Joint));
                    todo.push(Item::Path(left));
                }
            }
        }
        MarginSig {
            f: self.f,
            b: self.b,
            path,
        }
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

    /// The parametric companion of a prune's lex shortest-path trees: per
    /// landing and exit of `cut`, the signature envelope of *all* paths
    /// `landing ⇝ head(exit)` (internal signature labels extended by the
    /// exit arc), over probe ratios at or above the just-folded floor.
    ///
    /// While a tree grows its signatures are links; only the few that
    /// reach an exit are spelled out, and the links of one landing are
    /// dropped before the next landing's are made.
    pub(super) fn exit_envelopes(&self, cut: &Cut) -> Vec<Vec<Vec<MarginSig>>> {
        let mut links: SigArena = Vec::new();
        let mut exit_sigs = Vec::with_capacity(cut.landings.len());
        for &start in &cut.landings {
            links.clear();
            let labels = self.margin_sig_sssp(cut, start, &mut links);
            let mut per_exit = Vec::with_capacity(cut.exits.len());
            for &b in &cut.exits {
                let exit_arc = self.tg.arcs()[b];
                let mut cands = Vec::new();
                for l in &labels[exit_arc.from - cut.base] {
                    let joint = l.first.map(|_| self.proc_of[exit_arc.from - cut.base]);
                    for d in self.arc_sigs(exit_arc.kind) {
                        cands.extend(l.concat(joint, &d, &mut links));
                    }
                }
                let envelope = margin_envelope(cands, cut.floor);
                per_exit.push(envelope.iter().map(|s| s.materialize(&links)).collect());
            }
            exit_sigs.push(per_exit);
        }
        exit_sigs
    }

    /// Signature-envelope shortest paths from `start` over the cut's
    /// internal arcs — the parametric companion of
    /// [`IncrementalChecker::seeded_sssp`]: instead of the one lex-optimal
    /// path at `Ξ`, every node keeps the lower envelope of all incoming
    /// path signatures over probe ratios at or above the margin floor.
    ///
    /// Terminates because an insert only succeeds when a node's envelope
    /// strictly improves on some open sub-interval, and prefix cycles cost
    /// `≥ 0` everywhere on it (their ratios were folded into the floor
    /// right before condensation), so lapped signatures never survive the
    /// envelope.
    fn margin_sig_sssp<'a>(
        &'a self,
        cut: &Cut,
        start: usize,
        arena: &mut SigArena<'a>,
    ) -> Vec<Vec<Sig<'a>>> {
        let (base, floor) = (cut.base, cut.floor);
        let arcs = self.tg.arcs();
        let mut labels: Vec<Vec<Sig>> = vec![Vec::new(); cut.w - base];
        labels[start - base] = vec![Sig::empty()];
        let mut rounds: usize = 0;
        loop {
            let mut changed = false;
            for &ai in cut.internal.iter().rev() {
                let arc = arcs[ai];
                let (from, to) = (arc.from - base, arc.to - base);
                // A self-loop only laps a prefix cycle (see above).
                if from == to || labels[from].is_empty() {
                    continue;
                }
                let (sources, target) = if from < to {
                    let (lo, hi) = labels.split_at_mut(to);
                    (&lo[from], &mut hi[0])
                } else {
                    let (lo, hi) = labels.split_at_mut(from);
                    (&hi[0], &mut lo[to])
                };
                for l in sources {
                    let joint = l.first.map(|_| self.proc_of[from]);
                    for d in self.arc_sigs(arc.kind) {
                        // A dominated line never wins anywhere: skip it
                        // before it costs an arena link.
                        if dominated(target, l.f + d.f, l.b + d.b) {
                            continue;
                        }
                        if let Some(cand) = l.concat(joint, &d, arena) {
                            changed |= margin_envelope_insert(target, cand, floor);
                        }
                    }
                }
            }
            if !changed {
                return labels;
            }
            rounds += 1;
            assert!(
                rounds <= 100_000,
                "internal error: margin signature envelopes failed to converge"
            );
        }
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

/// The probe ratio where the cost lines of `hi` and `lo` intersect, as a
/// positive-denominator fraction. Requires `hi.f > lo.f`.
fn sig_isect(hi: &Sig, lo: &Sig) -> (i128, i128) {
    debug_assert!(hi.f > lo.f);
    (hi.b - lo.b, hi.f - lo.f)
}

/// `a ≤ b` for fractions with positive denominators.
fn frac_le(a: (i128, i128), b: (i128, i128)) -> bool {
    debug_assert!(a.1 > 0 && b.1 > 0);
    a.0 * b.1 <= b.0 * a.1
}

/// Rebuilds the lower envelope of the cost lines `x·f − b` over the closed
/// probe-ratio interval `x ∈ [lo, ∞)` (`lo > 0`, as `(numerator,
/// denominator)`): keeps exactly the signatures attaining the pointwise
/// minimum on a nonempty open sub-interval (weak dominance — a line tying
/// the minimum at one point only is dropped), deterministically preferring
/// earlier candidates on exact `(f, b)` ties.
pub(super) fn margin_envelope<'a>(mut lines: Vec<Sig<'a>>, lo: (i128, i128)) -> Vec<Sig<'a>> {
    if lines.len() <= 1 {
        return lines;
    }
    // Per slope only the lowest line (max `b`) can win; the stable sort
    // keeps the first-seen representative of exact ties.
    lines.sort_by(|a, b| a.f.cmp(&b.f).then(b.b.cmp(&a.b)));
    lines.dedup_by(|cur, kept| cur.f == kept.f);
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
                sig_isect(&lines[kept - 1], &line),
                sig_isect(&lines[kept - 2], &lines[kept - 1]),
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
    while start + 1 < lines.len() && frac_le(sig_isect(&lines[start], &lines[start + 1]), lo) {
        start += 1;
    }
    lines.drain(..start);
    lines
}

/// Whether some line of `sigs` costs no more than `x·f − b` at every
/// `x > 0` — such a candidate (exact duplicates included) never improves
/// the envelope.
fn dominated(sigs: &[Sig], f: i128, b: i128) -> bool {
    sigs.iter().any(|s| s.f <= f && s.b >= b)
}

/// Envelope-inserts `cand` into `sigs`; returns whether `cand` survived
/// (improved the envelope somewhere on `[lo, ∞)`). Exact `(f, b)`
/// duplicates keep the incumbent, so label-correcting passes cannot cycle
/// through zero-cost loops.
fn margin_envelope_insert<'a>(sigs: &mut Vec<Sig<'a>>, cand: Sig<'a>, lo: (i128, i128)) -> bool {
    let key = (cand.f, cand.b);
    if dominated(sigs, cand.f, cand.b) {
        return false;
    }
    let mut lines = std::mem::take(sigs);
    lines.push(cand);
    *sigs = margin_envelope(lines, lo);
    sigs.iter().any(|s| (s.f, s.b) == key)
}
