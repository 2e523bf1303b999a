//! The live synchrony margin, and what keeps it exact across prunes.
//!
//! # Live synchrony margin
//!
//! Beyond the binary verdict, the monitor can report how *close* the
//! execution is to the tripwire: [`IncrementalChecker::current_margin`]
//! returns the exact maximum `|Z−|/|Z+|` over all relevant cycles so far
//! (the same value [`crate::check::max_relevant_cycle_ratio`] computes
//! batch-side), and [`IncrementalChecker::margin_upper_bound`] an upper
//! bound that runs no repair. There is one margin algorithm, and every
//! margin is the kept one.
//!
//! A **tracking** monitor keeps its margin as appends come in: from its
//! first append ([`IncrementalChecker::enable_margin_tracking`]), or from
//! its first prune. Beside its potentials at `Ξ` it keeps a second
//! column of integer labels, feasible for the weights at its current
//! margin `r = B/F` (`+B` per forward message, `−F` per backward one,
//! starting at `1/1`) — a potential that says "no cycle above `r`". As the
//! labels at `Ξ` do, each append gives its receive the earliest label the
//! receive's window allows, and only an empty window caps the label and
//! repairs from the receive on the same kernel (Ramalingam et al. 1999).
//! A repair that closes a cycle has found one above `r`: its labels are
//! put back as they were (the kernel hands back what it moved), `r` rises to **that
//! cycle's own ratio** and the repair is retried from the same receive.
//! Raising `r` only loosens constraints — every arc weight grows with `r`
//! — so the old labels, scaled by `F'/F` and floored, are feasible at the
//! new `r` everywhere but out of the receive (the parametric argument of
//! Young, Tarjan & Orlin 1991; flooring keeps integer weights satisfied).
//! When the retries stop, `r` is attained (by the last cycle that raised
//! it) and nothing lies above it: it *is* the margin, read in `O(1)` at
//! any query. The cycle that last raised `r` is the margin's witness,
//! expanded on demand while its arcs are live and before a prune
//! renumbers them. At `r = 1` "is there a cycle of ratio exactly `1`, or
//! none" is the ratio-one pass over the kept labels (the `ratio_one`
//! module). On the `sweep_band` workload a run of 500 events takes about
//! nine repairs and two or three raises (`crates/bench/tests/margin_work.rs`
//! pins the counts), and its closing query runs none.
//!
//! Where the margin was not kept, it is **replayed**
//! ([`KeptMargin::replay`]): the same step, event by event in id order,
//! over the finished arena of a monitor that has pruned nothing, each step
//! reading only the arcs that touch no later event. Out-lists hold arcs in
//! insertion order, so the arcs a step leaves out trail every list it
//! scans, and the replay repeats the appends' run exactly — the same
//! labels, raises and witness. An **untracked** monitor answers
//! `current_margin` with a replay into scratch (its bound is an `O(arcs)`
//! scan of the potentials at `Ξ`); a monitor that starts keeping late — at
//! `enable_margin_tracking`, or at its first prune — replays into its own
//! kept column and goes on from there; and the batch
//! [`crate::check::max_relevant_cycle_ratio`] replays the traversal graph
//! of an execution graph, whose arcs lie in another order (message arcs
//! first): the same margin, not necessarily raised through the same
//! cycles, and only the ratio is reported.
//!
//! # Signature envelopes
//!
//! A pruned monitor stays exact through per-shortcut **signature
//! envelopes**: each boundary shortcut keeps the lower envelope of its
//! crossing paths' `x·F − B` cost lines over the ratios at or above the
//! margin when it was condensed (margins only grow, and a tracking
//! monitor's kept `r` is that margin, so nothing below it is ever asked
//! again), and the kept labels charge a shortcut the cheapest of its lines
//! at `r`, the first of equals (`cheapest_line`), and a raise counts that
//! line, so a cycle's counts and witness come from the paths actually
//! used. The probe weights thus see the exact minimum crossing cost, not
//! just the `Ξ`-optimal path the violation machinery stores. Every prune
//! grows the envelopes, so every pruned window answers its margin. On the
//! bounded served documents (horizon 256, one prune of ≈8 landings and
//! 759 internal arcs each) a prune takes about 0.14 ms on a shared
//! 2-hardware-thread host: each landing's lex and envelope passes run
//! over a certified window of the prefix (the `window` module), 46 of its
//! 257 events on average, and take 0.020 and 0.028, the windows' index
//! and bound 0.015 and their certificates 0.002; the composition of the
//! condensed paths takes 0.040 and the exit spelling 0.017.
//!
//! # The envelope pass
//!
//! Per boundary landing a prune grows the envelopes of the condemned
//! prefix with one pass, `margin_sig_sssp`: a parametric shortest-path
//! computation started from the tree that is optimal at one parameter
//! value (Young, Tarjan & Orlin 1991) — the landing's lex tree, built a
//! moment earlier, is that tree at `x = Ξ` — and then run as a FIFO
//! worklist over the CSR of the landing's window, re-scanning only the
//! events whose envelope changed (Cherkassky & Goldberg 1999, the
//! discipline of the crate's kernel). The pass lives on flat columns. A CSR entry carries
//! what a scan reads: the head and the arc's lines (a plain arc's `(f, b)`,
//! or a shortcut's id). A slot (`SlotLines`) holds its first line in
//! place, and only a slot of two or more lines — about one in ten —
//! spills its envelope to a run, kept steepest first, so a merge is one
//! hull scan and no sort. A candidate line is turned away on its counts
//! alone, by the exact, allocation-free test of whether it wins somewhere
//! on `[floor, ∞)` (`can_win`) — against a slot's one line, read in place,
//! a slope test and one compare at the floor — and only a line that wins
//! has its path's boundary steps read, a link made and its slot merged.
//! Most scans lose that way, five to six in ten inside the certified
//! windows of the bounded served documents. The scratch is the monitor's
//! (`EnvelopeScratch`), so a tree makes no per-node allocation.
//! `crates/bench/tests/prune_work.rs` pins the pass's work by count;
//! `monitor/tests.rs` keeps the cold, round-based pass it replaced as a
//! differential oracle.

use std::collections::VecDeque;

use abc_rational::{BigInt, Ratio};

use crate::check::CheckError;
use crate::cycle::{CycleStep, ShadowEdge, WitnessSummary};
use crate::graph::ProcessId;
use crate::negcycle::NegCycle;
use crate::traversal::{Arc, ArcKind, TraversalGraph};

use super::prune::{Cut, ShortcutTable};
use super::ratio_one::tight_cycle_exists;
use super::window::Window;
use super::witness::{Part, PathRef, Spelling, Step};
use super::{effective_send, narrow, IncrementalChecker, MarginReport};

static OBS_PROBES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.margin_probes");
/// Kernel runs on a tracking monitor's kept labels (one per empty window
/// at the kept margin: an append's first try, or its retry after a raise),
/// and the raises among them. Their relaxations are not the verdict's and
/// stay out of [`super::MonitorStats::relaxations`].
static OBS_MARGIN_REPAIRS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.margin_repairs");
static OBS_MARGIN_RAISES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.margin_raises");
// What the envelope passes of tracked prunes did, summed over landings:
// arena links made and out-arc scans done, beside the slots each pass
// reached (prefix events and exit heads) and the internal arcs it ran over
// (`crates/bench/tests/prune_work.rs` bounds the first two by the last
// two).
static OBS_SIG_LINKS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_links");
static OBS_SIG_SCANS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_scans");
static OBS_SIG_NODES: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_nodes");
static OBS_SIG_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_arcs");
/// Lines a pass let past its one-compare rejection into the full offer
/// (the reversal test, a link, an insert); `prune_work.rs` bounds them by
/// the scans.
static OBS_SIG_OFFERS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.prune_sig_offers");
/// Junctions a pass refused for reversing a message although their line
/// could win: the one decision that reads *which* path holds a line.
static OBS_SIG_REFUSALS: abc_obs::CounterDef =
    abc_obs::CounterDef::new("monitor.prune_sig_refusals");

/// One margin *signature* of a condensed settled-region path: its forward
/// and backward message counts, plus where the [`ShortcutTable`] keeps the
/// path, to reproduce a witness through it. While the `weight`/`path` of a
/// shortcut describe the one path that is lex-optimal at `Ξ`, margin
/// probes evaluate cost lines `x·f − b` at probe ratios `x < Ξ`, where a
/// different crossing path may be cheaper — so margin tracking keeps, per
/// condensed arc, the *lower envelope* of all crossing paths' cost lines
/// over the closed interval `[floor, ∞)` of still-reachable probe ratios.
/// Often the lex path is one of them; its signature then shares it.
#[derive(Clone, Copy, Debug)]
pub(super) struct MarginSig {
    /// Forward message steps along the path.
    pub(super) f: i128,
    /// Backward message steps along the path.
    pub(super) b: i128,
    pub(super) path: PathRef,
}

/// A margin signature *while a prune composes shortcuts and rows*: the
/// counts and boundary steps that every envelope and junction decision
/// reads, plus how its path is put together. Copying one copies no path;
/// only the signatures that survive onto a shortcut are spelled out.
#[derive(Clone, Copy, Debug)]
pub(super) struct Sig {
    pub(super) f: i128,
    pub(super) b: i128,
    /// The last step of the path (no path here is empty).
    last: CycleStep,
    pub(super) path: Spelling,
}

impl Sig {
    /// The signature of a plain arc's one step.
    fn step(f: i128, b: i128, step: Step) -> Sig {
        Sig {
            f,
            b,
            last: step.step,
            path: Spelling {
                head: Part::Step(step),
                tail: None,
            },
        }
    }

    /// A signature an earlier prune, or this prune's tree, stored.
    pub(super) fn stored(table: &ShortcutTable, sig: &MarginSig) -> Sig {
        Sig {
            f: sig.f,
            b: sig.b,
            last: table.path_ends(sig.path).1.step,
            path: Spelling::stored(sig.path),
        }
    }

    /// `self · tail`, meeting at the event `tail` starts at. Returns `None`
    /// when the junction would immediately reverse one message — see
    /// [`step_reverses`].
    pub(super) fn concat(&self, table: &ShortcutTable, tail: &MarginSig) -> Option<Sig> {
        debug_assert!(
            self.path.tail.is_none(),
            "a prune composes two paths, not three"
        );
        let (first, last) = table.path_ends(tail.path);
        if step_reverses(&self.last, &first.step) {
            return None;
        }
        Some(Sig {
            f: self.f + tail.f,
            b: self.b + tail.b,
            last: last.step,
            path: Spelling {
                head: self.path.head,
                tail: Some(tail.path),
            },
        })
    }
}

/// Do consecutive walk steps `a` then `b` immediately re-traverse one
/// message in opposite directions? Such walks are excluded from cycles,
/// and dropping them loses no optimal path at ratios `≥ 1`: contracting
/// the pair yields a valid walk whose cost is lower by `x − 1 ≥ 0`, and
/// that walk is explored on its own.
pub(super) fn step_reverses(a: &CycleStep, b: &CycleStep) -> bool {
    match (a.edge, b.edge) {
        (ShadowEdge::Message(m1), ShadowEdge::Message(m2)) => m1 == m2 && a.against != b.against,
        _ => false,
    }
}

/// A cost line `x·f − b`, as the envelope rule reads it.
pub(super) trait CostLine: Copy {
    /// Forward and backward message counts `(f, b)`.
    fn counts(&self) -> (i128, i128);
}

impl CostLine for Sig {
    fn counts(&self) -> (i128, i128) {
        (self.f, self.b)
    }
}

/// The cost lines an arc extends a path by, as a scan reads them off the
/// cut's CSR: a plain arc's one `(f, b)`, or the stored envelope of a
/// shortcut, by table id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum ArcLines {
    Plain { f: u8, b: u8 },
    Shortcut(u32),
}

impl ArcLines {
    /// What a CSR entry built for the lex pass alone carries: that pass
    /// reads no lines (see [`super::repair::LexArcs::index`]).
    pub(super) const UNREAD: ArcLines = ArcLines::Plain { f: 0, b: 0 };

    #[inline]
    pub(super) fn of(kind: ArcKind) -> ArcLines {
        match kind.counts() {
            // A plain step counts at most one message.
            Ok((f, b)) => ArcLines::Plain {
                f: u8::from(f == 1),
                b: u8::from(b == 1),
            },
            Err(id) => ArcLines::Shortcut(
                u32::try_from(id).expect("a shortcut table holds fewer than 2^32 paths"),
            ),
        }
    }
}

/// One line of a prefix event's envelope while a landing's tree grows: the
/// counts of a path `landing ⇝ event` and the link that spells it out.
#[derive(Clone, Copy, Debug)]
struct TreeLine {
    f: i128,
    b: i128,
    /// Index into [`EnvelopeScratch::links`]; [`ROOT`] for the empty path.
    link: u32,
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
    parent: u32,
    arc: u32,
    pick: u32,
}

/// The link of the empty path, at the landing itself.
const ROOT: u32 = u32::MAX;

/// One slot's envelope. Its first (steepest) line sits in place: the
/// slot's only line when `len` is 1, as it is for ≈90% of the slots a pass
/// reaches. From two lines on, the whole envelope sits in a run of
/// [`EnvelopeScratch::lines`] (the first line there too), with room for
/// `cap` lines. Forty-eight bytes, no padding
/// (`tests::an_envelope_slot_is_48_bytes_and_a_csr_entry_16` pins it): a
/// scan that loses reads this and the CSR entry, nothing else.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct SlotLines {
    f: i128,
    b: i128,
    link: u32,
    /// How many lines the envelope holds; `0` for a slot not reached.
    len: u32,
    start: u32,
    cap: u32,
}

/// The envelope pass's scratch, owned by the monitor and kept across
/// landings, prunes and [`IncrementalChecker::reset`]: a landing's tree
/// makes no per-node allocation. Slots are the cut's prefix events
/// (windowed by its `base`) followed by one per exit arc, the exit's live
/// head as seen from this landing. Nothing in it outlives a prune.
#[derive(Clone, Debug, Default)]
pub(super) struct EnvelopeScratch {
    slots: Vec<SlotLines>,
    /// The envelopes of two or more lines, steepest first, one run per
    /// slot; a run that outgrows its room moves to the end.
    lines: Vec<TreeLine>,
    links: Vec<TreeLink>,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// One insert's old lines and candidate, while the rule sorts them.
    merging: Vec<TreeLine>,
    /// A tree-order walk's pending nodes, or the links of a path being
    /// spelled, last first.
    chain: Vec<usize>,
    /// An exit's envelope, spelled.
    spelled: Vec<MarginSig>,
    /// Junctions the landing's pass refused although their line could win
    /// (see [`IncrementalChecker::margin_sig_sssp`]).
    pub(super) refused: usize,
    /// Lines the landing's pass let past the one-compare rejection.
    offers: u64,
}

impl EnvelopeScratch {
    /// What a reset keeps (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        // Exhaustive on purpose: a new buffer is counted or does not compile.
        let EnvelopeScratch {
            slots,
            lines,
            links,
            queue,
            queued,
            merging,
            chain,
            spelled,
            refused: _,
            offers: _,
        } = self;
        slots.capacity()
            + lines.capacity()
            + links.capacity()
            + queue.capacity()
            + queued.capacity()
            + merging.capacity()
            + chain.capacity()
            + spelled.capacity()
    }

    /// Empties every slot for the next landing's tree over `slots` slots.
    fn arm(&mut self, slots: usize) {
        self.lines.clear();
        self.links.clear();
        self.queue.clear();
        self.slots.clear();
        self.slots.resize(slots, SlotLines::default());
        self.queued.clear();
        self.queued.resize(slots, false);
        self.refused = 0;
        self.offers = 0;
    }

    /// Line `k` of the envelope `slot` holds.
    #[inline]
    fn line(&self, slot: &SlotLines, k: usize) -> TreeLine {
        if k == 0 {
            TreeLine {
                f: slot.f,
                b: slot.b,
                link: slot.link,
            }
        } else {
            self.lines[slot.start as usize + k]
        }
    }

    /// The `(f, b)` counts of the lines slot `slot` holds, steepest first.
    pub(super) fn lines(&self, slot: usize) -> impl Iterator<Item = (i128, i128)> + '_ {
        let s = self.slots[slot];
        (0..s.len as usize).map(move |k| {
            let line = self.line(&s, k);
            (line.f, line.b)
        })
    }

    /// Whether slot `slot` has a line.
    #[cfg(test)]
    pub(super) fn reached(&self, slot: usize) -> bool {
        self.slots[slot].len > 0
    }

    /// Whether the line `x·f − b` would be kept by slot `to` ([`can_win`]).
    /// Against one line — most slots hold one — the rule reads the slot's
    /// in-place line and no run: a slope test and one compare at the floor.
    #[inline(always)]
    fn can_win(&self, to: usize, f: i128, b: i128, lo: (i128, i128)) -> bool {
        let s = &self.slots[to];
        match s.len {
            0 => true,
            1 => can_win(std::slice::from_ref(&self.line(s, 0)), f, b, lo),
            len => {
                let start = s.start as usize;
                can_win(&self.lines[start..start + len as usize], f, b, lo)
            }
        }
    }

    /// Envelope-inserts the line `(f, b, link)`, which [`Self::can_win`],
    /// into `slot`.
    #[inline]
    fn insert(&mut self, slot: usize, f: i128, b: i128, link: u32, lo: (i128, i128)) {
        let s = &mut self.slots[slot];
        if s.len == 0 {
            // Most inserts give a slot its first line, in place.
            (s.f, s.b, s.link, s.len) = (f, b, link, 1);
            return;
        }
        self.merge(slot, &TreeLine { f, b, link }, lo);
    }

    /// [`Self::insert`] into a slot that has lines already.
    fn merge(&mut self, slot: usize, cand: &TreeLine, lo: (i128, i128)) {
        let s = self.slots[slot];
        let first = self.line(&s, 0);
        let old = if s.len == 1 {
            std::slice::from_ref(&first)
        } else {
            &self.lines[s.start as usize..(s.start + s.len) as usize]
        };
        // The envelope is steepest first, one line per slope: `cand` goes
        // before the first line no steeper than it, in place of one of its
        // own slope, which it beats (it can win). The hull scan needs no
        // sort then.
        let at = old.iter().position(|l| l.f <= cand.f).unwrap_or(old.len());
        let rest = at + usize::from(old.get(at).is_some_and(|l| l.f == cand.f));
        self.merging.clear();
        self.merging.extend_from_slice(&old[..at]);
        self.merging.push(*cand);
        self.merging.extend_from_slice(&old[rest..]);
        hull(&mut self.merging, lo);
        debug_assert!(self.merging.iter().any(|l| l.link == cand.link));
        let len = self.merging.len();
        let head = self.merging[0];
        let mut s = SlotLines {
            f: head.f,
            b: head.b,
            link: head.link,
            len: narrow(len),
            ..s
        };
        if len >= 2 {
            if len > s.cap as usize {
                // A run that moves gets room to double.
                s.start = narrow(self.lines.len());
                s.cap = narrow(2 * len);
                self.lines.resize(self.lines.len() + 2 * len, head);
            }
            let start = s.start as usize;
            self.lines[start..start + len].copy_from_slice(&self.merging);
        }
        self.slots[slot] = s;
    }
}

/// What a tracking monitor keeps of its margin (module docs). Re-armed by
/// [`IncrementalChecker::reset`], which keeps its capacity.
#[derive(Clone, Debug)]
pub(super) struct KeptMargin {
    /// One label per live event while tracking (empty otherwise), feasible
    /// for the probe weights at `ratio` whenever the verdict is open.
    pub(super) pot: Vec<i128>,
    /// `(B, F)`: the counts of the cycle that last raised the margin, or
    /// `(1, 1)` while none has. Every later prune's signature envelopes
    /// range over the ratios at or above it.
    pub(super) ratio: (i128, i128),
    /// That cycle, as `(arc, picked line)` pairs, while its arcs are live
    /// (empty once expanded into `witness`, and at ratio `1`)...
    cycle: Vec<(usize, usize)>,
    /// ...and its witness summary, expanded before a prune renumbers them.
    witness: Option<WitnessSummary>,
    /// Whether a cycle of ratio exactly `1` was in a window a prune has
    /// condensed since: the margin is then `1` even if none is live.
    one: bool,
    /// The most message steps one line of any shortcut arc the window has
    /// held stands for (a plain arc's: `1`), for the overflow guard.
    mass: i128,
    /// Set when the guard failed: the labels are abandoned, the margin is
    /// [`CheckError::GraphTooLarge`] and prunes are declined until reset.
    overflowed: bool,
    /// What the kernel moved in the current repair (scratch).
    moved: Vec<(usize, i128)>,
}

impl Default for KeptMargin {
    fn default() -> KeptMargin {
        KeptMargin {
            pot: Vec::new(),
            ratio: (1, 1),
            cycle: Vec::new(),
            witness: None,
            one: false,
            mass: 1,
            overflowed: false,
            moved: Vec::new(),
        }
    }
}

impl KeptMargin {
    /// Back to the state of a new monitor, every buffer keeping its
    /// capacity.
    pub(super) fn rearm(&mut self) {
        // Exhaustive on purpose: a new field is re-armed or does not compile.
        let KeptMargin {
            pot,
            ratio,
            cycle,
            witness,
            one,
            mass,
            overflowed,
            moved,
        } = self;
        pot.clear();
        *ratio = (1, 1);
        cycle.clear();
        *witness = None;
        *one = false;
        *mass = 1;
        *overflowed = false;
        moved.clear();
    }

    /// What a reset keeps (see [`IncrementalChecker::capacity`]).
    pub(super) fn capacity(&self) -> usize {
        self.pot.capacity() + self.cycle.capacity() + self.moved.capacity()
    }

    /// Lets the guard know of a shortcut arc's lines.
    pub(super) fn carries(&mut self, sigs: &[MarginSig]) {
        let heaviest = sigs.iter().map(|s| s.f + s.b).max();
        self.mass = self.mass.max(heaviest.unwrap_or(0));
    }

    /// Whether the labels are kept and fit on a monitor that has appended
    /// `size` events and arcs.
    fn usable(&self, size: usize) -> bool {
        !self.overflowed && kept_labels_fit(self.ratio, self.mass, size)
    }

    /// Whether a cycle above `1` has raised the margin.
    fn above_one(&self) -> bool {
        self.ratio.0 > self.ratio.1
    }

    /// The kept step of receive `recv`, the receive of a message sent at
    /// `from` (`effective`: one that carries arcs), on a monitor that has
    /// appended `size` events and arcs (module docs): the earliest label
    /// the receive's window allows at the kept ratio, or a repair from it —
    /// raising the ratio to the cycle the repair closes, and retrying at
    /// the new ratio, until one converges. Reads only the arcs of `tg` that
    /// are `live`: all of them as a monitor appends, the ones that touch no
    /// later event as [`KeptMargin::replay`] goes.
    #[inline(always)]
    fn step(
        &mut self,
        kernel: &mut NegCycle,
        tg: &TraversalGraph,
        shortcuts: &ShortcutTable,
        (from, recv, effective): (usize, usize, bool),
        size: usize,
        live: impl Fn(Arc) -> bool,
    ) {
        let base = tg.base();
        let (u, v) = (from - base, recv - base);
        let arcs = tg.arcs();
        loop {
            if !self.usable(size) {
                self.overflowed = true;
                return;
            }
            let ratio = self.ratio;
            let weight = |ai: usize| {
                let arc = arcs[ai];
                live(arc).then(|| kept_weight(arc.kind, ratio, shortcuts))?
            };
            // The window: every out-arc bounds the label from below, the
            // forward arc in from above.
            let mut lower: Option<i128> = None;
            for ai in tg.out_arcs(recv) {
                if let Some(w) = weight(ai) {
                    let bound = self.pot[arcs[ai].to - base] - w;
                    lower = Some(lower.map_or(bound, |l| l.max(bound)));
                }
            }
            let upper = effective.then(|| self.pot[u] + ratio.0);
            match (lower, upper) {
                (Some(lo), Some(up)) if lo > up => self.pot[v] = up,
                // No arc at all leaves any label feasible.
                (lo, up) => {
                    self.pot[v] = lo.or(up).unwrap_or(0);
                    return;
                }
            }
            OBS_MARGIN_REPAIRS.add(1);
            let run = kernel.run(tg, &mut self.pot, [v], weight, Some(&mut self.moved));
            let Some(cycle) = run.cycle else {
                return;
            };
            for &(x, label) in &self.moved {
                self.pot[x] = label;
            }
            // The cycle's own counts, along the lines that made it negative.
            let (mut b, mut f) = (0, 0);
            self.cycle.clear();
            for ai in cycle {
                let (pick, (lf, lb)) = charged_line(shortcuts, arcs[ai].kind, ratio);
                (f, b) = (f + lf, b + lb);
                self.cycle.push((ai, pick));
            }
            debug_assert!(b * ratio.1 - ratio.0 * f >= 1, "closed cycles lie above");
            OBS_MARGIN_RAISES.add(1);
            if !kept_labels_fit((b, f), self.mass, size) {
                self.overflowed = true;
                return;
            }
            for label in &mut self.pot {
                *label = (*label * f).div_euclid(ratio.1);
            }
            self.ratio = (b, f);
            self.witness = None;
        }
    }

    /// Keeps, from a rearmed state, the margin of the finished arena `tg`
    /// that nothing was pruned from, as a monitor that appended its events
    /// would have kept it: [`KeptMargin::step`] event by event in id order,
    /// a receive's send event read off its one [`ArcKind::Backward`]
    /// out-arc, every arc that touches a later event left out. Out-lists
    /// hold arcs in insertion order, so the arcs left out trail every list
    /// the kernel scans, and on a monitor's own arena the replay repeats
    /// its appends' steps exactly: the same labels, raises and cycle. An
    /// init runs no step, as its append runs none. Returns the events and
    /// arcs of `tg`, the size the overflow guard reads.
    pub(super) fn replay(
        &mut self,
        kernel: &mut NegCycle,
        tg: &TraversalGraph,
        shortcuts: &ShortcutTable,
    ) -> usize {
        debug_assert_eq!(tg.base(), 0, "a replay runs over a whole execution");
        let arcs = tg.arcs();
        let mut size = 0;
        for recv in 0..tg.num_live_nodes() {
            self.pot.push(0);
            // The receive's own arcs: its out-arcs to older events (every
            // receive has a local one), and the forward arc of an
            // effective message.
            let (mut own, mut send) = (0, None);
            for ai in tg.out_arcs(recv) {
                let arc = arcs[ai];
                if arc.to < recv {
                    own += 1;
                    if let ArcKind::Backward(_) = arc.kind {
                        send = Some(arc.to);
                    }
                }
            }
            size += 1 + own + usize::from(send.is_some());
            if own == 0 {
                continue;
            }
            let receive = (send.unwrap_or(recv), recv, send.is_some());
            let live = |arc: Arc| arc.from <= recv && arc.to <= recv;
            self.step(kernel, tg, shortcuts, receive, size, live);
        }
        size
    }

    /// The margin these labels keep over `tg`, on a monitor of `size`
    /// events and arcs, without the witness; the guard's failure as
    /// [`CheckError::GraphTooLarge`]. At `1/1` one ratio-one pass tells a
    /// cycle of ratio exactly `1` from none.
    fn margin(
        &self,
        tg: &TraversalGraph,
        shortcuts: &ShortcutTable,
        size: usize,
    ) -> Result<Option<Ratio>, CheckError> {
        if !self.usable(size) {
            return Err(CheckError::GraphTooLarge);
        }
        let exists = self.above_one() || self.one || tight_cycle_exists(tg, shortcuts, &self.pot);
        Ok(exists.then(|| ratio_of(self.ratio)))
    }
}

/// The margin of the batch graph `tg`, built by
/// [`TraversalGraph::from_graph`]: the kept margin replayed over it
/// ([`KeptMargin::replay`]), with an empty shortcut table and no `Ξ` to
/// latch at.
pub(crate) fn batch_margin(tg: &TraversalGraph) -> Result<Option<Ratio>, CheckError> {
    let (mut kept, shortcuts) = (KeptMargin::default(), ShortcutTable::default());
    let size = kept.replay(&mut NegCycle::default(), tg, &shortcuts);
    kept.margin(tg, &shortcuts, size)
}

/// The weight of an arc at the kept ratio `(b, f)`: `+b` forward, `−f`
/// backward, `0` local, and a shortcut's cheapest line (`None`: it carries
/// none, and stands for no path).
#[inline]
pub(super) fn kept_weight(
    kind: ArcKind,
    (b, f): (i128, i128),
    shortcuts: &ShortcutTable,
) -> Option<i128> {
    match kind {
        ArcKind::Forward(_) => Some(b),
        ArcKind::Backward(_) => Some(-f),
        ArcKind::LocalBack => Some(0),
        ArcKind::Shortcut(id) => cheapest_line(shortcuts.sigs(id), b, f).map(|(w, _)| w),
    }
}

/// The line of an arc a raise at the kept ratio `(b, f)` counts, and its
/// counts `(f, b)`: a plain arc's one line, or the shortcut line
/// [`kept_weight`] charged ([`cheapest_line`]).
pub(super) fn charged_line(
    shortcuts: &ShortcutTable,
    kind: ArcKind,
    (b, f): (i128, i128),
) -> (usize, (i128, i128)) {
    match kind.counts() {
        Ok(counts) => (0, counts),
        Err(id) => {
            let sigs = shortcuts.sigs(id);
            let (_, pick) =
                cheapest_line(sigs, b, f).expect("a closed cycle takes no shortcut without lines");
            (pick, (sigs[pick].f, sigs[pick].b))
        }
    }
}

/// The cheapest cost line `p·f − q·b` of `sigs`, and which line it is (the
/// first of equals); `None` for a shortcut without lines.
fn cheapest_line(sigs: &[MarginSig], p: i128, q: i128) -> Option<(i128, usize)> {
    let mut best: Option<(i128, usize)> = None;
    for (pick, sig) in sigs.iter().enumerate() {
        let cost = p * sig.f - q * sig.b;
        if best.is_none_or(|(w, _)| cost < w) {
            best = Some((cost, pick));
        }
    }
    best
}

/// `b/f` as a [`Ratio`].
fn ratio_of((b, f): (i128, i128)) -> Ratio {
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
pub(super) fn kept_labels_fit((b, f): (i128, i128), mass: i128, size: usize) -> bool {
    let bits = |x: u128| 128 - x.leading_zeros();
    let part = bits(b.max(f).unsigned_abs());
    let size = bits(size as u128 + 2);
    2 * part + bits(mass.unsigned_abs()) + 2 * size <= 127
}

/// The steps line `pick` of a live arc begins and ends with: a plain
/// arc's one step, or the ends of the path behind that shortcut line.
#[inline]
pub(super) fn line_ends(table: &ShortcutTable, arc: Arc, pick: usize) -> (CycleStep, CycleStep) {
    match arc.step() {
        Ok(step) => (step, step),
        Err(id) => {
            let (first, last) = table.path_ends(table.sigs(id)[pick].path);
            (first.step, last.step)
        }
    }
}

/// The margin signatures of one live arc whose tail event belongs to
/// `proc`: plain arcs carry their single step, shortcut arcs their stored
/// envelope.
pub(super) fn arc_sigs(
    table: &ShortcutTable,
    arc: Arc,
    proc: ProcessId,
) -> impl Iterator<Item = Sig> + '_ {
    let (own, stored): (Option<Sig>, &[MarginSig]) = match (arc.step(), arc.kind.counts()) {
        (Ok(step), Ok((f, b))) => (Some(Sig::step(f, b, Step { step, proc })), &[]),
        (_, Err(id)) => (None, table.sigs(id)),
        (Err(_), Ok(_)) => unreachable!("an arc with counts is one step"),
    };
    own.into_iter()
        .chain(stored.iter().map(move |s| Sig::stored(table, s)))
}

impl IncrementalChecker {
    /// Signature-envelope shortest paths from `start` over the internal
    /// arcs of window `win` of the cut — the parametric companion of the
    /// lex pass (`LexScratch::run`): instead of the one lex-optimal path
    /// at `Ξ`, every window event keeps the lower envelope of all incoming
    /// path signatures over probe ratios at or above the margin floor, and
    /// so does the live head of every exit arc (the internal envelopes
    /// extended by the exit arc), in the slot after the events.
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
        win: &Window,
        start: usize,
        pred: &[Option<usize>],
        table: &ShortcutTable,
        sc: &mut EnvelopeScratch,
    ) {
        let base = win.base;
        let width = win.width(cut);
        let arcs = self.tg.arcs();
        sc.arm(width + cut.exits.len());
        sc.insert(start - base, 0, 0, ROOT, cut.floor);
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
                let arc = arcs[ai];
                let tail = sc.slots[arc.from - base];
                scans += 1;
                if self.relax_sigs(cut, table, sc, &tail, ai, ArcLines::of(arc.kind), node) {
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
            // `from`'s envelope stays as it is while its out-arcs are
            // scanned: the CSR leaves self-loops out (they only lap a
            // prefix cycle), so every insert goes to another slot.
            let tail = sc.slots[from];
            for o in win.lex.out(from) {
                let to = o.head as usize;
                scans += 1;
                let ai = win.lex.arena[o.rank as usize];
                if self.relax_sigs(cut, table, sc, &tail, ai, o.lines, to) && !sc.queued[to] {
                    sc.queued[to] = true;
                    sc.queue.push_back(to);
                }
            }
        }
        for (bi, &b) in cut.exits.iter().enumerate() {
            let arc = arcs[b];
            let tail = sc.slots[arc.from - base];
            self.relax_sigs(cut, table, sc, &tail, b, ArcLines::of(arc.kind), width + bi);
        }
        let reached = sc.slots.iter().filter(|s| s.len > 0).count();
        OBS_SIG_LINKS.add(sc.links.len() as u64);
        OBS_SIG_SCANS.add(scans);
        OBS_SIG_NODES.add(reached as u64);
        OBS_SIG_ARCS.add(win.lex.num_out() as u64);
        OBS_SIG_OFFERS.add(sc.offers);
        OBS_SIG_REFUSALS.add(sc.refused as u64);
    }

    /// The one relax step of the envelope pass: every line of `tail`, the
    /// envelope at the tail of arena arc `ai`, extended by every line of the
    /// arc, `lines`, is offered to slot `to` — a line that cannot win
    /// there is turned away on its counts alone, before anything about its
    /// path is read. Returns whether `to`'s envelope changed.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn relax_sigs(
        &self,
        cut: &Cut,
        table: &ShortcutTable,
        sc: &mut EnvelopeScratch,
        tail: &SlotLines,
        ai: usize,
        lines: ArcLines,
        to: usize,
    ) -> bool {
        let mut changed = false;
        for k in 0..tail.len as usize {
            let l = sc.line(tail, k);
            match lines {
                ArcLines::Plain { f, b } => {
                    let (f, b) = (l.f + i128::from(f), l.b + i128::from(b));
                    if sc.can_win(to, f, b, cut.floor) {
                        changed |= self.offer_line(cut, table, sc, l.link, (f, b), (ai, 0), to);
                    }
                }
                ArcLines::Shortcut(id) => {
                    for (pick, sig) in table.sigs(id as usize).iter().enumerate() {
                        let (f, b) = (l.f + sig.f, l.b + sig.b);
                        if sc.can_win(to, f, b, cut.floor) {
                            let line = (ai, pick);
                            changed |= self.offer_line(cut, table, sc, l.link, (f, b), line, to);
                        }
                    }
                }
            }
        }
        changed
    }

    /// Offers slot `to` the line of counts `(f, b)` that extends the path
    /// of link `parent` by line `pick` of arena arc `arc`, a line that can
    /// win there; returns whether it was kept. Only here are a path's
    /// boundary steps read, to refuse a junction that reverses a message.
    #[allow(clippy::too_many_arguments)]
    fn offer_line(
        &self,
        cut: &Cut,
        table: &ShortcutTable,
        sc: &mut EnvelopeScratch,
        parent: u32,
        (f, b): (i128, i128),
        (arc, pick): (usize, usize),
        to: usize,
    ) -> bool {
        sc.offers += 1;
        if let Some(k) = sc.links.get(parent as usize) {
            let arcs = self.tg.arcs();
            let (_, last) = line_ends(table, arcs[k.arc as usize], k.pick as usize);
            let (first, _) = line_ends(table, arcs[arc], pick);
            if step_reverses(&last, &first) {
                sc.refused += 1;
                return false;
            }
        }
        let link = narrow(sc.links.len());
        debug_assert_ne!(link, ROOT);
        sc.links.push(TreeLink {
            parent,
            arc: narrow(arc),
            pick: narrow(pick),
        });
        sc.insert(to, f, b, link, cut.floor);
        true
    }

    /// Spells out, into `table`'s pool, what the landing whose tree `sc`
    /// holds over window `win` sees behind exit `bi` of `cut`: the envelope
    /// of all its paths to the exit's head. A path equal to `share`'s steps
    /// is `share`.
    pub(super) fn exit_envelope<'s>(
        &self,
        cut: &Cut,
        win: &Window,
        sc: &'s mut EnvelopeScratch,
        bi: usize,
        table: &mut ShortcutTable,
        share: Option<PathRef>,
    ) -> &'s [MarginSig] {
        let arcs = self.tg.arcs();
        let slot = sc.slots[win.width(cut) + bi];
        sc.spelled.clear();
        for k in 0..slot.len as usize {
            let line = sc.line(&slot, k);
            let mut link = line.link;
            while let Some(k) = sc.links.get(link as usize) {
                sc.chain.push(link as usize);
                link = k.parent;
            }
            let open = table.open();
            while let Some(link) = sc.chain.pop() {
                let TreeLink { arc, pick, .. } = sc.links[link];
                let arc = arcs[arc as usize];
                let proc = self.proc_of[arc.from - cut.base];
                table.push_part(table.arc_part(proc, arc, Some(pick as usize)));
            }
            sc.spelled.push(MarginSig {
                f: line.f,
                b: line.b,
                path: table.close(open, share),
            });
        }
        &sc.spelled
    }

    /// Keeps the margin of a tracking monitor after the append of `recv`,
    /// the receive of a message sent at `from` (`effective`: one that
    /// carries arcs), once its repair at `Ξ` left the verdict open: the
    /// kept step ([`KeptMargin::step`]) over every live arc.
    pub(super) fn keep_margin(&mut self, from: usize, recv: usize, effective: bool) {
        if self.violation.is_some() {
            return;
        }
        let size = self.stats.events + self.stats.arcs;
        let receive = (from, recv, effective);
        let (tg, shortcuts) = (&self.tg, &self.shortcuts);
        self.kept
            .step(&mut self.kernel, tg, shortcuts, receive, size, |_| true);
    }

    /// Starts keeping the margin of a monitor that may hold events already
    /// and has pruned none: the kept column is replayed over its arena
    /// ([`KeptMargin::replay`]), and so holds what it would hold had the
    /// monitor kept its margin from its first append.
    pub(super) fn seed_kept_margin(&mut self) {
        self.build_arena();
        self.kept.rearm();
        if self.violation.is_some() {
            // Latched: nothing reads the labels again.
            self.kept.pot.resize(self.tg.num_live_nodes(), 0);
            return;
        }
        self.kept
            .replay(&mut self.kernel, &self.tg, &self.shortcuts);
    }

    /// The fold before a prune, now that the margin is kept: the
    /// kept ratio *is* the floor the condensation needs, so what is left is
    /// to spell out the witness while its arcs are live, and to remember a
    /// live cycle of ratio exactly `1` before it may be condensed away.
    /// `false` when the kept labels overflowed: there is no exact floor,
    /// and the prune is declined.
    pub(super) fn fold_margin(&mut self) -> bool {
        if !self.kept.usable(self.stats.events + self.stats.arcs) {
            return false;
        }
        if !self.kept.cycle.is_empty() {
            let cycle = self.expand_window_cycle(self.tg.arcs(), &self.kept.cycle);
            self.kept.witness = Some(cycle);
            self.kept.cycle.clear();
        }
        if !self.kept.above_one() && !self.kept.one {
            self.kept.one = tight_cycle_exists(&self.tg, &self.shortcuts, &self.kept.pot);
        }
        true
    }

    /// Whether the margin a tracking monitor keeps has reached `p/q`
    /// (`p > q > 0`): one cross-multiplication, no repair, so a caller can
    /// ask after every append and learn of the crossing at the append that
    /// made it. `false` on a monitor that keeps no margin yet (its kept
    /// margin stays at `1`), and once the kept labels have overflowed (where
    /// [`IncrementalChecker::current_margin`] reports
    /// [`CheckError::GraphTooLarge`]). A threshold of `1` or less is not
    /// answered here: a cycle of ratio exactly `1` takes an `O(arcs)` pass.
    #[must_use]
    pub fn kept_margin_reaches(&self, (p, q): (i64, i64)) -> bool {
        debug_assert!(p > q && q > 0, "thresholds lie above 1");
        // The guard keeps both parts of the kept ratio below 2^61.
        let (b, f) = self.kept.ratio;
        self.kept.usable(self.stats.events + self.stats.arcs)
            && b * i128::from(q) >= i128::from(p) * f
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
    /// A tracking monitor ([`IncrementalChecker::enable_margin_tracking`]),
    /// and every monitor that has pruned, reads the margin it keeps: no
    /// repair, and at a margin of exactly `1` one `O(arcs)` pass over its
    /// kept labels. An untracked one replays the margin it would have kept
    /// over its window, the whole execution: every append's step again,
    /// the same repairs and raises. Either way the witness is the cycle
    /// that last raised the margin.
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
    /// [`CheckError::GraphTooLarge`] when the kept labels, or the replayed
    /// ones, could overflow `i128`, exactly as in the batch computation.
    pub fn current_margin(&self) -> Result<Option<MarginReport>, CheckError> {
        self.margin(true)
    }

    /// [`IncrementalChecker::current_margin`]'s ratio alone: the same
    /// answer from the same work, except that no witness is spelled out.
    ///
    /// # Errors
    ///
    /// As [`IncrementalChecker::current_margin`].
    pub fn margin_ratio(&self) -> Result<Option<Ratio>, CheckError> {
        Ok(self.margin(false)?.map(|m| m.ratio))
    }

    /// The one margin path: [`IncrementalChecker::current_margin`], its
    /// witness spelled out only if `witness` asks for it.
    fn margin(&self, witness: bool) -> Result<Option<MarginReport>, CheckError> {
        let _span = abc_obs::span("monitor.margin_probe");
        OBS_PROBES.add(1);
        if let Some(s) = &self.violation_summary {
            let ratio = s
                .classification
                .ratio()
                .expect("latched witnesses are relevant cycles");
            return Ok(Some(MarginReport {
                ratio,
                witness: witness.then(|| s.clone()),
            }));
        }
        // A monitor that keeps no margin replays the one it would have
        // kept over its arena (nothing was pruned: the arena is the whole
        // execution), into scratch. A deferring monitor replays an arena
        // built for the query, and keeps deferring.
        let mut built = TraversalGraph::new();
        let mut replayed = KeptMargin::default();
        let (tg, kept) = if self.keeps_margin() {
            (&self.tg, &self.kept)
        } else {
            let tg = if self.deferred {
                self.arena_into(&mut built);
                &built
            } else {
                &self.tg
            };
            replayed.replay(&mut NegCycle::default(), tg, &self.shortcuts);
            (tg, &replayed)
        };
        let size = self.stats.events + self.stats.arcs;
        let Some(ratio) = kept.margin(tg, &self.shortcuts, size)? else {
            return Ok(None);
        };
        // At ratio exactly 1 there is no canonical cycle to show.
        let witness = if !witness {
            None
        } else if kept.cycle.is_empty() {
            kept.witness.clone()
        } else {
            Some(self.expand_window_cycle(tg.arcs(), &kept.cycle))
        };
        Ok(Some(MarginReport { ratio, witness }))
    }

    /// An upper bound on [`IncrementalChecker::current_margin`] that runs
    /// no repair and no replay. The bound is never above `Ξ` while the verdict is
    /// open, equals the latched ratio after, and is `None` only when no
    /// relevant cycle can exist at all.
    ///
    /// A tracking monitor's bound, like that of every monitor that has
    /// pruned, is its kept margin itself, exact. An untracked one's is an
    /// `O(live arcs)` scan of the feasible
    /// Bellman–Ford potentials at `Ξ`: for every live forward arc the
    /// potential stretch `Δ = π(recv).0 − π(send).0` certifies that no
    /// relevant cycle through that message has ratio above `Δ/q` (scaling
    /// the potentials by `1/q` yields a feasible potential for the probe at
    /// that ratio; boundary-shortcut signatures with `f > 0` contribute
    /// `(Δ + q·b)/(q·f)` the same way), so the maximum stretch bounds the
    /// margin from above — as it does, combined with the kept margin at the
    /// last prune, for a tracking monitor whose kept labels overflowed.
    ///
    /// A cheap bound, not an alert (`bench_ledger`'s
    /// `core.monitor.margin_bound_us` row times it): a threshold on a
    /// tracking monitor is [`IncrementalChecker::kept_margin_reaches`],
    /// which is exact and O(1).
    #[must_use]
    pub fn margin_upper_bound(&self) -> Option<Ratio> {
        let _span = abc_obs::span("monitor.margin_bound");
        if let Some(s) = &self.violation_summary {
            return s.classification.ratio();
        }
        if self.keeps_margin() {
            let size = self.stats.events + self.stats.arcs;
            if let Ok(kept) = self.kept.margin(&self.tg, &self.shortcuts, size) {
                return kept;
            }
        }
        let base = self.tg.base();
        // Max candidate as an i128 fraction (numerator, positive denominator).
        let mut best: Option<(i128, i128)> = None;
        let mut push = |num: i128, den: i128| {
            debug_assert!(den > 0);
            if best.is_none_or(|(bn, bd)| num * bd > bn * den) {
                best = Some((num, den));
            }
        };
        if self.deferred {
            // The forward arcs a deferring monitor would hold, in arena
            // order (nothing was pruned: `base` is 0).
            for (recv, &entry) in self.sends.iter().enumerate() {
                if let Some(send) = effective_send(entry) {
                    push(self.pot[recv].0 - self.pot[send].0, self.q);
                }
            }
        }
        for arc in self.tg.arcs() {
            let d = self.pot[arc.to - base].0 - self.pot[arc.from - base].0;
            match arc.kind {
                ArcKind::Forward(_) => push(d, self.q),
                ArcKind::Shortcut(id) => {
                    for s in self.shortcuts.sigs(id) {
                        if s.f > 0 {
                            push(d + self.q * s.b, self.q * s.f);
                        }
                    }
                }
                ArcKind::Backward(_) | ArcKind::LocalBack => {}
            }
        }
        let scan = best.map(ratio_of);
        // What the prunes condensed away is bounded by the kept margin.
        let kept = self.kept.above_one() || self.kept.one;
        let floor = kept.then(|| ratio_of(self.kept.ratio));
        match (scan, floor) {
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
    lines.reverse();
    hull(lines, lo);
}

/// [`margin_envelope`] of lines already steepest first, one per slope.
fn hull<L: CostLine>(lines: &mut Vec<L>, lo: (i128, i128)) {
    // Steepest-first hull scan, in place: `lines[..kept]` is the hull so
    // far, each line winning an interval left of its successor's; a line
    // whose takeover point is not strictly right of its predecessor's
    // takeover never wins anywhere.
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
