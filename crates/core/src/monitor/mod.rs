//! Online (incremental) monitoring of the ABC synchrony condition.
//!
//! [`crate::check`] decides Definition 4 in `O(V·E)` — but from scratch,
//! over the whole execution, every time it is asked. A long-running system
//! that wants to *monitor* the condition as its execution unfolds cannot
//! afford a full Bellman–Ford pass per event: re-checking an execution of
//! `n` events after each of its events costs `O(n²·E)` overall.
//!
//! [`IncrementalChecker`] turns the batch reduction into a streaming one.
//! It mirrors the [`crate::graph::ExecutionGraphBuilder`] API (`append_init`
//! / `append_send`) and maintains Bellman–Ford *potentials* over the graph
//! `T` the batch checker walks: a label `π(v)` per event such that every
//! arc `u → v` of weight `w` satisfies `π(v) ≤ π(u) + w`. Such labels exist
//! iff `T` has no negative cycle, i.e. iff the execution so far is
//! admissible. Appending an event adds at most three arcs (forward +
//! backward for its triggering message, one local back-arc) and gives the
//! receive the earliest label its window allows — its Lamport timestamp,
//! every message charged its minimum delay. Only a window that is empty
//! (a *tense* append) needs the arcs: the labels are then repaired by
//! re-relaxing only the affected frontier, on the batch checker's own
//! negative-cycle kernel. The first violation is latched together with a
//! witness of the same [`Cycle`] type the batch checker produces
//! (violations never go away: appending events only adds cycles).
//!
//! # The arena on demand
//!
//! The arcs live in the same arena-backed [`TraversalGraph`] the batch
//! checker walks, but a monitor builds it only once something reads arcs.
//! From [`IncrementalChecker::new`] / [`IncrementalChecker::reset`] until
//! its first tense append, or until it starts keeping its margin, a monitor
//! *defers* it: a quiet append touches labels only, and besides them the
//! monitor keeps one column, each receive's send event and whether its
//! message carries arcs. The first tense append builds the arena from that
//! column in one pass, through the one function that spells a receive's
//! arcs for the eager append as well, so the arena holds the same arcs in
//! the same order either way, and the repair, its witness and everything
//! after run as if it had been grown arc by arc. The `&self` margin
//! readers of a deferring monitor build nothing into it: the bound scans
//! the column, the margin is replayed over an arena built for the query.
//!
//! # One type, one concern per file
//!
//! Everything is a method of [`IncrementalChecker`]. This file holds its
//! state and the append path with its earliest-feasible label; the child
//! modules carry the rest, each with its own docs:
//!
//! * `repair` — restoring feasibility after a window conflict on the
//!   negative-cycle kernel, and the witness latched when that closes a cycle;
//! * `prune` — bounded memory: [`IncrementalChecker::prune_settled`]
//!   compacts a settled prefix after condensing its boundary, leaving
//!   verdicts, latch points, witnesses and summaries **byte-identical**
//!   at any call cadence ([`IncrementalChecker::enable_pruning`] drops
//!   the [`ExecutionGraph`] mirror and nothing else; [`MonitorStats`]
//!   reports the live high-water marks);
//! * `margin` — [`IncrementalChecker::current_margin`] and
//!   [`IncrementalChecker::margin_upper_bound`], the margin a monitor keeps
//!   as appends come in (from its first append, or from its first prune),
//!   and the signature envelopes that keep it exact across prunes;
//! * `ratio_one` — whether a cycle of ratio exactly `1` exists, the one
//!   margin question the kept labels do not answer alone;
//! * `witness` — the canonical witness shape, and the one expansion that
//!   turns live arcs and condensed paths back into steps of the execution.
//!
//! A monitor that finished one execution is re-armed for the next with
//! [`IncrementalChecker::reset`], which keeps the capacity of every
//! per-event column and of the kernel's scratch: a service checking one
//! document after another allocates for the first and reuses for the rest.
//!
//! # Weights without a global scale factor
//!
//! The batch reduction encodes the predicate "some cycle has
//! `q·B − p·F ≥ 0`" by scaling arc weights with `K = #arcs + 1`, which
//! changes whenever an arc is added — useless incrementally. The monitor
//! instead uses *lexicographic pairs* `(p·[fwd] − q·[bwd], −1)` compared
//! component-wise: a cycle's pair sum is `(p·F − q·B, −len)`, which is
//! lexicographically negative iff `q·B − p·F ≥ 0` — the same predicate,
//! stable under insertion.
//!
//! # Example: streaming detection
//!
//! ```
//! use abc_core::monitor::IncrementalChecker;
//! use abc_core::graph::ProcessId;
//! use abc_core::Xi;
//!
//! // Monitor the 2-chain-spanned-by-a-slow-message execution for Ξ = 2.
//! let mut mon = IncrementalChecker::new(3, &Xi::from_integer(2)).unwrap();
//! let q = mon.append_init(ProcessId(0));
//! mon.append_init(ProcessId(1));
//! mon.append_init(ProcessId(2));
//! let (_, relay) = mon.append_send(q, ProcessId(2));
//! mon.append_send(relay, ProcessId(1)); // fast chain arrives first at p1
//! assert!(mon.is_admissible()); // no relevant cycle yet
//! mon.append_send(q, ProcessId(1)); // the slow spanning message closes it
//! let witness = mon.violation().expect("ratio 2/1 >= 2");
//! assert!(witness.classify().violates(mon.xi()));
//! ```

mod margin;
mod prune;
mod ratio_one;
mod repair;
mod window;
mod witness;

use abc_rational::Ratio;

use crate::check::CheckError;
use crate::cycle::{Cycle, WitnessSummary};
use crate::graph::{EventId, ExecutionGraph, ExecutionGraphBuilder, MessageId, ProcessId, Trigger};
use crate::negcycle::NegCycle;
use crate::traversal::{ArcKind, TraversalGraph};
use crate::xi::Xi;

use margin::{EnvelopeScratch, KeptMargin};
use prune::{FrontierRow, ShortcutTable};

pub(crate) use margin::batch_margin;
use repair::{ConfirmCtx, LexArcs, LexScratch};
use window::Windows;

// Flight-recorder hooks (no-ops unless the embedding process called
// `abc_obs::enable`). The hot append path gets only relaxed counter
// adds; RAII spans are reserved for the rare phases (frontier repair,
// violation confirmation, prune condensation, margin queries), which
// keep their counters next to their code.
static OBS_APPENDS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.appends");
static OBS_ARCS: abc_obs::CounterDef = abc_obs::CounterDef::new("monitor.arcs");

/// Lexicographic arc weight: `(p·[fwd] − q·[bwd], −1)`. Tuples compare
/// lexicographically in Rust, which is exactly the order the reduction
/// needs; components are added independently.
type Weight = (i128, i128);

/// Counters describing the monitor's work and footprint, for observability
/// and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events appended so far (including pruned ones).
    pub events: usize,
    /// Messages appended so far (including exempt ones).
    pub messages: usize,
    /// Traversal-graph arcs created so far (including pruned ones), held
    /// or deferred (see the module docs).
    pub arcs: usize,
    /// Total label relaxations performed across all appends.
    pub relaxations: u64,
    /// Events compacted away by [`IncrementalChecker::prune_settled`].
    pub pruned_events: usize,
    /// Arcs compacted away by [`IncrementalChecker::prune_settled`].
    pub pruned_arcs: usize,
    /// High-water mark of simultaneously live (non-pruned) events — the
    /// monitor's memory is proportional to this, not to `events`.
    pub live_events_peak: usize,
    /// High-water mark of simultaneously live arcs, held or deferred.
    pub live_arcs_peak: usize,
}

/// An exact live-margin sample: the current maximum relevant-cycle ratio
/// `|Z−|/|Z+|` over the whole monitored execution, and — when one was
/// extracted — a summary of the tightest cycle attaining it.
///
/// Produced by [`IncrementalChecker::current_margin`]; equals what
/// [`crate::check::max_relevant_cycle_ratio`] reports on the same
/// execution. The witness is `None` exactly when the margin is attained
/// only at ratio `1` (where the cheapest certificate may be a degenerate
/// back-and-forth walk rather than a genuine relevant cycle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarginReport {
    /// The exact maximum `|Z−|/|Z+|` over all relevant cycles so far.
    pub ratio: Ratio,
    /// Summary of a tightest cycle attaining `ratio`, if one was extracted.
    pub witness: Option<WitnessSummary>,
}

/// Incremental decision of the ABC synchrony condition (Definition 4).
///
/// Mirrors the [`ExecutionGraphBuilder`] discipline: every process's first
/// event is [`append_init`], every other event is the receive event of an
/// [`append_send`]. Faulty processes must be declared with [`mark_faulty`]
/// *before* they send (their messages are exempt from the condition, and
/// the monitor never retracts arcs).
///
/// [`append_init`]: IncrementalChecker::append_init
/// [`append_send`]: IncrementalChecker::append_send
/// [`mark_faulty`]: IncrementalChecker::mark_faulty
#[derive(Clone, Debug)]
pub struct IncrementalChecker {
    xi: Xi,
    p: i128,
    q: i128,
    num_processes: usize,
    faulty: Vec<bool>,
    /// Whether each process has sent at least one message (the
    /// [`mark_faulty`](IncrementalChecker::mark_faulty) guard).
    has_sent: Vec<bool>,
    /// Full execution-graph mirror, dropped when pruning is enabled. All
    /// monitoring decisions run on the windowed state below; the mirror
    /// only serves [`IncrementalChecker::graph`].
    builder: Option<ExecutionGraphBuilder>,
    /// The shared CSR traversal graph, grown arc by arc (and compacted
    /// from the front by pruning) once the monitor stopped deferring it;
    /// empty while it defers.
    tg: TraversalGraph,
    /// Whether the arena is deferred: from [`IncrementalChecker::new`] /
    /// [`IncrementalChecker::reset`] until the first tense append or the
    /// first kept margin (never, with `margin_tracking`).
    deferred: bool,
    /// While deferred, one entry per event: [`INIT`], or the receive's
    /// send event with [`EFFECTIVE`] set when its message carries arcs —
    /// all [`IncrementalChecker::build_arena`] needs besides `proc_of`.
    /// Empty once the arena is built.
    sends: Vec<usize>,
    /// Process of each live event (windowed by `tg.base()`).
    proc_of: Vec<ProcessId>,
    /// Bellman–Ford potential per live event; feasible (no tense arc)
    /// whenever `violation` is `None` (nothing reads them after a latch).
    pot: Vec<Weight>,
    /// Scratch of the kernel the frontier repairs run on: empty until the
    /// first, clean between them, kept by [`IncrementalChecker::reset`].
    kernel: NegCycle,
    /// Scratch of the lex passes a prune or a latch confirmation runs:
    /// empty until the first, kept by [`IncrementalChecker::reset`].
    lex: LexScratch,
    /// The columns a latch confirmation indexes its arcs in: likewise.
    cut_arcs: LexArcs,
    /// Likewise for the prune's signature-envelope passes.
    envelopes: EnvelopeScratch,
    /// Likewise for the windows of the condemned prefix a prune's passes
    /// run over, and their certificates.
    windows: Windows,
    /// Latest event id of each process (survives pruning — it guards
    /// double-init and locates local predecessors).
    last_event: Vec<Option<usize>>,
    /// What a pruned per-process frontier left behind (see [`FrontierRow`]);
    /// recomposed by later prunes, consumed by the process's next append.
    frontier_row: Vec<Option<FrontierRow>>,
    /// The condensed paths of the arena's [`ArcKind::Shortcut`] arcs and of
    /// the frontier rows; rebuilt (compacted) at every prune.
    shortcuts: ShortcutTable,
    total_messages: usize,
    violation: Option<Cycle>,
    violation_summary: Option<WitnessSummary>,
    /// Whether the margin is kept from the first append on (see
    /// [`IncrementalChecker::enable_margin_tracking`]); a monitor that has
    /// pruned keeps it either way ([`IncrementalChecker::keeps_margin`]).
    margin_tracking: bool,
    /// The kept margin of a tracking monitor: a second potential column,
    /// feasible at the current margin, and that margin's witness.
    kept: KeptMargin,
    stats: MonitorStats,
}

impl IncrementalChecker {
    /// Creates a monitor over `num_processes` processes for the parameter
    /// `Ξ`.
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed `i64` — the label
    /// arithmetic accumulates weights along relaxation paths and needs the
    /// headroom of `i128` above machine-word parts. (The batch checker
    /// accepts wider parts; astronomically large `Ξ` is its domain.)
    pub fn new(num_processes: usize, xi: &Xi) -> Result<IncrementalChecker, CheckError> {
        let (p, q) = xi.as_i64_parts().ok_or(CheckError::XiTooLarge)?;
        Ok(IncrementalChecker {
            xi: xi.clone(),
            p: i128::from(p),
            q: i128::from(q),
            num_processes,
            faulty: vec![false; num_processes],
            has_sent: vec![false; num_processes],
            builder: Some(ExecutionGraph::builder(num_processes)),
            tg: TraversalGraph::new(),
            deferred: true,
            sends: Vec::new(),
            proc_of: Vec::new(),
            pot: Vec::new(),
            kernel: NegCycle::default(),
            lex: LexScratch::default(),
            cut_arcs: LexArcs::default(),
            envelopes: EnvelopeScratch::default(),
            windows: Windows::default(),
            last_event: vec![None; num_processes],
            frontier_row: vec![None; num_processes],
            shortcuts: ShortcutTable::default(),
            total_messages: 0,
            violation: None,
            violation_summary: None,
            margin_tracking: false,
            kept: KeptMargin::default(),
            stats: MonitorStats::default(),
        })
    }

    /// Re-arms the monitor in place for a new execution over
    /// `num_processes` processes and the parameter `Ξ`: afterwards it
    /// behaves exactly like [`IncrementalChecker::new`] with the same
    /// arguments — no event, no faulty mark, no latch, zeroed
    /// [`MonitorStats`] — except that the two mode choices made on the old
    /// one persist (a mirror dropped by
    /// [`IncrementalChecker::enable_pruning`] stays dropped,
    /// [`IncrementalChecker::enable_margin_tracking`] stays on; a margin
    /// kept only since a prune is not, as on a new monitor) and every
    /// per-event column keeps its capacity, so a monitor that has seen a
    /// document of some size checks the next one of that size without
    /// allocating. A kept mirror is emptied the same way
    /// ([`ExecutionGraphBuilder::clear`]).
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] as in [`IncrementalChecker::new`]; the
    /// monitor is then left as it was.
    pub fn reset(&mut self, num_processes: usize, xi: &Xi) -> Result<(), CheckError> {
        let (new_p, new_q) = xi.as_i64_parts().ok_or(CheckError::XiTooLarge)?;
        // Exhaustive on purpose (no `..`): a field added to the struct
        // does not compile until it is re-armed here as `new` arms it.
        let IncrementalChecker {
            xi: own_xi,
            p,
            q,
            num_processes: own_num_processes,
            faulty,
            has_sent,
            builder,
            tg,
            deferred,
            sends,
            proc_of,
            pot,
            kernel: _,    // clean between repairs; its capacity is the point
            lex: _,       // re-armed per landing; likewise
            cut_arcs: _,  // refilled per latch; likewise
            envelopes: _, // likewise
            windows: _,   // refilled per cut; likewise
            last_event,
            frontier_row,
            shortcuts,
            total_messages,
            violation,
            violation_summary,
            margin_tracking,
            kept,
            stats,
        } = self;
        *own_xi = xi.clone();
        *p = i128::from(new_p);
        *q = i128::from(new_q);
        *own_num_processes = num_processes;
        faulty.clear();
        faulty.resize(num_processes, false);
        has_sent.clear();
        has_sent.resize(num_processes, false);
        if let Some(mirror) = builder {
            mirror.clear(num_processes);
        }
        tg.clear();
        *deferred = !*margin_tracking;
        sends.clear();
        proc_of.clear();
        pot.clear();
        last_event.clear();
        last_event.resize(num_processes, None);
        frontier_row.clear();
        frontier_row.resize(num_processes, None);
        shortcuts.clear();
        *total_messages = 0;
        *violation = None;
        *violation_summary = None;
        kept.rearm();
        *stats = MonitorStats::default();
        Ok(())
    }

    /// What [`IncrementalChecker::reset`] keeps, summed: the capacity of
    /// every per-process and per-event column (the kept margin's
    /// included), of the arc arena, of the shortcut table and of the
    /// kernel's and the prunes' scratch. The mirror keeps its tables too,
    /// but is not counted here: `crates/bench/tests/prune_alloc.rs` holds a
    /// mirrored monitor's second document to the bytes a mirror-less one
    /// allocates. For "a re-armed monitor allocates nothing" tests, here
    /// and in the crates that lend a monitor to one replay after another.
    #[doc(hidden)]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.faulty.capacity()
            + self.has_sent.capacity()
            + self.tg.capacity()
            + self.sends.capacity()
            + self.proc_of.capacity()
            + self.pot.capacity()
            + self.kernel.capacity()
            + self.lex.capacity()
            + self.cut_arcs.capacity()
            + self.envelopes.capacity()
            + self.windows.capacity()
            + self.last_event.capacity()
            + self.frontier_row.capacity()
            + self.shortcuts.capacity()
            + self.kept.capacity()
    }

    /// Builds a monitor by replaying an existing execution graph event by
    /// event (in its creation order, which is topological).
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] as in [`IncrementalChecker::new`].
    pub fn from_graph(g: &ExecutionGraph, xi: &Xi) -> Result<IncrementalChecker, CheckError> {
        let mut mon = IncrementalChecker::new(g.num_processes(), xi)?;
        for p in 0..g.num_processes() {
            if g.is_faulty(ProcessId(p)) {
                mon.mark_faulty(ProcessId(p));
            }
        }
        for ev in g.events() {
            match ev.trigger {
                Trigger::Init => {
                    mon.append_init(ev.process);
                }
                Trigger::Message(m) => {
                    let msg = g.message(m);
                    mon.append_send_inner(msg.from, ev.process, msg.exempt);
                }
            }
        }
        Ok(mon)
    }

    /// Drops the full execution-graph mirror, and does nothing else: no
    /// event is ever pruned unless the caller also calls
    /// [`IncrementalChecker::prune_settled`]. From here on only the
    /// windowed per-event columns are kept (and no mirror append is paid
    /// per event), [`IncrementalChecker::graph`] /
    /// [`IncrementalChecker::finish`] are unavailable (use
    /// [`IncrementalChecker::violation_summary`] for witness reporting),
    /// and the choice survives [`IncrementalChecker::reset`]. Verdicts,
    /// latch points, witnesses and margins are unaffected: none of them
    /// reads the mirror.
    ///
    /// The name records why the mirror goes: pruning itself also works
    /// with the mirror kept — useful when verdict-identical comparison
    /// against the full graph is wanted — but only a mirror-less monitor
    /// makes the memory bound `O(processes + active window + in-flight)`
    /// real.
    ///
    /// # Panics
    ///
    /// Panics if events have already been appended.
    pub fn enable_pruning(&mut self) {
        assert!(
            self.total_events() == 0,
            "enable_pruning() must be called before any event is appended"
        );
        self.builder = None;
    }

    /// Makes the monitor **keep** its margin from here on instead of
    /// replaying it at every [`IncrementalChecker::current_margin`] until
    /// its first prune.
    ///
    /// Beside its potentials at `Ξ` the monitor then keeps a second column,
    /// feasible at the current margin, and raises that margin as appends
    /// close cycles above it (the `margin` module's docs have the
    /// argument), over the arcs: a tracking monitor builds its arena now,
    /// if it was deferring it, and never defers it again. On the sweep's
    /// 500-event clock synchronisation runs that adds about 60 ns to an
    /// append (arena and kept column; a deferred replay is about 22 ns
    /// per event), which a monitor that keeps nothing pays, and more, at
    /// every `current_margin`: it replays the same steps over an arena it
    /// builds for the query (one thread, on a 2-hardware-thread host); on
    /// a quiet stream keeping also costs the arena a monitor that keeps
    /// nothing would not have built. Both `current_margin` and
    /// [`IncrementalChecker::margin_upper_bound`] read the kept margin,
    /// exactly, its witness is the cycle that last raised it, and
    /// [`IncrementalChecker::kept_margin_reaches`] answers from the first
    /// append on.
    ///
    /// Every monitor keeps its margin from its first
    /// [`IncrementalChecker::prune_settled`] on, whether or not this was
    /// called: a prune condenses its boundary shortcuts with
    /// margin-signature envelopes over the ratios at or above the kept
    /// margin, so the margin stays equal to the batch
    /// [`crate::check::max_relevant_cycle_ratio`] on the full (never-pruned)
    /// execution, mirror or no mirror.
    ///
    /// Callable at any time; a monitor that holds events and keeps nothing
    /// yet replays its window into the kept column, which then holds what
    /// it would hold had this been called before the first append. A window
    /// whose kept labels could leave `i128` is reported by `current_margin`
    /// as [`CheckError::GraphTooLarge`] (and a prune is then declined),
    /// never by a panic while appending. The choice survives
    /// [`IncrementalChecker::reset`].
    pub fn enable_margin_tracking(&mut self) {
        if !self.keeps_margin() {
            self.seed_kept_margin();
        }
        self.margin_tracking = true;
    }

    /// Whether the monitor keeps its margin: since its first append
    /// ([`IncrementalChecker::enable_margin_tracking`]), or since its first
    /// prune. Only a monitor that has pruned nothing replays it.
    fn keeps_margin(&self) -> bool {
        self.margin_tracking || self.stats.pruned_events > 0
    }

    /// The monitored parameter `Ξ`.
    #[must_use]
    pub fn xi(&self) -> &Xi {
        &self.xi
    }

    /// The execution graph accumulated so far (identical to what
    /// [`ExecutionGraphBuilder`] would have produced from the same calls).
    ///
    /// # Panics
    ///
    /// Panics if [`IncrementalChecker::enable_pruning`] dropped the mirror.
    #[must_use]
    pub fn graph(&self) -> &ExecutionGraph {
        self.builder
            .as_ref()
            .expect("graph() is unavailable on a pruning monitor (enable_pruning was called)")
            .graph()
    }

    /// Whether the execution appended so far satisfies the ABC condition.
    #[must_use]
    pub fn is_admissible(&self) -> bool {
        self.violation.is_none()
    }

    /// The first violating relevant cycle found, if any (latched: once a
    /// violation exists, appending more events cannot remove it).
    #[must_use]
    pub fn violation(&self) -> Option<&Cycle> {
        self.violation.as_ref()
    }

    /// The summary of the latched violation witness, if any — computed from
    /// the live window at latch time, so it is available (and identical)
    /// with or without pruning, with or without the graph mirror.
    #[must_use]
    pub fn violation_summary(&self) -> Option<&WitnessSummary> {
        self.violation_summary.as_ref()
    }

    /// Work counters and footprint marks.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Events currently held live (not pruned).
    #[must_use]
    pub fn live_events(&self) -> usize {
        self.proc_of.len()
    }

    /// Arcs currently held live (not pruned), or deferred.
    #[must_use]
    pub fn live_arcs(&self) -> usize {
        if self.deferred {
            self.stats.arcs
        } else {
            self.tg.num_arcs()
        }
    }

    /// Events appended so far, pruned ones included: the exclusive upper
    /// bound of valid event ids.
    fn total_events(&self) -> usize {
        self.tg.base() + self.proc_of.len()
    }

    /// Whether process `p` has any event yet (works in every mode; the
    /// pruning-safe replacement for `graph().events_of(p).is_empty()`).
    #[must_use]
    pub fn process_has_events(&self, p: ProcessId) -> bool {
        self.last_event[p.0].is_some()
    }

    /// Marks process `p` Byzantine faulty: its future messages are exempt
    /// from the synchrony condition.
    ///
    /// # Panics
    ///
    /// Panics if `p` has already sent a message — the monitor cannot
    /// retract arcs, so faults must be declared up front (as a simulation
    /// does when the process is registered).
    pub fn mark_faulty(&mut self, p: ProcessId) {
        assert!(
            !self.has_sent[p.0],
            "{p} must be marked faulty before it sends"
        );
        self.faulty[p.0] = true;
        if let Some(b) = &mut self.builder {
            b.mark_faulty(p);
        }
    }

    /// Appends the wake-up (initial) event of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` already has events.
    pub fn append_init(&mut self, p: ProcessId) -> EventId {
        assert!(self.last_event[p.0].is_none(), "{p} already initialized");
        let id = self.push_node(p, INIT);
        self.last_event[p.0] = Some(id);
        self.stats.events += 1;
        if let Some(b) = &mut self.builder {
            let mirrored = b.init(p);
            debug_assert_eq!(mirrored.0, id);
        }
        EventId(id)
    }

    /// Appends a message from the computing step at `from` to process `to`
    /// (and its receive event), then re-checks the condition incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, already pruned, or `to` has no
    /// init event yet.
    pub fn append_send(&mut self, from: EventId, to: ProcessId) -> (MessageId, EventId) {
        self.append_send_inner(from, to, false)
    }

    /// Like [`IncrementalChecker::append_send`], but the message is exempt
    /// from the synchrony condition (the paper's restricted-graph hook).
    pub fn append_send_exempt(&mut self, from: EventId, to: ProcessId) -> (MessageId, EventId) {
        self.append_send_inner(from, to, true)
    }

    fn append_send_inner(
        &mut self,
        from: EventId,
        to: ProcessId,
        exempt: bool,
    ) -> (MessageId, EventId) {
        assert!(from.0 < self.total_events(), "unknown send event");
        assert!(
            from.0 >= self.tg.base(),
            "send event {from} was already pruned: the prune_settled watermark promised \
             no further sends below e{}",
            self.tg.base()
        );
        assert!(
            self.last_event[to.0].is_some(),
            "{to} must be initialized before receiving"
        );
        OBS_APPENDS.add(1);
        // Arcs are counted as one batched add at the exit (forward +
        // backward + order + any shortcut crossings land together): one
        // recorder touch per append instead of one per arc.
        let arcs_before = self.stats.arcs;
        let base = self.tg.base();
        let sender = self.proc_of[from.0 - base];
        let effective = !exempt && !self.faulty[sender.0];
        let mid = MessageId(self.total_messages);
        self.total_messages += 1;
        self.has_sent[sender.0] = true;
        let old_arcs = self.live_arcs();
        let prev_global = self.last_event[to.0].expect("receiver is initialized");
        let recv = self.push_node(to, from.0 | if effective { EFFECTIVE } else { 0 });
        self.last_event[to.0] = Some(recv);
        self.stats.events += 1;
        self.stats.messages += 1;
        if let Some(b) = &mut self.builder {
            let (mirrored_mid, mirrored_recv) = b.send(from, to);
            debug_assert_eq!((mirrored_mid, mirrored_recv.0), (mid, recv));
            if exempt {
                b.set_exempt(mirrored_mid);
            }
        }
        if self.violation.is_some() {
            // Latched: the verdict can never change, skip all arc work.
            return (mid, EventId(recv));
        }
        let live_prev = (prev_global >= base).then_some(prev_global);
        // A deferring monitor's column entry, pushed above, stands for the
        // arcs until it builds the arena.
        if !self.deferred {
            let message = effective.then_some((from.0, mid));
            self.tg.push_receive(recv, message, live_prev);
        }
        self.count_arcs(2 * usize::from(effective) + usize::from(live_prev.is_some()));
        let row = if live_prev.is_some() {
            None
        } else {
            // `prev` was compacted: materialize its frontier row as
            // shortcut arcs out of the new receive.
            let r = self.frontier_row[to.0]
                .take()
                .expect("a pruned frontier always leaves its row behind");
            self.materialize_row(&r, prev_global, recv);
            Some(r)
        };
        // Choose the new node's label directly instead of relaxing it from
        // scratch: the feasible window for `π(recv)` is
        //
        //   max(π(send) + (q,1), π(local_pred) + (0,1))  ≤  π(recv)
        //                                                ≤  π(send) + (p,−1)
        //
        // (lower bounds from recv's outgoing backward/local arcs, upper
        // bound from the incoming forward arc). Taking the *earliest*
        // feasible label — timestamp semantics: every message charged its
        // minimum delay `q` — keeps all existing labels untouched, so an
        // append that opens no window conflict costs zero relaxations and
        // reads no arc. Only when the window is empty (the message "spans":
        // it arrives later than the fast paths from its send event permit)
        // is the label capped to the upper bound and the tension
        // propagated, over the arena, which a deferring monitor builds
        // first.
        let pw = row
            .as_ref()
            .map_or_else(|| self.pot[prev_global - base], |r| r.label);
        let mut label = (pw.0, pw.1 + 1);
        let mut tense = false;
        if effective {
            let pu = self.pot[from.0 - base];
            let (lower, upper) = ((pu.0 + self.q, pu.1 + 1), (pu.0 + self.p, pu.1 - 1));
            label = label.max(lower);
            if label > upper {
                label = upper;
                tense = true;
            }
        }
        self.pot[recv - base] = label;
        if tense {
            self.build_arena();
            let ctx = ConfirmCtx {
                u: from.0,
                v: recv,
                prev_global,
                seeds: row,
                mid,
                old_arcs,
            };
            self.restore_feasibility(&ctx);
        }
        if self.keeps_margin() {
            self.keep_margin(from.0, recv, effective);
        }
        OBS_ARCS.add((self.stats.arcs - arcs_before) as u64);
        (mid, EventId(recv))
    }

    /// Appends event `id = total_events()` of process `p`, whose column
    /// entry is `send` ([`INIT`] for a wake-up).
    fn push_node(&mut self, p: ProcessId, send: usize) -> usize {
        let id = self.total_events();
        if self.deferred {
            self.sends.push(send);
        } else {
            let pushed = self.tg.push_node();
            debug_assert_eq!(pushed, id);
        }
        self.proc_of.push(p);
        self.pot.push((0, 0));
        if self.keeps_margin() {
            // An append gives the receive its kept label after its arcs.
            self.kept.pot.push(0);
        }
        self.stats.live_events_peak = self.stats.live_events_peak.max(self.proc_of.len());
        id
    }

    fn push_arc(&mut self, from: usize, to: usize, kind: ArcKind) {
        if let ArcKind::Shortcut(id) = kind {
            self.kept.carries(self.shortcuts.sigs(id));
        }
        self.tg.push_arc(from, to, kind);
        self.count_arcs(1);
    }

    /// Counts `added` arcs, held or deferred, in [`MonitorStats`].
    fn count_arcs(&mut self, added: usize) {
        self.stats.arcs += added;
        self.stats.live_arcs_peak = self.stats.live_arcs_peak.max(self.live_arcs());
    }

    /// Ends deferral: builds the arena the appends so far would have grown,
    /// arc for arc, in one pass over the send column. A no-op on a monitor
    /// that is not deferring.
    fn build_arena(&mut self) {
        if !self.deferred {
            return;
        }
        let mut tg = std::mem::take(&mut self.tg);
        self.arena_into(&mut tg);
        self.tg = tg;
        self.sends.clear();
        self.deferred = false;
    }

    /// The arena of a deferring monitor, pushed into the empty `tg`: every
    /// event's node, then each receive's arcs in append order, through the
    /// call the eager append makes ([`TraversalGraph::push_receive`]).
    fn arena_into(&self, tg: &mut TraversalGraph) {
        debug_assert!(self.deferred && tg.total_nodes() == 0);
        tg.grow(self.sends.len(), self.stats.arcs);
        // The latest event of each process so far: a receive's local
        // predecessor.
        let mut last = vec![INIT; self.num_processes];
        let mut messages = 0;
        for (v, (&p, &entry)) in self.proc_of.iter().zip(&self.sends).enumerate() {
            if entry != INIT {
                let message = effective_send(entry).map(|send| (send, MessageId(messages)));
                tg.push_receive(v, message, Some(last[p.0]));
                messages += 1;
            }
            last[p.0] = v;
        }
        debug_assert_eq!(tg.num_arcs(), self.stats.arcs);
    }

    fn arc_weight(&self, kind: ArcKind) -> Weight {
        weight_of(kind, self.p, self.q, &self.shortcuts)
    }

    /// Consumes the monitor, returning the accumulated graph and the
    /// violation witness (if any).
    ///
    /// # Panics
    ///
    /// Panics if [`IncrementalChecker::enable_pruning`] dropped the mirror.
    #[must_use]
    pub fn finish(self) -> (ExecutionGraph, Option<Cycle>) {
        let builder = self
            .builder
            .expect("finish() is unavailable on a pruning monitor (enable_pruning was called)");
        (builder.finish(), self.violation)
    }
}

/// The [`IncrementalChecker::sends`] entry of an init event.
const INIT: usize = usize::MAX;

/// The bit of a [`IncrementalChecker::sends`] entry that marks a message
/// that carries arcs (neither exempt nor sent by a faulty process).
const EFFECTIVE: usize = 1 << (usize::BITS - 1);

/// The send event of a column entry whose message carries arcs.
fn effective_send(entry: usize) -> Option<usize> {
    (entry != INIT && entry & EFFECTIVE != 0).then_some(entry & !EFFECTIVE)
}

/// A column index as a 32-bit field of a prune's flat columns (pool
/// positions, CSR entries, envelope slots and links).
fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("a prune's columns hold fewer than 2^32 entries")
}

/// The lexicographic weight of a live arc for `Ξ = p/q`.
fn weight_of(kind: ArcKind, p: i128, q: i128, shortcuts: &ShortcutTable) -> Weight {
    let first = match kind {
        ArcKind::Forward(_) => p,
        ArcKind::Backward(_) => -q,
        ArcKind::LocalBack => 0,
        ArcKind::Shortcut(id) => return shortcuts[id].weight,
    };
    (first, -1)
}

#[cfg(test)]
mod tests;
