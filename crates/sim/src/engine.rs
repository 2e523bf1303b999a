//! The discrete-event simulation engine.
//!
//! One single-threaded loop: [`Simulation::run`] pops queue entries in
//! `(time, tie)` order, executes the step inline, and commits it — trace
//! append, monitor feed, outbox dispatch (delay draws, payload-slab
//! allocation), strictly in that order. Everything order-sensitive lives
//! in that one commit point.
//!
//! The queue is a calendar (`calendar.rs`, Brown 1988): one FIFO bucket
//! per discrete time over a window that starts at the current time and
//! doubles when a delivery lands beyond it, up to a fixed cap, with a
//! spill heap for what lies further ahead. A tie is the entry's push
//! number, and ties only grow, so FIFO order within one time is tie order;
//! spilled entries enter the window in `(time, tie)` order as soon as it
//! covers them, before any delivery can be pushed at their time. The pop
//! order is therefore exactly the `(time, tie)` order of the binary heap
//! the calendar replaced, and traces are the same byte for byte.
//!
//! # Entry layout
//!
//! A queue entry is two words: a tag and one word, at the same offset in
//! both variants — the process of a wake-up, or the payload slot of a
//! delivery, where the slot holds the trace message index beside the
//! payload and the receiver is read off the trace message. An enum of
//! that shape is passed in two registers, so `Calendar::push` writes the
//! entry into its node straight from them. A wider entry, or one whose
//! variants put their word at different offsets, is passed through
//! memory: the engine spills it with word stores and the calendar
//! reloads it at once with 16-byte loads, which the store buffer cannot
//! forward — a stall on every delivery scheduled. The step's label comes
//! back from the process field by field for the same reason
//! (`StepMarks`). A unit test pins the entry's size.

use abc_core::check::CheckError;
use abc_core::cycle::Cycle;
use abc_core::monitor::IncrementalChecker;
use abc_core::{EventId, ProcessId, Xi};

use crate::calendar::Calendar;
use crate::delay::{DelayModel, Delivery};
use crate::process::{Context, Process, StepMarks};
use crate::trace::{Trace, TraceEvent, TraceMessage};

// Flight-recorder hooks: one span per `run` call, relaxed counter adds
// per executed step / dispatched message (no-ops unless the embedding
// process called `abc_obs::enable`).
static OBS_STEPS: abc_obs::CounterDef = abc_obs::CounterDef::new("sim.steps");
static OBS_DISPATCHES: abc_obs::CounterDef = abc_obs::CounterDef::new("sim.dispatches");
static OBS_DROPS: abc_obs::CounterDef = abc_obs::CounterDef::new("sim.drops");

/// Budgets bounding a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLimits {
    /// Stop after this many computing steps (events).
    pub max_events: usize,
    /// Do not execute events scheduled after this time.
    pub max_time: u64,
}

impl Default for RunLimits {
    fn default() -> RunLimits {
        RunLimits {
            max_events: 1_000_000,
            max_time: u64::MAX,
        }
    }
}

/// Statistics of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Computing steps executed (including receive-only events at crashed
    /// or absent processes).
    pub events_executed: usize,
    /// Messages handed to the delay model.
    pub messages_sent: usize,
    /// Messages delivered (received).
    pub messages_delivered: usize,
    /// Messages dropped by the delay model.
    pub messages_dropped: usize,
    /// The time of the last executed event.
    pub final_time: u64,
    /// Whether the run ended because the event queue drained (quiescence)
    /// rather than a budget limit.
    pub quiescent: bool,
    /// High-water mark of the payload slab: the maximum number of messages
    /// that were simultaneously in flight over the simulation's lifetime
    /// (slots are recycled through a free list, so memory is bounded by
    /// this, not by the total number of messages ever sent).
    pub payload_slab_peak: usize,
}

impl std::fmt::Display for RunStats {
    /// One parseable line: `events=… sent=… delivered=… dropped=…
    /// final_time=… quiescent=… slab_peak=…` (the exact inverse of
    /// `RunStats::from_str`, so stats survive text round trips alongside
    /// serialized traces).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} sent={} delivered={} dropped={} final_time={} quiescent={} slab_peak={}",
            self.events_executed,
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.final_time,
            self.quiescent,
            self.payload_slab_peak
        )
    }
}

impl std::str::FromStr for RunStats {
    type Err = String;

    /// Parses the `Display` format (key=value pairs, any order). Unknown,
    /// duplicate, and *missing* keys are all rejected — a truncated stats
    /// line must not parse into fabricated zeros.
    fn from_str(s: &str) -> Result<RunStats, String> {
        const KEYS: [&str; 7] = [
            "events",
            "sent",
            "delivered",
            "dropped",
            "final_time",
            "quiescent",
            "slab_peak",
        ];
        let mut stats = RunStats::default();
        let mut seen = [false; KEYS.len()];
        for part in s.split_whitespace() {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let idx = KEYS
                .iter()
                .position(|k| *k == key)
                .ok_or_else(|| format!("unknown RunStats key {key:?}"))?;
            if seen[idx] {
                return Err(format!("duplicate RunStats key {key:?}"));
            }
            seen[idx] = true;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
            match key {
                "events" => stats.events_executed = num(value)? as usize,
                "sent" => stats.messages_sent = num(value)? as usize,
                "delivered" => stats.messages_delivered = num(value)? as usize,
                "dropped" => stats.messages_dropped = num(value)? as usize,
                "final_time" => stats.final_time = num(value)?,
                "quiescent" => {
                    stats.quiescent = value.parse().map_err(|e| format!("quiescent: {e}"))?;
                }
                _ => stats.payload_slab_peak = num(value)? as usize,
            }
        }
        if let Some(missing) = KEYS.iter().zip(&seen).find(|(_, s)| !**s) {
            return Err(format!("missing RunStats key {:?}", missing.0));
        }
        Ok(stats)
    }
}

/// A simulation of `n` message-driven processes over an adversarial network.
///
/// See the crate docs for an end-to-end example.
pub struct Simulation<M, D> {
    processes: Vec<Box<dyn Process<M>>>,
    faulty: Vec<bool>,
    start_times: Vec<u64>,
    delay_model: D,
    /// Pending steps in `(time, push order)` order; the push order is the
    /// tie between equal times.
    queue: Calendar<Entry>,
    /// Per in-flight delivery: its trace message index and payload.
    payloads: Vec<Option<(usize, M)>>,
    free_slots: Vec<usize>, // recycled payload slots (memory O(in-flight))
    /// Sends of the step being executed; empty between steps.
    outbox: Vec<(ProcessId, M)>,
    trace: Trace,
    started: bool,
    monitor_xi: Option<Xi>,
    monitor: Option<IncrementalChecker>,
}

/// A queued step; the queue pops in `(time, push order)` order.
///
/// Two words, each variant's one word at the same offset, so an entry
/// travels into the queue and out of it in registers (see the module
/// docs).
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// Wake-up of a process.
    Init(usize),
    /// Delivery of the message whose index and payload sit in this
    /// payload slot; its receiver is the trace message's.
    Deliver(usize),
}

impl<M: Clone + 'static, D: DelayModel> Simulation<M, D> {
    /// Creates an empty simulation over the given delay model.
    #[must_use]
    pub fn new(delay_model: D) -> Simulation<M, D> {
        Simulation {
            processes: Vec::new(),
            faulty: Vec::new(),
            start_times: Vec::new(),
            delay_model,
            queue: Calendar::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            outbox: Vec::new(),
            trace: Trace::default(),
            started: false,
            monitor_xi: None,
            monitor: None,
        }
    }

    /// Adds a correct process, returning its id.
    pub fn add_process<P: Process<M> + 'static>(&mut self, p: P) -> ProcessId {
        self.push_process(Box::new(p), false, 0)
    }

    /// Adds a faulty (Byzantine or crash-faulty) process: its messages are
    /// exempt from the ABC synchrony condition in the extracted graph.
    pub fn add_faulty_process<P: Process<M> + 'static>(&mut self, p: P) -> ProcessId {
        self.push_process(Box::new(p), true, 0)
    }

    /// Adds a correct process whose wake-up message arrives at `start_time`
    /// (staggered booting).
    pub fn add_process_starting_at<P: Process<M> + 'static>(
        &mut self,
        p: P,
        start_time: u64,
    ) -> ProcessId {
        self.push_process(Box::new(p), false, start_time)
    }

    /// Re-arms the simulation in place for a new execution over
    /// `delay_model`: afterwards it behaves exactly like
    /// [`Simulation::new`] with the same argument — no process, no queued
    /// entry, no attached monitor, an empty trace, ties counted from zero —
    /// except that every buffer keeps its capacity, and the queue's ring
    /// its width, so an engine that has run an execution of some size runs
    /// the next one of that size without growing anything (a harness
    /// sweeping thousands of short runs allocates for the first and reuses
    /// for the rest). Messages still in flight when the last run stopped on
    /// a budget are dropped with it.
    pub fn reset(&mut self, delay_model: D) {
        // Exhaustive on purpose (no `..`): a field added to the struct
        // does not compile until it is re-armed here as `new` arms it.
        let Simulation {
            processes,
            faulty,
            start_times,
            delay_model: own_delay_model,
            queue,
            payloads,
            free_slots,
            outbox,
            trace,
            started,
            monitor_xi,
            monitor,
        } = self;
        processes.clear();
        faulty.clear();
        start_times.clear();
        *own_delay_model = delay_model;
        queue.clear();
        payloads.clear();
        free_slots.clear();
        outbox.clear();
        trace.clear();
        *started = false;
        *monitor_xi = None;
        *monitor = None;
    }

    fn push_process(&mut self, p: Box<dyn Process<M>>, faulty: bool, start: u64) -> ProcessId {
        assert!(!self.started, "cannot add processes after the run started");
        let id = ProcessId(self.processes.len());
        self.processes.push(p);
        self.faulty.push(faulty);
        self.start_times.push(start);
        id
    }

    /// Number of processes.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// The captured trace (valid after [`Simulation::run`]).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the simulation, returning the captured trace without a
    /// clone (for generators that only want the trace).
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Mutable access to the delay model (e.g. to reconfigure between
    /// incremental runs).
    pub fn delay_model_mut(&mut self) -> &mut D {
        &mut self.delay_model
    }

    /// Attaches an online ABC monitor: during [`Simulation::run`] every
    /// executed event is streamed into an
    /// [`abc_core::monitor::IncrementalChecker`] for `Ξ = xi`, with no
    /// per-step `Trace → ExecutionGraph` rebuild. Query the verdict any
    /// time via [`Simulation::monitor`] / [`Simulation::violation`].
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed the monitor's
    /// integer range.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started. A monitored run also panics
    /// (with a configuration-level message) if a message is delivered to a
    /// process before its wake-up — possible only with staggered starts
    /// ([`Simulation::add_process_starting_at`]) and deliveries faster than
    /// the stagger; such executions fall outside Definition 1, and their
    /// traces cannot be converted to execution graphs either.
    pub fn attach_monitor(&mut self, xi: &Xi) -> Result<(), CheckError> {
        assert!(
            !self.started,
            "cannot attach a monitor after the run started"
        );
        // Validate Xi eagerly; the checker itself is built at run start,
        // once the process set is final.
        let _ = IncrementalChecker::new(0, xi)?;
        self.monitor_xi = Some(xi.clone());
        Ok(())
    }

    /// The summary of the first ABC violation witnessed by the attached
    /// monitor, if any (the wire form of [`Simulation::violation`]).
    #[must_use]
    pub fn violation_summary(&self) -> Option<&abc_core::cycle::WitnessSummary> {
        self.monitor
            .as_ref()
            .and_then(IncrementalChecker::violation_summary)
    }

    /// Work counters and footprint marks of the attached monitor.
    #[must_use]
    pub fn monitor_stats(&self) -> Option<abc_core::monitor::MonitorStats> {
        self.monitor.as_ref().map(IncrementalChecker::stats)
    }

    /// The attached online monitor, if any (populated once the run starts).
    #[must_use]
    pub fn monitor(&self) -> Option<&IncrementalChecker> {
        self.monitor.as_ref()
    }

    /// The first ABC violation witnessed by the attached monitor, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&Cycle> {
        self.monitor
            .as_ref()
            .and_then(IncrementalChecker::violation)
    }

    /// First-run setup: freezes the process set, builds the monitor, and
    /// enqueues every wake-up entry.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.trace.num_processes = self.processes.len();
        self.trace.faulty.clone_from(&self.faulty);
        if let Some(xi) = &self.monitor_xi {
            let mut mon = IncrementalChecker::new(self.processes.len(), xi)
                .expect("Xi validated at attach time");
            for (p, faulty) in self.faulty.iter().enumerate() {
                if *faulty {
                    mon.mark_faulty(ProcessId(p));
                }
            }
            self.monitor = Some(mon);
        }
        for (p, &start) in self.start_times.iter().enumerate() {
            self.queue.push(start, Entry::Init(p));
        }
    }

    /// Runs until quiescence or a budget limit. `max_events` is a budget
    /// *per call*, not a total: calling `run` again continues the same
    /// execution where the last call stopped, for up to that many further
    /// steps, and the returned [`RunStats`] count that call's steps only
    /// (`max_time`, being a point on the execution's clock, is absolute).
    pub fn run(&mut self, limits: RunLimits) -> RunStats {
        let _span = abc_obs::span("sim.run");
        self.ensure_started();
        let mut stats = RunStats::default();
        while stats.events_executed < limits.max_events {
            let Some((time, entry)) = self.queue.pop_until(limits.max_time) else {
                break;
            };
            // A delivery: its message index, sender and payload.
            let (process, delivery) = match entry {
                Entry::Init(p) => (ProcessId(p), None),
                Entry::Deliver(slot) => {
                    let (mi, payload) = self.payloads[slot]
                        .take()
                        .expect("payload consumed exactly once");
                    self.free_slots.push(slot);
                    let message = &self.trace.messages[mi];
                    (message.to, Some((mi, message.from, payload)))
                }
            };
            let num_processes = self.processes.len();
            let behavior = &mut self.processes[process.0];
            let was_crashed = behavior.has_crashed();
            let mut marks = StepMarks::default();
            {
                let mut ctx = Context {
                    me: process,
                    now: time,
                    num_processes,
                    outbox: &mut self.outbox,
                    marks: &mut marks,
                };
                match &delivery {
                    None => behavior.on_init(&mut ctx),
                    Some((_, from, msg)) => behavior.on_message(&mut ctx, *from, msg),
                }
            }
            let trigger = delivery.map(|(mi, ..)| mi);
            let event = TraceEvent {
                seq: self.trace.events.len(),
                process,
                time,
                trigger,
                received_only: was_crashed && trigger.is_some(),
                label: marks.labelled.then_some(marks.label),
                distinguished: marks.distinguished,
            };
            self.commit_step(&mut stats, event);
        }
        stats.quiescent = self.queue.is_empty();
        // With the free list, the slab length IS the lifetime peak of
        // concurrently in-flight messages.
        stats.payload_slab_peak = self.payloads.len();
        stats
    }

    /// The one ordered commit point of an executed step: records the trace
    /// event, feeds the monitor, and dispatches the step's outbox through
    /// the delay model (in send order). The outbox is drained and left
    /// empty for the next step.
    fn commit_step(&mut self, stats: &mut RunStats, event: TraceEvent) {
        let TraceEvent {
            seq: event_idx,
            process,
            time,
            trigger,
            ..
        } = event;
        if let Some(mi) = trigger {
            self.trace.messages[mi].recv_event = Some(event_idx);
            self.trace.messages[mi].recv_time = Some(time);
            stats.messages_delivered += 1;
        }
        self.trace.events.push(event);
        self.feed_monitor_ordered(process, trigger, time);
        stats.events_executed += 1;
        stats.final_time = time;
        OBS_STEPS.add(1);
        self.dispatch_outbox(stats, process, event_idx, time);
    }

    /// Streams the committed event into the attached monitor. Trace events
    /// map to monitor graph events by index (every executed event is a
    /// receive event of the execution graph, in creation order).
    fn feed_monitor_ordered(&mut self, process: ProcessId, trigger: Option<usize>, time: u64) {
        if let Some(mon) = &mut self.monitor {
            match trigger {
                None => {
                    mon.append_init(process);
                }
                Some(mi) => {
                    // The ABC model (and the execution-graph builder)
                    // require a process's wake-up step to precede any
                    // reception; fail with a configuration-level
                    // message instead of a builder assert deep inside.
                    assert!(
                        mon.process_has_events(process),
                        "online monitor: message delivered to {process} at t={time} before \
                         its wake-up (staggered start with an early delivery); such \
                         executions fall outside Definition 1 — start {process} earlier \
                         or delay its incoming messages"
                    );
                    let send_event = EventId(self.trace.messages[mi].send_event);
                    mon.append_send(send_event, process);
                }
            }
        }
    }

    /// Dispatches the committed step's outbox through the delay model, in
    /// send order: draws delays, allocates payload slots from the free
    /// list, and enqueues the deliveries.
    fn dispatch_outbox(
        &mut self,
        stats: &mut RunStats,
        process: ProcessId,
        event_idx: usize,
        time: u64,
    ) {
        // Taken out for the loop (it calls `&mut self` methods) and put
        // back drained, with its capacity.
        let mut outbox = std::mem::take(&mut self.outbox);
        for (to, msg) in outbox.drain(..) {
            let mi = self.trace.messages.len();
            stats.messages_sent += 1;
            OBS_DISPATCHES.add(1);
            let delivery = self.delay_model.delivery(process, to, time, mi as u64);
            self.trace.messages.push(TraceMessage {
                from: process,
                to,
                send_event: event_idx,
                recv_event: None,
                send_time: time,
                recv_time: None,
            });
            match delivery {
                Delivery::Drop => {
                    stats.messages_dropped += 1;
                    OBS_DROPS.add(1);
                }
                Delivery::After(d) => {
                    let slot = match self.free_slots.pop() {
                        Some(s) => {
                            self.payloads[s] = Some((mi, msg));
                            s
                        }
                        None => {
                            self.payloads.push(Some((mi, msg)));
                            self.payloads.len() - 1
                        }
                    };
                    self.queue
                        .push(time.saturating_add(d), Entry::Deliver(slot));
                }
            }
        }
        self.outbox = outbox;
    }

    /// Read access to a process behavior (e.g. to extract final state).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn process(&self, p: ProcessId) -> &dyn Process<M> {
        self.processes[p.0].as_ref()
    }

    /// Typed access to a process behavior: downcasts to the concrete type
    /// it was added as (e.g. to read an algorithm's decision or report).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn process_as<P: Process<M>>(&self, p: ProcessId) -> Option<&P> {
        let obj: &dyn std::any::Any = self.process(p);
        obj.downcast_ref::<P>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{BandDelay, FixedDelay, GrowingDelay};
    use crate::process::{CrashAt, Mute};
    use abc_rational::Ratio;

    /// Echo server: replies to every ping with a pong, up to a budget.
    struct Echo {
        remaining: u32,
    }
    impl Process<u32> for Echo {
        fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me().0 == 0 {
                ctx.send(ProcessId(1), 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, m: &u32) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, m + 1);
                ctx.set_label(u64::from(*m));
            }
        }
    }

    #[test]
    fn ping_pong_terminates_and_orders_time() {
        let mut sim = Simulation::new(FixedDelay::new(10));
        sim.add_process(Echo { remaining: 3 });
        sim.add_process(Echo { remaining: 3 });
        let stats = sim.run(RunLimits::default());
        assert!(stats.quiescent);
        // init(2) + 6 deliveries before budgets run out at one side.
        assert_eq!(stats.messages_delivered, 7);
        let times: Vec<u64> = sim.trace().events().iter().map(|e| e.time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "events execute in chronological order");
        // Labels recorded the message values.
        assert!(sim.trace().events().iter().any(|e| e.label == Some(0)));
    }

    #[test]
    fn budget_limits_are_honoured() {
        let mut sim = Simulation::new(FixedDelay::new(1));
        sim.add_process(Echo {
            remaining: u32::MAX,
        });
        sim.add_process(Echo {
            remaining: u32::MAX,
        });
        let stats = sim.run(RunLimits {
            max_events: 50,
            max_time: u64::MAX,
        });
        assert_eq!(stats.events_executed, 50);
        assert!(!stats.quiescent);
        // Continue the same run.
        let stats2 = sim.run(RunLimits {
            max_events: 50,
            max_time: u64::MAX,
        });
        assert_eq!(stats2.events_executed, 50);
        assert!(sim.trace().events().len() >= 100);
    }

    #[test]
    fn max_time_stops_before_event() {
        let mut sim = Simulation::new(FixedDelay::new(100));
        sim.add_process(Echo {
            remaining: u32::MAX,
        });
        sim.add_process(Echo {
            remaining: u32::MAX,
        });
        let stats = sim.run(RunLimits {
            max_events: usize::MAX,
            max_time: 250,
        });
        // Events at t=0 (inits), 100, 200 execute; t=300 does not.
        assert!(stats.final_time <= 250);
        assert!(!stats.quiescent);
    }

    #[test]
    fn crashed_processes_still_receive() {
        let mut sim = Simulation::new(FixedDelay::new(5));
        sim.add_process(Echo { remaining: 10 });
        // Crashes after its init step: receives but never replies.
        sim.add_faulty_process(CrashAt::new(Echo { remaining: 10 }, 1));
        let stats = sim.run(RunLimits::default());
        assert!(stats.quiescent);
        // p0 init sends ping; p1 receives it (event recorded) but no pong.
        assert_eq!(stats.messages_delivered, 1);
        let trace = sim.trace();
        assert_eq!(trace.events_per_process(), vec![1, 2]);
        assert!(trace.is_faulty(ProcessId(1)));
    }

    #[test]
    fn payload_slab_stays_bounded_over_long_two_phase_runs() {
        // Regression: the slab used to grow one slot per message ever sent.
        // A ping-pong run has at most one message in flight per direction,
        // so the slab must stay O(1) no matter how long the run is.
        let mut sim = Simulation::new(FixedDelay::new(1));
        sim.add_process(Echo {
            remaining: u32::MAX,
        });
        sim.add_process(Echo {
            remaining: u32::MAX,
        });
        let limits = RunLimits {
            max_events: 5_000,
            max_time: u64::MAX,
        };
        let stats1 = sim.run(limits);
        let stats2 = sim.run(limits); // second phase of the same execution
        assert!(stats1.messages_sent >= 4_000);
        assert!(stats2.messages_sent >= 4_000);
        assert!(
            stats2.payload_slab_peak <= 4,
            "slab grew to {} slots for ~10k total messages",
            stats2.payload_slab_peak
        );
    }

    /// Broadcasts at init, echoes every message back to its sender (with a
    /// budget): enough concurrent traffic for band delays to reorder
    /// messages and close relevant cycles.
    struct Gossip {
        remaining: u32,
    }
    impl Process<u32> for Gossip {
        fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, m: &u32) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, m + 1);
            }
        }
    }

    #[test]
    fn attached_monitor_agrees_with_batch_checker() {
        use abc_core::check;
        let run = |xi: &Xi| {
            let mut sim = Simulation::new(BandDelay::new(1, 6, 99));
            sim.add_process(Gossip { remaining: 40 });
            sim.add_process(Gossip { remaining: 40 });
            sim.add_process(Gossip { remaining: 40 });
            sim.attach_monitor(xi).unwrap();
            sim.run(RunLimits::default());
            sim
        };
        // Band [1, 6]: admissible for Xi > 6, possibly violating near 1.
        for xi in [
            Xi::from_fraction(7, 6),
            Xi::from_integer(2),
            Xi::from_integer(7),
        ] {
            let sim = run(&xi);
            let g = sim.trace().to_execution_graph();
            let mon = sim.monitor().expect("monitor attached");
            assert_eq!(mon.graph(), &g, "streamed graph equals batch conversion");
            assert_eq!(
                mon.is_admissible(),
                check::is_admissible(&g, &xi).unwrap(),
                "xi = {xi}"
            );
            if let Some(w) = sim.violation() {
                assert!(w.validate(&g).is_ok());
                assert!(w.classify().violates(&xi));
            }
        }
    }

    #[test]
    fn monitor_detects_fig3_violation_mid_run() {
        // The paper's Fig. 3 shape, live: p0 pings a slow and a fast peer;
        // fast round trips pile up while the slow reply is outstanding, so
        // its arrival closes a relevant cycle with a large ratio.
        use crate::delay::PerLinkBand;
        let mut slow_links = PerLinkBand::new(1, 1, 0);
        slow_links.set_link(ProcessId(0), ProcessId(1), 100, 100);
        slow_links.set_link(ProcessId(1), ProcessId(0), 100, 100);
        struct Fig3 {
            budget: u32,
        }
        impl Process<u32> for Fig3 {
            fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.me().0 == 0 {
                    ctx.send(ProcessId(1), 0);
                    ctx.send(ProcessId(2), 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, m: &u32) {
                if self.budget > 0 {
                    self.budget -= 1;
                    ctx.send(from, m + 1);
                }
            }
        }
        let xi = Xi::from_integer(3);
        let mut sim = Simulation::new(slow_links);
        for _ in 0..3 {
            sim.add_process(Fig3 { budget: 30 });
        }
        sim.attach_monitor(&xi).unwrap();
        let stats = sim.run(RunLimits::default());
        assert!(stats.quiescent);
        let w = sim.violation().expect("slow reply spans the fast chain");
        let g = sim.trace().to_execution_graph();
        assert!(w.validate(&g).is_ok());
        assert!(w.classify().violates(&xi));
        assert!(w.classify().ratio().unwrap() >= Ratio::from_integer(3));
    }

    #[test]
    fn monitor_exempts_faulty_senders() {
        use abc_core::check;
        let xi = Xi::from_fraction(7, 6);
        let mut sim = Simulation::new(BandDelay::new(1, 6, 5));
        sim.add_process(Gossip { remaining: 30 });
        sim.add_faulty_process(Gossip { remaining: 30 });
        sim.add_process(Gossip { remaining: 30 });
        sim.attach_monitor(&xi).unwrap();
        sim.run(RunLimits::default());
        let g = sim.trace().to_execution_graph();
        let mon = sim.monitor().unwrap();
        assert_eq!(mon.graph(), &g);
        assert_eq!(mon.is_admissible(), check::is_admissible(&g, &xi).unwrap());
    }

    #[test]
    #[should_panic(expected = "before its wake-up")]
    fn monitored_early_delivery_to_staggered_process_panics_clearly() {
        // p0 pings p1 at t=0 with delay 1, but p1 only wakes at t=500:
        // the delivery precedes the wake-up, which Definition 1 forbids.
        let mut sim = Simulation::new(FixedDelay::new(1));
        sim.add_process(Echo { remaining: 1 });
        sim.add_process_starting_at(Echo { remaining: 1 }, 500);
        sim.attach_monitor(&Xi::from_integer(2)).unwrap();
        sim.run(RunLimits::default());
    }

    #[test]
    #[should_panic(expected = "after the run started")]
    fn attach_monitor_after_start_panics() {
        let mut sim: Simulation<u32, _> = Simulation::new(FixedDelay::new(1));
        sim.add_process(Mute);
        sim.run(RunLimits::default());
        let _ = sim.attach_monitor(&Xi::from_integer(2));
    }

    #[test]
    fn staggered_starts() {
        let mut sim: Simulation<u32, _> = Simulation::new(FixedDelay::new(1));
        sim.add_process(Mute);
        sim.add_process_starting_at(Mute, 500);
        sim.run(RunLimits::default());
        let evs = sim.trace().events();
        assert_eq!(evs[0].time, 0);
        assert_eq!(evs[1].time, 500);
    }

    #[test]
    fn run_stats_display_round_trips() {
        let mut sim = Simulation::new(FixedDelay::new(10));
        sim.add_process(Echo { remaining: 3 });
        sim.add_process(Echo { remaining: 3 });
        let stats = sim.run(RunLimits::default());
        let line = stats.to_string();
        assert!(line.contains("delivered=7"), "{line}");
        let parsed: RunStats = line.parse().unwrap();
        assert_eq!(parsed, stats);
        assert!("bogus".parse::<RunStats>().is_err());
        assert!("zorp=3".parse::<RunStats>().is_err());
        // Truncated/partial lines must not fail open into zeros.
        assert!("".parse::<RunStats>().is_err());
        assert!("events=500".parse::<RunStats>().is_err());
        // Duplicate keys must be parse errors, not silent last-one-wins —
        // for the first key, a later key, and a duplicate that repeats the
        // same value.
        assert!(format!("{line} events=1").parse::<RunStats>().is_err());
        assert!(format!("{line} slab_peak=9").parse::<RunStats>().is_err());
        assert!(
            format!("{line} quiescent={}", stats.quiescent)
                .parse::<RunStats>()
                .is_err(),
            "same-value duplicates are still duplicates"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(BandDelay::new(1, 9, seed));
            sim.add_process(Echo { remaining: 20 });
            sim.add_process(Echo { remaining: 20 });
            sim.run(RunLimits::default());
            sim.trace()
                .events()
                .iter()
                .map(|e| (e.process, e.time))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    // ---- reuse: `reset` re-arms, and keeps what it allocated ----

    impl<M, D> Simulation<M, D> {
        /// Everything `reset` keeps, summed (for the "a second run
        /// allocates nothing" test).
        fn capacity(&self) -> usize {
            self.processes.capacity()
                + self.faulty.capacity()
                + self.start_times.capacity()
                + self.queue.capacity()
                + self.payloads.capacity()
                + self.free_slots.capacity()
                + self.outbox.capacity()
                + self.trace.events.capacity()
                + self.trace.messages.capacity()
                + self.trace.faulty.capacity()
        }
    }

    /// One 300-event execution of three gossips and a crashing one over
    /// `sim`'s delays, replayed into `mon` at `Xi = xi`: what a re-armed
    /// engine and monitor must reproduce.
    fn gossip_run<D: DelayModel>(
        sim: &mut Simulation<u32, D>,
        mon: &mut IncrementalChecker,
        xi: &Xi,
    ) -> (
        RunStats,
        String,
        Option<usize>,
        abc_core::monitor::MonitorStats,
    ) {
        for _ in 0..3 {
            sim.add_process(Gossip { remaining: 400 });
        }
        sim.add_faulty_process(CrashAt::new(Gossip { remaining: 400 }, 5));
        let stats = sim.run(RunLimits {
            max_events: 300,
            max_time: u64::MAX,
        });
        let latched = sim.trace().replay_until_violation_into(mon, xi).unwrap();
        (stats, sim.trace().to_text(), latched, mon.stats())
    }

    /// Layout pin. A queue entry of more than two words (or two whose
    /// variants put their word at different offsets) is passed to the
    /// calendar through memory, and the calendar's wide reload of the
    /// engine's word stores stalls on every delivery scheduled (the module
    /// docs).
    #[test]
    fn a_queue_entry_is_two_words() {
        assert!(std::mem::size_of::<Entry>() <= 2 * std::mem::size_of::<usize>());
    }

    #[test]
    fn a_second_equal_run_after_reset_grows_no_capacity() {
        // Admissible at Xi = 7, so the replay streams the whole trace; the
        // 300-event budget stops the run with messages still in flight.
        let xi = Xi::from_integer(7);
        let mut sim = Simulation::new(BandDelay::new(1, 6, 99));
        let mut mon = IncrementalChecker::new(0, &xi).unwrap();
        mon.enable_pruning();
        let first = gossip_run(&mut sim, &mut mon, &xi);
        assert!(!first.0.quiescent && first.0.events_executed == 300);
        assert_eq!((first.2, first.3.events), (None, 300));
        let before = (sim.capacity(), mon.capacity());
        sim.reset(BandDelay::new(1, 6, 99));
        assert_eq!(sim.num_processes(), 0);
        assert!(sim.trace().events().is_empty() && sim.trace().messages().is_empty());
        assert_eq!(
            gossip_run(&mut sim, &mut mon, &xi),
            first,
            "the reset engine diverged"
        );
        assert_eq!(
            (sim.capacity(), mon.capacity()),
            before,
            "the second run allocated"
        );

        // Growing delays widen the queue's ring past its first width and
        // spill what lies beyond its cap: the width grown in the first run
        // is kept by `reset`, so the second run grows nothing.
        let growing = || GrowingDelay::new(1, 8, 2, 99);
        let mut sim = Simulation::new(growing());
        let first = gossip_run(&mut sim, &mut mon, &xi);
        let width = sim.queue.width();
        assert!(width > 64, "the ring never widened");
        let before = (sim.capacity(), mon.capacity());
        sim.reset(growing());
        assert_eq!(sim.queue.width(), width, "reset narrowed the ring");
        assert_eq!(
            gossip_run(&mut sim, &mut mon, &xi),
            first,
            "the reset engine diverged"
        );
        assert_eq!(
            (sim.capacity(), mon.capacity()),
            before,
            "the second run allocated"
        );
    }

    #[test]
    fn reset_detaches_the_monitor_and_allows_new_processes() {
        let mut sim = Simulation::new(FixedDelay::new(1));
        sim.add_process(Echo { remaining: 5 });
        sim.add_faulty_process(Echo { remaining: 5 });
        sim.attach_monitor(&Xi::from_integer(2)).unwrap();
        assert!(sim.run(RunLimits::default()).quiescent);
        assert!(sim.monitor().is_some());
        sim.reset(FixedDelay::new(10));
        assert!(sim.monitor().is_none() && sim.monitor_stats().is_none());
        // Started no more: processes and a monitor can be added again, the
        // old faulty mark is gone, and ties count from zero.
        sim.add_process(Echo { remaining: 3 });
        sim.add_process(Echo { remaining: 3 });
        let stats = sim.run(RunLimits::default());
        assert_eq!(stats.messages_delivered, 7);
        assert_eq!(sim.trace().faulty, vec![false, false]);
        assert!(sim.monitor().is_none(), "the attachment did not survive");
        let mut fresh = Simulation::new(FixedDelay::new(10));
        fresh.add_process(Echo { remaining: 3 });
        fresh.add_process(Echo { remaining: 3 });
        assert_eq!(fresh.run(RunLimits::default()), stats);
        assert_eq!(fresh.trace().to_text(), sim.trace().to_text());
    }

    // ---- same-timestamp ("parallel") deliveries and degenerate runs ----

    #[test]
    fn parallel_run_continues_across_budget_calls() {
        // All 8 broadcasts arrive at t=2 (64 deliveries), so a 40-event
        // budget stops inside that timestamp; a second call must pick up
        // exactly where the first stopped.
        let sim = || {
            let mut sim = Simulation::new(FixedDelay::new(2));
            for _ in 0..8 {
                sim.add_process(Gossip { remaining: 12 });
            }
            sim
        };
        let budget = |max_events| RunLimits {
            max_events,
            max_time: u64::MAX,
        };
        let mut whole = sim();
        let total = whole.run(RunLimits::default());
        assert!(total.quiescent);

        let mut split = sim();
        let first = split.run(budget(40));
        assert_eq!(first.events_executed, 40);
        assert_eq!(first.final_time, 2, "the cut lands inside t=2");
        assert!(!first.quiescent);
        let second = split.run(budget(usize::MAX));
        assert_eq!(split.trace().to_text(), whole.trace().to_text());
        let summed = RunStats {
            events_executed: first.events_executed + second.events_executed,
            messages_sent: first.messages_sent + second.messages_sent,
            messages_delivered: first.messages_delivered + second.messages_delivered,
            messages_dropped: first.messages_dropped + second.messages_dropped,
            ..second
        };
        assert_eq!(summed, total);
    }

    #[test]
    fn parallel_zero_process_run_quiesces() {
        let mut sim: Simulation<u32, _> = Simulation::new(FixedDelay::new(1));
        let stats = sim.run(RunLimits::default());
        assert_eq!(
            stats,
            RunStats {
                quiescent: true,
                ..RunStats::default()
            }
        );
    }

    /// Seeds itself three zero-delay self-messages at wake-up and forwards
    /// each until a hop budget drains: every step of the run lands at
    /// t=0, including same-timestamp self-messages created *during* the
    /// timestamp.
    struct SelfLooper {
        hops: u32,
    }
    impl Process<u32> for SelfLooper {
        fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
            let me = ctx.me();
            for i in 0..3 {
                ctx.send(me, i);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ProcessId, m: &u32) {
            if self.hops > 0 {
                self.hops -= 1;
                let me = ctx.me();
                ctx.send(me, m + 1);
                ctx.set_label(u64::from(*m));
            }
        }
    }

    #[test]
    fn parallel_single_process_same_timestamp_self_messages() {
        // One process, every entry at the same discrete time, each step
        // enqueueing the next at that time: ties alone order the run, so
        // deliveries are FIFO in send order.
        let mut sim = Simulation::new(FixedDelay::new(0));
        sim.add_process(SelfLooper { hops: 25 });
        let stats = sim.run(RunLimits::default());
        assert!(stats.quiescent);
        assert_eq!(stats.final_time, 0, "everything happens at t=0");
        assert_eq!(stats.messages_sent, 3 + 25);
        assert_eq!(stats.events_executed, 1 + 3 + 25);
        // The k-th delivery carries value k % 3 + k / 3 (three interleaved
        // chains); the last three find the hop budget spent.
        let labels: Vec<Option<u64>> = sim.trace().events()[1..].iter().map(|e| e.label).collect();
        let expected: Vec<Option<u64>> = (0..28u64)
            .map(|k| (k < 25).then_some(k % 3 + k / 3))
            .collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn parallel_zero_delay_fanout_matches_sequential() {
        // Broadcast storm with zero network delay: the whole run is one
        // discrete time, so the (time, tie) order degenerates to send
        // order — message i is received before message j whenever i < j.
        let mut sim = Simulation::new(FixedDelay::new(0));
        for _ in 0..6 {
            sim.add_process(Gossip { remaining: 15 });
        }
        let stats = sim.run(RunLimits::default());
        assert!(stats.quiescent);
        assert_eq!(stats.final_time, 0);
        assert_eq!(stats.messages_sent, 6 * 6 + 6 * 15);
        assert_eq!(stats.messages_delivered, stats.messages_sent);
        let recv: Vec<usize> = sim
            .trace()
            .messages()
            .iter()
            .map(|m| m.recv_event.expect("nothing is dropped"))
            .collect();
        assert!(recv.windows(2).all(|w| w[0] < w[1]), "{recv:?}");
    }

    #[test]
    fn parallel_crash_and_faulty_marks_match_sequential() {
        // p1 completes two steps (wake-up + one reception), then crashes:
        // every later delivery to it is a receive-only event, it sends
        // nothing further, and the trace carries its faulty mark.
        let mut sim = Simulation::new(BandDelay::new(1, 4, 23));
        sim.add_process(Gossip { remaining: 30 });
        sim.add_faulty_process(CrashAt::new(Gossip { remaining: 30 }, 2));
        sim.add_process(Gossip { remaining: 30 });
        assert!(sim.run(RunLimits::default()).quiescent);
        let trace = sim.trace();
        assert_eq!(trace.faulty, vec![false, true, false]);
        let at_p1: Vec<&TraceEvent> = trace
            .events()
            .iter()
            .filter(|e| e.process == ProcessId(1))
            .collect();
        assert!(at_p1.len() > 2, "peers keep echoing to the crashed process");
        for (step, ev) in at_p1.iter().enumerate() {
            assert_eq!(ev.received_only, step >= 2, "step {step} at p1");
        }
        let sent_by_p1 = trace
            .messages()
            .iter()
            .filter(|m| m.from == ProcessId(1))
            .count();
        assert_eq!(
            sent_by_p1,
            3 + 1,
            "one broadcast and one echo, then silence"
        );
        assert!(trace
            .events()
            .iter()
            .all(|e| e.process == ProcessId(1) || !e.received_only));
    }
}
