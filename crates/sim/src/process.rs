//! Process behaviors and the step context.

use abc_core::ProcessId;

/// A message-driven process: a state machine whose steps are triggered by
/// single incoming messages (the paper's Section 2 model).
///
/// Correct algorithm processes and Byzantine adversaries implement the same
/// trait — Byzantine behavior is "an arbitrary state machine", which is
/// exactly an arbitrary implementation. Mark adversaries faulty via
/// [`crate::Simulation::add_faulty_process`] so their messages are dropped
/// from the ABC synchrony condition (Section 2's message dropping).
pub trait Process<M>: std::any::Any {
    /// The wake-up step (triggered by the external wake-up message). Runs
    /// before any message from another process is processed.
    fn on_init(&mut self, ctx: &mut Context<'_, M>);

    /// One atomic receive + compute + send step.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: &M);

    /// Whether the process has crashed (stopped processing). Crashed
    /// processes still *receive* messages; the trace marks those events
    /// receive-only. Defaults to `false`.
    fn has_crashed(&self) -> bool {
        false
    }
}

/// The capabilities available to a process during a step: identity, the
/// current (zero-time) step's occurrence time, sending, and trace
/// instrumentation.
pub struct Context<'a, M> {
    pub(crate) me: ProcessId,
    pub(crate) now: u64,
    pub(crate) num_processes: usize,
    pub(crate) outbox: &'a mut Vec<(ProcessId, M)>,
    pub(crate) marks: &'a mut StepMarks,
}

/// What a process marks on the trace event of its step, read back by the
/// engine field by field. An `Option<u64>` here would come back as one
/// 16-byte copy of the two words `set_label` has just stored: a load the
/// store buffer cannot forward, on every step.
#[derive(Default)]
pub(crate) struct StepMarks {
    pub(crate) label: u64,
    pub(crate) labelled: bool,
    pub(crate) distinguished: bool,
}

impl<M: Clone> Context<'_, M> {
    /// The identity of the stepping process.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The real time of this (zero-duration) step.
    ///
    /// Note: algorithms in the ABC model are time-free and must not base
    /// decisions on this value; it exists for instrumentation and for
    /// implementing *other* models' algorithms (e.g. timeout-based ones)
    /// for comparison experiments.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of processes in the system.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    /// Sends `msg` to `to` (which may be `self.me()`; the paper's
    /// Algorithm 1 sends to itself).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every process, including the sender (the paper's
    /// "send to all" convention).
    pub fn broadcast(&mut self, msg: M) {
        for p in 0..self.num_processes {
            self.outbox.push((ProcessId(p), msg.clone()));
        }
    }

    /// Attaches a numeric label to this step's trace event (used e.g. to
    /// record clock values for precision measurements).
    pub fn set_label(&mut self, value: u64) {
        self.marks.label = value;
        self.marks.labelled = true;
    }

    /// Marks this step as a *distinguished event* for the bounded-progress
    /// condition (Definition 7).
    pub fn mark_distinguished(&mut self) {
        self.marks.distinguished = true;
    }
}

/// Wraps a behavior so the process crashes (stops processing) after a given
/// number of completed steps. Step 0 is `on_init`; `CrashAt::new(b, 0)`
/// crashes before doing anything.
///
/// Crashed processes still *receive* messages (the network controls
/// reception), matching the paper's receive/processing split — the events
/// appear in the trace, the process just never acts again.
pub struct CrashAt<P> {
    inner: P,
    crash_after_steps: usize,
    steps: usize,
}

impl<P> CrashAt<P> {
    /// Crash after `steps` completed steps.
    #[must_use]
    pub fn new(inner: P, steps: usize) -> CrashAt<P> {
        CrashAt {
            inner,
            crash_after_steps: steps,
            steps: 0,
        }
    }

    /// Whether the crash point has been reached.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.steps >= self.crash_after_steps
    }

    /// Access the wrapped behavior (e.g. to read final state).
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<M: 'static, P: Process<M>> Process<M> for CrashAt<P> {
    fn on_init(&mut self, ctx: &mut Context<'_, M>) {
        if self.crashed() {
            return;
        }
        self.steps += 1;
        self.inner.on_init(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: &M) {
        if self.crashed() {
            return;
        }
        self.steps += 1;
        self.inner.on_message(ctx, from, msg);
    }

    fn has_crashed(&self) -> bool {
        self.crashed()
    }
}

/// A process that never sends anything (crash-from-start / mute Byzantine
/// behavior).
#[derive(Clone, Copy, Debug, Default)]
pub struct Mute;

impl<M: 'static> Process<M> for Mute {
    fn on_init(&mut self, _ctx: &mut Context<'_, M>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, M>, _from: ProcessId, _msg: &M) {}
}
