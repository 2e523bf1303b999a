//! Space–time traces of simulated executions and their conversion into
//! execution graphs.

use abc_core::check::CheckError;
use abc_core::graph::ExecutionGraph;
use abc_core::monitor::IncrementalChecker;
use abc_core::timed::TimedGraph;
use abc_core::{EventId, ProcessId, Xi};
use abc_rational::Ratio;

/// One receive event (plus its zero-time computing step) in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global step index (creation order; ties in time are ordered by this).
    pub seq: usize,
    /// The process at which the event occurred.
    pub process: ProcessId,
    /// Occurrence time.
    pub time: u64,
    /// Index of the triggering trace message, or `None` for wake-up events.
    pub trigger: Option<usize>,
    /// Whether the owning process had already crashed (the message was
    /// received but not processed — the paper's receive/processing split).
    pub received_only: bool,
    /// Optional instrumentation label set by the algorithm (e.g. the clock
    /// value after the step).
    pub label: Option<u64>,
    /// Whether the algorithm marked this step as a distinguished event
    /// (Definition 7).
    pub distinguished: bool,
}

/// One message in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMessage {
    /// Sender process.
    pub from: ProcessId,
    /// Receiver process.
    pub to: ProcessId,
    /// Trace-event index of the sending step.
    pub send_event: usize,
    /// Trace-event index of the receive event (`None` while in flight or
    /// dropped).
    pub recv_event: Option<usize>,
    /// Send time.
    pub send_time: u64,
    /// Receive time (`None` while in flight or dropped).
    pub recv_time: Option<u64>,
}

/// A complete space–time trace of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub(crate) num_processes: usize,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) messages: Vec<TraceMessage>,
    pub(crate) faulty: Vec<bool>,
}

impl Trace {
    /// Empties the trace, keeping the capacity of its three vectors (the
    /// trace half of [`crate::Simulation::reset`]).
    pub(crate) fn clear(&mut self) {
        // Exhaustive on purpose, as in `Simulation::reset`.
        let Trace {
            num_processes,
            events,
            messages,
            faulty,
        } = self;
        *num_processes = 0;
        events.clear();
        messages.clear();
        faulty.clear();
    }

    /// Number of processes.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    /// All events, in global chronological (= creation) order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All messages, in send order.
    #[must_use]
    pub fn messages(&self) -> &[TraceMessage] {
        &self.messages
    }

    /// Whether `p` was registered as faulty.
    #[must_use]
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty[p.0]
    }

    /// Converts the trace into an execution graph (Definition 1), dropping
    /// in-flight/dropped messages (only completed receive events are
    /// nodes). Faulty processes are marked so their messages are exempt
    /// from the ABC condition. Every trace event is a completed event, so
    /// trace event `i` is graph event `EventId(i)`.
    #[must_use]
    pub fn to_execution_graph(&self) -> ExecutionGraph {
        let mut b = ExecutionGraph::builder(self.num_processes);
        b.reserve(self.events.len(), self.messages.len());
        for ev in &self.events {
            match ev.trigger {
                None => {
                    b.init(ev.process);
                }
                Some(mi) => {
                    // The sender precedes its receive, so it is already a
                    // graph event, at its own index.
                    b.send(EventId(self.messages[mi].send_event), ev.process);
                }
            }
        }
        for (p, faulty) in self.faulty.iter().enumerate() {
            if *faulty {
                b.mark_faulty(ProcessId(p));
            }
        }
        b.finish()
    }

    /// Streams the trace event by event into a fresh
    /// [`IncrementalChecker`] for `Ξ = xi`, appending to the execution
    /// graph incrementally (no per-step rebuild). The resulting monitor's
    /// graph equals [`Trace::to_execution_graph`], and its verdict and
    /// witness are `check::find_violation`'s (a replay of that graph) —
    /// this is the offline counterpart of attaching the monitor to a live
    /// [`crate::Simulation`].
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed the monitor's
    /// integer range.
    pub fn replay_into_monitor(&self, xi: &Xi) -> Result<IncrementalChecker, CheckError> {
        let mut mon = IncrementalChecker::new(self.num_processes, xi)?;
        self.replay_monitor_inner(&mut mon, false);
        Ok(mon)
    }

    /// Like [`Trace::replay_into_monitor`], but stops streaming as soon as
    /// the monitor latches a violation. Returns the monitor plus the index
    /// of the trace event whose append closed the first violating cycle
    /// (`None` if the whole trace is admissible). A harness that checks
    /// one trace after another lends one monitor to
    /// [`Trace::replay_until_violation_into`] instead.
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed the monitor's
    /// integer range.
    pub fn replay_into_monitor_until_violation(
        &self,
        xi: &Xi,
    ) -> Result<(IncrementalChecker, Option<usize>), CheckError> {
        let mut mon = IncrementalChecker::new(self.num_processes, xi)?;
        let violation_at = self.replay_monitor_inner(&mut mon, true);
        Ok((mon, violation_at))
    }

    /// [`Trace::replay_into_monitor_until_violation`] into a monitor the
    /// caller lends: `mon` is re-armed for this trace and `Ξ = xi`
    /// ([`IncrementalChecker::reset`] — whatever it monitored before is
    /// gone, its mode choices and the capacity of its columns stay) and
    /// the trace is streamed into it up to the first violation. Returns
    /// the index of the trace event that latched it, if any. A harness
    /// that checks one trace after another lends the same monitor each
    /// time and allocates for the largest trace only; verdict, latch point,
    /// witness and margin are those of a fresh monitor.
    ///
    /// # Errors
    ///
    /// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed the monitor's
    /// integer range; `mon` is then left as it was.
    pub fn replay_until_violation_into(
        &self,
        mon: &mut IncrementalChecker,
        xi: &Xi,
    ) -> Result<Option<usize>, CheckError> {
        mon.reset(self.num_processes, xi)?;
        Ok(self.replay_monitor_inner(mon, true))
    }

    /// The one replay loop, into a lent monitor armed for this trace's
    /// process count and holding no event yet: new, or
    /// [`IncrementalChecker::reset`]. Returns the index of the event that
    /// latched the first violation.
    fn replay_monitor_inner(
        &self,
        mon: &mut IncrementalChecker,
        stop_on_violation: bool,
    ) -> Option<usize> {
        for (p, faulty) in self.faulty.iter().enumerate() {
            if *faulty {
                mon.mark_faulty(ProcessId(p));
            }
        }
        let mut violation_at = None;
        for (idx, ev) in self.events.iter().enumerate() {
            match ev.trigger {
                None => {
                    mon.append_init(ev.process);
                }
                Some(mi) => {
                    // Completed trace events map to graph events by index.
                    let send_event = EventId(self.messages[mi].send_event);
                    mon.append_send(send_event, ev.process);
                }
            }
            if violation_at.is_none() && mon.violation().is_some() {
                violation_at = Some(idx);
                if stop_on_violation {
                    break;
                }
            }
        }
        violation_at
    }

    /// The real occurrence times of the graph events produced by
    /// [`Trace::to_execution_graph`], as a [`TimedGraph`].
    #[must_use]
    pub fn to_timed_graph(&self) -> TimedGraph {
        // Graph events are created in trace order, so times align 1:1 with
        // completed trace events.
        let times: Vec<Ratio> = self
            .events
            .iter()
            .map(|e| {
                // Tie-break equal times by the global sequence number so
                // that process lines are strictly increasing, scaled to
                // keep the integer part meaningful: t + seq/(N+1).
                let n = self.events.len() as i64 + 1;
                Ratio::from_integer(i64::try_from(e.time).expect("time fits i64"))
                    + Ratio::new(e.seq as i64, n)
            })
            .collect();
        TimedGraph::new(times)
    }

    /// Count of events at each process.
    #[must_use]
    pub fn events_per_process(&self) -> Vec<usize> {
        let mut counts = vec![0; self.num_processes];
        for e in &self.events {
            counts[e.process.0] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::FixedDelay;
    use crate::engine::{RunLimits, Simulation};
    use crate::process::{Context, Process};

    /// Everyone broadcasts once at init; no replies.
    struct Bcast;
    impl Process<u8> for Bcast {
        fn on_init(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.broadcast(7);
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: &u8) {}
    }

    #[test]
    fn trace_to_graph_round_trip() {
        let mut sim = Simulation::new(FixedDelay::new(3));
        for _ in 0..3 {
            sim.add_process(Bcast);
        }
        sim.run(RunLimits::default());
        let trace = sim.trace();
        // 3 inits + 9 broadcast receptions.
        assert_eq!(trace.events().len(), 12);
        assert_eq!(trace.messages().len(), 9);
        let g = trace.to_execution_graph();
        assert_eq!(g.num_events(), 12);
        assert_eq!(g.num_messages(), 9);
        // Trace event `i` is graph event `i`.
        for (i, ev) in trace.events().iter().enumerate() {
            assert_eq!(g.event(EventId(i)).process, ev.process);
        }
        let timed = trace.to_timed_graph();
        timed.validate(&g).unwrap();
        // All messages have delay ~3 (mod tie-break fractions).
        for m in g.messages() {
            let d = timed.message_delay(&g, m.id);
            assert!(d > Ratio::from_integer(2) && d < Ratio::from_integer(4));
        }
    }
}
