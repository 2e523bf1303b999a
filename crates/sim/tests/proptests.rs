//! Property tests for the simulator: trace well-formedness, determinism,
//! and graph-extraction invariants across random workloads.

use abc_core::ProcessId;
use abc_sim::delay::BandDelay;
use abc_sim::{Context, Process, RunLimits, Simulation};
use proptest::prelude::*;

/// A randomized gossiping process: forwards a decremented token to a peer
/// chosen by simple arithmetic on its state.
#[derive(Clone, Debug)]
struct Gossip {
    fanout: usize,
    state: u64,
}

impl Process<u64> for Gossip {
    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        let n = ctx.num_processes();
        for i in 0..self.fanout.min(n) {
            ctx.send(ProcessId((ctx.me().0 + i + 1) % n), 8);
        }
        ctx.set_label(self.state);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: &u64) {
        self.state = self.state.wrapping_add(*msg);
        if *msg > 0 {
            let n = ctx.num_processes();
            ctx.send(ProcessId((from.0 + self.state as usize) % n), msg - 1);
        }
        ctx.set_label(self.state);
    }
}

fn run(n: usize, fanout: usize, lo: u64, hi: u64, seed: u64) -> Simulation<u64, BandDelay> {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for _ in 0..n {
        sim.add_process(Gossip { fanout, state: 0 });
    }
    sim.run(RunLimits {
        max_events: 5_000,
        max_time: u64::MAX,
    });
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Traces are chronologically ordered, message endpoints resolve, and
    /// the extracted graph + timed graph validate.
    #[test]
    fn trace_wellformedness(
        n in 2usize..6,
        fanout in 1usize..4,
        lo in 1u64..20,
        spread in 0u64..30,
        seed in any::<u64>(),
    ) {
        let sim = run(n, fanout, lo, lo + spread, seed);
        let trace = sim.trace();
        // Chronological event order.
        prop_assert!(trace.events().windows(2).all(|w| w[0].time <= w[1].time));
        // Message bookkeeping: delivered messages point at real events.
        for m in trace.messages() {
            if let Some(r) = m.recv_event {
                prop_assert_eq!(trace.events()[r].trigger.is_some(), true);
                prop_assert!(m.recv_time.unwrap() >= m.send_time);
                prop_assert_eq!(trace.events()[m.send_event].process, m.from);
                prop_assert_eq!(trace.events()[r].process, m.to);
            }
        }
        // Graph extraction round-trips, and real times validate.
        let g = trace.to_execution_graph();
        prop_assert_eq!(g.num_events(), trace.events().len());
        let timed = trace.to_timed_graph();
        prop_assert!(timed.validate(&g).is_ok());
    }

    /// Same seed => identical trace; the band bounds hold for every
    /// delivered message.
    #[test]
    fn determinism_and_band_bounds(
        n in 2usize..5,
        lo in 1u64..10,
        spread in 0u64..10,
        seed in any::<u64>(),
    ) {
        let a = run(n, 2, lo, lo + spread, seed);
        let b = run(n, 2, lo, lo + spread, seed);
        let key = |s: &Simulation<u64, BandDelay>| -> Vec<(usize, u64, Option<u64>)> {
            s.trace()
                .events()
                .iter()
                .map(|e| (e.process.0, e.time, e.label))
                .collect()
        };
        prop_assert_eq!(key(&a), key(&b));
        for m in a.trace().messages() {
            if let Some(rt) = m.recv_time {
                let d = rt - m.send_time;
                prop_assert!(d >= lo && d <= lo + spread);
            }
        }
    }

    /// Band executions are always ABC-admissible for Xi above the band
    /// ratio — the workhorse assumption of the clock-sync experiments,
    /// verified against the real checker on random workloads.
    #[test]
    fn band_executions_are_abc_admissible(
        n in 2usize..5,
        seed in any::<u64>(),
    ) {
        let sim = run(n, 2, 10, 19, seed);
        let g = sim.trace().to_execution_graph();
        let xi = abc_core::Xi::from_fraction(2, 1);
        prop_assert!(abc_core::check::is_admissible(&g, &xi).unwrap());
    }

    /// The attached streaming monitor, the offline trace replay, and the
    /// batch checker all agree on random workloads — including tight Xi
    /// values where band reordering does produce violations. So does the
    /// engine's bounded monitor, pruning at its in-flight watermark at any
    /// cadence.
    #[test]
    fn attached_monitor_matches_batch_and_replay(
        n in 2usize..5,
        lo in 1u64..6,
        spread in 0u64..8,
        seed in any::<u64>(),
        num in 5i64..15,
        den in 4i64..8,
        prune_every in 1usize..40,
    ) {
        prop_assume!(num > den);
        let xi = abc_core::Xi::from_fraction(num, den);
        let run = |bounded: bool| {
            let mut sim = Simulation::new(BandDelay::new(lo, lo + spread, seed));
            for _ in 0..n {
                sim.add_process(Gossip { fanout: 2, state: 0 });
            }
            if bounded {
                sim.attach_monitor_bounded(&xi, prune_every).unwrap();
            } else {
                sim.attach_monitor(&xi).unwrap();
            }
            sim.run(RunLimits {
                max_events: 2_000,
                max_time: u64::MAX,
            });
            sim
        };
        let sim = run(false);
        let bounded = run(true);
        prop_assert_eq!(bounded.trace().to_text(), sim.trace().to_text());
        prop_assert_eq!(
            bounded.violation_summary().map(|s| s.wire().to_string()),
            sim.violation_summary().map(|s| s.wire().to_string())
        );
        let g = sim.trace().to_execution_graph();
        let mon = sim.monitor().expect("attached");
        prop_assert_eq!(mon.graph(), &g);
        let batch = abc_core::check::is_admissible(&g, &xi).unwrap();
        prop_assert_eq!(mon.is_admissible(), batch);
        if let Some(w) = sim.violation() {
            prop_assert!(w.validate(&g).is_ok());
            prop_assert!(w.classify().violates(&xi));
        }
        let replay = sim.trace().replay_into_monitor(&xi).unwrap();
        prop_assert_eq!(replay.is_admissible(), batch);
        prop_assert_eq!(replay.graph(), &g);
    }
}
