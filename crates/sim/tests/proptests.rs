//! Property tests for the simulator: trace well-formedness, determinism,
//! and graph-extraction invariants across random workloads.

use abc_core::monitor::IncrementalChecker;
use abc_core::{ProcessId, Xi};
use abc_sim::delay::{AdversarialSpan, BandDelay, FixedDelay, GrowingDelay, Lossy};
use abc_sim::{Context, CrashAt, DelayModel, Mute, Process, RunLimits, RunStats, Simulation};
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

/// The second protocol of the reuse property: broadcast at wake-up, echo
/// `m + 1` to each sender until a reply budget is spent.
struct Flood {
    budget: u32,
}

impl Process<u64> for Flood {
    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: &u64) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(from, msg + 1);
            ctx.set_label(*msg);
        }
    }
}

/// One run of the reuse property: protocol, size, delay family, fault
/// plan, event budget, and whether (and how) a monitor is attached.
#[derive(Clone, Debug)]
struct Shape {
    flood: bool,
    n: usize,
    max_events: usize,
    /// 0 fixed, 1 band, 2 growing, 3 adversarial span.
    family: u8,
    lo: u64,
    spread: u64,
    seed: u64,
    /// Four bits per slot: 10–11 marked faulty, 12–13 crash-faulty after
    /// 1–2 steps, 14 mute, anything else correct; bits 32.. pick a
    /// dropped link in one shape of four.
    faults: u64,
    /// Whether a monitor is attached.
    monitor: bool,
}

type AnyDelay = Lossy<Box<dyn DelayModel>>;

impl Shape {
    fn delay(&self) -> AnyDelay {
        let (lo, hi) = (self.lo, self.lo + self.spread);
        let inner: Box<dyn DelayModel> = match self.family {
            0 => Box::new(FixedDelay::new(lo)),
            1 => Box::new(BandDelay::new(lo, hi, self.seed)),
            2 => Box::new(GrowingDelay::new(lo, hi, 20 + self.seed % 50, self.seed)),
            _ => {
                let victim = ProcessId(self.seed as usize % self.n);
                Box::new(AdversarialSpan::new(lo, hi, victim))
            }
        };
        let mut delay = Lossy::new(inner);
        let link = self.faults >> 32;
        if link & 3 == 0 {
            let (from, to) = ((link >> 2) as usize, (link >> 12) as usize);
            delay.drop_link(ProcessId(from % self.n), ProcessId(to % self.n));
        }
        delay
    }

    /// Adds `behavior` at the next slot as that slot's fault plan says.
    fn add<P: Process<u64>>(sim: &mut Simulation<u64, AnyDelay>, plan: u64, behavior: P) {
        match plan {
            10 | 11 => sim.add_faulty_process(behavior),
            12 | 13 => sim.add_faulty_process(CrashAt::new(behavior, 1 + (plan & 1) as usize)),
            14 => sim.add_faulty_process(Mute),
            _ => sim.add_process(behavior),
        };
    }

    /// Populates an armed engine and runs it.
    fn run_on(&self, sim: &mut Simulation<u64, AnyDelay>) -> RunStats {
        for slot in 0..self.n {
            let plan = (self.faults >> (4 * slot)) & 15;
            if self.flood {
                Shape::add(sim, plan, Flood { budget: 12 });
            } else {
                Shape::add(
                    sim,
                    plan,
                    Gossip {
                        fanout: 2,
                        state: 0,
                    },
                );
            }
        }
        if self.monitor {
            sim.attach_monitor(&Xi::from_fraction(3, 2)).unwrap();
        }
        sim.run(RunLimits {
            max_events: self.max_events,
            max_time: u64::MAX,
        })
    }
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        (any::<bool>(), 2usize..7, 1usize..400),
        (0u8..4, 1u64..8, 0u64..9, any::<u64>()),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |((flood, n, max_events), (family, lo, spread, seed), faults, monitor)| Shape {
                flood,
                n,
                max_events,
                family,
                lo,
                spread,
                seed,
                faults,
                monitor,
            },
        )
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
    /// values where band reordering does produce violations.
    #[test]
    fn attached_monitor_matches_batch_and_replay(
        n in 2usize..5,
        lo in 1u64..6,
        spread in 0u64..8,
        seed in any::<u64>(),
        num in 5i64..15,
        den in 4i64..8,
    ) {
        prop_assume!(num > den);
        let xi = abc_core::Xi::from_fraction(num, den);
        let mut sim = Simulation::new(BandDelay::new(lo, lo + spread, seed));
        for _ in 0..n {
            sim.add_process(Gossip { fanout: 2, state: 0 });
        }
        sim.attach_monitor(&xi).unwrap();
        sim.run(RunLimits {
            max_events: 2_000,
            max_time: u64::MAX,
        });
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

    /// `Simulation::reset` ≡ `Simulation::new`: one engine re-armed through
    /// a random sequence of runs — either protocol, any size, delay family
    /// and fault plan, budgets that stop with messages in flight, monitors
    /// attached or not — produces for every element the trace text, the
    /// stats and the attached monitor's verdict of a new engine. And one
    /// mirror-less monitor lent to the replay of every trace in turn, at a
    /// `Ξ` that changes with it, reports the latch point, witness, stats
    /// and margin of a new mirrored one.
    #[test]
    fn a_reset_engine_and_a_lent_monitor_equal_new_ones(
        shapes in proptest::collection::vec(shape(), 1..8),
    ) {
        let mut reused: Option<Simulation<u64, AnyDelay>> = None;
        let mut lent = IncrementalChecker::new(0, &Xi::from_integer(2)).unwrap();
        lent.enable_pruning();
        for shape in &shapes {
            let reused = match &mut reused {
                Some(sim) => {
                    sim.reset(shape.delay());
                    sim
                }
                empty => empty.insert(Simulation::new(shape.delay())),
            };
            let mut fresh = Simulation::new(shape.delay());
            prop_assert_eq!(shape.run_on(reused), shape.run_on(&mut fresh), "{:?}", shape);
            prop_assert_eq!(reused.trace().to_text(), fresh.trace().to_text(), "{:?}", shape);
            prop_assert_eq!(reused.monitor_stats(), fresh.monitor_stats(), "{:?}", shape);
            prop_assert_eq!(
                reused.violation_summary().map(|s| s.wire().to_string()),
                fresh.violation_summary().map(|s| s.wire().to_string()),
                "{:?}",
                shape
            );

            let xi = [Xi::from_fraction(3, 2), Xi::from_integer(2), Xi::from_integer(5)]
                [shape.seed as usize % 3]
                .clone();
            let trace = reused.trace();
            let latched = trace.replay_until_violation_into(&mut lent, &xi).unwrap();
            let (new, new_latched) = trace.replay_into_monitor_until_violation(&xi).unwrap();
            prop_assert_eq!(latched, new_latched, "{:?}", shape);
            prop_assert_eq!(lent.stats(), new.stats(), "{:?}", shape);
            prop_assert_eq!(lent.violation_summary(), new.violation_summary(), "{:?}", shape);
            prop_assert_eq!(
                lent.current_margin().unwrap(),
                new.current_margin().unwrap(),
                "{:?}",
                shape
            );
        }
    }
}
