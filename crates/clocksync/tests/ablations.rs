//! Ablations of the paper's Section 3: the design choices of Algorithms 1
//! and 2 are load-bearing — removing them visibly breaks the guarantees.

use abc_clocksync::{LockStep, RoundApp, TickGen};
use abc_core::{ProcessId, Xi};
use abc_sim::delay::BandDelay;
use abc_sim::{RunLimits, Simulation};
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default)]
struct Probe;

impl RoundApp for Probe {
    type Payload = u64;
    fn first_message(&mut self, me: ProcessId, _n: usize) -> u64 {
        me.0 as u64
    }
    fn on_round(&mut self, me: ProcessId, r: u64, _rcv: &BTreeMap<ProcessId, u64>) -> u64 {
        me.0 as u64 + r
    }
}

fn run_lockstep(phases: u64, seed: u64) -> bool {
    let n = 4;
    let mut sim = Simulation::new(BandDelay::new(50, 99, seed));
    for _ in 0..n {
        sim.add_process(LockStep::with_phases(n, 1, phases, Probe));
    }
    sim.run(RunLimits {
        max_events: 10_000,
        max_time: u64::MAX,
    });
    let correct_mask: u128 = (1 << n) - 1;
    (0..n).all(|p| {
        let ls = sim.process_as::<LockStep<Probe>>(ProcessId(p)).unwrap();
        ls.report().rounds_started() >= 5 && ls.report().lockstep_holds(correct_mask)
    })
}

/// Theorem 5's phase count ⌈2Ξ⌉ is tight in spirit: the sound count works
/// on every seed, while 1-phase rounds (< 2Ξ) lose round messages.
#[test]
fn lockstep_needs_two_xi_phases() {
    let xi = Xi::from_integer(2);
    let sound = xi.two_xi_ceil(); // 4
    for seed in 0..6 {
        assert!(
            run_lockstep(sound, seed),
            "sound phase count failed at seed {seed}"
        );
    }
    let mut broke = false;
    for seed in 0..12 {
        if !run_lockstep(1, seed) {
            broke = true;
            break;
        }
    }
    assert!(
        broke,
        "1-phase rounds should violate lock-step on some seed"
    );
}

/// The f parameter is load-bearing in the other direction too: declaring
/// f = 0 (advance needs all n ticks) stalls the system as soon as one
/// process is mute.
#[test]
fn zero_fault_budget_cannot_tolerate_a_mute_process() {
    let mut sim = Simulation::new(BandDelay::new(10, 19, 3));
    for _ in 0..3 {
        sim.add_process(TickGen::new(4, 0)); // f = 0: advance needs 4 ticks
    }
    sim.add_faulty_process(abc_sim::Mute);
    sim.run(RunLimits {
        max_events: 5_000,
        max_time: u64::MAX,
    });
    let max_clock = sim
        .trace()
        .events()
        .iter()
        .filter_map(|e| e.label)
        .max()
        .unwrap_or(0);
    assert!(max_clock <= 1, "clocks must stall without the fault budget");
    // Contrast: with f = 1 the same scenario makes progress (covered by
    // byzantine::tests::mute_process_cannot_stall_progress).
}
