//! Shared workload generators for experiments and benches.

use abc_core::graph::{ExecutionGraph, ProcessId};
use abc_sim::delay::BandDelay;
use abc_sim::{RunLimits, Simulation};

/// The canonical "two chains" graph: a fast chain of `hops` messages
/// spanned by one slow direct message (max relevant cycle ratio = `hops`).
#[must_use]
pub fn two_chain(hops: usize) -> ExecutionGraph {
    let mut b = ExecutionGraph::builder(hops + 1);
    let q = b.init(ProcessId(0));
    for i in 1..=hops {
        b.init(ProcessId(i));
    }
    let mut cur = q;
    for i in 2..=hops {
        let (_, r) = b.send(cur, ProcessId(i));
        cur = r;
    }
    b.send(cur, ProcessId(1));
    b.send(q, ProcessId(1));
    b.finish()
}

/// A clock-synchronization trace: `n` processes, `f` fault budget (all
/// correct here), band delays `[lo, hi]`, `events` computing steps.
#[must_use]
pub fn clocksync_trace(
    n: usize,
    f: usize,
    lo: u64,
    hi: u64,
    seed: u64,
    events: usize,
) -> abc_sim::Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for _ in 0..n {
        sim.add_process(abc_clocksync::TickGen::new(n, f));
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

/// A random sparse execution graph with `n` processes and `msgs` messages
/// (seeded), used for checker/LP scaling benches.
#[must_use]
pub fn random_graph(n: usize, msgs: usize, seed: u64) -> ExecutionGraph {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = ExecutionGraph::builder(n);
    for p in 0..n {
        b.init(ProcessId(p));
    }
    for _ in 0..msgs {
        let from = abc_core::EventId(rng.random_range(0..b.num_events()));
        let to = ProcessId(rng.random_range(0..n));
        b.send(from, to);
    }
    b.finish()
}
