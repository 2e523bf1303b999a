//! Online ABC monitoring: attach an incremental synchrony checker to a
//! live simulation and catch the first violating relevant cycle as it
//! closes — no per-step rebuild, no post-hoc batch pass.
//!
//! The workload is the paper's Fig. 3 scenario: a process ping-pongs with
//! a fast peer while a reply from a slow peer is outstanding. Every fast
//! round trip grows the backward side of the cycle the slow reply will
//! close; the moment it arrives, the monitor latches a witness.
//!
//! ```bash
//! cargo run --release --example online_monitor
//! ```

use abc::core::{check, ProcessId, Xi};
use abc::sim::delay::PerLinkBand;
use abc::sim::{Context, Process, RunLimits, Simulation};

/// p0 pings the slow peer (p1) and the fast peer (p2) at wake-up; everyone
/// echoes every message back to its sender until their budget runs out.
struct PingPong {
    budget: u32,
}

impl Process<u32> for PingPong {
    fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
        if ctx.me().0 == 0 {
            ctx.send(ProcessId(1), 0); // slow link: the spanning message
            ctx.send(ProcessId(2), 0); // fast link: the chain
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, m: &u32) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(from, m + 1);
        }
    }
}

fn main() {
    // Fast links take 1 tick; the p0 <-> p1 round trip takes 100 each way.
    let mut delays = PerLinkBand::new(1, 1, 0);
    delays.set_link(ProcessId(0), ProcessId(1), 100, 100);
    delays.set_link(ProcessId(1), ProcessId(0), 100, 100);

    let xi = Xi::from_integer(3);
    let mut sim = Simulation::new(delays);
    for _ in 0..3 {
        sim.add_process(PingPong { budget: 30 });
    }
    sim.attach_monitor(&xi).expect("Xi fits the monitor");
    println!("monitoring a live Fig. 3 execution for Xi = {xi} ...");

    let stats = sim.run(RunLimits::default());
    let mon = sim.monitor().expect("attached before the run");
    println!(
        "ran {} events, {} messages sent (payload slab peak: {} slots)",
        stats.events_executed, stats.messages_sent, stats.payload_slab_peak
    );

    let witness = sim
        .violation()
        .expect("the slow reply spans the fast chain");
    let class = witness.classify();
    println!(
        "VIOLATION: relevant cycle with |Z-|/|Z+| = {}/{} >= {xi}",
        class.backward_messages, class.forward_messages
    );
    println!("witness: {witness}");

    // The streamed verdict is the batch verdict — on the same graph.
    let g = sim.trace().to_execution_graph();
    assert_eq!(mon.graph(), &g);
    assert!(!check::is_admissible(&g, &xi).unwrap());
    assert!(witness.validate(&g).is_ok());

    let m = mon.stats();
    println!(
        "monitor work: {} arcs, {} relaxations over {} events ({:.2} per event)",
        m.arcs,
        m.relaxations,
        m.events,
        m.relaxations as f64 / m.events as f64
    );
    println!("online monitor and batch checker agree: execution violates Xi = {xi}");
}
