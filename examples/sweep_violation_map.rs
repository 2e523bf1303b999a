//! Mapping the Ξ-violation frontier of growing delays (`abc-harness`).
//!
//! The spacecraft regime of §5.1/§5.3 has message delays that grow without
//! bound (`GrowingDelay`: band `[lo, hi]` scaled by `1 + t/tau`) yet stays
//! ABC-admissible for modest `Ξ`. But *which* `Ξ` suffices depends on the
//! growth timescale `tau`: fast growth (small `tau`) slows the whole
//! system uniformly and suppresses reordering, while slow growth leaves
//! the band's full reordering power intact. This example sweeps `tau` over
//! a grid for the clock-synchronization protocol at several candidate `Ξ`
//! values and prints the observed violation census plus, per `tau`, the
//! frontier: the smallest candidate `Ξ` with zero violations.
//!
//! Run with: `cargo run --release --example sweep_violation_map`

use abc::core::xi::Xi;
use abc::harness::spec::{DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
use abc::harness::sweep::{run_sweep, SweepOptions};
use abc::sim::RunLimits;

fn main() {
    let tau_grid = Grid::range(2, 26, 4); // 2, 6, 10, 14, 18, 22, 26
    let candidates: Vec<Xi> = [(2, 1), (5, 2), (3, 1), (4, 1), (5, 1)]
        .iter()
        .map(|(n, d)| Xi::from_fraction(*n, *d))
        .collect();
    let runs_per_point = 16usize;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("Ξ-violation frontier: clocksync(n=4,f=1), growing[1,6] delays, tau swept");
    println!(
        "{} tau points x {} runs x {} candidate Ξ values, {} worker thread(s)\n",
        tau_grid.points().len(),
        runs_per_point,
        candidates.len(),
        threads
    );

    // One sweep per candidate Ξ; each sweep covers the whole tau grid.
    let mut census: Vec<Vec<usize>> = Vec::new(); // census[xi][tau_point]
    for xi in &candidates {
        let spec = ScenarioSpec {
            name: format!("frontier-xi-{xi}"),
            protocol: Protocol::ClockSync { n: 4, f: 1 },
            delay: DelaySweep::Growing {
                lo: Grid::fixed(1),
                hi: Grid::fixed(6),
                tau: tau_grid,
            },
            faults: FaultPlan::none(),
            limits: RunLimits {
                max_events: 250,
                max_time: u64::MAX,
            },
            xi: xi.clone(),
            runs_per_point,
            base_seed: 31,
        };
        let report = run_sweep(
            &spec,
            SweepOptions {
                threads,
                keep_violating_traces: false,
            },
        )
        .expect("spec is valid");
        census.push(report.points.iter().map(|p| p.violations).collect());
    }

    // Census table: rows = tau, columns = candidate Ξ.
    print!("{:>8} |", "tau");
    for xi in &candidates {
        print!(" {:>9} |", format!("Ξ={xi}"));
    }
    println!(" frontier Ξ");
    println!("{}", "-".repeat(10 + 12 * candidates.len() + 11));
    for (ti, tau) in tau_grid.points().iter().enumerate() {
        print!("{tau:>8} |");
        for row in &census {
            let v = row[ti];
            print!(
                " {:>9} |",
                if v == 0 {
                    "ok".to_string()
                } else {
                    format!("{v}/{runs_per_point}")
                }
            );
        }
        let frontier = candidates
            .iter()
            .zip(&census)
            .find(|(_, row)| row[ti] == 0)
            .map_or("> 5".to_string(), |(xi, _)| xi.to_string());
        println!(" {frontier}");
    }

    println!(
        "\nReading: `a/b` = violating runs at that (tau, Ξ); the frontier column is the \
         smallest candidate Ξ admitting every sampled run. Fast growth (small tau) \
         uniformly slows the system and lowers the frontier; slow growth leaves the \
         band's reordering power intact."
    );
    // The frontier must be monotone-ish in the census: every violation at a
    // given Ξ also violates every smaller candidate (sanity, since larger
    // Ξ only relaxes the condition).
    for ti in 0..tau_grid.points().len() {
        for w in census.windows(2) {
            assert!(
                w[0][ti] >= w[1][ti],
                "census must shrink as Ξ grows (tau point {ti})"
            );
        }
    }
}
