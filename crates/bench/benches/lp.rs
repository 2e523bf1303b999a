//! Criterion benches: the Theorem 7 delay-assignment routes.
//!
//! Polynomial difference-constraint route vs. the paper-literal cycle-LP
//! (exact simplex over enumerated cycles, the paper's Fig. 6 system).

use abc_bench::workloads;
use abc_core::assign::{assign_delays, assign_delays_via_cycle_lp};
use abc_core::enumerate::EnumerationLimits;
use abc_core::Xi;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_polynomial_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_delays_diffcon");
    for msgs in [50usize, 200, 800] {
        let g = workloads::random_graph(8, msgs, 42);
        let xi = Xi::from_integer(50); // large enough to be feasible usually
        group.bench_with_input(BenchmarkId::from_parameter(msgs), &msgs, |b, _| {
            b.iter(|| assign_delays(&g, &xi));
        });
    }
    group.finish();
}

fn bench_cycle_lp_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_delays_cycle_lp");
    group.sample_size(10);
    for hops in [3usize, 5] {
        let g = workloads::two_chain(hops);
        let xi = Xi::from_integer(hops as i64 + 1);
        group.bench_with_input(BenchmarkId::from_parameter(hops), &hops, |b, _| {
            b.iter(|| assign_delays_via_cycle_lp(&g, &xi, EnumerationLimits::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_polynomial_route, bench_cycle_lp_route);
criterion_main!(benches);
