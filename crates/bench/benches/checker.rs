//! Criterion benches: ABC-condition checking scalability.
//!
//! The polynomial checker (Bellman–Ford reduction) vs. brute-force cycle
//! enumeration, and the exact max-ratio query (Definition 4 quantifies
//! over all relevant cycles; the reduction is what makes it checkable).

use abc_bench::workloads;
use abc_core::enumerate::{enumerate_cycles, EnumerationLimits};
use abc_core::{check, Xi};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_is_admissible(c: &mut Criterion) {
    let mut group = c.benchmark_group("is_admissible");
    for msgs in [50usize, 200, 800] {
        let g = workloads::random_graph(8, msgs, 42);
        let xi = Xi::from_integer(3);
        group.bench_with_input(BenchmarkId::from_parameter(msgs), &msgs, |b, _| {
            b.iter(|| check::is_admissible(&g, &xi).unwrap());
        });
    }
    group.finish();
}

fn bench_max_ratio(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_relevant_cycle_ratio");
    for msgs in [50usize, 200] {
        let g = workloads::random_graph(8, msgs, 42);
        group.bench_with_input(BenchmarkId::from_parameter(msgs), &msgs, |b, _| {
            b.iter(|| check::max_relevant_cycle_ratio(&g));
        });
    }
    group.finish();
}

fn bench_enumeration_vs_checker(c: &mut Criterion) {
    // The brute-force baseline on a graph small enough to finish.
    let g = workloads::random_graph(5, 14, 7);
    let xi = Xi::from_integer(3);
    let mut group = c.benchmark_group("checker_vs_enumeration");
    group.bench_function("bellman_ford", |b| {
        b.iter(|| check::is_admissible(&g, &xi).unwrap());
    });
    group.bench_function("enumeration", |b| {
        b.iter(|| {
            let e = enumerate_cycles(&g, EnumerationLimits::default());
            e.cycles
                .iter()
                .filter(|c| c.classify().relevant)
                .all(|c| !c.classify().violates(&xi))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_is_admissible,
    bench_max_ratio,
    bench_enumeration_vs_checker
);
criterion_main!(benches);
