//! The paper-fidelity gate: every figure and theorem reproduction in
//! [`abc_bench::registry`] must hold (what `experiments all` checks, as a
//! tier-1 test).

#[test]
fn every_paper_experiment_passes() {
    let failed: Vec<&str> = abc_bench::registry()
        .into_iter()
        .filter(|(_, _, runner)| !runner())
        .map(|(id, _, _)| id)
        .collect();
    assert!(failed.is_empty(), "paper experiments FAILED: {failed:?}");
}
