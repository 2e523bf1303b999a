//! Experiment harness for the ABC-model reproduction.
//!
//! One function per paper figure and theorem ([`registry`]); each prints
//! the paper-shaped table and returns `true` iff every checked property
//! held. The `experiments` binary dispatches on experiment ids,
//! `tests/experiments_gate.rs` runs them all under `cargo test`, and
//! `src/bin/bench_ledger/` is the repo's one benchmark.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fig6;
pub mod workloads;

/// One registered experiment: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> bool);

/// The experiment registry.
#[must_use]
pub fn registry() -> Vec<Experiment> {
    use experiments as e;
    vec![
        (
            "fig1",
            "Fig 1: relevant cycle, spanning chains, ratio 5/4",
            e::fig1,
        ),
        (
            "fig2",
            "Fig 2: cycle space, mixed edge cancellation",
            e::fig2,
        ),
        (
            "fig3",
            "Fig 3: ping-pong timeout of a crashed process",
            e::fig3,
        ),
        (
            "fig4",
            "Fig 4: early reply closes a non-relevant cycle",
            e::fig4,
        ),
        (
            "fig5",
            "Fig 5: the Lemma 4 causal-cone cycle in a real run",
            e::fig5,
        ),
        ("fig6", "Fig 6: the Ax<b system, solved exactly", e::fig6),
        ("fig7", "Fig 7: cycle vectors of the example graph", e::fig7),
        ("fig8", "Fig 8: Prover/Adversary game vs ParSync", e::fig8),
        ("fig9", "Fig 9: 2-hop delay compensation", e::fig9),
        ("fig10", "Fig 10: ABC-enforced FIFO", e::fig10),
        (
            "precision",
            "Thm 1-3: progress + precision <= 2Xi sweep",
            e::precision,
        ),
        (
            "bounded_progress",
            "Thm 4: bounded progress rho = 4Xi+1",
            e::bounded_progress,
        ),
        ("lockstep", "Thm 5: lock-step round simulation", e::lockstep),
        (
            "theta_subset",
            "Thm 6: M_Theta subset of M_ABC",
            e::theta_subset,
        ),
        (
            "delay_assignment",
            "Thm 7/12: normalized assignments exist",
            e::delay_assignment,
        ),
        (
            "decomposition",
            "Thm 11/Cor 1: cycle-space sums",
            e::decomposition,
        ),
        (
            "indistinguishability",
            "Lemma 5/Thm 9: safety equivalence",
            e::indistinguishability,
        ),
        (
            "consensus",
            "Consensus atop lock-step rounds (EIG, FloodSet)",
            e::consensus,
        ),
        (
            "variants",
            "Sec 6: ?ABC estimation, eventual lock-step",
            e::variants,
        ),
        ("vlsi", "Sec 5.3: SoC clock generation + migration", e::vlsi),
        (
            "fd_sweep",
            "Fig 3 ablation: detector threshold boundary",
            e::fd_sweep,
        ),
    ]
}
