//! The experiment implementations (one per [`crate::registry`] entry).
//!
//! Each prints a table in the spirit of the paper's figures and returns
//! `true` iff all checked properties held.

use abc_clocksync::{byzantine::TickRusher, instrument, LockStep, RoundApp, TickGen};
use abc_core::assign::assign_delays;
use abc_core::cyclespace::CycleVector;
use abc_core::enumerate::{enumerate_relevant_cycles, EnumerationLimits};
use abc_core::graph::{EventId, ExecutionGraph, ProcessId};
use abc_core::{check, Xi};
use abc_fd::{FdResponder, PingPongDetector};
use abc_models::{parsync, scenarios, theta};
use abc_rational::Ratio;
use abc_sim::delay::{AdversarialSpan, BandDelay, DelayModel, Delivery};
use abc_sim::{CrashAt, RunLimits, Simulation};
use abc_variants::{AdResponder, DoublingLockStep, EventuallyBanded, XiEstimator};
use abc_vlsi::{SoC, ASIC, FPGA};
use std::collections::BTreeMap;

use crate::fig6::{assign_delays_via_cycle_lp, cycle_lp_system, CycleLpOutcome};
use crate::workloads;

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn row(cols: &[&str]) {
    println!("  {}", cols.join(" | "));
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Fig. 1: a 4-message slow chain spans a 5-message fast chain: relevant
/// cycle, ratio 5/4; admissibility flips exactly at Ξ = 5/4.
pub fn fig1() -> bool {
    banner("Fig 1: relevant cycle with spanning chains");
    let mut b = ExecutionGraph::builder(9);
    let q = b.init(ProcessId(0));
    for i in 1..9 {
        b.init(ProcessId(i));
    }
    let mut cur = q;
    for i in 2..=5 {
        let (_, r) = b.send(cur, ProcessId(i));
        cur = r;
    }
    b.send(cur, ProcessId(1)); // C2: 5 messages, arrives first
    let mut cur = q;
    for i in 6..=8 {
        let (_, r) = b.send(cur, ProcessId(i));
        cur = r;
    }
    b.send(cur, ProcessId(1)); // C1: 4 messages, arrives later (spans C2)
    let g = b.finish();
    let ratio = check::max_relevant_cycle_ratio(&g).unwrap();
    let at = check::is_admissible(&g, &Xi::from_fraction(5, 4)).unwrap();
    let above = check::is_admissible(&g, &Xi::from_fraction(3, 2)).unwrap();
    let witness = check::find_violation(&g, &Xi::from_fraction(5, 4)).unwrap();
    row(&["quantity", "paper", "measured"]);
    row(&["|Z-|/|Z+|", "5/4", &format!("{ratio:?}")]);
    row(&["admissible at Xi=5/4", "no (strict <)", verdict(!at)]);
    row(&["admissible at Xi=3/2", "yes", verdict(above)]);
    if let Some(w) = &witness {
        row(&["witness cycle", "C1 spans C2", &w.to_string()]);
    }
    ratio == Some(Ratio::new(5, 4)) && !at && above && witness.is_some()
}

/// The shared Fig. 2 construction (two relevant cycles sharing message e).
fn fig2_graph() -> (ExecutionGraph, Vec<abc_core::cycle::Cycle>) {
    let mut b = ExecutionGraph::builder(4);
    let q0 = b.init(ProcessId(0));
    for i in 1..4 {
        b.init(ProcessId(i));
    }
    b.send(q0, ProcessId(2)); // m1
    let (_, r1) = {
        let g = b.graph();
        let last = g.messages().last().unwrap();
        (last.id, last.to)
    };
    let (_, p1) = b.send(r1, ProcessId(1)); // m2
    let (_, p2) = b.send(q0, ProcessId(1)); // e
    let (_, s1) = b.send(p2, ProcessId(3)); // m3
    b.send(q0, ProcessId(3)); // m5
    let _ = (p1, s1);
    let g = b.finish();
    let cycles = enumerate_relevant_cycles(&g, EnumerationLimits::default()).cycles;
    (g, cycles)
}

/// Fig. 2: the combined cycle X ⊕ Y; the mixed edge e cancels.
pub fn fig2() -> bool {
    banner("Fig 2: cycle space and the combined cycle X + Y");
    let (_g, cycles) = fig2_graph();
    row(&["relevant cycles found", &cycles.len().to_string()]);
    let mut ok = cycles.len() >= 3;
    // Find two cycles sharing a message with opposite orientation and show
    // the cancellation.
    let vectors: Vec<CycleVector> = cycles.iter().map(CycleVector::from_cycle).collect();
    let mut cancelled = false;
    'outer: for i in 0..vectors.len() {
        for j in (i + 1)..vectors.len() {
            if vectors[i].consistency(&vectors[j]) == abc_core::cyclespace::Consistency::OConsistent
            {
                let sum = vectors[i].add(&vectors[j]);
                row(&[
                    "o-consistent pair",
                    &format!("X={} Y={}", cycles[i], cycles[j]),
                ]);
                row(&[
                    "X + Y support",
                    &format!("{} messages (mixed edge cancelled)", sum.support_len()),
                ]);
                cancelled = sum.support_len() < vectors[i].support_len() + vectors[j].support_len();
                break 'outer;
            }
        }
    }
    ok &= cancelled;
    row(&["mixed edge cancels", verdict(cancelled)]);
    ok
}

/// Fig. 3: the ping-pong detector times out a crashed process; accuracy
/// and completeness on real runs.
pub fn fig3() -> bool {
    banner("Fig 3: timing out p_slow via ping-pong with p_fast");
    let mut ok = true;
    row(&["scenario", "crashed detected", "false suspicions", "probes"]);
    for (crashed, label) in [(vec![2usize], "p2 crashed"), (vec![], "all correct")] {
        let mut sim = Simulation::new(BandDelay::new(10, 19, 5));
        sim.add_process(PingPongDetector::with_threshold(4, 4)); // 2Xi, Xi=2
        for p in 1..4 {
            if crashed.contains(&p) {
                sim.add_faulty_process(CrashAt::new(FdResponder, 0));
            } else {
                sim.add_process(FdResponder);
            }
        }
        sim.run(RunLimits {
            max_events: 20_000,
            max_time: u64::MAX,
        });
        let d = sim.process_as::<PingPongDetector>(ProcessId(0)).unwrap();
        let det = crashed.iter().all(|p| d.is_suspected(ProcessId(*p)));
        let false_susp = d.suspected().filter(|p| !crashed.contains(&p.0)).count();
        row(&[
            label,
            verdict(det),
            &false_susp.to_string(),
            &d.probes_completed().to_string(),
        ]);
        ok &= det && false_susp == 0;
    }
    ok
}

/// Fig. 4: if the slow reply arrives early, the closed cycle is
/// non-relevant and carries no information.
pub fn fig4() -> bool {
    banner("Fig 4: early reply => non-relevant cycle");
    let build = |reply_last: bool| -> ExecutionGraph {
        let mut b = ExecutionGraph::builder(3);
        let p0 = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        let (_, s1) = b.send(p0, ProcessId(1));
        let (_, f1) = b.send(p0, ProcessId(2));
        let (_, e1) = b.send(f1, ProcessId(0));
        let (_, f2) = b.send(e1, ProcessId(2));
        if reply_last {
            b.send(f2, ProcessId(0));
            b.send(s1, ProcessId(0));
        } else {
            b.send(s1, ProcessId(0));
            b.send(f2, ProcessId(0));
        }
        b.finish()
    };
    let late = build(true); // Fig 3 situation
    let early = build(false); // Fig 4 situation
    let xi = Xi::from_integer(2);
    let late_ok = !check::is_admissible(&late, &xi).unwrap();
    let early_ok = check::is_admissible(&early, &xi).unwrap();
    row(&["order", "paper", "measured"]);
    row(&[
        "reply after psi (Fig 3)",
        "violates Xi=2 (4/2)",
        verdict(late_ok),
    ]);
    row(&[
        "reply before psi (Fig 4)",
        "non-relevant, admissible",
        verdict(early_ok),
    ]);
    row(&[
        "max ratio (late)",
        "2",
        &format!("{:?}", check::max_relevant_cycle_ratio(&late).unwrap()),
    ]);
    late_ok && early_ok
}

/// Fig. 5 / Lemma 4: the causal-cone property on adversarial runs —
/// frontier clocks of causal-past cuts differ by at most 2Ξ.
pub fn fig5() -> bool {
    banner("Fig 5 / Lemma 4: causal cone (consistent-cut synchrony <= 2Xi)");
    let mut ok = true;
    row(&["n", "f", "adversary", "cut spread", "2Xi", "verdict"]);
    for (n, f, seed) in [(4usize, 1usize, 1u64), (7, 2, 2), (7, 2, 3)] {
        let xi = Xi::from_integer(2);
        let mut sim = Simulation::new(BandDelay::new(10, 19, seed));
        for _ in 0..(n - f) {
            sim.add_process(TickGen::new(n, f));
        }
        for _ in 0..f {
            sim.add_faulty_process(TickRusher::new(7));
        }
        sim.run(RunLimits {
            max_events: 6_000,
            max_time: u64::MAX,
        });
        let spread = instrument::max_consistent_cut_spread(sim.trace()).unwrap_or(0);
        let bound = instrument::two_xi(&xi);
        let pass = Ratio::from_integer(spread as i64) <= bound;
        row(&[
            &n.to_string(),
            &f.to_string(),
            "tick rusher",
            &spread.to_string(),
            &bound.to_string(),
            verdict(pass),
        ]);
        ok &= pass;
    }
    ok
}

/// Fig. 6: the `Ax < b` system built from enumerated cycles, solved with
/// the exact simplex; Farkas certificates below the threshold.
pub fn fig6() -> bool {
    banner("Fig 6: the cycle inequality system Ax < b");
    let g = workloads::two_chain(3); // ratio 3
    let mut ok = true;
    for (xi, feasible_expected) in [
        (Xi::from_fraction(7, 2), true),
        (Xi::from_integer(3), false),
    ] {
        let lp = cycle_lp_system(&g, &xi, EnumerationLimits::default()).unwrap();
        let k = lp.variables.len();
        let (l, m) = lp.cycles.iter().fold(
            (0, 0),
            |(l, m), (_, rel)| if *rel { (l + 1, m) } else { (l, m + 1) },
        );
        row(&[
            &format!("Xi={xi}"),
            &format!("k={k} messages"),
            &format!("{l} relevant + {m} non-relevant cycles"),
            &format!("{} rows", lp.system.num_rows()),
        ]);
        match assign_delays_via_cycle_lp(&g, &xi, EnumerationLimits::default()).unwrap() {
            CycleLpOutcome::Assignment { delays, timed } => {
                let shown: Vec<String> = delays.iter().map(|d| format!("{d}")).collect();
                row(&["  solution tau", &shown.join(", ")]);
                let normalized = timed.is_normalized(&g, &xi);
                row(&["  normalized (1,Xi) + causal", verdict(normalized)]);
                ok &= feasible_expected && normalized;
            }
            CycleLpOutcome::Infeasible(cert) => {
                let nonzero = cert.multipliers.iter().filter(|y| !y.is_zero()).count();
                row(&[
                    "  infeasible; Farkas certificate",
                    &format!("{nonzero} nonzero multipliers, verified"),
                ]);
                ok &= !feasible_expected && cert.verify(&lp.system);
            }
        }
    }
    ok
}

/// Fig. 7: the literal cycle vectors of the Fig. 2 graph.
pub fn fig7() -> bool {
    banner("Fig 7: cycle vectors");
    let (_g, cycles) = fig2_graph();
    let mut ok = !cycles.is_empty();
    for c in cycles.iter().take(4) {
        let z = CycleVector::from_cycle(c);
        let entries: Vec<String> = z.iter().map(|(m, v)| format!("{m}:{v:+}")).collect();
        row(&[&c.to_string(), &entries.join(" ")]);
        ok &= z.backward_mass() >= z.forward_mass(); // |Z-| >= |Z+| for relevant
    }
    ok
}

/// Fig. 8: the Prover defeats every ParSync parameter choice.
pub fn fig8() -> bool {
    banner("Fig 8: Prover vs Adversary (ABC-admissible, ParSync-violating)");
    let mut ok = true;
    row(&["Phi", "Delta", "Xi", "ABC admissible", "ParSync admissible"]);
    for (phi, delta) in [(2u64, 2u64), (3, 10), (10, 3), (20, 20)] {
        for xi in [Xi::from_fraction(11, 10), Xi::from_integer(2)] {
            let params = parsync::ParSyncParams { phi, delta };
            let (abc_ok, v) = parsync::fig8_game(&params, &xi);
            row(&[
                &phi.to_string(),
                &delta.to_string(),
                &xi.to_string(),
                verdict(abc_ok),
                if v.admissible {
                    "yes (BAD)"
                } else {
                    "no (prover wins)"
                },
            ]);
            ok &= abc_ok && !v.admissible;
        }
    }
    ok
}

/// Fig. 9: 2-hop delay compensation.
pub fn fig9() -> bool {
    banner("Fig 9: compensated 2-hop paths");
    let (g, timed) = scenarios::fig9_compensated_paths();
    let ratio = check::max_relevant_cycle_ratio(&g).unwrap();
    let theta_obs = timed.max_theta_ratio(&g);
    let ok = ratio == Some(Ratio::from_integer(1))
        && check::is_admissible(&g, &Xi::from_fraction(11, 10)).unwrap();
    row(&["quantity", "value"]);
    row(&["link delays", "q->r = 38, r->s = 2, q->p = 10"]);
    row(&["max relevant cycle ratio", &format!("{ratio:?}")]);
    row(&["observed Theta (per message)", &format!("{theta_obs:?}")]);
    row(&["ABC admissible for Xi=11/10", verdict(ok)]);
    ok
}

/// Fig. 10: FIFO from the ABC condition.
pub fn fig10() -> bool {
    banner("Fig 10: ABC-enforced FIFO");
    let (in_order, reordered) = scenarios::fig10_fifo();
    let a = check::is_admissible(&in_order, &Xi::from_integer(4)).unwrap();
    let b = !check::is_admissible(&reordered, &Xi::from_integer(4)).unwrap();
    let c = check::max_relevant_cycle_ratio(&reordered) == Ok(Some(Ratio::from_integer(5)));
    let d = check::is_admissible(&reordered, &Xi::from_integer(6)).unwrap();
    row(&["case", "paper", "measured"]);
    row(&["in order, Xi=4", "admissible", verdict(a)]);
    row(&["reordered, Xi=4", "forbidden (cycle 5/1)", verdict(b)]);
    row(&["reordered max ratio", "5", verdict(c)]);
    row(&["reordered, Xi=6", "admissible (no FIFO)", verdict(d)]);
    a && b && c && d
}

/// Theorems 1–3: progress and precision sweep.
pub fn precision() -> bool {
    banner("Thm 1-3: progress and precision <= 2Xi");
    let mut ok = true;
    row(&[
        "n",
        "f",
        "delays",
        "Xi",
        "min clock",
        "spread",
        "2Xi",
        "verdict",
    ]);
    let cases: Vec<(usize, usize, u64, u64, i64)> = vec![
        (4, 1, 10, 19, 2),
        (7, 2, 10, 19, 2),
        (10, 3, 10, 29, 3),
        (13, 4, 10, 19, 2),
    ];
    for (n, f, lo, hi, xi_int) in cases {
        for seed in [1u64, 2, 3] {
            let xi = Xi::from_integer(xi_int);
            let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
            for _ in 0..(n - f) {
                sim.add_process(TickGen::new(n, f));
            }
            for _ in 0..f {
                sim.add_faulty_process(TickRusher::new(3));
            }
            // Budget by simulated time: Byzantine rushers generate message
            // storms that would eat any event budget, but they cannot slow
            // the correct processes' real-time progress.
            let _ = n;
            sim.run(RunLimits {
                max_events: 2_000_000,
                max_time: 3_000,
            });
            let spread = instrument::max_clock_spread(sim.trace()).unwrap();
            let minc = instrument::min_final_clock(sim.trace()).unwrap();
            let bound = instrument::two_xi(&xi);
            let pass = Ratio::from_integer(spread as i64) <= bound && minc > 10;
            if seed == 1 {
                row(&[
                    &n.to_string(),
                    &f.to_string(),
                    &format!("[{lo},{hi}]"),
                    &xi.to_string(),
                    &minc.to_string(),
                    &spread.to_string(),
                    &bound.to_string(),
                    verdict(pass),
                ]);
            }
            ok &= pass;
        }
    }
    // Adversarial victim link: approaches the bound.
    let xi = Xi::from_integer(4);
    let mut sim = Simulation::new(AdversarialSpan::new(10, 39, ProcessId(0)));
    for _ in 0..4 {
        sim.add_process(TickGen::new(4, 1));
    }
    sim.run(RunLimits {
        max_events: 6_000,
        max_time: u64::MAX,
    });
    let spread = instrument::max_clock_spread(sim.trace()).unwrap();
    let pass = Ratio::from_integer(spread as i64) <= instrument::two_xi(&xi) && spread >= 1;
    row(&[
        "4",
        "1",
        "victim p0 [10,39]",
        "4",
        "-",
        &spread.to_string(),
        "8",
        verdict(pass),
    ]);
    ok && pass
}

/// Theorem 4: bounded progress.
pub fn bounded_progress() -> bool {
    banner("Thm 4: bounded progress rho = 4Xi + 1");
    let mut ok = true;
    row(&["n", "f", "Xi", "worst gap", "rho bound", "verdict"]);
    for (n, f) in [(4usize, 1usize), (7, 2)] {
        let xi = Xi::from_integer(2);
        let trace = workloads::clocksync_trace(n, f, 10, 19, 7, 4_000);
        let gap = instrument::bounded_progress_worst_gap(&trace);
        let pass = instrument::bounded_progress_holds(&trace, &xi);
        row(&[
            &n.to_string(),
            &f.to_string(),
            &xi.to_string(),
            &gap.to_string(),
            &instrument::rho_bound(&xi).to_string(),
            verdict(pass),
        ]);
        ok &= pass;
    }
    ok
}

/// A trivial round application used by the lock-step experiment.
#[derive(Clone, Debug, Default)]
struct EchoRounds {
    seen: Vec<u64>,
}

impl RoundApp for EchoRounds {
    type Payload = u64;

    fn first_message(&mut self, me: ProcessId, _n: usize) -> u64 {
        me.0 as u64
    }

    fn on_round(&mut self, me: ProcessId, round: u64, rcv: &BTreeMap<ProcessId, u64>) -> u64 {
        self.seen.push(rcv.len() as u64);
        me.0 as u64 + round
    }
}

/// Theorem 5: lock-step rounds, including under a Byzantine tick rusher.
pub fn lockstep() -> bool {
    banner("Thm 5: lock-step round simulation");
    let mut ok = true;
    row(&[
        "n",
        "f",
        "byz",
        "rounds",
        "all correct msgs seen",
        "verdict",
    ]);
    for byz in [0usize, 1] {
        let n = 4;
        let xi = Xi::from_integer(2);
        let mut sim = Simulation::new(BandDelay::new(50, 99, 11));
        for _ in 0..(n - byz) {
            sim.add_process(LockStep::new(n, 1, &xi, EchoRounds::default()));
        }
        for _ in 0..byz {
            sim.add_faulty_process(TickRusher::new(5));
        }
        sim.run(RunLimits {
            max_events: 30_000,
            max_time: u64::MAX,
        });
        let correct_mask: u128 = (1 << (n - byz)) - 1;
        let mut pass = true;
        let mut min_rounds = u64::MAX;
        for p in 0..(n - byz) {
            let ls = sim
                .process_as::<LockStep<EchoRounds>>(ProcessId(p))
                .unwrap();
            pass &= ls.report().lockstep_holds(correct_mask);
            min_rounds = min_rounds.min(ls.report().rounds_started());
        }
        pass &= min_rounds >= 5;
        row(&[
            &n.to_string(),
            "1",
            &byz.to_string(),
            &min_rounds.to_string(),
            verdict(pass),
            verdict(pass),
        ]);
        ok &= pass;
    }
    ok
}

/// Theorem 6: Θ-admissible executions satisfy the ABC condition.
pub fn theta_subset() -> bool {
    banner("Thm 6: M_Theta is a subset of M_ABC (cycle ratio <= Theta)");
    let mut ok = true;
    row(&[
        "band",
        "observed Theta",
        "max cycle ratio",
        "ratio <= Theta",
    ]);
    for (lo, hi, seed) in [(10u64, 19u64, 1u64), (10, 25, 2), (50, 99, 3), (7, 7, 4)] {
        let trace = workloads::clocksync_trace(4, 1, lo, hi, seed, 700);
        let g = trace.to_execution_graph();
        let timed = trace.to_timed_graph();
        let (ratio, obs) = theta::cycle_ratio_vs_theta(&g, &timed);
        let pass = match (&ratio, &obs) {
            (Some(r), Some(Some(t))) => r <= t,
            (None, _) => true,
            (_, None | Some(None)) => false,
        };
        row(&[
            &format!("[{lo},{hi}]"),
            &format!("{obs:?}"),
            &format!("{ratio:?}"),
            verdict(pass),
        ]);
        ok &= pass;
    }
    ok
}

/// Theorem 7/12: delay assignments, polynomial and cycle-LP routes.
pub fn delay_assignment() -> bool {
    banner("Thm 7/12: normalized delay assignments");
    let mut ok = true;
    row(&[
        "graph",
        "Xi",
        "assignment",
        "normalized",
        "theta-adm for Xi",
    ]);
    for hops in 2..=5usize {
        let g = workloads::two_chain(hops);
        for xi_num in [2i64, 4, 7] {
            let xi = Xi::new(Ratio::new(xi_num, 1)).unwrap();
            let admissible = check::is_admissible(&g, &xi).unwrap();
            match assign_delays(&g, &xi) {
                Ok(timed) => {
                    let norm = timed.is_normalized(&g, &xi);
                    let theta_ok = timed.is_theta_admissible(&g, xi.as_ratio());
                    if hops == 3 {
                        row(&[
                            &format!("two_chain({hops})"),
                            &xi.to_string(),
                            "exists",
                            verdict(norm),
                            verdict(theta_ok),
                        ]);
                    }
                    ok &= admissible && norm && theta_ok;
                }
                Err(_) => {
                    if hops == 3 {
                        row(&[
                            &format!("two_chain({hops})"),
                            &xi.to_string(),
                            "refused (violating cycle)",
                            "-",
                            "-",
                        ]);
                    }
                    ok &= !admissible;
                }
            }
        }
    }
    // On a real simulated trace.
    let trace = workloads::clocksync_trace(4, 1, 10, 19, 9, 400);
    let g = trace.to_execution_graph();
    let xi = Xi::from_fraction(21, 10);
    let timed = assign_delays(&g, &xi);
    let pass = timed
        .as_ref()
        .map(|t| t.is_normalized(&g, &xi))
        .unwrap_or(false);
    row(&[
        "clocksync trace (400 ev)",
        "21/10",
        "exists",
        verdict(pass),
        "-",
    ]);
    ok && pass
}

/// Theorem 11 / Corollary 1 on random sums of enumerated relevant cycles.
pub fn decomposition() -> bool {
    banner("Thm 11 / Cor 1: sums of relevant cycles stay below Xi");
    let g = workloads::two_chain(4);
    let cycles = enumerate_relevant_cycles(&g, EnumerationLimits::default()).cycles;
    let max = check::max_relevant_cycle_ratio(&g).unwrap().unwrap();
    let xi = Xi::new(&max + &Ratio::new(1, 2)).unwrap();
    let mut ok = true;
    row(&["combination", "|C-|/|C+|", "< Xi"]);
    let mut sum = CycleVector::zero();
    for (i, c) in cycles.iter().enumerate() {
        sum = sum.add(&CycleVector::from_cycle(c).scale((i as i64 % 3) + 1));
        let pass = sum.satisfies_corollary1(&xi);
        row(&[
            &format!("first {} cycles", i + 1),
            &format!("{:?}", sum.ratio()),
            verdict(pass),
        ]);
        ok &= pass;
    }
    ok
}

/// Replays Theorem 7 delays through a second simulation run and compares
/// per-process observable histories (Lemma 5 / Theorem 9 in action).
pub fn indistinguishability() -> bool {
    banner("Lemma 5 / Thm 9: ABC execution replayed under assigned delays");
    // 1. Run clock sync under band delays; extract the graph.
    let n = 4;
    let trace = workloads::clocksync_trace(n, 1, 10, 19, 13, 600);
    let g = trace.to_execution_graph();
    let xi = Xi::from_fraction(21, 10);
    let Ok(timed) = assign_delays(&g, &xi) else {
        println!("  assignment refused — trace not admissible?");
        return false;
    };
    // 2. Scale all assigned event times to exact integers (LCM of all
    // denominators), so the replayed schedule reproduces the assigned
    // per-process receive orders exactly.
    let mut denom_lcm = abc_rational::BigInt::from(1u32);
    for t in timed.times() {
        let q = t.denom().clone();
        let gcd = denom_lcm.gcd(&q);
        denom_lcm = &denom_lcm * &(&q / &gcd);
    }
    let Some(scale) = denom_lcm.to_i64().filter(|s| *s > 0 && *s < 1_000_000_000) else {
        println!("  denominator LCM too large to replay exactly");
        return false;
    };
    let scale_r = Ratio::from_integer(scale);
    // Init offsets, shifted so the earliest init lands at 0.
    let init_times: Vec<Ratio> = (0..n)
        .map(|p| {
            let first = g.events_of(ProcessId(p))[0];
            timed.time(first) * &scale_r
        })
        .collect();
    let min_init = init_times.iter().min().unwrap().clone();
    let start_of = |p: usize| -> u64 {
        let shifted = &init_times[p] - &min_init;
        debug_assert!(shifted.is_integer());
        u64::try_from(shifted.numer().to_i128().unwrap()).unwrap()
    };
    // 3. Per-sender delay sequences over ALL trace messages in send order:
    // assigned (scaled) delays for delivered messages; far-future delays
    // for messages still in flight at the end of the recorded prefix.
    const HORIZON: u64 = u64::MAX / 4;
    let mut per_sender: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (mi, tm) in trace.messages().iter().enumerate() {
        let delay = match tm.recv_event {
            Some(recv_idx) => {
                // Trace event `i` is graph event `i`.
                let abc_core::graph::Trigger::Message(mid) = g.event(EventId(recv_idx)).trigger
                else {
                    unreachable!("receive events are message-triggered")
                };
                let d = timed.message_delay(&g, mid) * &scale_r;
                debug_assert!(d.is_integer());
                u64::try_from(d.numer().to_i128().unwrap()).unwrap()
            }
            None => HORIZON,
        };
        per_sender[tm.from.0].push(delay);
        let _ = mi;
    }
    struct Replay {
        per_sender: Vec<Vec<u64>>,
        next: Vec<usize>,
    }
    impl DelayModel for Replay {
        fn delivery(&mut self, f: ProcessId, _t: ProcessId, _s: u64, _q: u64) -> Delivery {
            let i = self.next[f.0];
            self.next[f.0] += 1;
            match self.per_sender[f.0].get(i) {
                Some(d) => Delivery::After(*d),
                // Messages beyond the recorded prefix never arrive within
                // the compared window.
                None => Delivery::After(HORIZON),
            }
        }
    }
    // 4. Re-run the same deterministic algorithm under the replayed
    // schedule (assigned init offsets + assigned delays).
    let mut sim = Simulation::new(Replay {
        per_sender,
        next: vec![0; n],
    });
    for p in 0..n {
        sim.add_process_starting_at(TickGen::new(n, 1), start_of(p));
    }
    sim.run(RunLimits {
        max_events: 600,
        max_time: HORIZON - 1,
    });
    // 5. Compare per-process observable histories (trigger sender + clock
    // label sequences) on the common prefix.
    let history = |t: &abc_sim::Trace| -> Vec<Vec<(Option<usize>, Option<u64>)>> {
        let mut h: Vec<Vec<(Option<usize>, Option<u64>)>> = vec![Vec::new(); n];
        for ev in t.events() {
            let sender = ev.trigger.map(|mi| t.messages()[mi].from.0);
            h[ev.process.0].push((sender, ev.label));
        }
        h
    };
    let h1 = history(&trace);
    let h2 = history(sim.trace());
    let mut ok = true;
    row(&[
        "process",
        "events (orig)",
        "events (replay)",
        "common prefix equal",
    ]);
    for p in 0..n {
        let common = h1[p].len().min(h2[p].len());
        let equal = h1[p][..common] == h2[p][..common];
        row(&[
            &format!("p{p}"),
            &h1[p].len().to_string(),
            &h2[p].len().to_string(),
            verdict(equal),
        ]);
        ok &= equal && common > 10;
    }
    ok
}

/// Consensus atop lock-step rounds.
pub fn consensus() -> bool {
    banner("Consensus atop lock-step rounds");
    use abc_consensus::harness;
    let xi = Xi::from_integer(2);
    let mut ok = true;
    row(&[
        "algorithm",
        "n",
        "f",
        "faults",
        "agreement",
        "validity",
        "terminated",
    ]);
    let eig = harness::run_eig(4, 1, 1, &[1, 1, 1], &xi, 3, 60_000);
    row(&[
        "EIG",
        "4",
        "1",
        "1 equivocator",
        verdict(eig.agreement()),
        verdict(eig.validity()),
        verdict(eig.terminated()),
    ]);
    ok &= eig.agreement() && eig.validity() && eig.terminated();
    let eig7 = harness::run_eig(7, 2, 2, &[4, 4, 4, 4, 4], &xi, 5, 400_000);
    row(&[
        "EIG",
        "7",
        "2",
        "2 equivocators",
        verdict(eig7.agreement()),
        verdict(eig7.validity()),
        verdict(eig7.terminated()),
    ]);
    ok &= eig7.agreement() && eig7.validity() && eig7.terminated();
    let fs = harness::run_floodset(4, 1, &[(3, 5)], &[7, 3, 9, 1], &xi, 2, 60_000);
    row(&[
        "FloodSet",
        "4",
        "1",
        "1 crash",
        verdict(fs.agreement()),
        verdict(fs.validity()),
        verdict(fs.terminated()),
    ]);
    ok &= fs.agreement() && fs.validity() && fs.terminated();
    ok
}

/// Section 6 variants.
pub fn variants() -> bool {
    banner("Sec 6: ?ABC estimation and eventual lock-step");
    let mut ok = true;
    // ?ABC estimation.
    let mut sim = Simulation::new(BandDelay::new(10, 39, 11));
    sim.add_process(XiEstimator::new(4, &Xi::from_fraction(11, 10)));
    for _ in 1..4 {
        sim.add_process(AdResponder);
    }
    sim.run(RunLimits {
        max_events: 60_000,
        max_time: u64::MAX,
    });
    let est = sim.process_as::<XiEstimator>(ProcessId(0)).unwrap();
    let est_ok = est.revisions >= 1 && est.suspected_count() == 0;
    row(&[
        "?ABC estimator (true ratio < 4)",
        &format!(
            "revisions={}, final threshold={}",
            est.revisions,
            est.threshold()
        ),
        verdict(est_ok),
    ]);
    ok &= est_ok;
    // Eventual ABC via doubling rounds.
    let n = 4;
    let mut sim = Simulation::new(EventuallyBanded::new(2_000, 400, 50, 99, 3));
    for _ in 0..n {
        sim.add_process(DoublingLockStep::new(n, 1, 2));
    }
    sim.run(RunLimits {
        max_events: 120_000,
        max_time: u64::MAX,
    });
    let correct_mask: u128 = (1 << n) - 1;
    let mut dls_ok = true;
    for p in 0..n {
        let d = sim.process_as::<DoublingLockStep>(ProcessId(p)).unwrap();
        dls_ok &= d.rounds_completed() >= 6
            && d.lockstep_suffix_holds(d.rounds_completed().saturating_sub(1), correct_mask);
    }
    row(&[
        "?eventual-ABC doubling rounds",
        "suffix lock-step",
        verdict(dls_ok),
    ]);
    ok && dls_ok
}

/// Section 5.3 VLSI experiment.
pub fn vlsi() -> bool {
    banner("Sec 5.3: SoC clock generation and technology migration");
    let mut ok = true;
    row(&[
        "grid",
        "profile",
        "min clock",
        "spread",
        "cycle ratio",
        "Xi margin",
    ]);
    for (w, h) in [(2usize, 2usize), (3, 2)] {
        let xi = Xi::from_integer(if (w, h) == (2, 2) { 5 } else { 7 });
        for profile in [FPGA, ASIC] {
            let soc = SoC::new(w, h, profile);
            let run = soc.run_clock_generation(&xi, 21, 1_200);
            let margin_ok = run
                .xi_margin
                .as_ref()
                .map(|m| m > &Ratio::one())
                .unwrap_or(true);
            row(&[
                &format!("{w}x{h}"),
                profile.name,
                &run.min_clock.to_string(),
                &run.spread.to_string(),
                &format!("{:?}", run.max_cycle_ratio.as_ref().map(Ratio::to_f64)),
                &format!("{:?}", run.xi_margin.as_ref().map(Ratio::to_f64)),
            ]);
            ok &= margin_ok && run.min_clock > 5;
        }
    }
    ok
}

/// Detector threshold ablation: false suspicions appear exactly below 2Ξ.
pub fn fd_sweep() -> bool {
    banner("Fig 3 ablation: detector threshold vs false suspicions");
    let mut ok = true;
    row(&["threshold", "2Xi?", "false suspicion rate over 12 seeds"]);
    let mut below_saw_false = false;
    for threshold in [2u64, 3, 4, 6] {
        let mut false_count = 0;
        for seed in 0..12u64 {
            let mut sim = Simulation::new(BandDelay::new(10, 19, seed));
            sim.add_process(PingPongDetector::with_threshold(4, threshold));
            for _ in 1..4 {
                sim.add_process(FdResponder);
            }
            sim.run(RunLimits {
                max_events: 20_000,
                max_time: u64::MAX,
            });
            let d = sim.process_as::<PingPongDetector>(ProcessId(0)).unwrap();
            if d.suspected().count() > 0 {
                false_count += 1;
            }
        }
        let sound = threshold >= 4; // 2Xi with Xi=2
        row(&[
            &threshold.to_string(),
            if sound { "at/above" } else { "below" },
            &format!("{false_count}/12"),
        ]);
        if sound {
            ok &= false_count == 0;
        } else if false_count > 0 {
            below_saw_false = true;
        }
    }
    row(&[
        "below-threshold false suspicions observed",
        verdict(below_saw_false),
        "",
    ]);
    ok && below_saw_false
}
