//! Property tests for the live synchrony margin over *random clocksync
//! and gossip runs*: at arbitrary prune cadences and sampling points a
//! pruning, margin-tracking monitor must report exactly the margin of an
//! unpruned monitor, both must equal the batch
//! `max_relevant_cycle_ratio` over the same prefix — three readings of
//! one margin algorithm, so each is also certified by `abc_core::certify`,
//! which shares no code with any decider: a cycle of exactly that ratio,
//! and a normalized assignment just above it — and the exact values
//! must be consistent with `abc-lp`: the difference-constraint relaxation
//! of Definition 4 is infeasible at the margin (with a verified negative
//! cycle / Farkas certificate) and feasible just above it — and, with
//! `diffcon` as the oracle, `assign_delays` (the monitor's replay on that
//! system) flips at the same point.

use abc_clocksync::TickGen;
use abc_core::assign::{assign_delays, AssignError};
use abc_core::graph::ExecutionGraph;
use abc_core::monitor::IncrementalChecker;
use abc_core::{certify, check, EventId, ProcessId, Xi};
use abc_lp::diffcon::{self, DiffConstraint};
use abc_lp::{simplex, LinearSystem, Rel};
use abc_rational::Ratio;
use abc_sim::delay::BandDelay;
use abc_sim::{Context, CrashAt, Process, RunLimits, Simulation, Trace};
use proptest::prelude::*;

/// Broadcast at wake-up, echo `m + 1` to each sender until the reply
/// budget is spent (the harness CLI's gossip protocol).
struct Gossip {
    budget: u32,
}

impl Process<u64> for Gossip {
    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: &u64) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(from, msg + 1);
        }
    }
}

fn clocksync_run(n: usize, lo: u64, hi: u64, seed: u64, crash_last: bool, events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for slot in 0..n {
        if crash_last && slot == n - 1 {
            sim.add_faulty_process(CrashAt::new(TickGen::new(n, 1), 4));
        } else {
            sim.add_process(TickGen::new(n, 1));
        }
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

fn gossip_run(n: usize, lo: u64, hi: u64, seed: u64, budget: u32, events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for _ in 0..n {
        sim.add_process(Gossip { budget });
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

/// The difference-constraint relaxation of "no relevant cycle has ratio
/// `≥ x`" (`x > 1`), over the same arcs the batch checker traverses:
/// effective messages forward (`< x`) and backward (`< −1`), local edges
/// backward only (`< 0`). A potential assignment exists exactly while
/// every such cycle keeps positive slack, i.e. while the margin is below
/// `x` — immediate forward/backward re-traversals cost `x − 1 > 0` and
/// never flip feasibility.
fn margin_constraints(g: &ExecutionGraph, x: &Ratio) -> Vec<DiffConstraint> {
    let mut cs = Vec::new();
    for m in g.effective_messages() {
        cs.push(DiffConstraint::lt(m.to.0, m.from.0, x.clone()));
        cs.push(DiffConstraint::lt(m.from.0, m.to.0, -Ratio::one()));
    }
    for l in g.local_edges() {
        cs.push(DiffConstraint::lt(l.from.0, l.to.0, Ratio::zero()));
    }
    cs
}

/// Cross-checks an exact margin against the LP layer: infeasible (with a
/// verified negative-cycle certificate) at `x = margin`, feasible (with a
/// verified rational solution) just above it. `assign_delays` — the
/// monitor's replay on the same system — must agree: it refuses at the
/// margin and assigns normalized delays just above it.
fn assert_lp_consistent(g: &ExecutionGraph, margin: Option<&Ratio>) {
    let nudge = Ratio::new(1, 7);
    let one = Ratio::one();
    if let Some(r) = margin {
        assert!(*r >= one, "relevant cycles have ratio at least 1");
        if *r > one {
            let cs = margin_constraints(g, r);
            match diffcon::solve(g.num_events(), &cs) {
                Ok(_) => panic!("feasible at the margin {r}: some cycle attains it"),
                Err(cycle) => assert!(cycle.verify(&cs), "negative-cycle certificate invalid"),
            }
            let at = Xi::new(r.clone()).unwrap();
            assert!(
                matches!(assign_delays(g, &at), Err(AssignError::NotAdmissible(_))),
                "the replay assigns delays at the margin {r}"
            );
        }
    }
    let above = margin.map_or_else(|| &one + &nudge, |r| r + &nudge);
    let cs = margin_constraints(g, &above);
    match diffcon::solve(g.num_events(), &cs) {
        Ok(x) => assert!(
            cs.iter().all(|c| c.satisfied_by(&x)),
            "solution above the margin violates a constraint"
        ),
        Err(_) => panic!("infeasible above the margin {margin:?}"),
    }
    let above = Xi::new(above).unwrap();
    match assign_delays(g, &above) {
        Ok(timed) => assert_eq!(certify::admissible(g, &above, &timed), Ok(())),
        Err(e) => panic!("the replay refuses above the margin {margin:?}: {e}"),
    }
}

/// An exact margin, certified ([`certify::margin`]): a margin `m > 1`
/// comes with the cycle `find_violation` finds at `Ξ = m`, which must have
/// ratio exactly `m`, and every margin with the normalized assignment
/// `assign_delays` gives at `m + 1/M²` (`M`: the messages of `g`; two
/// cycle ratios with parts at most `M` lie at least `1/M²` apart). A
/// margin of `1`, or none, is certified just above `1`.
fn assert_margin_certified(g: &ExecutionGraph, margin: Option<&Ratio>, at_event: usize) {
    let at = margin.filter(|&r| *r > Ratio::one());
    let witness = at.map(|at| {
        let xi = Xi::new(at.clone()).expect("a margin above 1 is a Xi");
        let found = check::find_violation(g, &xi).unwrap();
        found.unwrap_or_else(|| panic!("no violation at the margin {at} (event {at_event})"))
    });
    let above = certify::above_margin(g, margin);
    let timed = assign_delays(g, &above)
        .unwrap_or_else(|e| panic!("no assignment at {above} (event {at_event}): {e}"));
    if let Err(e) = certify::margin(g, margin, witness.as_ref(), &timed) {
        panic!("margin {margin:?} refused at event {at_event}: {e}");
    }
}

/// Replays `trace` into an unpruned monitor and a pruning,
/// margin-tracking monitor (prune every `prune_every` appends at the
/// exact lookahead watermark). Every `sample_every` events both margins
/// are compared against each other and against the batch probe over the
/// same prefix; the final margin is LP-cross-checked.
fn assert_margin_equivalence(trace: &Trace, xi: &Xi, prune_every: usize, sample_every: usize) {
    let mut plain = IncrementalChecker::new(trace.num_processes(), xi).unwrap();
    let mut pruned = IncrementalChecker::new(trace.num_processes(), xi).unwrap();
    pruned.enable_pruning();
    pruned.enable_margin_tracking();
    for p in 0..trace.num_processes() {
        if trace.is_faulty(ProcessId(p)) {
            plain.mark_faulty(ProcessId(p));
            pruned.mark_faulty(ProcessId(p));
        }
    }
    let events = trace.events();
    let messages = trace.messages();
    let mut suffix_min: Vec<usize> = vec![usize::MAX; events.len() + 1];
    for (idx, ev) in events.iter().enumerate().rev() {
        let named = ev.trigger.map_or(usize::MAX, |mi| messages[mi].send_event);
        suffix_min[idx] = named.min(suffix_min[idx + 1]);
    }
    for (idx, ev) in events.iter().enumerate() {
        match ev.trigger {
            None => {
                plain.append_init(ev.process);
                pruned.append_init(ev.process);
            }
            Some(mi) => {
                let send = EventId(messages[mi].send_event);
                plain.append_send(send, ev.process);
                pruned.append_send(send, ev.process);
            }
        }
        if (idx + 1) % sample_every == 0 || idx + 1 == events.len() {
            let pm = plain.current_margin().unwrap();
            let qm = pruned.current_margin().unwrap();
            if plain.is_admissible() {
                for m in [&pm, &qm] {
                    assert_margin_certified(plain.graph(), m.as_ref().map(|m| &m.ratio), idx);
                }
            }
            assert_eq!(
                pm.as_ref().map(|m| m.ratio.clone()),
                qm.as_ref().map(|m| m.ratio.clone()),
                "margins diverged at event {idx}"
            );
            if plain.is_admissible() {
                let batch = check::max_relevant_cycle_ratio(plain.graph()).unwrap();
                assert_eq!(
                    pm.as_ref().map(|m| m.ratio.clone()),
                    batch,
                    "margin disagrees with the batch probe at event {idx}"
                );
            } else {
                let latched = plain.violation_summary().unwrap().classification.ratio();
                assert_eq!(pm.as_ref().map(|m| m.ratio.clone()), latched);
            }
            for report in [&pm, &qm].into_iter().flatten() {
                if let Some(w) = &report.witness {
                    assert!(w.classification.relevant, "margin witness must be relevant");
                    assert_eq!(w.classification.ratio(), Some(report.ratio.clone()));
                }
            }
        }
        if (idx + 1) % prune_every == 0 {
            let watermark = suffix_min[idx + 1].min(idx + 1);
            pruned.prune_settled(Some(EventId(watermark)));
        }
    }
    if plain.is_admissible() && plain.graph().num_events() <= 140 {
        let margin = plain.current_margin().unwrap().map(|m| m.ratio);
        assert_lp_consistent(plain.graph(), margin.as_ref());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random clocksync runs across comfortable and reordering-heavy
    /// delay bands: the margin is prune- and cadence-invariant, equals
    /// the batch probe at every sample, and survives the LP cross-check.
    #[test]
    fn clocksync_margins_match_batch_and_lp(
        n in 4usize..7,
        lo in 1u64..12,
        spread in 0u64..9,
        seed in any::<u64>(),
        crash_last in any::<bool>(),
        prune_every in 1usize..40,
        sample_every in 5usize..23,
        xi_num in 3i64..6,
    ) {
        let trace = clocksync_run(n, lo, lo + spread, seed, crash_last, 130);
        let xi = Xi::from_fraction(xi_num, 2);
        assert_margin_equivalence(&trace, &xi, prune_every, sample_every);
    }

    /// Random gossip runs (echo budgets drain to quiescence): same
    /// margin equivalences.
    #[test]
    fn gossip_margins_match_batch_and_lp(
        n in 3usize..6,
        lo in 1u64..10,
        spread in 0u64..8,
        seed in any::<u64>(),
        budget in 5u32..30,
        prune_every in 1usize..25,
        sample_every in 5usize..23,
        xi_num in 3i64..6,
    ) {
        let trace = gossip_run(n, lo, lo + spread, seed, budget, 130);
        let xi = Xi::from_fraction(xi_num, 2);
        assert_margin_equivalence(&trace, &xi, prune_every, sample_every);
    }

    /// Tiny runs, full LP treatment: the simplex agrees with the
    /// difference-constraint solver on the margin system, and an
    /// infeasibility at the margin carries a verified Farkas certificate.
    #[test]
    fn small_run_margins_carry_farkas_certificates(
        lo in 1u64..6,
        spread in 0u64..5,
        seed in any::<u64>(),
        budget in 2u32..8,
    ) {
        let trace = gossip_run(3, lo, lo + spread, seed, budget, 24);
        let g = trace.to_execution_graph();
        let margin = check::max_relevant_cycle_ratio(&g).unwrap();
        let one = Ratio::one();
        let probes: Vec<Ratio> = match &margin {
            Some(r) if *r > one => vec![r.clone(), r + &Ratio::new(1, 7)],
            Some(r) => vec![r + &Ratio::new(1, 7)],
            None => vec![&one + &Ratio::new(1, 7), Ratio::from_integer(3)],
        };
        for x in probes {
            let cs = margin_constraints(&g, &x);
            let mut sys = LinearSystem::new(g.num_events());
            for c in &cs {
                let mut coeffs = vec![Ratio::zero(); g.num_events()];
                coeffs[c.u] = Ratio::one();
                coeffs[c.v] += -Ratio::one();
                sys.push(coeffs, Rel::Lt, c.bound.clone());
            }
            let lp = simplex::solve(&sys).unwrap();
            match diffcon::solve(g.num_events(), &cs) {
                Ok(sol) => {
                    prop_assert!(lp.is_feasible(), "simplex disagrees at {x}");
                    prop_assert!(cs.iter().all(|c| c.satisfied_by(&sol)));
                }
                Err(cycle) => {
                    prop_assert!(!lp.is_feasible(), "diffcon disagrees at {x}");
                    prop_assert!(cycle.verify(&cs));
                    let cert = lp.certificate().expect("infeasible LPs carry certificates");
                    prop_assert!(cert.verify(&sys), "Farkas certificate invalid at {x}");
                }
            }
            // Feasibility flips exactly at the margin.
            let expect_feasible = margin.as_ref().is_none_or(|r| x > *r);
            prop_assert_eq!(lp.is_feasible(), expect_feasible, "margin {:?} probe {}", &margin, &x);
        }
    }
}
