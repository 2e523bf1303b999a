//! Property tests for `abc-core`: the polynomial checker against
//! brute-force enumeration, Theorem 7 assignments, Corollary 1 on random
//! cycle sums, and cut invariants — on randomly generated execution graphs.

use abc_core::assign::{assign_delays, AssignError};
use abc_core::check;
use abc_core::cut::{causal_past, cut_interval, Cut};
use abc_core::cyclespace::{decompose, CycleVector};
use abc_core::enumerate::{enumerate_relevant_cycles, EnumerationLimits};
use abc_core::graph::{EventId, ExecutionGraph, ProcessId};
use abc_core::traversal::{ArcKind, TraversalGraph};
use abc_core::Xi;
use abc_rational::Ratio;
use proptest::prelude::*;

/// Builds a random message-driven execution graph from a script of
/// `(sender_event, receiver_process, exempt)` triples (reduced modulo the
/// current state), over `n` processes, the processes `faulty` names
/// (modulo `n`) marked faulty.
fn build_graph(n: usize, script: &[(usize, usize, bool)], faulty: &[usize]) -> ExecutionGraph {
    let mut b = ExecutionGraph::builder(n);
    for p in 0..n {
        b.init(ProcessId(p));
    }
    for &(from, to, exempt) in script {
        let from_event = EventId(from % b.num_events());
        let to_process = ProcessId(to % n);
        let (m, _) = b.send(from_event, to_process);
        if exempt {
            b.set_exempt(m);
        }
    }
    for &p in faulty {
        b.mark_faulty(ProcessId(p % n));
    }
    b.finish()
}

/// Random graphs on which the effective-message filter matters: about one
/// message in six is exempt, and up to one process is faulty.
fn graph_strategy() -> impl Strategy<Value = ExecutionGraph> {
    let exempt = (0u8..6).prop_map(|draw| draw == 0);
    (
        2usize..5,
        proptest::collection::vec((any::<usize>(), any::<usize>(), exempt), 0..12),
        proptest::collection::vec(any::<usize>(), 0..2),
    )
        .prop_map(|(n, script, faulty)| build_graph(n, &script, &faulty))
}

/// The oracle for the checker's negative-cycle kernel: textbook
/// round-based Bellman–Ford from an all-zero start over the reduction's
/// scaled weights `(p·[fwd] − q·[bwd])·K − 1`, `K = #arcs + 1`. Labels
/// still moving in round `#nodes + 1` mean a negative cycle, i.e. a
/// relevant cycle with ratio `≥ Ξ = p/q`.
fn textbook_violates(g: &ExecutionGraph, xi: &Xi) -> bool {
    let tg = TraversalGraph::from_graph(g);
    let (p, q) = xi.as_i128_parts().unwrap();
    let k = tg.num_arcs() as i128 + 1;
    let mut dist = vec![0i128; g.num_events()];
    for _round in 0..=g.num_events() {
        let mut changed = false;
        for arc in tg.arcs() {
            let weight = match arc.kind {
                ArcKind::Forward(_) => p * k - 1,
                ArcKind::Backward(_) => -q * k - 1,
                ArcKind::LocalBack => -1,
                ArcKind::Shortcut(_) => unreachable!("batch graphs carry no shortcut arcs"),
            };
            if dist[arc.from] + weight < dist[arc.to] {
                dist[arc.to] = dist[arc.from] + weight;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel ≡ textbook ≡ enumeration, on a `Ξ` grid that holds every
    /// relevant cycle's own ratio (a violation: Definition 4 is strict) and
    /// a step to either side of it: the verdicts agree and every witness is
    /// a valid violating cycle. (The max ratio — the monitor's kept margin,
    /// replayed on the same kernel — is held to the enumerated maximum by
    /// `checker_matches_enumeration` below; that a *no* leaves no tense arc
    /// is `debug_assert`ed in the kernel on every one of these runs, and
    /// checked label by label in its unit test.)
    #[test]
    fn kernel_agrees_with_textbook_bellman_ford_and_enumeration(g in graph_strategy()) {
        let ratios: Vec<Ratio> = enumerate_relevant_cycles(&g, EnumerationLimits::default())
            .cycles
            .iter()
            .filter_map(|c| c.classify().ratio())
            .collect();
        let max = ratios.iter().max();
        let step = Ratio::new(1, 7);
        let mut grid = vec![Ratio::new(11, 10), Ratio::new(3, 2), Ratio::from_integer(5)];
        for r in &ratios {
            grid.extend([r.clone(), r + &step, r - &step]);
        }
        for xi in grid.into_iter().filter_map(|r| Xi::new(r).ok()) {
            let violates = max.is_some_and(|m| m >= xi.as_ratio());
            prop_assert_eq!(textbook_violates(&g, &xi), violates, "textbook, Xi = {}", &xi);
            prop_assert_eq!(check::is_admissible(&g, &xi).unwrap(), !violates, "Xi = {}", &xi);
            let witness = check::find_violation(&g, &xi).unwrap();
            prop_assert_eq!(witness.is_some(), violates, "Xi = {}", &xi);
            if let Some(w) = witness {
                prop_assert!(w.validate(&g).is_ok(), "{} at Xi = {}", w, &xi);
                prop_assert!(w.classify().violates(&xi), "{} at Xi = {}", w, &xi);
            }
        }
    }

    /// The polynomial max-ratio equals the brute-force maximum over all
    /// enumerated relevant cycles.
    #[test]
    fn checker_matches_enumeration(g in graph_strategy()) {
        let brute = enumerate_relevant_cycles(&g, EnumerationLimits::default())
            .cycles
            .iter()
            .filter_map(|c| c.classify().ratio())
            .max();
        prop_assert_eq!(check::max_relevant_cycle_ratio(&g).unwrap(), brute);
    }

    /// `is_admissible(g, Ξ)` iff `max_ratio(g) < Ξ` — and `has_relevant_cycle`
    /// agrees with the enumeration.
    #[test]
    fn admissibility_iff_ratio_below_xi(
        g in graph_strategy(),
        num in 5i64..40,
        den in 1i64..5,
    ) {
        prop_assume!(num > den); // Xi > 1
        let xi = Xi::new(Ratio::new(num, den)).unwrap();
        let max = check::max_relevant_cycle_ratio(&g).unwrap();
        let admissible = check::is_admissible(&g, &xi).unwrap();
        match &max {
            None => prop_assert!(admissible),
            Some(r) => prop_assert_eq!(admissible, r < xi.as_ratio()),
        }
        prop_assert_eq!(check::has_relevant_cycle(&g), max.is_some());
    }

    /// A violation witness, when produced, is a valid relevant cycle with
    /// ratio at least Ξ.
    #[test]
    fn violation_witnesses_are_valid(g in graph_strategy()) {
        let xi = Xi::from_fraction(3, 2);
        if let Some(w) = check::find_violation(&g, &xi).unwrap() {
            prop_assert!(w.validate(&g).is_ok());
            let c = w.classify();
            prop_assert!(c.relevant);
            prop_assert!(c.ratio().unwrap() >= Ratio::new(3, 2));
        }
    }

    /// Theorem 7 end to end: an assignment exists iff the graph is
    /// admissible; when it exists it is normalized and Θ-admissible for
    /// Θ = Ξ; when it does not, the witness violates and is the checker's.
    #[test]
    fn theorem7_assignment(g in graph_strategy(), num in 3i64..9, den in 1i64..4) {
        prop_assume!(num > den);
        let xi = Xi::new(Ratio::new(num, den)).unwrap();
        let witness = check::find_violation(&g, &xi).unwrap();
        match assign_delays(&g, &xi) {
            Ok(timed) => {
                prop_assert!(witness.is_none());
                prop_assert!(timed.is_normalized(&g, &xi));
                prop_assert!(timed.is_theta_admissible(&g, xi.as_ratio()));
            }
            Err(AssignError::NotAdmissible(cycle)) => {
                prop_assert!(cycle.validate(&g).is_ok());
                prop_assert!(cycle.classify().violates(&xi));
                prop_assert_eq!(Some(cycle), witness);
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// Corollary 1: any non-negative integer combination of relevant cycles
    /// of an admissible graph satisfies |C−|/|C+| < Ξ (for Ξ strictly above
    /// the graph's max ratio), and the Eulerian decomposition round-trips
    /// the mass with every peel passing the case analysis.
    #[test]
    fn corollary1_on_random_sums(
        g in graph_strategy(),
        picks in proptest::collection::vec((any::<usize>(), 1i64..4), 1..5),
    ) {
        let relevant = enumerate_relevant_cycles(&g, EnumerationLimits::default()).cycles;
        prop_assume!(!relevant.is_empty());
        let max = check::max_relevant_cycle_ratio(&g).unwrap().unwrap();
        // Xi strictly above the max ratio: the graph is ABC-admissible.
        let xi = Xi::new(&max + &Ratio::new(1, 3)).unwrap();
        let mut sum = CycleVector::zero();
        for (idx, lambda) in &picks {
            let z = CycleVector::from_cycle(&relevant[idx % relevant.len()]);
            sum = sum.add(&z.scale(*lambda));
        }
        prop_assert!(sum.satisfies_corollary1(&xi), "sum ratio {:?} vs Xi {}", sum.ratio(), xi);
        let peels = decompose(&g, &sum).unwrap();
        let fwd: usize = peels.iter().map(|p| p.forward.len()).sum();
        let bwd: usize = peels.iter().map(|p| p.backward.len()).sum();
        prop_assert_eq!(fwd as i64, sum.forward_mass());
        prop_assert_eq!(bwd as i64, sum.backward_mass());
        // Note: Theorem 11 guarantees that a mixed-free decomposition whose
        // peels all pass the case analysis EXISTS; a greedy Eulerian peel
        // need not find that particular one, so only the sum-level claim
        // (Corollary 1, asserted above) and mass conservation are invariant.
        prop_assert!(peels.iter().all(|p| !p.forward.is_empty() || !p.backward.is_empty()));
    }

    /// Causal pasts are left-closed consistent-cut material, and cut
    /// intervals decompose as differences of pasts.
    #[test]
    fn cut_invariants(g in graph_strategy(), a in any::<usize>(), b in any::<usize>()) {
        prop_assume!(g.num_events() > 0);
        let ea = EventId(a % g.num_events());
        let eb = EventId(b % g.num_events());
        let past = causal_past(&g, ea);
        let cut = Cut::new(past.clone());
        prop_assert!(cut.is_left_closed(&g));
        prop_assert!(past.contains(ea));
        // Monotonicity: if ea *-> eb then ⟨ea⟩ ⊆ ⟨eb⟩.
        if g.happens_before(ea, eb) {
            prop_assert!(past.is_subset(&causal_past(&g, eb)));
            let interval = cut_interval(&g, ea, eb);
            prop_assert!(!interval.contains(ea));
            if ea != eb {
                prop_assert!(interval.contains(eb));
            }
        }
    }

    /// Exempting every message of a violating graph always restores
    /// admissibility (the dropping hook of Section 2).
    #[test]
    fn exempting_all_messages_restores_admissibility(g in graph_strategy()) {
        let xi = Xi::from_fraction(6, 5);
        prop_assume!(!check::is_admissible(&g, &xi).unwrap());
        // Rebuild with every message exempt.
        let mut b = ExecutionGraph::builder(g.num_processes());
        for p in 0..g.num_processes() {
            b.init(ProcessId(p));
        }
        for m in g.messages() {
            let (mid, _) = b.send(m.from, m.receiver);
            b.set_exempt(mid);
        }
        let g2 = b.finish();
        prop_assert!(check::is_admissible(&g2, &xi).unwrap());
    }
}
