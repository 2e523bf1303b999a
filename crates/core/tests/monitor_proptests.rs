//! Property tests for the incremental ABC monitor: after *every* appended
//! event, [`abc_core::monitor::IncrementalChecker`]'s verdict and margin
//! must carry certificates that [`abc_core::certify`] accepts — checks
//! that share no code with any decider — and, on small graphs, agree with
//! brute-force enumeration.

use abc_core::assign::assign_delays;
use abc_core::enumerate::{enumerate_relevant_cycles, EnumerationLimits};
use abc_core::graph::{EventId, ExecutionGraph, ProcessId};
use abc_core::monitor::{IncrementalChecker, MarginReport};
use abc_core::Xi;
use abc_core::{certify, check};
use abc_rational::Ratio;
use proptest::prelude::*;

/// A random build script: `(sender_event, receiver_process)` pairs reduced
/// modulo the current state, as in the `abc-core` checker proptests.
type Script = Vec<(usize, usize)>;

fn script_strategy() -> impl Strategy<Value = (usize, Script)> {
    (
        2usize..5,
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..12),
    )
}

fn xi_strategy() -> impl Strategy<Value = Xi> {
    (1i64..8, 1i64..5)
        .prop_filter("Xi > 1", |(num, den)| num > den)
        .prop_map(|(num, den)| Xi::new(Ratio::new(num, den)).unwrap())
}

/// An exact margin, certified ([`certify::margin`]): a margin `m > 1`
/// comes with the cycle `find_violation` finds at `Ξ = m`, of ratio
/// exactly `m`, and every margin with the assignment `assign_delays` gives
/// at `m + 1/M²` (`M`: the messages of `g`; two cycle ratios
/// `B/F ≠ B'/F'` with parts at most `M` lie at least `1/M²` apart). A
/// margin of `1`, or none, is certified just above `1`.
fn assert_margin_certified(
    g: &ExecutionGraph,
    margin: Option<&Ratio>,
) -> Result<(), TestCaseError> {
    let at = margin.filter(|&m| *m > Ratio::one()).cloned();
    let witness = match at {
        Some(m) => {
            let found = check::find_violation(g, &Xi::new(m.clone()).unwrap()).unwrap();
            prop_assert!(found.is_some(), "none at {}", m);
            found
        }
        None => None,
    };
    let above = certify::above_margin(g, margin);
    let timed = assign_delays(g, &above);
    prop_assert!(timed.is_ok(), "one at {}: {:?}", above, timed);
    let certified = certify::margin(g, margin, witness.as_ref(), &timed.unwrap());
    prop_assert_eq!(certified, Ok(()));
    Ok(())
}

/// Certifies a monitor's verdict on `g`: its latched witness as a
/// violation ([`certify::violation`]), or the assignment `assign_delays`
/// reads off a replay of `g` as admissibility ([`certify::admissible`]).
fn assert_certified(mon: &IncrementalChecker, g: &ExecutionGraph) -> Result<(), TestCaseError> {
    let xi = mon.xi();
    let certified = match mon.violation() {
        Some(cycle) => certify::violation(g, xi, cycle),
        None => assign_delays(g, xi)
            .map_err(|e| e.to_string())
            .and_then(|timed| certify::admissible(g, xi, &timed)),
    };
    prop_assert_eq!(certified, Ok(()), "{} events", g.num_events());
    Ok(())
}

/// The brute-force maximum `|Z−|/|Z+|` over every relevant cycle of `g`.
fn enumerated_max_ratio(g: &ExecutionGraph) -> Option<Ratio> {
    enumerate_relevant_cycles(g, EnumerationLimits::default())
        .cycles
        .iter()
        .filter_map(|c| c.classify().ratio())
        .max()
}

/// `q` reaches `p` over two disjoint relay chains of `first` and `second`
/// messages, the `first`-chain arriving first: one cycle, relevant with
/// ratio `first/second` iff the longer chain is the one that arrives
/// first.
fn two_chains(first: usize, second: usize) -> ExecutionGraph {
    let mut b = ExecutionGraph::builder(first + second);
    let q = b.init(ProcessId(0));
    for i in 1..first + second {
        b.init(ProcessId(i));
    }
    let mut relay = 2;
    for hops in [first, second] {
        let mut cur = q;
        for _ in 1..hops {
            (_, cur) = b.send(cur, ProcessId(relay));
            relay += 1;
        }
        b.send(cur, ProcessId(1));
    }
    b.finish()
}

/// The three answers the kept margin has separate code for — no relevant
/// cycle, ratio exactly 1 (the tight-arc pass), ratio above 1 (a raise) —
/// each against the enumeration.
#[test]
fn max_ratio_matches_enumeration_in_each_of_its_three_cases() {
    let acyclic = {
        let mut b = ExecutionGraph::builder(3);
        let a = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        b.send(a, ProcessId(1));
        b.send(a, ProcessId(2));
        b.finish()
    };
    for (g, expected) in [
        (acyclic, None),
        (two_chains(2, 2), Some(Ratio::one())),
        (two_chains(3, 3), Some(Ratio::one())),
        (two_chains(3, 2), Some(Ratio::new(3, 2))),
        (two_chains(5, 2), Some(Ratio::new(5, 2))),
        (two_chains(2, 5), None),
    ] {
        assert_eq!(enumerated_max_ratio(&g), expected);
        assert_eq!(check::max_relevant_cycle_ratio(&g).unwrap(), expected);
        assert_eq!(check::has_relevant_cycle(&g), expected.is_some());
    }
}

/// Expands near-threshold picks into sends `(from event, to process)`
/// over `n` processes for integer `Ξ = xi`. Every gadget closes a cycle
/// whose ratio sits within one hop of `Ξ`, mostly just below it:
///
/// * background: a recent event writes to anyone (this is what stretches
///   a neighbouring chain over the threshold, or inflates a receiver's
///   label so that the next span opens a window conflict without a cycle);
/// * span: a chain of `Ξ − 1` (one time in four: `Ξ`) relays, overtaken —
///   spanned — by one slow message from its source;
/// * idle span: the newest event of the longest-idle process sends a slow
///   message that a chain of `2Ξ − 1` (one in four: `2Ξ`) hops from a newer
///   event `u` overtakes, then `u` writes to the idle process: the closing
///   receive's local predecessor is the idle process's old event, which a
///   pruning monitor has compacted by then.
fn near_threshold_script(n: usize, xi: usize, picks: &[(usize, usize, usize)]) -> Script {
    let mut sends: Script = Vec::new();
    let mut last: Vec<usize> = (0..n).collect(); // newest event per process
    let mut send = |last: &mut Vec<usize>, from: usize, to: usize| -> usize {
        sends.push((from, to));
        last[to] = n + sends.len() - 1;
        last[to]
    };
    for &(kind, a, b) in picks {
        let newest = *last.iter().max().expect("n > 0");
        let p = b % n;
        let relay = |avoid: usize, hop: usize| (avoid + 1 + (b / n + hop) % (n - 1)) % n;
        match kind % 4 {
            0 => {
                send(&mut last, newest - a % 3.min(newest + 1), p);
            }
            1 | 2 => {
                let hops = xi - 1 + usize::from(a % 4 == 0);
                let source = newest - (a / 4) % 2;
                let mut cur = source;
                for hop in 1..hops {
                    cur = send(&mut last, cur, relay(p, hop));
                }
                send(&mut last, cur, p);
                send(&mut last, source, p);
            }
            _ => {
                let idle = (0..n).min_by_key(|&q| last[q]).expect("n > 0");
                let old = last[idle];
                let target = if p == idle { (p + 1) % n } else { p };
                let mut cur = newest;
                for hop in 1..2 * xi - 1 + usize::from(a % 4 == 0) {
                    let via = relay(target, hop);
                    cur = send(&mut last, cur, if via == idle { target } else { via });
                }
                send(&mut last, cur, target);
                send(&mut last, old, target);
                send(&mut last, newest, idle);
            }
        }
    }
    sends
}

/// Near-threshold scripts — the inputs random scripts almost never draw
/// and the benchmark's `canon` family skips as "not quiet": at every
/// prefix the monitor and a margin-tracking monitor that prunes with the
/// exact lookahead watermark agree on the verdict, the witness and the
/// margin, and the verdict and the margin are certified. The leg also counts what it reached, so
/// that frontier repair without a latch (`restore_feasibility` to
/// quiescence) and the confirmation seeded by a frontier row (the closing
/// receive's local predecessor already compacted) are known to be
/// exercised rather than assumed.
#[test]
fn near_threshold_scripts_agree_at_every_prefix_and_reach_repair_and_row_seeded_confirmation() {
    use std::cell::Cell;
    let (benign_repairs, row_seeded_latches) = (Cell::new(0u32), Cell::new(0u32));
    let picks = proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..12);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(96),
        (3usize..6, 2usize..5, picks, 1usize..4),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "near_threshold_scripts_agree_at_every_prefix_and_reach_repair_and_row_seeded_confirmation",
        |(n, xi_int, picks, cadence)| {
            let xi = Xi::from_integer(i64::try_from(xi_int).expect("small"));
            let script = near_threshold_script(n, xi_int, &picks);
            // suffix_min[i]: the oldest event any send at index >= i names.
            let mut suffix_min = vec![usize::MAX; script.len() + 1];
            for (i, &(from, _)) in script.iter().enumerate().rev() {
                suffix_min[i] = from.min(suffix_min[i + 1]);
            }
            let mut plain = IncrementalChecker::new(n, &xi).unwrap();
            let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
            pruned.enable_pruning();
            pruned.enable_margin_tracking();
            let mut last: Vec<usize> = (0..n).collect();
            for p in 0..n {
                plain.append_init(ProcessId(p));
                pruned.append_init(ProcessId(p));
            }
            for (step, &(from, to)) in script.iter().enumerate() {
                let relaxations = plain.stats().relaxations;
                let prev_compacted = last[to] < pruned.stats().pruned_events;
                plain.append_send(EventId(from), ProcessId(to));
                pruned.append_send(EventId(from), ProcessId(to));
                last[to] = n + step;
                let g = plain.graph();
                assert_certified(&plain, g)?;
                prop_assert_eq!(plain.violation(), pruned.violation(), "event {}", n + step);
                prop_assert_eq!(plain.violation_summary(), pruned.violation_summary());
                let margin = pruned.current_margin().unwrap().map(|m| m.ratio);
                if let Some(w) = plain.violation() {
                    prop_assert!(w.validate(g).is_ok() && w.classify().violates(&xi));
                    prop_assert_eq!(margin, w.classify().ratio());
                    row_seeded_latches.set(row_seeded_latches.get() + u32::from(prev_compacted));
                    return Ok(());
                }
                assert_margin_certified(g, margin.as_ref())?;
                prop_assert_eq!(&margin, &check::max_relevant_cycle_ratio(g).unwrap());
                if plain.stats().relaxations > relaxations {
                    benign_repairs.set(benign_repairs.get() + 1);
                }
                if step % cadence == 0 {
                    let watermark = suffix_min[step + 1].min(n + step + 1);
                    pruned.prune_settled(Some(EventId(watermark)));
                }
            }
            Ok(())
        },
    );
    let reached = (benign_repairs.get(), row_seeded_latches.get());
    assert!(
        reached.0 > 0 && reached.1 > 0,
        "(benign repairs, row-seeded latches) reached: {reached:?}"
    );
}

/// What the kept-margin leg reached, by the margin at each compared
/// prefix: none, exactly `1`, above `1`; and the latches.
#[derive(Clone, Copy, Debug, Default)]
struct Reached {
    none: u32,
    one: u32,
    above: u32,
    latched: u32,
}

/// `kept ≡ replay ≡ batch`, and exact: at every prefix of an execution —
/// random sends, or the near-threshold gadgets above, whose cycles raise a
/// margin several times within one append — with a faulty process and
/// exempt sends among them, a monitor that keeps its margin reports what
/// an untracked monitor's replay and the batch `max_relevant_cycle_ratio`
/// report, and its certificate holds ([`assert_margin_certified`]):
/// kept mirror-less and never pruned (a sweep worker's), pruned with the
/// exact lookahead watermark at several cadences, and switched on half-way
/// through a mirrored run (seeded by a replay). Each
/// execution runs at `Ξ` just above its own final margin, where every cycle
/// that raises the margin is a near miss, and, when that margin is a `Ξ`,
/// at the margin itself, where it latches mid-stream. A kept witness
/// attains the margin it is shown with, a tracking monitor's bound is its
/// margin, and its threshold test (`kept_margin_reaches`) is reached at the
/// margin and not just above it.
#[test]
fn the_kept_margin_equals_the_replay_and_the_batch_at_every_prefix() {
    use std::cell::Cell;
    let reached = Cell::new(Reached::default());
    let picks = proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..20);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(160),
        (3usize..6, any::<usize>(), any::<bool>(), picks, 2usize..5),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "the_kept_margin_equals_the_replay_and_the_batch_at_every_prefix",
        |(n, pick, gadgets, picks, shape)| {
            let script = match gadgets {
                true => near_threshold_script(n, shape, &picks),
                // Sends name one of the last `shape` events.
                false => (n..)
                    .zip(&picks)
                    .map(|(total, &(back, to, _))| (total - 1 - back % shape.min(total), to % n))
                    .collect(),
            };
            let exempt = |step: usize| picks[step % picks.len()].2 % 8 == 0;
            let faulty = (pick % 3 == 0).then_some(pick % n);
            // suffix_min[i]: the oldest event any send at index >= i names.
            let mut suffix_min = vec![usize::MAX; script.len() + 1];
            for (i, &(from, _)) in script.iter().enumerate().rev() {
                suffix_min[i] = from.min(suffix_min[i + 1]);
            }
            let start = |mon: &mut IncrementalChecker| {
                if let Some(p) = faulty {
                    mon.mark_faulty(ProcessId(p));
                }
                for p in 0..n {
                    mon.append_init(ProcessId(p));
                }
            };
            let feed = |mon: &mut IncrementalChecker, step: usize| {
                let (from, to) = (EventId(script[step].0), ProcessId(script[step].1));
                match exempt(step) {
                    true => mon.append_send_exempt(from, to),
                    false => mon.append_send(from, to),
                };
            };
            let mut probe = IncrementalChecker::new(n, &Xi::from_integer(1_000)).unwrap();
            start(&mut probe);
            (0..script.len()).for_each(|step| feed(&mut probe, step));
            let last = probe.current_margin().unwrap().map(|m| m.ratio);
            let above = last.clone().unwrap_or_else(Ratio::one) + Ratio::new(1, 64);
            let mut xis = vec![Xi::new(above).unwrap()];
            xis.extend(last.and_then(|m| Xi::new(m).ok()));
            let half = script.len() / 2;
            for xi in &xis {
                for cadence in [None, Some(1), Some(3)] {
                    let mut search = IncrementalChecker::new(n, xi).unwrap();
                    let mut kept = IncrementalChecker::new(n, xi).unwrap();
                    kept.enable_pruning();
                    kept.enable_margin_tracking();
                    let mut late = IncrementalChecker::new(n, xi).unwrap();
                    for mon in [&mut search, &mut kept, &mut late] {
                        start(mon);
                    }
                    for step in 0..script.len() {
                        if step == half {
                            late.enable_margin_tracking();
                        }
                        for mon in [&mut search, &mut kept, &mut late] {
                            feed(mon, step);
                        }
                        let replay = search.current_margin().unwrap();
                        let expected = replay.as_ref().map(|m| m.ratio.clone());
                        let mut seen = reached.get();
                        match &expected {
                            _ if !search.is_admissible() => seen.latched += 1,
                            None => seen.none += 1,
                            Some(m) if *m == Ratio::one() => seen.one += 1,
                            Some(_) => seen.above += 1,
                        }
                        reached.set(seen);
                        if search.is_admissible() {
                            let batch = check::max_relevant_cycle_ratio(search.graph()).unwrap();
                            prop_assert_eq!(&expected, &batch, "replay ≠ batch at step {}", step);
                            assert_margin_certified(search.graph(), expected.as_ref())?;
                        }
                        let tracking = [(&kept, "kept")]
                            .into_iter()
                            .chain((step >= half).then_some((&late, "late")));
                        for (mon, what) in tracking {
                            prop_assert_eq!(mon.violation_summary(), search.violation_summary());
                            let report = mon.current_margin().unwrap();
                            let ratio = report.as_ref().map(|m| m.ratio.clone());
                            if mon.is_admissible() {
                                assert_margin_certified(search.graph(), ratio.as_ref())?;
                            }
                            prop_assert_eq!(&ratio, &expected, "{} at step {}", what, step);
                            prop_assert_eq!(mon.margin_upper_bound(), ratio.clone());
                            // The O(1) threshold test agrees with the margin
                            // on both sides of it while the verdict is open.
                            let parts = ratio.clone().and_then(|m| Xi::new(m).ok()?.as_i64_parts());
                            if mon.is_admissible() {
                                if let Some(at) = parts {
                                    prop_assert!(mon.kept_margin_reaches(at), "{} {}", what, step);
                                }
                                let (p, q) = parts.unwrap_or((1, 1));
                                let above = (64 * p + 1, 64 * q);
                                prop_assert!(!mon.kept_margin_reaches(above), "{} {}", what, step);
                            }
                            if let Some(MarginReport {
                                ratio,
                                witness: Some(w),
                            }) = report
                            {
                                prop_assert!(w.classification.relevant, "{}: {}", what, w);
                                prop_assert_eq!(w.classification.ratio(), Some(ratio));
                            }
                        }
                        if cadence.is_some_and(|c| step % c == 0) {
                            let watermark = suffix_min[step + 1].min(n + step + 1);
                            kept.prune_settled(Some(EventId(watermark)));
                        }
                    }
                }
            }
            Ok(())
        },
    );
    let reached = reached.get();
    assert!(
        [reached.none, reached.one, reached.above, reached.latched]
            .iter()
            .all(|&count| count > 100),
        "{reached:?}"
    );
}

/// An execution to monitor: process count, the process marked faulty
/// (if any), and a send script.
type Execution = (usize, Option<usize>, Script);

fn execution_strategy() -> impl Strategy<Value = Execution> {
    (
        2usize..5,
        any::<usize>(),
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..24),
    )
        .prop_map(|(n, pick, script)| (n, (pick % 3 == 0).then_some(pick % n), script))
}

/// The modes a monitor can be in, as `(mirror kept, margin kept from the
/// first append, pruned)`: (0) as built, (1) mirror dropped, (2) mirror
/// dropped and tracking, pruning — a bounded session's — (3) mirrored and
/// pruning, keeping its margin from its first prune, (4) the same without
/// the mirror, (5) mirror dropped and tracking, never pruned — a sweep
/// worker's — (6) mirrored and tracking, pruning.
const MODES: [(bool, bool, bool); 7] = [
    (true, false, false),
    (false, false, false),
    (false, true, true),
    (true, false, true),
    (false, false, true),
    (false, true, false),
    (true, true, true),
];

/// A new monitor in mode `mode` of [`MODES`].
fn armed(mode: usize, n: usize, xi: &Xi) -> IncrementalChecker {
    let (mirrored, tracking, _) = MODES[mode];
    let mut mon = IncrementalChecker::new(n, xi).unwrap();
    if !mirrored {
        mon.enable_pruning();
    }
    if tracking {
        mon.enable_margin_tracking();
    }
    mon
}

/// Feeds `execution` to `mon` and renders everything its public face
/// shows after every append: verdict, cycle, summary, margin with witness,
/// margin bound, counters, live sizes, the mirror — and what each prune
/// returned.
fn observe(
    mon: &mut IncrementalChecker,
    mode: usize,
    (n, faulty, script): &Execution,
    cadence: usize,
    horizon: usize,
) -> Vec<String> {
    let n = *n;
    let (mirrored, _, pruning) = MODES[mode];
    if let Some(p) = faulty {
        mon.mark_faulty(ProcessId(*p));
    }
    for p in 0..n {
        mon.append_init(ProcessId(p));
    }
    let mut seen = Vec::new();
    let mut total = n;
    for (step, &(back, to)) in script.iter().enumerate() {
        // Sends only name one of the last `horizon` events, so the
        // watermark below is an honest promise.
        let from = EventId(total - 1 - back % horizon.min(total));
        let ids = mon.append_send(from, ProcessId(to % n));
        total += 1;
        let margins = (mon.current_margin(), mon.margin_upper_bound());
        let mirror = mirrored.then(|| mon.graph().clone());
        seen.push(format!(
            "{ids:?} {:?} {:?} {margins:?} {:?} {} {} {mirror:?}",
            mon.violation(),
            mon.violation_summary(),
            mon.stats(),
            mon.live_events(),
            mon.live_arcs(),
        ));
        if pruning && step % cadence == 0 {
            let pruned = mon.prune_settled(Some(EventId(total.saturating_sub(horizon))));
            seen.push(format!("pruned {pruned}"));
        }
    }
    seen
}

/// The kept column of `mon` as its `Debug` shows it: labels, ratio, the
/// cycle that last raised it and its witness, the guard's state.
fn kept_column(mon: &IncrementalChecker) -> String {
    let shown = format!("{mon:?}");
    let start = shown
        .find("kept: KeptMargin")
        .expect("a monitor shows its kept column");
    let end = shown
        .find(", stats: MonitorStats")
        .expect("stats follow the kept column");
    shown[start..end].to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One margin algorithm, byte for byte. On random executions with a
    /// faulty process and exempt sends, at every prefix:
    ///
    /// * an untracked monitor's margin — ratio and witness — is that of a
    ///   monitor that kept it from its first append;
    /// * a monitor switched to keeping it mid-stream
    ///   (`enable_margin_tracking`) reports the same margins from then on,
    ///   and, if its verdict was open at the switch, holds the same kept
    ///   column: labels, raises and witness;
    /// * so does a monitor that keeps it from its first prune, against one
    ///   that kept it from its first append and prunes at the same
    ///   cadence — and both return the same from every prune.
    #[test]
    fn an_untracked_or_late_margin_is_the_kept_margin_byte_for_byte(
        (n, faulty, script) in execution_strategy(),
        xi in xi_strategy(),
        switch in any::<usize>(),
        cadence in 1usize..4,
        horizon in 1usize..5,
    ) {
        let switch = switch % (script.len() + 1);
        let mut kept = IncrementalChecker::new(n, &xi).unwrap();
        kept.enable_margin_tracking();
        let mut plain = IncrementalChecker::new(n, &xi).unwrap();
        plain.enable_pruning();
        let mut late = IncrementalChecker::new(n, &xi).unwrap();
        let mut kept_pruned = IncrementalChecker::new(n, &xi).unwrap();
        kept_pruned.enable_pruning();
        kept_pruned.enable_margin_tracking();
        let mut late_pruned = IncrementalChecker::new(n, &xi).unwrap();
        late_pruned.enable_pruning();
        let (mut late_open, mut late_pruned_open) = (None, None);
        let mut all = [&mut kept, &mut plain, &mut late, &mut kept_pruned, &mut late_pruned];
        for mon in &mut all {
            if let Some(p) = faulty {
                mon.mark_faulty(ProcessId(p));
            }
            for p in 0..n {
                mon.append_init(ProcessId(p));
            }
        }
        let mut total = n;
        for (step, &(back, to)) in script.iter().enumerate() {
            if step == switch {
                late_open = Some(late.is_admissible());
                late.enable_margin_tracking();
            }
            // Sends only name one of the last `horizon` events, so the
            // watermark below is an honest promise.
            let from = EventId(total - 1 - back % horizon.min(total));
            for mon in [&mut kept, &mut plain, &mut late, &mut kept_pruned, &mut late_pruned] {
                match back % 7 {
                    0 => mon.append_send_exempt(from, ProcessId(to % n)),
                    _ => mon.append_send(from, ProcessId(to % n)),
                };
            }
            total += 1;
            let margin = kept.current_margin();
            prop_assert_eq!(&plain.current_margin(), &margin, "untracked, event {}", total);
            if let Some(open) = late_open {
                prop_assert_eq!(&late.current_margin(), &margin, "late, event {}", total);
                if open {
                    prop_assert_eq!(kept_column(&late), kept_column(&kept), "event {}", total);
                }
            }
            prop_assert_eq!(late_pruned.current_margin(), kept_pruned.current_margin());
            if late_pruned_open == Some(true) {
                prop_assert_eq!(kept_column(&late_pruned), kept_column(&kept_pruned));
            }
            if step % cadence == 0 {
                let watermark = Some(EventId(total.saturating_sub(horizon)));
                let open = late_pruned.is_admissible();
                let pruned = late_pruned.prune_settled(watermark);
                prop_assert_eq!(pruned, kept_pruned.prune_settled(watermark), "event {}", total);
                if pruned > 0 {
                    late_pruned_open = late_pruned_open.or(Some(open));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// `reset` ≡ `new`: a monitor that has been through one execution —
    /// in any mode, latched or not, with faulty marks, over another
    /// process count and another Ξ — and is then reset shows, at every
    /// prefix of a second execution, exactly what a new monitor of that
    /// mode shows.
    #[test]
    fn a_reset_monitor_is_indistinguishable_from_a_new_one(
        mode in 0..MODES.len(),
        first in (execution_strategy(), xi_strategy()),
        second in (execution_strategy(), xi_strategy()),
        cadence in 1usize..4,
        horizon in 1usize..5,
    ) {
        let ((n, _, _), xi) = &first;
        let mut reused = armed(mode, *n, xi);
        observe(&mut reused, mode, &first.0, cadence, horizon);
        let ((n, _, _), xi) = &second;
        reused.reset(*n, xi).unwrap();
        let mut new = armed(mode, *n, xi);
        prop_assert_eq!(
            observe(&mut reused, mode, &second.0, cadence, horizon),
            observe(&mut new, mode, &second.0, cadence, horizon)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact maximum cycle ratio equals the enumeration's at every
    /// prefix of a random script — a growing graph passes through "no
    /// relevant cycle", often "exactly 1", and "above 1" in turn.
    #[test]
    fn max_ratio_matches_enumeration_at_every_prefix((n, script) in script_strategy()) {
        let mut b = ExecutionGraph::builder(n);
        for p in 0..n {
            b.init(ProcessId(p));
        }
        for &(from, to) in &script {
            b.send(EventId(from % b.num_events()), ProcessId(to % n));
            let g = b.graph();
            prop_assert_eq!(
                check::max_relevant_cycle_ratio(g).unwrap(),
                enumerated_max_ratio(g),
                "prefix of {} events",
                g.num_events()
            );
        }
    }

    /// A pruning, margin-tracking monitor reports the batch margin of the
    /// whole execution at every prefix, whatever the prune cadence and Ξ
    /// (once latched, both monitors freeze at the witness's ratio) — and
    /// so does one that prunes but keeps its margin only from its first
    /// prune on, with its mirror or without.
    #[test]
    fn tracked_pruned_margin_matches_batch_at_every_prefix(
        (n, script) in (2usize..5, proptest::collection::vec((any::<usize>(), any::<usize>()), 0..24)),
        xi in xi_strategy(),
        cadence in 1usize..5,
        horizon in 1usize..5,
    ) {
        let mut plain = IncrementalChecker::new(n, &xi).unwrap();
        let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
        pruned.enable_pruning();
        pruned.enable_margin_tracking();
        let mut mirrored = IncrementalChecker::new(n, &xi).unwrap();
        let mut bare = IncrementalChecker::new(n, &xi).unwrap();
        bare.enable_pruning();
        for p in 0..n {
            for mon in [&mut plain, &mut pruned, &mut mirrored, &mut bare] {
                mon.append_init(ProcessId(p));
            }
        }
        let mut total = n;
        for (step, &(back, to)) in script.iter().enumerate() {
            // Sends only name one of the last `horizon` events, so the
            // watermark below is an honest promise.
            let from = EventId(total - 1 - back % horizon.min(total));
            for mon in [&mut plain, &mut pruned, &mut mirrored, &mut bare] {
                mon.append_send(from, ProcessId(to % n));
            }
            total += 1;
            let expected = if plain.is_admissible() {
                let batch = check::max_relevant_cycle_ratio(plain.graph()).unwrap();
                assert_margin_certified(plain.graph(), batch.as_ref())?;
                batch
            } else {
                plain.current_margin().unwrap().map(|m| m.ratio)
            };
            for mon in [&pruned, &mirrored, &bare] {
                let report = mon.current_margin().unwrap();
                if plain.is_admissible() {
                    let ratio = report.as_ref().map(|m| &m.ratio);
                    assert_margin_certified(plain.graph(), ratio)?;
                }
                prop_assert_eq!(
                    report.as_ref().map(|m| m.ratio.clone()),
                    expected.clone(),
                    "event {}", total
                );
                if let Some(MarginReport { ratio, witness: Some(w) }) = report {
                    prop_assert_eq!(w.classification.ratio(), Some(ratio));
                }
            }
            // With its mirror or without, a monitor that keeps its margin
            // from its first prune reports the same witness.
            prop_assert_eq!(mirrored.current_margin(), bare.current_margin());
            if step % cadence == 0 {
                let watermark = Some(EventId(total.saturating_sub(horizon)));
                for mon in [&mut pruned, &mut mirrored, &mut bare] {
                    mon.prune_settled(watermark);
                }
            }
        }
    }

    /// Streaming the script through the monitor gives a certified verdict
    /// at every single prefix.
    #[test]
    fn monitor_agrees_with_batch_at_every_prefix(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
    ) {
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            mon.append_init(ProcessId(p));
            prop_assert!(mon.is_admissible(), "init events cannot violate");
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
            assert_certified(&mon, mon.graph())?;
        }
    }

    /// On completed small graphs, the monitor's verdict also matches the
    /// enumeration ground truth: violated iff some relevant cycle has
    /// ratio >= Xi.
    #[test]
    fn monitor_agrees_with_enumeration(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
    ) {
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            mon.append_init(ProcessId(p));
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
        }
        let brute_max = enumerate_relevant_cycles(mon.graph(), EnumerationLimits::default())
            .cycles
            .iter()
            .filter_map(|c| c.classify().ratio())
            .max();
        let violated_by_enumeration =
            brute_max.as_ref().is_some_and(|r| r >= xi.as_ratio());
        prop_assert_eq!(!mon.is_admissible(), violated_by_enumeration);
    }

    /// Replaying a finished graph through `from_graph` gives the same
    /// verdict as streaming it event by event, and the same graph.
    #[test]
    fn from_graph_equals_streaming(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
    ) {
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            mon.append_init(ProcessId(p));
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
        }
        let replayed = IncrementalChecker::from_graph(mon.graph(), &xi).unwrap();
        prop_assert_eq!(replayed.graph(), mon.graph());
        prop_assert_eq!(replayed.is_admissible(), mon.is_admissible());
    }

    /// Faulty processes declared up front are exempt: the streamed
    /// monitor's verdict is certified on the graph that marks them, whose
    /// replay marks them too.
    #[test]
    fn monitor_handles_faulty_processes(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
        faulty_pick in any::<usize>(),
    ) {
        let faulty = ProcessId(faulty_pick % n);
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        mon.mark_faulty(faulty);
        for p in 0..n {
            mon.append_init(ProcessId(p));
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
            assert_certified(&mon, mon.graph())?;
        }
        prop_assert!(mon.graph().is_faulty(faulty));
    }
}
