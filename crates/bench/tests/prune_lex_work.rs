//! A count, not a timing: how many arcs one tracked prune's lex passes
//! visit for the relaxations they make.
//!
//! Per boundary landing a tracked prune grows a lexicographic
//! shortest-path tree over the condemned prefix
//! (`crates/core/src/monitor/repair.rs`, `LexScratch::run`): Gauss–Seidel
//! rounds in descending arena order that visit only the arcs whose tail
//! label changed since their last visit. The round loop it replaced
//! visited every internal arc in every round, ≈3 500 visits per landing
//! (4.6 rounds over 759 arcs) for ≈370 relaxations on the documents below.
//! The passes run over certified windows of the prefix
//! (`crates/core/src/monitor/window.rs`), where a landing's pass makes ≈67
//! relaxations with ≈134 visits over its window's ≈105 arcs: 2.0 per
//! relaxation and 1.2–1.3 per arc. The counts
//! come from the pass's own `abc_obs` counters (`monitor.prune_lex_scans`
//! and `monitor.prune_lex_relaxations`, summed over a prune's landings),
//! beside `monitor.prune_sig_arcs` (the internal arcs each landing's
//! envelope pass runs over, the same CSR); this file holds one test
//! because the recorder is process-wide.

use abc_bench::workloads;
use abc_core::graph::EventId;
use abc_core::monitor::IncrementalChecker;
use abc_core::Xi;

/// The horizon `serve_v2_bounded` is served with.
const HORIZON: usize = 256;

/// The recorder's total of counter `name` so far.
fn counter(name: &str) -> u64 {
    let totals = abc_obs::snapshot().counter_totals();
    totals
        .iter()
        .find(|(counter, _)| *counter == name)
        .map_or(0, |(_, value)| *value)
}

/// Lex visits, lex relaxations, internal arcs summed over landings.
fn lex_counters() -> [u64; 3] {
    [
        "monitor.prune_lex_scans",
        "monitor.prune_lex_relaxations",
        "monitor.prune_sig_arcs",
    ]
    .map(counter)
}

fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn a_lex_pass_visits_an_arc_only_after_its_tail_moved() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    // `prune_work.rs`'s sixteen documents: the ledger's `canon` family,
    // `TickGen` n=4 f=1 under band [1, 4], the quiet ones.
    let quiet = |trace: &abc_sim::Trace| {
        let (mon, latch) = trace.replay_into_monitor_until_violation(&xi).unwrap();
        latch.is_none() && mon.margin_upper_bound().is_none_or(|b| b < *xi.as_ratio())
    };
    let docs = (0u64..)
        .map(|i| workloads::clocksync_trace(4, 1, 1, 4, splitmix64(splitmix64(1) + i), 625))
        .filter(quiet)
        .take(16);
    let mut prunes = 0;
    for (doc, trace) in docs.enumerate() {
        let sends: Vec<Option<usize>> = trace
            .events()
            .iter()
            .map(|ev| ev.trigger.map(|mi| trace.messages()[mi].send_event))
            .collect();
        let mut oldest = vec![usize::MAX; sends.len() + 1];
        for (i, send) in sends.iter().enumerate().rev() {
            oldest[i] = send.unwrap_or(usize::MAX).min(oldest[i + 1]);
        }
        let mut mon = IncrementalChecker::new(trace.num_processes(), &xi).unwrap();
        mon.enable_pruning();
        mon.enable_margin_tracking();
        for (i, ev) in trace.events().iter().enumerate() {
            match sends[i] {
                None => {
                    mon.append_init(ev.process);
                }
                Some(send) => {
                    mon.append_send(EventId(send), ev.process);
                }
            }
            if mon.live_events() <= 2 * HORIZON {
                continue;
            }
            let before = lex_counters();
            let watermark = (i + 1).saturating_sub(HORIZON).min(oldest[i + 1]);
            assert!(mon.prune_settled(Some(EventId(watermark))) > 0);
            let after = lex_counters();
            let [scans, relaxations, arcs] = [0, 1, 2].map(|k| after[k] - before[k]);
            assert!(relaxations > 0, "document {doc}: no tree grew");
            assert!(
                scans <= 3 * relaxations,
                "document {doc}: {scans} visits for {relaxations} relaxations"
            );
            assert!(
                2 * scans <= 3 * arcs,
                "document {doc}: {scans} visits over {arcs} internal arcs"
            );
            prunes += 1;
        }
    }
    assert_eq!(prunes, 16, "one prune per document, as served");
    abc_obs::disable();
}
