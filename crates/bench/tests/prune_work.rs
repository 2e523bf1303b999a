//! A count, not a timing: how much one tracked prune's envelope passes do,
//! and over how much of the condemned prefix.
//!
//! A margin-tracking prune grows, per boundary landing, the signature
//! envelopes of the condemned prefix (`crates/core/src/monitor/margin.rs`,
//! `margin_sig_sssp`): warm-started from the landing's lex tree, then a
//! FIFO worklist that re-scans only the events whose envelope changed, an
//! exact "can this line win" test in front of every arena link. So a pass
//! links about one line per slot it reaches (a prefix event, or the live
//! head of an exit arc) and scans each internal arc about once on top of
//! the tree's own arcs: 0.98–1.05 links per slot and 1.41–1.49 scans per
//! arc on the sixteen documents below. The cold, round-based pass this
//! replaced made 1 089 links and ≈3 500 arc visits per landing for 257
//! events and 759 internal arcs. Most scans lose: a scan turns a line
//! away on its counts and the head slot's first line (one compare at the
//! floor and a slope test) before anything about its path is read, and
//! only 0.37–0.50 lines per scan go on to the full offer (the reversal
//! test, a link, an insert) on these documents, every one of them linked:
//! the test lets no line through that cannot win.
//!
//! Both passes of a landing run over a certified window of the prefix
//! (`crates/core/src/monitor/window.rs`): its top `K` events, `K` from
//! twice the depth of the deepest exit tail, doubled while the bound on
//! the paths that leave it does not prove them losers. On these documents
//! the 124 landings' passes cover 5 732 events where the whole prefix
//! would be 31 868 (18%), 15 passes are rerun over twice the window, and
//! none falls back to the whole prefix.
//!
//! The counts come from the passes' own `abc_obs` counters
//! (`monitor.prune_sig_*`: links, scans and offers, beside the slots
//! reached and the arcs run over; `monitor.prune_window_*` and
//! `monitor.prune_landings`, all summed over a prune's landings); this
//! file holds one test because the recorder is process-wide
//! (`repair_work.rs` and `check_work.rs` beside it pin the repair's and
//! the batch checker's work the same way).

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

/// The envelope passes' counters: links, scans, slots reached, arcs, and
/// the lines let past the one-compare rejection.
fn sig_counters() -> [u64; 5] {
    ["links", "scans", "nodes", "arcs", "offers"]
        .map(|what| counter(&format!("monitor.prune_sig_{what}")))
}

/// Where the landings' passes ran: the landings, their windows' events
/// summed over the passes, the passes rerun over twice the window, and the
/// landings whose passes ran over the whole prefix.
fn window_counters() -> [u64; 4] {
    [
        "monitor.prune_landings",
        "monitor.prune_window_events",
        "monitor.prune_window_retries",
        "monitor.prune_window_wholes",
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
fn an_envelope_pass_links_about_a_line_per_slot_and_scans_each_arc_under_twice() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    // The ledger's `canon` family as it draws it: `TickGen` n=4 f=1 under
    // band [1, 4], member `i` of the seed's stream, the quiet ones.
    let quiet = |trace: &abc_sim::Trace| {
        let (mon, latch) = trace.replay_into_monitor_until_violation(&xi).unwrap();
        latch.is_none() && mon.margin_upper_bound().is_none_or(|b| b < *xi.as_ratio())
    };
    let docs = (0u64..)
        .map(|i| workloads::clocksync_trace(4, 1, 1, 4, splitmix64(splitmix64(1) + i), 625))
        .filter(quiet)
        .take(16);
    let (mut prunes, mut all_landings, mut retries) = (0, 0, 0);
    for (doc, trace) in docs.enumerate() {
        let sends: Vec<Option<usize>> = trace
            .events()
            .iter()
            .map(|ev| ev.trigger.map(|mi| trace.messages()[mi].send_event))
            .collect();
        // oldest[i]: the oldest send event a step at index `i` or later
        // names, which a server learns from its pending deliveries.
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
            let (before, windows_before) = (sig_counters(), window_counters());
            let watermark = (i + 1).saturating_sub(HORIZON).min(oldest[i + 1]);
            let freed = mon.prune_settled(Some(EventId(watermark)));
            let (after, windows_after) = (sig_counters(), window_counters());
            let [links, scans, nodes, arcs, offers] = [0, 1, 2, 3, 4].map(|k| after[k] - before[k]);
            let [landings, events, reruns, wholes] =
                [0, 1, 2, 3].map(|k| windows_after[k] - windows_before[k]);
            assert!(freed > 0 && nodes > 0, "document {doc}: freed {freed}");
            assert!(
                4 * links <= 5 * nodes,
                "document {doc}: {links} links for {nodes} slots reached"
            );
            assert!(
                scans <= 2 * arcs,
                "document {doc}: {scans} scans over {arcs} internal arcs"
            );
            assert!(
                25 * offers <= 13 * scans,
                "document {doc}: {offers} of {scans} scans reached the full offer"
            );
            // The first prune of a document: the prefix is what it frees.
            assert!(
                2 * events <= landings * freed as u64,
                "document {doc}: {landings} landings' passes ran over {events} events of {freed}"
            );
            assert_eq!(
                wholes, 0,
                "document {doc}: a landing ran over the whole prefix"
            );
            (all_landings, retries) = (all_landings + landings, retries + reruns);
            prunes += 1;
        }
    }
    assert_eq!(prunes, 16, "one prune per document, as served");
    assert!(
        4 * retries <= all_landings,
        "{retries} passes of {all_landings} landings were rerun over twice the window"
    );
    assert_eq!(
        counter("monitor.prune_sig_refusals"),
        0,
        "no shortcut meets a shortcut here"
    );
    abc_obs::disable();
}
