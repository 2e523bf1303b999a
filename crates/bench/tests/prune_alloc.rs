//! Counts, not timings: how many heap allocations one tracked prune
//! makes once the monitor has seen a document of its size, and how many
//! bytes a latch allocates once the monitor has latched on its document.
//!
//! A prune composes hundreds of condensed paths (`serve_v2_bounded`'s
//! shape: ≈300 entry × exit candidates, ≈240 new shortcut arcs). A
//! candidate is spelled only once it wins its slot, into the shortcut
//! table's one step pool; a signature spelled like its shortcut shares its
//! path; and the pool is compacted into spare columns the monitor keeps.
//! What is left is a few dozen buffers per cut: 91–101 allocations per
//! prune on the documents below, where spelling every candidate into
//! vectors of its own made ≈3 050. This binary counts with its own global
//! allocator, per thread, so it holds these tests and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use abc_bench::workloads;
use abc_core::graph::{EventId, ProcessId};
use abc_core::monitor::IncrementalChecker;
use abc_core::Xi;

/// `System`, counting the allocations of each thread (a reallocation is
/// `GlobalAlloc`'s default: an allocation, a copy and a free).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: both methods forward the caller's arguments to `System`, which
// upholds `GlobalAlloc`'s contract; counting touches a const-initialized
// thread-local `Cell` only, which neither allocates nor unwinds (a thread
// being torn down has no counter left, and is not the test's).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The horizon `serve_v2_bounded` is served with.
const HORIZON: usize = 256;

/// The most allocations one prune may make here: half as much again as
/// the 101 measured at most, and far below a third of the ≈3 050 a prune
/// made when every candidate had vectors of its own.
const MAX_PER_PRUNE: u64 = 150;

fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn a_prune_allocates_a_few_buffers_and_nothing_per_path() {
    let xi = Xi::from_integer(5);
    // `serve_v2_bounded`'s documents: `TickGen` n=4 f=1 under band
    // [1, 4], 625 events, the quiet ones.
    let quiet = |trace: &abc_sim::Trace| {
        let (mon, latch) = trace.replay_into_monitor_until_violation(&xi).unwrap();
        latch.is_none() && mon.margin_upper_bound().is_none_or(|b| b < *xi.as_ratio())
    };
    let docs: Vec<abc_sim::Trace> = (0u64..)
        .map(|i| workloads::clocksync_trace(4, 1, 1, 4, splitmix64(splitmix64(1) + i), 625))
        .filter(quiet)
        .take(8)
        .collect();
    // One monitor for every document, as a session keeps it.
    let mut mon = IncrementalChecker::new(4, &xi).unwrap();
    mon.enable_pruning();
    mon.enable_margin_tracking();
    let (mut prunes, mut worst) = (0, 0);
    for (doc, trace) in docs.iter().enumerate() {
        let sends: Vec<Option<usize>> = trace
            .events()
            .iter()
            .map(|ev| ev.trigger.map(|mi| trace.messages()[mi].send_event))
            .collect();
        let mut oldest = vec![usize::MAX; sends.len() + 1];
        for (i, send) in sends.iter().enumerate().rev() {
            oldest[i] = send.unwrap_or(usize::MAX).min(oldest[i + 1]);
        }
        mon.reset(trace.num_processes(), &xi).unwrap();
        for (i, ev) in trace.events().iter().enumerate() {
            match sends[i] {
                None => {
                    mon.append_init(ev.process);
                }
                Some(send) => {
                    mon.append_send(EventId(send), ev.process);
                }
            }
            // The session's rule: prune once more than two horizons are
            // live, and only a cut that frees a quarter of them.
            let live = mon.live_events();
            let watermark = (i + 1).saturating_sub(HORIZON).min(oldest[i + 1]);
            let frees = watermark.saturating_sub(i + 1 - live);
            if live <= 2 * HORIZON || frees < live / 4 {
                continue;
            }
            let before = allocations();
            assert!(mon.prune_settled(Some(EventId(watermark))) > 0);
            let made = allocations() - before;
            if doc > 0 {
                // The first document grew the monitor's columns.
                worst = worst.max(made);
                prunes += 1;
            }
        }
    }
    assert!(prunes >= 7, "{prunes} prunes after the first document");
    assert!(
        worst <= MAX_PER_PRUNE,
        "a prune made {worst} allocations (at most {MAX_PER_PRUNE})"
    );
}

/// Re-arms `mon` for a document of `rounds` relays `p0 → p1 → p2 → p0`,
/// closed by a fast chain `p0 → p2 → p1` that a slow direct message
/// `p0 → p1` spans (ratio 2, at Ξ = 2), and returns the bytes allocated by
/// the whole document, the reset included, and by the append that latches
/// it, the document's last.
fn document_bytes(mon: &mut IncrementalChecker, xi: &Xi, rounds: usize) -> (u64, u64) {
    let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
    let start = bytes();
    mon.reset(3, xi).unwrap();
    let mut q = mon.append_init(p0);
    mon.append_init(p1);
    mon.append_init(p2);
    for _ in 0..rounds {
        let (_, a) = mon.append_send(q, p1);
        let (_, b) = mon.append_send(a, p2);
        (_, q) = mon.append_send(b, p0);
    }
    let (_, relay) = mon.append_send(q, p2);
    mon.append_send(relay, p1);
    assert!(mon.is_admissible(), "{rounds} rounds latched early");
    let before = bytes();
    mon.append_send(q, p1);
    let made = bytes() - before;
    assert!(!mon.is_admissible(), "{rounds} rounds did not latch");
    (bytes() - start, made)
}

#[test]
fn a_latch_allocates_nothing_per_event_of_its_window() {
    let xi = Xi::from_integer(2);
    // Mirror-less, as a bounded session's monitor is.
    let mut mon = IncrementalChecker::new(3, &xi).unwrap();
    mon.enable_pruning();
    let mut made = Vec::new();
    for rounds in [40, 320] {
        // The first latch on a document grows the monitor's columns; the
        // second finds them grown.
        document_bytes(&mut mon, &xi, rounds);
        made.push(document_bytes(&mut mon, &xi, rounds).1);
    }
    let (small, large) = (made[0], made[1]);
    // The two latches close the same cycle through windows of ≈120 and
    // ≈960 events: what they allocate is the witness, not the window.
    assert!(
        large <= small,
        "a latch allocated {small} B after 40 rounds and {large} B after 320"
    );
}

/// What a mirror may add to a second equal document: the witness checks
/// a debug build runs against it at the latch, and nothing per event.
const MIRROR_SLACK: u64 = 4096;

#[test]
fn a_reset_mirror_keeps_its_columns() {
    let xi = Xi::from_integer(2);
    let mut bare = IncrementalChecker::new(3, &xi).unwrap();
    bare.enable_pruning();
    let mut mirrored = IncrementalChecker::new(3, &xi).unwrap();
    let mut second = [0; 2];
    for (mon, made) in [&mut bare, &mut mirrored].into_iter().zip(&mut second) {
        // The first document grows the columns, the mirror's among them.
        document_bytes(mon, &xi, 320);
        *made = document_bytes(mon, &xi, 320).0;
    }
    let [bare, mirrored] = second;
    // A mirror emptied at the reset finds its ≈960 events' room again; one
    // rebuilt from nothing allocated ≈205 000 B here.
    assert!(
        mirrored <= bare + MIRROR_SLACK,
        "a second document allocated {mirrored} B with a mirror and {bare} B without"
    );
}
