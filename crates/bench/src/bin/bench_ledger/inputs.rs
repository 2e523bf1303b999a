//! Seeded input generators and the frozen sizes of every workload.
//!
//! The generators are the benchmark's own copies of `clocksync_trace`
//! and `RingPulse` (not imports from `abc_bench::workloads`), so an edit
//! there cannot change what the benchmark measures.

use crate::api::{self, Context, Process, ProcessId, Trace, Xi};

/// The synchrony parameter every workload monitors against.
pub fn xi() -> Xi {
    Xi::from_integer(5)
}

/// splitmix64's finalizer: the seed splitter, the shuffle's generator and
/// the compute kernel of [`RingPulse`].
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Member `i` of the seed stream of `seed`. Streams of neighbouring seeds
/// share no member, so runs on seeds 1, 2, 3… draw unrelated inputs.
pub fn stream(seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(i))
}

/// FNV-1a over `bytes`, folded into `hash`: a digest that is the same in
/// every build, for comparing a trace against its reference run.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The fixed counts of every workload, and a divisor that shrinks them
/// for the smoke test. Counts were chosen so one repetition lasts 0.1 to
/// 0.6 s on two hardware threads: a thirty-second run then has 45 to 300
/// of them for the fast end to pick from.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// 1 for a real run; the smoke test uses 50.
    pub divisor: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes { divisor: 1 };

    fn cut(self, count: usize) -> usize {
        (count / self.divisor).max(1)
    }

    /// Events per `canon` and `wide` document.
    pub fn doc_events(self) -> usize {
        self.cut(10_000)
    }

    /// Events per document of `serve_v2_bounded`. A pruned, tracked
    /// monitor costs 30 to 120 us per event depending on the document, so
    /// the set is many short documents, not a few long ones.
    pub fn bounded_doc_events(self) -> usize {
        self.cut(625)
    }

    /// Passes over the document set in one repetition of a serve
    /// workload.
    pub fn serve_passes(self, workload: &str) -> usize {
        self.cut(match workload {
            "serve_v2" => 2,
            "serve_v1" => 1,
            "serve_v2_wide" => 1,
            _ => 1,
        })
    }

    /// Passes over the `canon` files in one repetition of
    /// `offline_check`.
    pub fn offline_canon_passes(self) -> usize {
        self.cut(2)
    }

    /// Events an `offline_check` file keeps after the step at which it
    /// violates. What the batch checker spends on a violating file grows
    /// with all that follows the latch (0.1 s at 2 500 events, 0.23 s at
    /// 4 000, 1.35 s at all 10 000), and one file must not be half of a
    /// repetition.
    pub fn offline_past_latch(self) -> usize {
        self.cut(300)
    }

    pub fn sweep_max_events(self) -> usize {
        self.cut(500)
    }

    pub fn ring_events(self) -> usize {
        self.cut(10_000)
    }

    /// Events of the `TickGen` generation rows of the traced
    /// `sim_wide_ring`.
    pub fn engine_clocksync_events(self) -> usize {
        self.cut(100_000)
    }
}

pub const CANON_DOCS: usize = 16;
/// `canon` documents one repetition of `serve_v2_bounded` feeds.
pub const BOUNDED_DOCS: usize = 16;
/// `wide` files one repetition of `offline_check` checks.
pub const OFFLINE_WIDE_FILES: usize = 3;
pub const SWEEP_RUNS_PER_POINT: usize = 4;
pub const RING_PROCESSES: usize = 64;
pub const RING_SPINS: u32 = 2_000;

/// The `canon` family: `TickGen` n=4 f=1 under band `[1, 4]`, admissible at
/// `Ξ` = 5 with no repair work. Every document is drawn from the seed's
/// stream; a drawn document that is not quiet is skipped for the next
/// member.
///
/// Quiet means the monitor's margin bound stays below `Ξ` to the end. In
/// one of 64 documents of 10 000 events it reaches `Ξ`; the monitor then
/// relaxes 1 000 to 35 000 arcs and the batch checker takes 10 to 110 ms
/// in place of 1, so a seed that drew one (every fifth) had half as much
/// work again as a seed that drew none, and ten runs on ten seeds spread
/// by that and not by the host.
pub fn canon(seed: u64, docs: usize, events: usize) -> Vec<Trace> {
    (0..)
        .map(|i| api::clocksync_trace(4, 1, (1, 4), stream(seed, i), events, None))
        .filter(is_quiet)
        .take(docs)
        .collect()
}

fn is_quiet(trace: &Trace) -> bool {
    let (monitor, latch) =
        api::replay_until_violation(trace, &xi()).expect("the benchmark's Xi is a small integer");
    latch.is_none() && monitor.bound_below(&xi())
}

/// Delay seeds of the eight `wide` structures, band `[1, 12]`: five
/// admissible documents with light to heavy frontier repair (5, 11, 8,
/// 13, 19) and three that violate `Ξ` = 5 between events 2 100 and 3 800
/// (18, 6, 16). The first [`OFFLINE_WIDE_FILES`] (two admissible, one
/// violating) are the files `offline_check` reads.
///
/// They are pinned because the cost of a near-threshold document is
/// heavy-tailed (3 ms to 1.7 s for 10 000 events, quadratic in the latch
/// position), so sets drawn freely from the seed differ several-fold in
/// work and no run-to-run bound could hold. The seed orders the set.
const WIDE_STRUCTURES: [u64; 8] = [5, 18, 11, 8, 13, 19, 6, 16];

/// Structure `i` of the `wide` family, cut at `events`.
pub fn wide_structure(i: usize, events: usize) -> Trace {
    api::clocksync_trace(4, 1, (1, 12), WIDE_STRUCTURES[i], events, None)
}

/// The first `docs` of the `wide` family in pinned order, cut at `events`.
pub fn wide_pinned(docs: usize, events: usize) -> Vec<Trace> {
    (0..docs).map(|i| wide_structure(i, events)).collect()
}

/// The `wide` family in the order `seed` submits it.
pub fn wide(seed: u64, sizes: Sizes) -> Vec<Trace> {
    let mut docs = wide_pinned(WIDE_STRUCTURES.len(), sizes.doc_events());
    // Fisher–Yates over the seed's stream.
    for i in (1..docs.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (stream(seed, i as u64) % (i as u64 + 1)) as usize;
        docs.swap(i, j);
    }
    docs
}

/// One process of the wide ring: every step folds the incoming value
/// through `spins` splitmix64 rounds, records the digest as the event
/// label, and forwards it one hop. The pulses start from `seed`.
pub struct RingPulse {
    spins: u32,
    seed: u64,
}

/// The compute kernel of one [`RingPulse`] step.
pub fn ring_kernel(mut digest: u64, spins: u32) -> u64 {
    for _ in 0..spins {
        digest = splitmix64(digest);
    }
    digest
}

impl Process<u64> for RingPulse {
    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        // Two pulses per process, so every later discrete time delivers
        // two messages to each process.
        let me = ctx.me().0;
        let n = ctx.num_processes();
        let pulse = stream(self.seed, me as u64);
        ctx.send(ProcessId((me + 1) % n), pulse);
        ctx.send(ProcessId((me + 2) % n), !pulse);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: &u64) {
        let me = ctx.me().0;
        let digest = ring_kernel(msg ^ ((from.0 as u64) << 32) ^ me as u64, self.spins);
        ctx.set_label(digest);
        ctx.send(ProcessId((me + 1) % ctx.num_processes()), digest);
    }
}

/// Runs the 64-process ring for `events` steps on the engine's default
/// configuration.
pub fn ring_trace(seed: u64, events: usize) -> Trace {
    let ring = (0..RING_PROCESSES)
        .map(|_| RingPulse {
            spins: RING_SPINS,
            seed,
        })
        .collect();
    api::unit_delay_trace(ring, events)
}

/// A digest of `trace`'s canonical text.
pub fn trace_digest(trace: &Trace) -> u64 {
    fnv1a(FNV_OFFSET, api::encode_file_text(trace).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes { divisor: 50 };

    fn digest(traces: &[Trace]) -> u64 {
        traces
            .iter()
            .fold(FNV_OFFSET, |h, t| fnv1a(h, &api::encode_stream_binary(t)))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(digest(&canon(7, 4, 200)), digest(&canon(7, 4, 200)));
        assert_ne!(digest(&canon(7, 4, 200)), digest(&canon(8, 4, 200)));
        assert_eq!(digest(&wide(7, SMALL)), digest(&wide(7, SMALL)));
        assert_ne!(digest(&wide(7, SMALL)), digest(&wide(8, SMALL)));
        let ring = |seed| trace_digest(&ring_trace(seed, 500));
        assert_eq!(ring(7), ring(7));
        assert_ne!(ring(7), ring(8));
        let sweep = |seed| {
            let spec = api::band_sweep_spec(stream(seed, 0), 20, 1);
            trace_digest(&api::sweep_trace(&spec, 3))
        };
        assert_eq!(sweep(7), sweep(7));
        assert_ne!(sweep(7), sweep(8));
    }

    #[test]
    fn the_seed_only_orders_the_wide_family() {
        let mut a: Vec<u64> = wide(1, SMALL).iter().map(trace_digest).collect();
        let mut b: Vec<u64> = wide_pinned(8, SMALL.doc_events())
            .iter()
            .map(trace_digest)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn sizes_shrink_but_never_to_zero() {
        assert_eq!(Sizes::FULL.doc_events(), 10_000);
        assert_eq!(SMALL.doc_events(), 200);
        assert_eq!(SMALL.serve_passes("serve_v1"), 1);
        assert_eq!(SMALL.offline_canon_passes(), 1);
        assert_eq!(SMALL.offline_past_latch(), 6);
    }
}
