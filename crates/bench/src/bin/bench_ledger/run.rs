//! One run of one workload: set-up, warm-up, timed repetitions, and the
//! two result lines.
//!
//! The run shape is the same for every workload. Set-up (generate and
//! encode the inputs, compute the references, start the server) is timed
//! as `setup_s` and nothing else includes it. Then one warm-up
//! repetition, then timed repetitions of fixed work, a few tenths of a
//! second each, for all of `seconds` but [`SETUP_SHARE`]. Then set-up is
//! done again, at least [`SETUP_ROUNDS`] times in all and for that share
//! of `seconds`. Every time is measured once per repetition (or round) and
//! reported as [`stats::fast_end`] of those: what the repetitions cost
//! that the host's other tenants left alone.

use std::time::Instant;

use crate::inputs::Sizes;
use crate::json;
use crate::layers;
use crate::metrics::{Metrics, Workload, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{Prepared, Repetition};

/// Set-up is done at least this often.
pub const SETUP_ROUNDS: usize = 3;
/// The share of `seconds` that goes to repeating set-up; the timed
/// repetitions get the rest, so a run lasts `seconds` and a little.
pub const SETUP_SHARE: f64 = 0.15;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long the timed repetitions and the repeated set-ups go on.
    pub seconds: f64,
    pub sizes: Sizes,
    /// The traced run: per-layer metrics in place of end-to-end ones.
    pub trace: bool,
    /// Spoil the first reference result, for the test that a wrong
    /// output fails the run.
    pub corrupt_reference: bool,
}

/// Operations tried and failed over every repetition of a run, the
/// warm-up too, and how many repetitions that was.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub repetitions: usize,
}

impl Tally {
    pub fn absorb(&mut self, rep: &Repetition) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.repetitions += 1;
    }

    /// Counts one check that is not part of a repetition.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub struct RunResult {
    workload: &'static str,
    trace: bool,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    pub tally: Tally,
    pub metrics: Metrics,
    /// The traced run's spans as Chrome trace-event JSON.
    pub spans_json: Option<String>,
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl RunResult {
    /// No operation failed and every metric is a finite number, and not
    /// negative unless it is a difference.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self
                .metrics
                .rows()
                .all(|(def, value, _)| value.is_finite() && (def.signed || value >= 0.0))
    }

    pub fn failed_share(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let (failed, attempted) = (self.tally.failed as f64, self.tally.attempted as f64);
        failed / attempted.max(1.0)
    }

    /// Every declared metric by name with its unit and, for the ledger's
    /// record, its sample count.
    fn metrics_json(&self, with_samples: bool) -> String {
        let rows = self.metrics.rows();
        rows.fold(json::Object::new(), |obj, (def, value, samples)| {
            let mut row = json::Object::new()
                .number("value", value)
                .string("unit", def.unit);
            if with_samples {
                row = row.integer("samples", samples as u64);
            }
            obj.raw(def.name, &row.finish())
        })
        .finish()
    }

    /// The ledger's own record of the run: every metric by name with its
    /// unit and sample count, beside the seed, the sizes and the host's
    /// width. `agree` compares two files of these.
    pub fn ledger_line(&self) -> String {
        let sizes = json::Object::new()
            .integer("divisor", self.sizes.divisor as u64)
            .integer("doc_events", self.sizes.doc_events() as u64)
            .integer("bounded_doc_events", self.sizes.bounded_doc_events() as u64)
            .integer(
                "serve_passes",
                self.sizes.serve_passes(self.workload) as u64,
            )
            .integer("sweep_max_events", self.sizes.sweep_max_events() as u64)
            .integer("ring_events", self.sizes.ring_events() as u64);
        json::Object::new()
            .string("bench", "bench_ledger")
            .string("workload", self.workload)
            .string("mode", if self.trace { "trace" } else { "run" })
            .integer("seed", self.seed)
            .number("seconds", self.seconds)
            .integer("hardware_threads", hardware_threads() as u64)
            .raw("sizes", &sizes.finish())
            .integer("repetitions", self.tally.repetitions as u64)
            .integer("attempted", self.tally.attempted)
            .integer("failed", self.tally.failed)
            .number("failed_share", self.failed_share())
            .raw("metrics", &self.metrics_json(true))
            .finish()
    }

    /// The last line of a run, in the shape the benchmark contract fixes.
    pub fn contract_line(&self) -> String {
        json::Object::new()
            .boolean("correct", self.correct())
            .integer("attempted", self.tally.attempted)
            .integer("failed", self.tally.failed)
            .raw("metrics", &self.metrics_json(false))
            .finish()
    }
}

/// One set-up; its duration goes to `times`.
fn set_up(cfg: &RunConfig, times: &mut Vec<f64>) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let prepared = Prepared::new(
        cfg.workload.name,
        cfg.seed,
        cfg.sizes,
        cfg.corrupt_reference,
        cfg.trace,
    )?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(prepared)
}

/// The untraced run: every end-to-end metric.
fn measure(
    prepared: &Prepared,
    cfg: &RunConfig,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (mut rates, mut p50s) = (Vec::new(), Vec::new());
    let cpu_before = stats::process_cpu_seconds()?;
    let clock = Instant::now();
    let wall = loop {
        let rep = prepared.repetition();
        tally.absorb(&rep);
        rates.push(rep.events_per_s());
        p50s.push(stats::percentile(
            &stats::sorted_millis(&rep.latencies),
            500,
        ));
        let wall = clock.elapsed().as_secs_f64();
        if wall >= cfg.seconds * (1.0 - SETUP_SHARE) {
            break wall;
        }
    };
    // The kernel's CPU clock ticks in 10 ms steps, too coarse for one
    // repetition. Over all of them it gives the cores the process kept
    // busy, which a disturbed host leaves alone (a stalled core counts as
    // busy and as wall time alike); times the undisturbed wall time per
    // event that is the undisturbed CPU time per event.
    let busy_cores = (stats::process_cpu_seconds()? - cpu_before) / wall.max(1e-9);
    let events_per_s = stats::fast_end(&rates, true);
    metrics.set("events_per_s", events_per_s, rates.len());
    metrics.set(
        "doc_latency_p50_ms",
        stats::fast_end(&p50s, false),
        p50s.len(),
    );
    metrics.set(
        "cpu_us_per_event",
        busy_cores * 1e6 / events_per_s.max(1e-9),
        rates.len(),
    );
    metrics.set("peak_rss_mb", stats::peak_rss_mb()?, 1);
    Ok(())
}

/// Runs `cfg.workload` once.
///
/// # Errors
///
/// Set-up failed, or the kernel's accounting files could not be read. A
/// wrong result is not an error: it is counted in the tally.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let prepared = set_up(cfg, &mut setups)?;
    let mut tally = Tally::default();
    tally.absorb(&prepared.repetition());

    let mut spans_json = None;
    let metrics = if cfg.trace {
        let mut metrics = Metrics::new(&PER_LAYER);
        let mut spans = Spans::new(cfg.workload.name);
        layers::traced_run(&prepared, cfg, &mut spans, &mut tally, &mut metrics)?;
        spans_json = Some(spans.chrome_trace_json());
        prepared.finish();
        metrics
    } else {
        let mut metrics = Metrics::new(&END_TO_END);
        measure(&prepared, cfg, &mut tally, &mut metrics)?;
        prepared.finish();
        // Set-up is repeated only now, after `peak_rss_mb` has been read:
        // what the repetitions find in memory must not depend on how often
        // set-up ran before them (done first, three set-ups added 10 MiB
        // to `serve_v2` and a timing-dependent count made that 10 or 20).
        let clock = Instant::now();
        while setups.len() < SETUP_ROUNDS
            || clock.elapsed().as_secs_f64() < cfg.seconds * SETUP_SHARE
        {
            set_up(cfg, &mut setups)?.finish();
        }
        metrics.set("setup_s", stats::fast_end(&setups, false), setups.len());
        metrics
    };

    Ok(RunResult {
        workload: cfg.workload.name,
        trace: cfg.trace,
        seed: cfg.seed,
        seconds: cfg.seconds,
        sizes: cfg.sizes,
        tally,
        metrics,
        spans_json,
    })
}
