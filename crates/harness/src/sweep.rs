//! The deterministic multi-threaded sweep runner and its aggregate report.
//!
//! A sweep fans `spec.total_runs()` independent simulations out over a
//! `std::thread` work queue. Determinism is by construction:
//!
//! * run `i` draws all randomness from splitmix64 stream `i` of the spec's
//!   base seed (`SmallRng::seed_stream`) — workers never share generator
//!   state;
//! * workers only *claim* run indices from an atomic counter; results are
//!   stored by index and aggregated in index order afterwards;
//! * what a worker keeps between its runs is capacity, never state. Each
//!   worker owns one [`Simulation`] and one [`IncrementalChecker`] for the
//!   length of one [`run_sweep`] and re-arms both per run
//!   ([`Simulation::reset`], [`Trace::replay_until_violation_into`]): a
//!   sweep is thousands of short runs, and building, growing and freeing
//!   an engine, a trace and a monitor for each cost more than replaying
//!   the trace did. The monitor runs without its execution-graph mirror
//!   ([`IncrementalChecker::enable_pruning`], and nothing is ever pruned):
//!   a run is reduced to a latch point, a witness summary and a margin,
//!   none of which reads the mirror. A re-armed engine or monitor equals a
//!   new one, so which worker ran which runs before run `i` cannot show in
//!   run `i`'s outcome (`tests/determinism.rs` holds every outcome against
//!   one computed on fresh state).
//!
//! Hence the [`SweepReport`]'s aggregate text is byte-identical at any
//! worker-thread count (asserted by `tests/determinism.rs` at 1, 2, and 8
//! workers over 512 runs).
//!
//! A run's final margin is **read, not searched for**: the monitor keeps
//! it ([`IncrementalChecker::enable_margin_tracking`]) — a second potential
//! column, feasible at the margin so far, is raised as the replay's appends
//! close cycles above it. Searching afterwards, a few runs of the
//! negative-cycle kernel over the whole trace, was half of a swept event.
//! Both are exact, so no outcome depends on which one ran:
//! `tests/determinism.rs` computes its outcomes with searching monitors, and
//! CI diffs the `quartet` preset's aggregate text against a committed golden.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use abc_clocksync::byzantine::TickRusher;
use abc_clocksync::TickGen;
use abc_core::cycle::WitnessSummary;
use abc_core::monitor::{IncrementalChecker, MonitorStats};
use abc_core::{ProcessId, Xi};
use abc_rational::Ratio;
use abc_sim::delay::Lossy;
use abc_sim::{Context, CrashAt, Mute, Process, RunStats, Simulation, Trace};
use rand::rngs::SmallRng;
use rand::RngCore;

use crate::spec::{BuiltDelay, DelayPoint, Protocol, ScenarioSpec};

/// The engine every swept run executes on.
type SweepSim = Simulation<u64, Lossy<BuiltDelay>>;

/// The first ABC violation of one run, as latched by the online monitor.
#[derive(Clone, Debug)]
pub struct ViolationInfo {
    /// Index of the trace event whose append closed the violating cycle.
    pub at_event: usize,
    /// The witness summary (process path + ratio).
    pub witness: WitnessSummary,
}

impl ViolationInfo {
    /// The witness's `|Z−|/|Z+|` ratio.
    ///
    /// # Panics
    ///
    /// Never: violation witnesses are relevant cycles, which always have
    /// forward messages.
    #[must_use]
    pub fn ratio(&self) -> Ratio {
        self.witness
            .classification
            .ratio()
            .expect("violation witnesses are relevant")
    }
}

/// The result of one swept run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Global run index (also the randomness stream index).
    pub run_index: usize,
    /// Index into the delay grid.
    pub point_index: usize,
    /// The seed handed to the delay model.
    pub seed: u64,
    /// Engine statistics.
    pub stats: RunStats,
    /// First violation, if the monitored `Ξ` was breached.
    pub violation: Option<ViolationInfo>,
    /// The run's final margin: the maximum relevant-cycle ratio when
    /// monitoring stopped (at the latch for violating runs, at the end of
    /// the trace otherwise). `None` when no relevant cycle ever formed.
    pub final_margin: Option<Ratio>,
    /// The full trace — kept only when the sweep was asked to retain
    /// violating traces (for offline replay / persistence).
    pub trace: Option<Trace>,
}

/// Sweep execution options.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Retain the trace of every violating run in its [`RunOutcome`].
    pub keep_violating_traces: bool,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            threads: 1,
            keep_violating_traces: false,
        }
    }
}

/// Per-grid-point aggregates.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// The grid point's display label.
    pub label: String,
    /// Runs executed at this point.
    pub runs: usize,
    /// Runs that violated the monitored `Ξ`.
    pub violations: usize,
    /// Largest first-violation ratio observed at this point.
    pub max_ratio: Option<Ratio>,
    /// Smallest final margin over the point's runs (among runs where a
    /// relevant cycle formed at all).
    pub margin_min: Option<Ratio>,
    /// Largest final margin over the point's runs — the heatmap cell
    /// value (`None` when no run formed a relevant cycle).
    pub margin_max: Option<Ratio>,
}

/// Aggregates of a whole sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Spec name.
    pub name: String,
    /// Rendered protocol.
    pub protocol: String,
    /// The monitored `Ξ`.
    pub xi: Xi,
    /// Total runs executed.
    pub total_runs: usize,
    /// Runs with a violation (the violation census headline).
    pub violations: usize,
    /// Per-grid-point census.
    pub points: Vec<PointSummary>,
    /// Distribution of first-violation cycle ratios over all runs.
    pub ratio_histogram: Vec<(Ratio, usize)>,
    /// The earliest violating run (by run index) and its violation.
    pub first_violation: Option<(usize, ViolationInfo)>,
    /// Sum of executed events over all runs.
    pub events_total: u64,
    /// Smallest per-run event count.
    pub events_min: u64,
    /// Largest per-run event count.
    pub events_max: u64,
    /// Messages handed to the delay models, summed.
    pub messages_sent: u64,
    /// Messages delivered, summed.
    pub messages_delivered: u64,
    /// Messages dropped, summed.
    pub messages_dropped: u64,
    /// Largest payload-slab high-water mark over all runs.
    pub slab_peak_max: usize,
    /// Runs that reached quiescence within their budgets.
    pub quiescent_runs: usize,
    /// Largest final event time over all runs.
    pub final_time_max: u64,
    /// Wall-clock time of the whole sweep (excluded from the deterministic
    /// aggregate text).
    pub wall_clock: Duration,
    /// All per-run outcomes, in run order.
    pub outcomes: Vec<RunOutcome>,
}

impl SweepReport {
    /// The deterministic aggregate rendering: everything except wall-clock
    /// time. Byte-identical across worker-thread counts for a fixed spec.
    #[must_use]
    pub fn aggregate_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep {}: protocol={} xi={} runs={} points={}",
            self.name,
            self.protocol,
            self.xi,
            self.total_runs,
            self.points.len()
        );
        for p in &self.points {
            let _ = write!(
                out,
                "  point {}: runs={} violations={}",
                p.label, p.runs, p.violations
            );
            if let Some(r) = &p.max_ratio {
                let _ = write!(out, " max_ratio={r}");
            }
            match (&p.margin_min, &p.margin_max) {
                (Some(lo), Some(hi)) => {
                    let _ = writeln!(out, " margin={lo}..{hi}");
                }
                _ => {
                    let _ = writeln!(out, " margin=none");
                }
            }
        }
        let _ = writeln!(out, "margin heatmap: [{}]", self.margin_heatmap());
        let _ = writeln!(out, "violations: {}/{}", self.violations, self.total_runs);
        match &self.first_violation {
            Some((run, v)) => {
                let _ = writeln!(
                    out,
                    "first violation: run {} at event {} — {}",
                    run, v.at_event, v.witness
                );
            }
            None => {
                let _ = writeln!(out, "first violation: none");
            }
        }
        if self.ratio_histogram.is_empty() {
            let _ = writeln!(out, "ratio histogram: empty");
        } else {
            let _ = write!(out, "ratio histogram:");
            for (r, count) in &self.ratio_histogram {
                let _ = write!(out, " {r}x{count}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "events: total={} min={} max={}",
            self.events_total, self.events_min, self.events_max
        );
        let _ = writeln!(
            out,
            "messages: sent={} delivered={} dropped={}",
            self.messages_sent, self.messages_delivered, self.messages_dropped
        );
        let _ = writeln!(
            out,
            "slab_peak_max={} quiescent={}/{} final_time_max={}",
            self.slab_peak_max, self.quiescent_runs, self.total_runs, self.final_time_max
        );
        out
    }

    /// One heatmap cell per delay-grid point, keyed by the point's
    /// largest final margin relative to the monitored `Ξ`:
    ///
    /// * `-` — no run formed a relevant cycle;
    /// * `.` — max margin below `Ξ/2`;
    /// * `:` — below `3Ξ/4`;
    /// * `=` — below `9Ξ/10`;
    /// * `+` — below `Ξ` (inside the early-warning band);
    /// * `#` — at or above `Ξ` (some run violated).
    ///
    /// Comparisons are exact rational arithmetic (`2r < Ξ` etc.), so the
    /// heatmap is as deterministic as the rest of the aggregate text.
    #[must_use]
    pub fn margin_heatmap(&self) -> String {
        let xi = self.xi.as_ratio();
        self.points
            .iter()
            .map(|p| match &p.margin_max {
                None => '-',
                Some(r) => {
                    // `r < (n/d)·Ξ` as the integer comparison `d·r < n·Ξ`.
                    let below = |n: i64, d: i64| {
                        (r * &Ratio::from_integer(d)) < (xi * &Ratio::from_integer(n))
                    };
                    if below(1, 2) {
                        '.'
                    } else if below(3, 4) {
                        ':'
                    } else if below(9, 10) {
                        '='
                    } else if r < xi {
                        '+'
                    } else {
                        '#'
                    }
                }
            })
            .collect()
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.aggregate_text())?;
        write!(f, "wall clock: {:?}", self.wall_clock)
    }
}

/// The harness's gossip protocol: broadcast at wake-up, echo `m + 1` to
/// each sender until the reply budget is spent.
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
            ctx.set_label(*msg);
        }
    }
}

/// The monitor a swept run is checked on: no execution-graph mirror (no
/// consumer of a sweep reads it), nothing is ever pruned from it, and it
/// keeps its margin as the replay appends, so the final margin is read,
/// not searched for.
fn sweep_monitor(num_processes: usize, xi: &Xi) -> Result<IncrementalChecker, String> {
    let mut mon = IncrementalChecker::new(num_processes, xi).map_err(|e| e.to_string())?;
    mon.enable_pruning();
    mon.enable_margin_tracking();
    Ok(mon)
}

/// Re-arms the lent monitor and streams `trace` into it, stopping at the
/// first violation ([`Trace::replay_until_violation_into`]); returns the
/// violation (if any) with the index of the closing event, and the final
/// margin — the maximum relevant-cycle ratio when monitoring stopped
/// (`None` when no relevant cycle formed). The one function that turns a
/// finished run into its verdict, for the sweep's workers and for
/// [`monitor_trace`].
fn monitor_into(
    mon: &mut IncrementalChecker,
    trace: &Trace,
    xi: &Xi,
) -> Result<(Option<ViolationInfo>, Option<Ratio>), String> {
    let violation_at = {
        let _span = abc_obs::span("sweep.monitor");
        trace
            .replay_until_violation_into(mon, xi)
            .map_err(|e| e.to_string())?
    };
    let violation = violation_at
        .zip(mon.violation_summary())
        .map(|(at_event, witness)| ViolationInfo {
            at_event,
            witness: witness.clone(),
        });
    let margin = mon.margin_ratio().map_err(|e| e.to_string())?;
    Ok((violation, margin))
}

/// Streams `trace` into a new online monitor, stopping at the first
/// violation; returns the monitor stats at stop time, the violation (if
/// any) with the index of the closing event, and the final margin — the
/// maximum relevant-cycle ratio when monitoring stopped (`None` when no
/// relevant cycle formed). What a swept run is reduced to, for one trace.
///
/// # Errors
///
/// The rendered [`abc_core::check::CheckError`] if `Ξ` exceeds the
/// monitor's integer range.
pub fn monitor_trace(
    trace: &Trace,
    xi: &Xi,
) -> Result<(MonitorStats, Option<ViolationInfo>, Option<Ratio>), String> {
    let mut mon = sweep_monitor(trace.num_processes(), xi)?;
    let (violation, margin) = monitor_into(&mut mon, trace, xi)?;
    Ok((mon.stats(), violation, margin))
}

fn spawn_clocksync(sim: &mut SweepSim, n: usize, f: usize, spec: &ScenarioSpec) {
    for slot in 0..n {
        if spec.faults.byzantine.contains(&slot) {
            sim.add_faulty_process(TickRusher::new(3));
        } else if let Some((_, steps)) = spec.faults.crash.iter().find(|(s, _)| *s == slot) {
            sim.add_faulty_process(CrashAt::new(TickGen::new(n, f), *steps));
        } else {
            sim.add_process(TickGen::new(n, f));
        }
    }
}

fn spawn_gossip(sim: &mut SweepSim, n: usize, budget: u32, spec: &ScenarioSpec) {
    for slot in 0..n {
        if spec.faults.byzantine.contains(&slot) {
            sim.add_faulty_process(Mute);
        } else if let Some((_, steps)) = spec.faults.crash.iter().find(|(s, _)| *s == slot) {
            sim.add_faulty_process(CrashAt::new(Gossip { budget }, *steps));
        } else {
            sim.add_process(Gossip { budget });
        }
    }
}

/// The seeded delay model of run `run_index`, and the seed it was built
/// from. Stream-split: run i's randomness is independent of every other
/// run's at any thread count.
fn run_delay(
    spec: &ScenarioSpec,
    points: &[DelayPoint],
    run_index: usize,
) -> (Lossy<BuiltDelay>, u64) {
    let point = &points[run_index / spec.runs_per_point];
    let seed = SmallRng::seed_stream(spec.base_seed, run_index as u64).next_u64();
    (point.build(seed, &spec.faults.dropped_links), seed)
}

/// Populates an engine armed with a run's delay model (new, or
/// [`Simulation::reset`]) with the spec's process set and simulates it.
/// The deterministic substrate shared by the sweep's workers and
/// [`generate_trace`].
fn simulate_run(sim: &mut SweepSim, spec: &ScenarioSpec) -> RunStats {
    let _span = abc_obs::span("sweep.simulate");
    match spec.protocol {
        Protocol::ClockSync { n, f } => spawn_clocksync(sim, n, f, spec),
        Protocol::Gossip { n, budget } => spawn_gossip(sim, n, budget, spec),
    }
    sim.run(spec.limits)
}

/// Simulates run `run_index` of the sweep and returns its full trace plus
/// engine stats — the workload generator behind `abc loadgen`, which
/// replays sweep-generated traces against a running `abc-service` instead
/// of monitoring them in-process.
#[must_use]
pub fn generate_trace(
    spec: &ScenarioSpec,
    points: &[DelayPoint],
    run_index: usize,
) -> (Trace, RunStats) {
    let mut sim = Simulation::new(run_delay(spec, points, run_index).0);
    let stats = simulate_run(&mut sim, spec);
    (sim.into_trace(), stats)
}

/// What one sweep worker owns for the length of a [`run_sweep`]: an engine
/// and a monitor, re-armed for every run it claims.
struct Worker {
    /// Built on the worker's own thread (process behaviours are not
    /// `Send`), over the delay model of the first run it claims.
    sim: Option<SweepSim>,
    mon: IncrementalChecker,
}

impl Worker {
    /// Executes run `run_index` of the sweep: re-arms the engine with the
    /// run's seeded delay model and process set, simulates, and monitors
    /// the trace against the spec's `Ξ`.
    fn run_one(
        &mut self,
        spec: &ScenarioSpec,
        points: &[DelayPoint],
        run_index: usize,
        keep_violating_trace: bool,
    ) -> RunOutcome {
        let (delay, seed) = run_delay(spec, points, run_index);
        let sim = match &mut self.sim {
            Some(sim) => {
                sim.reset(delay);
                sim
            }
            empty => empty.insert(Simulation::new(delay)),
        };
        let stats = simulate_run(sim, spec);
        let trace = sim.trace();
        let (violation, final_margin) = monitor_into(&mut self.mon, trace, &spec.xi)
            .expect("Xi monitorability is validated before the sweep starts");
        let trace = (keep_violating_trace && violation.is_some()).then(|| trace.clone());
        RunOutcome {
            run_index,
            point_index: run_index / spec.runs_per_point,
            seed,
            stats,
            violation,
            final_margin,
            trace,
        }
    }
}

/// Runs the whole sweep over a work queue of `options.threads` workers and
/// aggregates the [`SweepReport`] in run order.
///
/// # Errors
///
/// A human-readable message if the spec is invalid or `Ξ` is not
/// monitorable.
pub fn run_sweep(spec: &ScenarioSpec, options: SweepOptions) -> Result<SweepReport, String> {
    spec.validate()?;
    let points = spec.delay.points();
    let total = spec.total_runs();
    let threads = options.threads.max(1).min(total.max(1));
    let started = Instant::now();
    // The workers' monitors are built here, not in the threads: a Xi that
    // overflows the monitor fails fast (instead of inside a worker) on the
    // first of them.
    let monitors = (0..threads)
        .map(|_| sweep_monitor(spec.protocol.num_processes(), &spec.xi))
        .collect::<Result<Vec<IncrementalChecker>, String>>()
        .map_err(|e| format!("Xi not monitorable: {e}"))?;

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<RunOutcome>> = Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|scope| {
        let (next, collected, points) = (&next, &collected, &points);
        let workers: Vec<_> = monitors
            .into_iter()
            .map(|mon| {
                scope.spawn(move || {
                    let mut worker = Worker { sim: None, mon };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let _span = abc_obs::span("sweep.run");
                        let outcome =
                            worker.run_one(spec, points, i, options.keep_violating_traces);
                        collected.lock().expect("collector poisoned").push(outcome);
                    }
                })
            })
            .collect();
        // Join the OS threads themselves: the scope only waits for the
        // closures to return, and a worker still tearing down keeps its
        // allocator arena, so back-to-back sweeps would open a fresh arena
        // each time one raced (+0.6 MiB peak RSS over 3 000 sweeps).
        for worker in workers {
            worker.join().expect("sweep worker panicked");
        }
    });
    let mut outcomes = collected.into_inner().expect("collector poisoned");
    outcomes.sort_by_key(|o| o.run_index);
    let wall_clock = started.elapsed();

    // Aggregate strictly in run order: the report is a pure function of
    // (spec, outcomes), independent of scheduling.
    let mut points_summary: Vec<PointSummary> = points
        .iter()
        .map(|p| PointSummary {
            label: p.to_string(),
            runs: 0,
            violations: 0,
            max_ratio: None,
            margin_min: None,
            margin_max: None,
        })
        .collect();
    let mut histogram: BTreeMap<Ratio, usize> = BTreeMap::new();
    let mut report = SweepReport {
        name: spec.name.clone(),
        protocol: spec.protocol.to_string(),
        xi: spec.xi.clone(),
        total_runs: total,
        violations: 0,
        points: Vec::new(),
        ratio_histogram: Vec::new(),
        first_violation: None,
        events_total: 0,
        events_min: u64::MAX,
        events_max: 0,
        messages_sent: 0,
        messages_delivered: 0,
        messages_dropped: 0,
        slab_peak_max: 0,
        quiescent_runs: 0,
        final_time_max: 0,
        wall_clock,
        outcomes: Vec::new(),
    };
    for o in &outcomes {
        let ps = &mut points_summary[o.point_index];
        ps.runs += 1;
        if let Some(m) = &o.final_margin {
            if ps.margin_min.as_ref().is_none_or(|lo| *m < *lo) {
                ps.margin_min = Some(m.clone());
            }
            if ps.margin_max.as_ref().is_none_or(|hi| *hi < *m) {
                ps.margin_max = Some(m.clone());
            }
        }
        if let Some(v) = &o.violation {
            let ratio = v.ratio();
            ps.violations += 1;
            if ps.max_ratio.as_ref().is_none_or(|m| *m < ratio) {
                ps.max_ratio = Some(ratio.clone());
            }
            report.violations += 1;
            *histogram.entry(ratio).or_insert(0) += 1;
            if report.first_violation.is_none() {
                report.first_violation = Some((o.run_index, v.clone()));
            }
        }
        let events = o.stats.events_executed as u64;
        report.events_total += events;
        report.events_min = report.events_min.min(events);
        report.events_max = report.events_max.max(events);
        report.messages_sent += o.stats.messages_sent as u64;
        report.messages_delivered += o.stats.messages_delivered as u64;
        report.messages_dropped += o.stats.messages_dropped as u64;
        report.slab_peak_max = report.slab_peak_max.max(o.stats.payload_slab_peak);
        report.quiescent_runs += usize::from(o.stats.quiescent);
        report.final_time_max = report.final_time_max.max(o.stats.final_time);
    }
    if report.events_min == u64::MAX {
        report.events_min = 0;
    }
    report.points = points_summary;
    report.ratio_histogram = histogram.into_iter().collect();
    report.outcomes = outcomes;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DelaySweep, FaultPlan, Grid};
    use abc_sim::RunLimits;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".into(),
            protocol: Protocol::ClockSync { n: 4, f: 1 },
            delay: DelaySweep::Band {
                lo: Grid::fixed(10),
                hi: Grid::fixed(19),
            },
            faults: FaultPlan::none(),
            limits: RunLimits {
                max_events: 150,
                max_time: u64::MAX,
            },
            xi: Xi::from_integer(2),
            runs_per_point: 6,
            base_seed: 11,
        }
    }

    #[test]
    fn comfortable_band_has_no_violations() {
        let report = run_sweep(&small_spec(), SweepOptions::default()).unwrap();
        assert_eq!(report.total_runs, 6);
        assert_eq!(report.violations, 0);
        assert!(report.first_violation.is_none());
        assert_eq!(report.events_min, 150);
        assert!(report.messages_delivered > 0);
        let text = report.aggregate_text();
        assert!(text.contains("violations: 0/6"), "{text}");
        // No violation ⇒ every formed margin stays below Ξ and no heatmap
        // cell saturates.
        let xi = report.xi.as_ratio().clone();
        for m in report
            .outcomes
            .iter()
            .filter_map(|o| o.final_margin.as_ref())
        {
            assert!(*m < xi, "admissible run with margin {m} >= {xi}");
        }
        assert!(
            !report.margin_heatmap().contains('#'),
            "{}",
            report.margin_heatmap()
        );
    }

    #[test]
    fn tight_xi_produces_violations_with_witnesses() {
        let mut spec = small_spec();
        // A wide band [1, 6] reorders enough for relevant cycles of ratio
        // 2–3; Xi = 3/2 puts those over the line.
        spec.delay = DelaySweep::Band {
            lo: Grid::fixed(1),
            hi: Grid::fixed(6),
        };
        spec.xi = Xi::from_fraction(3, 2);
        spec.runs_per_point = 8;
        let report = run_sweep(
            &spec,
            SweepOptions {
                threads: 2,
                keep_violating_traces: true,
            },
        )
        .unwrap();
        assert!(report.violations > 0, "{}", report.aggregate_text());
        let (_, v) = report.first_violation.as_ref().unwrap();
        assert!(v.ratio() >= *spec.xi.as_ratio());
        assert!(!report.ratio_histogram.is_empty());
        // A violating run's final margin is the latched witness ratio, so
        // its point's heatmap cell saturates and the margin reaches Ξ.
        assert!(report.margin_heatmap().contains('#'));
        let violating_run = report
            .outcomes
            .iter()
            .find(|o| o.violation.is_some())
            .unwrap();
        assert_eq!(
            violating_run.final_margin.as_ref().unwrap(),
            &violating_run.violation.as_ref().unwrap().ratio()
        );
        assert!(violating_run.final_margin.as_ref().unwrap() >= spec.xi.as_ratio());
        // Violating traces were retained and re-check offline to the same
        // verdict.
        let violating = report
            .outcomes
            .iter()
            .find(|o| o.violation.is_some())
            .unwrap();
        let trace = violating.trace.as_ref().expect("trace kept");
        let reparsed = Trace::from_text(&trace.to_text()).unwrap();
        let (_, v2, _) = monitor_trace(&reparsed, &spec.xi).unwrap();
        assert_eq!(
            v2.unwrap().at_event,
            violating.violation.as_ref().unwrap().at_event
        );
    }

    #[test]
    fn byzantine_and_crash_slots_are_exempt_and_marked() {
        let mut spec = small_spec();
        spec.faults.byzantine = vec![3];
        spec.faults.crash = vec![(2, 5)];
        spec.runs_per_point = 2;
        let report = run_sweep(
            &spec,
            SweepOptions {
                threads: 1,
                keep_violating_traces: false,
            },
        )
        .unwrap();
        assert_eq!(report.violations, 0, "faulty senders are exempt");
    }

    #[test]
    fn gossip_protocol_and_dropped_links_run() {
        let mut spec = small_spec();
        spec.protocol = Protocol::Gossip { n: 3, budget: 10 };
        spec.faults.dropped_links = vec![(0, 2)];
        spec.runs_per_point = 3;
        let report = run_sweep(&spec, SweepOptions::default()).unwrap();
        assert!(report.messages_dropped > 0, "dropped link saw traffic");
        assert!(report.quiescent_runs > 0, "gossip budgets drain");
    }

    #[test]
    fn thread_count_does_not_change_aggregates() {
        let mut spec = small_spec();
        spec.runs_per_point = 16;
        let a = run_sweep(
            &spec,
            SweepOptions {
                threads: 1,
                keep_violating_traces: false,
            },
        )
        .unwrap();
        let b = run_sweep(
            &spec,
            SweepOptions {
                threads: 5,
                keep_violating_traces: false,
            },
        )
        .unwrap();
        assert_eq!(a.aggregate_text(), b.aggregate_text());
        // Per-run seeds agree too (stream splitting is index-based).
        let seeds = |r: &SweepReport| r.outcomes.iter().map(|o| o.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
    }
}
