//! Set-up and one repetition of each workload.
//!
//! Load is closed-loop from this one process, with two connections, two
//! sweep threads, two checker threads and two server shards as fixed
//! constants: never derived from the host, whose width is recorded beside
//! the numbers instead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::api::{self, LoadgenDoc, ServerHandle, SweepRun, SweepSpec, Trace, Verdict};
use crate::inputs::{self, Sizes};

pub const CONNECTIONS: usize = 2;
pub const SWEEP_THREADS: usize = 2;
/// Threads that share the files of an `offline_check` repetition. One
/// thread stays on one hardware thread, and on a shared host that one is
/// at times 1.6 times slower than its neighbour for a whole run; two
/// threads that pull files from one list use both, as the sweep does.
pub const CHECK_THREADS: usize = 2;
pub const SERVER_SHARDS: usize = 2;

/// What one repetition did.
pub struct Repetition {
    pub wall: Duration,
    pub events: u64,
    /// Operations tried: documents, files, sweep runs or simulations.
    pub attempted: u64,
    /// Operations that hit an error or differ from their reference.
    pub failed: u64,
    /// Submit-to-result time of each operation that has one.
    pub latencies: Vec<Duration>,
}

/// A serve workload after set-up: a running server, the encoded
/// documents with their reference verdicts, and (for the traced run
/// only) the traces behind them.
pub struct Serve {
    pub server: ServerHandle,
    pub docs: Vec<LoadgenDoc>,
    pub traces: Vec<Trace>,
    pub binary: bool,
    pub bounded: bool,
    pub passes: usize,
}

pub struct Sweep {
    pub spec: SweepSpec,
    pub reference: Vec<SweepRun>,
}

/// One file of `offline_check`: canonical text, its family, and whether
/// the monitor says it violates.
pub struct File {
    pub family: &'static str,
    pub text: String,
    pub events: usize,
    pub violates: bool,
}

pub struct Offline {
    canon: Vec<File>,
    canon_passes: usize,
    wide: Vec<File>,
    pub traces: Vec<Trace>,
}

pub struct Ring {
    pub seed: u64,
    pub events: usize,
    pub digest: u64,
}

/// A workload after set-up.
pub enum Prepared {
    Serve(Box<Serve>),
    Sweep(Box<Sweep>),
    Offline(Offline),
    Ring(Ring),
}

fn prepare_serve(
    name: &str,
    seed: u64,
    sizes: Sizes,
    corrupt_reference: bool,
    keep_traces: bool,
) -> Result<Serve, String> {
    let binary = name != "serve_v1";
    let bounded = name == "serve_v2_bounded";
    let traces = match name {
        "serve_v2_wide" => inputs::wide(seed, sizes),
        "serve_v2_bounded" => inputs::canon(seed, inputs::BOUNDED_DOCS, sizes.bounded_doc_events()),
        _ => inputs::canon(seed, inputs::CANON_DOCS, sizes.doc_events()),
    };
    let mut docs = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let expect = if corrupt_reference && i == 0 {
            api::impossible_verdict()
        } else {
            api::offline_verdict(trace, &inputs::xi())?
        };
        docs.push(LoadgenDoc {
            label: format!("{name}-{i}"),
            text: if binary {
                String::new()
            } else {
                api::encode_stream_text(trace)
            },
            binary: binary.then(|| api::encode_stream_binary(trace)),
            events: trace.events().len(),
            expect: Some(expect),
        });
    }
    if name == "serve_v2_wide" && sizes.divisor == 1 {
        let violating = docs.iter().filter(|d| is_violation(d)).count();
        if violating == 0 || violating == docs.len() {
            return Err(format!(
                "the wide family must hold both verdict kinds, got {violating} violating of {}",
                docs.len()
            ));
        }
    }
    let horizon = bounded.then_some(api::PRUNE_HORIZON);
    Ok(Serve {
        server: api::start_server(SERVER_SHARDS, horizon)?,
        docs,
        traces: if keep_traces { traces } else { Vec::new() },
        binary,
        bounded,
        passes: sizes.serve_passes(name),
    })
}

fn is_violation(doc: &LoadgenDoc) -> bool {
    doc.expect.as_ref().is_some_and(Verdict::is_violation)
}

fn prepare_offline(
    seed: u64,
    sizes: Sizes,
    corrupt_reference: bool,
    keep_traces: bool,
) -> Result<Offline, String> {
    let canon = inputs::canon(seed, inputs::CANON_DOCS, sizes.doc_events());
    let mut wide = inputs::wide_pinned(inputs::OFFLINE_WIDE_FILES, sizes.doc_events());
    for (i, trace) in wide.iter_mut().enumerate() {
        if let Some(latch) = api::replay_until_violation(trace, &inputs::xi())?.1 {
            *trace = inputs::wide_structure(i, latch + sizes.offline_past_latch());
        }
    }
    let files = |family, traces: &[Trace]| {
        let file = |trace| {
            Ok(File {
                family,
                text: api::encode_file_text(trace),
                events: trace.events().len(),
                violates: api::offline_verdict(trace, &inputs::xi())?.is_violation(),
            })
        };
        traces
            .iter()
            .map(file)
            .collect::<Result<Vec<File>, String>>()
    };
    let mut offline = Offline {
        canon: files("canon", &canon)?,
        canon_passes: sizes.offline_canon_passes(),
        wide: files("wide", &wide)?,
        traces: Vec::new(),
    };
    if corrupt_reference {
        offline.canon[0].violates ^= true;
    }
    if keep_traces {
        offline.traces = canon;
        offline.traces.extend(wide);
    }
    Ok(offline)
}

impl Prepared {
    /// Generates and encodes the inputs from `seed`, computes the
    /// reference results, and starts the server if the workload has one.
    /// The traces behind encoded documents are kept only for the traced
    /// run, so they do not count towards an untraced run's memory.
    pub fn new(
        name: &str,
        seed: u64,
        sizes: Sizes,
        corrupt_reference: bool,
        keep_traces: bool,
    ) -> Result<Prepared, String> {
        Ok(match name {
            "sweep_band" => {
                let spec = api::band_sweep_spec(
                    inputs::stream(seed, 0),
                    sizes.sweep_max_events(),
                    inputs::SWEEP_RUNS_PER_POINT,
                );
                let mut reference = api::run_sweep(&spec, 1)?.runs;
                if corrupt_reference {
                    reference[0].final_margin = Some(api::Ratio::new(-1, 1));
                }
                Prepared::Sweep(Box::new(Sweep { spec, reference }))
            }
            "offline_check" => Prepared::Offline(prepare_offline(
                seed,
                sizes,
                corrupt_reference,
                keep_traces,
            )?),
            "sim_wide_ring" => {
                let events = sizes.ring_events();
                let digest = inputs::trace_digest(&inputs::ring_trace(seed, events));
                Prepared::Ring(Ring {
                    seed,
                    events,
                    digest: digest ^ u64::from(corrupt_reference),
                })
            }
            _ => Prepared::Serve(Box::new(prepare_serve(
                name,
                seed,
                sizes,
                corrupt_reference,
                keep_traces,
            )?)),
        })
    }

    /// Runs the workload's fixed amount of work once and checks every
    /// result against its reference.
    pub fn repetition(&self) -> Repetition {
        match self {
            Prepared::Serve(s) => s.repetition_with(CONNECTIONS, s.passes, |_| ()),
            Prepared::Sweep(s) => s.repetition(SWEEP_THREADS),
            Prepared::Offline(o) => o.repetition(CHECK_THREADS),
            Prepared::Ring(r) => r.repetition(),
        }
    }

    /// Stops what set-up started and waits for it to end.
    pub fn finish(self) {
        if let Prepared::Serve(s) = self {
            s.server.join();
        }
    }
}

impl Repetition {
    fn empty() -> Repetition {
        Repetition {
            wall: Duration::ZERO,
            events: 0,
            attempted: 0,
            failed: 0,
            latencies: Vec::new(),
        }
    }

    fn absorb(&mut self, part: Repetition) {
        self.events += part.events;
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.latencies.extend(part.latencies);
    }

    pub fn events_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let events = self.events as f64;
        events / self.wall.as_secs_f64().max(1e-9)
    }
}

impl Serve {
    /// Feeds the document set once over `connections`; each caller waits
    /// for a verdict before it submits the next document.
    pub fn feed_once(&self, connections: usize) -> Result<api::LoadgenReport, String> {
        api::loadgen(
            &self.server,
            &inputs::xi(),
            &self.docs,
            connections,
            self.binary,
        )
    }

    /// `passes` feeds of the set; `each` sees every report.
    pub fn repetition_with(
        &self,
        connections: usize,
        passes: usize,
        mut each: impl FnMut(&api::LoadgenReport),
    ) -> Repetition {
        let mut rep = Repetition::empty();
        let started = Instant::now();
        for _ in 0..passes {
            rep.attempted += self.docs.len() as u64;
            match self.feed_once(connections) {
                Ok(report) => {
                    let missing = self.docs.len().saturating_sub(report.outcomes.len());
                    rep.failed += (report.mismatches + missing) as u64;
                    rep.events += report.total_events as u64;
                    rep.latencies
                        .extend(report.outcomes.iter().map(|o| o.latency));
                    each(&report);
                }
                Err(_) => rep.failed += self.docs.len() as u64,
            }
        }
        rep.wall = started.elapsed();
        rep
    }
}

impl Sweep {
    pub fn repetition(&self, threads: usize) -> Repetition {
        let attempted = api::sweep_runs(&self.spec) as u64;
        let started = Instant::now();
        let result = api::run_sweep(&self.spec, threads);
        let wall = started.elapsed();
        let (events, failed) = match result {
            Ok(result) => {
                let wrong = result
                    .runs
                    .iter()
                    .zip(&self.reference)
                    .filter(|(got, want)| got != want)
                    .count();
                let missing = self.reference.len().abs_diff(result.runs.len());
                (result.events, (wrong + missing) as u64)
            }
            Err(_) => (0, attempted),
        };
        Repetition {
            wall,
            events,
            attempted,
            failed,
            latencies: vec![wall],
        }
    }
}

/// What the `abc check` pipeline does to one file. Every stage is
/// reported to `on_stage` with its start and duration, so the traced run
/// can record it as a span.
pub fn check_file(
    file: &File,
    on_stage: &mut dyn FnMut(&'static str, Instant, Duration),
) -> Result<bool, String> {
    let mut done = |name, t0: Instant| on_stage(name, t0, t0.elapsed());
    let t0 = Instant::now();
    let trace = api::parse_text(&file.text)?;
    done("sim.textio.parse", t0);
    let t0 = Instant::now();
    let graph = api::to_graph(&trace);
    done("sim.trace.to_graph", t0);
    let t0 = Instant::now();
    let violates = api::batch_violates(&graph, &inputs::xi())?;
    done("core.check.find_violation", t0);
    Ok(violates)
}

impl Offline {
    /// The files of one repetition: the `wide` files, then every `canon`
    /// file `canon_passes` times. The longest come first, so that threads
    /// sharing the list finish together.
    pub fn files(&self) -> impl Iterator<Item = &File> {
        let canon = (0..self.canon_passes).flat_map(|_| &self.canon);
        self.wide.iter().chain(canon)
    }

    /// Checks every file once; `threads` threads each take the next
    /// unchecked file until none is left.
    pub fn repetition(&self, threads: usize) -> Repetition {
        let files: Vec<&File> = self.files().collect();
        let next = AtomicUsize::new(0);
        let check_files = || {
            let mut part = Repetition::empty();
            while let Some(file) = files.get(next.fetch_add(1, Ordering::Relaxed)) {
                part.attempted += 1;
                let t0 = Instant::now();
                let verdict = check_file(file, &mut |_, _, _| ());
                part.latencies.push(t0.elapsed());
                part.events += file.events as u64;
                part.failed += u64::from(verdict != Ok(file.violates));
            }
            part
        };
        let mut rep = Repetition::empty();
        let started = Instant::now();
        std::thread::scope(|scope| {
            let checkers: Vec<_> = (0..threads).map(|_| scope.spawn(check_files)).collect();
            for checker in checkers {
                rep.absorb(checker.join().expect("a checker thread panicked"));
            }
        });
        rep.wall = started.elapsed();
        rep
    }
}

impl Ring {
    pub fn repetition(&self) -> Repetition {
        let started = Instant::now();
        let trace = inputs::ring_trace(self.seed, self.events);
        let wall = started.elapsed();
        Repetition {
            wall,
            events: trace.events().len() as u64,
            attempted: 1,
            failed: u64::from(inputs::trace_digest(&trace) != self.digest),
            latencies: vec![wall],
        }
    }
}
