//! The declared workloads and metrics: names, units, direction, bounds.
//! `BENCHMARK.json` lists the same; a unit test keeps the two equal.

/// One workload: its name (final; later issues cite it), why it exists,
/// and whether `BENCHMARK.json` lists it.
///
/// The benchmark's driver makes 22 runs of every listed workload inside a
/// fixed hour, so the length of a run is bought with the number of
/// workloads, and on a shared two-thread host a run shorter than half a
/// minute does not repeat (README, "Measured spread"). Four are listed,
/// at 30 s a run. The other three are run by hand (`run --workload W`)
/// and by `run` without `--workload`; nothing gates them.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub listed: bool,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "serve_v2",
        why: "headline ingest: binio decode, session and monitor append share the work; pruning and margin do nothing",
        listed: true,
    },
    Workload {
        name: "serve_v1",
        why: "same documents as text: textio validation and one reply per line dominate, the monitor is a small share",
        listed: false,
    },
    Workload {
        name: "serve_v2_bounded",
        why: "prune horizon 256 with margin tracking: prune, condensation and margin signatures do nearly all the work",
        listed: true,
    },
    Workload {
        name: "serve_v2_wide",
        why: "near-threshold band [1,12]: frontier repair, confirm-SSSP and witness summaries dominate; both verdict kinds",
        listed: false,
    },
    Workload {
        name: "sweep_band",
        why: "the abc sweep path with no wire: the margin probe is most of the wall, the simulator a few percent",
        listed: true,
    },
    Workload {
        name: "offline_check",
        why: "the abc check pipeline: text parsing and the batch CSR checker; the only workload on core.check end to end",
        listed: true,
    },
    Workload {
        name: "sim_wide_ring",
        why: "64-process ring on the default engine configuration: the simulator does all the work, no monitor or codec",
        listed: false,
    },
];

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen; per-layer metrics have none. A `signed`
/// metric is the difference of two measurements and may read below 0
/// (the parts were measured apart and add up to more than the whole).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
    pub signed: bool,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        signed: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        signed: false,
    }
}

/// A per-layer metric that is a difference: lower is better.
const fn difference(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        signed: true,
        ..layer(name, unit, false)
    }
}

/// What a user of the system sees. `failed_share` is reported beside
/// these (it must be 0, and a gated metric may never be 0).
pub const END_TO_END: [MetricDef; 5] = [
    gated("events_per_s", "1/s", true, 0.25),
    gated("doc_latency_p50_ms", "ms", false, 0.25),
    gated("cpu_us_per_event", "us/event", false, 0.25),
    gated("peak_rss_mb", "MiB", false, 0.20),
    gated("setup_s", "s", false, 0.25),
];

/// Single layers, from the traced run. A layer the workload does not
/// pass through reads 0.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("sim.binio.decode_ns_per_event", "ns/event", false),
    difference("sim.binio.validate_ns_per_event", "ns/event"),
    layer("sim.binio.bytes_per_event", "B/event", false),
    layer("sim.binio.encode_ns_per_event", "ns/event", false),
    layer("sim.textio.parse_ns_per_event", "ns/event", false),
    layer("sim.textio.bytes_per_event", "B/event", false),
    layer("sim.textio.encode_ns_per_event", "ns/event", false),
    layer("sim.trace.to_graph_ns_per_event", "ns/event", false),
    layer("core.monitor.append_ns_per_event", "ns/event", false),
    layer("core.monitor.prune_ns_per_event", "ns/event", false),
    layer(
        "core.monitor.prune_untracked_ns_per_event",
        "ns/event",
        false,
    ),
    layer("core.monitor.live_events_peak", "count", false),
    layer("core.monitor.margin_ms_per_run", "ms/run", false),
    layer("core.monitor.margin_bound_us", "us/run", false),
    layer("core.check.max_ratio_ms_per_run", "ms/run", false),
    layer("core.check.find_violation_ns_per_event", "ns/event", false),
    layer("rational.ratio.ops_per_s", "1/s", true),
    layer("harness.sweep.simulate_ns_per_event", "ns/event", false),
    layer("harness.sweep.monitor_ns_per_event", "ns/event", false),
    layer("harness.sweep.thread_scaling", "ratio", true),
    difference("harness.sweep.unattributed_share", "share"),
    layer("service.server.conn1_ns_per_event", "ns/event", false),
    difference("service.transport_ns_per_event", "ns/event"),
    layer("service.server.conn_scaling", "ratio", true),
    layer("service.server.bytes_in_per_event", "B/event", false),
    layer("service.server.frames_per_doc", "count", false),
    layer("service.client.events_per_ack", "count", true),
    layer("service.client.ack_latency_p50_us", "us/ack", false),
    layer("service.client.doc_latency_p90_ms", "ms/doc", false),
    layer("service.client.doc_latency_p99_ms", "ms/doc", false),
    layer("sim.engine.ns_per_event", "ns/event", false),
    layer("sim.engine.kernel_floor_ns_per_event", "ns/event", false),
    difference("sim.engine.overhead_ns_per_event", "ns/event"),
    layer("sim.engine.clocksync_ns_per_event", "ns/event", false),
    layer("sim.engine.monitored_ns_per_event", "ns/event", false),
    layer("obs.counter.monitor.relaxations", "count", false),
    layer("obs.counter.monitor.frontier_repairs", "count", false),
    layer("obs.counter.monitor.confirm_sssp", "count", false),
    layer("obs.counter.monitor.pruned_events", "count", false),
    layer("obs.counter.monitor.margin_probes", "count", false),
    layer("obs.counter.service.frame_decodes", "count", false),
    layer("obs.counter.service.records", "count", false),
    layer("obs.counter.sim.steps", "count", false),
    layer("obs.counter.sim.dispatches", "count", false),
    layer("obs.counter.sim.parallel_steps", "count", false),
    difference("obs.tracing_overhead", "share"),
    difference("ledger.unattributed_share", "share"),
];

/// The recorder counters a traced run reports as `obs.counter.<name>`.
pub const OBS_COUNTER_PREFIX: &str = "obs.counter.";

/// The values of one run, by declared name.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<(f64, usize)>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `value`, taken from `samples` measurements.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not declared: a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[slot] = Some((value, samples));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let slot = self.defs.iter().position(|d| d.name == name)?;
        self.values[slot].map(|(v, _)| v)
    }

    /// Every declared metric in declared order; one that was never set
    /// reads 0 from 0 samples.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64, usize)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.map_or(0.0, |v| v.0), v.map_or(0, |v| v.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{parse_json, JsonValue};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let text = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_str).map(String::from);
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("a list")
            .iter()
            .map(|e| {
                (
                    text(e, "name").expect("a name"),
                    text(e, "unit").unwrap_or_default(),
                    text(e, "better").unwrap_or_default(),
                    e.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_equal_benchmark_json() {
        let doc = parse_json(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let listed: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.listed)
            .map(|w| w.name)
            .collect();
        assert_eq!(workloads, listed);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let theirs = declared(&doc, key);
            assert_eq!(theirs.len(), defs.len(), "{key}");
            for (t, d) in theirs.iter().zip(defs) {
                assert!(well_formed(d.name), "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    (t.0.as_str(), t.1.as_str(), t.2.as_str(), t.3),
                    (d.name, d.unit, better, d.bound)
                );
            }
        }
        assert!(ours.iter().all(|w| well_formed(w)));
        let seconds = doc.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(seconds, Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 1.5, 3);
        assert_eq!(m.get("setup_s"), Some(1.5));
        assert_eq!(m.get("nope"), None);
        let rows: Vec<(&str, f64, usize)> = m.rows().map(|(d, v, n)| (d.name, v, n)).collect();
        assert_eq!(rows[4], ("setup_s", 1.5, 3));
        assert_eq!(rows[0], ("events_per_s", 0.0, 0));
    }
}
