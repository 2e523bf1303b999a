//! The service metrics registry: named counters, gauges, and histograms
//! with stable `abc_service_*` identifiers, exported on the status port
//! both in the original human `key value` format ([`Metrics::render`])
//! and in the Prometheus text exposition format
//! ([`Metrics::render_prometheus`], served for `GET /metrics`).
//!
//! All hot-path updates are relaxed atomics — the status page is a
//! snapshot, not a transaction. Exact margin values travel through the
//! wire protocol as `P/Q` rationals; the gauges and the workspace margin
//! histogram carry fixed-point approximations in **basis points**
//! (`ratio × 10⁴`, see [`ratio_to_basis_points`]) so no float ever
//! enters a committed number — [`format_scaled`] renders the same
//! fixed-point integers everywhere a decimal is shown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use abc_rational::Ratio;

/// Sentinel gauge value meaning "no sample yet / no relevant cycle".
pub const MARGIN_NONE: u64 = u64::MAX;

/// Fixed-point scale of margin gauges: 1.0 of ratio = 10⁴ basis points.
pub const MARGIN_SCALE_POW10: u32 = 4;

/// Margin histogram bucket upper bounds, in basis points (ratio × 10⁴):
/// 1, 1.1, 1.25, 1.5, 2, 3, 5 (+Inf is implicit).
const MARGIN_BUCKETS_BP: &[u64] = &[10_000, 11_000, 12_500, 15_000, 20_000, 30_000, 50_000];

/// Latency histogram bucket upper bounds, in microseconds:
/// 100µs … 2.5s (+Inf is implicit).
const LATENCY_BUCKETS_US: &[u64] = &[100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000];

/// Renders a fixed-point integer (`value / 10^pow10`) as a plain decimal
/// with trailing zeros trimmed — the one formatter shared by margin
/// ratios (basis points), latencies (µs → ms or s), and histogram
/// bounds, so committed bench JSON and scraped metrics never go through
/// a float.
///
/// ```
/// use abc_service::metrics::format_scaled;
/// assert_eq!(format_scaled(12_500, 4), "1.25"); // 12500 bp = ratio 1.25
/// assert_eq!(format_scaled(2_500_000, 6), "2.5"); // 2.5e6 µs = 2.5 s
/// assert_eq!(format_scaled(30_000, 4), "3");
/// assert_eq!(format_scaled(7, 3), "0.007");
/// ```
#[must_use]
pub fn format_scaled(value: u64, pow10: u32) -> String {
    let scale = 10u64.saturating_pow(pow10);
    let whole = value / scale;
    let frac = value % scale;
    if frac == 0 {
        return whole.to_string();
    }
    let digits = usize::try_from(pow10).unwrap_or(0);
    let mut s = format!("{whole}.{frac:0>digits$}");
    while s.ends_with('0') {
        s.pop();
    }
    s
}

/// The fixed-point gauge form of an exact margin ratio: `⌊ratio × 10⁴⌋`
/// basis points, clamped to `u64` (the sentinel [`MARGIN_NONE`] is
/// reserved for "no sample").
#[must_use]
pub fn ratio_to_basis_points(r: &Ratio) -> u64 {
    let scaled = r * &Ratio::from_integer(10_000);
    let bp = scaled.floor().to_i128().unwrap_or(i128::MAX);
    u64::try_from(bp.max(0))
        .unwrap_or(MARGIN_NONE - 1)
        .min(MARGIN_NONE - 1)
}

/// What a metric family is, for the `# TYPE` exposition line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing.
    Counter,
    /// Goes up and down.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Writes the `# HELP` / `# TYPE` header of one exposition family.
/// Public so the status port can emit per-session families (labelled
/// gauges live in the session table, not in this registry).
pub fn prom_header(out: &mut String, name: &str, kind: Kind, help: &str) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
}

/// A fixed-bucket histogram of relaxed atomics. Bounds are integers in a
/// fixed-point unit (`10^-scale_pow10` of the exposition unit) so
/// observation and rendering stay float-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    scale_pow10: u32,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64], scale_pow10: u32) -> Histogram {
        Histogram {
            bounds,
            scale_pow10,
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation (in the histogram's fixed-point unit).
    pub fn observe(&self, value: u64) {
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            if value <= *bound {
                bucket.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exposition body: cumulative `_bucket{le=…}` lines (buckets store
    /// cumulative counts directly), `_sum`, `_count`.
    fn render_prometheus(&self, out: &mut String, name: &str) {
        use std::fmt::Write;
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            let le = format_scaled(*bound, self.scale_pow10);
            let v = bucket.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {v}");
        }
        let n = self.count();
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {n}");
        let sum = format_scaled(self.sum.load(Ordering::Relaxed), self.scale_pow10);
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {n}");
    }
}

/// Monotonic counters, gauges, and histograms shared by every thread of
/// the service.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Connections accepted over the server's lifetime.
    pub sessions_opened: AtomicU64,
    /// Connections fully closed.
    pub sessions_closed: AtomicU64,
    /// Trace documents ingested to their `end` line.
    pub documents: AtomicU64,
    /// Events ingested (across all sessions and documents).
    pub events: AtomicU64,
    /// Documents whose monitor latched a violation.
    pub violations: AtomicU64,
    /// Connections terminated by a protocol/parse error.
    pub parse_errors: AtomicU64,
    /// Raw bytes read from data sockets.
    pub bytes_in: AtomicU64,
    /// Raw reply bytes written to data sockets.
    pub bytes_out: AtomicU64,
    /// Binary (v2) frames ingested.
    pub frames: AtomicU64,
    /// Coalesced `ack` replies sent (v2 sessions).
    pub acks: AtomicU64,
    /// Documents whose exact margin crossed the `--warn-margin` threshold
    /// (once per document, at the crossing event, before any latch).
    pub margin_warnings: AtomicU64,
    /// Forensics bundles written (latch-triggered or `dump`-requested).
    pub forensics_dumps: AtomicU64,
    /// Workspace-wide distribution of exactly computed margins, in basis
    /// points (ratio × 10⁴).
    pub margin_hist: Histogram,
    /// Time spent parsing + checking one ingested batch (a v2 frame or
    /// one drained v1 read), in microseconds.
    pub ingest_hist: Histogram,
    /// Time from a v2 frame's arrival to its coalesced ack being queued,
    /// in microseconds.
    pub ack_hist: Histogram,
}

impl Metrics {
    /// Fresh registry; `started` is now.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            documents: AtomicU64::new(0),
            events: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            margin_warnings: AtomicU64::new(0),
            forensics_dumps: AtomicU64::new(0),
            margin_hist: Histogram::new(MARGIN_BUCKETS_BP, MARGIN_SCALE_POW10),
            ingest_hist: Histogram::new(LATENCY_BUCKETS_US, 6),
            ack_hist: Histogram::new(LATENCY_BUCKETS_US, 6),
        }
    }

    /// Currently open sessions.
    #[must_use]
    pub fn sessions_active(&self) -> u64 {
        self.sessions_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.sessions_closed.load(Ordering::Relaxed))
    }

    /// The registry's counter families, in rendering order: stable
    /// exposition name (without the `abc_service_` prefix), help text,
    /// current value.
    fn counters(&self) -> [(&'static str, &'static str, u64); 11] {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            (
                "sessions_total",
                "Connections accepted over the server's lifetime.",
                c(&self.sessions_opened),
            ),
            (
                "documents_total",
                "Trace documents ingested to their end record.",
                c(&self.documents),
            ),
            ("events_total", "Events ingested.", c(&self.events)),
            (
                "violations_total",
                "Documents whose monitor latched a violation.",
                c(&self.violations),
            ),
            (
                "parse_errors_total",
                "Connections terminated by a protocol or parse error.",
                c(&self.parse_errors),
            ),
            (
                "bytes_in_total",
                "Raw bytes read from data sockets.",
                c(&self.bytes_in),
            ),
            (
                "bytes_out_total",
                "Raw reply bytes written to data sockets.",
                c(&self.bytes_out),
            ),
            (
                "frames_total",
                "Binary (v2) frames ingested.",
                c(&self.frames),
            ),
            (
                "acks_total",
                "Coalesced ack replies sent (v2 sessions).",
                c(&self.acks),
            ),
            (
                "margin_warnings_total",
                "Documents whose exact margin crossed the warn-margin threshold.",
                c(&self.margin_warnings),
            ),
            (
                "forensics_dumps_total",
                "Forensics bundles written (latch-triggered or dump-requested).",
                c(&self.forensics_dumps),
            ),
        ]
    }

    /// Renders the plaintext status-page body: one `key value` pair per
    /// line, Prometheus-style names (the original human format).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let uptime = self.started.elapsed();
        let secs = uptime.as_secs_f64().max(1e-9);
        let mut out = String::new();
        let mut kv = |k: &str, v: u64| {
            let _ = writeln!(out, "abc_service_{k} {v}");
        };
        kv("uptime_seconds", uptime.as_secs());
        kv("sessions_active", self.sessions_active());
        for (name, _, value) in self.counters() {
            kv(name, value);
            if name == "events_total" {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                kv("events_per_second_avg", (value as f64 / secs) as u64);
            }
        }
        kv("margin_samples_total", self.margin_hist.count());
        out
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// every family gets `# HELP` / `# TYPE` headers, counters keep
    /// their `_total` suffix, histograms expose cumulative
    /// `_bucket{le=…}` / `_sum` / `_count` series. Per-session families
    /// (labelled margin/warning gauges, monitor-memory aggregates) are
    /// appended by the status port from the session table.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        prom_header(
            &mut out,
            "abc_service_uptime_seconds",
            Kind::Gauge,
            "Seconds since the server started.",
        );
        let _ = writeln!(
            out,
            "abc_service_uptime_seconds {}",
            self.started.elapsed().as_secs()
        );
        prom_header(
            &mut out,
            "abc_service_sessions_active",
            Kind::Gauge,
            "Currently open sessions.",
        );
        let _ = writeln!(
            out,
            "abc_service_sessions_active {}",
            self.sessions_active()
        );
        for (name, help, value) in self.counters() {
            let full = format!("abc_service_{name}");
            prom_header(&mut out, &full, Kind::Counter, help);
            let _ = writeln!(out, "{full} {value}");
        }
        prom_header(
            &mut out,
            "abc_service_margin",
            Kind::Histogram,
            "Exactly computed synchrony margins (max relevant-cycle ratio).",
        );
        self.margin_hist
            .render_prometheus(&mut out, "abc_service_margin");
        prom_header(
            &mut out,
            "abc_service_ingest_seconds",
            Kind::Histogram,
            "Time parsing and checking one ingested batch.",
        );
        self.ingest_hist
            .render_prometheus(&mut out, "abc_service_ingest_seconds");
        prom_header(
            &mut out,
            "abc_service_ack_seconds",
            Kind::Histogram,
            "Time from a v2 frame's arrival to its ack being queued.",
        );
        self.ack_hist
            .render_prometheus(&mut out, "abc_service_ack_seconds");
        out
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_all_counters() {
        let m = Metrics::new();
        m.sessions_opened.store(3, Ordering::Relaxed);
        m.sessions_closed.store(1, Ordering::Relaxed);
        m.events.store(42, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("abc_service_sessions_active 2"), "{text}");
        assert!(text.contains("abc_service_events_total 42"), "{text}");
        assert!(text.contains("abc_service_parse_errors_total 0"), "{text}");
        assert!(
            text.contains("abc_service_margin_warnings_total 0"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_exposition_has_headers_and_histograms() {
        let m = Metrics::new();
        m.events.store(7, Ordering::Relaxed);
        m.margin_hist.observe(12_000); // ratio 1.2
        m.margin_hist.observe(25_000); // ratio 2.5
        m.ingest_hist.observe(300); // 300 µs
        let text = m.render_prometheus();
        assert!(
            text.contains("# TYPE abc_service_events_total counter"),
            "{text}"
        );
        assert!(text.contains("# HELP abc_service_margin "), "{text}");
        assert!(
            text.contains("# TYPE abc_service_margin histogram"),
            "{text}"
        );
        assert!(
            text.contains("abc_service_margin_bucket{le=\"1.25\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("abc_service_margin_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("abc_service_margin_sum 3.7"), "{text}");
        assert!(text.contains("abc_service_margin_count 2"), "{text}");
        assert!(
            text.contains("abc_service_ingest_seconds_bucket{le=\"0.0005\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn empty_histograms_render_format_valid_exposition() {
        // A fresh registry (no observations anywhere) must still produce
        // a structurally valid exposition: every histogram family carries
        // its full bucket ladder at zero, `_sum 0`, `_count 0`, and every
        // body line belongs to a `# TYPE`-declared family.
        let m = Metrics::new();
        let text = m.render_prometheus();
        for family in [
            "abc_service_margin",
            "abc_service_ingest_seconds",
            "abc_service_ack_seconds",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} histogram")),
                "{family} family missing:\n{text}"
            );
            assert!(
                text.contains(&format!("{family}_bucket{{le=\"+Inf\"}} 0")),
                "{family} +Inf bucket missing:\n{text}"
            );
            assert!(text.contains(&format!("{family}_sum 0\n")), "{text}");
            assert!(text.contains(&format!("{family}_count 0\n")), "{text}");
        }
        // Every non-comment line is `name{labels}? value` with a numeric
        // value — the shape a Prometheus scraper requires.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value pair");
            assert!(!name.is_empty(), "{line:?}");
            assert!(
                value.parse::<f64>().is_ok(),
                "non-numeric sample value in {line:?}"
            );
        }
    }

    #[test]
    fn fixed_point_formatting_has_no_float_drift() {
        assert_eq!(format_scaled(0, 4), "0");
        assert_eq!(format_scaled(10_000, 4), "1");
        assert_eq!(format_scaled(10_001, 4), "1.0001");
        assert_eq!(format_scaled(123, 0), "123");
        assert_eq!(format_scaled(1, 6), "0.000001");
    }

    #[test]
    fn margin_basis_points_floor_exactly() {
        assert_eq!(ratio_to_basis_points(&Ratio::new(3, 2)), 15_000);
        assert_eq!(ratio_to_basis_points(&Ratio::new(1, 3)), 3_333);
        assert_eq!(ratio_to_basis_points(&Ratio::from_integer(1)), 10_000);
    }
}
