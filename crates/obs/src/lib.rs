//! `abc-obs` — the workspace flight recorder.
//!
//! A std-only, per-thread, ring-buffered span/counter recorder for
//! profiling the monitor, the simulation engine, the TCP service's
//! ingest pipeline, and the sweep harness — plus a Chrome trace-event
//! JSON exporter (loadable in Perfetto / `chrome://tracing`), a
//! stable-order text summary, and the hand-rolled JSON validator the
//! CI gate uses to check the exporter's output.
//!
//! # Design
//!
//! * **Branch-on-disabled.** Every recording entry point loads one
//!   relaxed [`AtomicBool`] and returns immediately when the recorder
//!   is off; nothing else (no TLS access, no clock read) happens on
//!   the disabled path.
//! * **Per-thread state.** Each instrumented thread lazily registers a
//!   [`ThreadRecorder`]: a fixed array of relaxed [`AtomicU64`]
//!   counters (indexed by a process-wide counter id) and a
//!   fixed-capacity ring of span/sample entries guarded by a mutex
//!   that only *this* thread takes on the hot path (snapshots contend
//!   only while copying out).
//! * **Never allocates on the hot path.** The ring is fully allocated
//!   at thread registration; entries hold `&'static str` names and
//!   plain integers. When the ring is full the oldest entry is
//!   overwritten and an exact drop counter is incremented, so a
//!   snapshot always reports the most-recent-N entries plus exactly
//!   how many were evicted.
//! * **Stable output.** [`Snapshot::text_summary`] orders counters by
//!   name and threads by registration index, so two snapshots of the
//!   same state render byte-identically.
//!
//! # Lock hierarchy
//!
//! Two lock levels, registered in the workspace `lint.conf` R3
//! hierarchy *below* every abc-service lock: the global `REGISTRY`
//! (level 4) and each recorder's `ring` (level 5). Snapshots take
//! `REGISTRY` then each `ring`; the hot path takes only `ring`.
//! Recording may therefore be called while holding any service-level
//! lock, but recorder internals must never call back out.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

pub mod json;

/// Process-wide cap on distinct counter ids. Registrations past the
/// cap are silently ignored (the `CounterDef` becomes a no-op).
pub const MAX_COUNTERS: usize = 64;

/// Ring capacity used for threads registered before [`enable`]
/// configures one.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREAD_SEQ: AtomicUsize = AtomicUsize::new(0);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counter_names: Vec::new(),
    threads: Vec::new(),
});

struct Registry {
    counter_names: Vec<&'static str>,
    threads: Vec<Arc<ThreadRecorder>>,
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    // Recorder state stays meaningful after a panic elsewhere; recover.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on. `ring_capacity` (clamped to at least 1) applies
/// to threads whose recorder is created *after* this call; threads
/// already instrumented keep their ring. The first `enable` also pins
/// the trace epoch all timestamps are relative to.
pub fn enable(ring_capacity: usize) {
    RING_CAP.store(ring_capacity.max(1), Ordering::Relaxed);
    let _ = EPOCH.set(Instant::now());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded state stays snapshottable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently on.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter and clears every ring (drop counters included)
/// without unregistering anything. Used to scope a measurement window.
pub fn reset() {
    let reg = lock_registry();
    for rec in &reg.threads {
        for c in &rec.counters {
            c.store(0, Ordering::Relaxed);
        }
        let mut ring = rec.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.clear();
    }
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// --------------------------------------------------------------------
// Per-thread state

/// What one ring entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A completed [`SpanGuard`] interval (`start_ns` + `dur_ns`).
    Span,
    /// A point-in-time value sample (`start_ns` + `value`).
    Sample,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    name: &'static str,
    kind: EntryKind,
    start_ns: u64,
    dur_ns: u64,
    value: u64,
}

const EMPTY_ENTRY: Entry = Entry {
    name: "",
    kind: EntryKind::Span,
    start_ns: 0,
    dur_ns: 0,
    value: 0,
};

struct RingInner {
    entries: Vec<Entry>,
    next: usize,
    filled: bool,
    dropped: u64,
}

impl RingInner {
    fn push(&mut self, entry: Entry) {
        if self.entries.is_empty() {
            self.dropped += 1;
            return;
        }
        if self.filled {
            self.dropped += 1;
        }
        self.entries[self.next] = entry;
        self.next += 1;
        if self.next == self.entries.len() {
            self.next = 0;
            self.filled = true;
        }
    }

    fn clear(&mut self) {
        self.next = 0;
        self.filled = false;
        self.dropped = 0;
    }

    /// Entries oldest-first.
    fn chronological(&self) -> Vec<Entry> {
        if self.filled {
            let mut out = Vec::with_capacity(self.entries.len());
            out.extend_from_slice(&self.entries[self.next..]);
            out.extend_from_slice(&self.entries[..self.next]);
            out
        } else {
            self.entries[..self.next].to_vec()
        }
    }
}

/// One thread's recorder: a fixed counter array plus a span/sample ring.
pub struct ThreadRecorder {
    index: usize,
    label: String,
    counters: [AtomicU64; MAX_COUNTERS],
    ring: Mutex<RingInner>,
}

impl ThreadRecorder {
    fn new(index: usize, label: String, ring_capacity: usize) -> ThreadRecorder {
        ThreadRecorder {
            index,
            label,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(RingInner {
                entries: vec![EMPTY_ENTRY; ring_capacity],
                next: 0,
                filled: false,
                dropped: 0,
            }),
        }
    }

    fn record(&self, entry: Entry) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.push(entry);
    }
}

thread_local! {
    static LOCAL: Arc<ThreadRecorder> = register_thread();
}

fn register_thread() -> Arc<ThreadRecorder> {
    let index = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
    let label = match std::thread::current().name() {
        Some(name) => name.to_string(),
        None => format!("thread-{index}"),
    };
    let rec = Arc::new(ThreadRecorder::new(
        index,
        label,
        RING_CAP.load(Ordering::Relaxed),
    ));
    lock_registry().threads.push(Arc::clone(&rec));
    rec
}

fn with_local(f: impl FnOnce(&ThreadRecorder)) {
    // try_with: recording during TLS teardown silently drops instead
    // of panicking.
    let _ = LOCAL.try_with(|rec| f(rec));
}

// --------------------------------------------------------------------
// Recording API

/// A named counter with a lazily-bound process-wide id. Declare as a
/// `static`; `add` is a relaxed atomic add into the calling thread's
/// slot (a few nanoseconds) once the id is cached.
pub struct CounterDef {
    name: &'static str,
    /// 0 = unbound, `usize::MAX` = over the id cap (no-op), else id+1.
    slot: AtomicUsize,
}

impl CounterDef {
    /// Declares a counter. `const`, so usable in `static` items.
    #[must_use]
    pub const fn new(name: &'static str) -> CounterDef {
        CounterDef {
            name,
            slot: AtomicUsize::new(0),
        }
    }

    /// The counter's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to this thread's slot for the counter. No-op when the
    /// recorder is disabled or the counter-id space is exhausted.
    ///
    /// Inlined into the caller, where it is one relaxed load and a branch
    /// while the recorder is off; binding the counter and the per-thread
    /// add are out of line.
    #[inline]
    pub fn add(&self, n: u64) {
        if ENABLED.load(Ordering::Relaxed) {
            self.add_enabled(n);
        }
    }

    /// [`CounterDef::add`] with the recorder on.
    #[inline(never)]
    fn add_enabled(&self, n: u64) {
        let slot = self.slot.load(Ordering::Relaxed);
        let id = match slot {
            0 => {
                let id = register_counter(self.name);
                let encoded = if id == usize::MAX { usize::MAX } else { id + 1 };
                self.slot.store(encoded, Ordering::Relaxed);
                id
            }
            usize::MAX => usize::MAX,
            bound => bound - 1,
        };
        if id == usize::MAX {
            return;
        }
        with_local(|rec| {
            rec.counters[id].fetch_add(n, Ordering::Relaxed);
        });
    }
}

fn register_counter(name: &'static str) -> usize {
    let mut reg = lock_registry();
    if let Some(i) = reg.counter_names.iter().position(|n| *n == name) {
        return i;
    }
    if reg.counter_names.len() >= MAX_COUNTERS {
        return usize::MAX;
    }
    reg.counter_names.push(name);
    reg.counter_names.len() - 1
}

/// RAII span: records a [`EntryKind::Span`] entry covering its
/// lifetime when dropped. Disarmed (free) while the recorder is off.
#[must_use = "a span records on drop; binding it to _ discards the interval"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    armed: bool,
}

/// Opens a span. The interval is recorded into the calling thread's
/// ring when the returned guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            name,
            start_ns: 0,
            armed: false,
        };
    }
    SpanGuard {
        name,
        start_ns: now_ns(),
        armed: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = now_ns();
        let entry = Entry {
            name: self.name,
            kind: EntryKind::Span,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            value: 0,
        };
        with_local(|rec| rec.record(entry));
    }
}

/// Records a point-in-time value sample (rendered as a Chrome counter
/// track). No-op while the recorder is off.
pub fn sample(name: &'static str, value: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let entry = Entry {
        name,
        kind: EntryKind::Sample,
        start_ns: now_ns(),
        dur_ns: 0,
        value,
    };
    with_local(|rec| rec.record(entry));
}

// --------------------------------------------------------------------
// Snapshots

/// One recorded ring entry, copied out of a thread's ring.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Static name the entry was recorded under.
    pub name: &'static str,
    /// Span or sample.
    pub kind: EntryKind,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for samples).
    pub dur_ns: u64,
    /// Sampled value (0 for spans).
    pub value: u64,
}

/// One thread's state at snapshot time.
#[derive(Clone, Debug)]
pub struct ThreadSnapshot {
    /// Registration index (stable `tid` in the Chrome export).
    pub index: usize,
    /// Thread name, or `thread-<index>` for unnamed threads.
    pub label: String,
    /// Counter values, parallel to [`Snapshot::counter_names`].
    pub counters: Vec<u64>,
    /// Ring contents, oldest first.
    pub entries: Vec<SpanRecord>,
    /// Exact number of entries evicted from the ring.
    pub dropped: u64,
}

/// A point-in-time copy of the whole recorder.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Registered counter names, in id order.
    pub counter_names: Vec<&'static str>,
    /// Per-thread state, ordered by registration index.
    pub threads: Vec<ThreadSnapshot>,
}

/// Copies the recorder state out. Safe to call at any time, including
/// while other threads record (their in-flight entries land in the
/// next snapshot).
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = lock_registry();
    let counter_names = reg.counter_names.clone();
    let mut threads: Vec<ThreadSnapshot> = Vec::with_capacity(reg.threads.len());
    for rec in &reg.threads {
        let counters = rec.counters[..counter_names.len()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let ring = rec.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let entries = ring
            .chronological()
            .into_iter()
            .filter(|e| !e.name.is_empty())
            .map(|e| SpanRecord {
                name: e.name,
                kind: e.kind,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns,
                value: e.value,
            })
            .collect();
        let dropped = ring.dropped;
        drop(ring);
        threads.push(ThreadSnapshot {
            index: rec.index,
            label: rec.label.clone(),
            counters,
            entries,
            dropped,
        });
    }
    drop(reg);
    threads.sort_by_key(|t| t.index);
    Snapshot {
        counter_names,
        threads,
    }
}

impl Snapshot {
    /// Counter totals summed across threads, sorted by name.
    #[must_use]
    pub fn counter_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = self
            .counter_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let sum = self
                    .threads
                    .iter()
                    .map(|t| t.counters.get(i).copied().unwrap_or(0))
                    .sum();
                (*name, sum)
            })
            .collect();
        totals.sort_by_key(|(name, _)| *name);
        totals
    }

    /// Renders the snapshot as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto and
    /// `chrome://tracing`. Spans become `ph:"X"` complete events,
    /// samples become `ph:"C"` counter events; counter totals ride in
    /// the `otherData` side table.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut event = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(s);
        };
        event(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"abc\"}}",
            &mut out,
        );
        for t in &self.threads {
            let tid = t.index + 1;
            let mut meta = format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":"
            );
            push_json_str(&mut meta, &t.label);
            meta.push_str("}}");
            event(&meta, &mut out);
            for e in &t.entries {
                let mut ev = String::with_capacity(128);
                match e.kind {
                    EntryKind::Span => {
                        ev.push_str("{\"ph\":\"X\",\"name\":");
                        push_json_str(&mut ev, e.name);
                        ev.push_str(&format!(",\"pid\":1,\"tid\":{tid},\"ts\":"));
                        push_us(&mut ev, e.start_ns);
                        ev.push_str(",\"dur\":");
                        push_us(&mut ev, e.dur_ns);
                        ev.push('}');
                    }
                    EntryKind::Sample => {
                        ev.push_str("{\"ph\":\"C\",\"name\":");
                        push_json_str(&mut ev, e.name);
                        ev.push_str(&format!(",\"pid\":1,\"tid\":{tid},\"ts\":"));
                        push_us(&mut ev, e.start_ns);
                        ev.push_str(&format!(",\"args\":{{\"value\":{}}}}}", e.value));
                    }
                }
                event(&ev, &mut out);
            }
        }
        out.push_str("\n],\"otherData\":{");
        let mut first_kv = true;
        for (name, total) in self.counter_totals() {
            if !first_kv {
                out.push(',');
            }
            first_kv = false;
            push_json_str(&mut out, name);
            out.push_str(&format!(":\"{total}\""));
        }
        for t in &self.threads {
            if t.dropped > 0 {
                if !first_kv {
                    out.push(',');
                }
                first_kv = false;
                push_json_str(&mut out, &format!("dropped[{}]", t.label));
                out.push_str(&format!(":\"{}\"", t.dropped));
            }
        }
        out.push_str("}}\n");
        out
    }

    /// Renders a stable-order text summary: counter totals by name,
    /// then per-thread span statistics (count / total / min / max
    /// duration) and sample statistics (count / last value) by name.
    #[must_use]
    pub fn text_summary(&self) -> String {
        use std::collections::BTreeMap;
        let mut out = String::new();
        out.push_str("abc-obs summary\n");
        out.push_str("counters:\n");
        let totals = self.counter_totals();
        if totals.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, total) in totals {
            out.push_str(&format!("  {name} = {total}\n"));
        }
        for t in &self.threads {
            out.push_str(&format!(
                "thread [{}] {} (entries={}, dropped={}):\n",
                t.index,
                t.label,
                t.entries.len(),
                t.dropped
            ));
            // name -> (count, total_ns, min_ns, max_ns)
            let mut spans: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
            // name -> (count, last_value)
            let mut samples: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for e in &t.entries {
                match e.kind {
                    EntryKind::Span => {
                        let stat = spans.entry(e.name).or_insert((0, 0, u64::MAX, 0));
                        stat.0 += 1;
                        stat.1 += e.dur_ns;
                        stat.2 = stat.2.min(e.dur_ns);
                        stat.3 = stat.3.max(e.dur_ns);
                    }
                    EntryKind::Sample => {
                        let stat = samples.entry(e.name).or_insert((0, 0));
                        stat.0 += 1;
                        stat.1 = e.value;
                    }
                }
            }
            for (name, (count, total, min, max)) in spans {
                out.push_str(&format!(
                    "  span {name}: count={count} total={total}ns min={min}ns max={max}ns\n"
                ));
            }
            for (name, (count, last)) in samples {
                out.push_str(&format!("  sample {name}: count={count} last={last}\n"));
            }
        }
        out
    }
}

/// Appends `ns` rendered as microseconds with fixed 3-digit fractional
/// precision (`1234ns` -> `1.234`). Deterministic: integer arithmetic
/// only.
fn push_us(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Appends `s` as a JSON string literal with escaping.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --------------------------------------------------------------------
// Chrome-trace structural validation

/// Event counts gathered by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `ph:"X"` complete (span) events.
    pub spans: usize,
    /// `ph:"C"` counter events.
    pub counters: usize,
    /// `ph:"M"` metadata events.
    pub metadata: usize,
}

/// Structurally validates a Chrome trace-event JSON document (object
/// form): parses it with the hand-rolled [`json`] reader, then checks
/// `traceEvents` is an array of event objects whose `ph`/`name`/`ts`/
/// `dur`/`pid`/`tid` fields have the right shapes.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(input: &str) -> Result<ChromeTraceStats, String> {
    let doc = json::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut stats = ChromeTraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(json::JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"ph\""))?;
        if ev.get("name").and_then(json::JsonValue::as_str).is_none() {
            return Err(format!("event {i}: missing string \"name\""));
        }
        let num = |key: &str| ev.get(key).and_then(json::JsonValue::as_f64);
        match ph {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    match num(key) {
                        Some(v) if v >= 0.0 => {}
                        _ => {
                            return Err(format!("event {i}: span event missing numeric \"{key}\""));
                        }
                    }
                }
                stats.spans += 1;
            }
            "C" => {
                for key in ["ts", "pid", "tid"] {
                    match num(key) {
                        Some(v) if v >= 0.0 => {}
                        _ => {
                            return Err(format!(
                                "event {i}: counter event missing numeric \"{key}\""
                            ));
                        }
                    }
                }
                match ev.get("args") {
                    Some(json::JsonValue::Object(_)) => {}
                    _ => {
                        return Err(format!("event {i}: counter event missing object \"args\""));
                    }
                }
                stats.counters += 1;
            }
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
        stats.events += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_with_exact_drop_counter() {
        let mut ring = RingInner {
            entries: vec![EMPTY_ENTRY; 4],
            next: 0,
            filled: false,
            dropped: 0,
        };
        for i in 0..10 {
            ring.push(Entry {
                name: "e",
                kind: EntryKind::Sample,
                start_ns: i,
                dur_ns: 0,
                value: i,
            });
        }
        assert_eq!(ring.dropped, 6);
        let chron = ring.chronological();
        assert_eq!(chron.len(), 4);
        let values: Vec<u64> = chron.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = RingInner {
            entries: Vec::new(),
            next: 0,
            filled: false,
            dropped: 0,
        };
        ring.push(EMPTY_ENTRY);
        assert_eq!(ring.dropped, 1);
        assert!(ring.chronological().is_empty());
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn microsecond_rendering_is_exact() {
        let mut out = String::new();
        push_us(&mut out, 1_234_567);
        out.push(' ');
        push_us(&mut out, 7);
        assert_eq!(out, "1234.567 0.007");
    }

    #[test]
    fn validator_rejects_shape_errors() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\"}]}").is_err()
        );
        let ok = "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"ts\":0.1,\
                  \"dur\":2,\"pid\":1,\"tid\":1}]}";
        let stats = validate_chrome_trace(ok).expect("valid");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.events, 1);
    }
}
