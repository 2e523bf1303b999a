//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written as Chrome trace-event JSON at the end.

use std::time::{Duration, Instant};

use crate::json;

/// One timed interval. `parent` indexes the span that caused it.
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// The spans of one traced run of one workload.
pub struct Spans {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `work` inside a span named `name`, a child of the span that
    /// is open now, and returns its result and duration.
    pub fn time<T>(&mut self, name: &str, work: impl FnOnce(&mut Spans) -> T) -> (T, Duration) {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        let end = self.epoch.elapsed();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Records an interval that was timed elsewhere as a child of the
    /// span that is open now.
    pub fn record(&mut self, name: &str, start: Instant, duration: Duration) {
        let start = start.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + duration,
            parent: self.open.last().copied(),
        });
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Chrome trace-event JSON (object form): one `ph:"X"` event per
    /// span, its parent's index and the workload in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = json::Object::new()
                    .integer("id", id as u64)
                    .string("workload", self.workload);
                if let Some(parent) = s.parent {
                    args = args.integer("parent", parent as u64);
                }
                json::Object::new()
                    .string("name", &s.name)
                    .string("ph", "X")
                    .number("ts", s.start.as_secs_f64() * 1e6)
                    .number("dur", (s.end - s.start).as_secs_f64() * 1e6)
                    .integer("pid", 1)
                    .integer("tid", 1)
                    .raw("args", &args.finish())
                    .finish()
            })
            .collect();
        json::Object::new()
            .string("displayTimeUnit", "ms")
            .raw("traceEvents", &json::array(&events))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_as_a_valid_chrome_trace() {
        let mut spans = Spans::new("unit");
        let ((), outer) = spans.time("outer", |s| {
            s.time("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            s.record("inner", Instant::now(), Duration::ZERO);
        });
        assert_eq!(spans.spans.len(), 3);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert!(spans.total("inner") <= outer && outer >= Duration::from_millis(2));
        let json = spans.chrome_trace_json();
        assert_eq!(crate::api::chrome_trace_events(&json), Ok(3));
    }
}
