//! In-memory spans around the benchmark's calls into each layer, written
//! out when the benchmark ends (`--trace-out`, Chrome trace-event JSON).

use std::io;
use std::path::Path;
use std::time::Instant;

use serde::Value;

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    /// Layer or phase name.
    name: String,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    end_ns: u64,
    /// Operations performed inside the span.
    ops: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` after `ops` operations.
    pub fn close(&mut self, id: usize, ops: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ops = ops;
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` returns the
    /// number of operations it performed.
    pub fn time(&mut self, name: &str, parent: usize, f: impl FnOnce() -> u64) {
        let id = self.open(name, Some(parent));
        let ops = f();
        self.close(id, ops);
    }

    /// Mean nanoseconds per operation over the spans named `name` directly
    /// under `parent` (0 when they performed none).
    #[must_use]
    pub fn ns_per_op(&self, name: &str, parent: usize) -> f64 {
        let (ns, ops) = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .fold((0u64, 0u64), |(ns, ops), s| {
                (ns + (s.end_ns - s.start_ns), ops + s.ops)
            });
        if ops == 0 {
            0.0
        } else {
            ns as f64 / ops as f64
        }
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, nested by time.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let parent = s
                    .parent
                    .map_or(Value::Null, |p| Value::Str(self.spans[p].name.clone()));
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::F64(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(1)),
                    (
                        "args".into(),
                        Value::Object(vec![
                            ("ops".into(), Value::U64(s.ops)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
        std::fs::write(path, serde_json::to_string(&doc)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_averages_matching_children() {
        let mut s = Spans::new();
        let root = s.open("root", None);
        s.time("a", root, || 4);
        s.time("b", root, || 1);
        s.time("a", root, || 0);
        s.close(root, 0);
        let a: Vec<&Span> = s.spans.iter().filter(|x| x.name == "a").collect();
        let ns: u64 = a.iter().map(|x| x.end_ns - x.start_ns).sum();
        assert_eq!(s.ns_per_op("a", root), ns as f64 / 4.0);
        assert_eq!(s.ns_per_op("missing", root), 0.0);
        assert!(s.spans.iter().all(|x| x.end_ns >= x.start_ns));
    }
}
