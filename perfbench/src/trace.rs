//! In-memory span recorder for the traced run. Spans are recorded only
//! here, around calls the benchmark makes into the program's public API;
//! they are written out when the run ends and self time is derived from
//! them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::{json_num, json_str};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (another thread), as a root.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// Per span name: (count, total µs, self µs). Self time is the span's
    /// duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
            let own = dur - child_ns[i] as f64 / 1e3;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        out
    }

    /// Mean span duration of `name` in µs (NaN when never recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            f64::NAN
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Writes every span plus the per-name summary as JSON.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 * self.spans.len() + 4096);
        s.push_str("{\n");
        s.push_str(header);
        s.push_str(",\n\"span_summary\": {");
        for (i, (name, (n, total, own))) in self.summary().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n  {}: {{\"count\": {n}, \"total_us\": {}, \"self_us\": {}}}",
                json_str(name),
                json_num(*total),
                json_num(*own)
            );
        }
        s.push_str("\n},\n\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n  [{i}, {}, {}, {}, {parent}, {}]",
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.request
            );
        }
        s.push_str("\n]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
