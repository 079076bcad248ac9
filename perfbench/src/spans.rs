//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into each layer's public
//! functions (and each HTTP request it sends). They are kept in memory
//! and written out as JSON lines when the run ends. A span's layer is
//! the part of its name before the first `.` (`store`, `core`, `bench`,
//! `synth`, `serve`, `client`, `repro`); a layer's self time is the
//! summed duration of its spans minus the parts their child spans cover.
//!
//! A disabled tracer records nothing, so untraced runs pay only an
//! `Option` check per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run (ids start at 1).
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: Option<u64>,
    /// Dotted name; the first segment is the layer.
    pub name: String,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Collects spans for one run.
pub struct Tracer {
    workload: String,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for `workload`'s run.
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_owned(),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        };
        self.spans.lock().expect("span list lock").push(span);
        id
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list lock").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}",
                s.id, s.name, s.start_ns, s.end_ns, self.workload
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when `tracer` is on; returns its result.
pub fn timed<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(t) = tracer {
        t.record(name, None, start, Instant::now());
    }
    out
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// union of its children's intervals (clipped to the parent).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        *out.entry(s.layer().to_owned()).or_default() += s.duration_ns() - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "client.query", 0, 100),
            // Two overlapping children cover 10..60 once.
            span(2, Some(1), "core.run.x", 10, 50),
            span(3, Some(1), "core.render", 30, 60),
            span(4, Some(2), "store.scan", 20, 30),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["client"], 50);
        assert_eq!(by_layer["core"], 30 + 30);
        assert_eq!(by_layer["store"], 10);
    }
}
