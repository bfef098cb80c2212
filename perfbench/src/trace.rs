//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded by benchmark code around calls into the layers'
//! public functions — nothing inside the program is instrumented. Each
//! span has a name (`<layer>.<call>`), a start and end relative to the
//! tracer's epoch, an optional parent, and the request or trial id it
//! belongs to. Spans stay in memory until [`Tracer::write_jsonl`] at
//! the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request or trial id the span belongs to.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A recorder that is either on (keeps spans) or off (every call is a
/// no-op that reads no clock).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    key: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as a child's parent (`None` when off).
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end_ns = self.tracer.now_ns();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                key: self.key,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the epoch of `at` (0 for instants before it).
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, key: u64, parent: Option<u64>) -> SpanGuard<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            key,
            start_ns,
        }
    }

    /// Records a span whose bounds were measured elsewhere (e.g. a
    /// request's due time and reply time, taken on a load thread).
    pub fn record(
        &self,
        name: &'static str,
        key: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            key,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end).max(self.offset_ns(start)),
        });
        Some(id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Self time per span name, seconds: each span's duration minus its
    /// direct children's durations, summed over spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for span in &spans {
            let own = (span.end_ns - span.start_ns)
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Summed duration (not self time) of the spans named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("a.outer", 7, None);
            let _inner = tracer.span("b.inner", 7, outer.id());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let own = tracer.self_seconds();
        assert!(own["b.inner"] >= 0.002);
        assert!(own["a.outer"] < own["b.inner"]);
        assert_eq!(tracer.spans().len(), 2);

        let off = Tracer::new(false);
        drop(off.span("a.outer", 0, None));
        assert!(off.spans().is_empty());
    }
}
