//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span's name is `<layer>.<call>`; its self time is its duration
//! minus the time its child spans cover. Spans of one request share a
//! request id.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span recorder. Ids start at `id_base`, so recorders of
/// different threads can be merged.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, id_base: u64) -> Tracer {
        Tracer { origin, next_id: id_base, spans: Vec::new() }
    }

    fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> u64 {
        let now = self.offset_us(Instant::now());
        self.push(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u64) {
        let now = self.offset_us(Instant::now());
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (s, e) = (self.offset_us(start), self.offset_us(end));
        self.push(name, parent, request, s, e)
    }

    /// Records a span of `duration_us` that ends where `parent` ends:
    /// the engine's own time inside a served request, as reported by
    /// the response.
    pub fn record_tail(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        duration_us: f64,
    ) -> u64 {
        let end = self.spans.iter().rev().find(|s| s.id == parent).map_or(0.0, |s| s.end_us);
        self.push(name, Some(parent), request, end - duration_us, end)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { id, parent, request, name, start_us, end_us });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: duration minus the summed durations of its
/// children (children of one span never overlap in this benchmark).
fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            out[p] -= s.duration_us();
        }
    }
    out.iter().map(|t| t.max(0.0)).collect()
}

/// Summed self time per layer, in milliseconds.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t / 1e3;
    }
    out
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id,
            parent,
            s.request,
            quote(s.name),
            s.start_us,
            s.end_us
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        let root = t.push("bench.round", None, 1, 0.0, 100.0);
        t.push("store.open", Some(root), 1, 0.0, 30.0);
        let q = t.push("bench.query", Some(root), 1, 30.0, 90.0);
        t.push("core.query", Some(q), 1, 40.0, 80.0);
        let spans = t.into_spans();
        assert_eq!(self_times_us(&spans), vec![10.0, 30.0, 20.0, 40.0]);
        let by_layer = self_ms_by_layer(&spans);
        assert!((by_layer["bench"] - 0.03).abs() < 1e-12);
        assert!((by_layer["core"] - 0.04).abs() < 1e-12);
    }
}
