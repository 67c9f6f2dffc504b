//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark around calls into each layer's
//! public functions; nothing inside the engine is instrumented. A span's
//! self time is its duration minus the part of its interval that its
//! children cover. Spans stay in memory until [`Tracer::write_jsonl`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Request id shared by the real call and its replay.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `children` clipped to `[start, end]`.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per-layer totals over a trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRow {
    pub count: u64,
    pub self_ns: u64,
}

impl LayerRow {
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64 / 1_000.0, self.count as f64)
    }
}

pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.self_ns += self_ns;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("parent", None, 0, 100),
            // Overlapping children cover [10, 40] once.
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40),
            // A child running past its parent counts only inside it.
            span("c", Some(0), 90, 120),
            span("grandchild", Some(1), 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
    }

    #[test]
    fn layer_table_sums_self_time_per_name() {
        let spans = vec![
            span("req", None, 0, 50),
            span("scan", Some(0), 0, 10),
            span("req", None, 100, 160),
            span("scan", Some(2), 110, 140),
        ];
        let t = layer_table(&spans);
        assert_eq!(t["req"].count, 2);
        assert_eq!(t["req"].self_ns, 40 + 30);
        assert_eq!(t["scan"].self_ns, 40);
        assert_eq!(t["scan"].mean_us(), 0.02);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut tr = Tracer::new();
        let root = tr.begin("root", None, 7);
        let v = tr.span("child", Some(root), 7, || 3);
        tr.end(root);
        assert_eq!(v, 3);
        let s = tr.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].req, 7);
    }
}
