//! Spans recorded by the harness around the calls it makes into each
//! layer. Spans stay in memory during the run and are written out as
//! JSON lines when it ends; a layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use les3_core::SearchStats;

/// Spans kept per run; past this the recorder ignores new spans, so a
/// microsecond-scale workload cannot grow the trace without bound.
const MAX_SPANS: usize = 400_000;

/// Index of a span in its [`Tracer`]; `NONE` marks a root span and is
/// what a disabled or full tracer hands out.
pub type SpanId = u32;
/// No span.
pub const NONE: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, the layer named after the product module.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// Spans of one request share this.
    pub request_id: u64,
    /// The work counters the call reported, where it reports any.
    pub stats: Option<SearchStats>,
}

/// The span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer whose clock starts at `origin`: tracers of concurrent
    /// clients share one, so their spans line up after [`Tracer::absorb`].
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span whose ends another thread measured.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: SpanId,
        request_id: u64,
    ) -> SpanId {
        let id = self.open(name, parent, request_id);
        if id != NONE {
            let span = &mut self.spans[id as usize];
            span.start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        }
        id
    }

    /// Appends another tracer's spans (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += offset;
            }
            s
        }));
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request_id: u64) -> SpanId {
        if !self.enabled || self.spans.len() >= MAX_SPANS {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
            stats: None,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span now, attaching the counters its call reported.
    pub fn close(&mut self, id: SpanId, stats: Option<SearchStats>) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.stats = stats;
    }

    /// Records a span around one call into a layer.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id, None);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Median duration in microseconds of the spans called `name`.
    pub fn p50_us(&self, name: &str) -> f64 {
        crate::stats::p50_us(&mut self.durations(name))
    }

    /// Self times in nanoseconds of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                NONE => write!(out, "null")?,
                p => write!(out, "{p}")?,
            }
            write!(out, ",\"request_id\":{}", s.request_id)?;
            if let Some(st) = &s.stats {
                write!(
                    out,
                    ",\"candidates\":{},\"sims_computed\":{},\"columns_checked\":{},\
                     \"groups_verified\":{},\"groups_pruned\":{},\"early_exits\":{},\
                     \"size_skipped\":{}",
                    st.candidates,
                    st.sims_computed,
                    st.columns_checked,
                    st.groups_verified,
                    st.groups_pruned,
                    st.early_exits,
                    st.size_skipped
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are counted
/// once; a child reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
            stats: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, NONE), // 0: root
            span(10, 30, 0),    // 1: child
            span(30, 50, 0),    // 2: adjacent child
            span(12, 20, 1),    // 3: grandchild, charged to 1 only
        ];
        assert_eq!(self_times(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = vec![
            span(100, 200, NONE),
            span(110, 150, 0),
            span(140, 160, 0), // overlaps the previous child by 10
            span(190, 250, 0), // runs past the parent's end
        ];
        // Covered: 110..160 (once) and 190..200.
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a.b", NONE, 1);
        assert_eq!(id, NONE);
        t.close(id, None);
        assert_eq!(t.call("a.c", NONE, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let mut t = Tracer::new(true);
        let root = t.open("req", NONE, 9);
        t.call("layer.call", root, 9, || ());
        t.close(root, None);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request_id, 9);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.durations("layer.call").len(), 1);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let (mut a, mut b) = (
            Tracer::with_origin(true, origin),
            Tracer::with_origin(true, origin),
        );
        a.call("a", NONE, 0, || ());
        let root = b.open("b.root", NONE, 1);
        let later = origin + std::time::Duration::from_micros(5);
        b.record("b.child", (origin, later), root, 1);
        b.close(root, None);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, 1);
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (0, 5_000));
    }
}
