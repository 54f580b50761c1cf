//! In-memory span recorder for the traced replay.
//!
//! A span is one timed call into a layer: a name, a trace id (one per
//! campaign shard), its parent span, its start and end (nanoseconds since
//! the tracer was created) and a few integer attributes. Spans stay in
//! memory while the replay runs and are written out once, at the end
//! ([`Tracer::write_jsonl`]), so the recording itself costs one
//! `Instant::now` and one `Vec` push per boundary.

use popele_lab::sweep::json::Json;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name: the layer before the first `.` (`trials.dense` is in
    /// layer `trials`), or a structural name (`campaign`, `shard`).
    pub name: String,
    /// Trace id: the index of the shard the span belongs to.
    pub trace: u64,
    /// The span that caused this one (`None` for a campaign root).
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Integer attributes (steps, trials, bytes, ...), in insertion order.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration of the span in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// An attribute by name, or 0 when absent.
    #[must_use]
    pub fn attr(&self, key: &str) -> u64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    traces: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            traces: 0,
        }
    }

    /// A fresh trace id.
    pub fn new_trace(&mut self) -> u64 {
        self.traces += 1;
        self.traces - 1
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: impl Into<String>, trace: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
    }

    /// Attaches an integer attribute to a span.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut members = vec![
                ("id".to_string(), Json::from_u64(id as u64)),
                ("name".to_string(), Json::Str(span.name.clone())),
                ("trace".to_string(), Json::from_u64(span.trace)),
                (
                    "parent".to_string(),
                    Json::from_opt_u64(span.parent.map(|p| p as u64)),
                ),
                ("start_ns".to_string(), Json::from_u64(span.start_ns)),
                ("end_ns".to_string(), Json::from_u64(span.end_ns)),
            ];
            members.extend(
                span.attrs
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::from_u64(v))),
            );
            out.push_str(&Json::Obj(members).render_compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and
/// a child running past its parent's end counts only inside the parent.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            trace: 0,
            parent,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // campaign [0,100) ⊃ shard [10,90) ⊃ {trials [20,60), journal [60,70)}
        let spans = vec![
            span("campaign", None, 0, 100),
            span("shard", Some(0), 10, 90),
            span("trials.dense", Some(1), 20, 60),
            span("journal.append", Some(1), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            // Starts inside the root but ends after it.
            span("c", Some(0), 90, 130),
        ];
        // Covered: [10,70) + [90,100) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn leaf_and_empty_spans() {
        let spans = vec![span("root", None, 5, 5), span("leaf", Some(0), 5, 5)];
        assert_eq!(self_times_ns(&spans), vec![0, 0]);
    }

    #[test]
    fn recorded_spans_nest_in_time() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("campaign", 0, None);
        let child = tracer.begin("graph.build", 0, Some(root));
        tracer.attr(child, "edges", 12);
        tracer.end(child);
        tracer.end(root);
        let spans = tracer.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].attr("edges"), 12);
        assert_eq!(spans[1].attr("missing"), 0);
        let self_ns = self_times_ns(spans);
        assert_eq!(self_ns[0] + self_ns[1], spans[0].duration_ns());
    }
}
