//! In-memory spans recorded around the calls into each layer.
//!
//! Every thread keeps its own [`SpanLog`]; logs are collected when the
//! replay ends and only then written out, so recording a span costs two
//! clock reads and a `Vec` push. A span's parent is an index into the
//! same log. Self time is a span's duration minus its children's.

use nonsearch_engine::JsonValue;
use std::time::Instant;

/// The layer boundaries the replay records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One engine cell: all trials of one model × size block.
    Cell,
    /// One trial inside a cell, on a worker thread.
    Trial,
    /// A trial graph drawn from a generator.
    GraphGenerate,
    /// A trial graph loaded from the corpus.
    GraphLoad,
    /// One searcher lane of a trial (`run_weak_in`).
    SearchLane,
    /// The lane's requests replayed on a bare oracle, after the lane.
    OracleReplay,
    /// A fit or degree pass in `nonsearch_analysis`.
    AnalysisFit,
    /// The corpus build of the set-up step.
    CorpusBuild,
    /// Opening the built corpus.
    CorpusOpen,
}

impl Name {
    /// The span name as written out.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Cell => "cell",
            Name::Trial => "trial",
            Name::GraphGenerate => "graph.generate",
            Name::GraphLoad => "graph.load",
            Name::SearchLane => "search.lane",
            Name::OracleReplay => "oracle.replay",
            Name::AnalysisFit => "analysis.fit",
            Name::CorpusBuild => "corpus.build",
            Name::CorpusOpen => "corpus.open",
        }
    }
}

/// Exact work counts recorded at a span's boundary; fields that do not
/// apply to a span stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Oracle requests (lane, replay).
    pub requests: u64,
    /// Vertices discovered (lane, replay).
    pub discoveries: u64,
    /// Edges resolved on the oracle's view (replay).
    pub edge_resolutions: u64,
    /// Resolved frontier slots the searcher's cursors skipped (lane).
    pub frontier_rescans: u64,
    /// 1 when the lane found its target.
    pub found: u64,
    /// Edges of the fetched graph (graph spans).
    pub edges: u64,
    /// Bytes written (corpus build).
    pub bytes: u64,
    /// Trials folded (cell).
    pub trials: u64,
    /// Trials retried after a panic (cell).
    pub retried: u64,
    /// Trials skipped after a panic (cell).
    pub skipped: u64,
    /// Worker threads that ran the cell (cell).
    pub workers: u64,
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which layer boundary.
    pub name: Name,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the replay's clock started.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay's clock started.
    pub end_ns: u64,
    /// The cell the span belongs to (index into the replay's cells).
    pub cell: usize,
    /// The searcher lane, for lane and replay spans.
    pub lane: usize,
    /// Work counted inside the span.
    pub counts: Counts,
}

impl Span {
    /// The span's wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The replay's monotonic clock. Spans read it only at layer
/// boundaries, never once per request.
#[derive(Debug)]
pub struct Clock(Instant);

impl Clock {
    /// Starts the clock.
    pub fn start() -> Clock {
        // lint: allow(clock-env): the benchmark's span clock, read only at layer boundaries
        Clock(Instant::now())
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One thread's spans, in the order they were opened.
#[derive(Debug)]
pub struct SpanLog<'c> {
    clock: &'c Clock,
    spans: Vec<Span>,
}

impl<'c> SpanLog<'c> {
    /// An empty log reading `clock`.
    pub fn new(clock: &'c Clock) -> SpanLog<'c> {
        SpanLog {
            clock,
            spans: Vec::new(),
        }
    }

    /// Opens a span now and returns its index for [`SpanLog::close`].
    pub fn open(&mut self, name: Name, parent: Option<usize>, cell: usize, lane: usize) -> usize {
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            cell,
            lane,
            counts: Counts::default(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now, recording the work done inside it.
    pub fn close(&mut self, id: usize, counts: Counts) {
        let now = self.clock.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.counts = counts;
    }

    /// Takes the recorded spans, leaving the log empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Each span's self time: its duration minus the durations of its
/// children (clamped at zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Spans of every log as JSON lines, one object per span.
pub fn to_jsonl(logs: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (log, spans) in logs.iter().enumerate() {
        for ((id, span), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
            let parent = span.parent.map_or(JsonValue::Null, JsonValue::from);
            let line = JsonValue::object(vec![
                ("log", JsonValue::from(log)),
                ("id", JsonValue::from(id)),
                ("parent", parent),
                ("name", JsonValue::from(span.name.as_str())),
                ("cell", JsonValue::from(span.cell)),
                ("lane", JsonValue::from(span.lane)),
                ("start_ns", JsonValue::from(span.start_ns)),
                ("dur_ns", JsonValue::from(span.duration_ns())),
                ("self_ns", JsonValue::from(self_ns)),
                ("requests", JsonValue::from(span.counts.requests)),
                ("edges", JsonValue::from(span.counts.edges)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            cell: 0,
            lane: 0,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(Name::Trial, None, 0, 100),
            span(Name::SearchLane, Some(0), 10, 60),
            // The replay runs after its lane but is charged to it.
            span(Name::OracleReplay, Some(1), 60, 80),
            span(Name::GraphGenerate, Some(0), 0, 10),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10]);
    }

    #[test]
    fn self_time_never_underflows() {
        let spans = vec![
            span(Name::SearchLane, None, 0, 10),
            span(Name::OracleReplay, Some(0), 10, 30),
        ];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn log_records_open_close_and_counts() {
        let clock = Clock::start();
        let mut log = SpanLog::new(&clock);
        let trial = log.open(Name::Trial, None, 3, 0);
        let lane = log.open(Name::SearchLane, Some(trial), 3, 2);
        let counts = Counts {
            requests: 7,
            ..Counts::default()
        };
        log.close(lane, counts);
        log.close(trial, Counts::default());
        let spans = log.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].cell, spans[1].lane), (3, 2));
        assert_eq!(spans[1].counts.requests, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(log.take().is_empty());
        let jsonl = to_jsonl(&[spans]);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"search.lane\""));
    }
}
