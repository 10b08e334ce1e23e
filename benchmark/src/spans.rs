//! In-memory spans recorded by the harness around its own calls into each
//! layer (spans inside the crates are a later issue). A traced run samples
//! one op in [`SAMPLE_EVERY`], keeps the spans in memory and writes them out
//! when the run ends; self time is computed from the parent links.

use std::collections::BTreeMap;
use std::time::Instant;
use tle_base::json::Json;

/// One op in this many is wrapped in spans during a traced trial.
pub const SAMPLE_EVERY: u64 = 64;
/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;
/// Spans kept for the trace file (aggregates always use every span).
const FILE_SPAN_CAP: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, or [`ROOT`].
    pub parent: u32,
    /// Spans of one op share this id.
    pub op: u64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// A span recorder for one thread; all recorders of a run share one time
/// base.
pub struct Tracer {
    base: Instant,
    op: u64,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant) -> Tracer {
        Tracer {
            base,
            op: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    #[inline]
    pub fn open(&mut self, name: &'static str) {
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(idx);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
        });
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[idx as usize].start_ns = self.now();
    }

    #[inline]
    pub fn close(&mut self) {
        let end = self.now();
        let idx = self.stack.pop().expect("close without an open span");
        self.spans[idx as usize].end_ns = end;
    }
}

/// Mean duration of an empty span: what one open/close pair adds to the
/// interval it is recorded in.
pub fn calibrate_overhead(base: Instant) -> f64 {
    const N: usize = 200_000;
    let mut t = Tracer::new(base);
    t.spans.reserve(N);
    for _ in 0..N {
        t.open("trace.empty");
        t.close();
    }
    t.spans.iter().map(Span::dur).sum::<f64>() / N as f64
}

/// Mean self time per span name: a span's duration minus its children's
/// durations minus the calibrated cost of the stamps taken inside it (its
/// own pair and one pair per child), floored at zero.
pub fn self_times(spans: &[Span], overhead_ns: f64) -> BTreeMap<&'static str, f64> {
    let mut child_sum = vec![0.0f64; spans.len()];
    let mut child_n = vec![0u32; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_sum[s.parent as usize] += s.dur();
            child_n[s.parent as usize] += 1;
        }
    }
    let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = s.dur() - child_sum[i] - overhead_ns * (1 + child_n[i]) as f64;
        let e = acc.entry(s.name).or_insert((0.0, 0));
        e.0 += own.max(0.0);
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(k, (sum, n))| (k, sum / n as f64))
        .collect()
}

/// The trace file: every field of every kept span, plus what a reader
/// needs to interpret them.
pub fn to_json(workload: &str, overhead_ns: f64, spans: &[Span]) -> Json {
    let kept = &spans[..spans.len().min(FILE_SPAN_CAP)];
    let rows = kept
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("start_ns".into(), Json::u64(s.start_ns)),
                ("end_ns".into(), Json::u64(s.end_ns)),
                (
                    "parent".into(),
                    // A parent past the cap would dangle; such spans are
                    // impossible because a parent always precedes its child.
                    if s.parent == ROOT {
                        Json::Null
                    } else {
                        Json::u64(s.parent as u64)
                    },
                ),
                ("op".into(), Json::u64(s.op)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::str(workload)),
        ("sample_every".into(), Json::u64(SAMPLE_EVERY)),
        ("span_overhead_ns".into(), crate::num(overhead_ns)),
        ("spans_recorded".into(), Json::u64(spans.len() as u64)),
        ("spans".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_stamp_cost() {
        // op [0,1000] { a [100,300]  b [400,900] { c [500,600] } }
        let spans = [
            span("op", 0, 1000, ROOT),
            span("a", 100, 300, 0),
            span("b", 400, 900, 0),
            span("c", 500, 600, 2),
        ];
        let st = self_times(&spans, 10.0);
        assert_eq!(st["op"], 1000.0 - 200.0 - 500.0 - 30.0);
        assert_eq!(st["a"], 200.0 - 10.0);
        assert_eq!(st["b"], 500.0 - 100.0 - 20.0);
        assert_eq!(st["c"], 100.0 - 10.0);
    }

    #[test]
    fn self_time_is_a_mean_per_name_and_never_negative() {
        let spans = [
            span("x", 0, 100, ROOT),
            span("x", 200, 500, ROOT),
            span("tiny", 0, 5, ROOT),
        ];
        let st = self_times(&spans, 10.0);
        assert_eq!(st["x"], (90.0 + 290.0) / 2.0);
        assert_eq!(st["tiny"], 0.0);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        t.open("outer");
        t.open("inner");
        t.close();
        t.open("inner");
        t.close();
        t.close();
        t.open("next");
        t.close();
        let parents: Vec<u32> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [ROOT, 0, 0, ROOT]);
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[2].end_ns <= t.spans[0].end_ns);
    }
}
