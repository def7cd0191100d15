//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into each layer's public functions; no crate of the repository is
//! instrumented (that is a later issue). A span carries its name
//! (`<layer>.<call>`), start, end, the span that caused it and the
//! repetition it belongs to; all spans of one recorder share a workload.
//! Everything stays in memory until [`Recorder::chrome_trace`] is
//! written when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub rep: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Single-threaded span recorder: the driver issues one call at a time,
/// so the open spans form a stack.
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Recorder {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Spans recorded from now on belong to repetition `rep`.
    pub fn begin_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Run `f` inside a span named `name`; spans `f` opens through the
    /// recorder it is handed become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        self.spans[id].start = self.origin.elapsed().as_secs_f64();
        let result = f(self);
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per repetition, the summed duration of the spans called `name`
    /// (a layer called several times in one repetition is charged its
    /// total). Repetitions in which the span never ran are left out.
    pub fn rep_totals(&self, name: &str) -> Vec<f64> {
        let reps = self.spans.iter().map(|s| s.rep + 1).max().unwrap_or(0);
        (0..reps)
            .filter_map(|rep| {
                let mut hit = false;
                let mut total = 0.0;
                for s in self.spans.iter().filter(|s| s.rep == rep && s.name == name) {
                    hit = true;
                    total += s.duration();
                }
                hit.then_some(total)
            })
            .collect()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, with the causing span, the repetition and the
    /// self time in `args`.
    pub fn chrome_trace(&self) -> Json {
        let self_times = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(layer.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start * 1e6)),
                    ("dur", Json::Num(s.duration() * 1e6)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::Str(self.workload.into())),
                            ("rep", Json::Num(s.rep as f64)),
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(self_times[id] * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once (their union), so a span's
/// self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "layer.call",
            start,
            end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..10, child 1..4 with grandchild 2..3, child 5..9
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 4.0, Some(0)),
            span(2.0, 3.0, Some(1)),
            span(5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children 1..5 and 3..8 cover 1..8; a third sticks out of the parent
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 5.0, Some(0)),
            span(3.0, 8.0, Some(0)),
            span(9.0, 12.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 7.0 - 1.0);
        assert_eq!(st[1], 4.0);
        // a child contained in a sibling adds nothing
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 9.0, Some(0)),
            span(2.0, 3.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_sums_by_repetition() {
        let mut rec = Recorder::new("unit");
        for rep in 0..2 {
            rec.begin_rep(rep);
            rec.span("core.pass", |rec| {
                rec.span("kernels.a", |_| ());
                rec.span("kernels.a", |_| ());
                rec.span("kernels.b", |rec| rec.span("fft.c", |_| ()));
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 10);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[5].rep, 1);
        assert_eq!(rec.rep_totals("kernels.a").len(), 2);
        assert_eq!(rec.rep_totals("fft.c").len(), 2);
        assert!(rec.rep_totals("missing").is_empty());
        for (s, own) in spans.iter().zip(self_times(spans)) {
            assert!(s.end >= s.start);
            assert!(own >= 0.0 && own <= s.duration());
        }
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut rec = Recorder::new("unit");
        rec.span("core.pass", |rec| rec.span("kernels.a", |_| ()));
        let parsed = Json::parse(&rec.chrome_trace().to_string()).expect("trace parses");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("kernels"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("unit"));
    }
}
