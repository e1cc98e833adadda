//! In-memory span recorder for the traced run, and the self-time
//! arithmetic that turns spans into a per-layer waterfall.
//!
//! Spans are recorded from the benchmark's own files, around calls into a
//! layer's public functions; nothing inside the product is instrumented.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share an identifier.
    pub req: u64,
}

/// Records spans while `on`; a recorder that is off costs one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; no span may be open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "switching the recorder inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span, in recording order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("req", Json::Num(s.req as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                kids[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The spans `range` of a recording as a trace of their own (parents
/// re-indexed; a parent outside the range is dropped).
pub fn slice(spans: &[Span], range: std::ops::Range<usize>) -> Vec<Span> {
    let start = range.start as u32;
    spans[range]
        .iter()
        .map(|s| Span {
            parent: s.parent.and_then(|p| p.checked_sub(start)),
            ..s.clone()
        })
        .collect()
}

/// Per span name: how many, total duration and total self time (ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// One row of a waterfall: a layer, its self time per operation, and the
/// persistence events counted at that boundary.
#[derive(Debug, Clone)]
pub struct Layer {
    pub layer: String,
    pub self_ns_per_op: f64,
    pub counts: String,
}

/// A workload's waterfall, with the untraced per-op time it must add up
/// to (within 10 %).
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    pub title: String,
    pub untraced_ns_per_op: f64,
    pub layers: Vec<Layer>,
}

impl Waterfall {
    pub fn total(&self) -> f64 {
        self.layers.iter().map(|l| l.self_ns_per_op).sum()
    }

    pub fn print(&self) {
        let total = self.total();
        println!(
            "waterfall {}  (layers sum {:.1} ns/op, untraced {:.1} ns/op, {:+.1} %)",
            self.title,
            total,
            self.untraced_ns_per_op,
            (total / self.untraced_ns_per_op - 1.0) * 100.0
        );
        for l in &self.layers {
            println!(
                "  {:<34} {:>10.1} ns/op {:>6.1} %  {}",
                l.layer,
                l.self_ns_per_op,
                l.self_ns_per_op / total * 100.0,
                l.counts
            );
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(&self.title)),
            ("untraced_ns_per_op", Json::Num(self.untraced_ns_per_op)),
            (
                "layers",
                Json::Arr(
                    self.layers
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("layer", Json::str(&l.layer)),
                                ("self_ns_per_op", Json::Num(l.self_ns_per_op)),
                                ("counts", Json::str(&l.counts)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0,100] with children [10,30], [20,50] (overlapping),
        // [60,70]; the second child has a grandchild [25,45].
        let spans = vec![
            span("request", 0, 100, None),
            span("encode", 10, 30, Some(0)),
            span("call", 20, 50, Some(0)),
            span("decode", 60, 70, Some(0)),
            span("tenant", 25, 45, Some(2)),
        ];
        let own = self_times(&spans);
        // children cover [10,50] and [60,70] = 50 of 100
        assert_eq!(own, vec![50, 20, 10, 10, 20]);
        let names = by_name(&spans);
        assert_eq!(names["request"], (1, 100, 50));
        assert_eq!(names["call"], (1, 30, 10));
        // Self times of one request's tree add up to the root's duration
        // only when siblings do not overlap; here the overlap [20,30] is
        // counted in both siblings' own time.
        assert_eq!(own.iter().sum::<u64>(), 110);
    }

    #[test]
    fn a_slice_of_a_trace_keeps_its_own_tree() {
        let spans = vec![
            span("a", 0, 10, None),
            span("b", 2, 4, Some(0)),
            span("a", 20, 30, None),
            span("b", 21, 29, Some(2)),
        ];
        let second = slice(&spans, 2..4);
        assert_eq!(second[1].parent, Some(0));
        assert_eq!(self_times(&second), vec![2, 8]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("p", 10, 20, None),
            span("c", 0, 15, Some(0)),
            span("c", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn recorder_nests_and_is_free_when_off() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        t.enter("inner", 7);
        t.exit();
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        off.enter("outer", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn waterfall_total_is_the_sum_of_layers() {
        let w = Waterfall {
            title: "t".into(),
            untraced_ns_per_op: 100.0,
            layers: vec![
                Layer {
                    layer: "a".into(),
                    self_ns_per_op: 60.0,
                    counts: String::new(),
                },
                Layer {
                    layer: "b".into(),
                    self_ns_per_op: 45.0,
                    counts: String::new(),
                },
            ],
        };
        assert_eq!(w.total(), 105.0);
    }
}
