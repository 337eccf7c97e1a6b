//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions, never inside the layers, and kept in memory until
//! the run ends. A layer's cost is its spans' *self* time: duration
//! minus the part of the interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `pipeline.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was built.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was built.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or replayed operation) the span belongs to.
    pub req: u64,
}

/// A single-threaded span recorder; a disabled one only runs the
/// wrapped calls, which is how the traced run measures its own overhead.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder that records (`on`) or only runs the wrapped calls.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.span_labelled(req, f, |_| name)
    }

    /// Runs `f` inside a span whose name is chosen from its result (a
    /// service query is a hit or a miss only once it has answered).
    pub fn span_labelled<T>(
        &self,
        req: u64,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: "",
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end_ns;
        spans[id].name = name(&out);
        out
    }

    /// Every span with its self time in nanoseconds.
    #[must_use]
    pub fn with_self_times(&self) -> Vec<(Span, u64)> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.clone(), self_time((s.start_ns, s.end_ns), kids)))
            .collect()
    }

    /// Self times in nanoseconds of every span named `name`, in
    /// recording order.
    #[must_use]
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        self.with_self_times()
            .into_iter()
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Summed self time in nanoseconds of every span named `name`.
    #[must_use]
    pub fn total_self_ns(&self, name: &str) -> f64 {
        self.self_ns(name).iter().sum()
    }

    /// Per request, the summed self time of its spans named in `names`
    /// (requests with none of them are left out).
    #[must_use]
    pub fn per_request_ns(&self, names: &[&str]) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ns) in self.with_self_times() {
            if names.contains(&s.name) {
                *sums.entry(s.req).or_insert(0.0) += ns as f64;
            }
        }
        sums.into_values().collect()
    }

    /// The spans as NDJSON, one object per line.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.with_self_times() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of the interval `span`: its length minus the union of its
/// children's intervals clipped to it. Children may nest, overlap each
/// other, or run past the parent's end.
#[must_use]
pub fn self_time(span: (u64, u64), mut children: Vec<(u64, u64)>) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (a, b) in children {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        assert_eq!(self_time((0, 100), vec![]), 100);
        assert_eq!(self_time((0, 100), vec![(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,50) overlap on [30,40): 40 ns covered.
        assert_eq!(self_time((0, 100), vec![(30, 50), (10, 40)]), 60);
        // A child inside another child covers nothing new.
        assert_eq!(self_time((0, 100), vec![(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((50, 100), vec![(0, 60), (90, 200)]), 30);
    }

    #[test]
    fn recorder_links_parents_and_names_from_results() {
        let rec = Recorder::new(true);
        let v = rec.span("outer", 7, || {
            rec.span("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span_labelled(7, || 3, |v| if *v == 3 { "three" } else { "other" })
        });
        assert_eq!(v, 3);
        let spans = rec.with_self_times();
        let names: Vec<_> = spans.iter().map(|(s, _)| s.name).collect();
        assert_eq!(names, ["outer", "inner", "three"]);
        assert_eq!(spans[0].0.parent, None);
        assert_eq!(spans[1].0.parent, Some(0));
        assert_eq!(spans[2].0.parent, Some(0));
        let outer = &spans[0];
        let kids = spans[1].1 + spans[2].1;
        assert_eq!(outer.1, outer.0.end_ns - outer.0.start_ns - kids);
        assert!(spans[1].1 >= 2_000_000);
        assert_eq!(rec.per_request_ns(&["inner", "three"]).len(), 1);
        assert_eq!(rec.to_ndjson().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", 1, || 5), 5);
        assert!(rec.with_self_times().is_empty());
    }
}
