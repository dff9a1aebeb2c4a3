//! In-memory spans for the traced run: one span per call into a
//! layer's public function, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which workload operation the span belongs to.
    pub op: usize,
    /// Units of work the call processed (ops generated, scanned, ...).
    pub work: u64,
    /// Calibrated seconds per raw second for the enclosing timed call.
    pub factor: f64,
}

impl Span {
    fn raw_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Duration in calibrated seconds.
    pub fn cal_s(&self) -> f64 {
        self.raw_s() * self.factor
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`; `f` returns its result and
    /// the work it did.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            work: 0,
            factor: 1.0,
        });
        self.stack.push(index);
        let (out, work) = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.work = work;
        out
    }

    /// Starts attributing spans to operation `op`; returns the index
    /// the operation's first span will get.
    pub fn begin_op(&mut self, op: usize) -> usize {
        self.op = op;
        self.spans.len()
    }

    /// Applies a timed call's calibration factor to the spans it made.
    pub fn calibrate_since(&mut self, first: usize, factor: f64) {
        for span in &mut self.spans[first..] {
            span.factor = factor;
        }
    }

    /// Calibrated self time (duration minus children) and work per
    /// span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.cal_s();
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_insert((0.0, 0));
            entry.0 += span.cal_s() - child_s[i];
            entry.1 += span.work;
        }
        out
    }

    /// Total calibrated duration and work of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, w), s| (t + s.cal_s(), w + s.work))
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"work\": {}, \"factor\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.work, s.factor
            );
        }
        out
    }
}
