//! Host-time spans around the calls into each layer.
//!
//! A [`Tracer`] always measures the interval a [`Mark`] opens (the untraced
//! run needs a few timings for its end-to-end metrics too); only an enabled
//! tracer also records the span — name, start, end and parent — in memory.
//! Spans are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open interval, closed by [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a mark must be closed with Tracer::end"]
pub struct Mark {
    start: Instant,
    index: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Mark {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
            });
            self.open.push(index);
            index
        });
        Mark { start, index }
    }

    /// Closes `mark` (and any span left open inside it by a panic) and
    /// returns its duration in seconds.
    pub fn end(&mut self, mark: Mark) -> f64 {
        let end = Instant::now();
        if let Some(index) = mark.index {
            let end_ns = self.ns_since_origin(end);
            while let Some(top) = self.open.pop() {
                self.spans[top].end_ns = end_ns;
                if top == index {
                    break;
                }
            }
        }
        end.duration_since(mark.start).as_secs_f64()
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let mark = self.begin(name);
        let out = f();
        (out, self.end(mark))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per span name, over the spans nested in the
    /// span at `root` (inclusive): each span's duration minus the part its
    /// children cover.
    pub fn self_seconds_under(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            inside[i] = i == root || s.parent.is_some_and(|p| p >= root && inside[p]);
            if inside[i] && i != root {
                child_ns[s.parent.expect("nested span has a parent")] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            if inside[i] {
                let own = s.dur_ns().saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Duration in seconds of the span at `index`.
    pub fn seconds(&self, index: usize) -> f64 {
        self.spans[index].dur_ns() as f64 * 1e-9
    }

    /// Index the next [`Tracer::begin`] will record at.
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome trace-event document (open in Perfetto or
    /// `chrome://tracing`); nesting is carried by time containment and by
    /// each event's `parent` argument.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root_index = t.next_index();
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let child_s = t.end(child);
        let root_s = t.end(root);
        let selfs = t.self_seconds_under(root_index);
        let total: f64 = selfs.values().sum();
        assert!(
            (total - root_s).abs() < 1e-6,
            "self times add up to the root"
        );
        assert!((selfs["child"] - child_s).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.span("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs > 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn end_closes_spans_a_panic_left_open() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let _leaked = t.begin("inner");
        t.end(outer);
        assert!(t.open.is_empty());
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
