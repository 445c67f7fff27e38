//! Host-time spans recorded by the benchmark around its calls into the
//! workspace crates: name, start, end and parent, kept in memory and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nested span recorder plus counters taken at the same boundaries.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    pub fn count(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_insert(0) += v;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over every span of that name: a
    /// span's duration minus the durations of its children (children are
    /// sequential and nested, so they never overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.duration_ns() - c;
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let root = r.open("root");
        r.span("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.span("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.close(root);
        let s = r.self_ns();
        let root_dur = r.spans()[0].duration_ns();
        assert_eq!(s["root"] + s["leaf"], root_dur);
        assert!(s["leaf"] >= 4_000_000);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn out_of_order_close_panics() {
        let mut r = Recorder::new();
        let a = r.open("a");
        let _b = r.open("b");
        r.close(a);
    }
}
