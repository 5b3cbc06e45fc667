//! Spans recorded around the benchmark's calls into each engine layer.
//!
//! A span has a name, a start and end on one clock, the operation it
//! belongs to and the span that enclosed it. Spans are kept in memory
//! and written out once the run ends; when tracing is off, `enter` and
//! `exit` record nothing and cost one branch.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation (refresh, page, cycle, step) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    clock: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(clock: Instant) -> Tracer {
        Tracer {
            on: false,
            clock,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off; the traced workloads alternate it per
    /// operation so traced and untraced operations meet the same state.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.clock.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.clock.elapsed().as_nanos() as u64;
            self.open.retain(|&i| i != idx);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        limit: usize,
    ) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"workload\":\"{workload}\",\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut t = Tracer::new(Instant::now());
        t.span("a", || ());
        assert!(t.durations_ms("a").is_empty());
        t.set_on(true);
        t.set_op(3);
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.durations_ms("outer").len(), 1);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 3);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf, "w", 1).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
    }
}
