//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the engine is instrumented. Each span
//! carries its name, start and end (ns since the tracer was created), the
//! index of the enclosing span and the operation id it belongs to. Counts
//! are recorded at the same boundaries, so ratios are formed where the work
//! happens. A layer's self time is its span time minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Span and counter store for one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Number of closed spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per-span self time: duration minus the time covered by its children
    /// (children of one parent never overlap: spans are recorded from one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Summed self time of all spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// The spans as tab-separated lines: id, parent, op, name, start, end,
    /// self time (ns).
    pub fn to_tsv(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (s, t)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{t}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit();
        let outer = t.self_s("outer");
        let inner = t.self_s("inner");
        assert!(inner >= 0.02);
        assert!(outer < 0.01, "outer self time {outer} includes the child");
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
