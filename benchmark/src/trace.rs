//! In-memory spans around the harness's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span is recorded here, at
//! the call boundary, and kept in memory until the workload ends. Each op is
//! a root `op` span with children `gen` (key, payload, oracle update),
//! `call.<layer>.<fn>` and `verify`. A span's self time is its duration
//! minus its children's.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based, in recording order.
    pub id: u32,
    /// Parent span id; 0 for a root.
    pub parent: u32,
    /// The op this span belongs to (spans of one op share it).
    pub op: u32,
    /// Span name.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus children.
    pub self_ns: u64,
}

/// Collects spans for one workload.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a root span for a new op and returns its id.
    pub fn root(&mut self, start: Instant, end: Instant) -> u32 {
        self.ops += 1;
        self.child(0, "op", start, end)
    }

    /// Records a child of `parent` (same op as the latest root).
    pub fn child(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op: self.ops,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
        id
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Count, total and self time per span name, by name.
    pub fn totals(&self) -> Vec<NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let t = by_name.entry(s.name).or_insert(NameTotals {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        }
        by_name.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = t.root(ms(0), ms(10));
        t.child(root, "gen", ms(0), ms(2));
        t.child(root, "call.x", ms(2), ms(9));
        let totals = t.totals();
        let get = |n: &str| totals.iter().find(|x| x.name == n).unwrap().clone();
        assert_eq!(get("op").total_ns, 10_000_000);
        assert_eq!(get("op").self_ns, 1_000_000);
        assert_eq!(get("call.x").self_ns, 7_000_000);
        assert!(t.spans().iter().all(|s| s.op == 1));
    }
}
