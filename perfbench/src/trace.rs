//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions: name, start, end, parent span and the op
//! they belong to. Nothing is written while an op runs; the spans are
//! kept in memory and dumped once at exit. Worker threads record into a
//! child tracer sharing the parent's clock, merged back at join.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder. Not thread-safe by design: every thread
/// owns one (see [`Tracer::child`] / [`Tracer::absorb`]).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Parent (in the absorbing tracer) of this tracer's top-level spans.
    adopt: Option<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            adopt: None,
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Runs one benchmark op as a root span `op` with identifier `op`.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = op;
        self.span("op", f)
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_default() += value;
    }

    /// A tracer for a worker thread: same clock and op, its top-level
    /// spans adopted by the innermost span open here.
    pub fn child(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            adopt: self.stack.last().copied(),
            op: self.op,
            counters: BTreeMap::new(),
        }
    }

    /// Merges a joined worker's spans and counters.
    pub fn absorb(&mut self, child: Tracer) {
        let offset = self.spans.len();
        for mut span in child.spans {
            span.parent = match span.parent {
                Some(local) => Some(local + offset),
                None => child.adopt,
            };
            self.spans.push(span);
        }
        for (name, value) in child.counters {
            self.count(name, value);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    /// Self time per span name and the per-op roll-up.
    pub fn analyse(&self) -> Analysis {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                if let Some(list) = children.get_mut(parent) {
                    list.push(id);
                }
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut ops = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let covered = covered_ns(span, children[id].iter().map(|&c| &self.spans[c]));
            let self_ns = span.duration().saturating_sub(covered);
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.self_ns += self_ns;
            if span.name == "op" {
                ops.push(OpTime {
                    wall_ns: span.duration(),
                    uncovered_ns: self_ns,
                });
            }
        }
        Analysis { layers, ops }
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of the
/// children's intervals (children on other threads may overlap).
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    pub wall_ns: u64,
    pub uncovered_ns: u64,
}

#[derive(Debug, Default)]
pub struct Analysis {
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub ops: Vec<OpTime>,
}

impl Analysis {
    /// Total self time of a layer in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.calls)
    }

    /// Self milliseconds per call of a layer (0 when never called).
    pub fn ms_per_call(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.self_ms(name) / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let parent = span(0, 100, None);
        let children = [
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 150, Some(0)),
        ];
        assert_eq!(covered_ns(&parent, children.iter()), 50 + 10);
    }

    #[test]
    fn self_time_and_uncovered_time() {
        let mut tracer = Tracer::new();
        tracer.op(7, |tr| {
            tr.span("a", |tr| tr.span("b", |_| std::hint::black_box(1)));
            tr.span("c", |_| ());
        });
        let child = {
            let mut worker = tracer.child();
            worker.span("w", |_| ());
            worker
        };
        tracer.absorb(child);
        let analysis = tracer.analyse();
        assert_eq!(analysis.ops.len(), 1);
        assert_eq!(analysis.calls("b"), 1);
        assert_eq!(analysis.calls("w"), 1);
        let op = analysis.ops[0];
        assert!(op.uncovered_ns <= op.wall_ns);
        assert!(tracer.spans.iter().all(|s| s.op == 7));
    }
}
