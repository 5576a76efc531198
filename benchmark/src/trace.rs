//! In-memory spans around the calls the benchmark makes into each layer,
//! and the self-time arithmetic that turns them into per-layer metrics.
//!
//! A span records a name, its parent, the op it belongs to, and its start
//! and end. Spans nest on one thread through the open-span stack. A span
//! recorded on another thread (the server side of a request) names its
//! parent by `(op, name)` instead, and [`Tracer::adopt`] links it to that
//! op's span once both threads are done. Names starting with `bench.` are
//! the benchmark's own frames, not a layer: `bench.op` is the root of one
//! timed op, and `bench.beside` holds measurements taken next to the
//! replay (counterfactual runs) that are not part of any op.

use crate::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// Root span of one traced op; the traced end-to-end time is their sum.
pub const OP: &str = "bench.op";
/// Root span of measurements taken beside the replay.
pub const BESIDE: &str = "bench.beside";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parent {
    Root,
    /// Index of the parent span in the same tracer.
    Local(usize),
    /// The span of this name and the same op on another thread.
    Op(&'static str),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Parent,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls covered: 1, or the length of a loop timed as one span.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one thread, with the stack of spans still open.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between the tracers of a run so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span (or as a root).
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let parent = self.open.last().map_or(Parent::Root, |&i| Parent::Local(i));
        self.push_open(name, parent, op);
    }

    /// Opens a span whose parent is the `parent` span of the same op on
    /// another thread.
    pub fn begin_remote(&mut self, name: &'static str, op: u64, parent: &'static str) {
        self.push_open(name, Parent::Op(parent), op);
    }

    fn push_open(&mut self, name: &'static str, parent: Parent, op: u64) {
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        self.end_n(1);
    }

    /// Closes the innermost open span, which timed `count` calls.
    pub fn end_n(&mut self, count: u64) {
        let i = self.open.pop().expect("end without an open span");
        let now = self.now();
        let s = &mut self.spans[i];
        s.end_ns = now;
        s.count = count;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this tracer, resolving their
    /// `(op, name)` parents against this tracer's spans.
    ///
    /// # Panics
    /// Panics if a remote parent is missing: the two threads disagree on
    /// op ids, a bug in the workload code.
    pub fn adopt(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "adopting a tracer with open spans");
        let mut index: HashMap<(u64, &'static str), usize> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            index.insert((s.op, s.name), i);
        }
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Parent::Root => Parent::Root,
                Parent::Local(p) => Parent::Local(p + base),
                Parent::Op(name) => Parent::Local(
                    *index
                        .get(&(s.op, name))
                        .unwrap_or_else(|| panic!("no `{name}` span for op {}", s.op)),
                ),
            };
            self.spans.push(s);
        }
    }

    /// Writes one JSON line per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Parent::Local(p) => Json::Num(p as f64),
                _ => Json::Null,
            };
            let line = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::str(s.name)),
                ("parent", parent),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("count", Json::Num(s.count as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

/// A tracer that may be off, so that the untraced and the traced run of a
/// workload execute the same code.
pub struct Spans<'a>(pub Option<&'a mut Tracer>);

impl Spans<'_> {
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if let Some(t) = &mut self.0 {
            t.begin(name, op);
        }
    }

    pub fn end(&mut self) {
        self.end_n(1);
    }

    pub fn end_n(&mut self, count: u64) {
        if let Some(t) = &mut self.0 {
            t.end_n(count);
        }
    }
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layer {
    /// Σ (duration − children's durations) over the name's spans.
    pub self_ns: u64,
    /// Σ span counts.
    pub calls: u64,
}

impl Layer {
    /// Mean self time per call in the given unit (`1e6` for ms, ...).
    pub fn per_call(&self, ns_per_unit: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / ns_per_unit
        }
    }
}

/// Per-name self times of a span forest, and its coverage.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub layers: BTreeMap<&'static str, Layer>,
    /// Σ duration of the `bench.op` roots.
    pub op_ns: u64,
    /// Σ self time of layer spans (not `bench.*`) under `bench.op` roots.
    pub covered_ns: u64,
}

impl Summary {
    /// Self times per name. Every parent must be local (see
    /// [`Tracer::adopt`]); a child running longer than its parent would
    /// mean clocks disagree, so a self time is clamped at zero.
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Parent::Local(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let root_of = |mut i: usize| loop {
            match spans[i].parent {
                Parent::Local(p) => i = p,
                _ => return spans[i].name,
            }
        };
        let mut out = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            let layer = out.layers.entry(s.name).or_default();
            layer.self_ns += own;
            layer.calls += s.count;
            if s.name == OP && s.parent == Parent::Root {
                out.op_ns += s.dur_ns();
            } else if !s.name.starts_with("bench.") && root_of(i) == OP {
                out.covered_ns += own;
            }
        }
        out
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Share of the traced end-to-end time that layer self times explain.
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.op_ns as f64
        }
    }

    /// Number of traced ops.
    pub fn ops(&self) -> u64 {
        self.layer(OP).calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Parent, op: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_layers_only() {
        // op [0,100]: a [10,60] with child b [20,50]; c [70,90].
        // A beside measurement d [200,260] is outside every op.
        let spans = vec![
            span(OP, Parent::Root, 0, 0, 100),
            span("a", Parent::Local(0), 0, 10, 60),
            span("b", Parent::Local(1), 0, 20, 50),
            span("c", Parent::Local(0), 0, 70, 90),
            span(BESIDE, Parent::Root, 0, 200, 300),
            span("d", Parent::Local(4), 0, 200, 260),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.layer("a").self_ns, 20);
        assert_eq!(s.layer("b").self_ns, 30);
        assert_eq!(s.layer("c").self_ns, 20);
        assert_eq!(s.layer(OP).self_ns, 30, "op minus a and c");
        assert_eq!(s.layer("d").self_ns, 60);
        assert_eq!(s.op_ns, 100);
        assert_eq!(s.covered_ns, 70, "a + b + c, not the op frame, not d");
        assert!((s.coverage() - 0.7).abs() < 1e-12);
        assert_eq!(s.ops(), 1);
    }

    #[test]
    fn remote_spans_nest_under_the_named_span_of_their_op() {
        let origin = Instant::now();
        let mut client = Tracer::new(origin);
        let mut server = Tracer::new(origin);
        for op in 0..3u64 {
            client.begin(OP, op);
            client.begin("transport", op);
            server.begin_remote("execute", op, "transport");
            server.end();
            client.end();
            client.end();
        }
        client.adopt(server);
        for s in client.spans().iter().filter(|s| s.name == "execute") {
            let Parent::Local(p) = s.parent else {
                panic!("unresolved parent")
            };
            assert_eq!(client.spans()[p].name, "transport");
            assert_eq!(client.spans()[p].op, s.op);
        }
        let sum = Summary::of(client.spans());
        assert_eq!(sum.ops(), 3);
        let t = sum.layer("transport").self_ns + sum.layer("execute").self_ns;
        assert_eq!(
            t,
            client
                .spans()
                .iter()
                .filter(|s| s.name == "transport")
                .map(Span::dur_ns)
                .sum::<u64>(),
            "execute time moves out of transport's self time"
        );
    }

    #[test]
    fn loop_spans_report_per_call_means() {
        let l = Layer {
            self_ns: 5_000,
            calls: 100,
        };
        assert_eq!(l.per_call(1.0), 50.0);
        assert_eq!(Layer::default().per_call(1e6), 0.0);
    }
}
