//! `sparse_1m`: the sparse plane on a 10⁶-vertex power-law graph. Each
//! round builds the CSR graph from the edge list, closes it
//! (`SparseClosure::new`: Tarjan condensation, then the component-DAG
//! sweep) and runs a fixed query phase of 10⁶ `reachable` calls and 100
//! `row` calls. Every round sees the same input, so every round must give
//! the same answers; the first round's are checked against a BFS oracle
//! on sampled sources.

use crate::harness::{self, ns, Outcome, Workload};
use crate::inputs::{hash_edges, powerlaw_edges, Fnv, Rng};
use crate::json::Json;
use crate::trace::{Spans, Summary, Tracer, BESIDE, OP};
use std::time::Instant;
use systolic_closure::{condense_csr, CsrGraph, SparseClosure};

const TAG_GRAPH: u64 = 10;
const TAG_QUERIES: u64 = 11;

pub struct Sparse {
    pub n: usize,
    /// Out-edges drawn per new vertex of the power-law generator.
    pub d: usize,
    /// Query sources; each is asked about its own `targets` random vertices.
    pub sources: usize,
    pub targets: usize,
    /// `row` calls per round, on the first sources.
    pub rows: usize,
    /// Leading sources whose answers the BFS oracle checks.
    pub checked: usize,
    /// Rounds per second of `--seconds` in a traced run (each round is
    /// made twice there, untraced and traced).
    pub trace_rate: f64,
}

struct Inputs {
    edges: Vec<(u32, u32)>,
    sources: Vec<u32>,
    /// `targets[i * T..(i + 1) * T]` are the targets of `sources[i]`.
    targets: Vec<u32>,
}

/// What a round answered: one bit per `reachable` query, one digest per
/// `row`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Answers {
    bits: Vec<u64>,
    rows: Vec<u64>,
}

struct Round {
    answers: Answers,
    /// Time inside the program's calls (the op's latency).
    busy_ns: u64,
    graph: CsrGraph,
    closure: SparseClosure,
}

fn row_digest(row: &[u32]) -> u64 {
    let (mut s1, mut s2) = (0u64, 0u64);
    for (i, &x) in row.iter().enumerate() {
        s1 = s1.wrapping_add(u64::from(x));
        s2 = s2.wrapping_add(u64::from(x).wrapping_mul(i as u64 + 1));
    }
    let mut h = Fnv::default();
    for w in [row.len() as u64, s1, s2] {
        h.bytes(&w.to_le_bytes());
    }
    h.finish()
}

impl Sparse {
    pub fn full() -> Self {
        Sparse {
            n: 1_000_000,
            d: 6,
            sources: 1000,
            targets: 1000,
            rows: 100,
            checked: 8,
            trace_rate: 0.25,
        }
    }

    fn inputs(&self, seed: u64) -> Inputs {
        let edges = powerlaw_edges(&mut Rng::new(seed, TAG_GRAPH), self.n, self.d);
        let mut q = Rng::new(seed, TAG_QUERIES);
        let sources = (0..self.sources).map(|_| q.below(self.n) as u32).collect();
        let targets = (0..self.sources * self.targets)
            .map(|_| q.below(self.n) as u32)
            .collect();
        Inputs {
            edges,
            sources,
            targets,
        }
    }

    fn round(&self, inp: &Inputs, sp: &mut Spans, op: u64) -> Round {
        sp.begin(OP, op);
        let t0 = Instant::now();
        sp.begin("closure.csr_build", op);
        let graph = CsrGraph::from_edges(self.n, &inp.edges);
        sp.end();
        sp.begin("closure.new", op);
        let closure = SparseClosure::new(&graph);
        sp.end();
        sp.begin("closure.reachable", op);
        let mut bits = vec![0u64; inp.targets.len().div_ceil(64)];
        for (k, &v) in inp.targets.iter().enumerate() {
            let u = inp.sources[k / self.targets];
            if closure.reachable(u as usize, v as usize) {
                bits[k / 64] |= 1 << (k % 64);
            }
        }
        sp.end_n(inp.targets.len() as u64);
        let mut busy_ns = ns(t0.elapsed());
        let mut rows = Vec::with_capacity(self.rows);
        for &u in &inp.sources[..self.rows] {
            sp.begin("closure.row", op);
            let t = Instant::now();
            let row = closure.row(u as usize);
            busy_ns += ns(t.elapsed());
            sp.end();
            rows.push(row_digest(&row));
        }
        sp.end();
        Round {
            answers: Answers { bits, rows },
            busy_ns,
            graph,
            closure,
        }
    }

    /// Checks one round's answers for the leading sources against BFS on
    /// the edge list (an adjacency built here, not the program's CSR).
    /// Returns the number of wrong answers.
    fn check(&self, inp: &Inputs, answers: &Answers) -> u64 {
        let mut start = vec![0usize; self.n + 1];
        for &(u, _) in &inp.edges {
            start[u as usize + 1] += 1;
        }
        for i in 0..self.n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![0u32; inp.edges.len()];
        for &(u, v) in &inp.edges {
            adj[fill[u as usize]] = v;
            fill[u as usize] += 1;
        }
        let mut wrong = 0;
        for (i, &s) in inp.sources[..self.checked].iter().enumerate() {
            let mut seen = vec![false; self.n];
            let mut queue = vec![s];
            seen[s as usize] = true;
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in &adj[start[u as usize]..start[u as usize + 1]] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        queue.push(v);
                    }
                }
            }
            for k in i * self.targets..(i + 1) * self.targets {
                let got = (answers.bits[k / 64] >> (k % 64)) & 1 == 1;
                wrong += u64::from(got != seen[inp.targets[k] as usize]);
            }
            if i < self.rows {
                queue.sort_unstable();
                wrong += u64::from(row_digest(&queue) != answers.rows[i]);
            }
        }
        wrong
    }
}

impl Workload for Sparse {
    fn name(&self) -> &'static str {
        "sparse_1m"
    }

    fn fingerprint(&self, seed: u64) -> Vec<(&'static str, Json)> {
        let inp = self.inputs(seed);
        let mut q = Fnv::default();
        for &x in inp.sources.iter().chain(&inp.targets) {
            q.u32(x);
        }
        vec![
            ("vertices", Json::from(self.n as u64)),
            ("edges", Json::from(inp.edges.len() as u64)),
            ("fnv1a", hash_edges(&inp.edges).hex()),
            ("queries", Json::from(inp.targets.len() as u64)),
            ("queries_fnv1a", q.hex()),
        ]
    }

    fn measure(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let mut lat = Vec::new();
        let mut first: Option<(Answers, usize, usize)> = None;
        let mut diverged = 0;
        let setup_s = harness::segmented(
            seconds,
            || Ok(self.inputs(seed)),
            |inp, secs| {
                let start = Instant::now();
                while start.elapsed().as_secs_f64() < secs {
                    let r = self.round(&inp, &mut Spans(None), 0);
                    lat.push(r.busy_ns);
                    match &first {
                        None => {
                            let cond = r.closure.condensation();
                            first = Some((r.answers, cond.len(), cond.dag.edge_count()));
                        }
                        Some((a, ..)) => diverged += u64::from(*a != r.answers),
                    }
                }
                Ok(())
            },
        )?;
        let rss = harness::peak_rss_mb();
        let (answers, scc, dag_edges) = first.ok_or("no round completed")?;
        let rounds = lat.len() as u64;
        let inp = self.inputs(seed);
        // A wrong first round makes every round that repeats it wrong.
        let failed = if self.check(&inp, &answers) > 0 {
            rounds
        } else {
            diverged
        };
        let mut out = Outcome {
            attempted: rounds,
            failed,
            counts: vec![
                ("rounds", rounds),
                ("queries", rounds * inp.targets.len() as u64),
                ("scc", scc as u64),
                ("dag_edges", dag_edges as u64),
            ],
            ..Outcome::default()
        };
        let (p50, rate) = harness::closed_loop(1.0, &lat);
        harness::end_to_end(&mut out, &setup_s, p50, rate, rss);
        Ok(out)
    }

    fn trace(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let rounds = ((self.trace_rate * seconds).ceil() as usize).max(1);
        let inp = self.inputs(seed);
        // A warm-up round gives the reference answers; then untraced and
        // traced rounds alternate.
        let reference = self.round(&inp, &mut Spans(None), 0).answers;
        let mut failed = self.check(&inp, &reference);
        let mut untraced_ns = 0;
        let mut t = Tracer::new(Instant::now());
        let (mut scc, mut dag_edges, mut solver_bytes) = (0, 0, 0);
        for op in 0..rounds as u64 {
            let t0 = Instant::now();
            let r = self.round(&inp, &mut Spans(None), op);
            untraced_ns += ns(t0.elapsed());
            failed += u64::from(r.answers != reference);
            drop(r);

            let r = self.round(&inp, &mut Spans(Some(&mut t)), op);
            failed += u64::from(r.answers != reference);
            let cond = r.closure.condensation();
            (scc, dag_edges) = (cond.len(), cond.dag.edge_count());
            solver_bytes = r.closure.memory_bytes();
            // Beside the op: the condensation alone, on the same graph, to
            // split `SparseClosure::new` into Tarjan and the DAG sweep.
            t.begin(BESIDE, op);
            let alone = t.time("closure.condense", op, || condense_csr(&r.graph));
            t.end();
            if alone.len() != scc {
                failed += 1;
            }
        }

        let sum = Summary::of(t.spans());
        let mut out = Outcome {
            attempted: rounds as u64,
            failed,
            counts: vec![("rounds", rounds as u64)],
            ..Outcome::default()
        };
        harness::layer_times(
            &mut out,
            &sum,
            "ms",
            &["closure.csr_build", "closure.condense", "closure.row"],
        );
        harness::layer_times(&mut out, &sum, "ns", &["closure.reachable"]);
        let close = sum.layer("closure.new");
        let derived = (close.per_call(1e6) - out.metrics["closure.condense_ms"].value).max(0.0);
        out.set("closure.dag_close_ms", derived, close.calls);
        out.set("closure.scc", scc as f64, 1);
        out.set("closure.dag_edges", dag_edges as f64, 1);
        out.set(
            "closure.solver_mb",
            solver_bytes as f64 / (1 << 20) as f64,
            1,
        );
        harness::trace_metrics(&mut out, &sum, untraced_ns);
        out.tracer = Some(t);
        Ok(out)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn tiny() -> Sparse {
        Sparse {
            n: 3000,
            d: 3,
            sources: 20,
            targets: 50,
            rows: 5,
            checked: 6,
            trace_rate: 2.0,
        }
    }

    #[test]
    fn the_oracle_accepts_the_closure_and_rejects_a_flipped_answer() {
        let w = tiny();
        let inp = w.inputs(3);
        let r = w.round(&inp, &mut Spans(None), 0);
        assert_eq!(w.check(&inp, &r.answers), 0);
        let mut bad = r.answers.clone();
        bad.bits[0] ^= 1;
        assert_eq!(w.check(&inp, &bad), 1);
        bad.rows[0] ^= 1;
        assert_eq!(w.check(&inp, &bad), 2);
    }
}
