//! Seeded input generation and input fingerprints.
//!
//! Every input the benchmark feeds the program comes from this file, from
//! `--seed` alone, so the program under test sees only generated data and
//! a change to the program's own generators or PRNG cannot shift the
//! inputs. Fingerprints (counts plus an FNV-1a hash) of the default seed's
//! inputs are pinned in `fingerprints.json`.

use crate::json::Json;
use std::collections::HashMap;
use systolic_semiring::{Bool, DenseMatrix};

/// splitmix64: small, fast, and good enough to draw benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`tag`) of one seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2⁻³²
    /// for every bound used here).
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }
}

/// 64-bit FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash as it is pinned: a hex string (JSON numbers lose bits
    /// above 2⁵³).
    pub fn hex(&self) -> Json {
        Json::str(format!("{:#018x}", self.0))
    }
}

/// `count` Boolean adjacency matrices of `G(n, p)` digraphs without
/// self-loops. With `cycle`, each also gets the edges of a random
/// Hamiltonian cycle, which makes it strongly connected.
pub fn gnp_batch(
    rng: &mut Rng,
    count: usize,
    n: usize,
    p: f64,
    cycle: bool,
) -> Vec<DenseMatrix<Bool>> {
    (0..count)
        .map(|_| {
            let mut m = DenseMatrix::from_fn(n, n, |i, j| i != j && rng.f64() < p);
            if cycle {
                let mut order: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                for i in 0..n {
                    m.set(order[i], order[(i + 1) % n], true);
                }
            }
            m
        })
        .collect()
}

/// Hash of a pool of matrix batches, entry by entry.
pub fn hash_batches(pool: &[Vec<DenseMatrix<Bool>>]) -> Fnv {
    let mut h = Fnv::default();
    for m in pool.iter().flatten() {
        h.bytes(
            &m.as_slice()
                .iter()
                .map(|&b| u8::from(b))
                .collect::<Vec<_>>(),
        );
    }
    h
}

/// Power-law digraph edge list in the Barabási–Albert style: each new
/// vertex draws `d` targets from the multiset of earlier edge endpoints
/// (so in-degree is power-law distributed), and each edge is reciprocated
/// with probability 0.28 so that strongly connected components form.
pub fn powerlaw_edges(rng: &mut Rng, n: usize, d: usize) -> Vec<(u32, u32)> {
    const RECIPROCAL_P: f64 = 0.28;
    let mut edges = Vec::with_capacity(n * d * 5 / 4);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * d + 1);
    endpoints.push(0);
    for u in 1..n as u32 {
        for _ in 0..d.min(u as usize) {
            let t = endpoints[rng.below(endpoints.len())];
            if t == u {
                continue;
            }
            edges.push((u, t));
            endpoints.push(u);
            endpoints.push(t);
            if rng.f64() < RECIPROCAL_P {
                edges.push((t, u));
            }
        }
    }
    edges
}

pub fn hash_edges(edges: &[(u32, u32)]) -> Fnv {
    let mut h = Fnv::default();
    for &(u, v) in edges {
        h.u32(u);
        h.u32(v);
    }
    h
}

/// One service request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    Reach(u32, u32),
    Insert(u32, u32),
    Delete(u32, u32),
}

impl Cmd {
    /// The protocol line, newline included.
    pub fn line(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let _ = match *self {
            Cmd::Reach(u, v) => writeln!(out, "REACH {u} {v}"),
            Cmd::Insert(u, v) => writeln!(out, "INSERT {u} {v}"),
            Cmd::Delete(u, v) => writeln!(out, "DELETE {u} {v}"),
        };
    }

    fn hash_into(&self, h: &mut Fnv) {
        let (tag, u, v) = match *self {
            Cmd::Reach(u, v) => (0, u, v),
            Cmd::Insert(u, v) => (1, u, v),
            Cmd::Delete(u, v) => (2, u, v),
        };
        h.u32(tag);
        h.u32(u);
        h.u32(v);
    }
}

/// The edge set of one vertex range `lo..hi`, indexable for uniform
/// draws of an existing edge.
#[derive(Clone, Debug)]
pub struct EdgeSet {
    pub lo: u32,
    pub hi: u32,
    edges: Vec<(u32, u32)>,
    pos: HashMap<(u32, u32), usize>,
}

impl EdgeSet {
    /// `count` distinct random edges (no self-loops) inside `lo..hi`.
    pub fn random(rng: &mut Rng, lo: u32, hi: u32, count: usize) -> Self {
        let mut s = EdgeSet {
            lo,
            hi,
            edges: Vec::new(),
            pos: HashMap::new(),
        };
        while s.edges.len() < count {
            let e = s.draw_pair(rng);
            s.insert(e);
        }
        s
    }

    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    pub fn contains(&self, e: (u32, u32)) -> bool {
        self.pos.contains_key(&e)
    }

    fn draw_pair(&self, rng: &mut Rng) -> (u32, u32) {
        let span = (self.hi - self.lo) as usize;
        loop {
            let u = self.lo + rng.below(span) as u32;
            let v = self.lo + rng.below(span) as u32;
            if u != v {
                return (u, v);
            }
        }
    }

    /// Adds `e`; false when already present.
    pub fn insert(&mut self, e: (u32, u32)) -> bool {
        if self.pos.contains_key(&e) {
            return false;
        }
        self.pos.insert(e, self.edges.len());
        self.edges.push(e);
        true
    }

    /// Removes `e`; false when absent.
    pub fn remove(&mut self, e: (u32, u32)) -> bool {
        let Some(i) = self.pos.remove(&e) else {
            return false;
        };
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.pos.insert(moved, i);
        }
        true
    }
}

/// A closed-loop client's command stream over one vertex range: a
/// `reach`/`insert`/delete mix. Inserts add a new edge while the range
/// holds fewer than `cap` edges and re-insert an existing one otherwise;
/// deletes remove an existing edge. Started at `cap` edges, the edge count
/// therefore hovers at `cap`, so a run of any length sees the same kind of
/// graph.
#[derive(Clone, Debug)]
pub struct Stream {
    rng: Rng,
    reach: f64,
    insert: f64,
    cap: usize,
    edges: EdgeSet,
}

impl Stream {
    pub fn new(rng: Rng, reach: f64, insert: f64, edges: EdgeSet) -> Self {
        let cap = edges.edges().len();
        Stream {
            rng,
            reach,
            insert,
            cap,
            edges,
        }
    }

    /// The range's edges as of the commands drawn so far.
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    pub fn next_cmd(&mut self) -> Cmd {
        let x = self.rng.f64();
        let existing = |s: &mut Self| s.edges.edges()[s.rng.below(s.edges.edges().len())];
        if x < self.reach || self.edges.edges().is_empty() {
            let (u, v) = self.pair();
            Cmd::Reach(u, v)
        } else if x < self.reach + self.insert {
            let e = if self.edges.edges().len() < self.cap {
                loop {
                    let e = self.edges.draw_pair(&mut self.rng);
                    if !self.edges.contains(e) {
                        break e;
                    }
                }
            } else {
                existing(self)
            };
            self.edges.insert(e);
            Cmd::Insert(e.0, e.1)
        } else {
            let e = existing(self);
            self.edges.remove(e);
            Cmd::Delete(e.0, e.1)
        }
    }

    fn pair(&mut self) -> (u32, u32) {
        let span = (self.edges.hi - self.edges.lo) as usize;
        let u = self.edges.lo + self.rng.below(span) as u32;
        let v = self.edges.lo + self.rng.below(span) as u32;
        (u, v)
    }
}

/// Hash of the first `count` commands of a stream (the stream is cloned,
/// not advanced).
pub fn hash_stream(stream: &Stream, count: usize) -> Fnv {
    let mut s = stream.clone();
    let mut h = Fnv::default();
    for _ in 0..count {
        s.next_cmd().hash_into(&mut h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_tags_separate_streams() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(10) < 10 && r.f64() < 1.0));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn edge_set_removal_keeps_the_index_consistent() {
        let mut rng = Rng::new(1, 0);
        let mut s = EdgeSet::random(&mut rng, 10, 20, 30);
        assert_eq!(s.edges().len(), 30);
        let victims: Vec<_> = s.edges()[..10].to_vec();
        for e in &victims {
            assert!(s.remove(*e));
            assert!(!s.contains(*e));
        }
        assert!(s.edges().iter().all(|&e| s.contains(e)));
        assert!(s
            .edges()
            .iter()
            .all(|&(u, v)| u != v && (10..20).contains(&u) && (10..20).contains(&v)));
    }

    #[test]
    fn stream_edge_count_hovers_at_its_cap() {
        let mut rng = Rng::new(5, 0);
        let edges = EdgeSet::random(&mut rng, 0, 64, 100);
        let mut s = Stream::new(Rng::new(5, 1), 0.7, 0.2, edges);
        for _ in 0..5000 {
            s.next_cmd();
            assert!(s.edges.edges().len() <= 100);
        }
        assert!(s.edges.edges().len() >= 90);
    }
}
