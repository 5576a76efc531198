//! Pins the exact dependence graphs the elimination builders emit: every
//! node (kind, coordinates, layout position, cost) in id order, every edge
//! in insertion order, and the input and output terminal of every matrix
//! element, read row-major. The terminal maps are hash maps, so the graph's
//! `{:?}` is not stable; the digest walks them by `(i, j)` instead.
//!
//! `lu_graph(n)` and `faddeev_graph(n)` are elimination over an `msize ×
//! msize` matrix with `n - 1` and `n` levels (`msize = n` and `2n`). A
//! change to the shared builder that renumbers a node, reorders an edge
//! or moves a terminal shows up here.

use systolic_dgraph::{faddeev_graph, lu_graph, DependenceGraph};

/// 64-bit FNV-1a over UTF-8 text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(g: &DependenceGraph) -> u64 {
    let mut h = Fnv::new();
    h.text(&format!("n={} ", g.n()));
    for node in g.nodes() {
        h.text(&format!("{node:?} "));
    }
    for edge in g.edges() {
        h.text(&format!("{edge:?} "));
    }
    let n = g.n() as u32;
    for i in 0..n {
        for j in 0..n {
            h.text(&format!("{:?} {:?} ", g.input(i, j), g.output(i, j)));
        }
    }
    h.0
}

#[test]
fn elimination_builders_are_pinned() {
    let got: Vec<(String, u64)> = (2..=6)
        .map(|n| (format!("lu n={n}"), digest(&lu_graph(n))))
        .chain((1..=3).map(|n| (format!("faddeev n={n}"), digest(&faddeev_graph(n)))))
        .collect();
    assert_eq!(got.len(), PINNED.len());
    for ((name, digest), &(pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            *digest, pinned,
            "{name}: digest 0x{digest:016x}, pinned 0x{pinned:016x}"
        );
    }
}

const PINNED: &[(&str, u64)] = &[
    ("lu n=2", 0x9fbc678a357e39c8),
    ("lu n=3", 0x58c9d9b61c6b34f0),
    ("lu n=4", 0x99d158e2a23f9a3e),
    ("lu n=5", 0x1afb79c77a282ebc),
    ("lu n=6", 0x9b9d1f5db1eb3bc8),
    ("faddeev n=1", 0x9fbc678a357e39c8),
    ("faddeev n=2", 0x13e7ec3f4968ed00),
    ("faddeev n=3", 0x2c4e2881405dcb79),
];
