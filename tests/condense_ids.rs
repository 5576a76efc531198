//! Pins the exact output of `condense_csr`: the component id of every
//! vertex, the member groups and the condensed DAG's CSR rows.
//!
//! The DAG sweep in `SparseClosure` relies on the id order (every
//! condensed edge runs from a higher id to a lower one), and the ids
//! themselves follow from the DFS order and the completion order of the
//! SCC pass. A change to that pass that keeps the partition but renumbers
//! components still shows up here. Each case pins `(components, DAG edges,
//! FNV-1a digest)`; the digests were recorded from the previous Tarjan
//! implementation.

use systolic::closure::{bowtie, condense_csr, gnp_csr, powerlaw, random_dag_csr, CsrGraph};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(components, DAG edges, digest of comp_of ‖ groups ‖ DAG rows)`.
fn fingerprint(g: &CsrGraph) -> (usize, usize, u64) {
    let cond = condense_csr(g);
    let mut h = Fnv::new();
    h.word(cond.comp_of.len() as u64);
    for &c in &cond.comp_of {
        h.word(u64::from(c));
    }
    h.word(cond.len() as u64);
    for group in cond.components() {
        h.word(group.len() as u64);
        for &v in group {
            h.word(u64::from(v));
        }
    }
    h.word(cond.dag.n() as u64);
    for a in 0..cond.dag.n() {
        let row = cond.dag.successors(a);
        h.word(row.len() as u64);
        for &b in row {
            h.word(u64::from(b));
        }
    }
    (cond.len(), cond.dag.edge_count(), h.0)
}

fn path(n: usize, closed: bool) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    if closed {
        edges.push((n as u32 - 1, 0));
    }
    CsrGraph::from_edges(n, &edges)
}

fn cases() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp 200 0.01", gnp_csr(200, 0.01, 1)),
        ("gnp 500 0.004", gnp_csr(500, 0.004, 2)),
        ("gnp 64 0.3", gnp_csr(64, 0.3, 3)),
        ("gnp 3000 0.0005", gnp_csr(3000, 0.0005, 4)),
        ("powerlaw 2000 3", powerlaw(2000, 3, 5)),
        ("powerlaw 300 6", powerlaw(300, 6, 6)),
        ("powerlaw 20000 4", powerlaw(20_000, 4, 7)),
        ("bowtie 500", bowtie(500, 8)),
        ("bowtie 90", bowtie(90, 11)),
        ("random dag 300", random_dag_csr(300, 0.02, 9)),
        ("random dag 64", random_dag_csr(64, 0.2, 10)),
        ("empty", CsrGraph::empty(0)),
        (
            "self-loops only",
            CsrGraph::from_edges(5, &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]),
        ),
        ("2-cycle", CsrGraph::from_edges(2, &[(0, 1), (1, 0)])),
        ("path 2e5", path(200_000, false)),
        ("cycle 2e5", path(200_000, true)),
    ]
}

const PINNED: &[(&str, usize, usize, u64)] = &[
    ("gnp 200 0.01", 67, 105, 0xdff9fff6db6e157d),
    ("gnp 500 0.004", 222, 313, 0xa519858a86db754d),
    ("gnp 64 0.3", 1, 0, 0xa55b2187c4a2ea85),
    ("gnp 3000 0.0005", 1934, 2625, 0x37b83d40df88e5a0),
    ("powerlaw 2000 3", 364, 435, 0xf20a8f14d8b3427e),
    ("powerlaw 300 6", 9, 8, 0xed9fbc39b58c8bfd),
    ("powerlaw 20000 4", 2154, 2469, 0xa984dcd3b99c1c4e),
    ("bowtie 500", 335, 437, 0xc19b29f5ac4d141b),
    ("bowtie 90", 61, 73, 0x59a4a75bb476cc3f),
    ("random dag 300", 300, 922, 0x39a4378a85536423),
    ("random dag 64", 64, 411, 0x269faf86fc1b8c41),
    ("empty", 0, 0, 0x81d23fd7003c2305),
    ("self-loops only", 5, 0, 0x22a02372b9491081),
    ("2-cycle", 1, 0, 0x56761656bf083924),
    ("path 2e5", 200000, 199999, 0xf3bb8f91a8fbca7b),
    ("cycle 2e5", 1, 0, 0x1cbdeadb573caf09),
];

#[test]
fn condense_csr_ids_are_pinned() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len());
    for ((name, g), &(pinned_name, c, e, digest)) in cases.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        let (got_c, got_e, got_digest) = fingerprint(g);
        assert_eq!((got_c, got_e), (c, e), "{name}: component/DAG-edge counts");
        assert_eq!(
            got_digest, digest,
            "{name}: digest 0x{got_digest:016x}, pinned 0x{digest:016x}"
        );
    }
}
