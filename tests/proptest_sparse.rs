//! Property-based equivalence for the sparse data plane.
//!
//! Two closure paths must agree bit-for-bit on random graphs: the
//! sparse CSR pipeline (`sparse_closure`, Tarjan on CSR + component-DAG
//! row-union) and the independent `BitMatrix` pivot sweep — both
//! reflexive. On top of that: the on-demand DFS mode must answer every
//! pair exactly like the materialized closure, the Matrix-Market
//! loader must round-trip bit-identically (and reject malformed input
//! with errors, never panics).

use systolic::closure::{
    gnp_csr, powerlaw, sparse_closure, ClosureMode, CsrGraph, SparseClosure, SparseOptions,
};
use systolic::semiring::BitMatrix;
use systolic_util::{Checker, Rng};

/// A random graph drawn from one of the CSR generators, small enough to
/// compare against the dense n×n oracle.
fn random_graph(rng: &mut Rng) -> CsrGraph {
    let seed = rng.gen_range_u64(0, u64::MAX);
    match rng.gen_usize(3) {
        0 => {
            let n = 1 + rng.gen_usize(256);
            let p = [0.002, 0.01, 0.05, 0.3][rng.gen_usize(4)];
            gnp_csr(n, p, seed)
        }
        1 => {
            let n = 2 + rng.gen_usize(255);
            let d = 1 + rng.gen_usize(6);
            powerlaw(n, d, seed)
        }
        _ => {
            // Hand-rolled edge soup, including self-loops and duplicates,
            // to exercise paths the generators never emit.
            let n = 1 + rng.gen_usize(48);
            let e = rng.gen_usize(4 * n);
            let edges: Vec<(u32, u32)> = (0..e)
                .map(|_| (rng.gen_usize(n) as u32, rng.gen_usize(n) as u32))
                .collect();
            CsrGraph::from_edges(n, &edges)
        }
    }
}

fn dense_oracle(g: &CsrGraph) -> BitMatrix {
    let mut m = BitMatrix::zeros(g.n());
    for (u, v) in g.edges() {
        m.set(u as usize, v as usize, true);
    }
    m.transitive_closure()
}

#[test]
fn sparse_condensation_and_dense_sweep_agree() {
    Checker::new("sparse ≡ dense sweep", 24).run(|rng| {
        let g = random_graph(rng);
        let want = dense_oracle(&g);
        let sc = sparse_closure(&g);
        if sc.mode() != ClosureMode::Exact {
            return Err(format!("expected Exact mode at n={}", g.n()));
        }
        if sc.to_bitmatrix() != want {
            return Err(format!("sparse path diverged at n={}", g.n()));
        }
        // Row/query API agrees with the matrix view on sampled vertices.
        for _ in 0..16 {
            let u = rng.gen_usize(g.n());
            let v = rng.gen_usize(g.n());
            if sc.reachable(u, v) != want.get(u, v) {
                return Err(format!("reachable({u}, {v}) diverged at n={}", g.n()));
            }
            let row = sc.row(u);
            if row.len() != sc.row_len(u) {
                return Err(format!("row_len({u}) != row({u}).len() at n={}", g.n()));
            }
            if row.iter().any(|&w| !want.get(u, w as usize)) {
                return Err(format!("row({u}) contains unreachable vertex"));
            }
        }
        Ok(())
    });
}

#[test]
fn on_demand_mode_answers_like_exact() {
    Checker::new("on-demand DFS ≡ materialized closure", 16).run(|rng| {
        let g = random_graph(rng);
        let n = g.n();
        if n > 96 {
            return Ok(()); // all-pairs scan below; keep the case cheap
        }
        let want = dense_oracle(&g);
        let opts = SparseOptions {
            max_closure_bytes: 0, // force the DFS fallback
        };
        let sc = SparseClosure::with_options(&g, opts);
        if sc.mode() != ClosureMode::OnDemand {
            return Err("max_closure_bytes=0 must force OnDemand".into());
        }
        for u in 0..n {
            for v in 0..n {
                if sc.reachable(u, v) != want.get(u, v) {
                    return Err(format!("on-demand reachable({u}, {v}) diverged at n={n}"));
                }
            }
            let mut row = sc.row(u);
            row.sort_unstable();
            let want_row: Vec<u32> = (0..n)
                .filter(|&v| want.get(u, v))
                .map(|v| v as u32)
                .collect();
            if row != want_row {
                return Err(format!("on-demand row({u}) diverged at n={n}"));
            }
        }
        Ok(())
    });
}

#[test]
fn matrix_market_round_trip_is_bit_identical() {
    Checker::new("Matrix-Market round trip", 24).run(|rng| {
        let g = random_graph(rng);
        let text = g.to_matrix_market();
        let back = CsrGraph::parse_matrix_market(&text)
            .map_err(|e| format!("round trip failed to parse: {e}"))?;
        if back != g {
            return Err(format!(
                "round trip not bit-identical at n={} e={}",
                g.n(),
                g.edge_count()
            ));
        }
        Ok(())
    });
}

#[test]
fn file_round_trip_preserves_graph() {
    let g = powerlaw(500, 4, 99);
    let path = std::env::temp_dir().join(format!(
        "systolic-proptest-roundtrip-{}.mtx",
        std::process::id()
    ));
    g.save(&path).unwrap();
    let back = CsrGraph::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, g);
}

#[test]
fn malformed_matrix_market_errors_do_not_panic() {
    let cases: &[(&str, &str)] = &[
        ("", "empty file"),
        (
            "%%MatrixMarket matrix coordinate pattern general\n",
            "missing size line",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n1 2 3 4\n",
            "4-field entry",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 5 1\n1 2\n",
            "non-square",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\nfour 4 1\n1 2\n",
            "bad dimension",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 4 2\n1 2\n",
            "nnz mismatch",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n0 2\n",
            "0-based index",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n5 2\n",
            "out of range",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n1\n",
            "missing column",
        ),
        (
            "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n1 x\n",
            "bad column",
        ),
        ("not a header\n4 4 1\n1 2\n", "bad header"),
    ];
    for (text, what) in cases {
        assert!(
            CsrGraph::parse_matrix_market(text).is_err(),
            "malformed input ({what}) parsed successfully"
        );
    }
}
