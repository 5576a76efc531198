//! Property-based correctness: random problems through every layer.

use systolic::baselines::nunez_closure;
use systolic::partition::{ClosureEngine, GridEngine, LinearEngine};
use systolic::transform::GGraph;
use systolic_semiring::{
    closure_by_squaring, reflexive, warshall, BitMatrix, Bool, DenseMatrix, MaxMin, MinPlus,
};
use systolic_util::{Checker, Rng};

fn bool_matrix(rng: &mut Rng, max_n: usize) -> DenseMatrix<Bool> {
    let n = 2 + rng.gen_usize(max_n - 1); // 2..=max_n
    DenseMatrix::from_fn(n, n, |_, _| rng.gen_bool(0.25))
}

fn weight_matrix(rng: &mut Rng, max_n: usize) -> DenseMatrix<MinPlus> {
    let n = 2 + rng.gen_usize(max_n - 1);
    DenseMatrix::from_fn(n, n, |_, _| {
        if rng.gen_bool(0.4) {
            u64::MAX
        } else {
            rng.gen_range_u64(1, 99)
        }
    })
}

#[test]
fn software_kernels_agree() {
    Checker::new("software kernels agree", 24).run(|rng| {
        let a = bool_matrix(rng, 12);
        let w = warshall(&a);
        assert_eq!(w, closure_by_squaring(&a));
        assert_eq!(w, nunez_closure(&a, 3));
        let bits = BitMatrix::from_dense(&a).transitive_closure();
        assert_eq!(BitMatrix::from_dense(&w), bits);
        Ok(())
    });
}

#[test]
fn blocked_warshall_handles_non_dividing_tiles() {
    Checker::new("blocked warshall non-dividing tiles", 24).run(|rng| {
        let a = bool_matrix(rng, 13);
        let n = a.rows();
        let want = warshall(&a);
        // Every tile size that does NOT divide n, including b > n (one
        // ragged tile covering everything) — the ragged boundary tiles are
        // the case the divisible-b tests never reach.
        for b in (1..=n + 2).filter(|&b| !n.is_multiple_of(b)) {
            assert_eq!(nunez_closure(&a, b), want, "n={n} b={b}");
        }
        // And a weighted semiring through the same ragged tiling.
        let d = weight_matrix(rng, 11);
        let m = d.rows();
        for b in (2..=m + 1).filter(|&b| !m.is_multiple_of(b)) {
            assert_eq!(nunez_closure(&d, b), warshall(&d), "minplus m={m} b={b}");
        }
        Ok(())
    });
}

#[test]
fn ggraph_stream_semantics_equal_warshall() {
    Checker::new("G-graph eval equals Warshall", 24).run(|rng| {
        let a = bool_matrix(rng, 12);
        let got = GGraph::new(a.rows()).eval::<Bool>(&reflexive(&a));
        assert_eq!(got, warshall(&a));
        Ok(())
    });
}

#[test]
fn closure_is_monotone_and_idempotent() {
    Checker::new("closure monotone and idempotent", 24).run(|rng| {
        let a = bool_matrix(rng, 10);
        let c = warshall(&a);
        let n = a.rows();
        for i in 0..n {
            for j in 0..n {
                if *a.get(i, j) {
                    assert!(*c.get(i, j), "A ≤ A⁺ at ({i},{j})");
                }
            }
            assert!(*c.get(i, i), "reflexive diagonal");
        }
        assert_eq!(warshall(&c), c);
        Ok(())
    });
}

#[test]
fn minplus_closure_satisfies_triangle_inequality() {
    Checker::new("min-plus triangle inequality", 24).run(|rng| {
        let d = weight_matrix(rng, 10);
        let c = warshall(&d);
        let n = d.rows();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let via = c.get(i, k).saturating_add(*c.get(k, j));
                    assert!(*c.get(i, j) <= via, "({i},{j}) via {k}");
                }
            }
        }
        Ok(())
    });
}

#[test]
fn transformation_stages_preserve_semantics() {
    Checker::new("transformation stages preserve semantics", 12).run(|rng| {
        use systolic::dgraph::eval_closure_graph;
        use systolic::transform::{pipelined, regular, unidirectional};
        let a = bool_matrix(rng, 9);
        let n = a.rows();
        let want = warshall(&a);
        let ar = reflexive(&a);
        for g in [pipelined(n), unidirectional(n), regular(n)] {
            assert_eq!(eval_closure_graph::<Bool>(&g, &ar).unwrap(), want);
        }
        Ok(())
    });
}

#[test]
fn blocked_baselines_match() {
    Checker::new("blocked baselines match", 12).run(|rng| {
        let a = bool_matrix(rng, 10);
        let b = 1 + rng.gen_usize(5); // 1..=5
        assert_eq!(nunez_closure(&a, b), warshall(&a));
        Ok(())
    });
}

// Simulation-backed cases are heavier; fewer cases, smaller n.

#[test]
fn linear_engine_matches_reference() {
    Checker::new("linear engine matches reference", 8).run(|rng| {
        let a = bool_matrix(rng, 9);
        let m = 1 + rng.gen_usize(5); // 1..=5
        let (got, stats) = LinearEngine::new(m).closure(&a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(stats.memory_connections, m + 1);
        Ok(())
    });
}

#[test]
fn grid_engine_matches_reference() {
    Checker::new("grid engine matches reference", 8).run(|rng| {
        let a = bool_matrix(rng, 9);
        let s = 1 + rng.gen_usize(3); // 1..=3
        let (got, stats) = GridEngine::new(s).closure(&a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(stats.memory_connections, 2 * s);
        Ok(())
    });
}

#[test]
fn degraded_arrays_stay_exact() {
    Checker::new("degraded arrays stay exact", 8).run(|rng| {
        use systolic::partition::FaultyLinearEngine;
        let a = bool_matrix(rng, 8);
        let physical = 3 + rng.gen_usize(4); // 3..=6
        let fault_bits = rng.next_u64() & 0x3f;
        let faults: Vec<usize> = (0..physical)
            .filter(|c| fault_bits & (1 << c) != 0)
            .collect();
        if faults.len() == physical {
            return Ok(()); // all cells faulty: nothing to run on
        }
        let eng = FaultyLinearEngine::new(physical, &faults).unwrap();
        let (got, stats) = eng.closure(&a).unwrap();
        assert_eq!(got, warshall(&a));
        assert_eq!(stats.cells, physical - faults.len());
        Ok(())
    });
}

#[test]
fn engines_agree_over_maxmin() {
    Checker::new("engines agree over max-min", 8).run(|rng| {
        let n = 3 + rng.gen_usize(5); // 3..=7
        let a = DenseMatrix::<MaxMin>::from_fn(n, n, |i, j| {
            if i != j && rng.gen_bool(0.4) {
                rng.gen_range_u64(1, 49)
            } else {
                0
            }
        });
        let want = warshall(&a);
        let (lin, _) = LinearEngine::new(2).closure(&a).unwrap();
        let (grd, _) = GridEngine::new(2).closure(&a).unwrap();
        assert_eq!(lin, want);
        assert_eq!(grd, want);
        Ok(())
    });
}
