//! Experiment implementations regenerating every quantitative claim of the
//! paper (the E01–E30 index of `DESIGN.md`).
//!
//! Each experiment runs its workload, asserts its claims and returns a
//! Markdown section with paper-vs-measured rows. [`EXPERIMENTS`] is the one
//! list of them: the `experiments` binary prints their sections as
//! `EXPERIMENTS.md`, and `tests/experiments_pinned.rs` holds every section
//! to that file with the wall-clock cells each entry declares masked (E29
//! and E30 through `tests/e29_pinned.rs` and `tests/e30_pinned.rs`).

#![forbid(unsafe_code)]

pub mod campaign;
mod serve;
pub mod sparse;

use sparse::e29;

use campaign::{run_campaign, CampaignConfig};
use std::fmt::Write as _;
use systolic_baselines::{CoalescingModel, KungArrayModel, NunezEngine};
use systolic_closure::{gnp, random_weighted, ClosureSolver};
use systolic_dgraph::{
    broadcast_census, closure_full, closure_lean, direction_census, level_histogram, longest_path,
    superfluous_count,
};
use systolic_metrics::{
    compare_grid_run, compare_linear_run, mapping_utilization, tradeoff_row, FixedLinearModel,
    FixedModel, LinearModel, MappingKind, MetricRow,
};
use systolic_partition::{
    elimination_input, level_durations, run_elimination_timed, Algo, ClosureEngine,
    FixedArrayEngine, FixedLinearEngine, GridEngine, GsetSchedule, LinearEngine, LsgpEngine,
    PackedEngine, ParallelEngine,
};
use systolic_semiring::{warshall, Bool, DenseMatrix};
use systolic_transform::{lu_time_grid, pipelined, regular, unidirectional, validate_stage};

/// Default problem size for simulation-backed experiments.
pub const N_SIM: usize = 24;
/// Default instance count for throughput measurements.
pub const CHAIN: usize = 6;

fn adj(n: usize, seed: u64) -> DenseMatrix<Bool> {
    let g = gnp(n, 0.15, seed);
    g.adjacency_matrix()
}

/// Deterministic Boolean batch of E21, E23, E24 and E28: `instances`
/// random `n × n` adjacency matrices.
fn parallel_batch_input(instances: usize, n: usize, seed: u64) -> Vec<DenseMatrix<Bool>> {
    (0..instances)
        .map(|i| adj(n, seed.wrapping_add(i as u64)))
        .collect()
}

/// Deterministic weighted batch of E28: `instances` random `n × n`
/// distance matrices whose finite weights are `1..=wmax`, chosen so the
/// batch stays inside the SWAR u8 lanes' exact domain when
/// `(n − 1) · wmax < 255`.
fn minplus_batch_input(
    instances: usize,
    n: usize,
    seed: u64,
    wmax: u64,
) -> Vec<DenseMatrix<systolic_semiring::MinPlus>> {
    (0..instances)
        .map(|i| random_weighted(n, 0.15, 1, wmax, seed.wrapping_add(i as u64)).distance_matrix())
        .collect()
}

fn rows_table(out: &mut String, rows: &[MetricRow]) {
    let _ = writeln!(out, "| metric | paper | measured | measured/paper |");
    let _ = writeln!(out, "|---|---:|---:|---:|");
    for r in rows {
        let ratio = if r.paper == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:.3}", r.ratio())
        };
        let _ = writeln!(
            out,
            "| {} | {:.6} | {:.6} | {} |",
            r.metric, r.paper, r.measured, ratio
        );
    }
}

/// Steady-state cycles per instance: runs a short and a long chained batch
/// and differences them, eliminating the pipeline fill/drain cost.
fn marginal_cycles<E: ClosureEngine<Bool>>(
    eng: &E,
    n: usize,
    seed0: u64,
    k1: usize,
    k2: usize,
) -> f64 {
    let run = |k: usize| -> u64 {
        let batch: Vec<_> = (0..k).map(|i| adj(n, seed0 + i as u64)).collect();
        let (res, stats) = eng.closure_many(&batch).unwrap();
        for (i, r) in res.iter().enumerate() {
            assert_eq!(*r, warshall(&batch[i]));
        }
        stats.cycles
    };
    (run(k2) - run(k1)) as f64 / (k2 - k1) as f64
}

/// E01 — Fig. 10: fully-parallel graph structure.
fn e01() -> String {
    let mut out = String::from("## E01 — Fully-parallel dependence graph (Fig. 10)\n\n");
    let _ = writeln!(
        out,
        "| n | nodes (paper n³) | levels | longest path (paper n) | max fan-out |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
    for n in [4usize, 8, 16, 24] {
        let g = closure_full(n);
        let bc = broadcast_census(&g);
        let _ = writeln!(
            out,
            "| {n} | {} / {} | {} | {} / {n} | {} |",
            g.compute_node_count(),
            n * n * n,
            level_histogram(&g).len(),
            longest_path(&g),
            bc.max_fanout
        );
    }
    out.push('\n');
    out
}

/// E02 — Fig. 11: superfluous-node elimination.
fn e02() -> String {
    let mut out = String::from("## E02 — Superfluous nodes (Fig. 11, §4.2)\n\n");
    let _ = writeln!(
        out,
        "| n | total n³ | superfluous (paper 3n²−2n) | useful (paper n(n−1)(n−2)) | builder useful |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
    for n in [4usize, 8, 16, 32] {
        let (total, sup, useful) = superfluous_count(n);
        let built = closure_lean(n).compute_node_count();
        let _ = writeln!(out, "| {n} | {total} | {sup} | {useful} | {built} |");
        assert_eq!(useful, built);
    }
    out.push('\n');
    out
}

/// E03 — Fig. 12: broadcast removal by pipelining.
fn e03() -> String {
    let mut out = String::from("## E03 — Broadcast removal (Fig. 12)\n\n");
    let _ = writeln!(out, "| n | max fan-out before | after pipelining |");
    let _ = writeln!(out, "|---:|---:|---:|");
    for n in [8usize, 16, 24] {
        let before = broadcast_census(&closure_lean(n)).max_fanout;
        let after = broadcast_census(&pipelined(n)).max_fanout;
        let _ = writeln!(out, "| {n} | {before} | {after} |");
    }
    let _ = writeln!(
        out,
        "\nFan-out drops from Θ(n) to a small constant; evaluation of the transformed graph still equals Warshall's (checked by the test suite).\n"
    );
    out
}

/// E04 — Fig. 13–14: bi-directional flow removal.
fn e04() -> String {
    let mut out = String::from("## E04 — Flipping to uni-directional flow (Fig. 13–14)\n\n");
    let _ = writeln!(out, "| n | stage | unidirectional x | unidirectional y |");
    let _ = writeln!(out, "|---:|---|---|---|");
    for n in [8usize, 16] {
        let b = direction_census(&pipelined(n));
        let a = direction_census(&unidirectional(n));
        let _ = writeln!(
            out,
            "| {n} | pipelined (Fig. 12) | {} | {} |",
            b.unidirectional_x(),
            b.unidirectional_y()
        );
        let _ = writeln!(
            out,
            "| {n} | flipped (Fig. 14) | {} | {} |",
            a.unidirectional_x(),
            a.unidirectional_y()
        );
    }
    out.push('\n');
    out
}

/// E05 — Fig. 15–16: communication regularization.
fn e05() -> String {
    let mut out = String::from("## E05 — Regularization by delay nodes (Fig. 15–16)\n\n");
    let _ = writeln!(
        out,
        "| n | wrap reach before (Θ(n)) | after (O(1)) | inter-strip patterns after |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|");
    for n in [8usize, 16, 24] {
        let before = validate_stage(&unidirectional(n));
        let after = validate_stage(&regular(n));
        let _ = writeln!(
            out,
            "| {n} | {} | {} | {} |",
            before.inter_max_abs_dx, after.inter_max_abs_dx, after.inter_patterns
        );
    }
    out.push('\n');
    out
}

/// E06 — Fig. 17: fixed-size array throughput 1/n.
fn e06() -> String {
    let mut out = String::from("## E06 — Fixed-size array (Fig. 17): throughput 1/n\n\n");
    let _ = writeln!(
        out,
        "| n | steady-state cycles/instance | paper n | measured/paper |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|");
    for n in [8usize, 16, 24] {
        let eng = FixedArrayEngine::new();
        let per = marginal_cycles(&eng, n, 0, CHAIN, 3 * CHAIN);
        let model = FixedModel { n };
        let _ = writeln!(
            out,
            "| {n} | {per:.1} | {:.0} | {:.3} |",
            1.0 / model.throughput(),
            per * model.throughput()
        );
    }
    let _ = writeln!(
        out,
        "\nData transfers overlap computation (no load phase) and instances chain without gaps; compare E14.\n"
    );
    out
}

/// E07 — §3.2: linear fixed-size array, throughput 1/(n(n+1)).
fn e07() -> String {
    let mut out =
        String::from("## E07 — Linear fixed-size array (§3.2): throughput 1/(n(n+1))\n\n");
    let _ = writeln!(
        out,
        "| n | steady-state cycles/instance | paper n(n+1) | measured/paper |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|");
    for n in [6usize, 10, 14] {
        let eng = FixedLinearEngine::new();
        let per = marginal_cycles(&eng, n, 10, CHAIN, 3 * CHAIN);
        let model = FixedLinearModel { n };
        let _ = writeln!(
            out,
            "| {n} | {per:.1} | {:.0} | {:.3} |",
            1.0 / model.throughput(),
            per * model.throughput()
        );
    }
    out.push('\n');
    out
}

/// The §4.2 claims on one partitioned run's rows (`compare_*_run`'s, then
/// the marginal throughput): memory connections exactly as the model
/// counts them; throughput, utilization and host I/O at most the paper's
/// values, which assume no fill, drain or boundary-set idling; and a
/// steady state at least as fast as the whole run, whose gap is fill.
/// Returns the throughput's measured/paper ratio.
fn assert_partitioned_claims(label: &str, connections: usize, rows: &[MetricRow]) -> f64 {
    let [throughput, utilization, io, memory, _stalls, marginal] = rows else {
        panic!("{label}: expected six rows, got {}", rows.len());
    };
    assert_eq!(
        memory.measured, connections as f64,
        "{label}: memory connections"
    );
    for r in [throughput, utilization, io] {
        assert!(
            r.ratio() <= 1.0,
            "{label}: {} measured/paper {:.3} above 1",
            r.metric,
            r.ratio()
        );
    }
    assert!(
        marginal.measured >= throughput.measured,
        "{label}: marginal throughput {} below total {}",
        marginal.measured,
        throughput.measured
    );
    throughput.ratio()
}

/// E08 — Fig. 18 / §4.2: linear partitioned array.
fn e08() -> String {
    let mut out = String::from("## E08 — Linear partitioned array (Fig. 18, §4.2)\n\n");
    let mut ratio = std::collections::HashMap::new();
    for (n, m) in [(N_SIM, 4usize), (N_SIM, 8), (32, 4)] {
        let batch: Vec<_> = (0..3).map(|i| adj(n, 20 + i as u64)).collect();
        let eng = LinearEngine::new(m);
        let (res, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        for (i, r) in res.iter().enumerate() {
            assert_eq!(*r, warshall(&batch[i]));
        }
        let _ = writeln!(
            out,
            "### n = {n}, m = {m} ({} chained instances)\n",
            batch.len()
        );
        let mut rows = compare_linear_run(n, m, &stats, batch.len() as u64);
        rows.push(MetricRow {
            metric: "steady-state throughput (marginal)".into(),
            paper: LinearModel { n, m }.throughput(),
            measured: 1.0 / marginal_cycles(&eng, n, 20, 2, 5),
        });
        let label = format!("E08 n={n} m={m}");
        ratio.insert((n, m), assert_partitioned_claims(&label, m + 1, &rows));
        rows_table(&mut out, &rows);
        out.push('\n');
    }
    assert!(
        ratio[&(32, 4)] > ratio[&(N_SIM, 4)],
        "E08 m=4: throughput ratio {:.3} at n=32 not above {:.3} at n={N_SIM}",
        ratio[&(32, 4)],
        ratio[&(N_SIM, 4)]
    );
    let _ = writeln!(
        out,
        "The gap between total and steady-state throughput is pipeline fill; the residual steady-state gap is the paper's acknowledged boundary-set idling (partial G-sets at the parallelogram edges), which vanishes as n/m grows.\n"
    );
    out
}

/// E09 — Fig. 19 / §4.2: 2-D partitioned array.
fn e09() -> String {
    let mut out = String::from("## E09 — Two-dimensional partitioned array (Fig. 19, §4.2)\n\n");
    let mut ratio = std::collections::HashMap::new();
    for (n, s) in [(N_SIM, 2usize), (N_SIM, 3), (32, 2)] {
        let batch: Vec<_> = (0..3).map(|i| adj(n, 30 + i as u64)).collect();
        let eng = GridEngine::new(s);
        let (res, stats) = ClosureEngine::<Bool>::closure_many(&eng, &batch).unwrap();
        for (i, r) in res.iter().enumerate() {
            assert_eq!(*r, warshall(&batch[i]));
        }
        let _ = writeln!(
            out,
            "### n = {n}, √m = {s} ({} chained instances)\n",
            batch.len()
        );
        let mut rows = compare_grid_run(n, s, &stats, batch.len() as u64);
        rows.push(MetricRow {
            metric: "steady-state throughput (marginal)".into(),
            paper: LinearModel { n, m: s * s }.throughput(),
            measured: 1.0 / marginal_cycles(&eng, n, 30, 2, 5),
        });
        let label = format!("E09 n={n} √m={s}");
        ratio.insert((n, s), assert_partitioned_claims(&label, 2 * s, &rows));
        rows_table(&mut out, &rows);
        out.push('\n');
    }
    assert!(
        ratio[&(32, 2)] > ratio[&(N_SIM, 2)],
        "E09 √m=2: throughput ratio {:.3} at n=32 not above {:.3} at n={N_SIM}",
        ratio[&(32, 2)],
        ratio[&(N_SIM, 2)]
    );
    out
}

/// E10 — Fig. 20: G-set scheduling legality and pipelining.
fn e10() -> String {
    let mut out = String::from("## E10 — G-set schedule (Fig. 20)\n\n");
    let _ = writeln!(
        out,
        "| n | m | mapping | G-sets | paper n(n+1)/m | boundary sets | legal |"
    );
    let _ = writeln!(out, "|---:|---:|---|---:|---:|---:|---|");
    for (n, m, grid) in [
        (24usize, 4usize, false),
        (24, 6, false),
        (24, 2, true),
        (24, 3, true),
    ] {
        let sched = if grid {
            GsetSchedule::grid(n, m)
        } else {
            GsetSchedule::linear(n, m)
        };
        let cells = if grid { m * m } else { m };
        let legal = sched.verify_legal().is_ok();
        let _ = writeln!(
            out,
            "| {n} | {cells} | {} | {} | {:.1} | {} | {legal} |",
            if grid { "grid" } else { "linear" },
            sched.len(),
            (n * (n + 1)) as f64 / cells as f64,
            sched.boundary_sets()
        );
        assert!(legal);
    }
    let _ = writeln!(
        out,
        "\nEarliest-start tags follow t(k,g) = 2k + g (the Fig. 20 wavefront); G-sets initiate every n cycles.\n"
    );
    out
}

/// E11 — Fig. 21: host I/O bandwidth m/n.
fn e11() -> String {
    let mut out = String::from("## E11 — Host I/O bandwidth (Fig. 21): D = m/n\n\n");
    let _ = writeln!(
        out,
        "| n | array | cells m | paper m/n | measured words/cycle | ratio |"
    );
    let _ = writeln!(out, "|---:|---|---:|---:|---:|---:|");
    for (n, m) in [(24usize, 4usize), (24, 8), (32, 4)] {
        let batch: Vec<_> = (0..3).map(|i| adj(n, 40 + i as u64)).collect();
        let (_, lstats) =
            ClosureEngine::<Bool>::closure_many(&LinearEngine::new(m), &batch).unwrap();
        let model = LinearModel { n, m };
        let _ = writeln!(
            out,
            "| {n} | linear | {m} | {:.4} | {:.4} | {:.3} |",
            model.io_bandwidth(),
            lstats.io_bandwidth(),
            lstats.io_bandwidth() / model.io_bandwidth()
        );
    }
    for (n, s) in [(24usize, 2usize), (24, 3)] {
        let batch: Vec<_> = (0..3).map(|i| adj(n, 50 + i as u64)).collect();
        let (_, gstats) = ClosureEngine::<Bool>::closure_many(&GridEngine::new(s), &batch).unwrap();
        let model = LinearModel { n, m: s * s };
        let _ = writeln!(
            out,
            "| {n} | grid | {} | {:.4} | {:.4} | {:.3} |",
            s * s,
            model.io_bandwidth(),
            gstats.io_bandwidth(),
            gstats.io_bandwidth() / model.io_bandwidth()
        );
    }
    let _ = writeln!(
        out,
        "\nLinear and 2-D arrays draw the same bandwidth from the host, as §3.2 concludes. The R-block chain decouples transfer from compute: for n = 24, m = 4 the host runs strictly below one word/cycle while peak R-block buffering stays bounded (measured peak {} words for a 3-instance run).\n",
        {
            let batch: Vec<_> = (0..3).map(|i| adj(24, 40 + i as u64)).collect();
            let (_, s) = ClosureEngine::<Bool>::closure_many(&LinearEngine::new(4), &batch).unwrap();
            s.host_peak_resident
        }
    );
    out
}

/// E12 — §4.2: linear vs 2-D trade-off sweep.
fn e12() -> String {
    let mut out = String::from("## E12 — Linear vs 2-D trade-off (§4.2)\n\n");
    let _ = writeln!(
        out,
        "| n | m | throughput | utilization | D_io | mem conn linear (m+1) | mem conn grid (2√m) | boundary idle linear | boundary idle grid |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for n in [16usize, 32, 64, 128] {
        for s in [2usize, 4] {
            let r = tradeoff_row(n, s);
            let _ = writeln!(
                out,
                "| {n} | {} | {:.2e} | {:.4} | {:.3} | {} | {} | {:.3} | {:.3} |",
                r.m,
                r.throughput,
                r.utilization,
                r.io_bandwidth,
                r.linear_mem_connections,
                r.grid_mem_connections,
                r.linear_boundary_idle,
                r.grid_boundary_idle
            );
        }
    }
    out.push('\n');
    out
}

/// E13 — Fig. 22 / §4.3: varying G-node computation time.
fn e13() -> String {
    let mut out =
        String::from("## E13 — Varying G-node times (Fig. 22, §4.3): LU decomposition\n\n");
    let _ = writeln!(
        out,
        "| n | m | linear interior U | 2-D interior U | linear-packed total U | 2-D total U |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|");
    for n in [16usize, 32, 64] {
        for m in [4usize, 16] {
            let grid = lu_time_grid(n);
            let lin = mapping_utilization(&grid, m, MappingKind::Linear);
            let packed = mapping_utilization(&grid, m, MappingKind::LinearPacked);
            let two = mapping_utilization(&grid, m, MappingKind::TwoDimensional);
            let _ = writeln!(
                out,
                "| {n} | {m} | {:.4} | {:.4} | {:.4} | {:.4} |",
                lin.interior_utilization(),
                two.interior_utilization(),
                packed.utilization,
                two.utilization
            );
        }
    }
    let _ = writeln!(
        out,
        "\nEqual-time paths give the linear mapping interior utilization 1.0 while any 2-D G-set mixes times (< 1), the Fig. 22 claim. Note an honest nuance: the 2-D mapping's triangular boundary sets amortize raggedness, so on *total* utilization the path-at-a-time linear mapping can trail; packing paths end-to-end restores the linear win.\n"
    );
    out
}

/// E14 — §3.2 vs \[23\]: Kung's array comparison.
fn e14() -> String {
    let mut out = String::from("## E14 — Fixed-size array vs S.Y. Kung's array [23]\n\n");
    let _ = writeln!(out, "| n | ours cycles/instance (measured) | Kung load+reuse (model) | speedup | ours control modes | Kung control modes |");
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|");
    for n in [8usize, 16, 24] {
        let per = marginal_cycles(&FixedArrayEngine::new(), n, 60, CHAIN, 3 * CHAIN);
        let kung = KungArrayModel::new(n);
        let _ = writeln!(
            out,
            "| {n} | {per:.1} | {} | {:.2}× | 1 | {} |",
            kung.cycles_per_instance(),
            kung.cycles_per_instance() as f64 / per,
            kung.control_modes()
        );
    }
    out.push('\n');
    out
}

/// E15 — §1 vs \[22\]: Núñez–Torralba decomposition overhead, with both
/// partitioning schemes *measured* on the cycle-level simulator at equal
/// cell count (`m = b²`).
fn e15() -> String {
    use systolic_baselines::NunezSimEngine;
    let mut out = String::from("## E15 — Decomposition baseline (Núñez–Torralba [22])\n\n");
    let _ = writeln!(out, "### Analytic sub-problem accounting\n");
    let _ = writeln!(out, "| n | tile b | sub-problems | control steps | transfer overhead fraction | cut-and-pile overhead |");
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|");
    for (n, b) in [(24usize, 4usize), (24, 8), (32, 8)] {
        let a = adj(n, 70);
        let (res, cost) = NunezEngine::new(b).closure(&a).expect("valid tile");
        assert_eq!(res, warshall(&a));
        let _ = writeln!(
            out,
            "| {n} | {b} | {} | {} | {:.3} | 0.000 |",
            cost.diagonal_closures + cost.multiplies,
            cost.control_steps,
            cost.overhead_fraction()
        );
    }
    let _ = writeln!(
        out,
        "\n### Measured on the simulator (equal cells m = b²)\n"
    );
    let _ = writeln!(
        out,
        "| n | cells m | [22] cycles (b×b matmul array) | [22] transfer fraction | cut-and-pile cycles (linear, m cells) | slowdown |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|");
    for (n, b) in [(16usize, 3usize), (24, 4)] {
        let a = adj(n, 71);
        let want = warshall(&a);
        let (res, nsim) = NunezSimEngine::new(b).closure(&a).unwrap();
        assert_eq!(res, want);
        let (res2, lin) = ClosureEngine::<Bool>::closure(&LinearEngine::new(b * b), &a).unwrap();
        assert_eq!(res2, want);
        let _ = writeln!(
            out,
            "| {n} | {} | {} | {:.3} | {} | {:.2}× |",
            b * b,
            nsim.total_cycles,
            nsim.overhead_fraction(),
            lin.cycles,
            nsim.total_cycles as f64 / lin.cycles as f64
        );
    }
    let _ = writeln!(
        out,
        "\nThe decomposition computes the same closure but chains O((n/b)³) sub-problems with host control and non-overlapped tile load/unload phases; cut-and-pile overlaps every transfer with computation (§4.2), and the measured head-to-head at equal cell count shows the resulting slowdown.\n"
    );
    out
}

/// E16 — §2: coalescing (LSGP) memory requirements.
fn e16() -> String {
    let mut out = String::from("## E16 — Coalescing (LSGP) memory vs cut-and-pile (§2)\n\n");
    let _ = writeln!(
        out,
        "| n | m | LSGP words/cell (Θ(n²/m)) | cut-and-pile words/cell | LSGP makespan / ideal |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
    for (n, m) in [(32usize, 4usize), (64, 4), (128, 8)] {
        let c = CoalescingModel::new(n, m);
        let ideal = (n * n * (n + 1) / m) as f64;
        let _ = writeln!(
            out,
            "| {n} | {m} | {} | {} | {:.3} |",
            c.local_words_per_cell(),
            c.cut_and_pile_local_words(),
            c.makespan_cycles() as f64 / ideal
        );
    }
    out.push('\n');
    out
}

/// E17 — semiring generality: the same arrays solve the whole algebraic
/// path family.
fn e17() -> String {
    use systolic_closure::Backend;
    let mut out = String::from("## E17 — Semiring generality (methodology extension)\n\n");
    let _ = writeln!(
        out,
        "| problem | semiring | backend | agrees with reference |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    let g = random_weighted(12, 0.3, 1, 50, 77);
    let reference = ClosureSolver::new(Backend::Reference);
    for (name, backend) in [
        ("linear m=4", Backend::Linear { cells: 4 }),
        ("grid 2×2", Backend::Grid { side: 2 }),
        ("fixed array", Backend::FixedArray),
    ] {
        let solver = ClosureSolver::new(backend);
        let sp = solver.shortest_paths(&g).unwrap() == reference.shortest_paths(&g).unwrap();
        let wp = solver.widest_paths(&g).unwrap() == reference.widest_paths(&g).unwrap();
        let mm = solver.minimax_paths(&g).unwrap() == reference.minimax_paths(&g).unwrap();
        let _ = writeln!(out, "| shortest paths | min-plus | {name} | {sp} |");
        let _ = writeln!(out, "| widest paths | max-min | {name} | {wp} |");
        let _ = writeln!(out, "| minimax paths | min-max | {name} | {mm} |");
        assert!(sp && wp && mm);
    }
    out.push('\n');
    out
}

/// E18 — Fig. 6/Fig. 8: G-node grouping alternatives and their computation
/// time patterns.
fn e18() -> String {
    use systolic_transform::{grouping_profile, GroupingAxis};
    let mut out = String::from("## E18 — Grouping alternatives (Fig. 6, Fig. 8)\n\n");
    let _ = writeln!(
        out,
        "| n | axis | G-nodes | uniform times | rows uniform | max time |"
    );
    let _ = writeln!(out, "|---:|---|---:|---|---|---:|");
    for n in [8usize, 16] {
        let g = systolic_dgraph::closure_lean(n);
        for axis in [
            GroupingAxis::Horizontal,
            GroupingAxis::Vertical,
            GroupingAxis::Diagonal,
            GroupingAxis::Block(4),
        ] {
            let grid = grouping_profile(&g, axis);
            let _ = writeln!(
                out,
                "| {n} | {axis:?} | {} | {} | {} | {} |",
                grid.len(),
                grid.is_uniform(),
                grid.rows_uniform(),
                grid.max_time()
            );
        }
    }
    let _ = writeln!(
        out,
        "\nFor partitioned execution only the nodes of one G-set need equal time (Fig. 8), which is why the method has freedom the fixed-size design lacks (Fig. 9); the delay-regularized grouping used by the engines achieves fully uniform G-nodes (E06).\n"
    );
    out
}

/// E19 — §5: fault tolerance of linear vs 2-D arrays, measured.
fn e19() -> String {
    use systolic_partition::{grid_fault_capacity, linear_fault_capacity, FaultyLinearEngine};
    let mut out = String::from("## E19 — Fault tolerance (§5)\n\n");
    let n = 16;
    let m = 8;
    let a = adj(n, 90);
    let (_, healthy) = ClosureEngine::<Bool>::closure(&LinearEngine::new(m), &a).unwrap();
    let _ = writeln!(
        out,
        "Linear array, n = {n}, m = {m}, bypass reconfiguration; every degraded run still computes the exact closure.\n"
    );
    let _ = writeln!(
        out,
        "| faults | cells left | measured slowdown | ideal m/(m−f) |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|");
    for f in 1..=4usize {
        let fault_set: Vec<usize> = (0..f).map(|i| 2 * i + 1).collect();
        let eng = FaultyLinearEngine::new(m, &fault_set).unwrap();
        let (got, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(got, warshall(&a));
        let _ = writeln!(
            out,
            "| {f} | {} | {:.3} | {:.3} |",
            eng.healthy_cells(),
            stats.cycles as f64 / healthy.cycles as f64,
            m as f64 / (m - f) as f64
        );
    }
    let _ = writeln!(out, "\nWorst-case remaining capacity (m = 16 cells):\n");
    let _ = writeln!(
        out,
        "| faults | linear bypass | 4×4 mesh row+column retirement |"
    );
    let _ = writeln!(out, "|---:|---:|---:|");
    for f in 0..=4usize {
        let _ = writeln!(
            out,
            "| {f} | {:.3} | {:.3} |",
            linear_fault_capacity(16, f),
            grid_fault_capacity(4, f)
        );
    }
    out.push('\n');
    out
}

/// E20 — §4.3's full algorithm list: varying-time profiles for LU, Faddeev,
/// Givens and triangular inverse, with linear vs 2-D mapping utilization.
fn e20() -> String {
    use systolic_transform::{faddeev_time_grid, givens_time_grid, triangular_inverse_time_grid};
    let mut out = String::from("## E20 — §4.3 algorithm family: varying G-node times\n\n");
    let _ = writeln!(
        out,
        "| algorithm | time pattern | linear interior U | 2-D interior U (m=16) |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|");
    let cases: Vec<(&str, &str, systolic_transform::TimeGrid)> = vec![
        ("LU decomposition", "decreasing", lu_time_grid(32)),
        ("Faddeev", "decreasing (2n wide)", faddeev_time_grid(16)),
        (
            "Givens triangularization",
            "decreasing",
            givens_time_grid(32),
        ),
        (
            "triangular inverse",
            "increasing",
            triangular_inverse_time_grid(32),
        ),
    ];
    for (name, pattern, grid) in cases {
        let lin = mapping_utilization(&grid, 16, MappingKind::Linear);
        let two = mapping_utilization(&grid, 16, MappingKind::TwoDimensional);
        let _ = writeln!(
            out,
            "| {name} | {pattern} | {:.4} | {:.4} |",
            lin.interior_utilization(),
            two.interior_utilization()
        );
        assert!((lin.interior_utilization() - 1.0).abs() < 1e-12);
        assert!(two.interior_utilization() < 1.0);
    }
    let _ = writeln!(
        out,
        "\nEvery §4.3 example has equal-time paths (linear mapping: interior utilization 1.0) that no 2-D G-set can match — the paper's closing argument for linear arrays.\n"
    );
    out
}

/// E21 — host-side batch parallelism: `ParallelEngine` sharding a batch
/// across engine replicas is bit-identical to the serial chained batch for
/// every thread count, with thread-count-invariant merged counters.
fn e21() -> String {
    let mut out = String::from("## E21 — host-side batch parallelism (ParallelEngine)\n\n");
    let batch = parallel_batch_input(8, N_SIM, 77);
    let serial = LinearEngine::new(8);
    let expected: Vec<_> = batch.iter().map(|a| serial.closure(a).unwrap().0).collect();
    let base = ParallelEngine::new(LinearEngine::new(8), 1)
        .closure_many(&batch)
        .unwrap()
        .1;
    let _ = writeln!(
        out,
        "| threads | results == serial | merged cycles | merged useful ops | stats == 1-thread |"
    );
    let _ = writeln!(out, "|---:|---|---:|---:|---|");
    for threads in [1usize, 2, 4] {
        let par = ParallelEngine::new(LinearEngine::new(8), threads);
        let (got, stats) = par.closure_many(&batch).unwrap();
        let identical = got == expected;
        let invariant = stats == base;
        let _ = writeln!(
            out,
            "| {threads} | {identical} | {} | {} | {invariant} |",
            stats.cycles, stats.useful_ops
        );
        assert!(identical, "parallel results diverged at {threads} threads");
        assert!(invariant, "merged stats diverged at {threads} threads");
    }
    let _ = writeln!(
        out,
        "\nEach instance runs the exact single-instance simulation on a pool replica; merged stats fold in instance order, so only wall time depends on the thread count. The section pins that identity, not a speedup.\n"
    );
    out
}

/// E22 — fault-injection campaign: ABFT checksum detection coverage and
/// checkpoint-retry recovery on the linear partitioned array.
fn e22() -> String {
    let mut out =
        String::from("## E22 — fault-injection campaign (detection coverage and recovery)\n\n");
    let _ = writeln!(
        out,
        "| campaign | rate | injected | detected | escaped | harmless | coverage | retries | bypasses | (m−f)/m | cycle overhead | deterministic |"
    );
    let _ = writeln!(
        out,
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|"
    );
    let base = CampaignConfig::default();
    let rows: Vec<(&str, CampaignConfig)> = vec![
        (
            "transients, low",
            CampaignConfig {
                rate: 1e-5,
                ..base.clone()
            },
        ),
        ("transients, pinned", base.clone()),
        (
            "transients, heavy",
            CampaignConfig {
                rate: 3e-4,
                instances: 48,
                ..base.clone()
            },
        ),
        (
            "hot cell 1 (marginal)",
            CampaignConfig {
                instances: 6,
                hot_cell: Some((1, 200.0)),
                ..base.clone()
            },
        ),
    ];
    for (label, cfg) in rows {
        let r1 = run_campaign(&cfg).unwrap();
        let r2 = run_campaign(&cfg).unwrap();
        let deterministic = r1 == r2;
        let harmless: u64 = r1.kinds.iter().map(|k| k.harmless).sum();
        let escaped: u64 = r1.kinds.iter().map(|k| k.escaped).sum();
        let _ = writeln!(
            out,
            "| {label} | {:.0e} | {} | {} | {escaped} | {harmless} | {} | {} | {} | {:.2} | {:.2}× | {deterministic} |",
            cfg.rate,
            r1.fault.injected,
            r1.fault.detected,
            match r1.coverage() {
                Some(c) => format!("{:.1}%", 100.0 * c),
                None => "n/a".into(),
            },
            r1.fault.retries,
            r1.fault.bypasses,
            r1.degradation(cfg.cells),
            r1.cycle_overhead(),
        );
        assert!(
            deterministic,
            "{label}: same seed must reproduce the report"
        );
        assert_eq!(
            r1.unexplained_mismatches, 0,
            "{label}: a closure diverged without any injected fault to blame"
        );
        if label.contains("pinned") {
            assert!(
                r1.fault.injected >= 100,
                "pinned campaign must inject ≥ 100 faults, got {}",
                r1.fault.injected
            );
            let c = r1.coverage().expect("pinned campaign injects VC faults");
            assert!(c >= 0.95, "pinned coverage {c} below the 95% claim");
        }
        if label.contains("hot") {
            assert!(r1.fault.bypasses >= 1, "hot cell must be retired");
            assert!(r1.bypassed_cells >= 1);
            assert!(r1.results_match, "post-bypass closures must be exact");
        }
    }
    let _ = writeln!(
        out,
        "\nEvery row is audited against the software reference: *detected* faults hit attempts the semiring-checksum verifier (or the simulator itself) rejected, triggering a checkpoint retry; *harmless* faults were masked by the idempotent fold; *escaped* faults produced an accepted closure that differs from the reference — always the documented blind spot (a corruption whose transitive consequences were fully re-closed into a self-witnessing closure of a larger input), never an unexplained divergence. The heavy row drives a cell past its retry budget: escalation retires it onto the bypass chain (E19) and the batch finishes exactly on m − f cells, which is also how the marginal hot cell ends. Reproduce any row with `systolic campaign --seed {} --rate R`.\n",
        CampaignConfig::default().seed
    );
    out
}

/// One E23 row: runs `batch` with a fresh engine per call (empty plan
/// cache, schedule rebuilt every time) and with one long-lived engine
/// (compile-once plan cache plus recycled simulator), asserting the two
/// modes are byte-identical before timing them.
fn plan_reuse_row<E: ClosureEngine<Bool>>(
    out: &mut String,
    label: &str,
    batch: &[DenseMatrix<Bool>],
    make: impl Fn() -> E,
) {
    use std::time::Instant;
    let iters = 5u32;
    let warm = make();
    let (first_res, first_stats) = warm.closure_many(batch).unwrap();
    let (cached_res, cached_stats) = warm.closure_many(batch).unwrap();
    let (fresh_res, fresh_stats) = make().closure_many(batch).unwrap();
    for (r, a) in fresh_res.iter().zip(batch) {
        assert_eq!(*r, warshall(a), "{label}: fresh run diverged from Warshall");
    }
    let results_ok = cached_res == fresh_res && first_res == fresh_res;
    let stats_ok = cached_stats == fresh_stats && first_stats == fresh_stats;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = make().closure_many(batch).unwrap();
    }
    let fresh_t = t0.elapsed().as_secs_f64() / f64::from(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = warm.closure_many(batch).unwrap();
    }
    let cached_t = t0.elapsed().as_secs_f64() / f64::from(iters);
    let _ = writeln!(
        out,
        "| {label} | {results_ok} | {stats_ok} | {:.2} ms | {:.2} ms | {:.2}× |",
        1e3 * fresh_t,
        1e3 * cached_t,
        fresh_t / cached_t
    );
    assert!(results_ok, "{label}: cached plan changed the results");
    assert!(stats_ok, "{label}: cached plan changed the run stats");
}

/// E23 — compile-once G-set schedules: executing a batch from the memoized
/// `CompiledPlan` (and a recycled simulator) is byte-identical to
/// rebuilding the schedule on every call; only construction time differs.
fn e23() -> String {
    let mut out = String::from("## E23 — compile-once schedules (plan-cache reuse)\n\n");
    let _ = writeln!(
        out,
        "| engine | results identical | stats identical | fresh build | cached plan | speedup |"
    );
    let _ = writeln!(out, "|---|---|---|---:|---:|---:|");
    let batch = parallel_batch_input(8, N_SIM, 91);
    plan_reuse_row(&mut out, "linear m=4", &batch, || LinearEngine::new(4));
    plan_reuse_row(&mut out, "grid 2×2", &batch, || GridEngine::new(2));
    let small = parallel_batch_input(6, 12, 92);
    plan_reuse_row(&mut out, "fixed n×(n+1)", &small, FixedArrayEngine::new);
    plan_reuse_row(&mut out, "fixed linear", &small, FixedLinearEngine::new);
    let _ = writeln!(
        out,
        "\nEvery engine memoizes one `CompiledPlan` per `(n, batch)` shape — interned stream slots, task programs, host demand order — and replays it on a reset simulator; `RunStats` equality covers every counter except wall time. Reproduce with `systolic plancache`.\n"
    );
    out
}

/// E24 — bit-sliced Boolean data plane: `PackedEngine` transposes a
/// Boolean batch into lane words and runs the cached single-instance plan
/// once per group of up to 256 instances, each group on the narrowest
/// lane word that holds it. Results and instance-order merged stats are
/// bit-identical to the scalar per-instance runs; the simulated-event
/// count (and with it wall time) drops by the lane occupancy of each
/// group.
fn e24() -> String {
    let mut out = String::from("## E24 — bit-sliced Boolean batches (PackedEngine)\n\n");
    let _ = writeln!(
        out,
        "| batch | lane groups | results identical | merged stats identical | scalar cycles | packed sim cycles | cycle ratio |"
    );
    let _ = writeln!(out, "|---:|---:|---|---|---:|---:|---:|");
    let scalar = LinearEngine::new(4);
    let packed = PackedEngine::new(4);
    for instances in [1usize, 32, 64, 65, 128] {
        let batch = parallel_batch_input(instances, N_SIM, 24);
        // The scalar per-instance contract both engines must agree on.
        let mut want = Vec::with_capacity(instances);
        let mut want_stats: Option<systolic_arraysim::RunStats> = None;
        for a in &batch {
            let (c, s) = scalar.closure(a).expect("scalar closure");
            want.push(c);
            match &mut want_stats {
                None => want_stats = Some(s),
                Some(acc) => acc.merge(&s),
            }
        }
        let want_stats = want_stats.expect("non-empty batch");
        let (got, got_stats, groups) = packed.closure_many_counted(&batch).expect("packed closure");
        let results_ok = got == want;
        let stats_ok = got_stats == want_stats;
        // Cycles actually *simulated* by the packed path: merged cycles
        // are lane-scaled for the per-instance contract, so divide each
        // group back down to the single shared run it really executed.
        let per_run = want_stats.cycles / instances as u64;
        let sim_cycles = per_run * groups as u64;
        let _ = writeln!(
            out,
            "| {instances} | {groups} | {results_ok} | {stats_ok} | {} | {sim_cycles} | {:.1}× |",
            want_stats.cycles,
            want_stats.cycles as f64 / sim_cycles as f64,
        );
        assert!(results_ok, "packed results diverged at batch {instances}");
        assert!(stats_ok, "packed stats diverged at batch {instances}");
        assert_eq!(groups, 1, "a batch of {instances} is one simulation");
    }
    let _ = writeln!(
        out,
        "\nThe schedule never inspects values, so up to 256 Boolean instances ride the lanes of one lane word through a single simulated run (`OR`/`AND` are per-lane word ops — SWAR bit-slicing); each group takes the narrowest word that holds it, 64 lanes up to 64 instances, 128 up to 128 and 256 above, so every batch here is one simulation. Armed fault plans without a target lane fall back to the scalar path so injection semantics are untouched. Reproduce with `systolic packed`.\n"
    );
    out
}

/// E25 — §2 realized: the simulated coalescing (LSGP) engine against E16's
/// analytic model. Every instance must match Warshall bit-for-bit, the
/// measured per-cell storage high-water mark must land at exactly
/// `⌈n/m⌉·n` words (the live column window — half the model's `⌈2n/m⌉·n`
/// upper bound over all owned columns, same `Θ(n²/m)`), and the measured
/// makespan must track the model's sequential component time.
fn e25() -> String {
    let mut out =
        String::from("## E25 — simulated coalescing (LSGP) engine vs analytic model (§2)\n\n");
    let _ = writeln!(
        out,
        "| n | m | matches Warshall | measured words/cell | model Θ(n²/m) | measured/model | measured cycles | model makespan | slack |"
    );
    let _ = writeln!(out, "|---:|---:|---|---:|---:|---:|---:|---:|---:|");
    for (n, m) in [(12usize, 3usize), (24, 8), (32, 4), (64, 4)] {
        let eng = LsgpEngine::new(m);
        let batch = [adj(n, 7), adj(n, 8)];
        let (res, stats) = eng.closure_many(&batch).expect("lsgp closure");
        let ok = res.iter().zip(&batch).all(|(r, a)| *r == warshall(a));
        assert!(ok, "LSGP diverged from Warshall at n={n} m={m}");
        let mdl = CoalescingModel::new(n, m);
        let peak = eng.peak_local_words(&stats);
        // The paper's Θ(n²/m) reservation, pinned exactly: the resident
        // window is the ⌈n/m⌉ live columns of the current row sweep.
        assert_eq!(peak, n.div_ceil(m) * n, "peak words at n={n} m={m}");
        // Batched run: compare per-instance cycles to the one-instance model.
        let per_inst = stats.cycles / batch.len() as u64;
        let slack = per_inst as f64 / mdl.makespan_cycles() as f64;
        let _ = writeln!(
            out,
            "| {n} | {m} | {ok} | {peak} | {} | {:.3} | {per_inst} | {} | {:.3} |",
            mdl.local_words_per_cell(),
            peak as f64 / mdl.local_words_per_cell() as f64,
            mdl.makespan_cycles(),
            slack,
        );
        assert!(
            (0.8..=1.4).contains(&slack),
            "LSGP makespan slack {slack:.3} out of band at n={n} m={m}"
        );
    }
    let _ = writeln!(
        out,
        "\nE16 models coalescing's memory cost analytically; here the LSGP mapping actually *runs* on the cycle-level simulator (`MappedEngine<LsgpMapping>`): column streams stay in the owning cell's private bank (the measured high-water mark above), pivots ride the `c → c+1` ring with one wrap bank — `m + 1` memory connections, like the linear cut-and-pile array, but `Θ(n²/m)` local words instead of `O(1)`. Reproduce with `systolic closure --backend lsgp:4 …`.\n"
    );
    out
}

/// E26 — the long-running reachability service (`systolic serve`):
/// sustained command throughput and per-`REACH` latency of the maintained
/// closure under a pinned seeded stream (70% `REACH`, 20% `INSERT`, 10%
/// `DELETE`). The closure is a component id per vertex plus one
/// list-or-bits row per component; an insert that changes reachability
/// rebuilds those rows, and deletes dirty the closure and coalesce into
/// one recompute through the condensation at the next read — in
/// software, or packed with other tenants through the admission batcher
/// onto the packed engine. Every answer is cross-checked against
/// a full-recompute Warshall oracle before a number is reported.
fn e26() -> String {
    let mut out = String::from("## E26 — reachability service throughput & latency (serve)\n\n");
    let _ = writeln!(
        out,
        "| recompute path | n | commands | REACH queries | cmd/s | p50 µs | p99 µs | max µs | oracle-checked |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---|");
    for (n, count, cells) in [(64usize, 20_000usize, None), (24, 2_000, Some(4usize))] {
        let r = serve::run_stream(n, count, 20_260_808, cells);
        assert!(r.ok, "serve stream diverged from the recompute oracle");
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.0} | {:.3} | {:.3} | {:.3} | {} |",
            r.id, r.n, r.commands, r.reaches, r.qps, r.p50_us, r.p99_us, r.max_us, r.ok
        );
    }
    let _ = writeln!(
        out,
        "\np50 is a component lookup and one row test of the maintained `R*`; the \
         tail (p99/max) is where a preceding `DELETE` forces the recompute through \
         the condensation, so it tracks the condensation cost rather than the \
         query. Absolute numbers are machine-dependent, so the section asserts \
         only protocol correctness (every answer against the oracle); the \
         repository benchmark's `serve_read` and `serve_write` workloads time the \
         service end to end. Reproduce with `systolic serve` or `cargo run \
         --release -p systolic-bench --bin experiments e26`.\n"
    );
    out
}

/// E27 — the hardened service: a durable service killed cold and
/// reopened (recovery timed, closure oracle-checked), and four concurrent
/// TCP sessions over one shared closure, every answer oracle-checked by
/// its client.
fn e27() -> String {
    let mut out =
        String::from("## E27 — hardened service: recovery correctness & concurrent sessions\n\n");
    let _ = writeln!(
        out,
        "| run | n | work | wal bytes | recover ms | qps | oracle-checked |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---|");
    let r = serve::run_recover(64, 5000, 20_260_808);
    assert!(r.ok, "recovered closure diverged from the recompute oracle");
    let _ = writeln!(
        out,
        "| serve_recover (kill -9 + reopen) | {} | {} mutations | {} | {:.2} | — | {} |",
        r.n, r.ops, r.wal_bytes, r.recover_ms, r.ok
    );
    let c = serve::run_concurrent(48, 4, 1000, 20_260_808);
    assert!(c.ok, "a concurrent answer diverged or a session failed");
    let _ = writeln!(
        out,
        "| serve_concurrent ({} TCP clients) | {} | {} REACH | — | — | {:.0} | {} |",
        c.clients, c.n, c.queries, c.qps, c.ok
    );
    let _ = writeln!(
        out,
        "\nRecovery (`Durability::open`: snapshot load + WAL-tail replay + closure \
         rebuild) is timed after dropping a durable service cold; the recovered \
         closure must equal a Warshall recompute of the committed history, and \
         `tests/serve_chaos.rs` sharpens the same contract to *every* WAL truncation \
         offset (torn tail discarded, longest committed prefix restored — DESIGN \
         §13). The concurrent run serves four TCP sessions from one \
         `RwLock`-shared closure with every answer checked client-side against the \
         oracle; aggregate qps includes connection setup and the line-protocol \
         round trips (`TCP_NODELAY` — Nagle + delayed-ACK otherwise caps a \
         write-then-read protocol at ~46 qps). Each request and each reply leaves \
         in one write (DESIGN §13, reply framing), so the round trip is one \
         segment each way. Absolute numbers are machine-dependent; the section \
         fails on a lost session or an oracle mismatch, and the experiments test \
         fails if either row goes missing. Reproduce with `cargo run --release -p \
         systolic-bench --bin experiments e27`.\n"
    );
    out
}

/// E28 — the widened packed data plane: the one Boolean packed engine
/// against the same batches cut into 64-instance calls (and the scalar
/// engine), the SWAR tropical plane vs scalar min-plus, and the
/// lane-targeted fault campaign's containment audit.
///
/// Wall-clock numbers are machine-dependent; in optimized builds the
/// section asserts its three speedup bars on its own same-run timings. The
/// simulation counts and the containment columns are deterministic.
fn e28() -> String {
    use campaign::{run_packed_campaign, PackedCampaignConfig};
    use systolic_semiring::MinPlusSwar8;

    fn timed<R>(mut f: impl FnMut() -> R) -> f64 {
        f(); // warm the plan cache so only streaming is measured
        let started = std::time::Instant::now();
        std::hint::black_box(f());
        started.elapsed().as_secs_f64() * 1e3
    }

    let mut out = String::from(
        "## E28 — widened packed data plane (one Boolean engine over 64/128/256-lane words, SWAR min-plus, packed faults)\n\n",
    );
    let (m, n) = (4usize, 32usize);

    // The one Boolean engine: each batch in one call, and cut into
    // 64-instance calls, best of `reps` alternating timings after a warm
    // call; the scalar engine on the 128-instance batch.
    let reps = if cfg!(debug_assertions) { 1 } else { 3 };
    let batch = parallel_batch_input(320, n, 0x5eed);
    let scalar = LinearEngine::new(m);
    let scalar_ms = timed(|| scalar.closure_many(&batch[..128]).unwrap());
    let packed = PackedEngine::new(m);
    let _ = writeln!(
        out,
        "| batch (n = {n}) | simulations | batch ms | 64-instance calls | calls ms | speedup vs calls | scalar ms | speedup vs scalar |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|---:|");
    let (mut vs_scalar, mut vs_calls) = (0.0, 0.0);
    for len in [64usize, 128, 256, 320] {
        let b = &batch[..len];
        packed.closure_many(b).unwrap();
        let (mut one_ms, mut calls_ms) = (f64::INFINITY, f64::INFINITY);
        let (mut simulations, mut calls) = (0, 0);
        for _ in 0..reps {
            let started = std::time::Instant::now();
            simulations = std::hint::black_box(packed.closure_many_counted(b).unwrap()).2;
            one_ms = one_ms.min(started.elapsed().as_secs_f64() * 1e3);
            let started = std::time::Instant::now();
            calls = b
                .chunks(64)
                .map(|c| std::hint::black_box(packed.closure_many_counted(c).unwrap()).2)
                .sum();
            calls_ms = calls_ms.min(started.elapsed().as_secs_f64() * 1e3);
        }
        // The rule: one simulation per 256 instances, in batch order.
        assert_eq!(simulations, len.div_ceil(256), "simulations for {len}");
        assert_eq!(calls, len.div_ceil(64), "64-instance calls for {len}");
        let (scalar_cell, scalar_ratio) = if len == 128 {
            vs_scalar = scalar_ms / one_ms;
            (format!("{scalar_ms:.2}"), format!("{vs_scalar:.1}×"))
        } else {
            ("—".to_string(), "—".to_string())
        };
        if len == 256 {
            vs_calls = calls_ms / one_ms;
        }
        let _ = writeln!(
            out,
            "| {len} | {simulations} | {one_ms:.2} | {calls} | {calls_ms:.2} | {:.2}× | {scalar_cell} | {scalar_ratio} |",
            calls_ms / one_ms
        );
    }

    // SWAR tropical plane vs scalar min-plus, inside the exact domain.
    let weighted = minplus_batch_input(32, n, 0x5eed, 8);
    let mp_ms = timed(|| {
        ClosureEngine::<systolic_semiring::MinPlus>::closure_many(&scalar, &weighted).unwrap()
    });
    let swar = PackedEngine::<MinPlusSwar8>::over(m);
    let swar_ms = timed(|| swar.closure_many(&weighted).unwrap());
    let _ = writeln!(
        out,
        "\n| weighted plane | lanes | batch ms | speedup | bit-identical |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---|");
    let reference: Vec<_> = weighted.iter().map(warshall).collect();
    let exact = swar.closure_many(&weighted).unwrap().0 == reference
        && ClosureEngine::<systolic_semiring::MinPlus>::closure_many(&scalar, &weighted)
            .unwrap()
            .0
            == reference;
    let _ = writeln!(
        out,
        "| min-plus (scalar) | 1 | {mp_ms:.2} | 1.0× | {exact} |"
    );
    let _ = writeln!(
        out,
        "| min-plus-swar-8x8 | 8 | {swar_ms:.2} | {:.1}× | {exact} |",
        mp_ms / swar_ms
    );
    // Claims about optimized code, so unoptimized builds skip them.
    if !cfg!(debug_assertions) {
        let swar = mp_ms / swar_ms;
        assert!(
            vs_scalar >= 8.0,
            "packed ran {vs_scalar:.1}× scalar, bar 8×"
        );
        assert!(
            vs_calls >= 1.5,
            "one 256-instance simulation ran {vs_calls:.2}× four 64-lane calls, bar 1.5×"
        );
        assert!(swar >= 4.0, "SWAR min-plus ran {swar:.1}× scalar, bar 4×");
    }

    // Lane-targeted fault campaign: containment audit (deterministic).
    let cfg = PackedCampaignConfig::default();
    let r = run_packed_campaign(&cfg).expect("packed campaign runs clean");
    let _ = writeln!(
        out,
        "\n| packed campaign | injected | mismatched | off-target | unexplained | scalar fallbacks | contained |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---|");
    let _ = writeln!(
        out,
        "| lane {} of {} (seed {}) | {} | {} | {} | {} | {} | {} |",
        cfg.target_lane,
        r.lanes,
        cfg.seed,
        r.injected,
        r.mismatched_instances,
        r.off_target_mismatches,
        r.unexplained_mismatches,
        r.raw_fallback_runs + r.recovering_fallback_runs,
        r.contained()
    );
    assert!(r.contained(), "packed campaign containment must hold");
    let _ = writeln!(
        out,
        "\nThe Boolean packed engine is one engine: a clean batch runs as one \
         simulation per 256 instances, in batch order, each on the narrowest lane \
         word that holds it (64 lanes up to 64 instances, 128 up to 128, 256 \
         above), and the section asserts that count. One 256-instance simulation \
         pays one simulated event stream where four 64-instance calls pay four; a \
         64-instance batch runs on the 64-lane word either way. The SWAR plane \
         carries 8 saturating u8 distances per word and is exact whenever \
         (n−1)·wmax < 255 (here 31·8 = 248); out-of-domain batches fall back to the \
         scalar path automatically. The campaign shows a lane-targeted fault \
         corrupting only its own instance, with per-instance blame and no scalar \
         fallback; a targeted batch keeps 64-lane groups, so the mask names lane \
         `L mod 64` of every group — `systolic campaign --packed-lane L` reproduces \
         it. In optimized builds the section asserts the packed engine ≥ 8× scalar \
         at 128 instances, one 256-instance simulation ≥ 1.5× four 64-instance \
         calls, and SWAR ≥ 4× scalar min-plus, on these same-run timings.\n"
    );
    out
}

/// The §4.3 numbers behind E30: LU with per-level durations `n - k` run on
/// a 4-cell linear chain and a 2×2 grid, measured cell occupancy next to
/// the lock-step analytic model over the same time grid.
struct VaryingMeasurement {
    /// LU problem size.
    n: usize,
    /// Cells in both arrays (m = s² = 4).
    cells: usize,
    /// Measured occupancy of the linear chain (m = 4).
    measured_linear: f64,
    /// Measured occupancy of the 2×2 grid.
    measured_grid: f64,
    /// Lock-step analytic utilization, linear mapping.
    analytic_linear: f64,
    /// Lock-step analytic utilization, two-dimensional mapping.
    analytic_grid: f64,
    /// Analytic interior utilization (boundary raggedness excluded),
    /// linear mapping — 1.0, since equal-time paths never mix.
    interior_linear: f64,
    /// Analytic interior utilization, two-dimensional mapping.
    interior_grid: f64,
}

/// Pinned tolerance between measured occupancy and the lock-step analytic
/// model: the simulator pays pipeline fill/drain and link latency the
/// closed form ignores, which lands within ±0.02 for n ≥ 16.
const E30_TOLERANCE: f64 = 0.02;

impl VaryingMeasurement {
    /// True when the §4.3 claims hold on this run: linear occupancy is at
    /// least the grid's, and both measurements sit within
    /// [`E30_TOLERANCE`] of their analytic predictions.
    fn gates_hold(&self) -> bool {
        self.measured_linear >= self.measured_grid
            && (self.measured_linear - self.analytic_linear).abs() <= E30_TOLERANCE
            && (self.measured_grid - self.analytic_grid).abs() <= E30_TOLERANCE
    }
}

/// Runs the E30 workload at problem size `n` and cross-checks that both
/// mappings produce bit-identical factors before reporting utilization.
fn varying_measurement(n: usize) -> VaryingMeasurement {
    let durs = level_durations(Algo::Lu, n);
    let a = elimination_input(n, 24);
    let (f_lin, lin) = run_elimination_timed(&LinearEngine::new(4), Algo::Lu, &a, &durs)
        .expect("linear elimination runs clean");
    let (f_grid, grid) = run_elimination_timed(&GridEngine::new(2), Algo::Lu, &a, &durs)
        .expect("grid elimination runs clean");
    assert_eq!(f_lin, f_grid, "mappings must agree bit-for-bit");
    let tg = Algo::Lu.graph(n).with_row_durations(&durs).time_grid();
    let a_lin = mapping_utilization(&tg, 4, MappingKind::Linear);
    let a_grid = mapping_utilization(&tg, 4, MappingKind::TwoDimensional);
    VaryingMeasurement {
        n,
        cells: 4,
        measured_linear: lin.occupancy(),
        measured_grid: grid.occupancy(),
        analytic_linear: a_lin.utilization,
        analytic_grid: a_grid.utilization,
        interior_linear: a_lin.interior_utilization(),
        interior_grid: a_grid.interior_utilization(),
    }
}

/// E30 — §4.3 linear vs grid utilization under varying G-node times,
/// measured on the simulated LU pipeline and cross-validated against the
/// lock-step analytic model of `systolic_metrics::varying`.
fn e30() -> String {
    let mut out = String::from(
        "## E30 — varying G-node times: measured linear vs grid utilization (§4.3, LU)\n\n",
    );
    let _ = writeln!(
        out,
        "| n | cells | measured linear | measured grid | analytic linear | analytic grid | interior linear | interior grid | within ±{E30_TOLERANCE} |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|---:|---:|---|");
    for n in [16usize, 24, 32] {
        let m = varying_measurement(n);
        let _ = writeln!(
            out,
            "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} |",
            m.n,
            m.cells,
            m.measured_linear,
            m.measured_grid,
            m.analytic_linear,
            m.analytic_grid,
            m.interior_linear,
            m.interior_grid,
            m.gates_hold()
        );
        assert!(
            m.gates_hold(),
            "E30 gate failed at n={n}: measured ({:.4}, {:.4}) vs analytic ({:.4}, {:.4})",
            m.measured_linear,
            m.measured_grid,
            m.analytic_linear,
            m.analytic_grid
        );
    }
    let _ = writeln!(
        out,
        "\nLevel k of LU still works on an (n−k)×(n−k) trailing submatrix, so its \
         per-word duration is n−k: rows of the G-graph are equal-time paths. The \
         linear chain maps each G-set inside one row (zero time mixing — analytic \
         interior utilization exactly 1.0), while a 2×2 grid block chains a fast \
         row behind a slow one and idles for the rate difference. The measured \
         occupancy of the event-driven simulator lands within ±{E30_TOLERANCE} of the \
         lock-step closed form for both mappings, and the linear array wins at \
         equal cell count — the §4.3 conclusion, measured. Both runs produce \
         bit-identical L\\U factors. Reproduce with `systolic algo lu --timed` and \
         `cargo run --release -p systolic-bench --bin experiments e30`.\n"
    );
    out
}

/// One experiment of the E01–E30 index: the function that regenerates its
/// section of `EXPERIMENTS.md`, and the cells of that section that hold
/// wall-clock figures. Every other cell is a simulated count, a closed
/// form or a seeded tally, and is pinned byte for byte.
pub struct Experiment {
    /// Section name, `E01`–`E30`.
    pub name: &'static str,
    /// Runs the experiment, asserting its claims, and returns its section.
    pub run: fn() -> String,
    /// Headers of the table columns whose cells are wall-clock figures.
    pub timed_columns: &'static [&'static str],
    /// Opening words of the prose lines whose `… ms` figures and `N×`
    /// ratios are wall-clock figures.
    pub timed_lines: &'static [&'static str],
}

const fn untimed(name: &'static str, run: fn() -> String) -> Experiment {
    Experiment {
        name,
        run,
        timed_columns: &[],
        timed_lines: &[],
    }
}

/// Every experiment, in report order.
pub const EXPERIMENTS: &[Experiment] = &[
    untimed("E01", e01),
    untimed("E02", e02),
    untimed("E03", e03),
    untimed("E04", e04),
    untimed("E05", e05),
    untimed("E06", e06),
    untimed("E07", e07),
    untimed("E08", e08),
    untimed("E09", e09),
    untimed("E10", e10),
    untimed("E11", e11),
    untimed("E12", e12),
    untimed("E13", e13),
    untimed("E14", e14),
    untimed("E15", e15),
    untimed("E16", e16),
    untimed("E17", e17),
    untimed("E18", e18),
    untimed("E19", e19),
    untimed("E20", e20),
    untimed("E21", e21),
    untimed("E22", e22),
    Experiment {
        name: "E23",
        run: e23,
        timed_columns: &["fresh build", "cached plan", "speedup"],
        timed_lines: &[],
    },
    untimed("E24", e24),
    untimed("E25", e25),
    Experiment {
        name: "E26",
        run: e26,
        timed_columns: &["cmd/s", "p50 µs", "p99 µs", "max µs"],
        timed_lines: &[],
    },
    Experiment {
        name: "E27",
        run: e27,
        timed_columns: &["recover ms", "qps"],
        timed_lines: &[],
    },
    Experiment {
        name: "E28",
        run: e28,
        timed_columns: &[
            "batch ms",
            "calls ms",
            "speedup vs calls",
            "scalar ms",
            "speedup vs scalar",
            "speedup",
        ],
        timed_lines: &[],
    },
    Experiment {
        name: "E29",
        run: e29,
        timed_columns: &["gen ms", "close ms"],
        timed_lines: &["Head-to-head"],
    },
    untimed("E30", e30),
];
