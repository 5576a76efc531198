//! Determinism of the simulator and golden-value checks pinning the exact
//! measured numbers of key design points (so regressions in cycle counts
//! are caught, not just correctness).

use systolic::arraysim::{FaultPlan, RunStats, SimError};
use systolic::closure::{gnp, DiGraph};
use systolic::partition::{
    elimination_input, level_durations, run_elimination_timed, Algo, ClosureEngine, CompiledPlan,
    FixedArrayEngine, FixedArrayMapping, FixedLinearMapping, GraphMapping, GridEngine, GridMapping,
    LinearEngine, LpgsMapping, LsgpMapping, Mapping,
};
use systolic_semiring::{Bool, BoolLanes, DenseMatrix, LaneWord, MinPlus, Semiring};
use systolic_util::Rng;

#[test]
fn simulation_is_deterministic() {
    let a = gnp(13, 0.22, 3).adjacency_matrix();
    for _ in 0..2 {
        let (r1, s1) = ClosureEngine::<Bool>::closure(&LinearEngine::new(4), &a).unwrap();
        let (r2, s2) = ClosureEngine::<Bool>::closure(&LinearEngine::new(4), &a).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2, "stats must be bit-identical across runs");
        let (g1, t1) = ClosureEngine::<Bool>::closure(&GridEngine::new(2), &a).unwrap();
        let (g2, t2) = ClosureEngine::<Bool>::closure(&GridEngine::new(2), &a).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(t1, t2);
    }
}

#[test]
fn golden_fixed_array_makespan() {
    // Single-instance makespan of the Fig. 17 array: pinned so the timing
    // model cannot drift silently. Structure-dependent, data-independent.
    let empty = DenseMatrix::<Bool>::zeros(8, 8);
    let dense = {
        let mut m = DenseMatrix::<Bool>::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                m.set(i, j, i != j);
            }
        }
        m
    };
    let (_, s_empty) = ClosureEngine::<Bool>::closure(&FixedArrayEngine::new(), &empty).unwrap();
    let (_, s_dense) = ClosureEngine::<Bool>::closure(&FixedArrayEngine::new(), &dense).unwrap();
    assert_eq!(
        s_empty.cycles, s_dense.cycles,
        "systolic timing is data-independent"
    );
    // Pinned value for n = 8: the makespan is O(n) — wavefront 2k+g over
    // n(n+1) cells plus per-hop register and rotation slack (DESIGN.md §4).
    assert_eq!(s_empty.cycles, 38);
}

#[test]
fn golden_linear_partitioned_counters() {
    // n = 12, m = 3, one instance: pin all headline counters.
    let a = gnp(12, 0.2, 7).adjacency_matrix();
    let (_, s) = ClosureEngine::<Bool>::closure(&LinearEngine::new(3), &a).unwrap();
    assert_eq!(s.cells, 3);
    assert_eq!(s.useful_ops, 12 * 11 * 10);
    assert_eq!(s.host_words, 144);
    assert_eq!(s.memory_connections, 4);
    assert_eq!(s.output_words, 144);
    assert_eq!(s.max_bank_writes_per_cycle, 1);
    // Ideal is n²(n+1)/m = 624; measured includes fill and boundary sets.
    assert!(s.cycles >= 624, "cycles {}", s.cycles);
    assert!(s.cycles <= 900, "cycles {} drifted", s.cycles);
}

#[test]
fn golden_small_closure_matrix() {
    // Fully pinned end-to-end answer for a hand-checkable graph.
    let mut g = DiGraph::new(5);
    for (u, v) in [(0, 1), (1, 2), (2, 1), (2, 3)] {
        g.add_edge(u, v);
    }
    let (res, _) =
        ClosureEngine::<Bool>::closure(&LinearEngine::new(2), &g.adjacency_matrix()).unwrap();
    let want = [
        [true, true, true, true, false],
        [false, true, true, true, false],
        [false, true, true, true, false],
        [false, false, false, true, false],
        [false, false, false, false, true],
    ];
    for (i, row) in want.iter().enumerate() {
        for (j, &w) in row.iter().enumerate() {
            assert_eq!(*res.get(i, j), w, "({i},{j})");
        }
    }
}

#[test]
fn variable_size_problems_reuse_one_engine() {
    // §1 motivation: "problems of variable size using the same array".
    let eng = LinearEngine::new(3);
    for n in [4usize, 9, 14, 6] {
        let a = gnp(n, 0.3, n as u64).adjacency_matrix();
        let (res, stats) = ClosureEngine::<Bool>::closure(&eng, &a).unwrap();
        assert_eq!(res, systolic_semiring::warshall(&a), "n={n}");
        assert_eq!(stats.cells, 3);
    }
}

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

/// Runs `plan` over `batch`, armed with `fault` when given, and folds into
/// `h` the output streams, the `RunStats` with wall time zeroed (or the
/// `SimError`) and the applied fault events. `{:?}` spells f64 NaN and
/// −0.0 exactly. Returns true when the run deadlocked.
fn digest_run<S: Semiring>(
    h: &mut Fnv,
    plan: &CompiledPlan,
    batch: &[DenseMatrix<S>],
    fault: Option<&FaultPlan>,
) -> bool {
    let mut sim = plan.instantiate::<S>(true);
    plan.load(&mut sim, batch);
    if let Some(fp) = fault {
        sim.set_fault_plan(fp.clone());
    }
    let run = sim.run();
    h.text(&format!("{:?}", sim.outputs()));
    match &run {
        Ok(stats) => h.text(&format!(
            "{:?}",
            RunStats {
                wall_nanos: 0,
                ..stats.clone()
            }
        )),
        Err(e) => h.text(&format!("{e:?}")),
    }
    h.text(&format!("{:?}", sim.fault_log()));
    matches!(run, Err(SimError::Deadlock { .. }))
}

/// Every simulator path, one digest per case. Each closure case runs one
/// mapping under one fault plan over `Bool`, `MinPlus` and 64-lane
/// `BoolLanes` inputs, with unit and with varying row durations; the
/// elimination cases run timed LU and Faddeev. The digests were recorded
/// when clean runs took a ready-tracking loop and armed runs a
/// poll-every-cell loop, so they pin both against the one loop that
/// replaced them.
#[test]
fn simulator_runs_are_pinned_bit_for_bit() {
    let n = 5;
    let mut rng = Rng::seed_from_u64(0x5157);
    let bools: Vec<DenseMatrix<Bool>> = (0..2)
        .map(|_| DenseMatrix::from_fn(n, n, |_, _| rng.gen_bool(0.3)))
        .collect();
    let weights: Vec<DenseMatrix<MinPlus>> = (0..2)
        .map(|_| {
            DenseMatrix::from_fn(n, n, |_, _| {
                if rng.gen_bool(0.4) {
                    1 + rng.gen_usize(9) as u64
                } else {
                    MinPlus::zero()
                }
            })
        })
        .collect();
    let lanes: Vec<DenseMatrix<BoolLanes>> = (0..2)
        .map(|_| {
            DenseMatrix::from_fn(n, n, |_, _| {
                LaneWord::from_bits(rng.next_u64() & rng.next_u64())
            })
        })
        .collect();
    let varying: Vec<u32> = (0..n).map(|k| (n - k) as u32).collect();

    let mappings: Vec<(&str, CompiledPlan)> = vec![
        ("lpgs m=3", LpgsMapping::new(3).build_plan(n, 2)),
        (
            "lpgs m=3 bypass [2, 3]",
            LpgsMapping::with_link_delays(3, vec![2, 3]).build_plan(n, 2),
        ),
        ("lsgp m=4", LsgpMapping::new(4).build_plan(n, 2)),
        ("grid s=2", GridMapping::new(2).build_plan(n, 2)),
        ("fixed", FixedArrayMapping.build_plan(n, 2)),
        ("fixed-linear", FixedLinearMapping.build_plan(n, 2)),
    ];
    let seed = 0xfa17;
    let faults: Vec<(&str, Option<FaultPlan>)> = vec![
        ("unarmed", None),
        ("none", Some(FaultPlan::none(seed))),
        ("transients 1e-2", Some(FaultPlan::transients(seed, 1e-2))),
        (
            "sticks",
            Some(FaultPlan {
                stick: 0.05,
                stick_cycles: 7,
                ..FaultPlan::none(seed)
            }),
        ),
        (
            "lane 37",
            Some(FaultPlan::transients(seed, 1e-2).with_target_lane(37)),
        ),
        (
            "drop/dup",
            Some(FaultPlan {
                link_drop: 0.05,
                link_dup: 0.05,
                ..FaultPlan::none(seed)
            }),
        ),
    ];

    let mut got: Vec<(String, u64)> = Vec::new();
    for (mapping, unit) in &mappings {
        let timed = unit.with_row_durations(&varying);
        for (fault_name, fault) in &faults {
            let mut h = Fnv::new();
            let mut deadlocks = 0;
            for plan in [unit, &timed] {
                deadlocks += usize::from(digest_run(&mut h, plan, &bools, fault.as_ref()));
                deadlocks += usize::from(digest_run(&mut h, plan, &weights, fault.as_ref()));
                deadlocks += usize::from(digest_run(&mut h, plan, &lanes, fault.as_ref()));
            }
            // Sticks only cost time; value faults may or may not break
            // the stream structure; a lost link word always does, except
            // on fixed-linear, which streams through banks only.
            match *fault_name {
                "unarmed" | "none" | "sticks" => {
                    assert_eq!(deadlocks, 0, "{mapping} / {fault_name}: runs clean");
                }
                "drop/dup" => {
                    let want = if *mapping == "fixed-linear" { 0 } else { 6 };
                    assert_eq!(deadlocks, want, "{mapping} / drop/dup deadlocks");
                }
                _ => {}
            }
            got.push((format!("{mapping} / {fault_name}"), h.0));
        }
    }

    for (algo, size) in [(Algo::Lu, 6), (Algo::Faddeev, 3)] {
        let a = elimination_input(algo.msize(size), 5);
        let durs = level_durations(algo, size);
        for (name, run) in [
            (
                "lpgs-linear",
                run_elimination_timed(&LinearEngine::new(3), algo, &a, &durs),
            ),
            (
                "grid-partitioned",
                run_elimination_timed(&GridEngine::new(2), algo, &a, &durs),
            ),
        ] {
            let (m, stats) = run.expect("timed elimination runs");
            let mut h = Fnv::new();
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    h.text(&format!("{:?} ", m.get(i, j)));
                }
            }
            h.text(&format!(
                "{:?}",
                RunStats {
                    wall_nanos: 0,
                    ..stats
                }
            ));
            got.push((format!("timed {} / {name}", algo.name()), h.0));
        }
    }

    assert_eq!(got.len(), PINNED_RUNS.len());
    for ((name, digest), &(pinned_name, pinned)) in got.iter().zip(PINNED_RUNS) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            *digest, pinned,
            "{name}: digest 0x{digest:016x}, pinned 0x{pinned:016x}"
        );
    }
}

/// Folds the `{:?}` of `build(n, batch)` over the pinned shape grid: the
/// corners the simulator digests above (n = 5, batch 2) do not reach —
/// n = 2, n = 8 and batches of 1 and 3.
fn fold_plans(h: &mut Fnv, build: impl Fn(usize, usize) -> CompiledPlan) {
    for n in [2, 3, 5, 8] {
        for batch in [1, 3] {
            h.text(&format!("{:?}", build(n, batch)));
        }
    }
}

/// Folds every `algo` plan each of `mappings` compiles over the shape
/// grid of [`fold_plans`], with unit and with per-level durations.
fn fold_graph_plans<M: GraphMapping>(h: &mut Fnv, algo: Algo, mappings: &[M]) {
    for mapping in mappings {
        fold_plans(h, |n, b| mapping.graph_plan(&algo.graph(n), b));
        fold_plans(h, |n, b| {
            mapping.graph_plan(
                &algo.graph(n).with_row_durations(&level_durations(algo, n)),
                b,
            )
        });
    }
}

/// Every plan each mapping family compiles, one digest per family over
/// the `{:?}` of its plans: task programs, link delays, bank slot keys,
/// feed order, output count and cycle budget. The cell counts include one
/// cell, more cells than the `2n` skewed columns and the 3×3 grid; the
/// elimination families run with unit and with per-level durations.
#[test]
fn compiled_plans_are_pinned() {
    let ms = [1usize, 2, 3, 4, 7, 16];
    let family = |fold: &dyn Fn(&mut Fnv)| {
        let mut h = Fnv::new();
        fold(&mut h);
        h.0
    };
    let mut got: Vec<(String, u64)> = vec![
        (
            "lpgs".into(),
            family(&|h| {
                for m in ms {
                    fold_plans(h, |n, b| LpgsMapping::new(m).build_plan(n, b));
                }
            }),
        ),
        (
            "lpgs bypass [2, 3]".into(),
            family(&|h| {
                fold_plans(h, |n, b| {
                    LpgsMapping::with_link_delays(3, vec![2, 3]).build_plan(n, b)
                });
            }),
        ),
        (
            "lsgp".into(),
            family(&|h| {
                for m in ms {
                    fold_plans(h, |n, b| LsgpMapping::new(m).build_plan(n, b));
                }
            }),
        ),
        (
            "grid".into(),
            family(&|h| {
                for s in [1, 2, 3] {
                    fold_plans(h, |n, b| GridMapping::new(s).build_plan(n, b));
                }
            }),
        ),
        (
            "fixed".into(),
            family(&|h| fold_plans(h, |n, b| FixedArrayMapping.build_plan(n, b))),
        ),
        (
            "fixed-linear".into(),
            family(&|h| fold_plans(h, |n, b| FixedLinearMapping.build_plan(n, b))),
        ),
    ];
    for algo in [Algo::Lu, Algo::Faddeev] {
        let linear = [1, 3, 7].map(LpgsMapping::new);
        let grid = [1, 2, 3].map(GridMapping::new);
        let digests = [
            (
                "lpgs-linear",
                family(&|h| fold_graph_plans(h, algo, &linear)),
            ),
            (
                "grid-partitioned",
                family(&|h| fold_graph_plans(h, algo, &grid)),
            ),
        ];
        for (name, digest) in digests {
            got.push((format!("{} / {name}", algo.name()), digest));
        }
    }

    assert_eq!(got.len(), PINNED_PLANS.len());
    for ((name, digest), &(pinned_name, pinned)) in got.iter().zip(PINNED_PLANS) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            *digest, pinned,
            "{name}: digest 0x{digest:016x}, pinned 0x{pinned:016x}"
        );
    }
}

const PINNED_PLANS: &[(&str, u64)] = &[
    ("lpgs", 0x4c1a9df9c048ecb8),
    ("lpgs bypass [2, 3]", 0x739b74e5b7c57bec),
    ("lsgp", 0x5ba4faab6c57f3bc),
    ("grid", 0xdda007e71f2b2a3c),
    ("fixed", 0xf85861e044169369),
    ("fixed-linear", 0xd12c2647a275d9a5),
    ("lu / lpgs-linear", 0xada24fc2eda1b469),
    ("lu / grid-partitioned", 0xece3d1752ff69a4f),
    ("faddeev / lpgs-linear", 0xbff05af1926ebe69),
    ("faddeev / grid-partitioned", 0xf15216caed5bd93d),
];

const PINNED_RUNS: &[(&str, u64)] = &[
    ("lpgs m=3 / unarmed", 0x1601c0869c1a0268),
    ("lpgs m=3 / none", 0x1393e37ee1125e5c),
    ("lpgs m=3 / transients 1e-2", 0x9e3541e97e7504db),
    ("lpgs m=3 / sticks", 0x8f257b4a8096b475),
    ("lpgs m=3 / lane 37", 0x9fb28e30a8612e7c),
    ("lpgs m=3 / drop/dup", 0xb6457d668edd7182),
    ("lpgs m=3 bypass [2, 3] / unarmed", 0xd744855fe1c68599),
    ("lpgs m=3 bypass [2, 3] / none", 0x48e6f115630805c1),
    (
        "lpgs m=3 bypass [2, 3] / transients 1e-2",
        0x6bd16de5f37c4df1,
    ),
    ("lpgs m=3 bypass [2, 3] / sticks", 0xbd8852829d22a634),
    ("lpgs m=3 bypass [2, 3] / lane 37", 0xb4143c6f6e69dff8),
    ("lpgs m=3 bypass [2, 3] / drop/dup", 0xb6d3a704f2a17a43),
    ("lsgp m=4 / unarmed", 0x29b21c1412ffa2e5),
    ("lsgp m=4 / none", 0x32fad6a24dc1bf7d),
    ("lsgp m=4 / transients 1e-2", 0x01f2880b0cb4ba9c),
    ("lsgp m=4 / sticks", 0xda7796809c9aae08),
    ("lsgp m=4 / lane 37", 0xc26ff2ffd0253cc1),
    ("lsgp m=4 / drop/dup", 0x8e8631cf9db92c57),
    ("grid s=2 / unarmed", 0xd86f4724c72f91c2),
    ("grid s=2 / none", 0xc9e81f9386c41374),
    ("grid s=2 / transients 1e-2", 0x4ea7c058f3760a7c),
    ("grid s=2 / sticks", 0x978ba10833f2b157),
    ("grid s=2 / lane 37", 0xf2489dbf135bf481),
    ("grid s=2 / drop/dup", 0x14c5656cecdd8fe0),
    ("fixed / unarmed", 0xdef8411900d554f8),
    ("fixed / none", 0x7583ed86656f0bf6),
    ("fixed / transients 1e-2", 0x8ba09a689e181b07),
    ("fixed / sticks", 0xb7a8ae9879facf7e),
    ("fixed / lane 37", 0xa8da730abd2a2554),
    ("fixed / drop/dup", 0x4b66ea2d4a3edae7),
    ("fixed-linear / unarmed", 0x7e7d6de9ffffd719),
    ("fixed-linear / none", 0xa36fe9582baedef3),
    ("fixed-linear / transients 1e-2", 0xe966f2edb0c6b2ad),
    ("fixed-linear / sticks", 0xd8324862139803e1),
    ("fixed-linear / lane 37", 0xa0be288bd63fda9b),
    ("fixed-linear / drop/dup", 0xa36fe9582baedef3),
    ("timed lu / lpgs-linear", 0x82a1f82b607ea7c6),
    ("timed lu / grid-partitioned", 0xf58ef613ccbca324),
    ("timed faddeev / lpgs-linear", 0xb6d0310e291d63fa),
    ("timed faddeev / grid-partitioned", 0xd2f2d835398bbed6),
];
