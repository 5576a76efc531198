//! EXPERIMENTS.md is what the experiment table prints. The test checks
//! that the table and the file hold the same sections in the same order,
//! then regenerates every section in table order, one at a time, so a
//! timed ratio never runs beside another section, and compares it line by
//! line with its section of the file (see `common::pin`). Only the
//! wall-clock cells each experiment declares are masked. E29 and E30 are
//! pinned the same way by binaries of their own.
//!
//! In builds without debug assertions the sections also assert their
//! speedup bars (E28 here, E29 in `e29_pinned`), so the release run is
//! the one that holds those claims.

mod common;

use systolic_bench::EXPERIMENTS;

/// Sections pinned by `tests/eNN_pinned.rs`, a binary of their own: E29
/// (its timed head-to-head and its 10⁶-vertex row, about 16 s of a debug
/// run) and E30.
const OWN_BINARY: [&str; 2] = ["E29", "E30"];

#[test]
fn every_section_matches_experiments_md() {
    let doc = common::experiments_md();
    let names: Vec<&str> = common::sections(&doc)
        .iter()
        .map(|&(name, _)| name)
        .collect();
    let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(
        table, names,
        "experiment table vs sections of EXPERIMENTS.md"
    );
    for name in OWN_BINARY {
        let test = format!(
            "{}/tests/{}_pinned.rs",
            env!("CARGO_MANIFEST_DIR"),
            name.to_lowercase()
        );
        assert!(std::path::Path::new(&test).exists(), "{name} has no {test}");
    }
    for e in EXPERIMENTS.iter().filter(|e| !OWN_BINARY.contains(&e.name)) {
        common::pin(e.name);
    }
}

#[test]
fn the_mask_hides_only_wall_clock_figures() {
    let cases: [(&str, &str, &[&str]); 5] = [
        (
            "E23",
            "| engine | results identical | stats identical | fresh build | cached plan | speedup |\n\
             |---|---|---|---:|---:|---:|\n\
             | linear m=4 | true | true | 9.59 ms | 7.84 ms | 1.22× |",
            &[
                "| engine | results identical | stats identical | fresh build | cached plan | speedup |",
                "|---|---|---|…|…|…|",
                "| linear m=4 | true | true |…|…|…|",
            ],
        ),
        (
            "E26",
            "| recompute path | n | commands | REACH queries | cmd/s | p50 µs | p99 µs | max µs | oracle-checked |\n\
             | software | 64 | 20000 | 14020 | 962937 | 0.070 | 19.914 | 47.894 | true |",
            &[
                "| recompute path | n | commands | REACH queries | cmd/s | p50 µs | p99 µs | max µs | oracle-checked |",
                "| software | 64 | 20000 | 14020 |…|…|…|…| true |",
            ],
        ),
        (
            "E27",
            "| run | n | work | wal bytes | recover ms | qps | oracle-checked |\n\
             | serve_recover (kill -9 + reopen) | 64 | 5000 mutations | 74300 | 0.47 | — | true |\n\
             | serve_concurrent (4 TCP clients) | 48 | 4000 REACH | — | — | 170600 | true |",
            &[
                "| run | n | work | wal bytes | recover ms | qps | oracle-checked |",
                "| serve_recover (kill -9 + reopen) | 64 | 5000 mutations | 74300 |…|…| true |",
                "| serve_concurrent (4 TCP clients) | 48 | 4000 REACH | — |…|…| true |",
            ],
        ),
        (
            "E28",
            "| engine | lanes | groups for 128×n=32 | batch ms | speedup vs scalar |\n\
             | linear-packed (W=1) | 64 | 2 | 6.06 | 54.2× |\n\
             \n\
             | weighted plane | lanes | batch ms | speedup | bit-identical |\n\
             | min-plus-swar-8x8 | 8 | 9.83 | 10.0× | true |\n\
             \n\
             | packed campaign | injected | mismatched | contained |\n\
             | lane 5 of 64 (seed 7) | 41 | 1 | true |",
            &[
                "| engine | lanes | groups for 128×n=32 | batch ms | speedup vs scalar |",
                "| linear-packed (W=1) | 64 | 2 |…|…|",
                "",
                "| weighted plane | lanes | batch ms | speedup | bit-identical |",
                "| min-plus-swar-8x8 | 8 |…|…| true |",
                "",
                "| packed campaign | injected | mismatched | contained |",
                "| lane 5 of 64 (seed 7) | 41 | 1 | true |",
            ],
        ),
        (
            "E29",
            "| n | edges | gen ms | close ms |\n\
             | 10000 | 76295 | 2 | 1 |\n\
             \n\
             Head-to-head at n = 4096 (same graph): sparse 0.3 ms vs dense 199.1 ms — 667× (bar 20×).",
            &[
                "| n | edges | gen ms | close ms |",
                "| 10000 | 76295 |…|…|",
                "",
                "Head-to-head at n = 4096 (same graph): sparse … ms vs dense … ms — … (bar 20×).",
            ],
        ),
    ];
    for (name, section, want) in cases {
        let e = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        assert_eq!(common::masked(e, section), want, "{name}");
    }
}
