//! Regenerates the paper's quantitative results (experiments E01–E30).
//!
//! Usage:
//! ```text
//! cargo run --release -p systolic-bench --bin experiments            # all
//! cargo run --release -p systolic-bench --bin experiments e08 e09   # some
//! ```
//! Prints a Markdown report to stdout (redirect into `EXPERIMENTS.md`).
//! An unknown name exits 2 before any experiment runs.

use systolic_bench::EXPERIMENTS;

const HEADER: &str = "# EXPERIMENTS — paper vs measured\n\n\
    Reproduction of Moreno & Lang, *Graph-based Partitioning of Matrix\n\
    Algorithms for Systolic Arrays* (1988). Every table below is\n\
    regenerated by `cargo run --release -p systolic-bench --bin\n\
    experiments`; \"paper\" columns are the closed forms of §3–§4,\n\
    \"measured\" columns come from the cycle-level simulator.\n\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<_> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter()
            .map(|a| {
                EXPERIMENTS
                    .iter()
                    .find(|e| e.name.eq_ignore_ascii_case(a))
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment {a}; expected e01..e30");
                        std::process::exit(2);
                    })
            })
            .collect()
    };
    print!("{HEADER}");
    for e in chosen {
        eprintln!("running {}…", e.name);
        print!("{}", (e.run)());
    }
}
