//! E29's counts: the section `e29()` regenerates must equal E29's section
//! of EXPERIMENTS.md in every deterministic cell — n, edges, SCCs, DAG
//! edges, fill-in, solver MiB and dense MiB — ignoring trailing
//! whitespace. The wall-clock cells are masked: the `gen ms` and
//! `close ms` columns, and the two timings and their ratio in the
//! n = 4096 head-to-head line.

const MASK: &str = "…";

/// The section's lines, trailing whitespace and blank lines dropped, with
/// every wall-clock figure replaced by [`MASK`]: the table cells under a
/// header ending in ` ms`, and in the head-to-head line each number
/// followed by `ms` and the `N×` ratio.
fn masked(section: &str) -> Vec<String> {
    let number = |w: &str| w.parse::<f64>().is_ok();
    let mut timed: Vec<usize> = Vec::new();
    section
        .trim_end()
        .lines()
        .map(str::trim_end)
        .map(|line| {
            if line.starts_with('|') {
                let mut cells: Vec<&str> = line.split('|').collect();
                if timed.is_empty() {
                    timed = (0..cells.len())
                        .filter(|&i| cells[i].trim().ends_with(" ms"))
                        .collect();
                } else {
                    for &i in &timed {
                        cells[i] = MASK;
                    }
                }
                cells.join("|")
            } else if line.starts_with("Head-to-head") {
                let words: Vec<&str> = line.split(' ').collect();
                let wall_clock = |i: usize| {
                    number(words[i]) && words.get(i + 1) == Some(&"ms")
                        || words[i].strip_suffix('×').is_some_and(number)
                };
                (0..words.len())
                    .map(|i| if wall_clock(i) { MASK } else { words[i] })
                    .collect::<Vec<_>>()
                    .join(" ")
            } else {
                line.to_string()
            }
        })
        .collect()
}

#[test]
fn e29_counts_match_its_experiments_section() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let start = doc
        .find("## E29")
        .expect("EXPERIMENTS.md has an E29 section");
    let section = &doc[start..];
    let end = section.find("\n## ").map_or(section.len(), |e| e + 1);
    let want = masked(&section[..end]);
    let got = masked(&systolic_bench::e29());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "E29 line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "E29 line count");
}

#[test]
fn the_mask_hides_only_wall_clock_figures() {
    let section = "| n | edges | gen ms | close ms |\n\
                   |---:|---:|---:|---:|\n\
                   | 10 | 76 | 2 | 1 |\n\n\
                   Head-to-head at n = 4096: sparse 0.3 ms vs dense 279.1 ms — 803× (gates ≥ 20×).\n";
    assert_eq!(
        masked(section),
        [
            "| n | edges | gen ms | close ms |",
            "|---:|---:|…|…|",
            "| 10 | 76 |…|…|",
            "",
            "Head-to-head at n = 4096: sparse … ms vs dense … ms — … (gates ≥ 20×).",
        ]
    );
}
