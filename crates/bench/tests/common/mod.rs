//! What the tests pinning EXPERIMENTS.md share: the file's sections, the
//! masker for the wall-clock cells each experiment declares, and [`pin`],
//! which holds one regenerated section to the file. Every simulated
//! count, closed form and seeded tally must match byte for byte; a row
//! missing on either side fails the line count.

use systolic_bench::{Experiment, EXPERIMENTS};

const MASK: &str = "…";

/// EXPERIMENTS.md at the root of the repository.
pub fn experiments_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The section's lines with every wall-clock figure `e` declares replaced
/// by [`MASK`]: in a table, the cells under a declared column header; in
/// a prose line opening with a declared phrase, each number followed by
/// `ms` and each `N×` ratio.
pub fn masked(e: &Experiment, section: &str) -> Vec<String> {
    let number = |w: &str| w.parse::<f64>().is_ok();
    // The masked columns of the table being read, if a line is in one.
    let mut timed: Option<Vec<usize>> = None;
    section
        .lines()
        .map(|line| {
            if line.starts_with('|') {
                let mut cells: Vec<&str> = line.split('|').collect();
                match &timed {
                    None => {
                        let columns = (0..cells.len())
                            .filter(|&i| e.timed_columns.contains(&cells[i].trim()))
                            .collect();
                        timed = Some(columns);
                    }
                    Some(columns) => columns.iter().for_each(|&i| cells[i] = MASK),
                }
                return cells.join("|");
            }
            timed = None;
            if !e.timed_lines.iter().any(|&p| line.starts_with(p)) {
                return line.to_string();
            }
            let words: Vec<&str> = line.split(' ').collect();
            let wall_clock = |i: usize| {
                number(words[i]) && words.get(i + 1) == Some(&"ms")
                    || words[i].strip_suffix('×').is_some_and(number)
            };
            (0..words.len())
                .map(|i| if wall_clock(i) { MASK } else { words[i] })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// The `## ` sections of `doc` as `(name, text)`, in file order; a
/// section runs to the next one or to the end of the file.
pub fn sections(doc: &str) -> Vec<(&str, &str)> {
    let starts: Vec<usize> = doc.match_indices("\n## ").map(|(i, _)| i + 1).collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let text = &doc[start..starts.get(k + 1).copied().unwrap_or(doc.len())];
            (text[3..].split(' ').next().unwrap_or(""), text)
        })
        .collect()
}

/// Regenerates the experiment `name` and compares its section line by
/// line with the section of EXPERIMENTS.md of that name, both masked.
pub fn pin(name: &str) {
    let e = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("the experiment table has no {name}"));
    let doc = experiments_md();
    let &(_, section) = sections(&doc)
        .iter()
        .find(|&&(s, _)| s == name)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {name} section"));
    let (got, want) = (masked(e, &(e.run)()), masked(e, section));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{name} line {} (left generated, right file)", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{name} line count");
}
