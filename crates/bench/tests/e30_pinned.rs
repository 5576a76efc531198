//! E30 byte for byte: the section `e30()` regenerates must equal E30's
//! section of EXPERIMENTS.md, ignoring trailing whitespace. E30 has no
//! wall-clock cell — every figure is a simulated count or a closed form —
//! so a changed occupancy digit is a changed schedule, not host noise.

fn normalized(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().map(str::trim_end).collect();
    while lines.last() == Some(&"") {
        lines.pop();
    }
    lines
}

#[test]
fn e30_matches_its_experiments_section() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let start = doc
        .find("## E30")
        .expect("EXPERIMENTS.md has an E30 section");
    let section = &doc[start..];
    let end = section.find("\n## ").map_or(section.len(), |e| e + 1);
    let want = normalized(&section[..end]);
    let generated = systolic_bench::e30();
    let got = normalized(&generated);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "E30 line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "E30 line count");
}
