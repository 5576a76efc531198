//! The one graph reader (`closure::csr`) under hostile input, in both
//! dialects: fragmented reads give the graph a plain read gives, a cut
//! stream is an error and never a shorter graph, corrupted bytes never
//! panic, and every malformed line is a `LoadError` naming that line.

use std::io::BufReader;
use systolic::closure::{read_edges, read_entries, CsrGraph, LoadError};
use systolic::service::{ChaosPlan, ChaosReader};
use systolic_util::{Checker, Rng};

/// A random graph as its vertex count and its edges in file order,
/// repeats included. The last edge names the largest id, so an edge list
/// has the vertex count a Matrix-Market size line declares.
fn random_edges(rng: &mut Rng) -> (usize, Vec<(u32, u32)>) {
    let n = 1 + rng.gen_usize(40);
    let mut edges: Vec<(u32, u32)> = (0..rng.gen_usize(3 * n))
        .map(|_| (rng.gen_usize(n) as u32, rng.gen_usize(n) as u32))
        .collect();
    edges.push((rng.gen_usize(n) as u32, (n - 1) as u32));
    (n, edges)
}

/// The graph as text in one dialect, with comments, blank lines, weight
/// columns and CRLF ends sprinkled in.
fn render(n: usize, edges: &[(u32, u32)], matrix_market: bool, rng: &mut Rng) -> String {
    let mut out = String::new();
    if matrix_market {
        out.push_str("%%MatrixMarket matrix coordinate integer general\n% a comment\n\n");
        out.push_str(&format!("{n} {n} {}\n", edges.len()));
    } else {
        out.push_str("# a comment\n\n");
    }
    let base = u32::from(matrix_market);
    for &(u, v) in edges {
        out.push_str(&format!("{} {}", u + base, v + base));
        if rng.gen_bool(0.3) {
            out.push_str(&format!(" {}", rng.gen_usize(100)));
        }
        if !matrix_market && rng.gen_bool(0.1) {
            out.push_str(" # trailing comment");
        }
        out.push_str(if rng.gen_bool(0.2) { "\r\n" } else { "\n" });
        if rng.gen_bool(0.05) {
            out.push_str(if matrix_market { "% interior\n" } else { "\n" });
        }
    }
    out
}

fn chaos(text: &str, plan: ChaosPlan) -> BufReader<ChaosReader<&[u8]>> {
    // A small buffer, so lines straddle refills as well as fragments.
    BufReader::with_capacity(16, ChaosReader::new(text.as_bytes(), plan))
}

#[test]
fn both_dialects_read_back_the_written_graph_through_any_fragmentation() {
    Checker::new("reader: fragmented reads", 48).run(|rng| {
        let (n, edges) = random_edges(rng);
        let want = CsrGraph::from_edges(n, &edges);
        for matrix_market in [false, true] {
            let text = render(n, &edges, matrix_market, rng);
            let plain = read_edges(text.as_bytes()).map_err(|e| format!("{e}\n{text}"))?;
            if plain != (n, edges.clone()) {
                return Err(format!("plain read changed the edges of\n{text}"));
            }
            let fragmented = ChaosPlan {
                fragment: true,
                ..ChaosPlan::none(rng.next_u64())
            };
            if read_edges(chaos(&text, fragmented)).as_ref() != Ok(&plain) {
                return Err(format!("fragmented read differs on\n{text}"));
            }
            if CsrGraph::read(text.as_bytes()).as_ref() != Ok(&want) {
                return Err(format!("CsrGraph::read differs on\n{text}"));
            }
        }
        Ok(())
    });
}

#[test]
fn a_cut_stream_is_an_error_never_a_shorter_graph() {
    Checker::new("reader: cut streams", 48).run(|rng| {
        let (n, edges) = random_edges(rng);
        for matrix_market in [false, true] {
            let text = render(n, &edges, matrix_market, rng);
            let cut = rng.gen_usize(text.len()) as u64;
            match read_edges(chaos(&text, ChaosPlan::cut(rng.next_u64(), cut))) {
                Err(e) if e.message.contains("read failed") => {}
                other => return Err(format!("cut at {cut} of {} gave {other:?}", text.len())),
            }
        }
        Ok(())
    });
}

#[test]
fn corrupted_bytes_never_panic() {
    Checker::new("reader: noisy streams", 96).run(|rng| {
        let (n, edges) = random_edges(rng);
        for matrix_market in [false, true] {
            let text = render(n, &edges, matrix_market, rng);
            let noisy = ChaosPlan::noisy(rng.next_u64(), 1 + rng.gen_usize(40) as u64);
            // Corruption may merge ids into a large one, so the edges are
            // checked against their vertex count, not built into a graph.
            if let Ok((m, got)) = read_edges(chaos(&text, noisy)) {
                if let Some(&(u, v)) = got.iter().find(|&&(u, v)| u.max(v) as usize >= m) {
                    return Err(format!("edge ({u}, {v}) outside the {m} vertices read"));
                }
            }
        }
        Ok(())
    });
}

fn error_of(text: &[u8]) -> LoadError {
    read_edges(text).expect_err(&String::from_utf8_lossy(text))
}

#[test]
fn hostile_lines_are_errors_naming_their_line() {
    // A comment, so only the line cap can refuse it.
    let long_line = format!("0 1\n# {}\n", "x".repeat(1 << 20));
    let cases: &[(&[u8], usize)] = &[
        (b"0 1\n4294967295 0\n", 2),
        (b"0 1\n0 4294967296\n", 2),
        (b"18446744073709551616 1\n", 1),
        (b"0 18446744073709551615\n", 1),
        (b"0 1\n1 -2\n", 2),
        (b"0 1\n1 2\0\n", 2),
        (b"0 1\n\xff\xfe 2\n", 2),
        (long_line.as_bytes(), 2),
        (b"0 1\n# c\n0 1 2 3\n", 3),
        (b"0 1\n1 2 extra\n", 2),
        (
            b"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 3 4\n",
            3,
        ),
        (
            b"%%MatrixMarket matrix coordinate pattern general\n% \xff\n3 3 0\n",
            2,
        ),
        (
            b"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n4 1\n",
            3,
        ),
    ];
    for &(text, line) in cases {
        let err = error_of(text);
        let shown = String::from_utf8_lossy(&text[..text.len().min(60)]).into_owned();
        assert_eq!(err.line, line, "{shown:?}: {err}");
        assert!(
            err.to_string().starts_with(&format!("line {line}: ")),
            "{err}"
        );
        assert!(CsrGraph::read(text).is_err(), "{shown:?}");
    }
    // The largest id leaves the vertex count at u32::MAX.
    assert_eq!(
        read_edges(&b"4294967294 0\n"[..]).unwrap(),
        (u32::MAX as usize, vec![(u32::MAX - 1, 0)])
    );
    // Files without an edge are errors too, not empty graphs.
    for text in ["", "\n\n", "# only\n# comments\n"] {
        assert!(error_of(text.as_bytes()).message.contains("no edges"));
    }
}

#[test]
fn crlf_line_ends_are_accepted_in_both_dialects() {
    let unix = read_edges(&b"0 1\n1 2 7\n"[..]).unwrap();
    assert_eq!(read_edges(&b"0 1\r\n1 2 7\r\n"[..]).unwrap(), unix);
    let mm = "%%MatrixMarket matrix coordinate pattern general\r\n3 3 2\r\n1 2\r\n2 3\r\n";
    assert_eq!(read_edges(mm.as_bytes()).unwrap(), (3, unix.1));
}

#[test]
fn weighted_entries_come_in_file_order_in_both_dialects() {
    let weighted = |text: &str| {
        let mut got = Vec::new();
        let n = read_entries(text.as_bytes(), |u, v, w: Option<u64>| {
            got.push((u, v, w.ok_or("needs a weight")?));
            Ok(())
        })?;
        Ok::<_, LoadError>((n, got))
    };
    let want = (3, vec![(2, 0, 4), (0, 1, 5), (0, 1, 3)]);
    assert_eq!(weighted("2 0 4\n0 1 5\n0 1 3\n").unwrap(), want);
    let mm = "%%MatrixMarket matrix coordinate integer general\n3 3 3\n3 1 4\n1 2 5\n1 2 3\n";
    assert_eq!(weighted(mm).unwrap(), want);
    let err = weighted("0 1 5\n1 2\n").unwrap_err();
    assert_eq!((err.line, err.message.as_str()), (2, "needs a weight"));
    let err = weighted("0 1 5\n1 2 2.5\n").unwrap_err();
    assert_eq!(err.to_string(), "line 2: bad weight \"2.5\"");
}
