//! Compressed-sparse-row graph storage and the one reader of graph files.
//!
//! [`CsrGraph`] stores a digraph as two flat arrays — `row_ptr` (n+1
//! offsets) and `col_idx` (edge targets) — so a graph with `e` edges costs
//! `O(n + e)` memory regardless of density. This is the entry format of
//! the sparse data plane: generators emit it directly, the reader parses
//! into it, and [`crate::sparse`] condenses it without ever materializing
//! a dense `n×n` adjacency.
//!
//! Every graph file enters through [`read_entries`], which reads any
//! `BufRead` line by line (never the whole text at once) in one of two
//! dialects, chosen by the first non-blank line:
//!
//! - **Matrix-Market** (that line starts with `%`, as the
//!   `%%MatrixMarket` banner does): the coordinate dialect of sparse
//!   linear-algebra tools. `%` comment lines, one `rows cols nnz` size
//!   line, then one `row col [value]` entry per line, **1-based**.
//! - **Edge list** (anything else): one `u v [w]` edge per line,
//!   **0-based**, `#` starting a comment. The vertex count is one more
//!   than the largest id.
//!
//! Fields are separated by ASCII whitespace. Ids parse straight to `u32`
//! and must leave the vertex count inside the `u32` id space. Every
//! failure — a malformed or over-long line, an id out of range, invalid
//! UTF-8, an I/O error — is a [`LoadError`] naming its line; CRLF line
//! ends are accepted. Writing a graph as Matrix-Market and reading it back
//! is bit-identical (edges come out sorted and deduplicated both ways).

use std::fmt;
use std::io::{BufRead, Read as _};
use std::str::FromStr;

/// A digraph in compressed-sparse-row form. Vertex ids fit in `u32`
/// (4 billion vertices is beyond the data plane's ambitions; halving the
/// index width halves the edge array).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `row_ptr[u]..row_ptr[u+1]` spans `col_idx` entries of vertex `u`.
    pub(crate) row_ptr: Vec<usize>,
    /// Edge targets, sorted and deduplicated within each row.
    pub(crate) col_idx: Vec<u32>,
}

impl CsrGraph {
    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            row_ptr: vec![0; n + 1],
            col_idx: Vec::new(),
        }
    }

    /// Builds from an edge list via counting-sort scatter: `O(n + e)`, two
    /// passes, no per-vertex `Vec` allocations. Self-loops are kept if
    /// present (the closure is reflexive anyway); duplicates are removed.
    ///
    /// # Panics
    /// Panics if any endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut row_ptr = vec![0usize; n + 1];
        for &(u, _) in edges {
            assert!((u as usize) < n, "edge source {u} out of range (n={n})");
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; edges.len()];
        let mut cursor = row_ptr.clone();
        for &(u, v) in edges {
            assert!((v as usize) < n, "edge target {v} out of range (n={n})");
            col_idx[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        let mut g = Self { row_ptr, col_idx };
        g.sort_dedup_rows();
        g
    }

    /// Builds from per-row successor lists that are **already sorted and
    /// deduplicated** (generators producing ordered output use this to
    /// skip the normalization pass).
    pub(crate) fn from_sorted_rows(rows: Vec<Vec<u32>>) -> Self {
        let n = rows.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut col_idx = Vec::with_capacity(total);
        for row in rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted");
            col_idx.extend_from_slice(&row);
            row_ptr.push(col_idx.len());
        }
        Self { row_ptr, col_idx }
    }

    fn sort_dedup_rows(&mut self) {
        let n = self.n();
        let mut write = 0usize;
        let mut new_ptr = vec![0usize; n + 1];
        for u in 0..n {
            let (lo, hi) = (self.row_ptr[u], self.row_ptr[u + 1]);
            self.col_idx[lo..hi].sort_unstable();
            let mut prev: Option<u32> = None;
            for i in lo..hi {
                let v = self.col_idx[i];
                if prev != Some(v) {
                    self.col_idx[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            new_ptr[u + 1] = write;
        }
        self.col_idx.truncate(write);
        self.row_ptr = new_ptr;
    }

    /// Converts an adjacency-list [`crate::DiGraph`] (whose successor
    /// lists hold no duplicates, in insertion order): each row is copied
    /// straight into the flat arrays and sorted in place.
    pub fn from_digraph(g: &crate::DiGraph) -> Self {
        let n = g.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(g.edge_count());
        for u in 0..n {
            let start = col_idx.len();
            col_idx.extend(g.successors(u).iter().map(|&v| v as u32));
            col_idx[start..].sort_unstable();
            row_ptr.push(col_idx.len());
        }
        Self { row_ptr, col_idx }
    }

    /// Converts back to an adjacency-list [`crate::DiGraph`] (small graphs
    /// only — the dense solvers take `DiGraph`).
    pub fn to_digraph(&self) -> crate::DiGraph {
        let mut g = crate::DiGraph::new(self.n());
        for u in 0..self.n() {
            for &v in self.successors(u) {
                g.add_edge(u, v as usize);
            }
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.col_idx.len()
    }

    /// Successors of `u`, sorted ascending.
    #[inline]
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[u]..self.row_ptr[u + 1]]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.row_ptr[u + 1] - self.row_ptr[u]
    }

    /// True iff the edge `u → v` is present (binary search within the row).
    pub fn has_edge(&self, u: usize, v: u32) -> bool {
        self.successors(u).binary_search(&v).is_ok()
    }

    /// Iterates all edges in `(source, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n()).flat_map(move |u| self.successors(u).iter().map(move |&v| (u as u32, v)))
    }

    /// The reverse (transpose) graph, built in `O(n + e)`.
    pub fn transpose(&self) -> Self {
        let n = self.n();
        let mut row_ptr = vec![0usize; n + 1];
        for &v in &self.col_idx {
            row_ptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.col_idx.len()];
        let mut cursor = row_ptr.clone();
        // Sources visited in ascending order, so each transposed row comes
        // out already sorted.
        for u in 0..n {
            for &v in self.successors(u) {
                col_idx[cursor[v as usize]] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        Self { row_ptr, col_idx }
    }

    /// Degree / occupancy statistics for `--stats` style reports.
    pub fn stats(&self) -> CsrStats {
        let n = self.n();
        let e = self.edge_count();
        let max_degree = (0..n).map(|u| self.degree(u)).max().unwrap_or(0);
        let isolated = (0..n).filter(|&u| self.degree(u) == 0).count();
        CsrStats {
            vertices: n,
            edges: e,
            avg_degree: if n == 0 { 0.0 } else { e as f64 / n as f64 },
            max_degree,
            isolated,
            density: if n == 0 {
                0.0
            } else {
                e as f64 / (n as f64 * n as f64)
            },
        }
    }

    /// Approximate heap footprint in bytes (the two flat arrays).
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
    }

    /// Serializes in the coordinate Matrix-Market dialect (1-based).
    pub fn to_matrix_market(&self) -> String {
        let mut out = String::new();
        out.push_str("%%MatrixMarket matrix coordinate pattern general\n");
        out.push_str("% systolic CsrGraph edge list (1-based: row col)\n");
        out.push_str(&format!(
            "{} {} {}\n",
            self.n(),
            self.n(),
            self.edge_count()
        ));
        for (u, v) in self.edges() {
            out.push_str(&format!("{} {}\n", u + 1, v + 1));
        }
        out
    }

    /// Parses the coordinate Matrix-Market dialect only: unlike
    /// [`CsrGraph::read`], a text without a size line is an error, not an
    /// edge list. Duplicate entries are deduplicated, so
    /// `parse(write(g)) == g` exactly.
    pub fn parse_matrix_market(text: &str) -> Result<Self, LoadError> {
        let (n, edges) = collect_edges(text.as_bytes(), Some(Dialect::MatrixMarket))?;
        Ok(Self::from_edges(n, &edges))
    }

    /// Reads a graph in either dialect (see the module docs).
    pub fn read(input: impl BufRead) -> Result<Self, LoadError> {
        let (n, edges) = read_edges(input)?;
        Ok(Self::from_edges(n, &edges))
    }

    /// Reads a graph file from disk, in either dialect.
    pub fn load(path: &std::path::Path) -> Result<Self, LoadError> {
        let file = std::fs::File::open(path)
            .map_err(|e| LoadError::new(0, format!("{}: {e}", path.display())))?;
        Self::read(std::io::BufReader::new(file))
    }

    /// Writes a Matrix-Market file to disk.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_matrix_market())
    }
}

/// Longest line the reader takes, in bytes. A longer line is an error, so
/// no input makes the reader buffer more than this at once.
const MAX_LINE_BYTES: usize = 1 << 16;

/// The two text dialects of a graph file (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dialect {
    MatrixMarket,
    EdgeList,
}

/// Reads a graph in either dialect as its vertex count and its edges in
/// file order; a weight column must be a number and is dropped. Nothing
/// vertex-sized is allocated, so a caller with a vertex cap can refuse
/// the count before [`CsrGraph::from_edges`] builds the graph.
pub fn read_edges(input: impl BufRead) -> Result<(usize, Vec<(u32, u32)>), LoadError> {
    collect_edges(input, None)
}

fn collect_edges(
    input: impl BufRead,
    dialect: Option<Dialect>,
) -> Result<(usize, Vec<(u32, u32)>), LoadError> {
    let mut edges = Vec::new();
    let n = read_dialect(input, dialect, |u, v, _: Option<f64>| {
        edges.push((u, v));
        Ok(())
    })?;
    Ok((n, edges))
}

/// The graph reader: hands each entry of `input`, in file order, to
/// `entry` as a 0-based `(u, v)` and its optional weight column parsed as
/// `W`, and returns the vertex count. The dialect is sniffed from the
/// first non-blank line (see the module docs).
///
/// # Errors
/// A [`LoadError`] naming the line for a malformed line, an id outside
/// the `u32` id space (or outside a Matrix-Market size line's range), a
/// weight that does not parse as `W`, a line over 64 KiB, invalid UTF-8,
/// an I/O error or an error `entry` returns. An edge list without edges,
/// and a Matrix-Market text whose entry count differs from its size line,
/// are errors too.
pub fn read_entries<W: FromStr>(
    input: impl BufRead,
    entry: impl FnMut(u32, u32, Option<W>) -> Result<(), String>,
) -> Result<usize, LoadError> {
    read_dialect(input, None, entry)
}

fn read_dialect<W: FromStr>(
    mut input: impl BufRead,
    mut dialect: Option<Dialect>,
    mut entry: impl FnMut(u32, u32, Option<W>) -> Result<(), String>,
) -> Result<usize, LoadError> {
    let mut buf = Vec::new();
    let mut line = 0;
    // Matrix-Market: the size line's vertex and entry counts.
    let mut size = None;
    // Edge list: one more than the largest id.
    let mut vertices = 0;
    let mut entries = 0;
    loop {
        line += 1;
        let at = |message: String| LoadError::new(line, message);
        buf.clear();
        let got = (&mut input)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
            .map_err(|e| at(format!("read failed: {e}")))?;
        if got == 0 {
            break;
        }
        if buf.len() > MAX_LINE_BYTES && !buf.ends_with(b"\n") {
            return Err(at(format!("line longer than {MAX_LINE_BYTES} bytes")));
        }
        let text = std::str::from_utf8(&buf)
            .map_err(|_| at("invalid UTF-8".into()))?
            .trim_ascii();
        if text.is_empty() {
            continue;
        }
        let dialect = *dialect.get_or_insert(if text.starts_with('%') {
            Dialect::MatrixMarket
        } else {
            Dialect::EdgeList
        });
        let data = match dialect {
            Dialect::MatrixMarket if text.starts_with('%') => continue,
            Dialect::MatrixMarket => text,
            Dialect::EdgeList => match text.bytes().position(|b| b == b'#') {
                Some(hash) => text[..hash].trim_ascii_end(),
                None => text,
            },
        };
        if data.is_empty() {
            continue;
        }
        if dialect == Dialect::MatrixMarket && size.is_none() {
            size = Some(size_line(data).map_err(at)?);
            continue;
        }
        let mut fields = data.split_ascii_whitespace();
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            return Err(at(
                "entry line must be two ids and an optional weight".into()
            ));
        };
        let weight = match fields.next() {
            Some(w) => Some(w.parse().map_err(|_| at(format!("bad weight {w:?}")))?),
            None => None,
        };
        if fields.next().is_some() {
            return Err(at("too many fields on entry line".into()));
        }
        let (u, v) = match size {
            Some((n, _)) => matrix_market_entry(a, b, n),
            None => vertex_id(a).and_then(|u| Ok((u, vertex_id(b)?))),
        }
        .map_err(at)?;
        entry(u, v, weight).map_err(at)?;
        entries += 1;
        vertices = vertices.max(u.max(v) as usize + 1);
    }
    match (dialect, size) {
        (Some(Dialect::MatrixMarket), Some((n, declared))) if entries == declared => Ok(n),
        (Some(Dialect::MatrixMarket), Some((_, declared))) => Err(LoadError::new(
            0,
            format!("size line declared {declared} entries but file has {entries}"),
        )),
        (Some(Dialect::MatrixMarket), None) => {
            Err(LoadError::new(0, "missing size line `rows cols nnz`"))
        }
        _ if entries == 0 => Err(LoadError::new(
            0,
            "input contains no edges (empty or comment-only)",
        )),
        _ => Ok(vertices),
    }
}

/// A Matrix-Market size line `rows cols nnz` as the vertex count and the
/// declared entry count.
fn size_line(line: &str) -> Result<(usize, usize), String> {
    let mut it = line.split_ascii_whitespace();
    let (Some(r), Some(c), Some(z), None) = (it.next(), it.next(), it.next(), it.next()) else {
        return Err("size line must be exactly `rows cols nnz`".into());
    };
    let count = |tok: &str, what: &str| -> Result<usize, String> {
        tok.parse().map_err(|_| format!("bad {what} count {tok:?}"))
    };
    let (rows, cols) = (count(r, "row")?, count(c, "column")?);
    if rows != cols {
        return Err(format!(
            "adjacency matrix must be square, got {rows}×{cols}"
        ));
    }
    if rows > u32::MAX as usize {
        return Err(format!("{rows} vertices exceeds the u32 id space"));
    }
    Ok((rows, count(z, "entry")?))
}

/// A 1-based Matrix-Market entry `row col` as a 0-based edge.
fn matrix_market_entry(a: &str, b: &str, n: usize) -> Result<(u32, u32), String> {
    let index = |tok: &str, what: &str| -> Result<u32, String> {
        tok.parse().map_err(|_| format!("bad {what} index {tok:?}"))
    };
    let (u, v) = (index(a, "row")?, index(b, "column")?);
    if u == 0 || v == 0 || u as usize > n || v as usize > n {
        return Err(format!("entry ({u}, {v}) outside 1..={n}"));
    }
    Ok((u - 1, v - 1))
}

/// A 0-based edge-list id. The largest is `u32::MAX - 1`, so the vertex
/// count still fits the `u32` id space.
fn vertex_id(tok: &str) -> Result<u32, String> {
    tok.parse()
        .ok()
        .filter(|&id| id < u32::MAX)
        .ok_or_else(|| format!("bad vertex id {tok:?} (ids run 0..={})", u32::MAX - 1))
}

/// Degree and occupancy summary of a [`CsrGraph`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CsrStats {
    /// Vertex count.
    pub vertices: usize,
    /// Edge count (after dedup).
    pub edges: usize,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Largest out-degree.
    pub max_degree: usize,
    /// Vertices with no outgoing edges.
    pub isolated: usize,
    /// Edge density `e / n²`.
    pub density: f64,
}

impl fmt::Display for CsrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} edges={} avg_deg={:.2} max_deg={} isolated={} density={:.2e}",
            self.vertices,
            self.edges,
            self.avg_degree,
            self.max_degree,
            self.isolated,
            self.density
        )
    }
}

/// A Matrix-Market parse/IO failure: line number (1-based, 0 when the
/// error is not tied to one line) plus a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadError {
    /// 1-based line of the offending input, 0 for file-level errors.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl LoadError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_sorts_and_dedups() {
        let g = CsrGraph::from_edges(4, &[(2, 1), (0, 3), (0, 1), (0, 3), (2, 0)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(0), &[1, 3]);
        assert_eq!(g.successors(1), &[] as &[u32]);
        assert_eq!(g.successors(2), &[0, 1]);
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn digraph_round_trip() {
        let mut d = crate::DiGraph::new(5);
        for (u, v) in [(0, 2), (2, 4), (4, 0), (1, 3)] {
            d.add_edge(u, v);
        }
        let g = CsrGraph::from_digraph(&d);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.to_digraph(), d);
    }

    #[test]
    fn from_digraph_matches_from_edges_on_unsorted_successors() {
        let mut rng = systolic_util::Rng::seed_from_u64(29);
        for (n, e) in [(1usize, 3usize), (7, 20), (60, 300), (200, 150)] {
            // Random insertion order leaves successor lists unsorted, and
            // deletes shift what follows, as the service's graph does.
            let mut d = crate::DiGraph::new(n);
            let mut edges = Vec::new();
            for _ in 0..e {
                let (u, v) = (rng.gen_usize(n), rng.gen_usize(n));
                d.add_edge(u, v);
                edges.push((u as u32, v as u32));
            }
            for &(u, v) in edges.iter().step_by(5) {
                d.remove_edge(u as usize, v as usize);
            }
            let unsorted = (0..n).any(|u| d.successors(u).windows(2).any(|w| w[0] > w[1]));
            assert!(unsorted || n < 60, "n={n}: successors came out sorted");
            let kept: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| d.successors(u).iter().map(move |&v| (u as u32, v as u32)))
                .collect();
            assert_eq!(
                CsrGraph::from_digraph(&d),
                CsrGraph::from_edges(n, &kept),
                "n={n}"
            );
        }
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        let t = g.transpose();
        assert_eq!(t.successors(1), &[0, 2]);
        assert_eq!(t.successors(2), &[0]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn matrix_market_round_trip_is_bit_identical() {
        let g = CsrGraph::from_edges(6, &[(0, 5), (5, 0), (3, 3), (1, 2), (2, 1)]);
        let text = g.to_matrix_market();
        let back = CsrGraph::parse_matrix_market(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_matrix_market(), text);
    }

    #[test]
    fn parser_accepts_comments_and_weight_column() {
        let text = "% leading comment\n\n3 3 2\n1 2 7.5\n% interior comment\n3 1\n";
        let g = CsrGraph::parse_matrix_market(text).unwrap();
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn parser_errors_not_panics() {
        let cases: &[(&str, &str)] = &[
            ("", "missing size line"),
            ("3 3\n", "exactly"),
            ("3 4 0\n", "square"),
            ("x 3 0\n", "bad row count"),
            ("2 2 1\n0 1\n", "outside"),
            ("2 2 1\n1 3\n", "outside"),
            ("2 2 1\na b\n", "bad row index"),
            ("2 2 1\n1 2 0 0\n", "too many fields"),
            ("2 2 2\n1 2\n", "declared 2 entries"),
            ("2 2 1\n1\n", "entry line must be"),
        ];
        for (text, needle) in cases {
            let err = CsrGraph::parse_matrix_market(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "input {text:?}: error {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn stats_report_degrees() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let s = g.stats();
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.isolated, 2);
        assert!((s.avg_degree - 1.0).abs() < 1e-12);
        assert!(s.to_string().contains("max_deg=3"));
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.stats().density, 0.0);
        let text = g.to_matrix_market();
        assert_eq!(CsrGraph::parse_matrix_market(&text).unwrap(), g);
    }
}
