//! Compressed-sparse-row graph storage and a Matrix-Market-style text
//! format.
//!
//! [`CsrGraph`] stores a digraph as two flat arrays — `row_ptr` (n+1
//! offsets) and `col_idx` (edge targets) — so a graph with `e` edges costs
//! `O(n + e)` memory regardless of density. This is the entry format of
//! the sparse data plane: generators emit it directly, the Matrix-Market
//! loader parses into it, and [`crate::sparse`] condenses it without ever
//! materializing a dense `n×n` adjacency.
//!
//! The text format is the coordinate Matrix-Market dialect used by sparse
//! linear-algebra tools: `%`-prefixed comment lines, one `rows cols nnz`
//! size line, then one `row col` pair per line, **1-based**. Writing a
//! graph and reading it back is bit-identical (edges come out sorted and
//! deduplicated both ways).

use std::fmt;

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

    /// Parses the coordinate Matrix-Market dialect. Errors (never panics)
    /// on malformed headers, out-of-range or non-numeric coordinates, and
    /// truncated entry lists. Duplicate entries are deduplicated, so
    /// `parse(write(g)) == g` exactly.
    pub fn parse_matrix_market(text: &str) -> Result<Self, LoadError> {
        let (n, edges) = parse_edges(text)?;
        Ok(Self::from_edges(n, &edges))
    }

    /// Reads a Matrix-Market file from disk.
    pub fn load(path: &std::path::Path) -> Result<Self, LoadError> {
        let (n, edges) = Self::load_edges(path)?;
        Ok(Self::from_edges(n, &edges))
    }

    /// Reads a Matrix-Market file as its declared vertex count and its
    /// 0-based entries, checked as [`CsrGraph::parse_matrix_market`]
    /// checks them. Nothing vertex-sized is allocated, so a caller with a
    /// vertex cap can refuse an oversized declaration before
    /// [`CsrGraph::from_edges`] builds the graph.
    pub fn load_edges(path: &std::path::Path) -> Result<(usize, Vec<(u32, u32)>), LoadError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| LoadError::new(0, format!("{}: {e}", path.display())))?;
        parse_edges(&text)
    }

    /// Writes a Matrix-Market file to disk.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_matrix_market())
    }
}

/// The size line's vertex count and the entries of a Matrix-Market text.
fn parse_edges(text: &str) -> Result<(usize, Vec<(u32, u32)>), LoadError> {
    let mut lines = text.lines().enumerate();
    // Size line: first non-comment, non-blank line.
    let (n, declared_nnz) = loop {
        let Some((idx, raw)) = lines.next() else {
            return Err(LoadError::new(0, "missing size line `rows cols nnz`"));
        };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(r), Some(c), Some(z), None) = (it.next(), it.next(), it.next(), it.next()) else {
            return Err(LoadError::new(
                idx + 1,
                "size line must be exactly `rows cols nnz`",
            ));
        };
        let rows: usize = r
            .parse()
            .map_err(|_| LoadError::new(idx + 1, format!("bad row count {r:?}")))?;
        let cols: usize = c
            .parse()
            .map_err(|_| LoadError::new(idx + 1, format!("bad column count {c:?}")))?;
        if rows != cols {
            return Err(LoadError::new(
                idx + 1,
                format!("adjacency matrix must be square, got {rows}×{cols}"),
            ));
        }
        if rows > u32::MAX as usize {
            return Err(LoadError::new(
                idx + 1,
                format!("{rows} vertices exceeds the u32 id space"),
            ));
        }
        let nnz: usize = z
            .parse()
            .map_err(|_| LoadError::new(idx + 1, format!("bad entry count {z:?}")))?;
        break (rows, nnz);
    };
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(declared_nnz.min(1 << 24));
    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(LoadError::new(idx + 1, "entry line must be `row col`"));
        };
        // A third token is tolerated (pattern files written with a
        // weight column); more is malformed.
        let _weight = it.next();
        if it.next().is_some() {
            return Err(LoadError::new(idx + 1, "too many fields on entry line"));
        }
        let u: usize = a
            .parse()
            .map_err(|_| LoadError::new(idx + 1, format!("bad row index {a:?}")))?;
        let v: usize = b
            .parse()
            .map_err(|_| LoadError::new(idx + 1, format!("bad column index {b:?}")))?;
        if u == 0 || v == 0 || u > n || v > n {
            return Err(LoadError::new(
                idx + 1,
                format!("entry ({u}, {v}) outside 1..={n}"),
            ));
        }
        edges.push(((u - 1) as u32, (v - 1) as u32));
    }
    if edges.len() != declared_nnz {
        return Err(LoadError::new(
            0,
            format!(
                "size line declared {declared_nnz} entries but file has {}",
                edges.len()
            ),
        ));
    }
    Ok((n, edges))
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
