//! End-to-end tests of the `systolic` command-line binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_systolic"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("systolic-test-{name}-{}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn closure_on_edge_file() {
    let f = write_temp("edges", "0 1\n1 2\n2 0\n2 3\n");
    let out = bin()
        .args(["closure", "--backend", "linear:3", "--show"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("13 reachable pairs"), "{text}");
    assert!(text.contains("linear-partitioned"), "{text}");
    // The cycle {0,1,2} reaches everything; 3 reaches only itself.
    assert!(text.contains("1111"));
    assert!(text.contains("...1"));
    std::fs::remove_file(f).ok();
}

#[test]
fn closure_with_mapping_flag() {
    let f = write_temp("edges-mapping", "0 1\n1 2\n2 0\n2 3\n");
    // --mapping speaks the mapping layer's names; lsgp runs the simulated
    // coalescing engine, lpgs is an alias of the linear backend.
    let out = bin()
        .args(["closure", "--mapping", "lsgp:3"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("13 reachable pairs"), "{text}");
    assert!(text.contains("lsgp-coalescing"), "{text}");

    let out = bin()
        .args(["closure", "--mapping", "lpgs:3"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("linear-partitioned"), "{text}");

    let out = bin()
        .args(["closure", "--mapping", "hexagonal"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mapping"));
    std::fs::remove_file(f).ok();
}

#[test]
fn closure_reads_stdin() {
    let mut child = bin()
        .args(["closure", "--backend", "reference", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"0 1\n1 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 reachable pairs"));
}

#[test]
fn paths_finds_shortest_route() {
    let f = write_temp("weights", "0 1 5\n1 2 2\n0 2 9\n");
    let out = bin()
        .args(["paths"])
        .arg(&f)
        .args(["0", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("distance 7"), "{text}");
    assert!(text.contains("[0, 1, 2]"), "{text}");
    std::fs::remove_file(f).ok();
}

#[test]
fn schedule_reports_legality() {
    let out = bin().args(["schedule", "10", "3"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dependence-legal"), "{text}");
    assert!(text.contains("110 G-nodes"), "{text}"); // n(n+1)

    let out = bin()
        .args(["schedule", "10", "2", "--grid"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("grid mapping"));
    assert!(out.status.success());
}

#[test]
fn schedule_and_info_reject_degenerate_sizes() {
    // Regression: these used to panic with a backtrace (exit 101), print
    // `inf` with exit 0, fall back to m = 4 on an unparsable m, or let a
    // third argument overwrite m.
    for args in [
        vec!["schedule", "10", "0"],
        vec!["schedule", "10", "0", "--grid"],
        vec!["schedule", "1", "3"],
        vec!["schedule", "10", "3", "5"],
        vec!["info", "0"],
        vec!["info", "10", "0"],
        vec!["info", "10", "x"],
        vec!["info", "10", "3", "5"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn info_prints_the_paper_formulas() {
    let out = bin().args(["info", "100", "8"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("970200"), "{text}"); // 100·99·98
    assert!(text.contains("0.9606"), "{text}"); // utilization
    assert!(text.contains("126250"), "{text}"); // cycles per problem
}

#[test]
fn plancache_verifies_cached_reuse() {
    let out = bin()
        .args([
            "plancache",
            "--n",
            "10",
            "--cells",
            "3",
            "--instances",
            "3",
            "--iters",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("byte-identical to fresh build: true"),
        "{text}"
    );
    assert!(text.contains("speedup"), "{text}");
}

#[test]
fn packed_verifies_lane_identity() {
    // 70 instances share one simulation on the 128-lane word.
    let out = bin()
        .args([
            "packed",
            "--n",
            "8",
            "--cells",
            "3",
            "--instances",
            "70",
            "--iters",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(1 lane group)"), "{text}");
    assert!(text.contains("byte-identical to scalar: true"), "{text}");
    assert!(text.contains("speedup"), "{text}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = bin().args(["closure"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn zero_sized_backend_args_exit_cleanly() {
    // Regression: these used to trip debug asserts (or divide by zero)
    // deep inside the mapping constructors instead of failing usage.
    let f = write_temp("edges-zero-backend", "0 1\n1 2\n");
    for spec in ["linear:0", "grid:0", "lsgp:0", "blocked:0"] {
        let out = bin()
            .args(["closure", "--backend", spec])
            .arg(&f)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{spec} must fail");
        assert_eq!(out.status.code(), Some(2), "{spec}: clean exit, no panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("at least 1"), "{spec}: {err}");
        assert!(!err.contains("panicked"), "{spec}: {err}");
    }
    for spec in ["lpgs:0", "lsgp:0", "grid:0"] {
        let out = bin()
            .args(["closure", "--mapping", spec])
            .arg(&f)
            .output()
            .unwrap();
        assert!(!out.status.success(), "--mapping {spec} must fail");
        assert_eq!(out.status.code(), Some(2));
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
    std::fs::remove_file(f).ok();
}

#[test]
fn malformed_edge_files_are_rejected() {
    // Regression: empty/comment-only input used to parse as a spurious
    // one-vertex graph, and trailing tokens were silently dropped.
    let cases = [
        ("empty", ""),
        ("comments", "# only\n# comments\n\n"),
        ("trailing", "0 1\n1 2 extra\n"),
        ("nonsense", "zero one\n"),
    ];
    for (name, content) in cases {
        let f = write_temp(&format!("edges-bad-{name}"), content);
        let out = bin()
            .args(["closure", "--backend", "bit"])
            .arg(&f)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{name} must be rejected");
        assert_eq!(out.status.code(), Some(2), "{name}: clean usage exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{name}: {err}");
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn serve_rejects_zero_session_and_line_limits() {
    // Regression: `--accept 0` served one session like `--accept 1`,
    // `--sessions 0` was silently raised to 1, and `--max-line 0` answered
    // every command `ERR line too long` and exited 0.
    for flag in ["--accept", "--sessions", "--max-line"] {
        let out = bin()
            .args(["serve", "--vertices", "4", flag, "0"])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} 0: clean usage exit");
        assert!(out.stdout.is_empty(), "{flag} 0 served a session");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag} must be at least 1")), "{err}");
    }
}

#[test]
fn serve_starts_on_a_million_vertices() {
    // The served closure is one component row per vertex here, not an
    // n×n matrix (which would take 125 GB at this size).
    let mut child = bin()
        .args(["serve", "--vertices", "1000000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"REACH 0 1\nQUIT\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "REACH 0 1 false\nBYE\n"
    );
}

#[test]
fn serve_runs_a_session_over_stdio() {
    let mut child = bin()
        .args(["serve", "--vertices", "6"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"INSERT 0 1\nINSERT 1 2\nREACH 0 2\nDELETE 0 1\nREACH 0 2\nBOGUS\nSTATS\nQUIT\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "OK INSERT 0 1 added=1");
    assert_eq!(lines[2], "REACH 0 2 true");
    assert_eq!(lines[4], "REACH 0 2 false");
    assert!(lines[5].starts_with("ERR "), "{}", lines[5]);
    assert!(lines[6].starts_with("STATS "), "{}", lines[6]);
    assert_eq!(lines[7], "BYE");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("session over: 7 commands, 1 errors"), "{err}");
}

#[test]
fn closure_sparse_on_generated_graph() {
    let out = bin()
        .args([
            "closure",
            "--gen",
            "powerlaw:n=2000,d=4,seed=7",
            "--sparse",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("graph: n=2000"), "{text}");
    assert!(text.contains("SCCs"), "{text}");
    assert!(text.contains("(sparse, Exact mode"), "{text}");
    assert!(text.contains("fill-in:"), "{text}");
    assert!(text.contains("condensation:"), "{text}");
}

#[test]
fn closure_sparse_matches_dense_rows_via_load() {
    // The same 4-vertex graph as `closure_on_edge_file`, shipped as a
    // 1-based Matrix-Market file through --load --sparse: the --show
    // grid must be identical to the dense backend's.
    let mtx = write_temp(
        "load-roundtrip.mtx",
        "%%MatrixMarket matrix coordinate pattern general\n4 4 4\n1 2\n2 3\n3 1\n3 4\n",
    );
    let out = bin()
        .args(["closure", "--load"])
        .arg(&mtx)
        .args(["--sparse", "--show"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1111"), "{text}");
    assert!(text.contains("...1"), "{text}");
    std::fs::remove_file(mtx).ok();
}

#[test]
fn closure_refuses_unknown_flags_and_a_second_input() {
    let gen = ["closure", "--gen", "gnp:n=300,p=0.01,seed=3", "--sparse"];
    let mtx = write_temp(
        "refuse-second-input.mtx",
        "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n",
    );
    let load = ["closure", "--load", mtx.to_str().unwrap()];
    for (base, extra, named) in [
        (&gen[..], &["--tile", "64"][..], "--tile"),
        (&gen, &["--tilee", "32"], "--tilee"),
        (&gen, &["edges.txt", "more.txt"], "more.txt"),
        (&gen, &["/nonexistent/edges.txt"], "/nonexistent/edges.txt"),
        (
            &gen,
            &["--gen", "gnp:n=30,p=0.1,seed=1"],
            "gnp:n=30,p=0.1,seed=1",
        ),
        (
            &load,
            &["--gen", "gnp:n=30,p=0.1,seed=1"],
            "gnp:n=30,p=0.1,seed=1",
        ),
        (&gen, &["--threads", "4"], "--threads"),
    ] {
        let out = bin().args(base).args(extra).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}: usage exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(named) && err.contains("usage:"),
            "{extra:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{extra:?}: nothing closed");
    }
    std::fs::remove_file(mtx).ok();
}

#[test]
fn closure_bad_gen_and_load_exit_cleanly() {
    for spec in ["powerlaw:n=0", "mesh:n=5", "powerlaw:n=ten", "powerlaw:q=1"] {
        let out = bin().args(["closure", "--gen", spec]).output().unwrap();
        assert!(!out.status.success(), "--gen {spec} must fail");
        assert_eq!(out.status.code(), Some(2), "--gen {spec}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "--gen {spec}: {err}");
    }
    let out = bin()
        .args(["closure", "--load", "/nonexistent/graph.mtx"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn serve_loads_a_matrix_market_file() {
    let mtx = write_temp(
        "serve-load.mtx",
        "%%MatrixMarket matrix coordinate pattern general\n4 4 4\n1 2\n2 3\n3 1\n3 4\n",
    );
    let mut child = bin()
        .args(["serve", "--vertices", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(
            format!(
                "LOAD {}\nREACH 0 3\nLOAD /nonexistent.mtx\nREACH 0 3\nQUIT\n",
                mtx.display()
            )
            .as_bytes(),
        )
        .unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "OK LOAD n=4 edges=4", "{text}");
    assert_eq!(lines[1], "REACH 0 3 true", "{text}");
    assert!(lines[2].starts_with("ERR "), "{text}");
    // A failed LOAD leaves the previous graph serving.
    assert_eq!(lines[3], "REACH 0 3 true", "{text}");
    std::fs::remove_file(mtx).ok();
}

#[test]
fn serve_seeds_from_an_edge_file() {
    let f = write_temp("edges-serve", "0 1\n1 2\n2 0\n");
    let mut child = bin()
        .args(["serve", "--file"])
        .arg(&f)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"REACH 2 1\nQUIT\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("REACH 2 1 true"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_file(f).ok();
}

#[test]
fn algo_lu_matches_the_dependence_graph_reference() {
    let out = bin()
        .args(["algo", "lu", "-n", "16", "--mapping", "lpgs:4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("lu n = 16"), "{text}");
    assert!(text.contains("linear-partitioned"), "{text}");
    assert!(
        text.contains("bit-identical to the dependence-graph reference: true"),
        "{text}"
    );
}

#[test]
fn algo_faddeev_runs_on_the_grid_mapping() {
    let out = bin()
        .args(["algo", "faddeev", "-n", "16", "--mapping", "grid:4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("faddeev"), "{text}");
    assert!(text.contains("grid-partitioned"), "{text}");
    assert!(text.contains("Schur complement"), "{text}");
    assert!(
        text.contains("bit-identical to the dependence-graph reference: true"),
        "{text}"
    );
}

#[test]
fn algo_timed_runs_vary_the_gnode_durations() {
    let out = bin()
        .args(["algo", "lu", "-n", "12", "--mapping", "grid:3", "--timed"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("varying"), "{text}");
    assert!(
        text.contains("bit-identical to the dependence-graph reference: true"),
        "{text}"
    );
}

#[test]
fn bare_grid_is_a_four_cell_array_in_every_command() {
    // One `name[:N]` grammar with one default per name: a bare `grid` is
    // the 2×2 array, the same 4 cells as a bare `lpgs`.
    let f = write_temp("edges-bare-grid", "0 1\n1 2\n2 0\n2 3\n");
    for flag in ["--backend", "--mapping"] {
        let out = bin()
            .args(["closure", flag, "grid"])
            .arg(&f)
            .output()
            .unwrap();
        assert!(out.status.success(), "closure {flag} grid");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("on 4 cells"), "closure {flag} grid: {text}");
    }
    std::fs::remove_file(f).ok();
    let out = bin()
        .args(["algo", "lu", "-n", "6", "--mapping", "grid"])
        .output()
        .unwrap();
    assert!(out.status.success(), "algo --mapping grid");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("grid-partitioned (4 cells)"), "{text}");
}

#[test]
fn algo_bad_usage_exits_cleanly() {
    for args in [
        vec!["algo"],
        vec!["algo", "cholesky"],
        vec!["algo", "lu", "--mapping", "torus:4"],
        vec!["algo", "lu", "-n", "1"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// The 4-vertex graph of `closure_on_edge_file` in the Matrix-Market
/// dialect (1-based).
const CYCLE_MTX: &str =
    "%%MatrixMarket matrix coordinate pattern general\n4 4 4\n1 2\n2 3\n3 1\n3 4\n";

#[test]
fn closure_reads_both_dialects_from_every_input() {
    let mtx = write_temp("dialects.mtx", CYCLE_MTX);
    let edges = write_temp("dialects-edges", "0 1\n1 2\n2 0\n2 3\n");
    for input in [
        vec![mtx.to_str().unwrap()],
        vec!["--load", mtx.to_str().unwrap()],
        vec![edges.to_str().unwrap()],
        vec!["--load", edges.to_str().unwrap()],
    ] {
        let out = bin()
            .args(["closure", "--backend", "bit", "--show"])
            .args(&input)
            .output()
            .unwrap();
        assert!(out.status.success(), "{input:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("4 vertices, 4 edges → 13 reachable pairs"),
            "{input:?}: {text}"
        );
        assert!(
            text.ends_with("1111\n1111\n1111\n...1\n"),
            "{input:?}: {text}"
        );
    }
    let mut child = bin()
        .args(["closure", "--backend", "reference", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(CYCLE_MTX.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("13 reachable pairs"));
    std::fs::remove_file(mtx).ok();
    std::fs::remove_file(edges).ok();
}

#[test]
fn paths_reads_both_dialects_and_needs_weights() {
    let mtx = write_temp(
        "weights.mtx",
        "%%MatrixMarket matrix coordinate integer general\n3 3 3\n1 2 5\n2 3 2\n1 3 9\n",
    );
    let edges = write_temp("weights-edges", "0 1 5\n1 2 2\n0 2 9\n");
    for f in [&mtx, &edges] {
        let out = bin().arg("paths").arg(f).args(["0", "2"]).output().unwrap();
        assert!(out.status.success(), "{f:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text, "distance 7 via [0, 1, 2]\n", "{f:?}");
    }
    let unweighted = write_temp("weights-missing", "0 1 5\n1 2\n");
    let out = bin()
        .arg("paths")
        .arg(&unweighted)
        .args(["0", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2: paths needs a weight"));
    for f in [mtx, edges, unweighted] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn serve_file_and_load_read_both_dialects() {
    let mtx = write_temp("serve-dialects.mtx", CYCLE_MTX);
    let edges = write_temp("serve-dialects-edges", "0 1\n1 2\n2 0\n2 3\n");
    let session = |args: &[&str], commands: String| -> String {
        let mut child = bin()
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(commands.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "{args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let queries = "REACH 2 1\nREACH 3 0\nQUIT\n";
    for f in [&mtx, &edges] {
        let text = session(&["--file", f.to_str().unwrap()], queries.to_string());
        assert_eq!(text, "REACH 2 1 true\nREACH 3 0 false\nBYE\n", "{f:?}");
        let text = session(
            &["--vertices", "2"],
            format!("LOAD {}\n{queries}", f.display()),
        );
        assert_eq!(
            text, "OK LOAD n=4 edges=4\nREACH 2 1 true\nREACH 3 0 false\nBYE\n",
            "{f:?}"
        );
    }
    std::fs::remove_file(mtx).ok();
    std::fs::remove_file(edges).ok();
}

#[test]
fn ids_past_the_u32_space_exit_cleanly() {
    // Regression: `max_v + 1` wrapped to 0, so `closure` panicked with
    // `edge source 0 out of range (n=0)` and `paths` with `vertex out of
    // range`.
    let f = write_temp("edges-u64-id", "0 18446744073709551615\n");
    for args in [vec!["closure"], vec!["paths"]] {
        let mut cmd = bin();
        cmd.args(&args).arg(&f);
        if args[0] == "paths" {
            cmd.args(["0", "1"]);
        }
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("line 1: bad vertex id"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    std::fs::remove_file(f).ok();
}

#[test]
fn dense_closure_past_the_sparse_threshold_exits_cleanly() {
    // An explicit dense backend used to build the n×n matrix at any size
    // (at n = 200 000, a 40 GB allocation that aborted).
    let out = bin()
        .args([
            "closure",
            "--backend",
            "bit",
            "--stats",
            "--gen",
            "gnp:n=5000,p=0.0001,seed=1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing closed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("4096") && err.contains("--sparse") && err.contains("usage:"),
        "{err}"
    );
    // `paths` closes a dense n×n distance matrix too; the largest legal id
    // used to ask for a 2⁶⁴-byte one.
    let f = write_temp("weights-huge-id", "0 4294967294 1\n");
    let out = bin()
        .arg("paths")
        .arg(&f)
        .args(["0", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("4294967295") && err.contains("4096"), "{err}");
    std::fs::remove_file(f).ok();
}
