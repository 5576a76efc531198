//! `systolic` — command-line front end to the reproduction.
//!
//! ```text
//! systolic closure  [--backend B] [--mapping M] [--show] <file|-|--load F|--gen S>
//!                                                           transitive closure
//! systolic paths    <file|-> <src> <dst>                    shortest route
//! systolic schedule <n> <m> [--grid]                        G-set schedule summary
//! systolic gantt    <n> <m>                                 cell-occupancy chart
//! systolic info     <n> [m]                                 paper's analytic measures
//! systolic campaign [--seed S] [--rate R] [--instances K] …  fault-injection campaign
//! systolic algo     <lu|faddeev> [--mapping M] [-n N]       elimination pipeline vs reference
//! systolic plancache [--n N] [--cells M] [--instances K]    plan-cache reuse check
//! systolic packed   [--n N] [--cells M] [--instances K]     lane-packed identity check
//! systolic serve    [--vertices N|--file F|-] [--socket A] long-running reachability server
//! ```
//!
//! Every graph input (`closure`, `paths`, `serve --file` and the service's
//! `LOAD`) goes through the one reader in `closure::csr`, which takes
//! either dialect: an edge list of `u v [w]` lines, vertices numbered from
//! 0 and `#` comments, or a Matrix-Market file (`%%MatrixMarket` banner,
//! size line, 1-based entries). `paths` needs the weight column; `-`
//! reads stdin.

use std::io::{BufRead, BufReader};
use systolic::arraysim::{render_gantt, RunStats};
use systolic::closure::{
    read_entries, shortest_paths_with_routes, Backend, ClosureSolver, CsrGraph, DiGraph,
    SparseClosure, WeightedDiGraph,
};
use systolic::metrics::LinearModel;
use systolic::partition::{
    Algo, ClosureEngine, GraphMapping, GsetSchedule, LinearEngine, MappedEngine, PackedEngine,
};
use systolic_semiring::{Bool, DenseMatrix, Real};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    eprintln!("usage:");
    eprintln!("  systolic closure  [--backend linear:M|grid:S|lsgp:M|fixed|fixed-linear|reference|bit|blocked:B] [--mapping lpgs:M|lsgp:M|grid:S|fixed|fixed-linear] [--show]");
    eprintln!("                    [--sparse] [--stats]   (sparse path auto-selected above 4096 vertices, where a dense closure is refused)");
    eprintln!("                    <file|-> | --load <file|-> | --gen powerlaw:n=N,d=D,seed=S | gnp:n=N,p=P,seed=S | bowtie:n=N,seed=S");
    eprintln!("  systolic paths    <file|-> <src> <dst>");
    eprintln!("  systolic schedule <n> <m> [--grid]");
    eprintln!("  systolic gantt    <n> <m>");
    eprintln!("  systolic info     <n> [m]");
    eprintln!(
        "  systolic algo     <lu|faddeev> [--mapping lpgs:M|grid:S] [-n N] [--seed S] [--timed]"
    );
    eprintln!("  systolic campaign [--seed S] [--n N] [--cells M] [--instances K] [--rate R] [--retries T] [--hot CELL:WEIGHT] [--packed-lane L]");
    eprintln!("  systolic plancache [--n N] [--cells M] [--instances K] [--iters I]");
    eprintln!("  systolic packed   [--n N] [--cells M] [--instances K] [--iters I]");
    eprintln!("  systolic serve    [--vertices N | --file F|-] [--batched] [--cells M] [--socket ADDR] [--sessions K] [--accept N]");
    eprintln!("                    [--wal F [--snapshot-every N]] [--max-pending N] [--max-line BYTES] [--read-timeout-ms MS]");
    eprintln!("  graph files: `u v [w]` lines (0-based, `#` comments) or Matrix-Market (`%%MatrixMarket` banner, 1-based)");
    std::process::exit(2);
}

/// Opens a graph input for the reader: a file, or `-` for stdin.
fn graph_input(path: &str) -> Box<dyn BufRead> {
    if path == "-" {
        return Box::new(std::io::stdin().lock());
    }
    let file = std::fs::File::open(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    Box::new(BufReader::new(file))
}

/// Reads a graph file or `-` (either dialect) as a [`CsrGraph`].
fn read_graph(path: &str) -> CsrGraph {
    CsrGraph::read(graph_input(path)).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
}

/// The value after the flag at `args[*i]`, moving `*i` onto it.
fn flag_value<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| fail(&format!("{} needs a value", args[*i - 1])))
}

/// The parsed value after the flag at `args[*i]`, moving `*i` onto it.
fn parsed<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    flag_value(args, i)
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad {flag}")))
}

/// Rejects zero-sized array parameters at the flag parser, so `linear:0`
/// and friends exit with a usage message instead of reaching an engine.
fn positive(what: &str, v: usize) -> usize {
    if v == 0 {
        fail(&format!("{what} must be at least 1"));
    }
    v
}

/// Parses a closure problem size: the G-graph needs `n ≥ 2`.
fn problem_size(arg: &str) -> usize {
    let n = arg
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad n `{arg}`")));
    if n < 2 {
        fail("n must be at least 2");
    }
    n
}

/// Parses a positive cell count `m`.
fn cell_count(arg: &str) -> usize {
    positive(
        "m",
        arg.parse()
            .unwrap_or_else(|_| fail(&format!("bad m `{arg}`"))),
    )
}

/// Array names `closure --backend` accepts.
const BACKENDS: &[&str] = &[
    "linear",
    "grid",
    "lsgp",
    "fixed",
    "fixed-linear",
    "reference",
    "bit",
    "blocked",
];
/// Array names `closure --mapping` accepts: the mapping layer's names.
const MAPPINGS: &[&str] = &["lpgs", "lsgp", "grid", "fixed", "fixed-linear"];
/// Array names `algo --mapping` accepts.
const ALGO_MAPPINGS: &[&str] = &["lpgs", "grid"];

/// Parses a `name[:N]` array spec, the one grammar of `closure --backend`,
/// `closure --mapping` and `algo --mapping`; each flag passes the names it
/// accepts. `lpgs` is the mapping layer's name for the `linear` array. A
/// bare sized name takes its one default: 4 cells for `linear`, `lpgs` and
/// `lsgp`, side 2 for `grid` (the same 4 cells), tile 4 for `blocked`.
fn parse_array(flag: &str, spec: &str, names: &[&str]) -> Backend {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    if !names.contains(&name) {
        fail(&format!(
            "unknown {flag} `{spec}` (expected one of {})",
            names.join(", ")
        ));
    }
    let size = |default: usize| -> usize {
        let v = arg.map_or(default, |a| {
            a.parse()
                .unwrap_or_else(|_| fail(&format!("bad {flag} argument `{spec}`")))
        });
        positive(&format!("{flag} `{name}` size"), v)
    };
    match name {
        "linear" | "lpgs" => Backend::Linear { cells: size(4) },
        "lsgp" => Backend::Lsgp { cells: size(4) },
        "grid" => Backend::Grid { side: size(2) },
        "blocked" => Backend::Blocked { tile: size(4) },
        "fixed" => Backend::FixedArray,
        "fixed-linear" => Backend::FixedLinear,
        "reference" => Backend::Reference,
        "bit" => Backend::BitParallel,
        _ => unreachable!("`{name}` is in no flag's name list"),
    }
}

/// Parses a `--gen` spec: `kind:key=val,key=val` with kinds `powerlaw`
/// (keys n, d, seed), `gnp` (n, p, seed) and `bowtie` (n, seed).
fn parse_gen(spec: &str) -> CsrGraph {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let mut n = 0usize;
    let mut d = 4usize;
    let mut p = 0.01f64;
    let mut seed = 1u64;
    for kv in rest.split(',').filter(|s| !s.is_empty()) {
        let Some((k, v)) = kv.split_once('=') else {
            fail(&format!("--gen: `{kv}` is not key=value"));
        };
        let bad = || -> ! { fail(&format!("--gen: bad value in `{kv}`")) };
        match k {
            "n" => n = v.parse().unwrap_or_else(|_| bad()),
            "d" => d = v.parse().unwrap_or_else(|_| bad()),
            "p" => p = v.parse().unwrap_or_else(|_| bad()),
            "seed" => seed = v.parse().unwrap_or_else(|_| bad()),
            _ => fail(&format!("--gen: unknown key `{k}`")),
        }
    }
    let n = positive("--gen vertex count n", n);
    match kind {
        "powerlaw" => systolic::closure::powerlaw(n, d, seed),
        "gnp" => systolic::closure::gnp_csr(n, p, seed),
        "bowtie" => systolic::closure::bowtie(n, seed),
        _ => fail(&format!(
            "--gen: unknown kind `{kind}` (expected powerlaw, gnp, bowtie)"
        )),
    }
}

/// Above this vertex count, `closure` routes through the sparse plane,
/// and a dense (`n×n`) closure — an explicit `--backend`/`--mapping`, or
/// `paths` — is refused before anything `n²`-sized is built.
const SPARSE_AUTO_THRESHOLD: usize = 4096;

/// Fails usage when a dense closure of `n` vertices is above the limit.
fn dense_limit(n: usize) {
    if n > SPARSE_AUTO_THRESHOLD {
        fail(&format!(
            "a dense closure is limited to {SPARSE_AUTO_THRESHOLD} vertices and this graph has \
             {n} (closure --sparse has no such limit)"
        ));
    }
}

fn cmd_closure(args: &[String]) {
    let mut backend = Backend::Linear { cells: 4 };
    let mut backend_explicit = false;
    let mut show = false;
    let mut stats = false;
    let mut sparse = false;
    // Every input as (flag, value), a bare file with an empty flag (it is
    // the same input as `--load FILE`). Exactly one is read once parsing
    // is done.
    let mut inputs: Vec<(&str, &str)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend = parse_array("backend", flag_value(args, &mut i), BACKENDS);
                backend_explicit = true;
            }
            "--mapping" => {
                backend = parse_array("mapping", flag_value(args, &mut i), MAPPINGS);
                backend_explicit = true;
            }
            flag @ ("--load" | "--gen") => inputs.push((flag, flag_value(args, &mut i))),
            "--sparse" => sparse = true,
            "--stats" => stats = true,
            "--show" => show = true,
            other if other.len() > 1 && other.starts_with('-') => {
                fail(&format!("unknown closure flag `{other}`"))
            }
            file => inputs.push(("", file)),
        }
        i += 1;
    }
    let graph = match inputs[..] {
        [("--gen", spec)] => parse_gen(spec),
        [(_, path)] => read_graph(path),
        [] => fail("closure needs an input (file, -, --load or --gen)"),
        _ => fail(&format!(
            "closure takes one input, not {}",
            inputs
                .iter()
                .map(|&(flag, value)| match flag {
                    "" => format!("`{value}`"),
                    _ => format!("`{flag} {value}`"),
                })
                .collect::<Vec<_>>()
                .join(", ")
        )),
    };
    let sparse = sparse || (!backend_explicit && graph.n() > SPARSE_AUTO_THRESHOLD);
    if !sparse {
        dense_limit(graph.n());
    }
    if stats {
        println!("graph: {}", graph.stats());
    }
    if sparse {
        closure_sparse(&graph, stats, show);
        return;
    }
    let g = graph.to_digraph();
    let solver = ClosureSolver::new(backend);
    let (reach, report) = solver
        .transitive_closure_with_report(&g)
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "{} vertices, {} edges → {} reachable pairs (backend {})",
        g.n(),
        g.edge_count(),
        reach.pair_count(),
        report.backend
    );
    if report.stats.cycles > 0 {
        println!(
            "simulated: {} cycles on {} cells, utilization {:.3}, I/O {:.3} words/cycle",
            report.stats.cycles,
            report.stats.cells,
            report.stats.useful_utilization(),
            report.stats.io_bandwidth()
        );
    }
    if show {
        for u in 0..g.n() {
            let row: String = (0..g.n())
                .map(|v| if reach.reachable(u, v) { '1' } else { '.' })
                .collect();
            println!("{row}");
        }
    }
}

/// The sparse closure path: condensation + component-DAG closure, no
/// dense `n×n` matrix at any point.
fn closure_sparse(graph: &CsrGraph, stats: bool, show: bool) {
    let start = std::time::Instant::now();
    let sc = SparseClosure::new(graph);
    let elapsed = start.elapsed();
    let s = sc.stats(1000, 42);
    println!(
        "{} vertices, {} edges → {} SCCs, {} DAG edges (sparse, {:?} mode, {:.1} ms)",
        s.n,
        s.edges,
        s.scc_count,
        s.dag_edges,
        s.mode,
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "fill-in: {:.3e} reachable pairs ({}), resident {:.1} MiB",
        s.fill.pairs,
        if s.fill.exact { "exact" } else { "sampled" },
        s.memory_bytes as f64 / (1024.0 * 1024.0)
    );
    if stats {
        println!(
            "condensation: {} nontrivial SCCs, largest row {:.3e} of {} vertices",
            s.nontrivial_sccs,
            (0..sc.n().min(64))
                .map(|u| sc.row_len(u))
                .max()
                .unwrap_or(0) as f64,
            s.n
        );
    }
    if show {
        if graph.n() > 256 {
            fail("--show is capped at 256 vertices (use queries instead)");
        }
        for u in 0..graph.n() {
            let row: String = (0..graph.n())
                .map(|v| if sc.reachable(u, v) { '1' } else { '.' })
                .collect();
            println!("{row}");
        }
    }
}

fn cmd_paths(args: &[String]) {
    let [file, src, dst] = args else {
        fail("paths needs <file> <src> <dst>")
    };
    let mut edges = Vec::new();
    let n = read_entries(graph_input(file), |u, v, w: Option<u64>| {
        edges.push((
            u as usize,
            v as usize,
            w.ok_or("paths needs a weight on every edge")?,
        ));
        Ok(())
    })
    .unwrap_or_else(|e| fail(&format!("reading {file}: {e}")));
    dense_limit(n);
    let mut g = WeightedDiGraph::new(n);
    for (u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    let src: usize = src.parse().unwrap_or_else(|_| fail("bad src"));
    let dst: usize = dst.parse().unwrap_or_else(|_| fail("bad dst"));
    if src >= n || dst >= n {
        fail("src/dst out of range");
    }
    let table = shortest_paths_with_routes(&g);
    match table.route(src, dst) {
        Some(route) => println!("distance {} via {:?}", table.distance(src, dst), route),
        None => println!("{dst} is unreachable from {src}"),
    }
}

fn cmd_schedule(args: &[String]) {
    let grid = args.iter().any(|a| a == "--grid");
    let sizes: Vec<&String> = args.iter().filter(|a| *a != "--grid").collect();
    let [n, m] = sizes[..] else {
        fail("schedule needs <n> <m> [--grid]")
    };
    let (n, m) = (problem_size(n), cell_count(m));
    let s = if grid {
        GsetSchedule::grid(n, m)
    } else {
        GsetSchedule::linear(n, m)
    };
    println!(
        "{} mapping, n = {n}, {} cells: {} G-sets ({} boundary), {} G-nodes",
        if grid { "grid" } else { "linear" },
        s.cells,
        s.len(),
        s.boundary_sets(),
        s.total_gnodes()
    );
    match s.verify_legal() {
        Ok(()) => println!("schedule is dependence-legal ✓"),
        Err(e) => fail(&format!("ILLEGAL schedule: {e}")),
    }
}

fn cmd_gantt(args: &[String]) {
    let [n, m] = args else {
        fail("gantt needs <n> <m>")
    };
    let n: usize = n.parse().unwrap_or_else(|_| fail("bad n"));
    let m: usize = m.parse().unwrap_or_else(|_| fail("bad m"));
    let a = systolic::closure::gnp(n, 0.2, 1).adjacency_matrix();
    let eng = LinearEngine::new(m).with_trace();
    let (_, stats) =
        ClosureEngine::<Bool>::closure(&eng, &a).unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "n = {n}, m = {m}: {} cycles, occupancy {:.3}",
        stats.cycles,
        stats.occupancy()
    );
    print!("{}", render_gantt(&stats.spans, m, stats.cycles, 160));
}

fn cmd_info(args: &[String]) {
    let (n, m) = match args {
        [n] => (problem_size(n), 4),
        [n, m] => (problem_size(n), cell_count(m)),
        _ => fail("info needs <n> [m]"),
    };
    let model = LinearModel { n, m };
    println!("paper measures for n = {n}, m = {m} (Moreno & Lang 1988, §3–§4):");
    println!(
        "  useful operations N = n(n-1)(n-2)  : {}",
        model.useful_ops()
    );
    println!(
        "  G-sets n(n+1)/m                    : {:.1}",
        model.gsets()
    );
    println!(
        "  throughput T = m/(n²(n+1))          : {:.3e} problems/cycle",
        model.throughput()
    );
    println!(
        "  cycles per problem T⁻¹              : {:.0}",
        model.cycles_per_instance()
    );
    println!(
        "  utilization U = (n-1)(n-2)/(n(n+1)) : {:.4}",
        model.utilization()
    );
    println!(
        "  host I/O D = m/n                    : {:.4} words/cycle",
        model.io_bandwidth()
    );
    println!(
        "  memory connections (linear)         : {}",
        model.memory_connections()
    );
    println!("  partitioning overhead               : 0");
}

/// Runs an elimination algorithm (LU or Faddeev) through the simulated
/// partitioned array and cross-checks every output word bit-for-bit
/// against the fully-parallel dependence-graph evaluation.
fn cmd_algo(args: &[String]) {
    use systolic::partition::{elimination_input, GridEngine};
    let mut algo: Option<Algo> = None;
    let mut mapping = Backend::Linear { cells: 4 };
    let mut n = 8usize;
    let mut seed = 1u64;
    let mut timed = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lu" => algo = Some(Algo::Lu),
            "faddeev" => algo = Some(Algo::Faddeev),
            "--mapping" => {
                mapping = parse_array("algo mapping", flag_value(args, &mut i), ALGO_MAPPINGS)
            }
            "-n" | "--n" => n = positive("-n", parsed(args, &mut i)),
            "--seed" => seed = parsed(args, &mut i),
            "--timed" => timed = true,
            other => fail(&format!("unknown algo argument `{other}`")),
        }
        i += 1;
    }
    let algo = algo.unwrap_or_else(|| fail("algo needs `lu` or `faddeev`"));
    if n < 2 {
        fail("algo needs n ≥ 2");
    }
    let msize = algo.msize(n);
    let a = elimination_input(msize, seed);
    let (got, stats, name, cells) = match mapping {
        Backend::Linear { cells } => eliminate(&LinearEngine::new(cells), algo, n, &a, timed),
        Backend::Grid { side } => eliminate(&GridEngine::new(side), algo, n, &a, timed),
        _ => unreachable!("ALGO_MAPPINGS names only lpgs and grid"),
    };
    let graph = systolic::dgraph::elimination_graph(msize, algo.levels(n));
    let want = systolic::dgraph::eval_elimination_graph::<Real>(&graph, &a)
        .unwrap_or_else(|e| fail(&format!("reference evaluation: {e:?}")));
    let mut mismatches = 0usize;
    for i in 0..msize {
        for j in 0..msize {
            if got.get(i, j) != want.get(i, j) {
                mismatches += 1;
            }
        }
    }
    println!(
        "{} n = {n} ({msize}×{msize} matrix, {} levels) on {} ({} cells{})",
        algo.name(),
        algo.levels(n),
        name,
        cells,
        if timed {
            ", §4.3 varying G-node times"
        } else {
            ""
        }
    );
    println!(
        "simulated: {} cycles, occupancy {:.3}, useful utilization {:.3}, {} useful ops",
        stats.cycles,
        stats.occupancy(),
        stats.useful_utilization(),
        stats.useful_ops
    );
    if algo == Algo::Faddeev {
        println!("lower-right n×n block is the Schur complement D + C·A⁻¹·B");
    }
    println!(
        "all {} output words bit-identical to the dependence-graph reference: {}",
        msize * msize,
        mismatches == 0
    );
    if mismatches > 0 {
        eprintln!("error: {mismatches} words diverged from the reference");
        std::process::exit(1);
    }
}

/// Runs `algo` at problem size `n` on `engine`, with the §4.3 per-level
/// durations when `timed`, returning the result, the run's stats and the
/// engine's name and cell count.
fn eliminate<M: GraphMapping>(
    engine: &MappedEngine<M>,
    algo: Algo,
    n: usize,
    a: &DenseMatrix<Real>,
    timed: bool,
) -> (DenseMatrix<Real>, RunStats, &'static str, usize) {
    use systolic::partition::{level_durations, run_elimination, run_elimination_timed};
    let (got, stats) = if timed {
        run_elimination_timed(engine, algo, a, &level_durations(algo, n))
    } else {
        run_elimination(engine, algo, a)
    }
    .unwrap_or_else(|e| fail(&e.to_string()));
    let mapping = engine.mapping();
    (got, stats, mapping.name(), mapping.cells())
}

fn cmd_campaign(args: &[String]) {
    use systolic_bench::campaign::{render_campaign, run_campaign, CampaignConfig};
    let mut cfg = CampaignConfig::default();
    let mut packed_lane: Option<usize> = None;
    let mut rate_set = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => cfg.seed = parsed(args, &mut i),
            "--n" => cfg.n = parsed(args, &mut i),
            "--cells" => cfg.cells = parsed(args, &mut i),
            "--instances" => cfg.instances = parsed(args, &mut i),
            "--rate" => {
                cfg.rate = parsed(args, &mut i);
                rate_set = true;
            }
            "--density" => cfg.density = parsed(args, &mut i),
            "--retries" => cfg.max_retries = parsed(args, &mut i),
            "--hot" => {
                let (c, w) = flag_value(args, &mut i)
                    .split_once(':')
                    .unwrap_or_else(|| fail("--hot takes CELL:WEIGHT"));
                cfg.hot_cell = Some((
                    c.parse().unwrap_or_else(|_| fail("bad --hot cell")),
                    w.parse().unwrap_or_else(|_| fail("bad --hot weight")),
                ));
            }
            "--packed-lane" => packed_lane = Some(parsed(args, &mut i)),
            other => fail(&format!("unknown campaign flag `{other}`")),
        }
        i += 1;
    }
    if cfg.n < 2 || cfg.cells < 2 || cfg.instances == 0 {
        fail("campaign needs n ≥ 2, cells ≥ 2 and at least one instance");
    }
    if let Some(lane) = packed_lane {
        if cfg.hot_cell.is_some() {
            fail("--hot applies to the scalar campaign only");
        }
        cmd_packed_campaign(&cfg, lane, rate_set);
        return;
    }
    let report = run_campaign(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let replay = run_campaign(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    print!("{}", render_campaign(&cfg, &report));
    println!(
        "replay with the same seed reproduces the identical report: {}",
        report == replay
    );
    if report.unexplained_mismatches > 0 {
        eprintln!(
            "error: {} corrupted closure(s) with no injected fault to blame — engine bug",
            report.unexplained_mismatches
        );
        std::process::exit(1);
    }
    if report.coverage().is_some_and(|c| c < 0.95) {
        eprintln!("error: detection coverage fell below the 95% claim");
        std::process::exit(1);
    }
    if report != replay {
        eprintln!("error: campaign is not reproducible at seed {}", cfg.seed);
        std::process::exit(1);
    }
}

fn cmd_packed_campaign(
    scalar: &systolic_bench::campaign::CampaignConfig,
    lane: usize,
    rate_set: bool,
) {
    use systolic_bench::campaign::{
        render_packed_campaign, run_packed_campaign, PackedCampaignConfig,
    };
    let mut cfg = PackedCampaignConfig {
        seed: scalar.seed,
        n: scalar.n,
        density: scalar.density,
        cells: scalar.cells,
        instances: scalar.instances,
        target_lane: lane,
        max_retries: scalar.max_retries,
        ..PackedCampaignConfig::default()
    };
    if rate_set {
        // The packed default is a value-fault-only rate tuned to land
        // several corruptions per batch; honor an explicit override.
        cfg.rate = scalar.rate;
    }
    let report = run_packed_campaign(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let replay = run_packed_campaign(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    print!("{}", render_packed_campaign(&cfg, &report));
    println!(
        "replay with the same seed reproduces the identical report: {}",
        report == replay
    );
    if !report.contained() {
        eprintln!(
            "error: packed fault containment failed (fallbacks {}/{}, off-target {}, \
             unexplained {}, recovered {})",
            report.raw_fallback_runs,
            report.recovering_fallback_runs,
            report.off_target_mismatches,
            report.unexplained_mismatches,
            report.recovered_exact
        );
        std::process::exit(1);
    }
    if report != replay {
        eprintln!(
            "error: packed campaign is not reproducible at seed {}",
            cfg.seed
        );
        std::process::exit(1);
    }
}

fn cmd_plancache(args: &[String]) {
    use std::time::Instant;
    use systolic::closure::gnp;
    let (mut n, mut m, mut instances, mut iters) = (24usize, 4usize, 8usize, 5u32);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => n = parsed(args, &mut i),
            "--cells" => m = parsed(args, &mut i),
            "--instances" => instances = parsed(args, &mut i),
            "--iters" => iters = parsed(args, &mut i),
            other => fail(&format!("unknown plancache flag `{other}`")),
        }
        i += 1;
    }
    if n < 2 || m < 1 || instances == 0 || iters == 0 {
        fail("plancache needs n ≥ 2, cells ≥ 1, at least one instance and one iteration");
    }
    let batch: Vec<_> = (0..instances)
        .map(|i| gnp(n, 0.15, 91 + i as u64).adjacency_matrix())
        .collect();
    let cached_eng = LinearEngine::new(m);
    let (first_res, first_stats) = ClosureEngine::<Bool>::closure_many(&cached_eng, &batch)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let (cached_res, cached_stats) = ClosureEngine::<Bool>::closure_many(&cached_eng, &batch)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let (fresh_res, fresh_stats) =
        ClosureEngine::<Bool>::closure_many(&LinearEngine::new(m), &batch)
            .unwrap_or_else(|e| fail(&e.to_string()));
    let identical = cached_res == fresh_res
        && first_res == fresh_res
        && cached_stats == fresh_stats
        && first_stats == fresh_stats;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = ClosureEngine::<Bool>::closure_many(&LinearEngine::new(m), &batch).unwrap();
    }
    let fresh_t = t0.elapsed().as_secs_f64() / f64::from(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = ClosureEngine::<Bool>::closure_many(&cached_eng, &batch).unwrap();
    }
    let cached_t = t0.elapsed().as_secs_f64() / f64::from(iters);
    println!(
        "linear m = {m}, n = {n}, batch {instances}: {} cycles per batch",
        fresh_stats.cycles
    );
    println!(
        "fresh build {:.2} ms, cached plan {:.2} ms, speedup {:.2}×",
        1e3 * fresh_t,
        1e3 * cached_t,
        fresh_t / cached_t
    );
    println!("cached-plan run byte-identical to fresh build: {identical}");
    if !identical {
        eprintln!("error: plan cache changed results or stats");
        std::process::exit(1);
    }
}

fn cmd_packed(args: &[String]) {
    use std::time::Instant;
    use systolic::closure::gnp;
    let (mut n, mut m, mut instances, mut iters) = (24usize, 4usize, 64usize, 5u32);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => n = parsed(args, &mut i),
            "--cells" => m = parsed(args, &mut i),
            "--instances" => instances = parsed(args, &mut i),
            "--iters" => iters = parsed(args, &mut i),
            other => fail(&format!("unknown packed flag `{other}`")),
        }
        i += 1;
    }
    if n < 2 || m < 1 || instances == 0 || iters == 0 {
        fail("packed needs n ≥ 2, cells ≥ 1, at least one instance and one iteration");
    }
    let batch: Vec<_> = (0..instances)
        .map(|i| gnp(n, 0.15, 64 + i as u64).adjacency_matrix())
        .collect();
    // Scalar reference: per-instance runs, stats merged in instance order
    // (the contract the packed engine must reproduce bit-for-bit).
    let scalar = LinearEngine::new(m);
    let mut want = Vec::with_capacity(instances);
    let mut want_stats: Option<RunStats> = None;
    for a in &batch {
        let (c, s) = scalar.closure(a).unwrap_or_else(|e| fail(&e.to_string()));
        want.push(c);
        match &mut want_stats {
            None => want_stats = Some(s),
            Some(acc) => acc.merge(&s),
        }
    }
    let want_stats = want_stats.expect("non-empty batch");
    let packed = PackedEngine::new(m);
    let (got, got_stats, groups) = packed
        .closure_many_counted(&batch)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let identical = got == want && got_stats == want_stats;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = ClosureEngine::<Bool>::closure_many(&scalar, &batch).unwrap();
    }
    let scalar_t = t0.elapsed().as_secs_f64() / f64::from(iters);
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = packed.closure_many(&batch).unwrap();
    }
    let packed_t = t0.elapsed().as_secs_f64() / f64::from(iters);
    println!(
        "packed m = {m}, n = {n}, batch {instances} ({groups} lane group{}):",
        if groups > 1 { "s" } else { "" }
    );
    println!(
        "scalar batch {:.2} ms, lane-packed {:.2} ms, speedup {:.2}×",
        1e3 * scalar_t,
        1e3 * packed_t,
        scalar_t / packed_t
    );
    println!("packed results and merged stats byte-identical to scalar: {identical}");
    if !identical {
        eprintln!("error: lane-packed run diverged from the scalar engine");
        std::process::exit(1);
    }
}

fn cmd_serve(args: &[String]) {
    use std::sync::Arc;
    use systolic_service::{
        serve, serve_tcp, Durability, ReachService, SessionLimits, SharedService,
    };
    let mut vertices: Option<usize> = None;
    let mut file: Option<&str> = None;
    let mut socket: Option<&str> = None;
    let mut sessions = 4usize;
    let mut accept: Option<usize> = None;
    let mut batched = false;
    let mut cells = 4usize;
    let mut wal: Option<&str> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut max_pending: Option<u64> = None;
    let mut limits = SessionLimits::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--vertices" => vertices = Some(parsed(args, &mut i)),
            "--file" => file = Some(flag_value(args, &mut i)),
            "--socket" => socket = Some(flag_value(args, &mut i)),
            "--sessions" => sessions = positive("--sessions", parsed(args, &mut i)),
            "--accept" => accept = Some(positive("--accept", parsed(args, &mut i))),
            "--wal" => wal = Some(flag_value(args, &mut i)),
            "--snapshot-every" => snapshot_every = Some(parsed(args, &mut i)),
            "--max-pending" => max_pending = Some(parsed(args, &mut i)),
            "--max-line" => limits.max_line = positive("--max-line", parsed(args, &mut i)),
            "--read-timeout-ms" => {
                let ms: u64 = parsed(args, &mut i);
                limits.read_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--batched" => batched = true,
            "--cells" => cells = parsed(args, &mut i),
            other => fail(&format!("unknown serve flag `{other}`")),
        }
        i += 1;
    }
    if snapshot_every.is_some() && wal.is_none() {
        fail("--snapshot-every needs --wal");
    }
    let graph = match (&file, vertices) {
        (Some(_), Some(_)) => fail("serve takes --vertices or --file, not both"),
        (Some(f), None) => read_graph(f).to_digraph(),
        (None, n) => {
            let n = n.unwrap_or(64);
            if n < 2 {
                fail("serve needs at least two vertices");
            }
            DiGraph::new(n)
        }
    };
    // Recover from the WAL+snapshot before building the service, so the
    // closure is computed from exactly the committed history.
    let (graph, durability) = match wal {
        Some(path) => {
            let (d, g, report) =
                Durability::open(std::path::Path::new(path), snapshot_every, graph)
                    .unwrap_or_else(|e| fail(&format!("recovering {path}: {e}")));
            eprintln!(
                "recovered {path}: snapshot_seq={} replayed={} torn_bytes={} wal_bytes={}",
                report
                    .snapshot_seq
                    .map_or("none".to_string(), |s| s.to_string()),
                report.replayed,
                report.torn_bytes,
                report.wal_bytes,
            );
            (g, Some(d))
        }
        None => (graph, None),
    };
    let mut svc = if batched {
        let cells = positive("serve --cells", cells);
        let batcher = Arc::new(systolic::partition::AdmissionBatcher::new(
            PackedEngine::new(cells),
        ));
        ReachService::with_batcher(graph, batcher)
    } else {
        ReachService::new(graph)
    };
    if let Some(d) = durability {
        svc = svc.with_durability(d);
    }
    svc.set_max_pending(max_pending);
    eprintln!(
        "serving {} vertices ({} recomputes{}){}",
        svc.n(),
        if batched { "batched" } else { "software" },
        if wal.is_some() { ", durable" } else { "" },
        socket.map_or(String::new(), |s| format!(" on {s}")),
    );
    let shared = Arc::new(SharedService::new(svc, limits));
    let summary = match socket {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| fail(&format!("binding {addr}: {e}")));
            serve_tcp(&shared, &listener, sessions, accept)
        }
        None => serve(&shared, std::io::stdin().lock(), std::io::stdout().lock()),
    }
    .unwrap_or_else(|e| fail(&format!("serve I/O: {e}")));
    eprintln!(
        "session over: {} commands, {} errors, ended by {}",
        summary.commands,
        summary.errors,
        if summary.quit { "QUIT" } else { "EOF" }
    );
    if summary.sessions > 0 {
        eprintln!(
            "daemon totals: {} sessions ({} failed, {} timed out), {} stale reads",
            summary.sessions,
            summary.failed_sessions,
            summary.timeouts,
            shared.stale_reads(),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "closure" => cmd_closure(rest),
            "paths" => cmd_paths(rest),
            "schedule" => cmd_schedule(rest),
            "gantt" => cmd_gantt(rest),
            "info" => cmd_info(rest),
            "algo" => cmd_algo(rest),
            "campaign" => cmd_campaign(rest),
            "plancache" => cmd_plancache(rest),
            "packed" => cmd_packed(rest),
            "serve" => cmd_serve(rest),
            other => fail(&format!("unknown command `{other}`")),
        },
        None => fail("missing command"),
    }
}
