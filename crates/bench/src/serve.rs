//! The service runs behind E26 and E27: a pinned seeded command stream
//! replayed through a [`ReachService`] (per-`REACH` latency percentiles
//! and sustained command throughput), concurrent TCP sessions, and a
//! kill-and-recover.
//!
//! Every run checks itself for protocol correctness: each `REACH` answer
//! is checked against a full-recompute Warshall oracle (outside the timed
//! region), so a throughput number from a service that answers wrong is
//! impossible — `ok` flips false and the experiment's assert fails.

use std::sync::Arc;
use std::time::Instant;
use systolic_closure::DiGraph;
use systolic_partition::{AdmissionBatcher, PackedEngine};
use systolic_semiring::BitMatrix;
use systolic_service::{seeded_stream, Command, ReachService, Response};

/// One measured serve-stream run.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Label (`software` or `batched_mM`).
    pub id: String,
    /// Vertices served.
    pub n: usize,
    /// Commands replayed.
    pub commands: usize,
    /// `REACH` queries among them.
    pub reaches: usize,
    /// Sustained commands per second (service time only, oracle excluded).
    pub qps: f64,
    /// Median `REACH` latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile `REACH` latency in microseconds.
    pub p99_us: f64,
    /// Worst `REACH` latency in microseconds (a delete-triggered recompute).
    pub max_us: f64,
    /// Every `REACH` answer matched the recompute oracle.
    pub ok: bool,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Replays `seeded_stream(n, count, seed)` through a service; `cells`
/// selects the batched recompute path on a packed engine of that many
/// cells, `None` the software path.
pub fn run_stream(n: usize, count: usize, seed: u64, cells: Option<usize>) -> ServeBenchReport {
    let (id, mut svc) = match cells {
        Some(m) => (
            format!("batched_m{m}"),
            ReachService::with_batcher(
                DiGraph::new(n),
                Arc::new(AdmissionBatcher::new(PackedEngine::new(m))),
            ),
        ),
        None => ("software".to_string(), ReachService::new(DiGraph::new(n))),
    };
    let cmds = seeded_stream(n, count, seed);
    let mut oracle = DiGraph::new(n);
    let mut closed: Option<BitMatrix> = None;
    let mut reach_us: Vec<f64> = Vec::new();
    let mut total = std::time::Duration::ZERO;
    let mut ok = true;
    for cmd in &cmds {
        let t0 = Instant::now();
        let resp = svc.execute(cmd.clone());
        let dt = t0.elapsed();
        total += dt;
        match (cmd.clone(), resp) {
            (Command::Reach(u, v), Response::Reach { reachable, .. }) => {
                reach_us.push(dt.as_secs_f64() * 1e6);
                let want = closed
                    .get_or_insert_with(|| {
                        BitMatrix::from_dense(&oracle.adjacency_matrix()).transitive_closure()
                    })
                    .get(u, v);
                ok &= reachable == want;
            }
            (Command::Insert(u, v), Response::Inserted { .. }) => {
                if !oracle.has_edge(u, v) {
                    oracle.add_edge(u, v);
                    closed = None;
                }
            }
            (Command::Delete(u, v), Response::Deleted { .. }) => {
                if oracle.remove_edge(u, v) {
                    closed = None;
                }
            }
            _ => ok = false,
        }
    }
    reach_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ServeBenchReport {
        id,
        n,
        commands: cmds.len(),
        reaches: reach_us.len(),
        qps: cmds.len() as f64 / total.as_secs_f64().max(1e-9),
        p50_us: percentile(&reach_us, 0.50),
        p99_us: percentile(&reach_us, 0.99),
        max_us: percentile(&reach_us, 1.0),
        ok,
    }
}

/// One measured concurrent-TCP run: `clients` sessions hammering one
/// shared closure, every answer oracle-checked by the client.
#[derive(Clone, Debug)]
pub struct ConcurrentBenchReport {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Vertices served.
    pub n: usize,
    /// Total `REACH` queries across all clients.
    pub queries: usize,
    /// Sustained queries per second across the whole concurrent run.
    pub qps: f64,
    /// Every answer matched the Warshall oracle and no session failed.
    pub ok: bool,
}

/// Serves a seeded pre-built graph over TCP to `clients` concurrent
/// sessions of `queries` oracle-checked `REACH`es each, measuring
/// aggregate throughput (connection setup included, oracle build
/// excluded).
pub fn run_concurrent(
    n: usize,
    clients: usize,
    queries: usize,
    seed: u64,
) -> ConcurrentBenchReport {
    use std::fmt::Write as _;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};
    use systolic_service::{serve_tcp, SessionLimits, SharedService};
    use systolic_util::Rng;

    let mut g = DiGraph::new(n);
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..(3 * n) {
        g.add_edge(rng.gen_usize(n), rng.gen_usize(n));
    }
    let want = Arc::new(BitMatrix::from_dense(&g.adjacency_matrix()).transitive_closure());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let shared = Arc::new(SharedService::new(
        ReachService::new(g),
        SessionLimits::default(),
    ));
    let server = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || serve_tcp(&shared, &listener, clients, Some(clients)))
    };
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let want = Arc::clone(&want);
            std::thread::spawn(move || -> std::io::Result<bool> {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut w = stream;
                let mut rng = Rng::seed_from_u64(seed ^ (0xC11E << 8) ^ c as u64);
                let mut ok = true;
                let (mut req, mut resp) = (String::new(), String::new());
                for _ in 0..queries {
                    let (u, v) = (rng.gen_usize(want.n()), rng.gen_usize(want.n()));
                    // One write per request: `writeln!` on the socket would
                    // send each formatted piece as its own segment.
                    req.clear();
                    let _ = writeln!(req, "REACH {u} {v}");
                    w.write_all(req.as_bytes())?;
                    resp.clear();
                    reader.read_line(&mut resp)?;
                    ok &= resp.trim_end() == format!("REACH {u} {v} {}", want.get(u, v));
                }
                w.write_all(b"QUIT\n")?;
                resp.clear();
                reader.read_line(&mut resp)?;
                Ok(ok && resp.trim_end() == "BYE")
            })
        })
        .collect();
    let mut ok = true;
    for h in workers {
        ok &= h.join().is_ok_and(|r| r.unwrap_or(false));
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let summary = server
        .join()
        .expect("server thread")
        .expect("serve_tcp is infallible after bind");
    ok &= summary.failed_sessions == 0 && summary.sessions == clients as u64;
    ConcurrentBenchReport {
        clients,
        n,
        queries: clients * queries,
        qps: (clients * queries) as f64 / wall,
        ok,
    }
}

/// One measured kill-and-recover run: a durable service is dropped cold
/// and reopened; recovery (snapshot load + WAL replay + closure build)
/// is timed and the recovered closure oracle-checked.
#[derive(Clone, Debug)]
pub struct RecoverBenchReport {
    /// Vertices served.
    pub n: usize,
    /// Mutations committed before the simulated crash.
    pub ops: usize,
    /// WAL bytes replayed at recovery.
    pub wal_bytes: u64,
    /// Wall-clock recovery time in milliseconds.
    pub recover_ms: f64,
    /// The recovered closure equals a full recompute of the committed
    /// history.
    pub ok: bool,
}

/// Commits a seeded mutation stream through a durable service, drops it
/// cold (simulated `kill -9`), then times `Durability::open` + closure
/// rebuild and checks the result against a Warshall recompute.
pub fn run_recover(n: usize, ops: usize, seed: u64) -> RecoverBenchReport {
    use systolic_service::Durability;
    use systolic_util::Rng;

    let wal = std::env::temp_dir().join(format!(
        "systolic-recover-bench-{}-{seed}.wal",
        std::process::id()
    ));
    let scrub = |p: &std::path::Path| {
        std::fs::remove_file(p).ok();
        std::fs::remove_file(Durability::snapshot_path(p)).ok();
    };
    scrub(&wal);
    let mut shadow = DiGraph::new(n);
    {
        let (d, g, _) = Durability::open(&wal, None, DiGraph::new(n)).expect("fresh wal");
        let mut svc = ReachService::new(g).with_durability(d);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..ops {
            let (u, v) = (rng.gen_usize(n), rng.gen_usize(n));
            if rng.gen_bool(0.8) {
                shadow.add_edge(u, v);
                svc.execute(Command::Insert(u, v));
            } else {
                shadow.remove_edge(u, v);
                svc.execute(Command::Delete(u, v));
            }
        }
    } // crash: dropped cold, WAL holds the committed history
    let t0 = Instant::now();
    let (_d, g, report) = Durability::open(&wal, None, DiGraph::new(n)).expect("recover");
    let mut svc = ReachService::new(g);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Expanded for the oracle comparison only, outside the timed region.
    let recovered = svc.closure().to_bitmatrix();
    let want = BitMatrix::from_dense(&shadow.adjacency_matrix()).transitive_closure();
    let ok = recovered == want && report.torn_bytes == 0;
    scrub(&wal);
    RecoverBenchReport {
        n,
        ops,
        wal_bytes: report.wal_bytes,
        recover_ms,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_run_is_correct_and_counts_add_up() {
        let r = run_stream(16, 400, 3, None);
        assert!(r.ok, "service diverged from oracle");
        assert_eq!(r.commands, 400);
        assert!(r.reaches > 200 && r.reaches < 400);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
        assert!(r.qps > 0.0);
    }

    #[test]
    fn batched_run_is_correct() {
        let r = run_stream(12, 120, 9, Some(2));
        assert!(r.ok, "batched service diverged from oracle");
        assert_eq!(r.id, "batched_m2");
    }

    #[test]
    fn concurrent_run_is_correct() {
        let r = run_concurrent(16, 3, 50, 5);
        assert!(r.ok, "a concurrent answer diverged or a session failed");
        assert_eq!(r.queries, 150);
        assert!(r.qps > 0.0);
    }

    #[test]
    fn recover_run_is_correct() {
        let r = run_recover(24, 300, 11);
        assert!(r.ok, "recovered closure diverged from the oracle");
        assert!(r.wal_bytes > 0, "mutations were committed");
        assert!(r.recover_ms >= 0.0);
    }
}
