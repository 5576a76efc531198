//! Chaos acceptance for the hardened service: kill-and-recover at every
//! WAL byte offset, seeded protocol fuzz, fault-injected transports, and
//! concurrent TCP sessions — all checked against full-recompute oracles.
//!
//! The contract under test: a crash recovers exactly the longest
//! committed prefix of the mutation history (never a wrong closure,
//! never a panic); a byzantine or dying client hurts only its own
//! session; and four clients hammering one daemon read the same closure
//! a single-threaded replay would.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use systolic::closure::DiGraph;
use systolic_semiring::BitMatrix;
use systolic_service::wal::FRAME_LEN;
use systolic_service::{
    serve, serve_tcp, ChaosPlan, ChaosReader, ChaosWriter, Command, Durability, ReachService,
    SessionLimits, SharedService, WalOp,
};
use systolic_util::Rng;

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("systolic-chaos-{tag}-{}", std::process::id()))
}

fn scrub(wal: &std::path::Path) {
    std::fs::remove_file(wal).ok();
    std::fs::remove_file(Durability::snapshot_path(wal)).ok();
}

fn warshall(g: &DiGraph) -> BitMatrix {
    BitMatrix::from_dense(&g.adjacency_matrix()).transitive_closure()
}

/// Kill-and-recover sweep: run a durable service over a seeded mutation
/// stream, then truncate the WAL at *every* byte offset and recover. At
/// each offset the recovered closure must equal a full recompute over
/// exactly the committed prefix (`offset / FRAME_LEN` records) — one
/// byte short of a frame loses that frame and nothing else.
#[test]
fn wal_truncation_sweep_recovers_exactly_the_committed_prefix() {
    const N: usize = 12;
    let wal = temp("sweep.wal");
    scrub(&wal);
    let mut committed: Vec<(WalOp, usize, usize)> = Vec::new();
    let mut shadow = DiGraph::new(N);
    {
        let (d, g, _) = Durability::open(&wal, None, DiGraph::new(N)).unwrap();
        let mut svc = ReachService::new(g).with_durability(d);
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        for _ in 0..80 {
            let (u, v) = (rng.gen_usize(N), rng.gen_usize(N));
            if rng.gen_bool(0.7) {
                if !shadow.has_edge(u, v) {
                    shadow.add_edge(u, v);
                    committed.push((WalOp::Insert, u, v));
                }
                svc.execute(Command::Insert(u, v));
            } else {
                if shadow.remove_edge(u, v) {
                    committed.push((WalOp::Delete, u, v));
                }
                svc.execute(Command::Delete(u, v));
            }
        }
    }
    let full = std::fs::read(&wal).unwrap();
    assert_eq!(
        full.len(),
        committed.len() * FRAME_LEN,
        "every effective mutation is one fixed-size frame"
    );
    assert!(committed.len() > 40, "stream exercised both ops");
    let cut_wal = temp("sweep-cut.wal");
    for cut in 0..=full.len() {
        scrub(&cut_wal);
        std::fs::write(&cut_wal, &full[..cut]).unwrap();
        let (_d, g, report) =
            Durability::open(&cut_wal, None, DiGraph::new(N)).unwrap_or_else(|e| {
                panic!("recovery at offset {cut} must not fail: {e}");
            });
        let k = cut / FRAME_LEN;
        assert_eq!(report.replayed, k as u64, "offset {cut}");
        assert_eq!(report.torn_bytes, (cut % FRAME_LEN) as u64, "offset {cut}");
        let mut oracle = DiGraph::new(N);
        for &(op, u, v) in &committed[..k] {
            match op {
                WalOp::Insert => oracle.add_edge(u, v),
                WalOp::Delete => {
                    oracle.remove_edge(u, v);
                }
            }
        }
        let mut svc = ReachService::new(g);
        assert!(
            svc.closure().to_bitmatrix() == warshall(&oracle),
            "offset {cut}: recovered closure diverged from the \
             {k}-record committed prefix"
        );
    }
    scrub(&wal);
    scrub(&cut_wal);
}

/// Mirrors the session loop's per-line answer rule, so the fuzzer can
/// predict exactly how many response lines a garbage stream earns.
fn expected_answers(line: &[u8], max_line: usize) -> usize {
    if line.len() > max_line {
        return 1; // ERR line too long
    }
    let Ok(s) = std::str::from_utf8(line) else {
        return 1; // ERR not UTF-8
    };
    let t = s.trim();
    usize::from(!(t.is_empty() || t.starts_with('#')))
}

/// Seeded protocol fuzz: random printable garbage, raw bytes, NULs,
/// oversized lines and valid commands interleaved. The server must never
/// panic, must answer exactly one line per non-blank/non-comment request
/// line, and must keep the session alive throughout.
#[test]
fn protocol_fuzz_never_panics_and_answers_one_line_per_request() {
    const MAX_LINE: usize = 4096;
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0xF022 + seed);
        let mut input: Vec<u8> = Vec::new();
        let mut expect = 0usize;
        for _ in 0..300 {
            let mut line: Vec<u8> = match rng.gen_usize(6) {
                0 => format!("REACH {} {}", rng.gen_usize(12), rng.gen_usize(12)).into_bytes(),
                1 => format!("INSERT {} {}", rng.gen_usize(8), rng.gen_usize(8)).into_bytes(),
                2 => {
                    // printable garbage (may parse, may not)
                    let len = rng.gen_usize(40);
                    (0..len).map(|_| 0x20 + rng.gen_usize(95) as u8).collect()
                }
                3 => {
                    // raw bytes: NULs, high bits, broken UTF-8
                    let len = 1 + rng.gen_usize(24);
                    (0..len)
                        .map(|_| match rng.gen_usize(4) {
                            0 => 0u8,
                            1 => 0xFF,
                            2 => 0xC3, // dangling UTF-8 lead byte
                            _ => rng.gen_usize(256) as u8,
                        })
                        .collect()
                }
                4 => vec![b'A'; MAX_LINE + 1 + rng.gen_usize(1 << 20)],
                _ => {
                    if rng.gen_bool(0.5) {
                        b"   ".to_vec()
                    } else {
                        b"# comment".to_vec()
                    }
                }
            };
            line.retain(|&b| b != b'\n'); // one request per line, by construction
            if std::str::from_utf8(&line).is_ok_and(|s| {
                s.split_whitespace()
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("QUIT"))
            }) {
                line.insert(0, b'X'); // keep the fuzz session running
            }
            expect += expected_answers(&line, MAX_LINE);
            input.extend_from_slice(&line);
            input.push(b'\n');
        }
        let svc = SharedService::new(
            ReachService::new(DiGraph::new(12)),
            SessionLimits {
                max_line: MAX_LINE,
                read_timeout: None,
            },
        );
        let mut out = Vec::new();
        let summary = serve(&svc, input.as_slice(), &mut out).unwrap();
        let text = String::from_utf8(out).expect("responses are always UTF-8");
        assert_eq!(
            text.lines().count(),
            expect,
            "seed {seed}: one answer per request line"
        );
        for line in text.lines() {
            assert!(
                line.starts_with("REACH ") || line.starts_with("OK ") || line.starts_with("ERR "),
                "seed {seed}: unexpected response {line:?}"
            );
        }
        assert!(!summary.quit, "seed {seed}: fuzz never sends QUIT");
        assert!(
            summary.oversize > 0,
            "seed {seed}: oversized lines occurred"
        );
    }
}

/// Transport chaos: a session cut mid-stream dies with a transport error
/// (never a panic, never a half-written response buffer the next session
/// sees), replays byte-for-byte under the same seed, and leaves the
/// shared service usable.
#[test]
fn cut_sessions_die_alone_and_replay_exactly() {
    let mut script = String::new();
    for i in 0..60 {
        script += &format!("INSERT {} {}\nREACH 0 {}\n", i % 8, (i + 1) % 8, i % 8);
    }
    for seed in 0..10u64 {
        let cut_at = 1 + (seed * 131) % (script.len() as u64 - 1);
        let run = || {
            let svc =
                SharedService::new(ReachService::new(DiGraph::new(8)), SessionLimits::default());
            let reader = BufReader::new(ChaosReader::new(
                script.as_bytes(),
                ChaosPlan::cut(seed, cut_at),
            ));
            let mut out = Vec::new();
            let res = serve(&svc, reader, &mut out);
            // The shared service survives its session's death.
            let alive = svc.execute(Command::Reach(0, 0));
            (res.map(|s| s.commands).map_err(|e| e.kind()), out, alive)
        };
        let (res1, out1, alive1) = run();
        let (res2, out2, alive2) = run();
        assert_eq!(res1, res2, "seed {seed}: chaos replays exactly");
        assert_eq!(out1, out2, "seed {seed}: responses replay exactly");
        assert_eq!(
            res1.unwrap_err(),
            std::io::ErrorKind::ConnectionReset,
            "seed {seed}: the cut surfaced as a session transport error"
        );
        assert_eq!(
            alive1.to_string(),
            "REACH 0 0 true",
            "seed {seed}: service still answers after the dead session"
        );
        assert_eq!(alive1, alive2);
    }
}

/// Corrupting and fragmenting the transport turns requests into garbage
/// and responses into dribbles — the session must survive to EOF either
/// way, and a fragmenting (but lossless) writer must deliver the exact
/// response stream.
#[test]
fn corrupted_reads_and_fragmented_writes_never_kill_a_session() {
    let mut script = String::new();
    for i in 0..40 {
        script += &format!("INSERT {} {}\nREACH {} 0\n", i % 6, (i + 1) % 6, i % 6);
    }
    // Baseline: what a clean transport produces.
    let clean = {
        let svc = SharedService::new(ReachService::new(DiGraph::new(6)), SessionLimits::default());
        let mut out = Vec::new();
        serve(&svc, script.as_bytes(), &mut out).unwrap();
        out
    };
    for seed in 0..10u64 {
        // Corrupted reader: bit flips garble commands into ERRs (or other
        // commands), but the session runs to EOF without panicking.
        let svc = SharedService::new(ReachService::new(DiGraph::new(6)), SessionLimits::default());
        let reader = BufReader::new(ChaosReader::new(
            script.as_bytes(),
            ChaosPlan::noisy(seed, 24),
        ));
        let mut out = Vec::new();
        let summary = serve(&svc, reader, &mut out).unwrap();
        assert!(summary.commands + summary.errors > 0, "seed {seed}");
        for line in String::from_utf8_lossy(&out).lines() {
            assert!(
                line.starts_with("REACH ") || line.starts_with("OK ") || line.starts_with("ERR "),
                "seed {seed}: unexpected response {line:?}"
            );
        }
        // Fragmenting writer: short writes dribble the responses out one
        // seeded morsel at a time, but nothing is lost or reordered.
        let svc = SharedService::new(ReachService::new(DiGraph::new(6)), SessionLimits::default());
        let writer = ChaosWriter::new(
            Vec::new(),
            ChaosPlan {
                seed,
                cut_after: None,
                corrupt_one_in: None,
                fragment: true,
            },
        );
        let mut writer = writer;
        serve(&svc, script.as_bytes(), &mut writer).unwrap();
        assert_eq!(
            writer.into_inner(),
            clean,
            "seed {seed}: fragmented transport delivered every byte in order"
        );
    }
}

/// Four concurrent TCP clients hammer one shared closure; every answer
/// must match the Warshall oracle of the served graph, the daemon must
/// merge all four sessions into its summary, and none may fail.
#[test]
fn four_concurrent_tcp_clients_match_the_oracle() {
    const N: usize = 24;
    const QUERIES: usize = 200;
    let mut g = DiGraph::new(N);
    let mut rng = Rng::seed_from_u64(4242);
    for _ in 0..60 {
        g.add_edge(rng.gen_usize(N), rng.gen_usize(N));
    }
    let want = Arc::new(warshall(&g));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let svc = Arc::new(SharedService::new(
        ReachService::new(g),
        SessionLimits::default(),
    ));
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || serve_tcp(&svc, &listener, 4, Some(4)).unwrap())
    };
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut w = stream;
                let mut rng = Rng::seed_from_u64(100 + c);
                for _ in 0..QUERIES {
                    let (u, v) = (rng.gen_usize(N), rng.gen_usize(N));
                    writeln!(w, "REACH {u} {v}").unwrap();
                    let mut resp = String::new();
                    reader.read_line(&mut resp).unwrap();
                    assert_eq!(
                        resp.trim_end(),
                        format!("REACH {u} {v} {}", want.get(u, v)),
                        "client {c} diverged from the oracle"
                    );
                }
                writeln!(w, "QUIT").unwrap();
                let mut bye = String::new();
                reader.read_line(&mut bye).unwrap();
                assert_eq!(bye.trim_end(), "BYE");
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let summary = server.join().unwrap();
    assert_eq!(summary.sessions, 4);
    assert_eq!(summary.failed_sessions, 0);
    assert_eq!(summary.commands, 4 * (QUERIES as u64 + 1));
    assert_eq!(summary.errors, 0);
    assert_eq!(
        svc.read().stats().queries,
        4 * QUERIES as u64,
        "every query hit the shared service"
    );
    assert_eq!(svc.active_sessions(), 0, "all sessions drained");
}
