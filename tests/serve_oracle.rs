//! Acceptance harness for the reachability service: pinned seeded command
//! streams replayed against a full-recompute oracle.
//!
//! The oracle maintains the raw edge set and answers every `REACH` from a
//! bit-parallel Warshall closure recomputed whenever the graph changed —
//! deliberately ignorant of rank-1 updates, condensations and admission
//! batching, so any divergence pins a bug in the incremental path.

use std::sync::Arc;
use systolic::closure::DiGraph;
use systolic::partition::{AdmissionBatcher, PackedEngine};
use systolic_semiring::BitMatrix;
use systolic_service::{seeded_stream, Command, Durability, ReachService, Response};

struct Oracle {
    g: DiGraph,
    closed: Option<BitMatrix>,
}

impl Oracle {
    fn new(n: usize) -> Self {
        Self {
            g: DiGraph::new(n),
            closed: None,
        }
    }

    fn reach(&mut self, u: usize, v: usize) -> bool {
        let closed = self.closed.get_or_insert_with(|| {
            BitMatrix::from_dense(&self.g.adjacency_matrix()).transitive_closure()
        });
        closed.get(u, v)
    }

    fn insert(&mut self, u: usize, v: usize) {
        if !self.g.has_edge(u, v) {
            self.g.add_edge(u, v);
            self.closed = None;
        }
    }

    fn delete(&mut self, u: usize, v: usize) {
        if self.g.remove_edge(u, v) {
            self.closed = None;
        }
    }
}

/// Replays a stream through a service and the oracle, asserting every
/// `REACH` answer matches and every `INSERT`/`DELETE` succeeds. The
/// oracle is passed in so a crash/restart test can carry one oracle
/// across two service lifetimes.
fn replay_with(svc: &mut ReachService, cmds: &[Command], oracle: &mut Oracle) {
    for (step, cmd) in cmds.iter().enumerate() {
        match (cmd.clone(), svc.execute(cmd.clone())) {
            (Command::Reach(u, v), Response::Reach { reachable, .. }) => {
                assert_eq!(
                    reachable,
                    oracle.reach(u, v),
                    "step {step}: REACH {u} {v} diverged from recompute oracle"
                );
            }
            (Command::Insert(u, v), Response::Inserted { .. }) => oracle.insert(u, v),
            (Command::Delete(u, v), Response::Deleted { .. }) => oracle.delete(u, v),
            (c, r) => panic!("step {step}: {c:?} answered {r}"),
        }
    }
}

#[test]
fn software_service_matches_oracle_over_10k_commands() {
    let cmds = seeded_stream(48, 10_000, 20260808);
    assert!(cmds.len() >= 10_000);
    let mut svc = ReachService::new(DiGraph::new(48));
    replay_with(&mut svc, &cmds, &mut Oracle::new(48));
    let stats = svc.stats();
    assert!(
        stats.queries > 6_000,
        "stream was mostly queries: {stats:?}"
    );
    assert_eq!(stats.errors, 0);
}

#[test]
fn durable_service_crash_restart_mid_stream_matches_oracle() {
    const N: usize = 32;
    const CUT: usize = 5_000; // pinned crash point in the command stream
    let cmds = seeded_stream(N, 10_000, 20260808);
    let wal =
        std::env::temp_dir().join(format!("systolic-oracle-crash-{}.wal", std::process::id()));
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(Durability::snapshot_path(&wal)).ok();
    let mut oracle = Oracle::new(N);
    {
        let (d, g, _) = Durability::open(&wal, Some(512), DiGraph::new(N)).unwrap();
        let mut svc = ReachService::new(g).with_durability(d);
        replay_with(&mut svc, &cmds[..CUT], &mut oracle);
        // Crash: the service is dropped cold, no orderly shutdown. Every
        // committed mutation is already in the WAL (or rolled into a
        // snapshot), so nothing is allowed to be lost.
    }
    let (d, g, report) = Durability::open(&wal, Some(512), DiGraph::new(N)).unwrap();
    assert_eq!(report.torn_bytes, 0, "clean crash leaves no torn tail");
    let mut svc = ReachService::new(g).with_durability(d);
    // The recovered closure must equal the oracle's full recompute ...
    for u in 0..N {
        for v in 0..N {
            match svc.execute(Command::Reach(u, v)) {
                Response::Reach { reachable, .. } => assert_eq!(
                    reachable,
                    oracle.reach(u, v),
                    "recovered REACH {u} {v} diverged"
                ),
                other => panic!("REACH answered {other}"),
            }
        }
    }
    // ... and the remainder of the stream replays exactly as if the
    // crash never happened.
    replay_with(&mut svc, &cmds[CUT..], &mut oracle);
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(Durability::snapshot_path(&wal)).ok();
}

#[test]
fn batched_service_matches_oracle() {
    // Smaller stream: every delete-triggered recompute runs through the
    // packed engine simulation, which is orders slower than software.
    let cmds = seeded_stream(24, 600, 7);
    let batcher = Arc::new(AdmissionBatcher::new(PackedEngine::new(3)));
    let mut svc = ReachService::with_batcher(DiGraph::new(24), batcher.clone());
    replay_with(&mut svc, &cmds, &mut Oracle::new(24));
    let stats = batcher.stats();
    assert!(stats.executed > 0, "deletes routed through the batcher");
    assert!(
        stats.warm_groups > 0,
        "repeat recomputes reuse the memoized plan: {stats:?}"
    );
}

/// 64-bit FNV-1a over UTF-8 text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every reply line `svc` gives to `seeded_stream(n, count,
/// seed)`, with a `STATS` after every 100 commands so the pair count and
/// the update counters are pinned along the way, not only at the end.
fn reply_digest(mut svc: ReachService, n: usize, count: usize, seed: u64) -> u64 {
    let mut h = Fnv::new();
    for (i, cmd) in seeded_stream(n, count, seed).into_iter().enumerate() {
        h.text(&format!("{}\n", svc.execute(cmd)));
        if (i + 1) % 100 == 0 {
            h.text(&format!("{}\n", svc.execute(Command::Stats)));
        }
    }
    h.0
}

/// Every reply byte — `REACH` answers, `INSERT added=`, `DELETE
/// removed=` and the `STATS` line with `pairs=`, `incremental=`,
/// `pairs_added=` and `recomputes=` — is pinned by digests recorded on
/// the dense-closure service, so a change of how the closure is stored
/// must answer exactly as before, in software and batched.
#[test]
fn replies_are_pinned() {
    let software = |n| reply_digest(ReachService::new(DiGraph::new(n)), n, 10_000, 20260808);
    assert_eq!(software(48), 0x9ffb_4f01_449f_583a, "n=48 software");
    assert_eq!(software(512), 0xc0b2_6b1d_73fe_0f3c, "n=512 software");
    let batcher = Arc::new(AdmissionBatcher::new(PackedEngine::new(3)));
    let batched = ReachService::with_batcher(DiGraph::new(24), batcher);
    assert_eq!(
        reply_digest(batched, 24, 600, 7),
        0x7d71_6d42_5a4e_7fb1,
        "n=24 batched"
    );
}
