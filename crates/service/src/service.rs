//! The service core: one graph, one maintained closure, command execution.

use crate::protocol::{Command, Response};
use crate::wal::{Durability, WalOp};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use systolic_closure::{DiGraph, IncrementalClosure, RecomputeJob, SparseClosure};
use systolic_partition::{AdmissionBatcher, EngineError, Ticket};

/// Largest graph `LOAD` accepts. The cap was set for a dense `n×n`
/// served closure; the served closure is now the sparse one (component
/// ids and component rows), whose size follows the condensation, not
/// `n²`. The cap keeps its value and its error text until a declared
/// memory budget for `LOAD` replaces it (ROADMAP items 4 and 5), and a
/// file past it is refused on its size line, before anything is built.
pub const MAX_LOAD_VERTICES: usize = 32_768;

/// Largest component DAG a batched service hands the simulated array. A
/// dirty closure with more components refreshes in software, as it does
/// when the batcher answers `BUSY`. The array's banks hold Θ(c³) words
/// for a `c`-component bucket, so a run costs about 8× per bucket
/// doubling: one 2 %-dense random DAG on `PackedEngine::new(3)`, cold
/// call then warm call, release build on a 2-vCPU VM, took
///
/// | bucket | cycles | cold / warm | peak RSS |
/// |---:|---:|---:|---:|
/// | 64 | 91.5k | 11 / 8 ms | 9.4 MiB |
/// | 128 | 716k | 85 / 64 ms | 52 MiB |
/// | 256 | 5.66M | 0.65 / 0.44 s | 371 MiB |
pub const MAX_BATCHED_COMPONENTS: usize = 64;

/// Service-level counters (superset of the closure's own update stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// `REACH` queries answered.
    pub queries: u64,
    /// Protocol or backend errors reported (session survived them).
    pub errors: u64,
}

/// Why a command could not be executed. Everything here is answered
/// in-band as `ERR ...`; nothing terminates the session or the daemon.
#[derive(Debug)]
pub enum ServiceError {
    /// Backend engine failure (including [`EngineError::Busy`] shedding).
    Engine(EngineError),
    /// WAL/snapshot I/O failure — the mutation was *not* committed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Busy renders bare so the wire line starts `ERR BUSY ...`
            // (a parseable backpressure signal, not a generic backend
            // failure).
            ServiceError::Engine(e @ EngineError::Busy { .. }) => write!(f, "{e}"),
            ServiceError::Engine(e) => write!(f, "backend: {e}"),
            ServiceError::Io(e) => write!(f, "wal: {e}"),
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// A reachability service over one graph.
///
/// Owns an [`IncrementalClosure`], optionally a [`Durability`] log (every
/// effective mutation is WAL-committed before it is applied, snapshots
/// roll the log up), and optionally a shared [`AdmissionBatcher`] for
/// engine-packed delete-fallback recomputes. Mutations arriving while the
/// closure is dirty join a pending-recompute queue whose depth is capped
/// by [`set_max_pending`](ReachService::set_max_pending): past the cap
/// they answer `ERR BUSY` instead of growing the backlog without bound.
pub struct ReachService {
    inc: IncrementalClosure,
    batcher: Option<Arc<AdmissionBatcher>>,
    durability: Option<Durability>,
    /// A submitted-but-unclaimed recompute (two-phase batching).
    pending: Option<(RecomputeJob, Ticket)>,
    /// Mutations deferred behind the dirty closure since the last
    /// recompute — the admission-queue depth the `BUSY` cap bounds.
    pending_depth: u64,
    max_pending: Option<u64>,
    queries: AtomicU64,
    errors: AtomicU64,
}

impl ReachService {
    /// A service computing delete-fallback recomputes in software.
    pub fn new(graph: DiGraph) -> Self {
        Self {
            inc: IncrementalClosure::new(graph),
            batcher: None,
            durability: None,
            pending: None,
            pending_depth: 0,
            max_pending: None,
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// A service routing recomputes through a shared admission batcher.
    pub fn with_batcher(graph: DiGraph, batcher: Arc<AdmissionBatcher>) -> Self {
        let mut svc = Self::new(graph);
        svc.batcher = Some(batcher);
        svc
    }

    /// Attaches a durability log (builder style). The caller recovers the
    /// graph through [`Durability::open`] first and constructs the service
    /// from the recovered graph, so closure state ≡ the committed history.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Caps the pending-recompute queue: mutations arriving while the
    /// closure is dirty and `cap` are already queued answer `ERR BUSY`.
    /// `None` (the default) keeps the queue unbounded.
    pub fn set_max_pending(&mut self, cap: Option<u64>) {
        self.max_pending = cap;
    }

    /// Number of vertices served.
    pub fn n(&self) -> usize {
        self.inc.n()
    }

    /// The maintained closure, refreshed first (mainly for tests/benches).
    pub fn closure(&mut self) -> &SparseClosure {
        self.pending_depth = 0;
        self.inc.closure()
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries: self.queries.load(Relaxed),
            errors: self.errors.load(Relaxed),
        }
    }

    /// True when a delete has left the closure stale.
    pub fn is_dirty(&self) -> bool {
        self.inc.is_dirty()
    }

    /// Mutations queued behind the dirty closure (0 when clean).
    pub fn queue_depth(&self) -> u64 {
        self.pending_depth
    }

    /// WAL bytes on disk (0 without a durability log).
    pub fn wal_bytes(&self) -> u64 {
        self.durability.as_ref().map_or(0, Durability::wal_bytes)
    }

    /// Snapshots written this run (0 without a durability log).
    pub fn snapshots(&self) -> u64 {
        self.durability.as_ref().map_or(0, Durability::snapshots)
    }

    /// Answers `REACH u v` without any mutable access, provided the
    /// closure is clean — the concurrent server's shared-read fast path.
    /// `None` when dirty (or out of range): the caller must take the slow
    /// path. Counts the query when it answers.
    pub fn reach_clean(&self, u: usize, v: usize) -> Option<bool> {
        if u >= self.n() || v >= self.n() {
            return None;
        }
        let closed = self.inc.closure_if_clean()?;
        self.queries.fetch_add(1, Relaxed);
        Some(closed.reachable(u, v))
    }

    /// The maintained closure as-is, possibly stale (missing deletes
    /// since the last recompute) — what the concurrent server publishes
    /// as its degraded-read snapshot, by cloning the `Arc`.
    pub fn stale_closure(&self) -> &Arc<SparseClosure> {
        self.inc.stale_closure()
    }

    /// Phase one of a batched recompute: submit this tenant's pending
    /// component-DAG closure to the shared batcher (no-op when clean or
    /// already submitted, or when running in software). A DAG of more than
    /// [`MAX_BATCHED_COMPONENTS`] components is closed in software here
    /// instead, from the condensation already made, without building its
    /// matrix. Returns whether a request was submitted.
    ///
    /// # Errors
    /// Propagates the batcher's admission error (including
    /// [`EngineError::Busy`] from a bounded queue).
    pub fn enqueue_recompute(&mut self) -> Result<bool, EngineError> {
        let Some(batcher) = &self.batcher else {
            return Ok(false);
        };
        if self.pending.is_some() || !self.inc.is_dirty() {
            return Ok(false);
        }
        let Some(job) = self.inc.prepare_recompute(MAX_BATCHED_COMPONENTS) else {
            return Ok(false); // recomputed in software past the bound
        };
        let ticket = batcher.submit(job.dag.clone())?;
        self.pending = Some((job, ticket));
        Ok(true)
    }

    /// Phase two: claim the flushed result and install it. Returns whether
    /// a pending recompute was completed. If the ticket never resolved
    /// (the shared flush failed, or this is called before any flush) the
    /// service falls back to a software recompute instead of panicking —
    /// a lost batch degrades to the slow path, it does not wedge the
    /// closure dirty.
    pub fn finish_recompute(&mut self) -> bool {
        let Some((job, ticket)) = self.pending.take() else {
            return false;
        };
        let claimed = self.batcher.as_ref().and_then(|b| {
            let got = b.take(ticket);
            if got.is_none() {
                b.cancel(ticket); // don't leave an orphan in the queue
            }
            got
        });
        match claimed {
            Some(closed) => self.inc.complete_recompute(job, &closed),
            None => self.inc.refresh(),
        }
        self.pending_depth = 0;
        true
    }

    /// Brings the closure current: software refresh, or a single-tenant
    /// submit → flush → claim round through the shared batcher. A `BUSY`
    /// batcher sheds to the software path rather than failing the read.
    ///
    /// # Errors
    /// Propagates engine failures from the batched path.
    pub fn ensure_fresh(&mut self) -> Result<(), EngineError> {
        if !self.inc.is_dirty() && self.pending.is_none() {
            self.pending_depth = 0;
            return Ok(());
        }
        match &self.batcher {
            Some(_) => {
                match self.enqueue_recompute() {
                    Ok(_) => {}
                    Err(EngineError::Busy { .. }) => {
                        self.inc.refresh();
                        self.pending_depth = 0;
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
                if let Some(batcher) = &self.batcher {
                    batcher.flush()?;
                }
                self.finish_recompute();
            }
            None => {
                self.inc.refresh();
            }
        }
        self.pending_depth = 0;
        Ok(())
    }

    /// Executes one command, returning the response line. Backend errors
    /// become [`Response::Err`]; the service stays usable.
    pub fn execute(&mut self, cmd: Command) -> Response {
        match self.try_execute(cmd) {
            Ok(r) => r,
            Err(e) => {
                self.errors.fetch_add(1, Relaxed);
                Response::Err(e.to_string())
            }
        }
    }

    /// Records a protocol-level error against this session's counters.
    pub fn note_error(&self) {
        self.errors.fetch_add(1, Relaxed);
    }

    fn check_vertices(&self, u: usize, v: usize) -> Result<(), ServiceError> {
        let n = self.n();
        if u >= n || v >= n {
            return Err(
                EngineError::BadInput(format!("vertex out of range (n={n}): {u} {v}")).into(),
            );
        }
        Ok(())
    }

    /// `ERR BUSY` backpressure: refuse mutations once the dirty-closure
    /// queue is at its cap.
    fn admit_mutation(&self) -> Result<(), ServiceError> {
        if let Some(cap) = self.max_pending {
            if self.inc.is_dirty() && self.pending_depth >= cap {
                return Err(EngineError::Busy {
                    pending: self.pending_depth as usize,
                    cap: cap as usize,
                }
                .into());
            }
        }
        Ok(())
    }

    /// One line of `STATS` counters.
    fn stats_line(&mut self) -> String {
        let s = self.inc.stats();
        format!(
            "n={} edges={} pairs={} queries={} inserts={} incremental={} \
             pairs_added={} deletes={} recomputes={} errors={} wal_bytes={} \
             snapshots={} queue_depth={} mode={}",
            self.inc.n(),
            self.inc.graph().edge_count(),
            self.inc.pairs(),
            self.queries.load(Relaxed),
            s.inserts,
            s.incremental_inserts,
            s.pairs_added,
            s.deletes,
            s.recomputes,
            self.errors.load(Relaxed),
            self.wal_bytes(),
            self.snapshots(),
            self.pending_depth,
            if self.batcher.is_some() {
                "batched"
            } else {
                "software"
            },
        )
    }

    fn try_execute(&mut self, cmd: Command) -> Result<Response, ServiceError> {
        match cmd {
            Command::Reach(u, v) => {
                self.check_vertices(u, v)?;
                self.ensure_fresh()?;
                self.queries.fetch_add(1, Relaxed);
                Ok(Response::Reach {
                    u,
                    v,
                    reachable: self.inc.reach(u, v),
                    stale: false,
                })
            }
            Command::Insert(u, v) => {
                self.check_vertices(u, v)?;
                self.admit_mutation()?;
                let effective = !self.inc.graph().has_edge(u, v);
                if effective {
                    if let Some(d) = self.durability.as_mut() {
                        d.log(WalOp::Insert, u, v)?; // commit point
                    }
                }
                let was_dirty = self.inc.is_dirty();
                let added = self.inc.insert(u, v);
                if effective && was_dirty {
                    self.pending_depth += 1;
                }
                if effective {
                    if let Some(d) = self.durability.as_mut() {
                        d.maybe_snapshot(self.inc.graph())?;
                    }
                }
                Ok(Response::Inserted { u, v, added })
            }
            Command::Delete(u, v) => {
                self.check_vertices(u, v)?;
                self.admit_mutation()?;
                let present = self.inc.graph().has_edge(u, v);
                if present {
                    if let Some(d) = self.durability.as_mut() {
                        d.log(WalOp::Delete, u, v)?; // commit point
                    }
                }
                let removed = self.inc.delete(u, v);
                if removed {
                    self.pending_depth += 1;
                    if let Some(d) = self.durability.as_mut() {
                        d.maybe_snapshot(self.inc.graph())?;
                    }
                }
                Ok(Response::Deleted { u, v, removed })
            }
            Command::Load(path) => {
                // A bulk load is not WAL-logged edge-by-edge, so on a
                // durable service it would silently diverge from the
                // recovery path — refuse instead of corrupting history.
                if self.durability.is_some() {
                    return Err(EngineError::BadInput(
                        "LOAD is not supported on a durable service (bulk loads bypass the WAL)"
                            .into(),
                    )
                    .into());
                }
                let bad =
                    |e: &dyn std::fmt::Display| EngineError::BadInput(format!("LOAD {path}: {e}"));
                let file = std::fs::File::open(&path).map_err(|e| bad(&e))?;
                let (n, entries) = systolic_closure::read_edges(std::io::BufReader::new(file))
                    .map_err(|e| bad(&e))?;
                // The cap (see `MAX_LOAD_VERTICES`) is checked on the
                // vertex count, before anything n-sized is built.
                if n > MAX_LOAD_VERTICES {
                    return Err(EngineError::BadInput(format!(
                        "LOAD {path}: {n} vertices exceeds the dense service cap of \
                         {MAX_LOAD_VERTICES} (use `systolic closure --sparse` for offline \
                         queries at this scale)"
                    ))
                    .into());
                }
                let g = systolic_closure::CsrGraph::from_edges(n, &entries);
                let edges = g.edge_count();
                self.inc = IncrementalClosure::new(g.to_digraph());
                self.pending_depth = 0;
                Ok(Response::Loaded { n, edges })
            }
            Command::Stats => {
                self.ensure_fresh()?;
                Ok(Response::Stats(self.stats_line()))
            }
            Command::Quit => Ok(Response::Bye),
        }
    }
}

impl std::fmt::Debug for ReachService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReachService(n: {}, dirty: {}, batched: {}, durable: {}, queue: {})",
            self.n(),
            self.is_dirty(),
            self.batcher.is_some(),
            self.durability.is_some(),
            self.pending_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Durability;
    use systolic_partition::PackedEngine;

    fn line(svc: &mut ReachService, cmd: &str) -> String {
        match crate::protocol::parse_command(cmd).unwrap() {
            Some(c) => svc.execute(c).to_string(),
            None => String::new(),
        }
    }

    #[test]
    fn load_replaces_graph_then_serves_and_mutates() {
        let path =
            std::env::temp_dir().join(format!("systolic-svc-load-{}.mtx", std::process::id()));
        let g = systolic_closure::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        g.save(&path).unwrap();
        let mut svc = ReachService::new(DiGraph::new(2));
        assert_eq!(
            line(&mut svc, &format!("LOAD {}", path.display())),
            "OK LOAD n=6 edges=3"
        );
        assert_eq!(line(&mut svc, "REACH 0 2"), "REACH 0 2 true");
        assert_eq!(line(&mut svc, "REACH 2 0"), "REACH 2 0 false");
        // Incremental updates keep working on the loaded graph.
        assert!(line(&mut svc, "INSERT 2 4").starts_with("OK INSERT"));
        assert_eq!(line(&mut svc, "REACH 0 5"), "REACH 0 5 true");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_errors_are_not_fatal() {
        let mut svc = ReachService::new(DiGraph::new(3));
        let resp = line(&mut svc, "LOAD /nonexistent/systolic.mtx");
        assert!(resp.starts_with("ERR"), "{resp}");
        // Session stays usable after the failed load.
        assert_eq!(line(&mut svc, "REACH 0 0"), "REACH 0 0 true");
    }

    #[test]
    fn load_refuses_an_over_cap_declaration_before_building_it() {
        // Building this graph would take 24 bytes per declared vertex,
        // about 96 GB.
        let path =
            std::env::temp_dir().join(format!("systolic-svc-load-cap-{}.mtx", std::process::id()));
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n4000000000 4000000000 0\n",
        )
        .unwrap();
        let mut svc = ReachService::new(DiGraph::new(3));
        assert_eq!(line(&mut svc, "INSERT 0 1"), "OK INSERT 0 1 added=1");
        let refusal = format!(
            "ERR backend: bad input: LOAD {}: 4000000000 vertices exceeds the dense \
             service cap of 32768 (use `systolic closure --sparse` for offline queries \
             at this scale)",
            path.display()
        );
        let resp = line(&mut svc, &format!("LOAD {}", path.display()));
        assert_eq!(resp, refusal);
        // The previous graph keeps serving and mutating.
        assert_eq!(line(&mut svc, "REACH 0 1"), "REACH 0 1 true");
        assert_eq!(line(&mut svc, "INSERT 1 2"), "OK INSERT 1 2 added=2");
        // The same vertex count as an edge list: its largest id.
        std::fs::write(&path, "3999999999 0\n").unwrap();
        assert_eq!(line(&mut svc, &format!("LOAD {}", path.display())), refusal);
        assert_eq!(line(&mut svc, "REACH 0 2"), "REACH 0 2 true");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejected_on_durable_service() {
        let wal = std::env::temp_dir().join(format!(
            "systolic-svc-load-durable-{}.wal",
            std::process::id()
        ));
        std::fs::remove_file(&wal).ok();
        let mtx = std::env::temp_dir().join(format!(
            "systolic-svc-load-durable-{}.mtx",
            std::process::id()
        ));
        systolic_closure::CsrGraph::from_edges(3, &[(0, 1)])
            .save(&mtx)
            .unwrap();
        let (d, g, _report) = Durability::open(&wal, None, DiGraph::new(3)).unwrap();
        let mut svc = ReachService::new(g).with_durability(d);
        let resp = line(&mut svc, &format!("LOAD {}", mtx.display()));
        assert!(resp.contains("bypass the WAL"), "{resp}");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn session_walkthrough_software() {
        let mut svc = ReachService::new(DiGraph::new(5));
        assert_eq!(line(&mut svc, "REACH 0 3"), "REACH 0 3 false");
        assert_eq!(line(&mut svc, "INSERT 0 1"), "OK INSERT 0 1 added=1");
        assert_eq!(line(&mut svc, "INSERT 1 2"), "OK INSERT 1 2 added=2");
        assert_eq!(line(&mut svc, "INSERT 2 3"), "OK INSERT 2 3 added=3");
        assert_eq!(line(&mut svc, "REACH 0 3"), "REACH 0 3 true");
        assert_eq!(line(&mut svc, "DELETE 1 2"), "OK DELETE 1 2 removed=true");
        assert!(svc.is_dirty());
        assert_eq!(svc.queue_depth(), 1);
        assert_eq!(line(&mut svc, "REACH 0 3"), "REACH 0 3 false");
        assert!(!svc.is_dirty(), "query refreshed the closure");
        assert_eq!(svc.queue_depth(), 0, "refresh drained the queue");
        let stats = line(&mut svc, "STATS");
        assert!(stats.contains("recomputes=1"), "{stats}");
        assert!(stats.contains("mode=software"), "{stats}");
        assert!(stats.contains("wal_bytes=0"), "{stats}");
        assert!(stats.contains("queue_depth=0"), "{stats}");
    }

    #[test]
    fn batched_recompute_matches_software() {
        let batcher = Arc::new(AdmissionBatcher::new(PackedEngine::new(2)));
        let mut soft = ReachService::new(DiGraph::new(8));
        let mut hard = ReachService::with_batcher(DiGraph::new(8), Arc::clone(&batcher));
        for cmd in [
            "INSERT 0 1",
            "INSERT 1 2",
            "INSERT 2 0",
            "INSERT 2 3",
            "INSERT 3 4",
            "INSERT 4 5",
            "DELETE 2 3",
            "INSERT 5 6",
        ] {
            assert_eq!(line(&mut soft, cmd), line(&mut hard, cmd), "{cmd}");
        }
        for u in 0..8 {
            for v in 0..8 {
                let q = format!("REACH {u} {v}");
                assert_eq!(line(&mut soft, &q), line(&mut hard, &q), "{q}");
            }
        }
        assert!(batcher.stats().executed >= 1, "delete went through batcher");
    }

    #[test]
    fn out_of_range_vertices_error_without_killing_the_session() {
        let mut svc = ReachService::new(DiGraph::new(3));
        assert!(line(&mut svc, "REACH 0 9").starts_with("ERR "));
        assert!(line(&mut svc, "INSERT 9 0").starts_with("ERR "));
        assert_eq!(line(&mut svc, "REACH 0 0"), "REACH 0 0 true");
        assert_eq!(svc.stats().errors, 2);
    }

    #[test]
    fn reach_clean_answers_without_mut_and_stale_reads_degrade() {
        let mut svc = ReachService::new(DiGraph::new(4));
        line(&mut svc, "INSERT 0 1");
        line(&mut svc, "INSERT 1 2");
        assert_eq!(svc.reach_clean(0, 2), Some(true));
        assert_eq!(svc.reach_clean(0, 9), None, "out of range takes slow path");
        line(&mut svc, "DELETE 0 1");
        assert_eq!(
            svc.reach_clean(0, 2),
            None,
            "dirty closure has no fast path"
        );
        assert!(
            svc.stale_closure().reachable(0, 2),
            "stale read still sees the old path"
        );
        assert_eq!(line(&mut svc, "REACH 0 2"), "REACH 0 2 false");
        assert!(svc.reach_clean(0, 2) == Some(false));
    }

    #[test]
    fn mutations_past_the_pending_cap_answer_busy() {
        let mut svc = ReachService::new(DiGraph::new(6));
        svc.set_max_pending(Some(2));
        for cmd in ["INSERT 0 1", "INSERT 1 2", "INSERT 2 3"] {
            line(&mut svc, cmd);
        }
        assert_eq!(line(&mut svc, "DELETE 0 1"), "OK DELETE 0 1 removed=true");
        assert_eq!(line(&mut svc, "DELETE 1 2"), "OK DELETE 1 2 removed=true");
        assert_eq!(svc.queue_depth(), 2);
        let busy = line(&mut svc, "DELETE 2 3");
        assert!(busy.starts_with("ERR BUSY"), "{busy}");
        let busy = line(&mut svc, "INSERT 4 5");
        assert!(busy.starts_with("ERR BUSY"), "{busy}");
        // Deleting an absent edge is refused too (it is a mutation
        // request arriving past the cap, shed before inspection).
        assert!(line(&mut svc, "DELETE 5 0").starts_with("ERR BUSY"));
        // A read drains the queue and admission reopens.
        assert_eq!(line(&mut svc, "REACH 0 2"), "REACH 0 2 false");
        assert_eq!(line(&mut svc, "INSERT 4 5"), "OK INSERT 4 5 added=1");
        // The graph reflects exactly the admitted mutations.
        assert!(
            svc.stale_closure().reachable(2, 3),
            "shed delete was not applied"
        );
    }

    #[test]
    fn durable_service_survives_reopen() {
        let path =
            std::env::temp_dir().join(format!("systolic-svc-durable-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(Durability::snapshot_path(&path)).ok();
        {
            let (d, g, _) = Durability::open(&path, Some(2), DiGraph::new(5)).unwrap();
            let mut svc = ReachService::new(g).with_durability(d);
            for cmd in [
                "INSERT 0 1",
                "INSERT 1 2",
                "INSERT 2 3",
                "DELETE 1 2",
                "INSERT 1 3",
            ] {
                assert!(!line(&mut svc, cmd).starts_with("ERR"));
            }
            assert!(svc.snapshots() >= 1, "snapshot_every=2 fired");
        }
        let (d, g, report) = Durability::open(&path, Some(2), DiGraph::new(5)).unwrap();
        assert!(report.snapshot_seq.is_some());
        let mut svc = ReachService::new(g).with_durability(d);
        assert_eq!(line(&mut svc, "REACH 0 3"), "REACH 0 3 true", "via 1→3");
        assert_eq!(
            line(&mut svc, "REACH 0 2"),
            "REACH 0 2 false",
            "1→2 deleted"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(Durability::snapshot_path(&path)).ok();
    }

    #[test]
    fn multi_tenant_recomputes_pack_into_one_flush() {
        let batcher = Arc::new(AdmissionBatcher::new(PackedEngine::new(2)));
        let mut tenants: Vec<_> = (0..5)
            .map(|t| {
                let mut g = DiGraph::new(6);
                g.add_edge(t % 6, (t + 1) % 6);
                g.add_edge((t + 1) % 6, (t + 2) % 6);
                ReachService::with_batcher(g, Arc::clone(&batcher))
            })
            .collect();
        // Dirty every tenant, then run the two-phase round by hand.
        for (t, svc) in tenants.iter_mut().enumerate() {
            let c = crate::protocol::parse_command(&format!("DELETE {} {}", t % 6, (t + 1) % 6))
                .unwrap()
                .unwrap();
            svc.execute(c);
            assert!(svc.enqueue_recompute().unwrap());
        }
        assert_eq!(batcher.pending(), 5);
        let report = batcher.flush().unwrap();
        assert_eq!(report.executed, 5);
        assert_eq!(report.lane_runs, 1, "five tenants share one lane run");
        for svc in &mut tenants {
            assert!(svc.finish_recompute());
            assert!(!svc.is_dirty());
        }
        // And the packed answers equal fresh software services.
        for (t, svc) in tenants.iter_mut().enumerate() {
            let mut g = DiGraph::new(6);
            g.add_edge(t % 6, (t + 1) % 6);
            g.add_edge((t + 1) % 6, (t + 2) % 6);
            g.remove_edge(t % 6, (t + 1) % 6);
            let mut soft = ReachService::new(g);
            for u in 0..6 {
                for v in 0..6 {
                    let q = crate::protocol::parse_command(&format!("REACH {u} {v}"))
                        .unwrap()
                        .unwrap();
                    assert_eq!(
                        svc.execute(q.clone()),
                        soft.execute(q),
                        "tenant {t} {u}->{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn large_component_dags_refresh_in_software() {
        // 100 isolated vertices: 100 components, past the batched bound.
        let batcher = Arc::new(AdmissionBatcher::new(PackedEngine::new(3)));
        let mut batched = ReachService::with_batcher(DiGraph::new(100), Arc::clone(&batcher));
        let mut soft = ReachService::new(DiGraph::new(100));
        for cmd in ["INSERT 0 1", "DELETE 0 1", "REACH 0 1"] {
            assert_eq!(line(&mut batched, cmd), line(&mut soft, cmd), "{cmd}");
        }
        assert!(!batched.is_dirty());
        assert_eq!(batcher.stats().submitted, 0, "nothing reached the array");
    }

    #[test]
    fn finish_without_flush_falls_back_to_software() {
        let batcher = Arc::new(AdmissionBatcher::new(PackedEngine::new(2)));
        let mut svc = ReachService::with_batcher(DiGraph::new(4), Arc::clone(&batcher));
        line(&mut svc, "INSERT 0 1");
        line(&mut svc, "INSERT 1 2");
        line(&mut svc, "DELETE 0 1");
        assert!(svc.enqueue_recompute().unwrap());
        // No flush happened: the ticket is unresolved. The old code
        // panicked here; now it cancels the orphan and recomputes in
        // software.
        assert!(svc.finish_recompute());
        assert!(!svc.is_dirty());
        assert_eq!(batcher.pending(), 0, "orphan ticket was cancelled");
        assert_eq!(line(&mut svc, "REACH 0 2"), "REACH 0 2 false");
        assert_eq!(line(&mut svc, "REACH 1 2"), "REACH 1 2 true");
    }
}
