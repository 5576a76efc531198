//! The reachability service over loopback TCP, driven by closed-loop
//! clients (each sends its next command only after the reply).
//!
//! `serve_write` runs a durable service whose clients each own a disjoint
//! half of the vertices and mix reads with inserts and deletes, so every
//! reply can be checked against that client's own history; a delete makes
//! the next read refresh the closure. `serve_read` runs a non-durable
//! service on a fixed graph that clients only query: the closure is never
//! dirty, so parse, transport and the clean-read path are the whole cost.
//!
//! A read answered from a stale snapshot (another session held the writer)
//! is counted, not judged: staleness is the service's documented degraded
//! mode. The traced run serves through a session loop written here from
//! the service's public `parse_command` and `SharedService::execute`, so
//! server-side spans nest, by op id, inside each client's round trip.

use crate::harness::{self, ns, Measured, Outcome, Workload};
use crate::inputs::{Cmd, EdgeSet, Rng, Stream};
use crate::json::Json;
use crate::stats::{self, Hist};
use crate::trace::{Summary, Tracer, BESIDE, OP};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;
use systolic_closure::{DiGraph, IncrementalClosure};
use systolic_service::{
    parse_command, serve_tcp, Durability, ReachService, Response, ServeSummary, SessionLimits,
    SharedService, WalOp,
};

const TAG_GRAPH: u64 = 20;
const TAG_STREAM: u64 = 40;
/// Commands per stream that the pinned fingerprint covers.
const FINGERPRINT_COMMANDS: usize = 40_000;
/// More commands than one connection completes in a second on loopback.
const MAX_COMMANDS_PER_SECOND: f64 = 500_000.0;
const TRANSPORT: &str = "service.transport";

pub struct Serve {
    pub name: &'static str,
    pub n: usize,
    /// Concurrent client connections.
    pub conns: usize,
    /// Each client owns `n / conns` vertices (true) or all share the graph.
    pub disjoint: bool,
    /// Initial edges per vertex range, also the range's steady edge count.
    pub edges_per_range: usize,
    /// Shares of `REACH` and `INSERT` commands; the rest are `DELETE`s.
    pub reach: f64,
    pub insert: f64,
    /// Whether the service logs mutations to a write-ahead log.
    pub durable: bool,
    /// Commands per connection per second of `--seconds` in a traced run
    /// (each command is sent twice there: untraced, then traced).
    pub trace_rate: f64,
    /// Where the write-ahead logs live.
    pub dir: PathBuf,
}

/// One reply, reduced to what the oracle checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reply {
    Reach { yes: bool, stale: bool },
    Inserted,
    Deleted(bool),
    Other,
}

impl Reply {
    fn parse(line: &str) -> Reply {
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("REACH ") {
            let (rest, stale) = match rest.strip_suffix(" stale=true") {
                Some(r) => (r, true),
                None => (rest, false),
            };
            match rest.rsplit(' ').next() {
                Some("true") => Reply::Reach { yes: true, stale },
                Some("false") => Reply::Reach { yes: false, stale },
                _ => Reply::Other,
            }
        } else if line.starts_with("OK INSERT ") {
            Reply::Inserted
        } else if line.starts_with("OK DELETE ") {
            Reply::Deleted(line.ends_with("removed=true"))
        } else {
            Reply::Other
        }
    }

    fn is_stale(&self) -> bool {
        matches!(self, Reply::Reach { stale: true, .. })
    }
}

/// Reachability inside one vertex range, by BFS over an adjacency kept in
/// step with the client's own commands; BFS results are cached per source
/// until the next effective mutation.
struct Oracle {
    lo: u32,
    adj: Vec<Vec<u32>>,
    cache: HashMap<u32, Vec<bool>>,
}

impl Oracle {
    fn new(edges: &EdgeSet) -> Self {
        let mut adj = vec![Vec::new(); (edges.hi - edges.lo) as usize];
        for &(u, v) in edges.edges() {
            adj[(u - edges.lo) as usize].push(v - edges.lo);
        }
        Oracle {
            lo: edges.lo,
            adj,
            cache: HashMap::new(),
        }
    }

    fn reaches(&mut self, u: u32, v: u32) -> bool {
        let (u, v) = (u - self.lo, v - self.lo);
        let adj = &self.adj;
        self.cache.entry(u).or_insert_with(|| {
            let mut seen = vec![false; adj.len()];
            let mut stack = vec![u];
            seen[u as usize] = true;
            while let Some(x) = stack.pop() {
                for &y in &adj[x as usize] {
                    if !seen[y as usize] {
                        seen[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            seen
        })[v as usize]
    }

    fn insert(&mut self, u: u32, v: u32) {
        let list = &mut self.adj[(u - self.lo) as usize];
        if !list.contains(&(v - self.lo)) {
            list.push(v - self.lo);
            self.cache.clear();
        }
    }

    fn remove(&mut self, u: u32, v: u32) -> bool {
        let list = &mut self.adj[(u - self.lo) as usize];
        let Some(i) = list.iter().position(|&x| x == v - self.lo) else {
            return false;
        };
        list.swap_remove(i);
        self.cache.clear();
        true
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    replies: Vec<Reply>,
    /// Round trips, in ns.
    rtt: Hist,
    /// Σ whole-op time (command generation, round trip, reply parsing).
    op_ns: u64,
    /// Commands completed in each whole second since the start.
    per_second: Vec<u64>,
    error: Option<String>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    port: u16,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            port: writer.local_addr()?.port(),
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }
}

/// When a client stops.
#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    Commands(usize),
}

/// The closed loop of one client.
fn client(
    mut conn: Conn,
    mut stream: Stream,
    start: Instant,
    until: Until,
    mut tracer: Option<&mut Tracer>,
    op_base: u64,
) -> ClientLog {
    // Reserved up front (untouched, so not resident) so that the log never
    // reallocates: a reallocation copies the log, and peak RSS would then
    // depend on how far the run got.
    let most = match until {
        Until::Seconds(s) => (s * MAX_COMMANDS_PER_SECOND) as usize,
        Until::Commands(c) => c,
    };
    let mut log = ClientLog {
        replies: Vec::with_capacity(most),
        ..ClientLog::default()
    };
    let (mut line, mut resp) = (String::new(), String::new());
    for k in 0.. {
        match until {
            Until::Seconds(s) if start.elapsed().as_secs_f64() >= s => break,
            Until::Commands(c) if k >= c => break,
            _ => {}
        }
        let op = op_base + k as u64;
        let began = Instant::now();
        if let Some(t) = &mut tracer {
            t.begin(OP, op);
        }
        stream.next_cmd().line(&mut line);
        if let Some(t) = &mut tracer {
            t.begin(TRANSPORT, op);
        }
        resp.clear();
        let t0 = Instant::now();
        let sent = conn
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.reader.read_line(&mut resp));
        let rtt = t0.elapsed();
        if let Some(t) = &mut tracer {
            t.end();
        }
        match sent {
            Ok(0) => log.error = Some("server closed the connection".into()),
            Err(e) => log.error = Some(e.to_string()),
            Ok(_) => {}
        }
        if log.error.is_some() {
            if let Some(t) = &mut tracer {
                t.end();
            }
            break;
        }
        log.replies.push(Reply::parse(&resp));
        log.rtt.record(ns(rtt));
        if let Some(t) = &mut tracer {
            t.end();
        }
        log.op_ns += ns(began.elapsed());
        let second = (t0 + rtt - start).as_secs() as usize;
        if log.per_second.len() <= second {
            log.per_second.resize(second + 1, 0);
        }
        log.per_second[second] += 1;
    }
    log
}

/// Op ids are unique across connections.
fn op_base(conn: usize) -> u64 {
    (conn as u64) << 40
}

/// A running service with its connected clients.
struct Live {
    conns: Vec<Conn>,
    server: Option<JoinHandle<io::Result<Vec<Tracer>>>>,
}

impl Live {
    /// Closes the client connections (the sessions see end of input) and
    /// waits for the server thread.
    fn finish(&mut self) -> Result<Vec<Tracer>, String> {
        self.conns.clear();
        match self.server.take() {
            Some(h) => h
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(|e| format!("server: {e}")),
            None => Ok(Vec::new()),
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// The library's server: `serve_tcp` until every connection has closed.
fn library_server(
    shared: Arc<SharedService>,
    listener: TcpListener,
    conns: usize,
) -> io::Result<Vec<Tracer>> {
    let summary: ServeSummary = serve_tcp(&shared, &listener, conns, Some(conns))?;
    if summary.failed_sessions > 0 {
        return Err(io::Error::other(format!(
            "{} sessions failed",
            summary.failed_sessions
        )));
    }
    Ok(Vec::new())
}

/// The decomposed server of the traced run: one session thread per
/// connection reading lines, `parse_command`, `SharedService::execute`,
/// writing the reply, as the library's session loop does. Connections are
/// matched to clients by port, which `ports` delivers in client order.
fn traced_server(
    shared: Arc<SharedService>,
    listener: TcpListener,
    conns: usize,
    ports: mpsc::Receiver<Vec<u16>>,
    origin: Instant,
) -> io::Result<Vec<Tracer>> {
    let mut accepted = Vec::new();
    for _ in 0..conns {
        let (s, peer) = listener.accept()?;
        accepted.push((peer.port(), s));
    }
    let ports = ports.recv().map_err(io::Error::other)?;
    thread::scope(|scope| {
        let sessions: Vec<_> = accepted
            .into_iter()
            .map(|(port, s)| {
                let c = ports.iter().position(|&p| p == port);
                let shared = &shared;
                scope.spawn(move || -> io::Result<Tracer> {
                    let c = c.ok_or_else(|| io::Error::other("unknown client port"))?;
                    session(shared, s, op_base(c), origin)
                })
            })
            .collect();
        sessions
            .into_iter()
            .map(|h| h.join().map_err(|_| io::Error::other("session panicked"))?)
            .collect()
    })
}

fn session(
    shared: &SharedService,
    stream: TcpStream,
    base: u64,
    origin: Instant,
) -> io::Result<Tracer> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = &stream;
    let mut t = Tracer::new(origin);
    let mut line = String::new();
    for k in 0.. {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let op = base + k;
        t.begin_remote("service.parse", op, TRANSPORT);
        let parsed = parse_command(&line);
        t.end();
        let resp = match parsed {
            Ok(Some(cmd)) => {
                t.begin_remote("service.execute", op, TRANSPORT);
                let r = shared.execute(cmd);
                t.end();
                r
            }
            Ok(None) => Response::Err("empty line".into()),
            Err(msg) => Response::Err(msg),
        };
        writeln!(out, "{resp}")?;
        out.flush()?;
    }
    Ok(t)
}

impl Serve {
    pub fn write_full(dir: &Path) -> Self {
        Serve {
            name: "serve_write",
            n: 1024,
            conns: 2,
            disjoint: true,
            edges_per_range: 1024,
            reach: 0.7,
            insert: 0.2,
            durable: true,
            trace_rate: 1500.0,
            dir: dir.to_path_buf(),
        }
    }

    pub fn read_full(dir: &Path) -> Self {
        Serve {
            name: "serve_read",
            n: 4096,
            conns: 2,
            disjoint: false,
            edges_per_range: 3 * 4096,
            reach: 1.0,
            insert: 0.0,
            durable: false,
            trace_rate: 4000.0,
            dir: dir.to_path_buf(),
        }
    }

    /// The initial graph, and each client's command stream (which starts
    /// from its range's initial edges).
    fn inputs(&self, seed: u64) -> (DiGraph, Vec<Stream>) {
        let ranges = if self.disjoint { self.conns } else { 1 };
        let sets: Vec<EdgeSet> = (0..ranges)
            .map(|r| {
                let (lo, hi) = (r * self.n / ranges, (r + 1) * self.n / ranges);
                let mut rng = Rng::new(seed, TAG_GRAPH + r as u64);
                EdgeSet::random(&mut rng, lo as u32, hi as u32, self.edges_per_range)
            })
            .collect();
        let mut graph = DiGraph::new(self.n);
        for &(u, v) in sets.iter().flat_map(EdgeSet::edges) {
            graph.add_edge(u as usize, v as usize);
        }
        let streams = (0..self.conns)
            .map(|c| {
                let rng = Rng::new(seed, TAG_STREAM + c as u64);
                Stream::new(rng, self.reach, self.insert, sets[c % ranges].clone())
            })
            .collect();
        (graph, streams)
    }

    fn wal(&self, what: &str) -> PathBuf {
        self.dir.join(format!("{}.{what}.wal", self.name))
    }

    /// A fresh service over `graph`, durable on a fresh log when asked.
    fn service(&self, graph: DiGraph, wal: &Path) -> Result<ReachService, String> {
        if !self.durable {
            return Ok(ReachService::new(graph));
        }
        fresh_wal(wal)?;
        let (d, g, _) = Durability::open(wal, None, graph).map_err(|e| format!("wal: {e}"))?;
        Ok(ReachService::new(g).with_durability(d))
    }

    /// Starts a service and connects the clients. With `origin`, the
    /// decomposed traced server runs instead of `serve_tcp`.
    fn start(&self, graph: DiGraph, wal: &Path, origin: Option<Instant>) -> Result<Live, String> {
        let shared = Arc::new(SharedService::new(
            self.service(graph, wal)?,
            SessionLimits::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let conns = self.conns;
        let (tx, rx) = mpsc::channel();
        let server = thread::spawn(move || match origin {
            Some(origin) => traced_server(shared, listener, conns, rx, origin),
            None => library_server(shared, listener, conns),
        });
        let mut live = Live {
            conns: Vec::new(),
            server: Some(server),
        };
        for _ in 0..conns {
            live.conns
                .push(Conn::open(addr).map_err(|e| format!("connect: {e}"))?);
        }
        // Only the traced server listens for the ports; a closed channel
        // is fine for the library server.
        let _ = tx.send(live.conns.iter().map(|c| c.port).collect());
        Ok(live)
    }

    /// Runs every client until `until`, in parallel, and shuts the service
    /// down. Returns the client logs and the server-side tracers.
    fn drive(
        &self,
        mut live: Live,
        streams: Vec<Stream>,
        until: Until,
        tracers: Option<&mut [Tracer]>,
    ) -> Result<(Vec<ClientLog>, Vec<Tracer>), String> {
        let conns = std::mem::take(&mut live.conns);
        let start = Instant::now();
        let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
            Some(ts) => ts.iter_mut().map(Some).collect(),
            None => (0..conns.len()).map(|_| None).collect(),
        };
        let logs: Vec<ClientLog> = thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(streams)
                .zip(tracers.iter_mut())
                .enumerate()
                .map(|(c, ((conn, stream), t))| {
                    let t = t.take();
                    scope.spawn(move || client(conn, stream, start, until, t, op_base(c)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ClientLog {
                        error: Some("client panicked".into()),
                        ..ClientLog::default()
                    })
                })
                .collect()
        });
        let server = live.finish()?;
        Ok((logs, server))
    }

    /// Replays each client's stream through its oracle. Returns the wrong
    /// replies (a failed command counts as wrong), and the stale and all
    /// `REACH` replies.
    fn verify(&self, seed: u64, logs: &[ClientLog]) -> (u64, u64, u64) {
        let (_, streams) = self.inputs(seed);
        let (mut wrong, mut stale, mut reaches) = (0, 0, 0);
        for (log, mut stream) in logs.iter().zip(streams) {
            let mut oracle = Oracle::new(stream.edges());
            for reply in &log.replies {
                match (stream.next_cmd(), *reply) {
                    (Cmd::Reach(u, v), Reply::Reach { yes, stale: s }) => {
                        reaches += 1;
                        if s {
                            stale += 1;
                        } else {
                            wrong += u64::from(yes != oracle.reaches(u, v));
                        }
                    }
                    (Cmd::Insert(u, v), Reply::Inserted) => oracle.insert(u, v),
                    (Cmd::Delete(u, v), Reply::Deleted(removed)) => {
                        wrong += u64::from(removed != oracle.remove(u, v));
                    }
                    (cmd, _) => {
                        wrong += 1;
                        match cmd {
                            Cmd::Insert(u, v) => oracle.insert(u, v),
                            Cmd::Delete(u, v) => {
                                oracle.remove(u, v);
                            }
                            Cmd::Reach(..) => {}
                        }
                    }
                }
            }
            wrong += u64::from(log.error.is_some());
        }
        (wrong, stale, reaches)
    }
}

fn fresh_wal(wal: &Path) -> Result<(), String> {
    for p in [wal.to_path_buf(), Durability::snapshot_path(wal)] {
        match std::fs::remove_file(&p) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", p.display()))
            }
            _ => {}
        }
    }
    Ok(())
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fingerprint(&self, seed: u64) -> Vec<(&'static str, Json)> {
        let (graph, streams) = self.inputs(seed);
        let mut h = crate::inputs::Fnv::default();
        let mut edges = 0;
        for u in 0..graph.n() {
            for &v in graph.successors(u) {
                h.u32(u as u32);
                h.u32(v as u32);
                edges += 1;
            }
        }
        let mut f = vec![
            ("vertices", Json::from(graph.n() as u64)),
            ("edges", Json::from(edges)),
            ("fnv1a", h.hex()),
            ("stream_commands", Json::from(FINGERPRINT_COMMANDS as u64)),
        ];
        let keys = [
            "stream0_fnv1a",
            "stream1_fnv1a",
            "stream2_fnv1a",
            "stream3_fnv1a",
        ];
        for (s, key) in streams.iter().zip(keys) {
            f.push((
                key,
                crate::inputs::hash_stream(s, FINGERPRINT_COMMANDS).hex(),
            ));
        }
        f
    }

    fn measure(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        let wal = self.wal("run");
        // Every segment serves a fresh service and replays each client's
        // stream from its start.
        let mut segments = Vec::new();
        let setup_s = harness::segmented(
            seconds,
            || {
                let (graph, streams) = self.inputs(seed);
                Ok((self.start(graph, &wal, None)?, streams))
            },
            |(live, streams), secs| {
                segments.push(self.drive(live, streams, Until::Seconds(secs), None)?.0);
                Ok(())
            },
        )?;
        let rss = harness::peak_rss_mb();
        fresh_wal(&wal)?;

        let whole_seconds = (seconds / harness::SETUP_REPS as f64) as usize;
        let (mut rtt, mut windows, mut wrong, mut errors) = (Hist::default(), Vec::new(), 0, 0);
        let mut busy_ns = 0;
        for logs in &segments {
            wrong += self.verify(seed, logs).0;
            for l in logs {
                errors += u64::from(l.error.is_some());
                rtt.merge(&l.rtt);
                busy_ns += l.op_ns;
            }
            for w in 0..whole_seconds {
                windows.push(logs.iter().filter_map(|l| l.per_second.get(w)).sum::<u64>() as f64);
            }
        }
        let commands = rtt.count();
        if commands == 0 {
            return Err("no command completed".into());
        }
        // Commands completed per whole second; runs too short for a whole
        // second per segment fall back to commands over client busy time.
        let rate = if windows.is_empty() {
            let busy_s = busy_ns as f64 / 1e9 / self.conns as f64;
            Measured::new(commands as f64 / busy_s, 1)
        } else {
            Measured::new(stats::median(&windows), windows.len() as u64)
        };
        let mut out = Outcome {
            attempted: commands + errors,
            failed: wrong,
            counts: vec![("commands", commands)],
            ..Outcome::default()
        };
        let p50 = Measured::new(rtt.quantile(0.5) / 1e3, commands);
        harness::end_to_end(&mut out, &setup_s, p50, rate, rss);
        Ok(out)
    }

    fn trace(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        let per_conn = ((self.trace_rate * seconds).ceil() as usize).max(1);
        let until = Until::Commands(per_conn);
        let wal = self.wal("run");

        // Untraced reference: the library's server.
        let (graph, streams) = self.inputs(seed);
        let live = self.start(graph, &wal, None)?;
        let (reference, _) = self.drive(live, streams, until, None)?;
        let untraced_ns: u64 = reference.iter().map(|l| l.op_ns).sum();

        // Traced: same commands, decomposed server.
        let origin = Instant::now();
        let mut clients: Vec<Tracer> = (0..self.conns).map(|_| Tracer::new(origin)).collect();
        let (graph, streams) = self.inputs(seed);
        let live = self.start(graph, &wal, Some(origin))?;
        let (logs, server) = self.drive(live, streams, until, Some(&mut clients))?;
        fresh_wal(&wal)?;
        let (mut failed, stale, reaches) = self.verify(seed, &logs);
        for (a, b) in reference.iter().zip(&logs) {
            failed += a.replies.len().abs_diff(b.replies.len()) as u64;
            failed += a
                .replies
                .iter()
                .zip(&b.replies)
                .filter(|(x, y)| x != y && !x.is_stale() && !y.is_stale())
                .count() as u64;
        }
        let mut t = Tracer::new(origin);
        for c in clients {
            t.adopt(c);
        }
        for s in server {
            t.adopt(s);
        }

        // Beside the replay: the closure updates and WAL appends those
        // commands cause, called directly in arrival order.
        let scratch = self.wal("scratch");
        let (graph, mut streams) = self.inputs(seed);
        let mut inc = IncrementalClosure::new(graph);
        let mut log = if self.durable {
            fresh_wal(&scratch)?;
            Some(
                Durability::open(&scratch, None, DiGraph::new(self.n))
                    .map_err(|e| format!("wal: {e}"))?
                    .0,
            )
        } else {
            None
        };
        t.begin(BESIDE, 0);
        for k in 0..per_conn as u64 {
            for stream in &mut streams {
                let mut append = |t: &mut Tracer, op, u, v| -> Result<(), String> {
                    if let Some(d) = &mut log {
                        t.time("service.wal_append", k, || d.log(op, u, v))
                            .map_err(|e| format!("wal: {e}"))?;
                    }
                    Ok(())
                };
                match stream.next_cmd() {
                    Cmd::Reach(..) => {
                        if inc.is_dirty() {
                            t.time("closure.refresh", k, || inc.refresh());
                        }
                    }
                    Cmd::Insert(u, v) => {
                        let (u, v) = (u as usize, v as usize);
                        if !inc.graph().has_edge(u, v) {
                            append(&mut t, WalOp::Insert, u, v)?;
                        }
                        t.time("closure.insert", k, || inc.insert(u, v));
                    }
                    Cmd::Delete(u, v) => {
                        let (u, v) = (u as usize, v as usize);
                        if inc.graph().has_edge(u, v) {
                            append(&mut t, WalOp::Delete, u, v)?;
                        }
                        t.time("closure.delete", k, || inc.delete(u, v));
                    }
                }
            }
        }
        t.end();
        drop(log);
        fresh_wal(&scratch)?;

        let sum = Summary::of(t.spans());
        let commands: u64 = logs.iter().map(|l| l.replies.len() as u64).sum();
        let mut out = Outcome {
            attempted: commands,
            failed,
            counts: vec![("commands", commands)],
            ..Outcome::default()
        };
        let mut rtt = Hist::default();
        for l in &reference {
            rtt.merge(&l.rtt);
        }
        out.set(
            "service.p99_us",
            rtt.supported_tail(0.99) / 1e3,
            rtt.count(),
        );
        harness::layer_times(
            &mut out,
            &sum,
            "us",
            &[
                "service.parse",
                "service.execute",
                TRANSPORT,
                "service.wal_append",
                "closure.insert",
                "closure.delete",
            ],
        );
        harness::layer_times(&mut out, &sum, "ms", &["closure.refresh"]);
        out.set("closure.recomputes", inc.stats().recomputes as f64, 1);
        out.set(
            "service.stale_frac",
            stale as f64 / reaches.max(1) as f64,
            reaches,
        );
        harness::trace_metrics(&mut out, &sum, untraced_ns);
        out.tracer = Some(t);
        Ok(out)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn tiny(read: bool) -> Serve {
        let dir = std::env::temp_dir().join(format!("systolic-benchmark-{}", std::process::id()));
        let mut w = if read {
            Serve::read_full(&dir)
        } else {
            Serve::write_full(&dir)
        };
        w.n = 64;
        w.edges_per_range = if read { 128 } else { 48 };
        w.trace_rate = 300.0;
        w
    }

    #[test]
    fn replies_parse() {
        assert_eq!(
            Reply::parse("REACH 1 2 true\n"),
            Reply::Reach {
                yes: true,
                stale: false
            }
        );
        assert_eq!(
            Reply::parse("REACH 1 2 false stale=true"),
            Reply::Reach {
                yes: false,
                stale: true
            }
        );
        assert_eq!(Reply::parse("OK INSERT 1 2 added=3"), Reply::Inserted);
        assert_eq!(
            Reply::parse("OK DELETE 1 2 removed=false"),
            Reply::Deleted(false)
        );
        assert_eq!(Reply::parse("ERR BUSY admission queue"), Reply::Other);
    }

    #[test]
    fn disjoint_halves_oracle_judges_fresh_replies_and_counts_stale_ones() {
        let w = tiny(false);
        let (_, streams) = w.inputs(7);
        // Answer every command correctly from each half's own history,
        // except that every tenth REACH is flipped and flagged stale.
        let mut logs = Vec::new();
        for stream in streams {
            let mut s = stream.clone();
            let mut oracle = Oracle::new(stream.edges());
            let mut log = ClientLog::default();
            for k in 0..3000 {
                let reply = match s.next_cmd() {
                    Cmd::Reach(u, v) if k % 10 == 0 => Reply::Reach {
                        yes: !oracle.reaches(u, v),
                        stale: true,
                    },
                    Cmd::Reach(u, v) => Reply::Reach {
                        yes: oracle.reaches(u, v),
                        stale: false,
                    },
                    Cmd::Insert(u, v) => {
                        oracle.insert(u, v);
                        Reply::Inserted
                    }
                    Cmd::Delete(u, v) => Reply::Deleted(oracle.remove(u, v)),
                };
                log.replies.push(reply);
            }
            logs.push(log);
        }
        let (wrong, stale, reaches) = w.verify(7, &logs);
        assert_eq!(wrong, 0, "stale replies are not judged");
        assert!(stale > 0 && reaches > 10 * stale / 2);
        // One fresh wrong answer is caught.
        let i = logs[1]
            .replies
            .iter()
            .position(|r| matches!(r, Reply::Reach { stale: false, .. }))
            .unwrap();
        if let Reply::Reach { yes, .. } = &mut logs[1].replies[i] {
            *yes = !*yes;
        }
        assert_eq!(w.verify(7, &logs).0, 1);
    }
}
