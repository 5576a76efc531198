//! Transport loops: concurrent TCP sessions and stdio, sharing one closure.
//!
//! All transports run the same session loop over a [`SharedService`]: read
//! a bounded line, parse, execute, send the response line in one write,
//! flush.
//! Protocol errors answer `ERR ...` and keep the session alive; `QUIT`
//! (or EOF, or an idle timeout) ends it.
//!
//! ## Lock discipline
//!
//! The service sits behind one `RwLock`. `REACH` on a clean closure takes
//! the read lock — arbitrarily many sessions answer concurrently.
//! Mutations (and the recomputes they force) serialize through the write
//! lock, appending to the WAL before applying. A `REACH` that finds the
//! closure dirty tries to upgrade (`try_write`) and refresh; if another
//! session already holds the writer, it answers from the last *published*
//! clean closure with `stale=true` instead of blocking — reads never
//! queue behind a recompute.
//!
//! ## Fault isolation
//!
//! A single session's I/O error (disconnect mid-line, reset, write to a
//! closed pipe) is counted as a failed session and logged to stderr; the
//! daemon keeps accepting. Only binding/listener setup errors are fatal.

use crate::protocol::{parse_command, Command, Response};
use crate::service::ReachService;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Duration;
use systolic_closure::SparseClosure;

/// Per-session overload/abuse bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionLimits {
    /// Longest accepted request line in bytes; longer lines are shed
    /// (consumed without buffering) and answered `ERR`.
    pub max_line: usize,
    /// Idle/read timeout per session (`None` = wait forever). On TCP this
    /// becomes `set_read_timeout`; a session that times out ends
    /// gracefully and is counted in [`ServeSummary::timeouts`].
    pub read_timeout: Option<Duration>,
}

impl Default for SessionLimits {
    fn default() -> Self {
        Self {
            max_line: 64 * 1024,
            read_timeout: None,
        }
    }
}

/// What one session (or a whole TCP daemon run) processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Lines that parsed into a command and were executed.
    pub commands: u64,
    /// Lines answered with `ERR` (parse, overlength, or backend).
    pub errors: u64,
    /// True when a session ended with `QUIT` (false on EOF/timeout).
    pub quit: bool,
    /// Sessions completed (TCP daemon totals; 0 for a single stdio loop).
    pub sessions: u64,
    /// Sessions that died on a transport I/O error (daemon survived).
    pub failed_sessions: u64,
    /// Sessions ended by the idle/read timeout.
    pub timeouts: u64,
    /// Lines shed for exceeding [`SessionLimits::max_line`].
    pub oversize: u64,
}

impl ServeSummary {
    fn absorb(&mut self, s: &ServeSummary) {
        self.commands += s.commands;
        self.errors += s.errors;
        self.quit |= s.quit;
        self.sessions += s.sessions;
        self.failed_sessions += s.failed_sessions;
        self.timeouts += s.timeouts;
        self.oversize += s.oversize;
    }
}

/// One [`ReachService`] shared by many concurrent sessions.
///
/// See the module docs for the lock discipline. The struct also owns the
/// *published snapshot*: the last clean closure, shared with the service
/// through its `Arc` (never copied) and swapped in whenever the guarded
/// service is observed clean, which degraded reads answer from without
/// touching the main lock.
pub struct SharedService {
    svc: RwLock<ReachService>,
    limits: SessionLimits,
    snapshot: Mutex<Arc<SparseClosure>>,
    stale_reads: AtomicU64,
    protocol_errors: AtomicU64,
    active: AtomicUsize,
}

impl SharedService {
    /// Wraps a service for concurrent use, publishing its current closure.
    pub fn new(svc: ReachService, limits: SessionLimits) -> Self {
        let snapshot = Arc::clone(svc.stale_closure());
        Self {
            svc: RwLock::new(svc),
            limits,
            snapshot: Mutex::new(snapshot),
            stale_reads: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        }
    }

    /// The session bounds in force.
    pub fn limits(&self) -> SessionLimits {
        self.limits
    }

    /// Reads answered from a stale published closure under contention.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads.load(Relaxed)
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Relaxed)
    }

    /// Direct access to the guarded service (CLI epilogue, tests).
    /// A poisoned lock is recovered, not propagated: a session that
    /// panicked must not wedge the daemon.
    pub fn read(&self) -> RwLockReadGuard<'_, ReachService> {
        self.svc.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Exclusive access to the guarded service (poison-recovering).
    pub fn write(&self) -> RwLockWriteGuard<'_, ReachService> {
        self.svc.write().unwrap_or_else(|p| p.into_inner())
    }

    fn try_read(&self) -> Option<RwLockReadGuard<'_, ReachService>> {
        match self.svc.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    fn try_write(&self) -> Option<RwLockWriteGuard<'_, ReachService>> {
        match self.svc.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Counts a protocol-level error (lock-free: must not block behind a
    /// recompute just to bump a counter).
    pub fn note_error(&self) {
        self.protocol_errors.fetch_add(1, Relaxed);
    }

    fn publish(&self, svc: &ReachService) {
        if !svc.is_dirty() {
            let fresh = Arc::clone(svc.stale_closure());
            *self.snapshot.lock().unwrap_or_else(|p| p.into_inner()) = fresh;
        }
    }

    fn snapshot(&self) -> Arc<SparseClosure> {
        Arc::clone(&self.snapshot.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Executes one command under the lock discipline described in the
    /// module docs. Never blocks a `REACH` behind an in-flight recompute.
    pub fn execute(&self, cmd: Command) -> Response {
        match cmd {
            Command::Reach(u, v) => {
                if let Some(resp) = self.fast_reach(u, v) {
                    return resp;
                }
                match self.try_write() {
                    Some(mut svc) => {
                        let resp = svc.execute(cmd);
                        self.publish(&svc);
                        resp
                    }
                    None => self.degraded_reach(u, v),
                }
            }
            Command::Insert(..) | Command::Delete(..) | Command::Load(..) => {
                let mut svc = self.write();
                let resp = svc.execute(cmd);
                self.publish(&svc);
                resp
            }
            Command::Stats => {
                let mut svc = self.write();
                let resp = svc.execute(cmd);
                self.publish(&svc);
                match resp {
                    Response::Stats(line) => Response::Stats(format!(
                        "{line} active_sessions={} stale_reads={} protocol_errors={}",
                        self.active.load(Relaxed),
                        self.stale_reads.load(Relaxed),
                        self.protocol_errors.load(Relaxed),
                    )),
                    other => other,
                }
            }
            Command::Quit => Response::Bye,
        }
    }

    /// Shared-read fast path: clean closure, no contention, no staleness.
    fn fast_reach(&self, u: usize, v: usize) -> Option<Response> {
        let svc = self.try_read()?;
        let reachable = svc.reach_clean(u, v)?;
        Some(Response::Reach {
            u,
            v,
            reachable,
            stale: false,
        })
    }

    /// A writer holds the lock (mutation or recompute in flight): answer
    /// from the published snapshot, flagged stale, instead of blocking.
    fn degraded_reach(&self, u: usize, v: usize) -> Response {
        let snap = self.snapshot();
        if u >= snap.n() || v >= snap.n() {
            self.note_error();
            return Response::Err(format!("vertex out of range (n={}): {u} {v}", snap.n()));
        }
        self.stale_reads.fetch_add(1, Relaxed);
        Response::Reach {
            u,
            v,
            reachable: snap.reachable(u, v),
            stale: true,
        }
    }
}

impl std::fmt::Debug for SharedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedService(active: {}, stale_reads: {}, limits: {:?})",
            self.active.load(Relaxed),
            self.stale_reads.load(Relaxed),
            self.limits,
        )
    }
}

/// Outcome of one bounded line read.
enum LineEvent {
    /// A complete line (without its newline) is in the buffer.
    Line,
    /// The line exceeded the bound; it was consumed but never buffered.
    TooLong { discarded: u64 },
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line into `buf`, never holding more than
/// `max` bytes: an overlong line is drained from the transport and
/// reported [`LineEvent::TooLong`] without being buffered — a
/// multi-megabyte request costs the server no memory.
fn read_bounded_line<R: BufRead>(
    r: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<LineEvent> {
    buf.clear();
    loop {
        let (copy, consume, done) = {
            let chunk = match r.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(if buf.is_empty() {
                    LineEvent::Eof
                } else {
                    LineEvent::Line // final line without trailing newline
                });
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos, pos + 1, true),
                None => (chunk.len(), chunk.len(), false),
            }
        };
        if buf.len() + copy > max {
            // Shed without buffering: drain to the newline (or EOF).
            let mut discarded = (buf.len() + consume) as u64;
            buf.clear();
            if done {
                r.consume(consume);
                return Ok(LineEvent::TooLong {
                    discarded: discarded - 1,
                });
            }
            r.consume(consume);
            loop {
                let (n, end) = {
                    let chunk = match r.fill_buf() {
                        Ok(c) => c,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    };
                    if chunk.is_empty() {
                        return Ok(LineEvent::TooLong { discarded });
                    }
                    match chunk.iter().position(|&b| b == b'\n') {
                        Some(pos) => (pos + 1, true),
                        None => (chunk.len(), false),
                    }
                };
                r.consume(n);
                discarded += n as u64;
                if end {
                    return Ok(LineEvent::TooLong {
                        discarded: discarded - 1,
                    });
                }
            }
        }
        let chunk = r.fill_buf()?; // same data: BufRead contract, no consume yet
        buf.extend_from_slice(&chunk[..copy]);
        r.consume(consume);
        if done {
            return Ok(LineEvent::Line);
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Runs one session over arbitrary line transports until `QUIT`, EOF, or
/// an idle timeout. Input is bounded per [`SessionLimits`]: overlong
/// lines and invalid UTF-8 answer `ERR` in-band and the session lives on.
///
/// # Errors
/// Propagates transport I/O errors (a closed pipe mid-write, a reset
/// mid-read); protocol and backend errors never end the session.
pub fn serve<R: BufRead, W: Write>(
    shared: &SharedService,
    mut input: R,
    mut out: W,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let max_line = shared.limits().max_line;
    let (mut buf, mut wire) = (Vec::new(), Vec::new());
    // Render each reply whole, then write it once: `writeln!` straight into
    // the transport issues one write per formatted piece (up to eight), and
    // under TCP_NODELAY each of those leaves as its own segment.
    let mut send = |resp: &Response| -> io::Result<()> {
        wire.clear();
        writeln!(wire, "{resp}")?;
        out.write_all(&wire)?;
        out.flush()
    };
    loop {
        let parsed = match read_bounded_line(&mut input, max_line, &mut buf) {
            Ok(LineEvent::Eof) => break,
            Ok(LineEvent::TooLong { discarded }) => {
                summary.oversize += 1;
                Err(format!(
                    "line too long ({discarded} bytes > {max_line} max), discarded"
                ))
            }
            Ok(LineEvent::Line) => match std::str::from_utf8(&buf) {
                Ok(line) => parse_command(line),
                Err(_) => Err("line is not valid UTF-8".into()),
            },
            Err(e) if is_timeout(&e) => {
                summary.timeouts += 1;
                break;
            }
            Err(e) => return Err(e),
        };
        let cmd = match parsed {
            Ok(Some(c)) => c,
            Ok(None) => continue,
            Err(msg) => {
                shared.note_error();
                summary.errors += 1;
                send(&Response::Err(msg))?;
                continue;
            }
        };
        let resp = shared.execute(cmd);
        summary.commands += 1;
        if matches!(resp, Response::Err(_)) {
            summary.errors += 1;
        }
        send(&resp)?;
        if matches!(resp, Response::Bye) {
            summary.quit = true;
            break;
        }
    }
    Ok(summary)
}

/// Serves TCP clients concurrently on an already-bound listener: each
/// connection runs a [`serve`] session on its own thread, all sharing the
/// closure through `shared`'s lock discipline. At most `concurrency`
/// sessions run at once (further accepts wait for a slot); after
/// `max_sessions` total connections (when given; `Some(0)` accepts none)
/// the daemon drains and returns the merged summary — `None` loops
/// forever, the CLI's daemon mode.
///
/// A failed accept or a session I/O error is logged to stderr and counted
/// ([`ServeSummary::failed_sessions`]); it never terminates the daemon.
pub fn serve_tcp(
    shared: &Arc<SharedService>,
    listener: &TcpListener,
    concurrency: usize,
    max_sessions: Option<usize>,
) -> io::Result<ServeSummary> {
    let concurrency = concurrency.max(1);
    let totals = Arc::new(Mutex::new(ServeSummary::default()));
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut accepted = 0usize;
    while max_sessions.is_none_or(|m| accepted < m) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                let mut t = totals.lock().unwrap_or_else(|p| p.into_inner());
                t.failed_sessions += 1;
                continue;
            }
        };
        {
            let (count, cv) = &*gate;
            let mut active = count.lock().unwrap_or_else(|p| p.into_inner());
            while *active >= concurrency {
                active = cv.wait(active).unwrap_or_else(|p| p.into_inner());
            }
            *active += 1;
        }
        accepted += 1;
        let session = accepted;
        let shared = Arc::clone(shared);
        let totals = Arc::clone(&totals);
        let gate = Arc::clone(&gate);
        let timeout = shared.limits().read_timeout;
        handles.push(std::thread::spawn(move || {
            shared.active.fetch_add(1, Relaxed);
            let outcome = (|| -> io::Result<ServeSummary> {
                stream.set_nodelay(true)?; // line protocol: answer now, not post-Nagle
                stream.set_read_timeout(timeout)?;
                let reader = BufReader::new(stream.try_clone()?);
                serve(&shared, reader, &stream)
            })();
            {
                let mut t = totals.lock().unwrap_or_else(|p| p.into_inner());
                match outcome {
                    Ok(s) => {
                        t.absorb(&s);
                        t.sessions += 1;
                    }
                    Err(e) => {
                        eprintln!("serve: session {session} failed: {e}");
                        t.sessions += 1;
                        t.failed_sessions += 1;
                    }
                }
            }
            shared.active.fetch_sub(1, Relaxed);
            let (count, cv) = &*gate;
            *count.lock().unwrap_or_else(|p| p.into_inner()) -= 1;
            cv.notify_one();
        }));
    }
    for h in handles {
        if h.join().is_err() {
            // A panicking session must not take the daemon down with it.
            let mut t = totals.lock().unwrap_or_else(|p| p.into_inner());
            t.failed_sessions += 1;
        }
    }
    let t = totals.lock().unwrap_or_else(|p| p.into_inner());
    Ok(*t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_closure::DiGraph;

    fn shared(n: usize) -> SharedService {
        SharedService::new(ReachService::new(DiGraph::new(n)), SessionLimits::default())
    }

    fn run(input: &str) -> (String, ServeSummary) {
        let svc = shared(4);
        let mut out = Vec::new();
        let summary = serve(&svc, input.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn full_session_transcript() {
        let (out, summary) = run(
            "# build a path\nINSERT 0 1\nINSERT 1 2\nREACH 0 2\nDELETE 0 1\nREACH 0 2\nSTATS\nQUIT\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "OK INSERT 0 1 added=1");
        assert_eq!(lines[1], "OK INSERT 1 2 added=2");
        assert_eq!(lines[2], "REACH 0 2 true");
        assert_eq!(lines[3], "OK DELETE 0 1 removed=true");
        assert_eq!(lines[4], "REACH 0 2 false");
        assert!(lines[5].starts_with("STATS "), "{}", lines[5]);
        assert!(lines[5].contains("active_sessions="), "{}", lines[5]);
        assert!(lines[5].contains("wal_bytes="), "{}", lines[5]);
        assert_eq!(lines[6], "BYE");
        assert_eq!(summary.commands, 7);
        assert_eq!(summary.errors, 0);
        assert!(summary.quit);
    }

    #[test]
    fn errors_answer_in_band_and_session_survives() {
        let (out, summary) = run("REACH 0\nFROB\nREACH 0 0\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ERR "), "{}", lines[0]);
        assert!(lines[1].starts_with("ERR "), "{}", lines[1]);
        assert_eq!(lines[2], "REACH 0 0 true");
        assert_eq!(summary.errors, 2);
        assert!(!summary.quit, "EOF, not QUIT");
    }

    #[test]
    fn oversized_lines_are_shed_without_buffering() {
        let svc = SharedService::new(
            ReachService::new(DiGraph::new(4)),
            SessionLimits {
                max_line: 32,
                read_timeout: None,
            },
        );
        let monster = "REACH ".to_string() + &"9".repeat(1 << 20) + "\nREACH 0 0\n";
        let mut out = Vec::new();
        let summary = serve(&svc, monster.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("ERR line too long"), "{}", lines[0]);
        assert_eq!(lines[1], "REACH 0 0 true", "session survived the monster");
        assert_eq!(summary.oversize, 1);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn invalid_utf8_answers_err_in_band() {
        let svc = shared(4);
        let input: Vec<u8> = [b"REACH 0 0\n".as_slice(), &[0xFF, 0xFE, b'\n'], b"QUIT\n"].concat();
        let mut out = Vec::new();
        let summary = serve(&svc, input.as_slice(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "REACH 0 0 true");
        assert!(lines[1].starts_with("ERR "), "{}", lines[1]);
        assert_eq!(lines[2], "BYE");
        assert!(summary.quit);
    }

    #[test]
    fn degraded_reach_answers_stale_while_writer_holds_the_lock() {
        let svc = shared(4);
        svc.execute(parse_command("INSERT 0 1").unwrap().unwrap());
        svc.execute(parse_command("INSERT 1 2").unwrap().unwrap());
        // Dirty the closure, then simulate an in-flight recompute by
        // holding the write lock from this thread.
        svc.execute(parse_command("DELETE 0 1").unwrap().unwrap());
        let guard = svc.write();
        let resp = svc.execute(parse_command("REACH 0 2").unwrap().unwrap());
        assert_eq!(resp.to_string(), "REACH 0 2 true stale=true");
        assert_eq!(svc.stale_reads(), 1);
        drop(guard);
        // Writer released: the read refreshes and answers exactly.
        let resp = svc.execute(parse_command("REACH 0 2").unwrap().unwrap());
        assert_eq!(resp.to_string(), "REACH 0 2 false");
    }

    /// Keeps every `write` call a session makes, as its own buffer.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_leaves_in_one_write() {
        // The parse error echoes this token, so its reply outgrows 8 KiB.
        let token = "x".repeat(9000);
        let max_line = SessionLimits::default().max_line;
        let overlong = format!("REACH {}\n", "9".repeat(max_line));
        let script: Vec<u8> = [
            b"INSERT 0 1\nINSERT 1 2\nREACH 0 2\nREACH 2 0\nSTATS\n".as_slice(),
            format!("REACH {token} 0\n").as_bytes(),
            overlong.as_bytes(),
            &[0xFF, 0xFE, b'\n'],
            b"DELETE 0 1\nQUIT\n",
        ]
        .concat();
        let svc = shared(4);
        let mut log = WriteLog::default();
        serve(&svc, script.as_slice(), &mut log).unwrap();
        // The DELETE left the closure dirty; with a writer in flight the
        // next session's REACH answers from the published snapshot.
        let guard = svc.write();
        serve(&svc, b"REACH 0 2\n".as_slice(), &mut log).unwrap();
        drop(guard);

        let replies: Vec<String> = [
            "OK INSERT 0 1 added=1".to_string(),
            "OK INSERT 1 2 added=2".into(),
            "REACH 0 2 true".into(),
            "REACH 2 0 false".into(),
            "STATS n=4 edges=2 pairs=7 queries=2 inserts=2 incremental=2 pairs_added=3 \
             deletes=0 recomputes=0 errors=0 wal_bytes=0 snapshots=0 queue_depth=0 \
             mode=software active_sessions=0 stale_reads=0 protocol_errors=0"
                .into(),
            format!("ERR bad vertex '{token}'"),
            format!(
                "ERR line too long ({} bytes > {max_line} max), discarded",
                overlong.len() - 1
            ),
            "ERR line is not valid UTF-8".into(),
            "OK DELETE 0 1 removed=true".into(),
            "BYE".into(),
            "REACH 0 2 true stale=true".into(),
        ]
        .map(|r| r + "\n")
        .into();
        assert!(
            log.0.concat() == replies.concat().as_bytes(),
            "the bytes on the wire changed"
        );
        // A reply ends with the write that ends in its newline.
        let mut per_reply = Vec::new();
        let mut pending = 0;
        for w in &log.0 {
            pending += 1;
            if w.ends_with(b"\n") {
                per_reply.push(pending);
                pending = 0;
            }
        }
        assert_eq!(per_reply, vec![1; replies.len()], "writes per reply");
        for (i, (w, want)) in log.0.iter().zip(&replies).enumerate() {
            assert!(w == want.as_bytes(), "write {i} is not exactly reply {i}");
        }
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            let mut ask = |line: &str| -> String {
                writeln!(w, "{line}").unwrap();
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                resp.trim_end().to_string()
            };
            let a = ask("INSERT 0 1");
            let b = ask("REACH 0 1");
            let c = ask("QUIT");
            (a, b, c)
        });
        let svc = Arc::new(shared(2));
        let summary = serve_tcp(&svc, &listener, 1, Some(1)).unwrap();
        let (a, b, c) = client.join().unwrap();
        assert_eq!(a, "OK INSERT 0 1 added=1");
        assert_eq!(b, "REACH 0 1 true");
        assert_eq!(c, "BYE");
        assert!(summary.quit);
        assert_eq!(summary.commands, 3);
        assert_eq!(summary.sessions, 1);
        assert_eq!(summary.failed_sessions, 0);
    }

    #[test]
    fn a_zero_session_cap_accepts_no_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let summary = serve_tcp(&Arc::new(shared(2)), &listener, 1, Some(0)).unwrap();
        assert_eq!(summary, ServeSummary::default());
    }

    #[test]
    fn client_disconnect_mid_session_does_not_kill_the_daemon() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let clients = std::thread::spawn(move || {
            // Client 1: flood commands, never read a byte of the
            // responses, end on half a line, and slam the connection
            // shut — the server's answers land on a dead (usually RST)
            // socket mid-session.
            {
                let mut s = TcpStream::connect(addr).unwrap();
                for _ in 0..64 {
                    s.write_all(b"REACH 0 0\n").unwrap();
                }
                s.write_all(b"REACH 0").unwrap();
                drop(s);
            }
            // Client 2: a normal session afterwards must still work.
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            writeln!(w, "INSERT 0 1").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            writeln!(w, "QUIT").unwrap();
            let mut bye = String::new();
            reader.read_line(&mut bye).unwrap();
            (resp.trim_end().to_string(), bye.trim_end().to_string())
        });
        let svc = Arc::new(shared(2));
        let summary = serve_tcp(&svc, &listener, 2, Some(2)).unwrap();
        let (resp, bye) = clients.join().unwrap();
        assert_eq!(resp, "OK INSERT 0 1 added=1");
        assert_eq!(bye, "BYE");
        assert_eq!(summary.sessions, 2);
        assert!(
            summary.failed_sessions <= 1,
            "an abrupt reset may or may not surface as an error: {summary:?}"
        );
        assert!(summary.quit, "the healthy session completed");
    }
}
