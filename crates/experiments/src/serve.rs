//! `repro serve` — a crash-survivable simulation service.
//!
//! A long-lived daemon that keeps hot [`RoutingAtlas`] instances
//! resident (bounded by `--ctx-cache-mb`) and accepts figure/scenario
//! jobs over a tiny hand-rolled HTTP/1.1 + JSON API:
//!
//! * `POST /jobs` `{"cmd": "fig9", "config": "ases = 200\n..."}` —
//!   admission-controlled submission (bounded queue → typed `429
//!   Overloaded` with a retry-after hint; per-client in-flight caps).
//! * `GET /jobs/:id` — job status; `GET /jobs/:id/result` — the
//!   canonical CSV bytes, byte-identical to a one-shot CLI run.
//! * `GET /healthz`, `GET /stats` — liveness and counters.
//!
//! Every state transition is journaled write-ahead through the
//! [`sbgp_core::serve::JobBoard`], so `kill -9` + restart resumes the
//! queue with exactly-once result materialization; SIGTERM drains
//! gracefully (stop admitting, finish the in-flight job, flush, exit
//! 0). A job that kills its attempt twice is parked as poisoned with a
//! replayable `--config` artifact while other jobs keep flowing.

use crate::cli::Options;
use crate::commands::{Experiment, Run};
use crate::error::ExperimentError;
use crate::world::WorldKey;
use sbgp_core::panic_message;
use sbgp_core::serve::{Admission, JobBoard, JobSpec, Phase};
use sbgp_core::storage::Store;
use sbgp_routing::RoutingAtlas;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The journal key (relative to the store base) the daemon queues under.
pub(crate) const JOBLOG_KEY: &str = "serve/jobs.joblog";
/// The daemon's single-instance lock key.
const LOCK_KEY: &str = "serve/daemon.lock";
/// Listen address when `--listen` is not given.
const DEFAULT_LISTEN: &str = "127.0.0.1:7411";

// ---------------------------------------------------------------------
// Atlas cache: hot frozen-context atlases shared across jobs
// ---------------------------------------------------------------------

/// Everything that determines a built atlas's contents: the world plus
/// the graph's own dimensions (fig12 builds base *and* augmented
/// atlases from one option set — node/edge counts tell them apart).
type AtlasKey = (WorldKey, usize, usize);

struct AtlasCache {
    budget_bytes: usize,
    /// LRU order: the back is the most recently used entry.
    entries: Vec<(AtlasKey, Arc<RoutingAtlas>)>,
    hits: u64,
    misses: u64,
}

impl AtlasCache {
    fn total_bytes(&self) -> usize {
        self.entries.iter().map(|(_, a)| a.stats().bytes).sum()
    }
}

/// Installed once by [`serve_cmd`]; one-shot CLI runs never install it,
/// so [`cached_atlas`] is a plain pass-through for them.
static ATLAS_CACHE: OnceLock<Mutex<AtlasCache>> = OnceLock::new();

fn atlas_key(g: &sbgp_asgraph::AsGraph, opts: &Options) -> AtlasKey {
    (WorldKey::of(opts), g.len(), g.num_edges())
}

/// Serve a routing atlas from the daemon's hot cache, building (and
/// caching) it on a miss. Outside the daemon the cache is not
/// installed and this just calls `build` — the one-shot CLI path is
/// unchanged.
pub(crate) fn cached_atlas(
    g: &sbgp_asgraph::AsGraph,
    opts: &Options,
    build: impl FnOnce() -> Arc<RoutingAtlas>,
) -> Arc<RoutingAtlas> {
    let Some(cache) = ATLAS_CACHE.get() else {
        return build();
    };
    let key = atlas_key(g, opts);
    {
        let mut c = cache.lock().expect("atlas cache poisoned");
        if let Some(pos) = c.entries.iter().position(|(k, _)| *k == key) {
            let entry = c.entries.remove(pos);
            let atlas = Arc::clone(&entry.1);
            c.entries.push(entry);
            c.hits += 1;
            return atlas;
        }
        c.misses += 1;
    }
    // Build outside the lock: atlas construction is the expensive part
    // and must not block the HTTP threads reading cache stats.
    let atlas = build();
    let mut c = cache.lock().expect("atlas cache poisoned");
    if c.budget_bytes > 0 {
        c.entries.push((key, Arc::clone(&atlas)));
        while c.entries.len() > 1 && c.total_bytes() > c.budget_bytes {
            c.entries.remove(0);
        }
    }
    atlas
}

/// `(hits, misses, entries, resident bytes)` — zeros when the cache is
/// not installed (one-shot runs).
fn atlas_cache_stats() -> (u64, u64, usize, usize) {
    match ATLAS_CACHE.get() {
        Some(cache) => {
            let c = cache.lock().expect("atlas cache poisoned");
            (c.hits, c.misses, c.entries.len(), c.total_bytes())
        }
        None => (0, 0, 0, 0),
    }
}

// ---------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------

/// The entry point and result CSV of a command the daemon runs.
fn served(cmd: &str) -> Option<(Experiment, &'static str)> {
    let c = crate::commands::find(cmd)?;
    match (&c.run, c.served) {
        (Run::Opts(run), Some(csv)) => Some((*run, csv)),
        _ => None,
    }
}

#[derive(Default)]
struct ServeStats {
    jobs_served: u64,
    failures: u64,
    total_ms: u64,
    max_ms: u64,
}

struct Daemon {
    board: Mutex<JobBoard>,
    /// Notified after every board change a waiter cares about
    /// ([`Daemon::update`], an accepted submit): the idle executor and
    /// parked status requests wait on it.
    changed: Condvar,
    /// Status requests currently parked on `changed`.
    parked_status: AtomicUsize,
    /// Times the idle executor woke up from `changed` (`/stats`).
    executor_wakeups: AtomicU64,
    store: Store,
    opts: Options,
    base: PathBuf,
    /// Lock order: `board` before `stats`, never the reverse.
    stats: Mutex<ServeStats>,
}

impl Daemon {
    fn board(&self) -> MutexGuard<'_, JobBoard> {
        self.board.lock().expect("board poisoned")
    }

    /// Mutate the board, then wake everything waiting on it: how
    /// requeue, completion and drain reach the executor and the parked
    /// status requests ([`next_job`], which must keep its guard to wait
    /// on, notifies for the start itself, and [`post_job`] only for an
    /// accepted submit).
    fn update<T>(&self, f: impl FnOnce(&mut JobBoard) -> T) -> T {
        let out = f(&mut self.board());
        self.changed.notify_all();
        out
    }
}

/// Run one job to its canonical CSV bytes. The job's own config
/// controls the science (topology, seeds, θ grid); the daemon's fleet
/// and supervision flags (`--threads`, `--process-shards`, `--workers`,
/// chaos schedules, …) are overlaid because results are bit-identical
/// under any of them — scheduling belongs to the service, science to
/// the client. `--disk-chaos` is deliberately *not* inherited: the
/// daemon's torture schedule targets its own journal, not job outputs.
fn execute_spec(d: &Daemon, id: &str, spec: &JobSpec) -> Result<Vec<u8>, String> {
    let mut jopts =
        Options::from_config_str(&spec.config).map_err(|e| format!("bad config: {e}"))?;
    let job_dir = d.base.join("serve").join("jobs").join(id);
    jopts.out = Some(job_dir.clone());
    jopts.threads = d.opts.threads;
    jopts.ctx_cache_mb = d.opts.ctx_cache_mb;
    jopts.process_shards = d.opts.process_shards;
    jopts.kill_workers = d.opts.kill_workers;
    jopts.watchdog_secs = d.opts.watchdog_secs;
    jopts.restart_budget = d.opts.restart_budget;
    jopts.worker_mem_mb = d.opts.worker_mem_mb;
    jopts.workers = d.opts.workers.clone();
    jopts.net_chaos = d.opts.net_chaos;
    jopts.remote_floor = d.opts.remote_floor;
    jopts.lease_secs = d.opts.lease_secs;
    let (run, csv) =
        served(&spec.cmd).ok_or_else(|| format!("unsupported command {:?}", spec.cmd))?;
    match catch_unwind(AssertUnwindSafe(|| run(&jopts))) {
        Ok(Ok(())) => std::fs::read(job_dir.join(csv))
            .map_err(|e| format!("job finished but {csv} is unreadable: {e}")),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(format!("attempt panicked: {}", panic_message(&*panic))),
    }
}

/// The `400` body for a command the daemon does not run; it lists the
/// visible served commands (`fig8|fig9|…`).
fn unsupported_cmd(cmd: &str) -> String {
    let served: Vec<&str> = crate::commands::COMMANDS
        .iter()
        .filter(|c| c.served.is_some() && !c.help.is_empty())
        .map(|c| c.name)
        .collect();
    let (cmd, served) = (json_escape(cmd), served.join("|"));
    format!("{{\"error\":\"unsupported cmd {cmd}; serve runs {served}\"}}")
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

/// Block until a queued job has been started (journaled and popped) or
/// the daemon drains (`None`). An empty queue waits on the board's
/// condvar: admission, requeue and drain all notify it.
fn next_job(d: &Daemon) -> Option<(String, JobSpec, u32)> {
    let mut board = d.board();
    while !board.draining() {
        match board.start_next() {
            Ok(Some(job)) => {
                // queued → running is a phase change status requests
                // are parked on.
                d.changed.notify_all();
                return Some(job);
            }
            Ok(None) => board = d.changed.wait(board).expect("board poisoned"),
            Err(e) => {
                drop(board);
                eprintln!("[serve] journaling a job start failed: {e} (will retry)");
                std::thread::sleep(Duration::from_millis(250));
                board = d.board();
            }
        }
        d.executor_wakeups.fetch_add(1, Ordering::Relaxed);
    }
    None
}

/// The executor thread: pop → run → complete/fail, until the drain. The
/// in-flight job always finishes (the drain is only looked at between
/// jobs); the queue behind it stays journaled for the next start.
fn executor(d: &Daemon) {
    while let Some((id, spec, attempt)) = next_job(d) {
        if attempt > 1 {
            // Linearly capped exponential backoff before a retry; the
            // failed attempt's journal record already survived.
            let backoff = Duration::from_millis(250u64 << (attempt - 2).min(3));
            eprintln!("[serve] job {id}: retry attempt {attempt} after {backoff:?}");
            std::thread::sleep(backoff);
        }
        let t0 = Instant::now();
        let outcome = execute_spec(d, &id, &spec);
        let ms = t0.elapsed().as_millis() as u64;
        match outcome {
            Ok(bytes) => {
                // The completion record is the exactly-once commit
                // point; under disk chaos an append can fail
                // transiently, so insist a few times before falling
                // back to crash-recovery semantics (replay re-runs the
                // job and re-puts identical bytes).
                let mut committed = false;
                for _ in 0..8 {
                    // Counted under the board lock: a client that sees
                    // `done` must never read a `/stats` without it.
                    let commit = d.update(|board| {
                        board.complete(&id, &bytes).map(|()| {
                            let mut s = d.stats.lock().expect("stats poisoned");
                            s.jobs_served += 1;
                            s.total_ms += ms;
                            s.max_ms = s.max_ms.max(ms);
                        })
                    });
                    match commit {
                        Ok(()) => {
                            committed = true;
                            break;
                        }
                        Err(e) => eprintln!("[serve] job {id}: completion journal: {e} (retrying)"),
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                if committed {
                    eprintln!("[serve] job {id} ({}) done in {ms} ms", spec.cmd);
                } else {
                    eprintln!(
                        "[serve] job {id}: completion never journaled; a restart will re-run it"
                    );
                }
            }
            Err(msg) => {
                d.stats.lock().expect("stats poisoned").failures += 1;
                match d.update(|board| board.fail(&id, &msg)) {
                    Ok(Phase::Parked) => eprintln!(
                        "[serve] job {id} ({}) PARKED as poisoned after {attempt} attempt(s): {}",
                        spec.cmd,
                        first_line(&msg)
                    ),
                    Ok(_) => eprintln!(
                        "[serve] job {id} failed (attempt {attempt}): {}; requeued",
                        first_line(&msg)
                    ),
                    Err(e) => eprintln!("[serve] job {id}: journaling the failure failed: {e}"),
                }
            }
        }
    }
    eprintln!("[serve] executor drained");
}

// ---------------------------------------------------------------------
// Minimal HTTP/1.1
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why no request came out of a connection.
enum Rejected {
    /// The client went away (or the socket failed) before a full
    /// request arrived — the chaos suite's mid-stream disconnect probe.
    /// Not an error, just a closed connection; nothing to answer.
    Closed,
    /// No header terminator within [`MAX_HEAD`] bytes: `431`.
    HeadTooLarge,
    /// `content-length` above [`MAX_BODY`]: `413`.
    BodyTooLarge,
    /// The whole request did not arrive within [`REQUEST_DEADLINE`]: `408`.
    Overdue,
}

const MAX_HEAD: usize = 64 * 1024;
const MAX_BODY: usize = 1024 * 1024;
/// One budget for the whole request, head and body: a client dripping a
/// byte at a time holds a handler thread this long, not for hours.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
const HEAD_END: &[u8] = b"\r\n\r\n";

/// Append the next bytes of `stream` to `buf`, within `deadline`.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, deadline: Instant) -> Result<(), Rejected> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(Rejected::Overdue);
    }
    let _ = stream.set_read_timeout(Some(left));
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Err(Rejected::Closed),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(Rejected::Overdue)
        }
        Err(_) => Err(Rejected::Closed),
    }
}

/// Read one request, or say why there is none to answer.
fn read_request(stream: &mut TcpStream) -> Result<Request, Rejected> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    // Bytes already searched for the terminator: each read resumes the
    // search just before the old end instead of rescanning the buffer.
    let mut searched = 0;
    let head_end = loop {
        if let Some(pos) = find_subslice(&buf[searched..], HEAD_END) {
            break searched + pos;
        }
        searched = buf.len().saturating_sub(HEAD_END.len() - 1);
        if buf.len() > MAX_HEAD {
            return Err(Rejected::HeadTooLarge);
        }
        read_more(stream, &mut buf, deadline)?;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(Rejected::Closed);
    };
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let mut body: Vec<u8> = buf[head_end + HEAD_END.len()..].to_vec();
    let want: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if want > MAX_BODY {
        return Err(Rejected::BodyTooLarge);
    }
    while body.len() < want {
        read_more(stream, &mut body, deadline)?;
    }
    body.truncate(want);
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Answer a connection that produced no request with its typed status,
/// then close without resetting: the client may still be sending, and
/// closing a socket with unread input makes the kernel answer with a
/// reset that can destroy the response in flight. So say we are done
/// writing and swallow what is left, briefly.
fn reject(stream: &mut TcpStream, why: Rejected) {
    let (status, reason, error) = match why {
        Rejected::Closed => return,
        Rejected::HeadTooLarge => (
            431,
            "Request Header Fields Too Large",
            "request head exceeds 64 KiB",
        ),
        Rejected::BodyTooLarge => (413, "Payload Too Large", "request body exceeds 1 MiB"),
        Rejected::Overdue => (408, "Request Timeout", "request did not arrive within 5 s"),
    };
    respond_json(
        stream,
        status,
        reason,
        &format!("{{\"error\":\"{error}\"}}"),
    );
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let until = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    while Instant::now() < until && matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// One buffer, one write: a head and a body written separately are two
/// segments, and the second can wait on the first one's ACK.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, String)],
) {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (k, v) in extra {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    let _ = stream.write_all(&out);
}

fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, json: &str) {
    respond(
        stream,
        status,
        reason,
        "application/json",
        json.as_bytes(),
        &[],
    );
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse a flat JSON object of string (or scalar, kept as raw text)
/// values — the whole request vocabulary this service needs, with
/// full string-escape handling and no external dependencies.
fn parse_json_object(text: &str) -> Result<HashMap<String, String>, String> {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {i:?}"));
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*i) else {
                return Err("unterminated string".into());
            };
            *i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*i) else {
                        return Err("unterminated escape".into());
                    };
                    *i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = text.get(*i..*i + 4).ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Recover the full UTF-8 character starting here.
                    let start = *i - 1;
                    let mut end = *i;
                    while end < bytes.len() && (bytes[end] & 0b1100_0000) == 0b1000_0000 {
                        end += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&bytes[start..end]));
                    *i = end;
                }
            }
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err("body must be a JSON object".into());
    }
    i += 1;
    let mut map = HashMap::new();
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let value = match bytes.get(i) {
            Some(&b'"') => parse_string(&mut i)?,
            Some(_) => {
                let start = i;
                while i < bytes.len() && !b",}".contains(&bytes[i]) {
                    i += 1;
                }
                let scalar = text[start..i].trim();
                if scalar.is_empty() {
                    return Err(format!("missing value for key {key:?}"));
                }
                scalar.to_string()
            }
            None => return Err("truncated object".into()),
        };
        map.insert(key, value);
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => return Ok(map),
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

/// How long a status request for an unfinished job waits for news
/// before it answers anyway — what every request cost while the accept
/// loop slept between polls, now spent only where it paces a poller.
const STATUS_PARK: Duration = Duration::from_millis(50);
/// Status requests parked at once; each holds a handler thread, so
/// beyond this they answer immediately.
const MAX_PARKED_STATUS: usize = 64;

/// `GET /jobs/:id`. A job that is still queued or running parks the
/// request on the board's condvar until the job changes phase, the
/// daemon drains, or [`STATUS_PARK`] passes: a client polling in a
/// tight loop gets ~20 answers a second instead of thousands, and the
/// answer it is waiting for arrives the moment it exists.
fn job_status_json(d: &Daemon, id: &str) -> Option<String> {
    let mut board = d.board();
    let phase = board.job(id)?.phase;
    if matches!(phase, Phase::Queued | Phase::Running) {
        if d.parked_status.fetch_add(1, Ordering::Relaxed) < MAX_PARKED_STATUS {
            let unchanged =
                |b: &mut JobBoard| !b.draining() && b.job(id).is_some_and(|j| j.phase == phase);
            board = d
                .changed
                .wait_timeout_while(board, STATUS_PARK, unchanged)
                .expect("board poisoned")
                .0;
        }
        d.parked_status.fetch_sub(1, Ordering::Relaxed);
    }
    let j = board.job(id)?;
    let error = match &j.error {
        Some(e) => format!(",\"error\":\"{}\"", json_escape(first_line(e))),
        None => String::new(),
    };
    Some(format!(
        "{{\"id\":\"{id}\",\"status\":\"{}\",\"attempts\":{}{error}}}",
        j.phase.label(),
        j.attempts
    ))
}

fn post_job(d: &Daemon, req: &Request, fallback_client: &str, stream: &mut TcpStream) {
    let text = String::from_utf8_lossy(&req.body).into_owned();
    let fields = match parse_json_object(&text) {
        Ok(f) => f,
        Err(e) => {
            let body = format!("{{\"error\":\"bad request body: {}\"}}", json_escape(&e));
            return respond_json(stream, 400, "Bad Request", &body);
        }
    };
    let Some(cmd) = fields.get("cmd") else {
        return respond_json(stream, 400, "Bad Request", "{\"error\":\"missing cmd\"}");
    };
    let config = fields.get("config").cloned().unwrap_or_default();
    let client = fields
        .get("client")
        .map(String::as_str)
        .unwrap_or(fallback_client);
    // Validate before admission: a spec that can never run must not
    // occupy a queue slot or burn a retry.
    if served(cmd).is_none() {
        return respond_json(stream, 400, "Bad Request", &unsupported_cmd(cmd));
    }
    if let Err(e) = Options::from_config_str(&config) {
        let body = format!("{{\"error\":\"bad config: {}\"}}", json_escape(&e));
        return respond_json(stream, 400, "Bad Request", &body);
    }
    let spec = JobSpec::new(cmd, &config);
    // Only an accepted job is news to the executor and the parked
    // status requests; a cached, pending or refused submit wakes nobody.
    let admission = d.board().submit(spec, client);
    if matches!(admission, Ok(Admission::Accepted { .. })) {
        d.changed.notify_all();
    }
    match admission {
        Err(e) => {
            let body = format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string()));
            respond_json(stream, 500, "Internal Server Error", &body);
        }
        Ok(Admission::Accepted { id }) => {
            let body = format!("{{\"id\":\"{id}\",\"status\":\"queued\"}}");
            respond_json(stream, 202, "Accepted", &body);
        }
        Ok(Admission::Pending { id }) => {
            let body = format!("{{\"id\":\"{id}\",\"status\":\"pending\"}}");
            respond_json(stream, 202, "Accepted", &body);
        }
        Ok(Admission::Cached { id }) => {
            let body = format!(
                "{{\"id\":\"{id}\",\"status\":\"done\",\"result\":\"/jobs/{id}/result\",\"cached\":true}}"
            );
            respond_json(stream, 200, "OK", &body);
        }
        Ok(Admission::Parked { id }) => {
            let body = format!(
                "{{\"id\":\"{id}\",\"status\":\"parked\",\"error\":\"quarantined as poisoned; see serve/parked/{id}.job\"}}"
            );
            respond_json(stream, 409, "Conflict", &body);
        }
        Ok(Admission::Overloaded { retry_after_ms }) => {
            let secs = retry_after_ms.div_ceil(1000).max(1);
            let body = format!(
                "{{\"error\":\"overloaded: queue is full\",\"retry_after_ms\":{retry_after_ms}}}"
            );
            respond(
                stream,
                429,
                "Too Many Requests",
                "application/json",
                body.as_bytes(),
                &[("retry-after", secs.to_string())],
            );
        }
        Ok(Admission::ClientSaturated { in_flight, cap }) => {
            let body = format!(
                "{{\"error\":\"client saturated: {in_flight} of {cap} in-flight slots used\"}}"
            );
            respond(
                stream,
                429,
                "Too Many Requests",
                "application/json",
                body.as_bytes(),
                &[("retry-after", "1".to_string())],
            );
        }
        Ok(Admission::Draining) => {
            respond_json(
                stream,
                503,
                "Service Unavailable",
                "{\"error\":\"draining: the daemon is shutting down\"}",
            );
        }
    }
}

fn get_result(d: &Daemon, id: &str, stream: &mut TcpStream) {
    let phase = d.board().job(id).map(|j| j.phase);
    match phase {
        None => respond_json(stream, 404, "Not Found", "{\"error\":\"no such job\"}"),
        Some(Phase::Done) => match d.store.get(&JobBoard::result_key(id)) {
            Ok(Some(bytes)) => respond(stream, 200, "OK", "text/csv", &bytes, &[]),
            Ok(None) => respond_json(
                stream,
                500,
                "Internal Server Error",
                "{\"error\":\"result missing behind a done record\"}",
            ),
            Err(e) => {
                let body = format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string()));
                respond_json(stream, 500, "Internal Server Error", &body);
            }
        },
        Some(Phase::Parked) => respond_json(
            stream,
            409,
            "Conflict",
            "{\"error\":\"job is parked as poisoned; no result will materialize\"}",
        ),
        Some(_) => respond_json(
            stream,
            409,
            "Conflict",
            "{\"error\":\"result not ready; poll /jobs/:id\"}",
        ),
    }
}

fn stats_json(d: &Daemon) -> String {
    let (queued, running, done, parked, cache_hits, draining) = {
        let board = d.board();
        let (q, r, dn, p) = board.counts();
        (q, r, dn, p, board.cache_hits, board.draining())
    };
    let (jobs_served, failures, total_ms, max_ms) = {
        let s = d.stats.lock().expect("stats poisoned");
        (s.jobs_served, s.failures, s.total_ms, s.max_ms)
    };
    let mean_ms = if jobs_served > 0 {
        total_ms as f64 / jobs_served as f64
    } else {
        0.0
    };
    let (ahits, amisses, aentries, abytes) = atlas_cache_stats();
    let wakeups = d.executor_wakeups.load(Ordering::Relaxed);
    format!(
        "{{\"queued\":{queued},\"running\":{running},\"done\":{done},\"parked\":{parked},\
         \"result_cache_hits\":{cache_hits},\"jobs_served\":{jobs_served},\"failures\":{failures},\
         \"mean_job_ms\":{mean_ms:.3},\"max_job_ms\":{max_ms},\
         \"atlas_cache_hits\":{ahits},\"atlas_cache_misses\":{amisses},\
         \"atlas_cache_entries\":{aentries},\"atlas_cache_bytes\":{abytes},\
         \"executor_wakeups\":{wakeups},\"draining\":{draining}}}"
    )
}

fn handle_connection(mut stream: TcpStream, peer: SocketAddr, d: &Daemon) {
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(why) => return reject(&mut stream, why),
    };
    let fallback_client = req
        .header("x-client")
        .map(str::to_string)
        .unwrap_or_else(|| peer.ip().to_string());
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(d, &req, &fallback_client, &mut stream),
        ("GET", "/healthz") => {
            let draining = d.board().draining();
            let body = format!("{{\"ok\":true,\"draining\":{draining}}}");
            respond_json(&mut stream, 200, "OK", &body);
        }
        ("GET", "/stats") => {
            let body = stats_json(d);
            respond_json(&mut stream, 200, "OK", &body);
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some(id) = rest.strip_suffix("/result") {
                    get_result(d, id, &mut stream);
                } else {
                    match job_status_json(d, rest) {
                        Some(body) => respond_json(&mut stream, 200, "OK", &body),
                        None => respond_json(
                            &mut stream,
                            404,
                            "Not Found",
                            "{\"error\":\"no such job\"}",
                        ),
                    }
                }
            } else {
                respond_json(
                    &mut stream,
                    404,
                    "Not Found",
                    "{\"error\":\"no such path\"}",
                );
            }
        }
        _ => respond_json(
            &mut stream,
            405,
            "Method Not Allowed",
            "{\"error\":\"only POST /jobs and GETs\"}",
        ),
    }
}

/// A minimal one-request HTTP client for the chaos suite and tests:
/// returns `(status, body bytes)`.
pub(crate) fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let b = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: repro-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{b}",
        b.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = find_subslice(&raw, b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let head_text = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head_text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

// ---------------------------------------------------------------------
// The daemon entry point
// ---------------------------------------------------------------------

pub(crate) fn publish_port_file(pf: &std::path::Path, bound: &str) -> Result<(), ExperimentError> {
    // Atomic publish (write-tmp, fsync, rename via the storage layer)
    // so a poller never reads a torn half-written address — the same
    // idiom as `repro worker`.
    let (dir, name) = match (pf.parent(), pf.file_name().and_then(|n| n.to_str())) {
        (Some(dir), Some(name)) if !name.is_empty() => (
            if dir.as_os_str().is_empty() {
                std::path::Path::new(".")
            } else {
                dir
            },
            name,
        ),
        _ => {
            return Err(ExperimentError::Harness(format!(
                "--port-file {} has no usable file name",
                pf.display()
            )))
        }
    };
    Store::localdisk(dir)
        .put_atomic(name, format!("{bound}\n").as_bytes())
        .map_err(ExperimentError::Storage)
}

fn write_serve_bench(d: &Daemon) {
    let (jobs_served, total_ms, max_ms) = {
        let s = d.stats.lock().expect("stats poisoned");
        (s.jobs_served, s.total_ms, s.max_ms)
    };
    let cache_hits = d.board().cache_hits;
    let (ahits, amisses, _, abytes) = atlas_cache_stats();
    let mean_ms = if jobs_served > 0 {
        total_ms as f64 / jobs_served as f64
    } else {
        0.0
    };
    let hit_rate = if ahits + amisses > 0 {
        ahits as f64 / (ahits + amisses) as f64
    } else {
        0.0
    };
    let record = format!(
        "{{\"family\":\"serve\",\"n\":{},\"threads\":{},\"jobs_served\":{jobs_served},\
         \"mean_job_ms\":{mean_ms:.3},\"max_job_ms\":{max_ms},\"result_cache_hits\":{cache_hits},\
         \"atlas_cache_hits\":{ahits},\"atlas_cache_misses\":{amisses},\
         \"atlas_cache_hit_rate\":{hit_rate:.3},\"atlas_cache_bytes\":{abytes}}}",
        d.opts.ases, d.opts.threads
    );
    match crate::benchcmd::write_history_record(&d.store, &record) {
        Ok(n) => eprintln!(
            "[serve] bench history: {jobs_served} job(s), mean {mean_ms:.1} ms, \
             atlas hit rate {hit_rate:.2} ({n} record(s) in BENCH_engine.json)"
        ),
        Err(e) => eprintln!("[serve] bench history write failed: {e}"),
    }
}

/// `repro serve [--listen ADDR] [--port-file PATH] [--queue-bound N]
/// [--client-inflight N] [--out DIR]` — run the simulation service
/// until SIGTERM.
pub fn serve_cmd(opts: &Options) -> Result<(), ExperimentError> {
    let base = opts.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    let store = opts.storage_at(&base);
    crate::harness::take_lock(&store, LOCK_KEY)?;
    let _ = ATLAS_CACHE.set(Mutex::new(AtlasCache {
        budget_bytes: opts.ctx_cache_mb.saturating_mul(1 << 20),
        entries: Vec::new(),
        hits: 0,
        misses: 0,
    }));
    let (board, replay) =
        JobBoard::open(&store, JOBLOG_KEY, opts.queue_bound, opts.client_inflight)?;
    eprintln!(
        "[serve] journal replay: {} queued, {} requeued from running, {} parked at replay, \
         {} done, {} torn byte(s) truncated",
        replay.resumed_queued,
        replay.requeued_running,
        replay.parked_on_replay,
        replay.done,
        replay.torn_bytes
    );
    let listen = opts.listen.as_deref().unwrap_or(DEFAULT_LISTEN);
    let listener = TcpListener::bind(listen)
        .map_err(|e| ExperimentError::Harness(format!("binding {listen}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| ExperimentError::Harness(format!("local_addr: {e}")))?;
    // SIGTERM is latched from here on — before the address is
    // advertised, so no client can reach a daemon that would still die
    // of the signal's default action.
    let listener = crate::signals::Listener::new(listener, "serve")
        .map_err(|e| ExperimentError::Harness(format!("preparing the listener: {e}")))?;
    eprintln!(
        "[serve] listening on {bound} (queue bound {}, per-client cap {}, atlas budget {} MiB)",
        opts.queue_bound, opts.client_inflight, opts.ctx_cache_mb
    );
    if let Some(pf) = &opts.port_file {
        publish_port_file(pf, &bound.to_string())?;
    }
    let daemon = Arc::new(Daemon {
        board: Mutex::new(board),
        changed: Condvar::new(),
        parked_status: AtomicUsize::new(0),
        executor_wakeups: AtomicU64::new(0),
        store: store.clone(),
        opts: opts.clone(),
        base,
        stats: Mutex::new(ServeStats::default()),
    });
    let exec = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || executor(&d))
    };
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // Blocks until a connection or SIGTERM: nothing on the request path
    // waits for a timer.
    while let Some((stream, peer)) = listener.accept() {
        let d = Arc::clone(&daemon);
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, peer, &d)
        }));
        handlers.retain(|h| !h.is_finished());
    }
    eprintln!("[serve] SIGTERM: draining — no new admissions, finishing the in-flight job");
    daemon.update(JobBoard::begin_drain);
    let _ = exec.join();
    for h in handlers {
        let _ = h.join();
    }
    write_serve_bench(&daemon);
    store
        .unlock(LOCK_KEY, &crate::harness::lock_owner())
        .map_err(ExperimentError::Storage)?;
    if let Some(pf) = &opts.port_file {
        // Remove the advertisement so clients dial a dead address (fast
        // typed failure) instead of finding a stale file.
        let _ = std::fs::remove_file(pf);
    }
    let (queued, running, done, parked) = daemon.board().counts();
    eprintln!(
        "[serve] drained: {done} done, {parked} parked; journal retains {} job(s) for the next start",
        queued + running
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_parses_escapes_and_scalars() {
        let m = parse_json_object(
            "{\"cmd\": \"fig9\", \"config\": \"ases = 64\\ntheta = 0.05\\n\", \"n\": 3, \"ok\": true}",
        )
        .unwrap();
        assert_eq!(m["cmd"], "fig9");
        assert_eq!(m["config"], "ases = 64\ntheta = 0.05\n");
        assert_eq!(m["n"], "3");
        assert_eq!(m["ok"], "true");
        let m = parse_json_object("{\"a\": \"q\\\"\\\\\\u0041\"}").unwrap();
        assert_eq!(m["a"], "q\"\\A");
        assert!(parse_json_object("[1]").is_err());
        assert!(parse_json_object("{\"a\": }").is_err());
        assert!(parse_json_object("{}").unwrap().is_empty());
    }

    #[test]
    fn json_escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let body = format!("{{\"v\":\"{}\"}}", json_escape(nasty));
        let m = parse_json_object(&body).unwrap();
        assert_eq!(m["v"], nasty);
    }

    #[test]
    fn served_commands_and_the_unsupported_reply() {
        for cmd in ["fig8", "fig9", "fig11", "fig12", "scenario", "__poison"] {
            assert!(served(cmd).is_some(), "{cmd} must be served");
        }
        for cmd in ["fig10", "table1", "doctor", "__shard-worker", "bogus"] {
            assert!(served(cmd).is_none(), "{cmd} must not be served");
        }
        assert_eq!(
            unsupported_cmd("fig10"),
            "{\"error\":\"unsupported cmd fig10; serve runs fig8|fig9|fig11|fig12|scenario\"}"
        );
    }

    #[test]
    fn find_subslice_locates_header_end() {
        assert_eq!(find_subslice(b"ab\r\n\r\ncd", b"\r\n\r\n"), Some(2));
        assert_eq!(find_subslice(b"abcd", b"\r\n\r\n"), None);
    }
}
