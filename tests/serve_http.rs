//! Integration tests for `repro serve`: admission control, poisoned-job
//! quarantine, result caching, and graceful SIGTERM drain — driven over
//! the real HTTP surface with a minimal hand-rolled client.
//!
//! The contract under test: a job served by the daemon produces bytes
//! identical to the one-shot CLI run; a job that panics twice is parked
//! with a replayable artifact while other jobs keep completing; pushing
//! past the queue bound yields a typed `429` with a `retry-after` hint
//! while `/healthz` stays responsive; and SIGTERM drains to exit 0 and
//! removes the port file.
//!
//! The front end is event-driven, and that is under test too: a request
//! that needs no job answers in well under the 50 ms every request used
//! to cost; a status request for an unfinished job parks until there is
//! news (at most ~50 ms), so a client polling in a tight loop is paced
//! and still learns of the completion at once; the drain wakes
//! everything that waits; and hostile requests (byte drip, oversize
//! head or body) draw a typed status without taking `/healthz` down.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One blocking HTTP/1.1 exchange. The daemon always answers
/// `Connection: close`, so reading to EOF delimits the response.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line has a numeric code");
    (status, head.to_string(), payload.to_string())
}

/// Pull a `"key":"value"` or `"key":123` field out of a flat JSON body.
fn field(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        inner.split('"').next().map(str::to_string)
    } else {
        rest.split(&[',', '}'][..])
            .next()
            .map(|s| s.trim().to_string())
    }
}

struct Daemon {
    child: Child,
    addr: String,
    port_file: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path, extra: &[&str]) -> Daemon {
        let pf = dir.join("serve.port");
        let mut cmd = repro();
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--port-file"])
            .arg(&pf)
            .arg("--out")
            .arg(dir)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("daemon spawns");
        let deadline = Instant::now() + Duration::from_secs(15);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&pf) {
                let a = a.trim().to_string();
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(Instant::now() < deadline, "daemon never published a port");
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon {
            child,
            addr,
            port_file: pf,
        }
    }

    fn sigterm(&self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    /// `kill -TERM`, then insist on a clean exit 0 within the deadline.
    fn sigterm_and_wait(self) {
        self.sigterm();
        self.wait_drained();
    }

    /// After a SIGTERM: insist on a clean exit 0 within the deadline.
    fn wait_drained(mut self) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "drain did not exit 0: {status:?}");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "daemon never drained");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        assert!(
            !self.port_file.exists(),
            "port file survived a graceful drain"
        );
        // Disarm the Drop kill: the child is already reaped.
        self.child = Command::new("true").spawn().expect("spawn true");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

const CONFIG: &str = "ases = 300\\nseed = 7\\n";

fn submit(addr: &str, cmd: &str, config: &str) -> (u16, String, String) {
    let body = format!("{{\"cmd\":\"{cmd}\",\"config\":\"{config}\",\"client\":\"itest\"}}");
    http(addr, "POST", "/jobs", &body)
}

#[test]
fn serve_quarantines_poison_serves_results_and_drains_on_sigterm() {
    // One-shot twin: the daemon must serve byte-identical CSV bytes.
    let reference = tmp("ref");
    let o = repro()
        .args(["fig9", "--ases", "300", "--seed", "7", "--out"])
        .arg(&reference)
        .output()
        .expect("reference runs");
    assert!(o.status.success(), "reference run failed");
    let want = std::fs::read(reference.join("fig9_secure_paths.csv")).expect("reference CSV");

    let dir = tmp("daemon");
    let d = Daemon::spawn(&dir, &["--queue-bound", "2"]);

    // A deterministic panicker: two strikes, then quarantine.
    let (st, _, body) = submit(&d.addr, "__poison", CONFIG);
    assert_eq!(st, 202, "poison admission: {body}");
    let poison_id = field(&body, "id").expect("poison id");

    // A real job right behind it must still complete.
    let (st, _, body) = submit(&d.addr, "fig9", CONFIG);
    assert_eq!(st, 202, "fig9 admission: {body}");
    let fig9_id = field(&body, "id").expect("fig9 id");

    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (st, _, body) = http(&d.addr, "GET", &format!("/jobs/{fig9_id}"), "");
        assert_eq!(st, 200, "status poll: {body}");
        let phase = field(&body, "status").expect("status field");
        assert_ne!(phase, "parked", "fig9 was quarantined: {body}");
        if phase == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "fig9 never finished");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (st, _, served) = http(&d.addr, "GET", &format!("/jobs/{fig9_id}/result"), "");
    assert_eq!(st, 200, "result fetch: {served}");
    assert_eq!(
        served.as_bytes(),
        &want[..],
        "served CSV diverged from the one-shot CLI run"
    );

    // Idempotent resubmission: same canonical config → cached bytes.
    let (st, _, body) = submit(&d.addr, "fig9", CONFIG);
    assert_eq!(st, 200, "resubmission was not served from cache: {body}");
    assert_eq!(field(&body, "id").as_deref(), Some(fig9_id.as_str()));
    assert_eq!(field(&body, "cached").as_deref(), Some("true"));

    // The poison job must land in quarantine with a replayable artifact.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, _, body) = http(&d.addr, "GET", &format!("/jobs/{poison_id}"), "");
        if field(&body, "status").as_deref() == Some("parked") {
            break;
        }
        assert!(Instant::now() < deadline, "poison job never parked: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (st, _, body) = http(&d.addr, "GET", &format!("/jobs/{poison_id}/result"), "");
    assert_eq!(st, 409, "parked result must be a typed conflict: {body}");
    let artifact = dir
        .join("serve")
        .join("parked")
        .join(format!("{poison_id}.job"));
    let text = std::fs::read_to_string(&artifact).expect("parked artifact exists");
    assert!(text.contains("# replay:"), "artifact lacks replay line");
    assert!(text.contains("# cmd: __poison"), "artifact lacks cmd line");

    // Resubmitting a parked job reports the quarantine, not a re-run.
    let (st, _, body) = submit(&d.addr, "__poison", CONFIG);
    assert_eq!(st, 409, "parked resubmission must conflict: {body}");

    // Overload: distinct configs past the queue bound must draw a typed
    // 429 with a retry-after hint, and /healthz must stay responsive.
    let mut overloaded = false;
    for i in 0..8 {
        let cfg = format!("ases = 300\\nseed = {}\\n", 100 + i);
        let (st, head, body) = submit(&d.addr, "fig9", &cfg);
        if st == 429 {
            assert!(
                head.to_ascii_lowercase().contains("retry-after:"),
                "429 without retry-after hint: {head}"
            );
            assert!(body.contains("overloaded"), "untyped 429: {body}");
            overloaded = true;
            break;
        }
        assert_eq!(st, 202, "filler admission: {body}");
    }
    assert!(overloaded, "queue bound 2 never produced a 429");
    let (st, _, body) = http(&d.addr, "GET", "/healthz", "");
    assert_eq!(st, 200, "healthz under overload: {body}");
    assert!(body.contains("\"ok\":true"));

    // Graceful drain: exit 0, port file gone, journal retained on disk
    // for the next start.
    d.sigterm_and_wait();
    assert!(
        dir.join("serve").join("jobs.joblog").exists(),
        "journal vanished at drain"
    );
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_drains_gracefully_on_sigterm() {
    let dir = tmp("worker");
    let pf = dir.join("worker.port");
    let mut child = repro()
        .args(["worker", "--listen", "127.0.0.1:0", "--port-file"])
        .arg(&pf)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pf.exists() {
        assert!(Instant::now() < deadline, "worker never published a port");
        std::thread::sleep(Duration::from_millis(20));
    }
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(ok, "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "worker drain did not exit 0: {status:?}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "worker never exited on SIGTERM");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    assert!(!pf.exists(), "worker port file survived a graceful drain");
    let _ = std::fs::remove_dir_all(&dir);
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn status_of(addr: &str, id: &str) -> String {
    let (st, _, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(st, 200, "status poll: {body}");
    field(&body, "status").expect("status field")
}

/// A small job: ~0.1 s in a release build, ~1 s in a debug one.
const SMALL: &str = "ases = 150\\nseed = 7\\n";

#[test]
fn requests_that_run_no_job_answer_in_milliseconds() {
    let dir = tmp("latency");
    let d = Daemon::spawn(&dir, &[]);
    let healthz: Vec<Duration> = (0..20)
        .map(|_| timed(|| assert_eq!(http(&d.addr, "GET", "/healthz", "").0, 200)).1)
        .collect();
    let ms = median_ms(healthz);
    assert!(ms < 20.0, "median GET /healthz took {ms:.1} ms");

    let (st, _, body) = submit(&d.addr, "fig9", SMALL);
    assert_eq!(st, 202, "admission: {body}");
    let id = field(&body, "id").expect("id");
    // No sleep between polls: the daemon paces them.
    let deadline = Instant::now() + Duration::from_secs(120);
    while status_of(&d.addr, &id) != "done" {
        assert!(Instant::now() < deadline, "job never finished");
    }
    // The job is counted before `done` is visible, not after.
    let (_, _, stats) = http(&d.addr, "GET", "/stats", "");
    assert_eq!(field(&stats, "done").as_deref(), Some("1"), "{stats}");
    assert_eq!(
        field(&stats, "jobs_served").as_deref(),
        Some("1"),
        "{stats}"
    );
    let wakeups = field(&stats, "executor_wakeups").expect("executor_wakeups in /stats");

    let cached: Vec<Duration> = (0..20)
        .map(|_| {
            timed(|| {
                let (st, _, body) = submit(&d.addr, "fig9", SMALL);
                assert_eq!(st, 200, "cached admission: {body}");
                assert_eq!(field(&body, "cached").as_deref(), Some("true"));
                let (st, _, _) = http(&d.addr, "GET", &format!("/jobs/{id}/result"), "");
                assert_eq!(st, 200);
            })
            .1
        })
        .collect();
    let ms = median_ms(cached);
    assert!(ms < 20.0, "median cached POST + GET result took {ms:.1} ms");
    // A cached resubmit changes nothing the executor waits on.
    let (_, _, stats) = http(&d.addr, "GET", "/stats", "");
    assert_eq!(
        field(&stats, "executor_wakeups"),
        Some(wakeups),
        "cached resubmits woke the executor: {stats}"
    );

    // An idle executor sleeps on the board's condvar; only the drain's
    // notify can end that sleep.
    let ((), drain) = timed(|| d.sigterm_and_wait());
    assert!(
        drain < Duration::from_millis(500),
        "idle drain took {drain:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_requests_park_until_there_is_news() {
    let dir = tmp("park");
    let d = Daemon::spawn(&dir, &[]);
    let (st, _, body) = submit(&d.addr, "fig9", CONFIG);
    assert_eq!(st, 202, "admission: {body}");
    let id = field(&body, "id").expect("id");

    // `/stats` never parks: a tight loop over it sees the completion
    // within a request's round trip.
    let observer = {
        let addr = d.addr.clone();
        std::thread::spawn(move || loop {
            let (_, _, stats) = http(&addr, "GET", "/stats", "");
            if field(&stats, "done").as_deref() == Some("1") {
                return Instant::now();
            }
        })
    };
    // The same tight loop over the job's status is paced by the daemon.
    let t0 = Instant::now();
    let mut unfinished = 0u32;
    let mut slowest = Duration::ZERO;
    let (seen_done, running_for) = loop {
        let (phase, took) = timed(|| status_of(&d.addr, &id));
        if phase == "done" {
            break (Instant::now(), t0.elapsed());
        }
        unfinished += 1;
        slowest = slowest.max(took);
        assert!(
            t0.elapsed() < Duration::from_secs(300),
            "job never finished"
        );
    };
    let observed_done = observer.join().expect("observer thread");
    assert!(unfinished >= 1, "the job finished before its first poll");
    let budget = 25.0 * running_for.as_secs_f64() + 5.0;
    assert!(
        f64::from(unfinished) <= budget,
        "{unfinished} status answers in {running_for:?}: the poller was not paced"
    );
    assert!(
        slowest < Duration::from_millis(150),
        "a status request for an unfinished job took {slowest:?}, not ~50 ms"
    );
    // The request that was parked when the job finished was woken by
    // the completion, not by its timer.
    let lag = seen_done.saturating_duration_since(observed_done);
    assert!(
        lag < Duration::from_millis(20),
        "the parked request learned of the completion {lag:?} after /stats showed it"
    );

    // SIGTERM while a status request is parked on a running job: the
    // drain wakes it, it gets its whole answer, and the daemon exits 0
    // once the job in flight has finished.
    let cfg = "ases = 300\\nseed = 8\\n";
    let (st, _, body) = submit(&d.addr, "fig9", cfg);
    assert_eq!(st, 202, "second admission: {body}");
    let id = field(&body, "id").expect("id");
    while status_of(&d.addr, &id) == "queued" {}
    let parked = {
        let (addr, id) = (d.addr.clone(), id.clone());
        std::thread::spawn(move || timed(|| status_of(&addr, &id)))
    };
    std::thread::sleep(Duration::from_millis(10));
    d.sigterm();
    let (phase, took) = parked.join().expect("parked request thread");
    assert!(
        phase == "running" || phase == "done",
        "parked request across SIGTERM answered {phase:?}"
    );
    assert!(
        took < Duration::from_millis(150),
        "parked request took {took:?}"
    );
    d.wait_drained();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Send `request` raw and read whatever comes back until EOF.
fn raw_exchange(addr: &str, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    stream.write_all(request).expect("write request");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn hostile_requests_get_typed_statuses_and_healthz_stays_live() {
    let dir = tmp("hostile");
    let d = Daemon::spawn(&dir, &[]);

    // A byte at a time, never finishing the head: one deadline covers
    // the whole request, so this draws a 408 after ~5 s, not never.
    let drip = {
        let addr = d.addr.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect to daemon");
            let mut reader = stream.try_clone().expect("clone stream");
            let reader = std::thread::spawn(move || {
                let mut raw = Vec::new();
                let _ = reader.read_to_end(&mut raw);
                (String::from_utf8_lossy(&raw).into_owned(), Instant::now())
            });
            let t0 = Instant::now();
            for byte in b"GET /healthz HTTP/1.1\r\nx-drip: "
                .iter()
                .chain([b'a'].iter().cycle())
            {
                if stream.write_all(&[*byte]).is_err() || t0.elapsed() > Duration::from_secs(20) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let (answer, at) = reader.join().expect("reader thread");
            (answer, at.duration_since(t0))
        })
    };

    // Meanwhile the daemon answers everyone else at full speed.
    let healthz: Vec<Duration> = (0..20)
        .map(|_| timed(|| assert_eq!(http(&d.addr, "GET", "/healthz", "").0, 200)).1)
        .collect();
    let ms = median_ms(healthz);
    assert!(
        ms < 20.0,
        "median GET /healthz under a drip took {ms:.1} ms"
    );

    // 64 KiB of head and no end in sight.
    let mut head = b"GET /healthz HTTP/1.1\r\nx-filler: ".to_vec();
    head.resize(70 * 1024, b'a');
    let answer = raw_exchange(&d.addr, &head);
    assert!(
        answer.starts_with("HTTP/1.1 431 "),
        "oversize head: {answer:?}"
    );

    // A body the daemon will not buffer, declared up front.
    let answer = raw_exchange(
        &d.addr,
        b"POST /jobs HTTP/1.1\r\ncontent-length: 2000000\r\n\r\n{",
    );
    assert!(
        answer.starts_with("HTTP/1.1 413 "),
        "oversize body: {answer:?}"
    );

    // A wall-clock budget is not a job option: a result that depends
    // on the machine's speed must never be cached under a content id.
    let (st, _, body) = submit(&d.addr, "fig9", "ases = 150\\ndeadline = 0.001\\n");
    assert_eq!(st, 400, "deadline config: {body}");
    assert!(body.contains("bad config"), "{body}");

    let (answer, after) = drip.join().expect("drip thread");
    assert!(answer.starts_with("HTTP/1.1 408 "), "byte drip: {answer:?}");
    assert!(
        after > Duration::from_secs(4) && after < Duration::from_secs(8),
        "the drip was answered after {after:?}, not at the 5 s deadline"
    );
    assert_eq!(http(&d.addr, "GET", "/healthz", "").0, 200);
    d.sigterm_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}
