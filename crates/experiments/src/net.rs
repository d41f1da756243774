//! Remote sweep workers over TCP.
//!
//! Two halves:
//!
//! * [`worker_cmd`] — `repro worker --listen ADDR` runs a long-lived
//!   worker process that accepts coordinator connections and serves
//!   sweep units over the same length-prefixed frame protocol the
//!   pipe workers speak. Connections are served serially; when a
//!   coordinator vanishes (crash, chaos-severed socket) the worker
//!   logs the error and goes back to accepting, so a `--resume`d
//!   coordinator finds the same fleet still listening.
//!
//! * [`RemotePool`] — the coordinator side. Maps supervisor slots to
//!   `--workers host:port,...` addresses, dials with a timeout,
//!   reconnects elsewhere when an address keeps failing, and — when
//!   the live remote pool drains below `--remote-floor` — degrades
//!   gracefully by spawning local `__shard-worker` processes instead,
//!   so a sweep finishes (byte-identically) even if every remote host
//!   dies. Degradation is sticky: once below the floor, the pool stops
//!   dialing and serves every further connect request locally.
//!
//! With `--net-chaos`, every remote link is wrapped in the seeded
//! fault-injecting transport ([`sbgp_core::supervise::ChaosProfile`]);
//! faults injected there are ledgered and exempt from the restart
//! budget, exactly like `--kill-workers` chaos.

use crate::cli::Options;
use crate::error::ExperimentError;
use sbgp_core::supervise::{self, ChaosProfile, SuperviseError, WorkerLink};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a single dial attempt may take before we try the next
/// candidate address (or degrade to a local worker).
const DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive dial failures after which an address is written off for
/// the rest of the run.
const DEAD_AFTER: u32 = 3;

// ---------------------------------------------------------------------
// Coordinator side: the remote pool
// ---------------------------------------------------------------------

/// Per-address dial bookkeeping.
struct Endpoint {
    addr: String,
    consec_fail: u32,
    connects: usize,
}

impl Endpoint {
    fn dead(&self) -> bool {
        self.consec_fail >= DEAD_AFTER
    }
}

/// The coordinator's view of the remote worker fleet; the supervisor's
/// connect factory delegates here. Never returns an error unless even
/// the local-process fallback cannot spawn — a connect error aborts the
/// whole supervised run, and a dead remote host should not do that.
pub struct RemotePool<'a> {
    opts: &'a Options,
    endpoints: Vec<Endpoint>,
    chaos: Option<ChaosProfile>,
    floor: usize,
    /// Distinct chaos seed per link, monotonically increasing across
    /// reconnects so a restarted link gets a fresh fault schedule.
    next_link: u64,
    /// Sticky: once the live pool drains below the floor we stop
    /// dialing remotes entirely.
    degraded: bool,
    local_spawns: usize,
}

impl<'a> RemotePool<'a> {
    /// Build a pool over `opts.workers` (must be non-empty).
    pub fn new(opts: &'a Options) -> Self {
        RemotePool {
            endpoints: opts
                .workers
                .iter()
                .map(|a| Endpoint {
                    addr: a.clone(),
                    consec_fail: 0,
                    connects: 0,
                })
                .collect(),
            chaos: opts.net_chaos,
            floor: opts.remote_floor,
            next_link: 0,
            degraded: false,
            local_spawns: 0,
            opts,
        }
    }

    fn live(&self) -> usize {
        self.endpoints.iter().filter(|e| !e.dead()).count()
    }

    /// Connect supervisor slot `slot` to a worker: the slot's preferred
    /// address first (slot i ↦ address i mod n), then any other live
    /// address, then — below the floor or with nothing reachable — a
    /// locally spawned `__shard-worker` process.
    pub fn connect(&mut self, slot: usize) -> Result<WorkerLink, SuperviseError> {
        if !self.degraded && self.live() < self.floor {
            eprintln!(
                "[net] remote pool drained below floor ({} live < {}); \
                 degrading to local process shards for the rest of the run",
                self.live(),
                self.floor
            );
            self.degraded = true;
        }
        if !self.degraded {
            let n = self.endpoints.len();
            let preferred = slot % n;
            // Preferred address first, then the rest in ring order.
            for i in (0..n).map(|i| (preferred + i) % n) {
                if self.endpoints[i].dead() {
                    continue;
                }
                match dial(&self.endpoints[i].addr) {
                    Ok(stream) => {
                        let ep = &mut self.endpoints[i];
                        ep.consec_fail = 0;
                        ep.connects += 1;
                        let schedule = self.chaos.as_ref().map(|p| p.schedule(self.next_link));
                        self.next_link += 1;
                        return supervise::tcp_link(stream, schedule);
                    }
                    Err(e) => {
                        let ep = &mut self.endpoints[i];
                        ep.consec_fail += 1;
                        eprintln!(
                            "[net] dial {} failed ({e}); {}",
                            ep.addr,
                            if ep.dead() {
                                "writing the address off"
                            } else {
                                "will retry on the next connect"
                            }
                        );
                    }
                }
            }
            if self.live() < self.floor {
                eprintln!(
                    "[net] remote pool drained below floor ({} live < {}); \
                     degrading to local process shards for the rest of the run",
                    self.live(),
                    self.floor
                );
                self.degraded = true;
            } else {
                eprintln!("[net] no remote worker reachable; spawning a local shard instead");
            }
        }
        // Graceful degradation: same worker protocol over pipes.
        self.local_spawns += 1;
        let child = crate::shards::spawn_worker(self.opts).map_err(|e| SuperviseError::Spawn {
            message: format!("local fallback worker: {e}"),
        })?;
        supervise::pipe_link(child)
    }

    /// One-line end-of-run pool summary on stderr.
    pub fn report(&self) {
        let per: Vec<String> = self
            .endpoints
            .iter()
            .map(|e| {
                format!(
                    "{} ({} connect(s){})",
                    e.addr,
                    e.connects,
                    if e.dead() { ", written off" } else { "" }
                )
            })
            .collect();
        eprintln!(
            "[net] pool: {}{}{}",
            per.join(", "),
            if self.local_spawns > 0 {
                format!("; {} local fallback spawn(s)", self.local_spawns)
            } else {
                String::new()
            },
            if self.degraded {
                " [degraded below remote floor]"
            } else {
                ""
            }
        );
    }
}

/// Resolve and dial `host:port` with a per-candidate timeout.
fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    let candidates: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    for sa in &candidates {
        match TcpStream::connect_timeout(sa, DIAL_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{addr} resolved to no addresses"),
        )
    }))
}

// ---------------------------------------------------------------------
// Worker side: `repro worker --listen ADDR`
// ---------------------------------------------------------------------

/// `repro worker --listen ADDR [--port-file PATH]`: bind, optionally
/// publish the bound address (for tests binding port 0), and serve
/// coordinator connections forever — one at a time, surviving each
/// coordinator's death or disconnect.
pub fn worker_cmd(args: &[String]) -> Result<(), ExperimentError> {
    let mut listen: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or_else(|| harness_err("--listen needs an ADDR argument"))?
                        .clone(),
                );
            }
            "--port-file" => {
                port_file = Some(
                    it.next()
                        .ok_or_else(|| harness_err("--port-file needs a PATH argument"))?
                        .clone(),
                );
            }
            other => {
                return Err(harness_err(&format!(
                    "unknown worker flag {other:?} (usage: repro worker --listen ADDR [--port-file PATH])"
                )));
            }
        }
    }
    let listen = listen.ok_or_else(|| harness_err("repro worker requires --listen ADDR"))?;
    let listener =
        TcpListener::bind(&listen).map_err(|e| harness_err(&format!("binding {listen}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| harness_err(&format!("local_addr: {e}")))?;
    // Graceful SIGTERM: the listener's `accept` blocks until a
    // coordinator or the signal arrives (the handler is installed
    // before the address is advertised). Mid-connection,
    // `serve_worker_until` consults the same latch at unit boundaries:
    // the in-flight unit finishes, a goodbye frame goes out, and the
    // coordinator requeues the rest without burning restart budget.
    let listener = crate::signals::Listener::new(listener, "worker")
        .map_err(|e| harness_err(&format!("preparing the listener: {e}")))?;
    eprintln!("[worker] listening on {bound}");
    if let Some(pf) = &port_file {
        crate::serve::publish_port_file(std::path::Path::new(pf), &bound.to_string())?;
    }
    while let Some((stream, peer)) = listener.accept() {
        let peer = peer.to_string();
        eprintln!("[worker] coordinator connected from {peer}");
        let _ = stream.set_nodelay(true);
        serve_connection(stream, &peer);
    }
    eprintln!("[worker] SIGTERM: draining done, removing port file and exiting");
    if let Some(pf) = &port_file {
        // Remove the advertisement so coordinators dial a dead address
        // (fast typed failure) instead of finding a stale file.
        let _ = std::fs::remove_file(pf);
    }
    Ok(())
}

/// Serve one coordinator connection to completion; errors (the
/// coordinator died, chaos severed the socket, a torn frame) are logged
/// and swallowed so the accept loop keeps the worker alive.
fn serve_connection(stream: TcpStream, peer: &str) {
    let halt = crate::signals::term_flag();
    let result = match stream.try_clone() {
        Ok(write_half) => supervise::serve_worker_until(
            stream,
            write_half,
            crate::shards::worker_setup,
            Some(halt),
        ),
        Err(e) => Err(SuperviseError::Io {
            context: "cloning connection".to_string(),
            message: e.to_string(),
        }),
    };
    match result {
        Ok(()) => eprintln!("[worker] coordinator {peer} finished cleanly"),
        Err(e) => eprintln!("[worker] connection from {peer} ended: {e} — back to listening"),
    }
}

fn harness_err(msg: &str) -> ExperimentError {
    ExperimentError::Harness(msg.to_string())
}
