//! The supervisor and worker event loops, generic over how workers
//! are reached.
//!
//! [`run_supervised`] drives a sweep's unit keys to completion across
//! a fleet of [`WorkerLink`]s produced by a caller-supplied `connect`
//! factory — a factory that spawns a child process, dials a TCP
//! worker, or (for graceful degradation) falls back from one to the
//! other. The supervisor itself never knows the difference; every
//! fault it handles arrives as a typed [`SuperviseError`] or a closed
//! link.
//!
//! Fault model and responses, extending the process-shard story to a
//! lossy network:
//!
//! * **Link death** (worker crash, socket reset, torn frame): requeue
//!   the slot's outstanding units at the front of the queue, halve its
//!   batch, reconnect with exponential backoff under the restart
//!   budget.
//! * **Silent peer**: the heartbeat watchdog kills links with no
//!   traffic; severing the socket also unblocks the reader thread.
//! * **Dropped `Assign` frames**: the worker heartbeats but never
//!   makes progress — the per-unit *lease* timer (no `Unit` or
//!   `BatchDone` while units are outstanding) expires and the slot is
//!   recycled, so lost work is re-dispatched rather than waited on
//!   forever.
//! * **Dropped `Unit` frames**: `BatchDone` arrives while units are
//!   still unaccounted — a transport anomaly; the slot is failed and
//!   its units requeued (the worker computed them, but the bytes never
//!   arrived).
//! * **Duplicated frames**: replayed `Unit` results dedupe on merge
//!   (first result wins — results are deterministic, so both are
//!   identical); a replayed `BatchDone` either assigns the next batch
//!   (harmless) or trips the anomaly path (a requeue, also harmless).
//! * **Injected chaos**: links wrapped in a chaos schedule carry a
//!   [`FaultLedger`]; a slot whose ledger grew since connect died of
//!   *injected* causes and is exempt from the restart budget, exactly
//!   like seeded `--kill-workers` SIGKILLs.
//!
//! Every requeue path funnels through the same dedup-on-merge gate, so
//! the caller's sink sees each unit exactly once and the merged output
//! is bit-identical to a single-process run under any fault schedule.

use super::protocol::{
    decode_from_worker, decode_to_worker, encode_from_worker, encode_to_worker, read_frame,
    write_frame, FromWorker, ToWorker,
};
use super::transport::{pipe_link, FaultLedger, WorkerHandle, WorkerLink};
use super::SuperviseError;
use crate::engine::EngineStats;
use crate::sim::SimResult;
use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::process::Child;
use std::sync::mpsc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Serve the worker side of the protocol over `input`/`output` — a
/// child's stdin/stdout or the two halves of an accepted TCP socket;
/// the bytes are identical either way.
///
/// The first frame must be [`ToWorker::Job`]; `setup` turns its
/// command + config into a unit handler and the number of resolvable
/// units. A heartbeat thread runs for the whole call (including during
/// `setup`, which may build a large topology), so the supervisor's
/// watchdog tolerates slow setup and long units alike.
///
/// The handler's panics are caught and reported as [`FromWorker::Fatal`]
/// before the error return — a deterministic poison unit is thereby
/// attributed, not silently retried forever (the supervisor's restart
/// budget bounds the retries).
pub fn serve_worker<R, W, S, H>(input: R, output: W, setup: S) -> Result<(), SuperviseError>
where
    R: Read,
    W: Write + Send,
    S: FnOnce(&str, &str) -> Result<(H, usize), String>,
    H: FnMut(&str) -> Result<(SimResult, EngineStats), String>,
{
    serve_worker_until(input, output, setup, None)
}

/// [`serve_worker`] with a cooperative stop flag: when `halt` flips
/// true (a SIGTERM latch in the hosting binary), the worker finishes
/// the unit it is computing, sends [`FromWorker::Goodbye`], and
/// returns cleanly — the supervisor sees a voluntary departure and
/// requeues the rest of the batch without burning restart budget. The
/// flag is only consulted at unit and batch boundaries, so an
/// in-flight unit is never torn mid-result.
pub fn serve_worker_until<R, W, S, H>(
    mut input: R,
    output: W,
    setup: S,
    halt: Option<&std::sync::atomic::AtomicBool>,
) -> Result<(), SuperviseError>
where
    R: Read,
    W: Write + Send,
    S: FnOnce(&str, &str) -> Result<(H, usize), String>,
    H: FnMut(&str) -> Result<(SimResult, EngineStats), String>,
{
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let first = read_frame(&mut input)?.ok_or_else(|| SuperviseError::Protocol {
        message: "supervisor closed the link before sending a job".into(),
    })?;
    let (cmd, config, heartbeat_ms) = match decode_to_worker(&first) {
        Ok(ToWorker::Job {
            cmd,
            config,
            heartbeat_ms,
        }) => (cmd, config, heartbeat_ms),
        Ok(other) => {
            return Err(SuperviseError::Protocol {
                message: format!("expected job as first message, got {other:?}"),
            })
        }
        Err(e) => {
            return Err(SuperviseError::Protocol {
                message: format!("bad job frame (line {}): {}", e.line, e.message),
            })
        }
    };

    let out = Mutex::new(output);
    let send = |msg: &FromWorker| -> Result<(), SuperviseError> {
        let mut w = out.lock().expect("worker output lock");
        write_frame(&mut *w, &encode_from_worker(msg))
    };
    let stop = AtomicBool::new(false);
    let heartbeat = Duration::from_millis(heartbeat_ms.max(10));

    let scope_result = crossbeam::thread::scope(|s| {
        s.spawn(|_| {
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                if last.elapsed() >= heartbeat {
                    last = Instant::now();
                    if send(&FromWorker::Heartbeat).is_err() {
                        // Supervisor is gone; the main loop will see
                        // EOF on its input and exit.
                        break;
                    }
                }
            }
        });

        let run = || -> Result<(), SuperviseError> {
            let drained = |halted: bool| -> Result<bool, SuperviseError> {
                if halted {
                    send(&FromWorker::Goodbye)?;
                }
                Ok(halted)
            };
            let halted = || halt.is_some_and(|h| h.load(Ordering::Relaxed));
            let (mut handler, units) = match setup(&cmd, &config) {
                Ok(x) => x,
                Err(message) => {
                    let _ = send(&FromWorker::Fatal {
                        message: message.clone(),
                    });
                    return Err(SuperviseError::Worker { message });
                }
            };
            send(&FromWorker::Ready { units })?;
            loop {
                let Some(text) = read_frame(&mut input)? else {
                    // Supervisor died (or was killed); exit quietly so
                    // orphaned workers never linger.
                    return Ok(());
                };
                match decode_to_worker(&text).map_err(|e| SuperviseError::Protocol {
                    message: format!("bad frame (line {}): {}", e.line, e.message),
                })? {
                    ToWorker::Assign { keys } => {
                        // A batch that lands after the halt flag flips
                        // is declined whole — nothing is in flight yet.
                        if drained(halted())? {
                            return Ok(());
                        }
                        for key in keys {
                            let computed =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handler(&key)
                                }));
                            match computed {
                                Ok(Ok((result, stats))) => {
                                    send(&FromWorker::Unit { key, result, stats })?;
                                    // Drain point: the unit above is
                                    // delivered; the rest of the batch
                                    // goes back to the supervisor.
                                    if drained(halted())? {
                                        return Ok(());
                                    }
                                }
                                Ok(Err(message)) => {
                                    let message = format!("unit {key:?}: {message}");
                                    let _ = send(&FromWorker::Fatal {
                                        message: message.clone(),
                                    });
                                    return Err(SuperviseError::Worker { message });
                                }
                                Err(panic) => {
                                    let message = format!(
                                        "unit {key:?} panicked: {}",
                                        panic_message(&*panic)
                                    );
                                    let _ = send(&FromWorker::Fatal {
                                        message: message.clone(),
                                    });
                                    return Err(SuperviseError::Worker { message });
                                }
                            }
                        }
                        send(&FromWorker::BatchDone)?;
                        if drained(halted())? {
                            return Ok(());
                        }
                    }
                    ToWorker::Shutdown => return Ok(()),
                    ToWorker::Job { .. } => {
                        return Err(SuperviseError::Protocol {
                            message: "duplicate job message".into(),
                        })
                    }
                }
            }
        };
        let result = run();
        stop.store(true, Ordering::Relaxed);
        result
    });
    match scope_result {
        Ok(r) => r,
        Err(_) => Err(SuperviseError::Worker {
            message: "worker heartbeat thread panicked".into(),
        }),
    }
}

/// Render a caught panic payload as text: a worker's report of the
/// unit that panicked, and the serve daemon's record of a panicked job
/// attempt. These process and job boundaries are where panics are
/// caught; the simulation engine itself catches none.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// Supervisor knobs.
#[derive(Debug, Clone)]
pub struct ShardPolicy {
    /// Worker link count (clamped to the unit count; at least 1).
    pub shards: usize,
    /// A worker silent for longer than this is declared dead.
    pub watchdog: Duration,
    /// Per-unit lease: a worker with outstanding units that makes no
    /// progress (no `Unit`, no `BatchDone`) for this long is recycled
    /// even if it heartbeats — the heartbeat proves the *process* is
    /// alive, the lease proves the *assignment* arrived.
    pub lease: Duration,
    /// Worker restarts allowed across the whole run before giving up.
    /// Injected kills and injected transport faults (chaos testing) do
    /// not count against it.
    pub restart_budget: u32,
    /// First restart delay; doubles per consecutive failure of the
    /// same worker slot.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Chaos: probability of killing a worker's link after each unit
    /// it delivers (`0.0` disables injection). A process worker is
    /// SIGKILLed; a remote worker's socket is severed.
    pub kill_rate: f64,
    /// Seed for the injection schedule, so torture runs are
    /// reproducible.
    pub kill_seed: u64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            shards: 2,
            watchdog: Duration::from_secs(30),
            lease: Duration::from_secs(120),
            restart_budget: 8,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            kill_rate: 0.0,
            kill_seed: 0,
        }
    }
}

/// What a supervised run did, for the caller's summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Units merged through the sink.
    pub units: usize,
    /// Worker links opened initially.
    pub workers: usize,
    /// Restarts after genuine failures (counted against the budget).
    pub restarts: u32,
    /// Of those genuine failures, how many were transport faults
    /// (link died, torn frame, lease expiry) rather than worker
    /// faults (fatal unit, crash, zero-unit registry).
    pub transport_faults: u32,
    /// Chaos kills injected by `kill_rate` (not counted against the
    /// budget).
    pub injected_kills: u32,
    /// Link deaths attributed to injected transport chaos via the
    /// fault ledger (not counted against the budget).
    pub injected_faults: u32,
    /// Duplicate results dropped on merge.
    pub duplicates_dropped: usize,
    /// Units requeued after link failures.
    pub requeued: usize,
    /// Batch halvings after worker deaths.
    pub splits: u32,
}

#[allow(clippy::large_enum_variant)] // Msg is ~all traffic; see FromWorker
enum Event {
    Msg(FromWorker),
    /// Reader thread finished: clean EOF, or an abnormal cause and
    /// whether it was a transport-layer fault.
    Gone {
        cause: Option<String>,
        transport: bool,
    },
}

struct Slot {
    tx: Option<Box<dyn super::transport::FrameSend>>,
    handle: Option<WorkerHandle>,
    /// Who this slot is talking to, for log lines and lease records.
    peer: String,
    /// Injected-fault ledger of the current link, and its count at
    /// connect time; growth since then marks the link's death as
    /// chaos-injected.
    ledger: Option<FaultLedger>,
    ledger_base: u64,
    /// Connect generation; events from a severed predecessor are
    /// ignored.
    gen: u64,
    last_seen: Instant,
    /// Last `Unit`/`BatchDone`/`Ready` — the lease clock.
    last_progress: Instant,
    /// Any frame arrived on the current connection — proof the worker
    /// received the Job (it sends nothing before it).
    seen_frame: bool,
    /// Keys dispatched to this worker and not yet completed.
    assigned: VecDeque<String>,
    batch: usize,
    /// Consecutive genuine failures, for backoff.
    failures: u32,
    shutting_down: bool,
    /// The next death of this slot was injected by the kill policy.
    injected_kill: bool,
    /// The worker said goodbye (SIGTERM drain): its link closing is a
    /// voluntary departure, not a failure.
    voluntary: bool,
}

impl Slot {
    fn alive(&self) -> bool {
        self.handle.is_some() && !self.shutting_down
    }

    fn injected_death(&self) -> bool {
        self.injected_kill
            || self
                .ledger
                .as_ref()
                .is_some_and(|l| l.count() > self.ledger_base)
    }
}

/// Run `keys` to completion across a fleet of worker links.
///
/// `connect` is called with a slot index whenever that slot needs a
/// (re)connection; it may spawn a child process ([`pipe_link`]), dial
/// a TCP worker ([`super::transport::tcp_link`]), or decide between
/// the two (graceful degradation). `on_unit` is called exactly once
/// per unique key, in completion order. `on_lease` is called once per
/// dispatched key with `(key, peer)` *before* the batch is sent —
/// callers journal these so a resumed coordinator knows which units
/// were in flight.
pub fn run_supervised<C, F, L>(
    policy: &ShardPolicy,
    cmd: &str,
    config: &str,
    keys: &[String],
    mut connect: C,
    mut on_unit: F,
    mut on_lease: L,
) -> Result<ShardReport, SuperviseError>
where
    C: FnMut(usize) -> Result<WorkerLink, SuperviseError>,
    F: FnMut(&str, SimResult, EngineStats) -> Result<(), String>,
    L: FnMut(&str, &str) -> Result<(), String>,
{
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Dedupe the input while preserving order; duplicate keys would
    // otherwise wedge the completion count.
    let mut seen = HashSet::new();
    let mut pending: VecDeque<String> = keys
        .iter()
        .filter(|k| seen.insert((*k).clone()))
        .cloned()
        .collect();
    let total = pending.len();
    if total == 0 {
        return Ok(ShardReport::default());
    }
    let n_workers = policy.shards.clamp(1, total);
    // Small batches balance heterogeneous unit costs and shrink the
    // requeue set a crash orphans; they are also the unit of the
    // "shard too big → split" degradation.
    let default_batch = (total / (n_workers * 4)).max(1);
    let heartbeat_ms = (policy.watchdog.as_millis() as u64 / 4).clamp(25, 5_000);
    let job = ToWorker::Job {
        cmd: cmd.to_string(),
        config: config.to_string(),
        heartbeat_ms,
    };

    let (tx, rx) = mpsc::channel::<(usize, u64, Event)>();
    let mut rng = StdRng::seed_from_u64(policy.kill_seed);
    let mut report = ShardReport {
        workers: n_workers,
        ..ShardReport::default()
    };

    let start_worker = |slot: &mut Slot,
                        idx: usize,
                        connect: &mut C,
                        tx: &mpsc::Sender<(usize, u64, Event)>|
     -> Result<(), SuperviseError> {
        let link = connect(idx)?;
        let WorkerLink {
            tx: mut link_tx,
            rx: mut link_rx,
            handle,
            ledger,
        } = link;
        // Snapshot the fault ledger before the Job frame goes out: a
        // chaos-dropped Job is an injected fault of *this* connection
        // and must exempt its death from the restart budget.
        let ledger_base = ledger.as_ref().map(|l| l.count()).unwrap_or(0);
        link_tx.send_frame(&encode_to_worker(&job))?;
        slot.gen += 1;
        let gen = slot.gen;
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            match link_rx.recv_frame() {
                Ok(Some(text)) => match decode_from_worker(&text) {
                    Ok(msg) => {
                        if tx.send((idx, gen, Event::Msg(msg))).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send((
                            idx,
                            gen,
                            Event::Gone {
                                cause: Some(format!(
                                    "undecodable frame (line {}): {}",
                                    e.line, e.message
                                )),
                                transport: true,
                            },
                        ));
                        return;
                    }
                },
                Ok(None) => {
                    let _ = tx.send((
                        idx,
                        gen,
                        Event::Gone {
                            cause: None,
                            transport: false,
                        },
                    ));
                    return;
                }
                Err(e) => {
                    let transport = e.is_transport_fault();
                    let _ = tx.send((
                        idx,
                        gen,
                        Event::Gone {
                            cause: Some(e.to_string()),
                            transport,
                        },
                    ));
                    return;
                }
            }
        });
        slot.peer = handle.describe();
        slot.ledger_base = ledger_base;
        slot.ledger = ledger;
        slot.handle = Some(handle);
        slot.tx = Some(link_tx);
        slot.last_seen = Instant::now();
        slot.last_progress = Instant::now();
        slot.seen_frame = false;
        slot.shutting_down = false;
        slot.injected_kill = false;
        slot.voluntary = false;
        Ok(())
    };

    let mut slots: Vec<Slot> = (0..n_workers)
        .map(|_| Slot {
            tx: None,
            handle: None,
            peer: String::new(),
            ledger: None,
            ledger_base: 0,
            gen: 0,
            last_seen: Instant::now(),
            last_progress: Instant::now(),
            seen_frame: false,
            assigned: VecDeque::new(),
            batch: default_batch,
            failures: 0,
            shutting_down: false,
            injected_kill: false,
            voluntary: false,
        })
        .collect();
    for (idx, slot) in slots.iter_mut().enumerate() {
        start_worker(slot, idx, &mut connect, &tx)?;
    }

    let mut completed: HashSet<String> = HashSet::new();
    let tick = (policy.watchdog / 4).min(Duration::from_millis(250));

    // Dispatch the next batch to the slot, or shut it down once both
    // queues are drained. A failed send means the link just died; the
    // reader's Gone event will handle it, so send errors are soft.
    // Each dispatched key is leased to the peer first — if the lease
    // journal refuses, the run stops before the keys leave the
    // coordinator.
    fn assign_next<L: FnMut(&str, &str) -> Result<(), String>>(
        slot: &mut Slot,
        pending: &mut VecDeque<String>,
        on_lease: &mut L,
    ) -> Result<(), SuperviseError> {
        if pending.is_empty() {
            // Never shut a worker down while its units are unaccounted
            // for — a duplicated BatchDone must not strand a batch.
            if slot.assigned.is_empty() {
                if let Some(tx) = slot.tx.as_mut() {
                    let _ = tx.send_frame(&encode_to_worker(&ToWorker::Shutdown));
                }
                slot.shutting_down = true;
                slot.tx = None;
            }
            return Ok(());
        }
        let take = slot.batch.min(pending.len());
        let keys: Vec<String> = pending.drain(..take).collect();
        for k in &keys {
            on_lease(k, &slot.peer).map_err(|message| SuperviseError::Sink { message })?;
            slot.assigned.push_back(k.clone());
        }
        if let Some(tx) = slot.tx.as_mut() {
            let _ = tx.send_frame(&encode_to_worker(&ToWorker::Assign { keys }));
        }
        Ok(())
    }

    // Declare a slot dead: sever, requeue, and reconnect (or retire).
    let fail_worker = |slots: &mut Vec<Slot>,
                       idx: usize,
                       why: String,
                       transport: bool,
                       pending: &mut VecDeque<String>,
                       completed: &HashSet<String>,
                       report: &mut ShardReport,
                       connect: &mut C|
     -> Result<(), SuperviseError> {
        let slot = &mut slots[idx];
        if let Some(mut handle) = slot.handle.take() {
            handle.sever();
        }
        slot.tx = None;
        let mut requeued = 0;
        while let Some(k) = slot.assigned.pop_back() {
            if !completed.contains(&k) {
                pending.push_front(k);
                requeued += 1;
            }
        }
        report.requeued += requeued;
        if slot.batch > 1 {
            slot.batch = (slot.batch / 2).max(1);
            report.splits += 1;
        }
        let injected = slot.injected_death();
        let was_kill = std::mem::take(&mut slot.injected_kill);
        let voluntary = std::mem::take(&mut slot.voluntary);
        slot.ledger = None;
        if voluntary {
            // A draining worker said goodbye after finishing its
            // in-flight unit — a clean departure, not a fault; no
            // restart budget is burned and no backoff is owed. The
            // reconnect below is how coordinators degrade: a dial to
            // the draining listener fails and the connect factory
            // falls back (e.g. RemotePool → local fleet).
            eprintln!(
                "[shards] worker {idx} ({}): said goodbye (draining); requeued \
                 {requeued} unit(s), batch now {}",
                slot.peer, slot.batch
            );
        } else if injected {
            if !was_kill {
                report.injected_faults += 1;
            }
            eprintln!(
                "[shards] worker {idx} ({}): injected {} ({why}); requeued {requeued} \
                 unit(s), batch now {}",
                slot.peer,
                if was_kill { "kill" } else { "transport fault" },
                slot.batch
            );
        } else {
            report.restarts += 1;
            if transport {
                report.transport_faults += 1;
            }
            slot.failures += 1;
            eprintln!(
                "[shards] worker {idx} ({}) died ({why}); requeued {requeued} unit(s), \
                 restart {}/{}, batch now {}",
                slot.peer, report.restarts, policy.restart_budget, slot.batch
            );
            if report.restarts > policy.restart_budget {
                return Err(SuperviseError::RestartBudget {
                    budget: policy.restart_budget,
                    outstanding: total - completed.len(),
                    last_error: why,
                });
            }
            let shift = slot.failures.saturating_sub(1).min(16);
            let delay = policy
                .backoff_base
                .saturating_mul(1u32 << shift)
                .min(policy.backoff_cap);
            std::thread::sleep(delay);
        }
        if pending.is_empty() {
            // Everything left in flight belongs to other live workers;
            // retire this slot instead of opening an idle link.
            slot.shutting_down = true;
            return Ok(());
        }
        start_worker(slot, idx, connect, &tx)
    };

    let result = loop {
        if completed.len() == total {
            break Ok(());
        }
        match rx.recv_timeout(tick) {
            Ok((idx, gen, event)) => {
                if slots[idx].gen != gen {
                    continue; // stale event from a severed predecessor
                }
                match event {
                    Event::Msg(msg) => {
                        slots[idx].last_seen = Instant::now();
                        slots[idx].seen_frame = true;
                        match msg {
                            FromWorker::Ready { units } => {
                                slots[idx].last_progress = Instant::now();
                                if units == 0 {
                                    let why =
                                        "worker resolved zero units for this command".to_string();
                                    if let Err(e) = fail_worker(
                                        &mut slots,
                                        idx,
                                        why,
                                        false,
                                        &mut pending,
                                        &completed,
                                        &mut report,
                                        &mut connect,
                                    ) {
                                        break Err(e);
                                    }
                                } else if let Err(e) =
                                    assign_next(&mut slots[idx], &mut pending, &mut on_lease)
                                {
                                    break Err(e);
                                }
                            }
                            FromWorker::Heartbeat => {}
                            FromWorker::Unit { key, result, stats } => {
                                slots[idx].failures = 0;
                                slots[idx].last_progress = Instant::now();
                                slots[idx].assigned.retain(|k| k != &key);
                                if completed.contains(&key) {
                                    report.duplicates_dropped += 1;
                                } else {
                                    if let Err(message) = on_unit(&key, result, stats) {
                                        break Err(SuperviseError::Sink { message });
                                    }
                                    completed.insert(key);
                                    report.units += 1;
                                }
                                // Chaos: maybe kill the link that just
                                // delivered. Skipped once the sweep is
                                // complete (nothing left to prove) and
                                // on retiring workers.
                                if policy.kill_rate > 0.0
                                    && completed.len() < total
                                    && slots[idx].alive()
                                    && rng.gen_bool(policy.kill_rate.clamp(0.0, 1.0))
                                {
                                    report.injected_kills += 1;
                                    slots[idx].injected_kill = true;
                                    if let Some(handle) = slots[idx].handle.as_mut() {
                                        handle.sever();
                                    }
                                }
                            }
                            FromWorker::BatchDone => {
                                slots[idx].last_progress = Instant::now();
                                if !slots[idx].assigned.is_empty() {
                                    // The worker finished the batch but
                                    // some Unit frames never arrived —
                                    // dropped on the wire. Recycle the
                                    // link and requeue.
                                    let why = format!(
                                        "batch done with {} unit(s) unaccounted \
                                         (dropped frames?)",
                                        slots[idx].assigned.len()
                                    );
                                    if let Err(e) = fail_worker(
                                        &mut slots,
                                        idx,
                                        why,
                                        true,
                                        &mut pending,
                                        &completed,
                                        &mut report,
                                        &mut connect,
                                    ) {
                                        break Err(e);
                                    }
                                } else if let Err(e) =
                                    assign_next(&mut slots[idx], &mut pending, &mut on_lease)
                                {
                                    break Err(e);
                                }
                            }
                            FromWorker::Goodbye => {
                                // The clean EOF that follows lands in
                                // the Gone arm; this flag reroutes it
                                // to the voluntary-departure path.
                                slots[idx].voluntary = true;
                            }
                            FromWorker::Fatal { message } => {
                                if let Err(e) = fail_worker(
                                    &mut slots,
                                    idx,
                                    format!("fatal: {message}"),
                                    false,
                                    &mut pending,
                                    &completed,
                                    &mut report,
                                    &mut connect,
                                ) {
                                    break Err(e);
                                }
                            }
                        }
                    }
                    Event::Gone { cause, transport } => {
                        if slots[idx].shutting_down {
                            // Reap a retired child; a remote handle is
                            // just dropped (the socket is already gone).
                            if let Some(WorkerHandle::Process(mut child)) = slots[idx].handle.take()
                            {
                                let _ = child.wait();
                            }
                        } else {
                            let why = cause.unwrap_or_else(|| "link closed".to_string());
                            if let Err(e) = fail_worker(
                                &mut slots,
                                idx,
                                why,
                                transport,
                                &mut pending,
                                &completed,
                                &mut report,
                                &mut connect,
                            ) {
                                break Err(e);
                            }
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                for idx in 0..slots.len() {
                    if !slots[idx].alive() {
                        continue;
                    }
                    // Idle stall: the worker heartbeats (so the
                    // watchdog stays quiet) and owes us nothing (so the
                    // lease stays quiet), but work is pending and the
                    // slot sits unassigned — its Ready or BatchDone was
                    // dropped on the wire, and nothing else will ever
                    // trigger the next dispatch. Re-dispatch in place:
                    // the worker is parked in its receive loop and
                    // picks the batch up whenever it arrives.
                    if slots[idx].seen_frame
                        && slots[idx].assigned.is_empty()
                        && !pending.is_empty()
                        && slots[idx].last_progress.elapsed() > policy.lease
                    {
                        eprintln!(
                            "[shards] worker {idx} ({}): idle for {:.1}s with work \
                             pending (dropped ready/batch-done?); re-dispatching",
                            slots[idx].peer,
                            slots[idx].last_progress.elapsed().as_secs_f64()
                        );
                        slots[idx].last_progress = Instant::now();
                        if let Err(e) = assign_next(&mut slots[idx], &mut pending, &mut on_lease) {
                            return finish(slots, Err(e));
                        }
                        continue;
                    }
                    let (why, transport) = if slots[idx].last_seen.elapsed() > policy.watchdog {
                        (
                            format!(
                                "watchdog: no heartbeat for {:.1}s",
                                slots[idx].last_seen.elapsed().as_secs_f64()
                            ),
                            true,
                        )
                    } else if !slots[idx].assigned.is_empty()
                        && slots[idx].last_progress.elapsed() > policy.lease
                    {
                        (
                            format!(
                                "lease expired: {} unit(s) outstanding, no progress \
                                 for {:.1}s (dropped assign?)",
                                slots[idx].assigned.len(),
                                slots[idx].last_progress.elapsed().as_secs_f64()
                            ),
                            true,
                        )
                    } else {
                        continue;
                    };
                    if let Err(e) = fail_worker(
                        &mut slots,
                        idx,
                        why,
                        transport,
                        &mut pending,
                        &completed,
                        &mut report,
                        &mut connect,
                    ) {
                        return finish(slots, Err(e));
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(SuperviseError::Protocol {
                    message: "all reader threads vanished".into(),
                });
            }
        }
    };
    finish(slots, result.map(|()| report))
}

/// Run `keys` to completion across a fleet of child worker processes —
/// the process-shard entry point, now a thin wrapper over
/// [`run_supervised`] with a pipe-link factory and no lease journal.
///
/// `spawn` must produce a child with piped stdin/stdout already in
/// worker mode (the caller owns the re-exec incantation and any
/// rlimit wrapper). `on_unit` is called exactly once per unique key,
/// in completion order.
pub fn run_sharded<S, F>(
    policy: &ShardPolicy,
    cmd: &str,
    config: &str,
    keys: &[String],
    mut spawn: S,
    on_unit: F,
) -> Result<ShardReport, SuperviseError>
where
    S: FnMut() -> io::Result<Child>,
    F: FnMut(&str, SimResult, EngineStats) -> Result<(), String>,
{
    run_supervised(
        policy,
        cmd,
        config,
        keys,
        |_idx| {
            let child = spawn().map_err(|e| SuperviseError::Spawn {
                message: e.to_string(),
            })?;
            pipe_link(child)
        },
        on_unit,
        |_key, _peer| Ok(()),
    )
}

/// Shut every worker down (politely, then firmly) and return `result`.
fn finish<T>(mut slots: Vec<Slot>, result: Result<T, SuperviseError>) -> Result<T, SuperviseError> {
    for slot in &mut slots {
        if let Some(tx) = slot.tx.as_mut() {
            let _ = tx.send_frame(&encode_to_worker(&ToWorker::Shutdown));
        }
        slot.tx = None;
    }
    let patience = Instant::now() + Duration::from_secs(5);
    for slot in &mut slots {
        match slot.handle.take() {
            Some(WorkerHandle::Process(mut child)) => loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < patience => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            },
            Some(mut handle @ WorkerHandle::Remote(_)) => handle.sever(),
            None => {}
        }
    }
    result
}
