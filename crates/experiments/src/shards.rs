//! Sharded sweep execution (`--process-shards N`, `--workers`).
//!
//! A sweep's unit grid is declared once, in [`crate::sweeps`], and the
//! command registry hands it to both sides of the dispatch here:
//!
//! 1. the supervisor's prefetch pass ([`prefetch`]), which dispatches
//!    every not-yet-checkpointed unit to worker processes or remote
//!    `repro worker`s, and
//! 2. the workers ([`worker_setup`], behind the hidden `__shard-worker`
//!    mode and `repro worker`), which rebuild the same grid from the job
//!    config and compute whatever keys the supervisor assigns through
//!    the same [`UnitRunner`] the in-process loop uses.
//!
//! Pipe workers are re-execs of this binary speaking the
//! [`sbgp_core::supervise`] frame protocol on stdin/stdout (stderr
//! passes through for human logs). Because each unit is a
//! deterministic simulation and merged results land in the same
//! checkpoint the in-process path reads, figure output is bit-identical
//! to a single-process run at any shard count and under any crash or
//! kill schedule.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::harness::SweepRunner;
use crate::sweeps::{UnitRunner, UnitSpec};
use crate::world::World;
use sbgp_core::supervise::{self, ShardPolicy, SuperviseError};
use sbgp_core::{EngineStats, SimResult};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// Where a sweep's shard scratch directories live.
fn shards_dir(opts: &Options) -> PathBuf {
    opts.out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"))
        .join("shards")
}

/// Spawn one `__shard-worker` child: this binary re-exec'd with piped
/// stdin/stdout (the frame channel) and inherited stderr. With
/// `--worker-mem-mb` on unix, the child runs under `ulimit -v` via
/// `sh`, so an over-budget shard dies with an allocation failure the
/// supervisor converts into a batch split — no unsafe code needed.
pub(crate) fn spawn_worker(opts: &Options) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = if opts.worker_mem_mb > 0 && cfg!(unix) {
        let kib = opts.worker_mem_mb.saturating_mul(1024);
        let mut c = Command::new("sh");
        c.arg("-c")
            .arg(format!(
                "ulimit -v {kib} 2>/dev/null; exec \"$0\" __shard-worker"
            ))
            .arg(&exe);
        c
    } else {
        let mut c = Command::new(&exe);
        c.arg("__shard-worker");
        c
    };
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    cmd.spawn()
}

/// Compute every one of `cmd`'s `units` that `runner`'s checkpoint does
/// not already hold, using a fleet of `--process-shards` worker
/// processes or `--workers` links. No-op when sharding is off or
/// nothing is missing; afterwards the in-process sweep loop finds every
/// unit checkpointed and only formats output.
pub fn prefetch(
    cmd: &str,
    opts: &Options,
    units: &[(String, UnitSpec)],
    runner: &mut SweepRunner,
) -> Result<(), ExperimentError> {
    if opts.process_shards == 0 && opts.workers.is_empty() {
        return Ok(());
    }
    let missing: Vec<String> = units
        .iter()
        .map(|(k, _)| k.clone())
        .filter(|k| runner.get(k).is_none())
        .collect();
    if missing.is_empty() {
        eprintln!("[shards] all {} units already checkpointed", units.len());
        return Ok(());
    }
    let remote = !opts.workers.is_empty();
    let policy = ShardPolicy {
        shards: if remote {
            opts.workers.len()
        } else {
            opts.process_shards
        },
        watchdog: Duration::from_secs_f64(opts.watchdog_secs),
        lease: Duration::from_secs_f64(opts.lease_secs),
        restart_budget: opts.restart_budget,
        kill_rate: opts.kill_workers,
        kill_seed: opts.seed ^ 0xc4a0_5c4a,
        ..ShardPolicy::default()
    };
    eprintln!(
        "[shards] dispatching {} of {} units across {} worker {}{}{}",
        missing.len(),
        units.len(),
        policy.shards.clamp(1, missing.len()),
        if remote {
            "remote link(s)"
        } else {
            "process(es)"
        },
        if opts.kill_workers > 0.0 {
            format!(" (chaos: kill rate {})", opts.kill_workers)
        } else {
            String::new()
        },
        match &opts.net_chaos {
            Some(p) => format!(" (net chaos: seed {})", p.seed),
            None => String::new(),
        }
    );
    // The supervisor drives three callbacks that all need the runner
    // (merge, lease journal) or the pool (connect); its event loop is
    // single-threaded, so a RefCell resolves the shared borrow.
    let runner = std::cell::RefCell::new(runner);
    let mut pool = remote.then(|| crate::net::RemotePool::new(opts));
    let report = supervise::run_supervised(
        &policy,
        cmd,
        &opts.to_worker_config(),
        &missing,
        |slot| match pool.as_mut() {
            Some(pool) => pool.connect(slot),
            None => {
                let child = spawn_worker(opts).map_err(|e| SuperviseError::Spawn {
                    message: e.to_string(),
                })?;
                supervise::pipe_link(child)
            }
        },
        |key, result, stats| {
            runner
                .borrow_mut()
                .absorb_remote(key, result, &stats)
                .map_err(|e| e.to_string())
        },
        |key, peer| {
            runner
                .borrow_mut()
                .lease(key, peer)
                .map_err(|e| e.to_string())
        },
    )?;
    eprintln!(
        "[shards] merged {} unit(s) from {} worker(s): {} restart(s) \
         ({} transport fault(s)), {} injected kill(s) + {} injected net fault(s), \
         {} duplicate(s) dropped, {} unit(s) requeued, {} batch split(s)",
        report.units,
        report.workers,
        report.restarts,
        report.transport_faults,
        report.injected_kills,
        report.injected_faults,
        report.duplicates_dropped,
        report.requeued,
        report.splits
    );
    if let Some(pool) = &pool {
        pool.report();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// A worker's scratch breadcrumb dir. Dropped with the unit handler
/// when the worker finishes a job, which removes it; a SIGKILL leaves
/// it behind for `repro doctor`.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a worker answers for one unit.
type UnitOutcome = Result<(SimResult, EngineStats), String>;

/// Build the unit handler a worker serves with, from the job's command
/// and config text: the world, the command's grid, and a [`UnitRunner`].
/// Shared by the pipe worker (`__shard-worker`) and the TCP worker
/// (`repro worker --listen`) — the computation is transport-blind by
/// construction. Returns the handler and the grid size.
pub(crate) fn worker_setup(
    cmd: &str,
    config: &str,
) -> Result<(impl FnMut(&str) -> UnitOutcome, usize), String> {
    let opts = Options::from_config_str(config).map_err(|e| format!("job config: {e}"))?;
    let grid = crate::commands::find(cmd)
        .and_then(|c| c.grid)
        .ok_or_else(|| format!("command {cmd:?} has no sharded form"))?;
    let world = World::build(&opts).map_err(|e| format!("building world: {e}"))?;
    let units: HashMap<String, UnitSpec> = grid(&world).into_iter().collect();
    let n = units.len();

    let dir = shards_dir(&opts).join(format!("__shard-worker-{}", std::process::id()));
    let scratch = std::fs::create_dir_all(&dir).is_ok().then(|| {
        let _ = std::fs::write(
            dir.join("meta"),
            format!("pid {}\ncmd {cmd}\n", std::process::id()),
        );
        Scratch(dir)
    });

    let mut compute = UnitRunner::default();
    let handler = move |key: &str| {
        let spec = units
            .get(key)
            .ok_or_else(|| format!("unknown unit key {key:?}"))?;
        // Breadcrumb for doctor: which unit was in flight if this
        // worker is killed.
        if let Some(Scratch(dir)) = &scratch {
            let _ = std::fs::write(dir.join("current"), key);
        }
        let result = compute.run(&world, spec, &opts);
        let stats = result.stats;
        Ok((result, stats))
    };
    Ok((handler, n))
}

/// Entry point for the hidden `__shard-worker` mode. Never prints to
/// stdout (that is the frame channel); returns the process exit code.
pub fn worker_main() -> i32 {
    // Unlocked handles: the heartbeat thread shares the writer, so it
    // must be Send (Stdout is; StdoutLock is not).
    match supervise::serve_worker(std::io::stdin(), std::io::stdout(), worker_setup) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("shard worker: {e}");
            let _ = std::io::stderr().flush();
            1
        }
    }
}
