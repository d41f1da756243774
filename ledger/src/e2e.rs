//! The end-to-end runs: drive the `repro` binary as a user would (one
//! shot commands from exec to exit, jobs over HTTP), time it from
//! outside with tracing off, and check every output byte for byte.
//!
//! Every workload reports the same six metrics. Its timed ops come in
//! two variants that push identical input through different paths, and
//! its cost is normalized by a work unit whose count is exact for a
//! seed, so that the numbers of two seeds compare:
//!
//! | workload           | unit         | primary op             | alt op            |
//! |--------------------|--------------|------------------------|-------------------|
//! | case-study         | engine pass  | fig3 --threads 1       | --threads 2       |
//! | case-study-starved | engine pass  | ... --ctx-cache-mb 8   | same, --threads 2 |
//! | sweep-dispatch     | sweep unit   | fig8 --process-shards 2| --workers A,B     |
//! | scenario-surface   | scenario     | scenario --threads 1   | --threads 2       |
//! | served-jobs        | job          | fresh fig9 job         | cached resubmit   |

use crate::json::{escape, Value};
use crate::proc::{cpu_of_live, http, warm_cores, Daemon, Op, Repro, Scratch};
use crate::replay::{self, Csv, JobParams};
use crate::report::{Report, Tally};
use crate::rng::Rng;
use crate::spec::{self, Kind};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` is
/// the same code at n = 150 for the tests.
pub struct Scale {
    pub case_ases: usize,
    pub starved_mb: usize,
    pub sweep_ases: usize,
    /// Worlds (`seed..seed + n`) the sweep ops cycle through.
    pub sweep_worlds: u64,
    pub sweep_warmups: usize,
    pub scenario_ases: usize,
    pub scenario_pairs: usize,
    /// `--pairs` of the warm-up op (same world, a tenth of the work).
    pub scenario_warm_pairs: usize,
    pub served_ases: usize,
    pub served_worlds: u64,
    /// Fresh daemons started and given one job each before the timed
    /// phases (the cold start: lock, journal replay, bind, atlas miss).
    pub served_cold_starts: usize,
    pub served_twins: usize,
    /// Jobs per world (of two worlds) in the traced run's one-client
    /// phase and its in-process replay.
    pub traced_jobs_per_world: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        case_ases: 3000,
        starved_mb: 8,
        sweep_ases: 150,
        sweep_worlds: 8,
        sweep_warmups: 2,
        scenario_ases: 1000,
        scenario_pairs: 160,
        scenario_warm_pairs: 16,
        served_ases: 300,
        served_worlds: 8,
        served_cold_starts: 3,
        served_twins: 8,
        traced_jobs_per_world: 8,
    };

    #[cfg(test)]
    pub const SMOKE: Scale = Scale {
        case_ases: 150,
        starved_mb: 0,
        sweep_ases: 150,
        sweep_worlds: 1,
        sweep_warmups: 0,
        scenario_ases: 150,
        scenario_pairs: 4,
        scenario_warm_pairs: 2,
        served_ases: 150,
        served_worlds: 1,
        served_cold_starts: 0,
        served_twins: 1,
        traced_jobs_per_world: 1,
    };

    /// Distinct jobs per world: sized so the fresh and the cached phase
    /// together fill `seconds` at today's ~4.4 jobs/s.
    pub fn served_jobs_per_world(&self, seconds: f64) -> usize {
        ((seconds * 4.0 / self.served_worlds as f64).round() as usize).clamp(2, 15)
    }
}

pub struct Ctx<'a> {
    pub repro: &'a Repro,
    pub scratch: &'a Scratch,
    pub seed: u64,
    /// How long the timed phase should last.
    pub seconds: f64,
    pub scale: &'a Scale,
    /// The checked-in expected outputs, if any.
    pub expected: Option<&'a Path>,
}

/// Split a command line into arguments (none of the workloads' own
/// arguments holds a space; paths are appended separately).
pub fn words(command: &str) -> Vec<String> {
    command.split_whitespace().map(String::from).collect()
}

/// The `repro` command lines the workloads time.
impl Scale {
    /// The atlas budget of the (starved) case study.
    pub fn cache_mb(&self, starved: bool) -> usize {
        if starved {
            self.starved_mb
        } else {
            replay::CTX_CACHE_MB
        }
    }

    pub fn fig3(&self, world: u64, threads: usize, mb: usize) -> Vec<String> {
        let ases = self.case_ases;
        words(&format!(
            "fig3 --ases {ases} --seed {world} --threads {threads} --ctx-cache-mb {mb}"
        ))
    }

    /// `dispatch` is what varies: checkpointing, shards, workers.
    pub fn fig8(&self, world: u64, dispatch: &str) -> Vec<String> {
        let ases = self.sweep_ases;
        words(&format!("fig8 --ases {ases} --seed {world} {dispatch}"))
    }

    pub fn scenario(&self, seed: u64, pairs: usize, threads: usize) -> Vec<String> {
        let ases = self.scenario_ases;
        words(&format!(
            "scenario --ases {ases} --seed {seed} --pairs {pairs} --threads {threads}"
        ))
    }
}

/// One variant's timed ops.
#[derive(Default)]
struct Variant {
    /// Milliseconds per work unit, one value per op.
    unit_ms: Vec<f64>,
    walls: Vec<f64>,
    rss_mib: Vec<f64>,
    cpu_s: f64,
    units: f64,
}

impl Variant {
    fn push(&mut self, op: &Op, units: f64) {
        self.unit_ms.push(op.wall_s * 1e3 / units);
        self.walls.push(op.wall_s);
        self.rss_mib.push(op.exit.usage.maxrss_kib as f64 / 1024.0);
        self.cpu_s += op.exit.usage.cpu_s;
        self.units += units;
    }
}

/// Fill the six end-to-end metrics from the two variants.
fn report_pair(report: &mut Report, setup_s: f64, primary: &Variant, alt: &Variant) {
    report.metric(spec::SETUP_S, setup_s, 1);
    report.metric(
        spec::UNIT_MS,
        median(&primary.unit_ms),
        primary.unit_ms.len(),
    );
    report.metric(spec::ALT_UNIT_MS, median(&alt.unit_ms), alt.unit_ms.len());
    report.metric(
        spec::UNIT_CPU_MS,
        (primary.cpu_s + alt.cpu_s) * 1e3 / (primary.units + alt.units),
        primary.unit_ms.len() + alt.unit_ms.len(),
    );
    report.metric(
        spec::UNITS_PER_S,
        1e3 / median(&primary.unit_ms),
        primary.unit_ms.len(),
    );
    report.metric(
        spec::PEAK_RSS_MIB,
        median(&primary.rss_mib),
        primary.rss_mib.len(),
    );
    report.note(format!(
        "wall_s: primary {:.4} (n={}), alt {:.4} (n={})",
        median(&primary.walls),
        primary.walls.len(),
        median(&alt.walls),
        alt.walls.len()
    ));
}

/// Check one finished op: exit code, and each of `want` on disk.
pub fn check_op(tally: &mut Tally, op: &Op, label: &str, want: &[Csv]) {
    if !op.exit.success {
        let stderr = op.stderr();
        tally.op(false, || {
            format!(
                "{label} exited non-zero or timed out: {}",
                stderr.lines().last().unwrap_or("")
            )
        });
        return;
    }
    let mut ok = true;
    let mut why = String::new();
    for csv in want {
        match op.output(csv.file) {
            Ok(got) if got == csv.bytes => {}
            Ok(_) => {
                ok = false;
                why = format!("{} differs from the in-process replay", csv.file);
            }
            Err(e) => {
                ok = false;
                why = format!("{}: {e}", csv.file);
            }
        }
    }
    tally.op(ok, || format!("{label}: {why}"));
}

/// `secure ASes` of the last row of a `fig3_rounds.csv`.
fn final_secure_ases(csv: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(csv).ok()?;
    text.lines().last()?.split(',').nth(4)?.parse().ok()
}

/// Keep going while another round of the last round's length still
/// fits the budget.
fn another_round_fits(timed: Instant, last_round: Duration, seconds: f64) -> bool {
    (timed.elapsed() + last_round).as_secs_f64() <= seconds
}

// ---------------------------------------------------------------------
// case-study, case-study-starved
// ---------------------------------------------------------------------

pub fn case_study(ctx: &Ctx, starved: bool) -> io::Result<Report> {
    let workload = if starved {
        Kind::CaseStudyStarved.name()
    } else {
        Kind::CaseStudy.name()
    };
    let mb = ctx.scale.cache_mb(starved);
    let mut report = Report::default();
    let mut ops: Vec<(String, Op)> = Vec::new();

    // Set-up: one full op on the run's world, discarded. Whatever a
    // later change moves out of the op into state that survives it would
    // be paid here. The world is the first candidate whose deployment
    // takes off (see `replay::takes_off`); the program's own CSV says
    // whether it did.
    let mut candidates = replay::world_candidates(ctx.seed);
    let (world, setup_s) = loop {
        let world = candidates.next().expect("the candidate list is not empty");
        let setup = Instant::now();
        let warm = ctx
            .repro
            .run(&ctx.scale.fig3(world, 1, mb), ctx.scratch.fresh("warm-up")?)?;
        let setup_s = setup.elapsed().as_secs_f64();
        let secure = warm
            .output("fig3_rounds.csv")
            .ok()
            .and_then(|csv| final_secure_ases(&csv));
        let accept = match secure {
            Some(secure) => replay::takes_off(secure, ctx.scale.case_ases),
            // A failed op is no reason to try another world; the check
            // below reports it.
            None => true,
        };
        if accept || candidates.len() == 0 {
            ops.push((format!("warm-up on world {world}"), warm));
            break (world, setup_s);
        }
    };
    let args = |threads: usize| ctx.scale.fig3(world, threads, mb);

    let timed = Instant::now();
    let mut timed_ops: Vec<(Op, Op)> = Vec::new();
    loop {
        let round = Instant::now();
        warm_cores();
        let t1 = ctx.repro.run(&args(1), ctx.scratch.fresh("t1")?)?;
        warm_cores();
        let t2 = ctx.repro.run(&args(2), ctx.scratch.fresh("t2")?)?;
        timed_ops.push((t1, t2));
        if !another_round_fits(timed, round.elapsed(), ctx.seconds) {
            break;
        }
    }

    // The reference: the same pipeline through the library, after the
    // timed ops so that they are spawned from a small process (a child's
    // `ru_maxrss` starts from its parent's resident set). Its engine
    // counts how many passes the input took, which is the work unit.
    let want = replay::fig3(ctx.scale.case_ases, world, 2, mb, &mut Tracer::new(false));
    let passes = want.result.stats.passes as f64;
    let (mut primary, mut alt) = (Variant::default(), Variant::default());
    for (i, (t1, t2)) in timed_ops.into_iter().enumerate() {
        primary.push(&t1, passes);
        alt.push(&t2, passes);
        ops.push((format!("rep {i} --threads 1"), t1));
        ops.push((format!("rep {i} --threads 2"), t2));
    }
    let outputs = [want.csv];
    for (label, op) in &ops {
        check_op(
            &mut report.tally,
            op,
            &format!("{workload} {label}"),
            &outputs,
        );
    }
    report
        .tally
        .against_expected(ctx.expected, workload, world, &outputs);
    report_pair(&mut report, setup_s, &primary, &alt);
    report.note(format!(
        "unit = engine pass; {passes} passes ({} rounds) on world {world} at n = {}, --ctx-cache-mb {mb}",
        want.result.rounds.len(),
        ctx.scale.case_ases
    ));
    Ok(report)
}

// ---------------------------------------------------------------------
// sweep-dispatch
// ---------------------------------------------------------------------

pub fn sweep_dispatch(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let setup = Instant::now();
    let listen = words("worker --listen 127.0.0.1:0");
    let workers = [
        ctx.repro.listen(&listen, ctx.scratch.fresh("worker-a")?)?,
        ctx.repro.listen(&listen, ctx.scratch.fresh("worker-b")?)?,
    ];
    let fleet = format!("{},{}", workers[0].addr, workers[1].addr);
    let run_round = |world: u64| -> io::Result<(Op, Op)> {
        Ok((
            ctx.repro.run(
                &ctx.scale
                    .fig8(world, "--checkpoint-every 1 --process-shards 2"),
                ctx.scratch.fresh("shards")?,
            )?,
            ctx.repro.run(
                &ctx.scale
                    .fig8(world, &format!("--checkpoint-every 1 --workers {fleet}")),
                ctx.scratch.fresh("workers")?,
            )?,
        ))
    };
    let mut ops: Vec<(String, u64, Op)> = Vec::new();
    // Warm-up rounds are discarded: the first ops after an idle gap run
    // up to 70% slower than the steady state.
    for i in 0..ctx.scale.sweep_warmups {
        let (a, b) = run_round(ctx.seed)?;
        ops.push((format!("warm-up {i} shards"), ctx.seed, a));
        ops.push((format!("warm-up {i} workers"), ctx.seed, b));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let worker_cpu = |ws: &[Daemon; 2]| -> io::Result<f64> {
        Ok(cpu_of_live(ws[0].pid())? + cpu_of_live(ws[1].pid())?)
    };
    let worker_cpu_before = worker_cpu(&workers)?;
    let timed = Instant::now();
    let mut timed_ops: Vec<(u64, Op, Op)> = Vec::new();
    loop {
        let round = Instant::now();
        // Every world gets measured once before any gets a second
        // turn, so each seed's median spans the same worlds.
        let world = ctx.seed + timed_ops.len() as u64 % ctx.scale.sweep_worlds;
        let (a, b) = run_round(world)?;
        timed_ops.push((world, a, b));
        let full_cycle = timed_ops.len() as u64 >= ctx.scale.sweep_worlds;
        if full_cycle && !another_round_fits(timed, round.elapsed(), ctx.seconds) {
            break;
        }
    }
    let worker_cpu_s = worker_cpu(&workers)? - worker_cpu_before;
    for (name, w) in ["A", "B"].iter().zip(workers) {
        let exit = w.drain()?;
        report.tally.op(exit.success, || {
            format!("worker {name} did not drain to exit 0")
        });
    }

    let wants: Vec<(u64, replay::Fig8)> = (0..ctx.scale.sweep_worlds)
        .map(|i| {
            let world = ctx.seed + i;
            let want = replay::fig8(ctx.scale.sweep_ases, world, None, &mut Tracer::new(false));
            (world, want)
        })
        .collect();
    let want_of = |world: u64| &wants.iter().find(|(w, _)| *w == world).expect("replayed").1;
    let (mut primary, mut alt) = (Variant::default(), Variant::default());
    for (i, (world, a, b)) in timed_ops.into_iter().enumerate() {
        let units = want_of(world).results.len() as f64;
        primary.push(&a, units);
        alt.push(&b, units);
        ops.push((format!("rep {i} world {world} shards"), world, a));
        ops.push((format!("rep {i} world {world} workers"), world, b));
    }
    // The TCP workers are not children of the coordinator, so their CPU
    // is not in its rusage.
    alt.cpu_s += worker_cpu_s;
    for (label, world, op) in &ops {
        check_op(
            &mut report.tally,
            op,
            &format!("{} {label}", Kind::SweepDispatch.name()),
            &want_of(*world).csvs,
        );
    }
    for (world, want) in &wants {
        report
            .tally
            .against_expected(ctx.expected, Kind::SweepDispatch.name(), *world, &want.csvs);
    }
    report_pair(&mut report, setup_s, &primary, &alt);
    report.note(format!(
        "unit = sweep unit; 49 per op at n = {}, worlds {}..{}",
        ctx.scale.sweep_ases,
        ctx.seed,
        ctx.seed + ctx.scale.sweep_worlds - 1
    ));
    Ok(report)
}

// ---------------------------------------------------------------------
// scenario-surface
// ---------------------------------------------------------------------

/// `N` of the `[scenario] N scenarios run, ...` summary line.
fn scenarios_run(stdout: &str) -> Option<u64> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("[scenario] "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

pub fn scenario_surface(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let args = |pairs: usize, threads: usize| ctx.scale.scenario(ctx.seed, pairs, threads);
    // Set-up: the same world at a tenth of the sampling, discarded.
    let setup = Instant::now();
    let warm = ctx.repro.run(
        &args(ctx.scale.scenario_warm_pairs, 1),
        ctx.scratch.fresh("warm-up")?,
    )?;
    report.tally.op(warm.exit.success, || {
        "scenario-surface warm-up exited non-zero".to_string()
    });
    let setup_s = setup.elapsed().as_secs_f64();

    let timed = Instant::now();
    let mut timed_ops: Vec<(Op, Op)> = Vec::new();
    loop {
        let round = Instant::now();
        warm_cores();
        let t1 = ctx
            .repro
            .run(&args(ctx.scale.scenario_pairs, 1), ctx.scratch.fresh("t1")?)?;
        warm_cores();
        let t2 = ctx
            .repro
            .run(&args(ctx.scale.scenario_pairs, 2), ctx.scratch.fresh("t2")?)?;
        timed_ops.push((t1, t2));
        if !another_round_fits(timed, round.elapsed(), ctx.seconds) {
            break;
        }
    }

    let want = replay::scenario(
        ctx.scale.scenario_ases,
        ctx.seed,
        ctx.scale.scenario_pairs,
        2,
        &mut Tracer::new(false),
    );
    let (mut primary, mut alt) = (Variant::default(), Variant::default());
    for (i, (t1, t2)) in timed_ops.iter().enumerate() {
        for (threads, op, variant) in [(1, t1, &mut primary), (2, t2, &mut alt)] {
            let label = format!(
                "{} rep {i} --threads {threads}",
                Kind::ScenarioSurface.name()
            );
            check_op(&mut report.tally, op, &label, &want.csvs);
            // The program's own count must be the replay's, or the
            // unit the costs are divided by means nothing.
            let counted = scenarios_run(&op.stdout());
            report
                .tally
                .op(counted == Some(want.stats.scenarios_run), || {
                    format!(
                        "{label}: printed {counted:?} scenarios, the replay ran {}",
                        want.stats.scenarios_run
                    )
                });
            variant.push(op, want.stats.scenarios_run as f64);
        }
    }
    report.tally.against_expected(
        ctx.expected,
        Kind::ScenarioSurface.name(),
        ctx.seed,
        &want.csvs,
    );
    report_pair(&mut report, setup_s, &primary, &alt);
    report.note(format!(
        "unit = scenario; {} scenarios, {} fixpoint iterations at n = {}, --pairs {}",
        want.stats.scenarios_run,
        want.stats.fixpoint_iters,
        ctx.scale.scenario_ases,
        ctx.scale.scenario_pairs
    ));
    Ok(report)
}

// ---------------------------------------------------------------------
// served-jobs
// ---------------------------------------------------------------------

/// Clients sleep this long between two status polls.
const POLL_SLEEP: Duration = Duration::from_millis(5);
/// The closed loop: each client waits for its result before it sends
/// its next job, as a sweep script does. Two clients saturate the
/// daemon's single executor.
const CLIENTS: usize = 2;

pub fn job_body(job: &JobParams) -> String {
    format!(
        "{{\"cmd\":\"fig9\",\"config\":\"{}\"}}",
        escape(&job.config())
    )
}

/// What one submission came to.
pub struct Served {
    pub latency_s: f64,
    pub polls: u32,
    pub result: Vec<u8>,
}

/// `POST /jobs`, poll `GET /jobs/:id` until done, `GET` the result.
/// `expect_cached` says which admission the daemon owes us: 202 for a
/// new spec, 200 with `"cached":true` for a repeat.
pub fn submit_and_fetch(
    addr: &str,
    job: &JobParams,
    expect_cached: bool,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let (status, body) =
        http(addr, "POST", "/jobs", &job_body(job)).map_err(|e| format!("POST /jobs: {e}"))?;
    let reply =
        Value::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("POST reply: {e}"))?;
    let cached = reply.get("cached").and_then(Value::as_bool) == Some(true);
    let want_status = if expect_cached { 200 } else { 202 };
    if status != want_status || cached != expect_cached {
        return Err(format!(
            "POST /jobs answered {status} (cached: {cached}), expected {want_status}"
        ));
    }
    let id = reply
        .get("id")
        .and_then(Value::as_str)
        .ok_or("POST reply carries no id")?
        .to_string();
    // A cached admission says the job is done; a fresh one is polled.
    let mut polls = 0;
    let mut done = cached;
    while !done {
        std::thread::sleep(POLL_SLEEP);
        polls += 1;
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "")
            .map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        let state = Value::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string));
        match (status, state.as_deref()) {
            (200, Some("done")) => done = true,
            (200, Some("queued" | "running")) if t0.elapsed() < crate::proc::OP_TIMEOUT => {}
            other => return Err(format!("GET /jobs/{id} answered {other:?}")),
        }
    }
    let (status, result) = http(addr, "GET", &format!("/jobs/{id}/result"), "")
        .map_err(|e| format!("GET result: {e}"))?;
    if status != 200 {
        return Err(format!("GET /jobs/{id}/result answered {status}"));
    }
    Ok(Served {
        latency_s: t0.elapsed().as_secs_f64(),
        polls,
        result,
    })
}

/// The job list of a run: `per_world` distinct CP traffic shares on
/// each of `worlds` worlds, in seeded order.
pub fn job_list(seed: u64, ases: usize, worlds: u64, per_world: usize) -> Vec<JobParams> {
    let mut rng = Rng::new(seed ^ 0x5e12_7ed0);
    let mut jobs = Vec::new();
    for world in seed..seed + worlds {
        // Shares of 5.0% to 30.0% in steps of 0.1%, distinct per world.
        for k in rng.sample(251, per_world) {
            jobs.push(JobParams {
                ases,
                seed: world,
                cp_fraction: (50 + k) as f64 / 1000.0,
            });
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Run `jobs` through `CLIENTS` closed-loop clients; results in job
/// order, plus the phase's elapsed seconds.
fn closed_loop(
    addr: &str,
    jobs: &[JobParams],
    expect_cached: bool,
) -> (Vec<Result<Served, String>>, f64) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Result<Served, String>)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let served = submit_and_fetch(addr, job, expect_cached);
                done.lock().expect("no client panics").push((i, served));
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("no client panics");
    done.sort_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, r)| r).collect(), elapsed)
}

pub fn stats_of(addr: &str) -> Result<Value, String> {
    let (status, body) = http(addr, "GET", "/stats", "").map_err(|e| format!("GET /stats: {e}"))?;
    if status != 200 {
        return Err(format!("GET /stats answered {status}"));
    }
    Value::parse(&String::from_utf8_lossy(&body))
}

/// Start a daemon that stores under its own scratch directory.
pub fn start_daemon(ctx: &Ctx, label: &str) -> io::Result<Daemon> {
    let dir = ctx.scratch.fresh(label)?;
    let mut args = words("serve --listen 127.0.0.1:0 --queue-bound 64");
    args.extend(["--out".to_string(), dir.display().to_string()]);
    ctx.repro.listen(&args, dir)
}

pub fn served_jobs(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let scale = ctx.scale;
    let per_world = scale.served_jobs_per_world(ctx.seconds);
    let jobs = job_list(ctx.seed, scale.served_ases, scale.served_worlds, per_world);
    // Not in the list (shares stop at 30%): the cold-start and warm-up
    // job, on the run's first world.
    let first_job = JobParams {
        ases: scale.served_ases,
        seed: ctx.seed,
        cp_fraction: 0.5,
    };

    // Set-up, several times over: daemon exec to the result bytes of
    // its first job.
    let setup = Instant::now();
    let mut first_answers = Vec::new();
    let mut cold_start = |label: &str, tally: &mut Tally| -> io::Result<Daemon> {
        let daemon = start_daemon(ctx, label)?;
        match submit_and_fetch(&daemon.addr, &first_job, false) {
            Ok(served) => {
                first_answers.push(daemon.started.elapsed().as_secs_f64());
                tally.op(true, String::new);
                let csv = Csv {
                    file: "fig9_secure_paths.csv",
                    bytes: served.result,
                };
                tally.against_expected(ctx.expected, Kind::ServedJobs.name(), ctx.seed, &[csv]);
            }
            Err(e) => tally.op(false, || format!("first job on {label}: {e}")),
        }
        Ok(daemon)
    };
    for i in 0..scale.served_cold_starts {
        let daemon = cold_start(&format!("cold-{i}"), &mut report.tally)?;
        let exit = daemon.drain()?;
        report.tally.op(exit.success, || {
            format!("cold daemon {i} did not drain to exit 0")
        });
    }
    let daemon = cold_start("daemon", &mut report.tally)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let cpu_before = cpu_of_live(daemon.pid())?;
    let (fresh, fresh_elapsed) = closed_loop(&daemon.addr, &jobs, false);
    let stats_before = stats_of(&daemon.addr);
    let (cached, _) = closed_loop(&daemon.addr, &jobs, true);
    let stats_after = stats_of(&daemon.addr);
    let cpu_s = cpu_of_live(daemon.pid())? - cpu_before;

    // Cached answers touch the front end, the board and the store, and
    // must not reach the executor.
    let served_count = |s: &Result<Value, String>| {
        s.as_ref()
            .ok()
            .and_then(|v| v.get("jobs_served").and_then(Value::as_f64))
    };
    let (before, after) = (served_count(&stats_before), served_count(&stats_after));
    report.tally.op(before.is_some() && before == after, || {
        format!("jobs_served moved across the cached phase: {before:?} -> {after:?}")
    });

    let dir = daemon.dir.clone();
    let exit = daemon.drain()?;
    report.tally.op(exit.success, || {
        "daemon did not drain to exit 0".to_string()
    });
    // The drain's bench record belongs in the daemon's --out directory.
    report
        .tally
        .op(dir.join("BENCH_engine.json").is_file(), || {
            "the drain wrote no BENCH_engine.json into its --out directory".to_string()
        });

    let mut fresh_ms = Vec::new();
    let mut cached_ms = Vec::new();
    let mut polls = 0u32;
    for (i, (f, c)) in fresh.iter().zip(&cached).enumerate() {
        match (f, c) {
            (Ok(f), Ok(c)) => {
                fresh_ms.push(f.latency_s * 1e3);
                cached_ms.push(c.latency_s * 1e3);
                polls += f.polls;
                report.tally.op(true, String::new);
                report.tally.same_bytes(&c.result, &f.result, || {
                    format!("cached answer of job {i} vs its fresh one")
                });
            }
            (f, c) => {
                for (phase, r) in [("fresh", f), ("cached", c)] {
                    let err = r.as_ref().err().cloned();
                    report.tally.op(err.is_none(), || {
                        format!("{phase} job {i}: {}", err.unwrap_or_default())
                    });
                }
            }
        }
    }

    // One-shot twins of a seeded sample: the served bytes are the CLI's.
    let mut rng = Rng::new(ctx.seed ^ 0x7717);
    for i in rng.sample(jobs.len(), scale.served_twins) {
        let twin_dir = ctx.scratch.fresh("twin")?;
        let cfg = twin_dir.join("job.cfg");
        std::fs::write(&cfg, jobs[i].config())?;
        let twin = ctx.repro.run(
            &["fig9".into(), "--config".into(), cfg.display().to_string()],
            twin_dir,
        )?;
        let served = fresh[i]
            .as_ref()
            .map(|s| s.result.clone())
            .unwrap_or_default();
        check_op(
            &mut report.tally,
            &twin,
            &format!("one-shot twin of job {i}"),
            &[Csv {
                file: "fig9_secure_paths.csv",
                bytes: served,
            }],
        );
    }

    if fresh_ms.is_empty() {
        // Nothing was served; the tally says why. There is no latency
        // to report, and inventing one would hide the failure.
        return Ok(report);
    }
    report.metric(spec::SETUP_S, setup_s, first_answers.len());
    // Means, not medians: the accept loop's 50 ms poll quantises every
    // latency, so the median of a run sits on one step or the next and
    // jumps by 10% between runs, while the mean moves continuously.
    report.metric(spec::UNIT_MS, mean(&fresh_ms), fresh_ms.len());
    report.metric(spec::ALT_UNIT_MS, mean(&cached_ms), cached_ms.len());
    report.metric(
        spec::UNIT_CPU_MS,
        cpu_s * 1e3 / (fresh_ms.len() + cached_ms.len()) as f64,
        fresh_ms.len() + cached_ms.len(),
    );
    report.metric(
        spec::UNITS_PER_S,
        fresh_ms.len() as f64 / fresh_elapsed,
        fresh_ms.len(),
    );
    report.metric(spec::PEAK_RSS_MIB, exit.usage.maxrss_kib as f64 / 1024.0, 1);
    if !first_answers.is_empty() {
        report.note(format!(
            "first_answer_s (daemon exec to first result bytes): median {:.4} (n={})",
            median(&first_answers),
            first_answers.len()
        ));
    }
    for (name, xs) in [("fresh", &fresh_ms), ("cached", &cached_ms)] {
        let tail = tail(xs).map_or(String::new(), |(p, v)| format!(", p{p} = {v:.3} ms"));
        report.note(format!(
            "{name} job p50 = {:.3} ms{tail} (n={})",
            median(xs),
            xs.len()
        ));
    }
    report.note(format!(
        "unit = job; {} fresh + {} cached fig9 jobs at n = {}, worlds {}..{}, {} clients closed loop, {:.2} polls/job",
        fresh_ms.len(),
        cached_ms.len(),
        scale.served_ases,
        ctx.seed,
        ctx.seed + scale.served_worlds - 1,
        CLIENTS,
        polls as f64 / fresh_ms.len() as f64
    ));
    Ok(report)
}

pub fn run(ctx: &Ctx, workload: Kind) -> io::Result<Report> {
    match workload {
        Kind::CaseStudy => case_study(ctx, false),
        Kind::CaseStudyStarved => case_study(ctx, true),
        Kind::SweepDispatch => sweep_dispatch(ctx),
        Kind::ScenarioSurface => scenario_surface(ctx),
        Kind::ServedJobs => served_jobs(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_seeded_distinct_and_config_round_trips() {
        let a = job_list(42, 300, 8, 6);
        assert_eq!(a, job_list(42, 300, 8, 6));
        assert_ne!(a, job_list(7, 300, 8, 6));
        assert_eq!(a.len(), 48);
        let mut configs: Vec<String> = a.iter().map(JobParams::config).collect();
        configs.sort();
        configs.dedup();
        assert_eq!(configs.len(), 48, "every job is a distinct spec");
        assert!(a.iter().all(|j| (42..50).contains(&j.seed)));
        assert!(a.iter().all(|j| (0.05..=0.30).contains(&j.cp_fraction)));
        let body = Value::parse(&job_body(&a[0])).unwrap();
        assert_eq!(
            body.get("config").and_then(Value::as_str),
            Some(a[0].config().as_str())
        );
    }

    #[test]
    fn final_secure_count_is_read_from_the_last_row() {
        let csv = b"round,new ISPs,new stubs,new ASes,secure ASes,secure ISPs\n1,34,381,415,1004,39\n2,0,0,0,1004,39\n";
        assert_eq!(final_secure_ases(csv), Some(1004));
        assert_eq!(final_secure_ases(b"round,new ISPs\n"), None);
    }

    #[test]
    fn scenario_summary_line_is_parsed() {
        let out =
            "== x ==\n[scenario] 23040 scenarios run, 158453 fixpoint iterations, 0 quarantined\n";
        assert_eq!(scenarios_run(out), Some(23040));
        assert_eq!(scenarios_run("no summary"), None);
    }

    /// The `repro` of this test profile's target directory, if one was
    /// built there (tier-1 builds one).
    fn test_repro() -> Option<Repro> {
        let path = std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.parent()?.join("repro")));
        let repro = path.and_then(|p| Repro::locate(Some(&p)).ok());
        if repro.is_none() {
            eprintln!("skipped: no repro binary in this test profile's target directory");
        }
        repro
    }

    /// The subprocess path of every workload at n = 150, when a `repro`
    /// sits in this test profile's target directory (tier-1 builds one
    /// there). An API or CLI change that breaks the benchmark fails
    /// here, not in the next measurement.
    #[test]
    fn every_workload_runs_end_to_end_at_smoke_scale() {
        let Some(repro) = test_repro() else { return };
        std::thread::scope(|s| {
            for w in spec::WORKLOADS {
                let repro = &repro;
                s.spawn(move || {
                    let scratch = Scratch::new().unwrap();
                    let ctx = Ctx {
                        repro,
                        scratch: &scratch,
                        seed: 42,
                        seconds: 0.1,
                        scale: &Scale::SMOKE,
                        expected: None,
                    };
                    let report = run(&ctx, w.kind).unwrap();
                    assert_eq!(report.tally.failures, Vec::<String>::new(), "{}", w.name);
                    assert!(report.tally.attempted >= 1);
                    let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
                    let table: Vec<_> = spec::END_TO_END.iter().map(|m| m.name).collect();
                    assert_eq!(names, table, "{} reports every end-to-end metric", w.name);
                    assert!(report.metrics.iter().all(|m| m.value > 0.0), "{}", w.name);
                });
            }
        });
    }

    /// A run against a corrupted expected file is not correct, which is
    /// what makes the binary exit non-zero.
    #[test]
    fn a_corrupted_expected_file_fails_the_run() {
        let Some(repro) = test_repro() else { return };
        let scratch = Scratch::new().unwrap();
        let expected = scratch.fresh("expected").unwrap();
        let dir = expected.join(Kind::CaseStudy.name()).join("seed42");
        std::fs::create_dir_all(&dir).unwrap();
        let want = replay::fig3(
            Scale::SMOKE.case_ases,
            42,
            1,
            replay::CTX_CACHE_MB,
            &mut Tracer::new(false),
        );
        let file = dir.join(want.csv.file);
        let ctx = Ctx {
            repro: &repro,
            scratch: &scratch,
            seed: 42,
            seconds: 0.1,
            scale: &Scale::SMOKE,
            expected: Some(&expected),
        };
        std::fs::write(&file, &want.csv.bytes).unwrap();
        assert!(run(&ctx, Kind::CaseStudy).unwrap().correct());
        let mut corrupted = want.csv.bytes.clone();
        *corrupted.last_mut().unwrap() ^= 1;
        std::fs::write(&file, corrupted).unwrap();
        let report = run(&ctx, Kind::CaseStudy).unwrap();
        assert!(!report.correct());
        assert_eq!(report.tally.failed, 1, "{:?}", report.tally.failures);
    }

    #[test]
    fn jobs_per_world_follow_the_budget() {
        assert_eq!(Scale::FULL.served_jobs_per_world(12.0), 6);
        assert_eq!(Scale::FULL.served_jobs_per_world(1.0), 2);
        assert_eq!(Scale::FULL.served_jobs_per_world(60.0), 15);
    }
}
