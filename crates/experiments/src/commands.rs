//! The command registry: every name `repro` accepts, declared once.
//!
//! One entry per command, in `repro help` order, says everything the
//! rest of the binary needs to know about it: its help text, its entry
//! point, whether `repro all` runs it, which CSV a `repro serve` job of
//! it answers with, and its sweep grid if its units can be sharded.
//! Dispatch (`main`), `repro all`, `repro help`, the daemon's job table
//! and the workers' grid lookup all read this table; none keeps a list
//! of its own.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::sweeps::Grid;
use crate::{
    benchcmd, casestudy, census, chaos, doctor, extensions, faults, gadget_demos, net, projection,
    scenario, serve, shards, sweeps, tables,
};
use Run::{Args, Exit, Opts};

/// An entry point that runs over the experiment options.
pub type Experiment = fn(&Options) -> Result<(), ExperimentError>;

/// How a command is entered.
pub enum Run {
    /// Runs over the experiment options (a bad flag exits 2).
    Opts(Experiment),
    /// Takes its raw arguments: its flags are not the experiment options.
    Args(fn(&[String]) -> Result<(), ExperimentError>),
    /// Owns stdin/stdout and returns its own exit code.
    Exit(fn() -> i32),
}

/// One command.
pub struct Command {
    /// The name `repro` dispatches on.
    pub name: &'static str,
    /// `repro help` text: the first line sits beside the name, later
    /// lines continue below it. Empty for hidden commands.
    pub help: &'static str,
    /// The entry point.
    pub run: Run,
    /// Whether `repro all` runs it.
    pub in_all: bool,
    /// The CSV a `repro serve` job of this command answers with; `None`
    /// means the daemon does not run it.
    pub served: Option<&'static str>,
    /// The sweep grid, for commands whose units can be dispatched to
    /// workers.
    pub grid: Option<Grid>,
}

const fn cmd(name: &'static str, run: Run, help: &'static str) -> Command {
    Command {
        name,
        help,
        run,
        in_all: false,
        served: None,
        grid: None,
    }
}

impl Command {
    const fn all(mut self) -> Command {
        self.in_all = true;
        self
    }

    const fn served(mut self, csv: &'static str) -> Command {
        self.served = Some(csv);
        self
    }

    const fn grid(mut self, grid: Grid) -> Command {
        self.grid = Some(grid);
        self
    }
}

/// Every command, in `repro help` order (hidden ones last).
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    cmd("table1", Opts(tables::table1), "diamond counts per early adopter").all(),
    cmd("table2", Opts(tables::table2), "topology summaries (base vs augmented graph)").all(),
    cmd("table3", Opts(tables::table3), "CP mean path lengths (base vs augmented)").all(),
    cmd("table4", Opts(tables::table4), "CP vs Tier-1 degrees (base vs augmented)").all(),
    cmd("fig2", Opts(gadget_demos::fig2), "the DIAMOND competition narrative").all(),
    cmd("fig3", Opts(casestudy::fig3), "case study: newly secure ASes/ISPs per round").all(),
    cmd("fig4", Opts(casestudy::fig4), "case study: normalized utility traces").all(),
    cmd("fig5", Opts(casestudy::fig5), "case study: median (projected) utility of next-round adopters").all(),
    cmd("fig6", Opts(casestudy::fig6), "case study: cumulative ISP adoption by degree").all(),
    cmd("fig7", Opts(extensions::fig7), "deployment chain reactions").all(),
    cmd("fig8", Opts(sweeps::fig8), "fraction of ASes (a) and ISPs (b) secure vs theta, per adopter set")
        .all().served("fig8a_ases.csv").grid(sweeps::fig8_grid),
    cmd("fig9", Opts(sweeps::fig9), "fraction of secure paths vs theta; f^2 comparison")
        .all().served("fig9_secure_paths.csv").grid(sweeps::fig9_grid),
    cmd("fig10", Opts(census::fig10), "tiebreak-set census (+ section 6.7 decision fractions)").all(),
    cmd("fig11", Opts(sweeps::fig11), "sensitivity to stubs breaking ties on security")
        .all().served("fig11_stub_sensitivity.csv").grid(sweeps::fig11_grid),
    cmd("fig12", Opts(sweeps::fig12), "CPs vs Tier-1s: traffic share x sweep, base vs augmented")
        .all().served("fig12_cp_vs_tier1.csv").grid(sweeps::fig12_grid),
    cmd("fig13", Opts(gadget_demos::fig13), "buyer's remorse (turn-off incentive); --census runs the 7.3 search").all(),
    cmd("fig14", Opts(projection::fig14), "projected vs actual utility accuracy").all(),
    cmd("fig15", Opts(gadget_demos::fig15), "partial-security attack demo").all(),
    cmd("fig16", Opts(gadget_demos::fig16), "set-cover reduction demo (Theorem 6.1)").all(),
    cmd("fig17", Opts(gadget_demos::fig17), "oscillator: endless on/off cycling (incoming model)").all(),
    cmd("fig20", Opts(gadget_demos::fig20), "AND gadget truth table").all(),
    cmd("fig21", Opts(gadget_demos::fig21), "CHICKEN gadget bimatrix (Table 5)").all(),
    cmd("fault", Opts(faults::fault), "hijack deception per link-failure rate (topology churn)").all(),
    cmd("chaos", Opts(chaos::chaos), "torture test: run a sweep sharded with worker kills, prove the\n\
        output byte-identical to the single-process no-fault run;\n\
        --net adds TCP workers under seeded network-fault schedules\n\
        (frame drops, torn mid-frame disconnects, coordinator\n\
        SIGKILL + --resume) with the same byte-identical gate;\n\
        --storage runs seeded disk-fault schedules (EIO, ENOSPC,\n\
        torn writes, crash-before-rename, read corruption, plus\n\
        SIGKILL + --resume) against the artifact store instead;\n\
        --serve tortures the simulation service (daemon SIGKILL +\n\
        journal replay, worker kills, disk faults under the journal)\n\
        gated on served results byte-identical to one-shot runs"),
    cmd("worker", Args(net::worker_cmd), "long-lived TCP sweep worker; coordinators dispatch to it via\n\
        --workers and it survives their crashes"),
    cmd("serve", Opts(serve::serve_cmd), "long-lived simulation service: accepts sweep jobs over HTTP\n\
        (POST /jobs, GET /jobs/:id[/result], /healthz, /stats), keeps\n\
        hot routing atlases cached across jobs, journals the queue for\n\
        crash recovery, and drains gracefully on SIGTERM"),
    cmd("bench", Opts(benchcmd::bench), "time the engine's round kernel; write BENCH_engine.json"),
    cmd("scenario", Opts(scenario::scenario), "adversarial scenario surface: attack models × defense policies ×\n\
        sampled (attacker, victim) pairs, evaluated against per-round\n\
        deployment snapshots (--pairs, --attacks, --policies,\n\
        --pair-strategy; --self-check audits against the oracle)")
        .all().served("scenario_surface.csv"),
    cmd("ext-resilience", Opts(extensions::ext_resilience), "origin-hijack deception across the deployment process").all(),
    cmd("ext-theta", Opts(extensions::ext_theta), "randomized per-ISP thresholds (Section 8.2)").all(),
    cmd("ext-disable", Opts(extensions::ext_disable), "optimal per-destination disable (Section 7.1)").all(),
    cmd("ext-greedy", Opts(extensions::ext_greedy), "greedy early-adopter selection vs degree heuristic").all(),
    cmd("ext-incoming", Opts(extensions::ext_incoming), "the case study under the incoming-utility model").all(),
    cmd("all", Opts(run_all), "everything above"),
    cmd("doctor", Args(doctor::doctor), "validate graph/checkpoint/config files and supervisor artifacts\n\
        (torn journals, stale locks/scratch dirs); --fix salvages them"),
    cmd("help", Opts(help_cmd), ""),
    cmd("--help", Opts(help_cmd), ""),
    cmd("-h", Opts(help_cmd), ""),
    // A `--process-shards` supervisor's child: frames on stdin/stdout.
    cmd("__shard-worker", Exit(shards::worker_main), ""),
    // Panics deterministically: the chaos and integration suites submit
    // it to prove the daemon's quarantine path.
    cmd("__poison", Opts(poison), "").served("poison.csv"),
];

/// The command called `name`.
pub fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn run_all(opts: &Options) -> Result<(), ExperimentError> {
    for c in COMMANDS.iter().filter(|c| c.in_all) {
        if let Opts(run) = c.run {
            run(opts)?;
        }
    }
    Ok(())
}

fn help_cmd(_opts: &Options) -> Result<(), ExperimentError> {
    help();
    Ok(())
}

fn poison(_opts: &Options) -> Result<(), ExperimentError> {
    panic!("__poison: deterministic panic for quarantine testing");
}

/// Print `repro help`: usage, the COMMANDS block rendered from the
/// registry, then the options.
pub fn help() {
    print!("{USAGE}");
    for c in COMMANDS.iter().filter(|c| !c.help.is_empty()) {
        // Names too long for the 8-wide column line up at 15.
        let width = if c.name.len() > 8 { 15 } else { 8 };
        for (i, line) in c.help.lines().enumerate() {
            let name = if i == 0 { c.name } else { "" };
            println!("  {name:width$} {line}");
        }
    }
    println!("{OPTIONS}");
}

const USAGE: &str = "repro — regenerate every table and figure of
'Let the Market Drive Deployment' (SIGCOMM 2011) on a synthetic topology.

USAGE: repro <command> [--ases N] [--seed S] [--theta T] [--cp-fraction X]
             [--threads K] [--out DIR] [--census] [--config FILE]
             [--resume] [--checkpoint-every N] [--fail-links R] [--self-check RATE]
       repro doctor [--fix] <file-or-dir>...
       repro worker --listen ADDR [--port-file PATH]
       repro serve [--listen ADDR] [--port-file PATH] [--queue-bound N]
             [--client-inflight N] [--ctx-cache-mb MB] [--out DIR]

COMMANDS
";

const OPTIONS: &str = "
FAULT TOLERANCE
  --resume              resume sweep commands (fig8/9/11/12) from checkpoint
  --checkpoint-every N  journal every finished sweep unit (fsync'd append) and
                        compact the journal into the checkpoint at most every
                        N units, and only once it holds as many units as the
                        checkpoint (saves after units 1, 2, 4, 8, ... and at
                        the end); --resume reads both
  --fail-links R        degrade the topology: drop each link w.p. R (seeded)
  --disk-chaos SPEC     seeded fault injection on every artifact-store
                        operation (checkpoints, journals, locks, CSVs);
                        SPEC is `eio=P,enospc=P,torn=P,crash=P,corrupt=P,
                        latency=P,latency-ms=MS,seed=S` (any subset)

PROCESS SHARDING (sweep commands)
  --process-shards N    dispatch sweep units to N crash-isolated worker
                        processes; results bit-identical at any shard count
  --kill-workers R      chaos: SIGKILL a worker w.p. R after each unit
  --watchdog-secs S     declare a silent worker dead after S seconds (30)
  --restart-budget N    worker restarts allowed per run (8; chaos kills exempt)
  --worker-mem-mb MB    per-worker address-space ulimit (unix; 0 = unlimited)

DISTRIBUTED SWEEPS (sweep commands)
  --workers H:P,...     dispatch sweep units to remote `repro worker`s over
                        TCP instead of local processes; byte-identical output
  --remote-floor N      when fewer than N remote workers stay reachable,
                        degrade to local process shards (default 1)
  --lease-secs S        requeue a dispatched unit if its worker makes no
                        progress for S seconds (default 120)
  --net-chaos SPEC      seeded fault injection on every remote link; SPEC is
                        `drop=P,dup=P,delay=P,delay-ms=MS,torn=P,
                        partition=P,partition-frames=N,seed=S` (any subset)

SELF-CHECKING
  --self-check RATE     replay this fraction of destinations through the
                        reference oracle; mismatches are shrunk to minimal
                        counterexample artifacts and reported, not fatal
  --config FILE         load `key = value` options (later flags override)

ADVERSARIAL SCENARIOS (scenario command)
  --pairs N             (attacker, victim) pairs sampled per surface cell (40)
  --attacks LIST        comma list of hijack|forgery|leak|downgrade, or `all`
  --policies LIST       comma list of sec1|sec2|sec3 with optional +rov,
                        +symmetric, +stubs-ignore suffixes
  --pair-strategy S     random | degree | greedy[:K] (probe K candidate
                        attackers per victim, keep the most damaging)

SIMULATION SERVICE (serve command)
  --listen ADDR         bind address (default 127.0.0.1:7411; port 0 = any)
  --port-file PATH      publish the bound address atomically (for port 0)
  --queue-bound N       admission bound on queued jobs; beyond it POSTs get
                        a typed 429 with a retry-after hint (default 16)
  --client-inflight N   per-client cap on unfinished jobs (default 8)

PERFORMANCE
  --ctx-cache-mb MB     memory budget for the frozen-context routing atlas
                        (default 256; 0 disables it — results identical)
  --delta-projections M candidate projections: `auto` (delta repair with a
                        size cutoff, default), `on` (delta always), `off`
                        (full recompute) — results bit-identical either way

DEFAULTS: --ases 1000  --seed 42  --theta 0.05  --cp-fraction 0.10 --threads 1";

#[cfg(test)]
mod tests {
    use super::*;

    fn names(filter: impl Fn(&Command) -> bool) -> Vec<&'static str> {
        COMMANDS
            .iter()
            .filter(|c| filter(c))
            .map(|c| c.name)
            .collect()
    }

    #[test]
    fn registry_declares_each_command_consistently() {
        let all = names(|c| c.in_all);
        assert_eq!(
            all,
            [
                "table1",
                "table2",
                "table3",
                "table4",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig20",
                "fig21",
                "fault",
                "scenario",
                "ext-resilience",
                "ext-theta",
                "ext-disable",
                "ext-greedy",
                "ext-incoming",
            ],
            "`repro all` runs the 29 figure commands in help order"
        );
        for c in COMMANDS {
            if c.grid.is_some() {
                assert!(c.served.is_some(), "grid command {} must be served", c.name);
            }
            if let Some(csv) = c.served {
                assert!(csv.ends_with(".csv"), "{} must name a CSV", c.name);
                assert!(
                    matches!(c.run, Run::Opts(_)),
                    "served {} runs on options",
                    c.name
                );
            }
            if c.in_all {
                assert!(
                    matches!(c.run, Run::Opts(_)),
                    "{} in `all` runs on options",
                    c.name
                );
            }
        }
        for hidden in ["__poison", "__shard-worker"] {
            let c = find(hidden).expect("hidden commands are registered");
            assert!(c.help.is_empty() && !c.in_all, "{hidden} must stay hidden");
        }
        assert_eq!(
            names(|c| c.grid.is_some()),
            ["fig8", "fig9", "fig11", "fig12"]
        );
        assert_eq!(
            names(|c| c.served.is_some() && !c.help.is_empty()),
            ["fig8", "fig9", "fig11", "fig12", "scenario"]
        );
        assert!(find("fig10").is_some_and(|c| c.served.is_none()));
        assert!(find("bogus").is_none());
        let mut sorted = names(|_| true);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), COMMANDS.len(), "names are unique");
    }
}
