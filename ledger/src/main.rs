//! `ledger` — the layered performance ledger behind `BENCHMARK.json`.
//!
//! ```text
//! ledger --workload NAME --seed N [--seconds S] [--trace 0|1]
//!        [--trace-out FILE] [--record FILE] [--repro PATH] [--expected DIR]
//! ledger compare A.jsonl B.jsonl
//! ledger spec
//! ```
//!
//! With `--trace 0` (the default) it drives the `repro` binary next to
//! its own executable end to end and prints the end-to-end metrics.
//! With `--trace 1` it replays the same pipeline in-process with a
//! span around each call into a layer and prints the per-layer
//! metrics. Either way the outputs are checked byte for byte, the last
//! line of standard output is the result object, and any failed op
//! makes the exit code non-zero. See the README next to this crate.

mod compare;
mod e2e;
mod json;
mod layers;
mod proc;
mod replay;
mod report;
mod rng;
mod spec;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: &'static spec::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    record: Option<PathBuf>,
    repro: Option<PathBuf>,
    expected: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    // `--workload` is the one required flag: its position in `args`.
    let named = args
        .iter()
        .position(|a| a == "--workload")
        .and_then(|i| args.get(i + 1));
    let workload = named.and_then(|name| spec::workload(name)).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "--workload must be one of {}; got {named:?}",
            names.join(", ")
        )
    })?;
    let mut out = Args {
        workload,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        record: None,
        repro: None,
        expected: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace 0|1` for the driver; a bare `--trace` means 1.
            out.trace = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    false
                }
                Some("1") => {
                    it.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {}
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace-out" => out.trace_out = Some(value.into()),
            "--record" => out.record = Some(value.into()),
            "--repro" => out.repro = Some(value.into()),
            "--expected" => out.expected = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn run(args: &Args) -> Result<report::Report, String> {
    let repro = proc::Repro::locate(args.repro.as_deref())?;
    let scratch = proc::Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    // The checked-in expectations sit next to the sources; a missing
    // directory only means there is nothing extra to compare against.
    let expected = args
        .expected
        .clone()
        .unwrap_or_else(|| PathBuf::from("ledger/expected"));
    let ctx = e2e::Ctx {
        repro: &repro,
        scratch: &scratch,
        seed: args.seed,
        seconds: args.seconds,
        scale: &e2e::Scale::FULL,
        expected: expected.is_dir().then_some(expected.as_path()),
    };
    if !args.trace {
        return e2e::run(&ctx, args.workload.kind)
            .map_err(|e| format!("{}: {e}", args.workload.name));
    }
    let traced = layers::run(&ctx, args.workload.kind)
        .map_err(|e| format!("{}: {e}", args.workload.name))?;
    if let Some(path) = &args.trace_out {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        traced
            .tracer
            .write_jsonl(args.workload.name, &mut file)
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(traced.report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.print_human();
    if let Some(path) = &args.record {
        let line = report.record_line(args.workload.name, args.seed, args.trace);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("ledger: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
