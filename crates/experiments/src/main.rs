//! `repro` — the reproduction harness.
//!
//! One subcommand per table and figure of the paper's evaluation; see
//! `repro help` (or DESIGN.md's per-experiment index). Each command
//! prints the rows/series the paper reports and, when `--out DIR` is
//! given, writes the same data as CSV. Commands return typed errors
//! ([`error::ExperimentError`]) — bad parameters, fault-injection
//! misuse, or checkpoint problems exit non-zero with a one-line
//! message instead of panicking.

mod cli;
mod commands;
mod doctor;
mod error;
mod harness;
mod output;
mod world;

mod benchcmd;
mod casestudy;
mod census;
mod chaos;
mod extensions;
mod faults;
mod gadget_demos;
mod net;
mod projection;
mod scenario;
mod serve;
mod shards;
mod signals;
mod sweeps;
mod tables;

use cli::Options;
use commands::Run;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        commands::help();
        std::process::exit(2);
    }
    let name = args.remove(0);
    let run = match commands::find(&name).map(|c| &c.run) {
        // Frames on stdin/stdout: nothing else may print there first.
        Some(Run::Exit(run)) => std::process::exit(run()),
        // Raw arguments (addresses, file paths), not experiment flags.
        Some(Run::Args(run)) => {
            if let Err(e) = run(&args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some(Run::Opts(run)) => Some(run),
        None => None,
    };
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(run) = run else {
        eprintln!("unknown command {name:?}; try `repro help`");
        std::process::exit(2);
    };
    if let Err(e) = run(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
