//! Integration tests for supervised process-sharded execution.
//!
//! The contract: `--process-shards N` changes *how* a sweep is
//! computed (child worker processes under a supervisor) but never
//! *what* it computes — final CSVs are byte-identical to the
//! single-process run at any shard count, under injected worker
//! kills, and across a SIGKILL of the supervisor itself followed by
//! `--resume`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-shards-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `repro fig9` with the given extra flags into `out`, returning
/// (stdout, stderr) and asserting success.
fn fig9(ases: &str, out: &Path, extra: &[&str]) -> (String, String) {
    let o = repro()
        .args(["fig9", "--ases", ases, "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("repro runs");
    assert!(
        o.status.success(),
        "repro fig9 {extra:?} failed:\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    (
        String::from_utf8_lossy(&o.stdout).into_owned(),
        String::from_utf8_lossy(&o.stderr).into_owned(),
    )
}

fn csv(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("fig9_secure_paths.csv")).expect("fig9 CSV exists")
}

/// The `[engine]` summary lines — satellite check that worker stats
/// cross the process boundary (without propagation the gate
/// `dests_computed + dests_reused > 0` fails and no line is printed).
fn engine_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("[engine]"))
        .collect()
}

/// The pass count of an `[engine] N passes: …` summary.
fn passes(lines: &[&str]) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix("[engine] ")?.split_once(" passes:"))
        .and_then(|(n, _)| n.parse().ok())
        .expect("an [engine] pass-count line")
}

#[test]
fn sharded_sweep_is_byte_identical_to_single_process() {
    let single = tmp("single");
    let one = tmp("one-shard");
    let sharded = tmp("sharded");
    let (out_single, _) = fig9("150", &single, &[]);
    let (out_one, _) = fig9("150", &one, &["--process-shards", "1"]);
    let (out_sharded, err) = fig9("150", &sharded, &["--process-shards", "4"]);
    assert_eq!(csv(&single), csv(&sharded), "CSV diverged across shards");
    assert_eq!(csv(&single), csv(&one), "CSV diverged on one shard");
    assert!(
        err.contains("across 4 worker process(es)"),
        "supervisor did not dispatch: {err}"
    );
    // Workers compute one unit per call, so engine counters are sums
    // over the same one-cell runs at any shard count: the summary lines
    // must match exactly, proving the stats frames carried every
    // counter across the process boundary.
    let want = engine_lines(&out_one);
    assert!(!want.is_empty(), "no [engine] summary with one shard");
    assert_eq!(
        want,
        engine_lines(&out_sharded),
        "engine counters lost or distorted in sharded mode"
    );
    // In-process, each group of units runs as one branching trajectory
    // and shares its engine passes.
    let inproc = engine_lines(&out_single);
    assert!(
        passes(&inproc) < passes(&want),
        "branching saved no passes: {inproc:?} vs {want:?}"
    );
    let _ = std::fs::remove_dir_all(&single);
    let _ = std::fs::remove_dir_all(&one);
    let _ = std::fs::remove_dir_all(&sharded);
}

#[test]
fn kill_injected_workers_still_produce_identical_output() {
    let single = tmp("chaos-ref");
    let chaotic = tmp("chaos-run");
    fig9("150", &single, &[]);
    let (_, err) = fig9(
        "150",
        &chaotic,
        &[
            "--process-shards",
            "4",
            "--kill-workers",
            "0.3",
            "--watchdog-secs",
            "10",
        ],
    );
    assert_eq!(csv(&single), csv(&chaotic), "CSV diverged under chaos");
    // The kill schedule is seeded; at rate 0.3 over this sweep at
    // least one worker is SIGKILLed mid-run and its units requeued.
    assert!(err.contains("injected kill"), "no kill fired: {err}");
    let _ = std::fs::remove_dir_all(&single);
    let _ = std::fs::remove_dir_all(&chaotic);
}

#[test]
fn worker_memory_ceiling_leaves_results_intact() {
    let single = tmp("mem-ref");
    let capped = tmp("mem-run");
    fig9("150", &single, &[]);
    // A generous ceiling: the point is that the `ulimit -v` wrapper
    // path spawns, frames, and merges exactly like the direct one.
    fig9(
        "150",
        &capped,
        &["--process-shards", "2", "--worker-mem-mb", "8192"],
    );
    assert_eq!(csv(&single), csv(&capped), "CSV diverged under rlimit");
    let _ = std::fs::remove_dir_all(&single);
    let _ = std::fs::remove_dir_all(&capped);
}

#[test]
fn supervisor_sigkill_then_resume_is_byte_identical() {
    let reference = tmp("sigkill-ref");
    let crashed = tmp("sigkill-run");
    fig9("400", &reference, &[]);

    // Start the sharded sweep with per-unit checkpointing, then
    // SIGKILL the supervisor once at least one unit has been saved.
    let mut sup = repro()
        .args([
            "fig9",
            "--ases",
            "400",
            "--process-shards",
            "4",
            "--kill-workers",
            "0.2",
            "--checkpoint-every",
            "1",
            "--out",
        ])
        .arg(&crashed)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("supervisor starts");
    let ckpt = crashed.join("checkpoints").join("fig9.ckpt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(ckpt.exists(), "no checkpoint appeared before the deadline");
    // SIGKILL — no cleanup handlers run; lock and journal are left
    // behind for --resume (and `repro doctor`) to deal with.
    sup.kill().expect("kill supervisor");
    let _ = sup.wait();

    let (_, err) = fig9(
        "400",
        &crashed,
        &[
            "--process-shards",
            "4",
            "--kill-workers",
            "0.2",
            "--checkpoint-every",
            "1",
            "--resume",
        ],
    );
    assert_eq!(
        csv(&reference),
        csv(&crashed),
        "CSV diverged after supervisor SIGKILL + resume:\n{err}"
    );
    // finish() compacts: the journal and lock must be gone, only the
    // completed checkpoint remains.
    assert!(ckpt.exists(), "checkpoint removed by finish");
    assert!(
        !crashed.join("checkpoints").join("fig9.lock").exists(),
        "stale lock survived a clean finish"
    );
    assert!(
        !crashed.join("checkpoints").join("fig9.journal").exists(),
        "journal survived a clean finish"
    );
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn chaos_subcommand_self_checks() {
    let out = tmp("chaos-cmd");
    let o = repro()
        .args(["chaos", "--ases", "150", "--out"])
        .arg(&out)
        .output()
        .expect("repro chaos runs");
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "repro chaos failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(stdout.contains("[chaos] PASS"), "no PASS verdict: {stdout}");
    let _ = std::fs::remove_dir_all(&out);
}
