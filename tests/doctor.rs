//! CLI integration for `repro doctor`: the valid fixtures pass, every
//! file in the malformed corpus is rejected with a non-zero exit and a
//! line-numbered diagnostic.

use std::path::PathBuf;
use std::process::Command;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn doctor_accepts_the_valid_fixtures() {
    let dir = fixtures();
    let graph = dir.join("valid.graph");
    let cfg = dir.join("valid.cfg");
    let out = repro(&["doctor", graph.to_str().unwrap(), cfg.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "doctor failed on valid fixtures:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("ok:"), "{stdout}");
    assert!(stdout.contains("graph with"), "{stdout}");
    assert!(stdout.contains("config ("), "{stdout}");
    assert!(stdout.contains("0 invalid"), "{stdout}");
}

#[test]
fn doctor_rejects_every_malformed_fixture() {
    let dir = fixtures().join("malformed");
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("malformed corpus exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(entries.len() >= 7, "corpus shrank: {entries:?}");
    for path in entries {
        let out = repro(&["doctor", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "doctor accepted malformed {path:?}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(stderr.contains("error:"), "{path:?}: {stderr}");
        assert!(
            stderr.contains("line"),
            "diagnostic for {path:?} lacks a line number: {stderr}"
        );
    }
}

#[test]
fn doctor_walks_directories_and_counts_failures() {
    let out = repro(&["doctor", fixtures().to_str().unwrap()]);
    assert!(!out.status.success(), "corpus contains malformed files");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The two valid files still validate inside the directory walk...
    assert!(stdout.contains("ok:"), "{stdout}");
    // ...and the summary counts every malformed one.
    assert!(stderr.contains("file(s) failed validation"), "{stderr}");
}

#[test]
fn doctor_without_arguments_is_an_error() {
    let out = repro(&["doctor"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

// ---- supervisor artifacts ------------------------------------------

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-doctor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A pid that is certainly dead: spawn a short-lived child and reap it.
fn dead_pid() -> u32 {
    let mut child = Command::new("true").spawn().expect("spawn true");
    let pid = child.id();
    child.wait().expect("reap");
    pid
}

/// Build a journal with one real record, then append torn garbage.
fn torn_journal(dir: &std::path::Path) -> PathBuf {
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::Weights;
    use sbgp_core::checkpoint::UnitJournal;
    use sbgp_core::storage::Store;
    use sbgp_core::{EarlyAdopters, SimConfig, Simulation};
    use sbgp_routing::HashTieBreak;

    let g = generate(&GenParams::new(120, 5)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    let res = Simulation::new(&g, &w, &HashTieBreak, SimConfig::default())
        .run(&EarlyAdopters::ContentProviders.select(&g));
    let mut j =
        UnitJournal::open_in(&Store::localdisk(dir), "sweep.journal").expect("open journal");
    j.append("cps;theta=0.05", &res).expect("append");
    drop(j);
    let path = dir.join("sweep.journal");
    let mut bytes = std::fs::read(&path).expect("read journal");
    bytes.extend_from_slice(b"rec 999 deadbeef\ntruncated mid-app");
    std::fs::write(&path, bytes).expect("write torn journal");
    path
}

#[test]
fn doctor_diagnoses_and_fixes_a_torn_journal() {
    let dir = tmp("journal");
    let path = torn_journal(&dir);
    let p = path.to_str().unwrap();

    let out = repro(&["doctor", p]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "torn journal accepted");
    assert!(stderr.contains("torn journal tail"), "{stderr}");
    assert!(stderr.contains("1 complete record(s)"), "{stderr}");
    assert!(stderr.contains("--fix"), "no salvage hint: {stderr}");

    let out = repro(&["doctor", "--fix", p]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--fix failed: {stdout}");
    assert!(stdout.contains("fixed: torn journal"), "{stdout}");

    // After salvage the journal is clean and keeps its one record.
    let out = repro(&["doctor", p]);
    assert!(out.status.success(), "salvaged journal still rejected");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("1 complete record(s)"),
        "salvage lost the valid record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_diagnoses_and_fixes_a_stale_sweep_lock() {
    let dir = tmp("lock");
    let path = dir.join("fig9.lock");
    std::fs::write(&path, format!("pid {}\n", dead_pid())).unwrap();
    let p = path.to_str().unwrap();

    let out = repro(&["doctor", p]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stale lock accepted");
    assert!(stderr.contains("stale sweep lock"), "{stderr}");

    let out = repro(&["doctor", "--fix", p]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("removed stale sweep lock"),
        "fix not reported"
    );
    assert!(!path.exists(), "--fix left the stale lock behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_accepts_a_lock_held_by_a_live_process() {
    let dir = tmp("livelock");
    let path = dir.join("fig9.lock");
    std::fs::write(&path, format!("pid {}\n", std::process::id())).unwrap();
    let out = repro(&["doctor", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("held by live process"),
        "live lock not recognized"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_rejects_a_malformed_lock_with_a_line_number() {
    let dir = tmp("badlock");
    let path = dir.join("fig9.lock");
    std::fs::write(&path, "owner: me\n").unwrap();
    let out = repro(&["doctor", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(stderr.contains("pid"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_diagnoses_and_fixes_a_dead_worker_scratch_dir() {
    let dir = tmp("scratch");
    let scratch = dir.join(format!("__shard-worker-{}", dead_pid()));
    std::fs::create_dir_all(&scratch).unwrap();
    std::fs::write(scratch.join("current"), "cps;theta=0.05").unwrap();

    // Directory walk treats the scratch dir as one unit.
    let out = repro(&["doctor", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "dead worker scratch accepted");
    assert!(stderr.contains("leftover scratch dir"), "{stderr}");
    assert!(
        stderr.contains("cps;theta=0.05"),
        "in-flight unit not named: {stderr}"
    );

    let out = repro(&["doctor", "--fix", dir.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(!scratch.exists(), "--fix left the scratch dir behind");
    let _ = std::fs::remove_dir_all(&dir);
}
