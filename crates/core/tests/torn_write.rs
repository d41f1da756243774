//! Crash-consistency property suite for the checkpoint/journal layer.
//!
//! A power loss or SIGKILL can truncate a file at **any** byte. The
//! contract under test: for every possible truncation point,
//!
//! * a checkpoint file either loads or fails with a typed
//!   [`CheckpointError`] — never a panic;
//! * a unit journal replays the salvaged record prefix exactly (the
//!   longest prefix of appends whose records survived intact) and
//!   reports the torn remainder — never a panic, never a wrong or
//!   reordered unit.
//!
//! Exhaustive over offsets rather than sampled: the files are small
//! and the failure modes (cut inside a header, inside a checksum,
//! inside a payload, at a record boundary) all occur at specific bytes.

use sbgp_asgraph::gen::{generate, GenParams};
use sbgp_asgraph::Weights;
use sbgp_core::checkpoint::{SweepCheckpoint, UnitJournal};
use sbgp_core::storage::Store;
use sbgp_core::{EarlyAdopters, EngineStats, SimConfig, SimResult, Simulation};
use sbgp_routing::HashTieBreak;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Two distinct, deterministic results to populate files with.
fn sample_results() -> Vec<(String, SimResult)> {
    let g = generate(&GenParams::new(120, 5)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    [
        ("cps;theta=0.05", EarlyAdopters::ContentProviders, 0.05),
        (
            "cps+top5;theta=0.1",
            EarlyAdopters::ContentProvidersPlusTopIsps(5),
            0.10,
        ),
    ]
    .into_iter()
    .map(|(key, adopters, theta)| {
        let cfg = SimConfig {
            theta,
            ..SimConfig::default()
        };
        let seeds = adopters.select(&g);
        let mut res = Simulation::new(&g, &w, &HashTieBreak, cfg).run(&seeds);
        // Persisted results carry zeroed stats by the codec's contract;
        // zero them up front so prefix comparisons are exact.
        res.stats = EngineStats::default();
        (key.to_string(), res)
    })
    .collect()
}

#[test]
fn checkpoint_truncated_at_every_byte_never_panics() {
    let dir = tmp_dir("ckpt");
    let store = Store::localdisk(&dir);
    let mut ckpt = SweepCheckpoint::new(7);
    for (key, res) in sample_results() {
        ckpt.insert(key, res);
    }
    ckpt.save_to(&store, "full.ckpt").expect("save checkpoint");
    let full = std::fs::read(dir.join("full.ckpt")).expect("read checkpoint");

    let cut_path = dir.join("cut.ckpt");
    let mut loaded_ok = 0usize;
    for cut in 0..=full.len() {
        std::fs::write(&cut_path, &full[..cut]).expect("write truncation");
        // Any outcome but a panic is acceptable; a successful parse
        // must also pass the fingerprint check.
        match SweepCheckpoint::load_from(&store, "cut.ckpt", 7) {
            Ok(c) => {
                loaded_ok += 1;
                assert!(
                    c.len() <= ckpt.len(),
                    "cut at {cut} produced more units than were saved"
                );
            }
            Err(e) => {
                // Typed error with a non-empty rendering.
                assert!(!e.to_string().is_empty(), "cut at {cut}: empty diagnostic");
            }
        }
    }
    // The untruncated file must be among the successes.
    assert!(loaded_ok >= 1, "the full file itself failed to load");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_truncated_at_every_byte_salvages_an_exact_prefix() {
    let dir = tmp_dir("journal");
    let store = Store::localdisk(&dir);
    let units = sample_results();
    let mut j = UnitJournal::open_in(&store, "full.journal").expect("open journal");
    for (key, res) in &units {
        j.append(key, res).expect("append");
    }
    drop(j);
    let full = std::fs::read(dir.join("full.journal")).expect("read journal");

    // Record boundaries: replaying ever-longer prefixes of the intact
    // file tells us how many whole records fit in any cut length.
    let cut_path = dir.join("cut.journal");
    let mut boundary_cuts = 0usize;
    for cut in 0..=full.len() {
        std::fs::write(&cut_path, &full[..cut]).expect("write truncation");
        let (salvaged, report) = UnitJournal::replay_in(&store, "cut.journal")
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        // The salvaged units must be an exact prefix of what was
        // appended — same keys, same results, same order.
        assert!(
            salvaged.len() <= units.len(),
            "cut at {cut}: too many units"
        );
        for (i, (key, res)) in salvaged.iter().enumerate() {
            assert_eq!(key, &units[i].0, "cut at {cut}: key {i} diverged");
            assert_eq!(res, &units[i].1, "cut at {cut}: result {i} diverged");
        }
        // Salvage accounting: valid + torn covers the cut exactly.
        assert_eq!(report.records, salvaged.len(), "cut at {cut}");
        assert_eq!(
            report.valid_bytes + report.torn_bytes,
            cut as u64,
            "cut at {cut}: salvage ranges must partition the file"
        );
        if report.is_clean() {
            boundary_cuts += 1;
        }
        // Salvaging then replaying must be clean and keep the prefix.
        UnitJournal::salvage_in(&store, "cut.journal")
            .unwrap_or_else(|e| panic!("salvage at {cut}: {e}"));
        let (again, clean) = UnitJournal::replay_in(&store, "cut.journal")
            .unwrap_or_else(|e| panic!("re-replay at {cut}: {e}"));
        assert!(clean.is_clean(), "cut at {cut}: salvage left a torn tail");
        assert_eq!(
            again.len(),
            salvaged.len(),
            "cut at {cut}: salvage lost units"
        );
    }
    // Clean cuts are exactly the record boundaries: one per record,
    // plus the empty file.
    assert_eq!(
        boundary_cuts,
        units.len() + 1,
        "unexpected number of clean truncation points"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
