//! Reproducibility: everything must be a pure function of (seed,
//! parameters) — same results run-to-run and across thread counts.
//! Checkpoint/resume rides on this guarantee: a resumed sweep must be
//! bit-identical to an uninterrupted one, which the lower half of this
//! file pins down.

use sbgp_asgraph::gen::{generate, GenParams};
use sbgp_asgraph::Weights;
use sbgp_core::checkpoint::{params_fingerprint, SweepCheckpoint};
use sbgp_core::storage::Store;
use sbgp_core::{EarlyAdopters, SimConfig, SimResult, Simulation};
use sbgp_routing::HashTieBreak;

fn run(threads: usize, seed: u64) -> (Vec<u32>, usize, Vec<usize>) {
    let g = generate(&GenParams::new(400, seed)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    let cfg = SimConfig {
        theta: 0.05,
        threads,
        ..SimConfig::default()
    };
    let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g);
    let res = Simulation::new(&g, &w, &HashTieBreak, cfg).run(&adopters);
    let secure: Vec<u32> = res.final_state.iter().map(|a| a.0).collect();
    let per_round: Vec<usize> = res.rounds.iter().map(|r| r.turned_on.len()).collect();
    (secure, res.rounds.len(), per_round)
}

#[test]
fn identical_across_repeat_runs() {
    assert_eq!(run(1, 42), run(1, 42));
}

#[test]
fn identical_across_thread_counts() {
    // Floating-point reduction order differs between thread counts,
    // but the Eq. 3 decisions (and hence the trajectory) must not.
    assert_eq!(run(1, 42), run(4, 42));
    assert_eq!(run(1, 7), run(3, 7));
}

#[test]
fn different_seeds_give_different_worlds() {
    assert_ne!(run(1, 42).0, run(1, 43).0);
}

#[test]
fn graph_generation_is_stable_against_itself() {
    let a = generate(&GenParams::new(300, 9));
    let b = generate(&GenParams::new(300, 9));
    let ea: Vec<_> = a.graph.edges().collect();
    let eb: Vec<_> = b.graph.edges().collect();
    assert_eq!(ea, eb);
    assert_eq!(a.ixp_members, b.ixp_members);
}

/// One θ-sweep unit, as the experiments harness runs it.
fn sweep_unit(theta: f64) -> SimResult {
    let g = generate(&GenParams::new(200, 42)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    let cfg = SimConfig {
        theta,
        ..SimConfig::default()
    };
    let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g);
    Simulation::new(&g, &w, &HashTieBreak, cfg).run(&adopters)
}

#[test]
fn checkpoint_round_trip_is_bit_identical() {
    // Serialize a mid-sweep checkpoint, reload it, and verify the
    // stored results are exactly the ones computed — including the
    // f64 bit patterns (the codec stores raw IEEE-754 bits, so no
    // decimal round-trip error can creep in).
    let dir = std::env::temp_dir().join("sbgp_determinism_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::localdisk(&dir);
    let fp = params_fingerprint(&["ases=200", "seed=42", "cp=0.10"]);

    let mut ckpt = SweepCheckpoint::new(fp);
    for theta in [0.0, 0.05, 0.10] {
        ckpt.insert(format!("theta={theta}"), sweep_unit(theta));
    }
    ckpt.save_to(&store, "roundtrip.ckpt").unwrap();

    let restored = SweepCheckpoint::load_from(&store, "roundtrip.ckpt", fp).unwrap();
    for theta in [0.0, 0.05, 0.10] {
        let original = sweep_unit(theta);
        let stored = restored.get(&format!("theta={theta}")).unwrap();
        assert_eq!(*stored, original);
        for (a, b) in original
            .starting_utilities
            .iter()
            .zip(stored.starting_utilities.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "utilities must be bit-exact");
        }
        assert_eq!(original.final_state, stored.final_state);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_to_identical_results() {
    // Simulate an interrupted θ-sweep: the first run completes two of
    // four units and checkpoints; the "resumed" run loads them, reuses
    // them verbatim, and computes the rest. The combined results must
    // equal an uninterrupted sweep's, unit for unit.
    let dir = std::env::temp_dir().join("sbgp_determinism_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::localdisk(&dir);
    let fp = params_fingerprint(&["ases=200", "seed=42", "cp=0.10"]);
    let thetas = [0.0, 0.05, 0.10, 0.20];

    // First run: interrupted after two units.
    let mut first = SweepCheckpoint::new(fp);
    for &theta in &thetas[..2] {
        first.insert(format!("theta={theta}"), sweep_unit(theta));
    }
    first.save_to(&store, "sweep.ckpt").unwrap();

    // Resumed run: finish the sweep from the checkpoint.
    let mut resumed = SweepCheckpoint::load_from(&store, "sweep.ckpt", fp).unwrap();
    assert_eq!(resumed.len(), 2, "two units survive the interruption");
    let finished: Vec<SimResult> = thetas
        .iter()
        .map(|theta| {
            let key = format!("theta={theta}");
            match resumed.get(&key) {
                Some(prev) => prev.clone(),
                None => {
                    let r = sweep_unit(*theta);
                    resumed.insert(key, r.clone());
                    r
                }
            }
        })
        .collect();

    // Uninterrupted reference sweep.
    for (theta, from_resume) in thetas.iter().zip(finished.iter()) {
        assert_eq!(*from_resume, sweep_unit(*theta));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
