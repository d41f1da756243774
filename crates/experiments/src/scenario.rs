//! `repro scenario` — the adversarial scenario surface.
//!
//! Section 6.4 defers "resiliency to attack" to future work; this
//! command is that study generalized: it runs the case-study
//! deployment simulation, snapshots the secure set per round, and
//! crosses every snapshot with the configured attack models
//! (`--attacks`), defense policies (`--policies`) and sampled
//! (attacker, victim) pairs (`--pairs`, `--pair-strategy`). The
//! result is two CSVs:
//!
//! * `scenario_surface` — one row per (snapshot, attack, policy)
//!   cell with the mean deceived / reached / unreachable fractions;
//! * `scenario_deltas` — per (attack, policy), the pre-deployment
//!   deceived fraction vs the final round's, and their difference
//!   (the security dividend the deployment process bought).
//!
//! `--self-check RATE` differentially replays that fraction of
//! scenarios through the slow reference oracle; mismatches print as
//! replayable `SELF-CHECK VIOLATION` artifacts on stderr.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::output::{heading, Table};
use crate::world::{
    case_study_adopters, case_study_config, report_integrity, weights, World, TIEBREAK,
};
use sbgp_core::scenario::{run_surface, ScenarioCell, ScenarioConfig, ScenarioSnapshot};
use sbgp_core::Simulation;
use sbgp_routing::SecureSet;

/// How many deployment-round snapshots the surface evaluates (plus
/// the all-insecure "pre" state). Rounds beyond this are thinned
/// evenly, always keeping the first and the final round.
const MAX_ROUND_SNAPSHOTS: usize = 8;

/// Format a mean fraction with enough digits that the golden CSVs
/// pin the aggregation bit-for-bit in practice.
fn f6(x: f64) -> String {
    format!("{x:.6}")
}

/// The deployment-round snapshots to attack: `pre` (nobody secure),
/// then at most [`MAX_ROUND_SNAPSHOTS`] evenly thinned rounds, the
/// last labeled `final`.
fn snapshot_schedule(n: usize, states: Vec<SecureSet>) -> Vec<ScenarioSnapshot> {
    let mut snaps = vec![ScenarioSnapshot {
        label: "pre".into(),
        state: SecureSet::new(n),
    }];
    let rounds = states.len();
    let picks: Vec<usize> = if rounds <= MAX_ROUND_SNAPSHOTS {
        (0..rounds).collect()
    } else {
        (0..MAX_ROUND_SNAPSHOTS)
            .map(|k| k * (rounds - 1) / (MAX_ROUND_SNAPSHOTS - 1))
            .collect()
    };
    let mut states: Vec<Option<SecureSet>> = states.into_iter().map(Some).collect();
    for &i in &picks {
        snaps.push(ScenarioSnapshot {
            label: if i + 1 == rounds {
                "final".into()
            } else {
                format!("round{i}")
            },
            state: states[i].take().expect("thinned picks are distinct"),
        });
    }
    snaps
}

/// Adversarial scenarios across the deployment process.
pub fn scenario(opts: &Options) -> Result<(), ExperimentError> {
    heading("Adversarial scenarios: attacks × policies across the deployment process");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let res = Simulation::new(g, &w, &TIEBREAK, case_study_config(opts))
        .run(&case_study_adopters().select(g));
    report_integrity(&res);

    let snaps = snapshot_schedule(g.len(), res.states_by_round());
    let cfg = ScenarioConfig {
        attacks: opts.attacks.clone(),
        policies: opts.policies.clone(),
        pairs: opts.pairs,
        strategy: opts.pair_strategy,
        seed: opts.seed,
        threads: opts.threads,
        self_check: opts.self_check,
    };
    let surface = run_surface(g, &snaps, &cfg, &TIEBREAK);
    for m in &surface.mismatches {
        eprintln!("SELF-CHECK VIOLATION: {m}");
    }

    let mut t = Table::new(
        "scenario_surface",
        &[
            "snapshot",
            "secure ASes",
            "attack",
            "policy",
            "deceived",
            "reached victim",
            "unreachable",
            "sampled",
            "quarantined",
        ],
    );
    for c in &surface.cells {
        t.row(vec![
            c.snapshot.clone(),
            c.secure_ases.to_string(),
            c.attack.to_string(),
            c.policy.label(),
            f6(c.mean_deceived),
            f6(c.mean_reached),
            f6(c.mean_unreachable),
            c.sampled.to_string(),
            // Always 0 (the kernel settles every scenario); the column
            // stays because the ledger's goldens pin it.
            c.quarantined.len().to_string(),
        ]);
    }
    t.emit(opts)?;

    // The dividend table: what the deployment process bought against
    // each attack under each policy.
    let final_label = snaps.last().expect("pre is always present").label.clone();
    let cell = |label: &str, a, p: &sbgp_routing::ScenarioPolicy| -> Option<&ScenarioCell> {
        surface
            .cells
            .iter()
            .find(|c| c.snapshot == label && c.attack == a && &c.policy == p)
    };
    let mut d = Table::new(
        "scenario_deltas",
        &[
            "attack",
            "policy",
            "pre deceived",
            "final deceived",
            "dividend",
        ],
    );
    for &a in &cfg.attacks {
        for p in &cfg.policies {
            let (pre, fin) = (cell("pre", a, p), cell(&final_label, a, p));
            if let (Some(pre), Some(fin)) = (pre, fin) {
                d.row(vec![
                    a.to_string(),
                    p.label(),
                    f6(pre.mean_deceived),
                    f6(fin.mean_deceived),
                    f6(pre.mean_deceived - fin.mean_deceived),
                ]);
            }
        }
    }
    d.emit(opts)?;

    // The shape of this line is parsed by the ledger. The iterations
    // are the oracle's, on audited scenarios; nothing is quarantined.
    let s = surface.stats;
    println!(
        "[scenario] {} scenarios run, {} fixpoint iterations, {} downgrade(s) walked \
         past a validator, {} quarantined",
        s.scenarios_run, s.fixpoint_iters, s.downgrades_observed, s.quarantined
    );
    if s.oracle_checked > 0 || s.oracle_mismatches > 0 {
        println!(
            "[self-check] {} scenario audits, {} mismatch(es)",
            s.oracle_checked, s.oracle_mismatches
        );
    }
    Ok(())
}
