//! Invariant and metamorphic tests for the adversarial scenario layer,
//! pinned to the claims the paper family makes:
//!
//! * every scenario partitions the non-origin ASes exactly (deceived +
//!   reached + unreachable = n − 2);
//! * full (symmetric) deployment stops origin hijacks and path
//!   forgeries cold, and ROV stops protocol downgrades;
//! * a Lychev-style downgrade is at least as damaging as the plain
//!   hijack it camouflages, pair for pair (security-third, no ROV);
//! * with nobody deployed, an origin hijack deceives roughly half the
//!   Internet — the Goldberg et al. baseline the paper leans on.

use sbgp_asgraph::gen::{generate, GenParams};
use sbgp_asgraph::AsGraph;
use sbgp_core::scenario::{select_pairs, simulate_scenario, PairStrategy};
use sbgp_routing::{AttackModel, HashTieBreak, ScenarioPolicy, SecureSet};

fn world(seed: u64) -> AsGraph {
    generate(&GenParams::new(150, seed)).graph
}

/// A mid-deployment state: every other AS secure.
fn half_secure(g: &AsGraph) -> SecureSet {
    let mut s = SecureSet::new(g.len());
    for x in g.nodes().step_by(2) {
        s.set(x, true);
    }
    s
}

fn all_secure(g: &AsGraph) -> SecureSet {
    let mut s = SecureSet::new(g.len());
    for x in g.nodes() {
        s.set(x, true);
    }
    s
}

#[test]
fn every_scenario_partitions_the_nonorigin_ases() {
    let g = world(3);
    let states = [SecureSet::new(g.len()), half_secure(&g), all_secure(&g)];
    let policies = [
        ScenarioPolicy::security_third(),
        ScenarioPolicy::security_third().with_rov(),
        ScenarioPolicy::security_second(),
        ScenarioPolicy::security_first(),
    ];
    for (attacker, victim) in select_pairs(&g, PairStrategy::SeededRandom, 4, 7) {
        for state in &states {
            for &attack in &AttackModel::ALL {
                for policy in &policies {
                    let run = simulate_scenario(
                        &g,
                        state,
                        policy,
                        attack,
                        attacker,
                        victim,
                        &HashTieBreak,
                    );
                    let o = &run.outcome;
                    assert_eq!(
                        o.deceived + o.reached_victim + o.unreachable,
                        g.len() - 2,
                        "{attack} under {} leaks nodes from the partition",
                        policy.label()
                    );
                    assert_eq!(o.verdicts.len(), g.len());
                }
            }
        }
    }
}

#[test]
fn full_symmetric_deployment_stops_hijack_and_forgery() {
    let g = world(5);
    let state = all_secure(&g);
    // Symmetric: stubs validate too, so *every* non-attacker AS drops
    // the bogus announcement — the end state the transition aims for.
    let policy = ScenarioPolicy::security_third().symmetric();
    for (attacker, victim) in select_pairs(&g, PairStrategy::DegreeStratified, 6, 11) {
        for attack in [AttackModel::OriginHijack, AttackModel::PathForgery] {
            let run =
                simulate_scenario(&g, &state, &policy, attack, attacker, victim, &HashTieBreak);
            assert_eq!(
                run.outcome.deceived, 0,
                "{attack} deceived someone under full symmetric deployment"
            );
        }
    }
}

#[test]
fn rov_stops_downgrades_that_path_validation_cannot() {
    let g = world(5);
    let state = all_secure(&g);
    let plain = ScenarioPolicy::security_third().symmetric();
    let rov = plain.with_rov();
    let mut evaded = 0usize;
    for (attacker, victim) in select_pairs(&g, PairStrategy::SeededRandom, 8, 13) {
        let down = |p: &ScenarioPolicy| {
            simulate_scenario(
                &g,
                &state,
                p,
                AttackModel::Downgrade,
                attacker,
                victim,
                &HashTieBreak,
            )
            .outcome
            .deceived
        };
        // The downgrade walks past path validation entirely...
        evaded += down(&plain);
        // ...but the forged one-hop origin is exactly what ROV checks.
        assert_eq!(down(&rov), 0, "ROV should reject the downgraded origin");
    }
    assert!(
        evaded > 0,
        "a downgrade should deceive someone despite full path-validator deployment"
    );
}

#[test]
fn downgrade_is_at_least_as_damaging_as_the_hijack_it_hides() {
    // Lychev monotonicity: under security-third without ROV, the
    // downgrade's announcement is the hijack's minus the rejections,
    // so its deceived set can only grow — pair for pair, not just on
    // average.
    let policy = ScenarioPolicy::security_third();
    for seed in [3, 5, 9] {
        let g = world(seed);
        let state = half_secure(&g);
        for (attacker, victim) in select_pairs(&g, PairStrategy::SeededRandom, 6, seed) {
            let run = |attack| {
                simulate_scenario(&g, &state, &policy, attack, attacker, victim, &HashTieBreak)
                    .outcome
                    .deceived
            };
            let (hijack, downgrade) = (run(AttackModel::OriginHijack), run(AttackModel::Downgrade));
            assert!(
                downgrade >= hijack,
                "seed {seed}, pair ({}, {}): downgrade {downgrade} < hijack {hijack}",
                attacker.0,
                victim.0
            );
        }
    }
}

#[test]
fn with_nobody_deployed_a_hijack_takes_about_half_the_internet() {
    // Goldberg et al.'s baseline (the paper's motivation): a random
    // origin hijack against an undefended Internet splits it roughly
    // in half between victim and attacker.
    let g = world(42);
    let state = SecureSet::new(g.len());
    let policy = ScenarioPolicy::security_third();
    let pairs = select_pairs(&g, PairStrategy::SeededRandom, 20, 42);
    let mut mean = 0.0;
    for &(attacker, victim) in &pairs {
        let run = simulate_scenario(
            &g,
            &state,
            &policy,
            AttackModel::OriginHijack,
            attacker,
            victim,
            &HashTieBreak,
        );
        mean += run.outcome.deceived_fraction();
    }
    mean /= pairs.len() as f64;
    assert!(
        (0.25..=0.75).contains(&mean),
        "undefended hijack deceived {mean:.3} of the Internet, expected roughly half"
    );
}
