//! Beyond the paper's figures: the extensions its discussion sections
//! call for.
//!
//! * `fig7` — deployment chain reactions (the Figure 7 narrative:
//!   each deployment opens secure paths that trigger the next).
//! * `ext-resilience` — Section 6.4 defers "resiliency to attack" to
//!   future work; here it is: origin-hijack deception rates across the
//!   deployment process.
//! * `ext-theta` — Section 8.2 suggests randomizing θ to model
//!   heterogeneous costs and noisy projections.
//! * `ext-disable` — Section 7.1's per-destination S\*BGP disable,
//!   solved optimally per ISP.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::output::{f3, heading, pct, Table};
use crate::world::{
    case_study_adopters, case_study_config, report_integrity, weights, World, TIEBREAK,
};
use sbgp_asgraph::AsId;
use sbgp_core::{metrics, resilience, turnoff, SimConfig, Simulation};
use std::collections::HashMap;

/// Figure 7: chain reactions. For each deploying ISP, attribute its
/// move to a neighbor that deployed in an earlier round (if any), and
/// print the longest resulting chain.
pub fn fig7(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 7: deployment chain reactions");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let res = Simulation::new(g, &w, &TIEBREAK, case_study_config(opts))
        .run(&case_study_adopters().select(g));
    report_integrity(&res);

    // Round each ISP deployed in (0 = early adopter).
    let mut round_of: HashMap<AsId, usize> = HashMap::new();
    for &e in &res.early_adopters {
        round_of.insert(e, 0);
    }
    for r in &res.rounds {
        for &n in &r.turned_on {
            round_of.insert(n, r.round);
        }
    }
    // Predecessor: a neighbor that deployed in a strictly earlier
    // round (prefer the latest such — the proximate trigger).
    let pred = |n: AsId| -> Option<AsId> {
        let rn = round_of[&n];
        g.neighbors(n)
            .iter()
            .copied()
            .filter(|m| round_of.get(m).is_some_and(|&rm| rm < rn))
            .max_by_key(|m| round_of[m])
    };
    // Longest chain endpoint: deepest round with a full chain back.
    let mut best: Option<Vec<AsId>> = None;
    for (&n, _) in round_of.iter() {
        let mut chain = vec![n];
        let mut cur = n;
        while let Some(p) = pred(cur) {
            chain.push(p);
            cur = p;
            if round_of[&cur] == 0 {
                break;
            }
        }
        chain.reverse();
        if best.as_ref().is_none_or(|b| chain.len() > b.len()) {
            best = Some(chain);
        }
    }
    let chain = best.expect("at least the early adopters deployed");
    let mut t = Table::new(
        "fig7_chain",
        &["step", "AS (ASN)", "deployed in round", "degree"],
    );
    for (i, &n) in chain.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            g.asn(n).to_string(),
            round_of[&n].to_string(),
            g.degree(n).to_string(),
        ]);
    }
    t.emit(opts)?;
    println!(
        "each AS deployed after a neighbor did, extending secure paths\n\
         outward from the early adopters — the paper's Figure 7 mechanism"
    );
    Ok(())
}

/// Resilience to origin hijacks across the deployment process.
pub fn ext_resilience(opts: &Options) -> Result<(), ExperimentError> {
    heading("Extension: origin-hijack resilience across deployment (Section 6.4 future work)");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let cfg = case_study_config(opts);
    let res = Simulation::new(g, &w, &TIEBREAK, cfg).run(&case_study_adopters().select(g));
    report_integrity(&res);
    let states = metrics::states_by_round(&res);
    let pairs = 60;
    let mut t = Table::new(
        "ext_resilience",
        &["round", "secure ASes", "mean deceived fraction"],
    );
    // All-insecure baseline (the paper's "half the Internet" number).
    let insecure = sbgp_routing::SecureSet::new(g.len());
    let base =
        resilience::mean_deceived_fraction(g, &insecure, cfg.tree_policy, &TIEBREAK, pairs, 7);
    t.row(vec!["pre".into(), "0".into(), f3(base)]);
    for (i, state) in states.iter().enumerate() {
        let frac =
            resilience::mean_deceived_fraction(g, state, cfg.tree_policy, &TIEBREAK, pairs, 7);
        t.row(vec![i.to_string(), state.count().to_string(), f3(frac)]);
    }
    t.emit(opts)?;
    println!(
        "insecure baseline: an arbitrary attacker fools {} of ASes on average\n\
         (paper's motivation: 'about half'); deployment drives this down",
        pct(base)
    );
    Ok(())
}

/// Randomized per-ISP thresholds (Section 8.2).
pub fn ext_theta(opts: &Options) -> Result<(), ExperimentError> {
    heading("Extension: randomized per-ISP thresholds (Section 8.2)");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let adopters = case_study_adopters().select(g);
    let mut t = Table::new(
        "ext_theta",
        &["theta", "jitter", "secure ASes", "secure ISPs", "rounds"],
    );
    for &theta in &[0.05, 0.10, 0.20] {
        for &jitter in &[0.0, 0.25, 0.5, 1.0] {
            let cfg = SimConfig {
                theta,
                theta_jitter: jitter,
                theta_seed: 11,
                threads: opts.threads,
                ..case_study_config(opts)
            };
            let res = Simulation::new(g, &w, &TIEBREAK, cfg).run(&adopters);
            report_integrity(&res);
            t.row(vec![
                format!("{theta}"),
                format!("{jitter}"),
                f3(res.secure_as_fraction(g)),
                f3(res.secure_isp_fraction(g)),
                res.rounds.len().to_string(),
            ]);
        }
    }
    t.emit(opts)?;
    println!("cost heterogeneity smooths the adoption cliff but preserves the regimes");
    Ok(())
}

/// Optimal per-destination disable (Section 7.1).
pub fn ext_disable(opts: &Options) -> Result<(), ExperimentError> {
    heading("Extension: optimal per-destination S*BGP disable (Section 7.1)");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let cfg = case_study_config(opts);
    let res = Simulation::new(g, &w, &TIEBREAK, cfg).run(&case_study_adopters().select(g));
    report_integrity(&res);
    // Mid-process state: the richest mix of secure and insecure ASes.
    let states = metrics::states_by_round(&res);
    let state = &states[states.len() / 2];
    let mut t = Table::new(
        "ext_disable",
        &[
            "ISP (ASN)",
            "destinations disabled",
            "incoming-utility gain",
        ],
    );
    let mut found = 0;
    for isp in g.isps().filter(|&n| state.get(n)) {
        let (disabled, gain) =
            turnoff::optimal_selective_disable(g, &w, state, isp, cfg.tree_policy, &TIEBREAK);
        if !disabled.is_empty() {
            found += 1;
            if found <= 12 {
                t.row(vec![
                    g.asn(isp).to_string(),
                    disabled.len().to_string(),
                    f3(gain),
                ]);
            }
        }
    }
    t.emit(opts)?;
    println!(
        "{} secure ISPs could profit from selective disabling in the mid-process state\n\
         (unlike whole-network turn-off, this needs no trade-off — Section 7.1)",
        found
    );
    Ok(())
}

/// Greedy early-adopter selection vs the degree heuristic.
pub fn ext_greedy(opts: &Options) -> Result<(), ExperimentError> {
    heading("Extension: greedy early-adopter selection (Theorem 6.1 objective)");
    // Greedy runs k × pool full simulations; cap the world size.
    let capped = Options {
        ases: opts.ases.min(600),
        ..opts.clone()
    };
    let world = World::build(&capped)?;
    let g = world.base();
    let w = weights(g, &capped);
    let k = 5;
    let mut t = Table::new(
        "ext_greedy",
        &["theta", "strategy", "set (ASNs)", "secure ASes"],
    );
    for &theta in &[0.10, 0.20] {
        let cfg = SimConfig {
            theta,
            threads: capped.threads,
            ..case_study_config(&capped)
        };
        let sim = Simulation::new(g, &w, &TIEBREAK, cfg);
        let greedy = sbgp_core::greedy_select(g, &w, &TIEBREAK, cfg, k, 15);
        let degree = sbgp_core::EarlyAdopters::TopIspsByDegree(k).select(g);
        for (label, set) in [("greedy", &greedy), ("top-degree", &degree)] {
            let res = sim.run(set);
            t.row(vec![
                format!("{theta}"),
                label.to_string(),
                set.iter()
                    .map(|&n| g.asn(n).to_string())
                    .collect::<Vec<_>>()
                    .join("+"),
                f3(res.secure_as_fraction(g)),
            ]);
        }
    }
    t.emit(opts)?;
    println!("(optimal selection is NP-hard even to approximate — Theorem 6.1)");
    Ok(())
}

/// The case study under the *incoming* utility model (Section 7's
/// setting) — does the headline transition survive the model where
/// turn-offs and oscillations are possible?
pub fn ext_incoming(opts: &Options) -> Result<(), ExperimentError> {
    heading("Extension: the case study under the incoming-utility model (Section 7)");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let cfg = SimConfig {
        model: sbgp_core::UtilityModel::Incoming,
        max_rounds: 60,
        ..case_study_config(opts)
    };
    let res = Simulation::new(g, &w, &TIEBREAK, cfg).run(&case_study_adopters().select(g));
    report_integrity(&res);
    let mut t = Table::new(
        "ext_incoming",
        &["round", "turned on", "turned off", "secure ASes"],
    );
    for r in &res.rounds {
        t.row(vec![
            r.round.to_string(),
            r.turned_on.len().to_string(),
            r.turned_off.len().to_string(),
            r.secure_ases_after.to_string(),
        ]);
    }
    t.emit(opts)?;
    let total_offs: usize = res.rounds.iter().map(|r| r.turned_off.len()).sum();
    println!(
        "outcome: {:?}; {} turn-off events along the way; final: {} of ASes secure",
        res.outcome,
        total_offs,
        pct(res.secure_as_fraction(g))
    );
    Ok(())
}
