//! Shared experiment setup: graph, weights, adopter sets.

use crate::cli::Options;
use crate::error::ExperimentError;
use sbgp_asgraph::augment::augment_cp_peering;
use sbgp_asgraph::fault::{apply_faults, FaultPlan, FaultReport};
use sbgp_asgraph::gen::{generate_checked, GenParams, Generated};
use sbgp_asgraph::{AsGraph, Weights};
use sbgp_core::checkpoint::params_fingerprint;
use sbgp_core::{EarlyAdopters, SimConfig, UtilityModel};
use sbgp_routing::{HashTieBreak, TreePolicy};

/// The standard experiment world: the generated base graph (our
/// Cyclops+IXP stand-in) and its Appendix D augmented variant.
pub struct World {
    /// Generated topology plus IXP membership.
    pub gen: Generated,
    /// The augmented graph (CPs peered to 80% of IXP members).
    pub augmented: AsGraph,
    /// What `--fail-links` removed from the base graph, if anything.
    pub fault_report: Option<FaultReport>,
}

impl World {
    /// Build both graphs from the options. With `--fail-links R`, the
    /// base graph is degraded by seeded random link failures *before*
    /// augmentation, so every experiment runs on the same churned
    /// topology. Errors (bad generator parameters, invalid fault
    /// rates) propagate instead of panicking.
    pub fn build(opts: &Options) -> Result<World, ExperimentError> {
        let mut gen = generate_checked(&gen_params(opts))?;
        let mut fault_report = None;
        if opts.fail_links > 0.0 {
            let plan = FaultPlan::links(opts.fail_links, opts.seed ^ 0x0fa1_17ed);
            let (degraded, report) = apply_faults(&gen.graph, &plan)?;
            // stderr, not stdout: in `__shard-worker` mode stdout is a
            // framed protocol channel and a stray line would corrupt it.
            eprintln!(
                "[faults] link failure rate {}: {}/{} edges survive",
                opts.fail_links, report.surviving_edges, report.total_edges
            );
            gen.graph = degraded;
            fault_report = Some(report);
        }
        let augmented = augment_cp_peering(&gen.graph, &gen.ixp_members, 0.8, opts.seed ^ 0xa6)?;
        Ok(World {
            gen,
            augmented,
            fault_report,
        })
    }

    /// The base graph.
    pub fn base(&self) -> &AsGraph {
        &self.gen.graph
    }
}

/// The generator parameters the options select: the paper-scale
/// preset, or the paper-shaped defaults at `--ases`.
fn gen_params(opts: &Options) -> GenParams {
    if opts.paper_scale {
        GenParams::paper_scale(opts.seed)
    } else {
        GenParams::new(opts.ases, opts.seed)
    }
}

/// Everything that shapes a [`World`]: option sets with equal keys
/// build identical graphs. Sweep checkpoints are fingerprinted by it
/// and `repro serve` caches atlases under it.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldKey {
    ases: usize,
    seed: u64,
    fail_links: f64,
    /// The generator parameters, when a preset chose other than the
    /// defaults for `ases` and `seed` (`--paper-scale` vs `--n 36964`).
    preset: Option<String>,
}

impl WorldKey {
    /// The key of the world `opts` builds.
    pub fn of(opts: &Options) -> WorldKey {
        let params = format!("{:?}", gen_params(opts));
        let defaults = format!("{:?}", GenParams::new(opts.ases, opts.seed));
        WorldKey {
            ases: opts.ases,
            seed: opts.seed,
            fail_links: opts.fail_links,
            preset: (params != defaults).then_some(params),
        }
    }

    /// The checkpoint fingerprint of sweep `cmd` over this world at CP
    /// traffic share `cp`. Runs without a preset keep the fingerprint
    /// they always had.
    pub fn fingerprint(&self, cmd: &str, cp: f64) -> u64 {
        let mut parts = vec![
            format!("cmd={cmd}"),
            format!("ases={}", self.ases),
            format!("seed={}", self.seed),
            format!("cp={cp}"),
            format!("fail_links={}", self.fail_links),
        ];
        parts.extend(self.preset.iter().map(|p| format!("gen={p}")));
        params_fingerprint(&parts)
    }
}

/// The paper's shared hash tiebreaker.
pub const TIEBREAK: HashTieBreak = HashTieBreak;

/// CP-skewed weights per the options.
pub fn weights(g: &AsGraph, opts: &Options) -> Weights {
    Weights::with_cp_fraction(g, opts.cp_fraction)
}

/// The case-study configuration (Section 5): θ from options,
/// outgoing utility, stubs break ties on security.
pub fn case_study_config(opts: &Options) -> SimConfig {
    SimConfig {
        theta: opts.theta,
        model: UtilityModel::Outgoing,
        tree_policy: TreePolicy {
            stubs_prefer_secure: true,
        },
        max_rounds: 100,
        threads: opts.threads,
        self_check: opts.self_check,
        ctx_cache_mb: opts.ctx_cache_mb,
        delta_projections: opts.delta_projections,
        ..SimConfig::default()
    }
}

/// Surface a single-run simulation's self-check tally. Sweeps get
/// this (plus artifact dumps) from the harness; every other command
/// calls this so a violation never goes unreported.
pub fn report_integrity(res: &sbgp_core::SimResult) {
    for v in &res.violations {
        eprintln!("SELF-CHECK VIOLATION: {}", v.detail);
    }
    if res.self_checked > 0 || !res.violations.is_empty() {
        println!(
            "[self-check] {} destination audits, {} violation(s)",
            res.self_checked,
            res.violations.len()
        );
    }
}

/// The case-study early adopters: the five CPs plus the top five
/// Tier-1s by degree (Section 5).
pub fn case_study_adopters() -> EarlyAdopters {
    EarlyAdopters::ContentProvidersPlusTopIsps(5)
}

/// The Figure 8 family of early-adopter sets.
///
/// The paper uses absolute sizes {5, 50, 200} out of ≈6,000 ISPs; a
/// downscaled graph has proportionally fewer ISPs, so the mid and
/// large sets scale with the ISP count (and are capped below it, or
/// "seed everyone" stops being an experiment).
pub fn figure8_adopter_sets(g: &AsGraph) -> Vec<EarlyAdopters> {
    let isps = g.isps().count();
    let mid = (isps / 12).clamp(6, 50);
    let big = (isps / 5).clamp(12, 200);
    vec![
        EarlyAdopters::None,
        EarlyAdopters::TopIspsByDegree(5),
        EarlyAdopters::TopIspsByDegree(mid),
        EarlyAdopters::TopIspsByDegree(big),
        EarlyAdopters::ContentProviders,
        EarlyAdopters::ContentProvidersPlusTopIsps(5),
        EarlyAdopters::RandomIsps { k: big, seed: 99 },
    ]
}

/// The θ grid used by the sweep figures.
pub const THETAS: [f64; 7] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50];
