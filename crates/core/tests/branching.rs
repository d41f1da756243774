//! The branching driver against its oracle: every cell of one
//! [`Simulation::run_cells`] call must be `==` to the same cell run
//! alone through [`Simulation::run`], over the sweep figures' θ grid ×
//! the Figure 8 adopter family, across both utility models, both
//! activations, both stub policies, θ jitter and thread counts.
//!
//! The same final states pin fig9's atlas-backed secure-path metric to
//! its `DestContext` oracle bit for bit, and a one-cell run's work
//! counters are pinned to a fixture.

use sbgp_asgraph::gen::{generate, GenParams};
use sbgp_asgraph::{AsGraph, Weights};
use sbgp_core::{metrics, Activation, Cell, EarlyAdopters, SimConfig, Simulation, UtilityModel};
use sbgp_routing::{HashTieBreak, RoutingAtlas, SecureSet, TreePolicy};
use std::sync::Arc;

/// The sweep figures' θ grid.
const THETAS: [f64; 7] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50];

/// The Figure 8 adopter family, scaled to the graph's ISP count as the
/// sweep figures scale it.
fn fig8_family(g: &AsGraph) -> Vec<EarlyAdopters> {
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

fn base_config() -> SimConfig {
    SimConfig {
        model: UtilityModel::Outgoing,
        tree_policy: TreePolicy {
            stubs_prefer_secure: true,
        },
        max_rounds: 100,
        ..SimConfig::default()
    }
}

/// Every distinct final state one world's comparison ended in.
type FinalStates = Vec<SecureSet>;

/// Run `cells` on world (`n`, `seed`) as one call and as one-cell calls
/// under `cfg`, and require `==` results cell by cell.
fn compare(g: &AsGraph, seed: u64, cells: &[Cell], cfg: SimConfig) -> FinalStates {
    let w = Weights::with_cp_fraction(g, 0.10);
    let atlas = Arc::new(RoutingAtlas::build(g, &HashTieBreak, usize::MAX, 1));
    let together = Simulation::new(g, &w, &HashTieBreak, cfg)
        .with_shared_atlas(Arc::clone(&atlas))
        .run_cells(cells);
    assert_eq!(together.len(), cells.len());
    let mut finals = FinalStates::new();
    for (cell, got) in cells.iter().zip(&together) {
        let alone = Simulation::new(
            g,
            &w,
            &HashTieBreak,
            SimConfig {
                theta: cell.theta,
                ..cfg
            },
        )
        .with_shared_atlas(Arc::clone(&atlas))
        .run(&cell.early_adopters);
        assert!(
            *got == alone,
            "n={} seed={seed} θ={} adopters={:?} {cfg:?}: branching diverged from the \
             one-cell run ({:?} after {} rounds vs {:?} after {})",
            g.len(),
            cell.theta,
            cell.early_adopters,
            got.outcome,
            got.rounds.len(),
            alone.outcome,
            alone.rounds.len(),
        );
        if !finals.contains(&got.final_state) {
            finals.push(got.final_state.clone());
        }
    }
    finals
}

/// Which worlds and cells a comparison covers.
struct Plan {
    /// `(n, seeds)` pairs.
    worlds: &'static [(usize, std::ops::RangeInclusive<u64>)],
    /// How many members of the Figure 8 family each world runs,
    /// rotating with the seed so that consecutive seeds cover the whole
    /// family.
    members: usize,
    thetas: &'static [f64],
}

/// What a debug build can afford: one family member × the θ grid per
/// world. [`FULL`] is the whole grid.
const QUICK: Plan = Plan {
    worlds: &[(150, 1..=6), (300, 7..=7)],
    members: 1,
    thetas: &THETAS,
};

/// The full θ grid × the whole Figure 8 family on seeds 1–20 at
/// n ∈ {150, 300}: about three minutes in a release build.
const FULL: Plan = Plan {
    worlds: &[(150, 1..=20), (300, 1..=20)],
    members: 7,
    thetas: &THETAS,
};

impl Plan {
    /// Compare every world of the plan under `cfg`, handing each world
    /// and its final states to `check`.
    fn run(&self, cfg: SimConfig, mut check: impl FnMut(&AsGraph, u64, &FinalStates)) {
        for (n, seeds) in self.worlds {
            for seed in seeds.clone() {
                let g = generate(&GenParams::new(*n, seed)).graph;
                let family = fig8_family(&g);
                let cells: Vec<Cell> = (0..self.members)
                    .flat_map(|k| {
                        let member = &family[(seed as usize * self.members + k) % family.len()];
                        let early_adopters = member.select(&g);
                        self.thetas.iter().map(move |&theta| Cell {
                            early_adopters: early_adopters.clone(),
                            theta,
                        })
                    })
                    .collect();
                let finals = compare(&g, seed, &cells, cfg);
                check(&g, seed, &finals);
            }
        }
    }

    /// [`run`](Self::run) under each variant axis: the incoming model,
    /// stubs ignoring security (with a differential audit), θ jitter
    /// and two threads.
    fn run_variants(&self) {
        let variants = [
            SimConfig {
                model: UtilityModel::Incoming,
                ..base_config()
            },
            // The differential audit makes the self-check tally
            // non-trivial: a split child must inherit its parent's.
            SimConfig {
                tree_policy: TreePolicy {
                    stubs_prefer_secure: false,
                },
                self_check: 0.2,
                ..base_config()
            },
            SimConfig {
                theta_jitter: 0.5,
                theta_seed: 7,
                ..base_config()
            },
            SimConfig {
                threads: 2,
                ..base_config()
            },
        ];
        for cfg in variants {
            self.run(cfg, |_, _, _| {});
        }
    }
}

/// fig9's atlas-backed metric against its `DestContext` oracle, bit for
/// bit, over `finals`. Odd seeds use a zero budget, which stores
/// nothing: every context is recomputed on miss.
fn check_metric(g: &AsGraph, seed: u64, finals: &FinalStates) {
    let policy = TreePolicy {
        stubs_prefer_secure: true,
    };
    let budget = if seed.is_multiple_of(2) {
        usize::MAX
    } else {
        0
    };
    let atlas = RoutingAtlas::build(g, &HashTieBreak, budget, 1);
    for state in finals {
        let oracle = metrics::secure_path_fraction(g, state, policy, &HashTieBreak);
        let fast = metrics::secure_path_fraction_in(g, state, policy, &HashTieBreak, &atlas);
        assert_eq!(
            oracle.to_bits(),
            fast.to_bits(),
            "n={} seed={seed} budget={budget}: {oracle} vs {fast}",
            g.len()
        );
    }
}

#[test]
fn one_call_equals_one_cell_calls_and_fig9_metric_matches_its_oracle() {
    let plan = Plan {
        worlds: &[(150, 1..=20), (300, 1..=4)],
        ..QUICK
    };
    plan.run(base_config(), check_metric);
}

#[test]
fn branching_is_exact_across_model_stub_policy_jitter_and_threads() {
    // No generated world oscillates under this grid; the incoming
    // model's cycle exit is pinned on the chicken gadget in `sim.rs`.
    QUICK.run_variants();
}

#[test]
fn round_robin_cells_stay_exact() {
    // One engine pass per mover: keep the grid small.
    let cfg = SimConfig {
        activation: Activation::RoundRobin,
        ..base_config()
    };
    let plan = Plan {
        worlds: &[(150, 1..=1)],
        members: 2,
        thetas: &[0.0, 0.10, 0.30],
    };
    plan.run(cfg, |_, _, _| {});
}

#[test]
#[ignore = "minutes in a debug build; run with `cargo test --release -- --ignored`"]
fn full_grid_on_seeds_1_to_20_at_both_sizes() {
    FULL.run(base_config(), check_metric);
    FULL.run_variants();
    let cfg = SimConfig {
        activation: Activation::RoundRobin,
        ..base_config()
    };
    let plan = Plan {
        worlds: &[(150, 1..=4)],
        members: 3,
        thetas: &[0.0, 0.10, 0.30],
    };
    plan.run(cfg, |_, _, _| {});
}

#[test]
fn one_cell_engine_stats_match_the_pinned_fig3_fixture() {
    // `repro fig3 --ases 300 --seed 42`: the case study's one-cell run.
    // The counters below were captured before the driver branched; a
    // one-cell call must still do exactly that work. Wall-clock fields
    // (`compute_ns`, `atlas_build_ns`) are not pinned.
    let g = generate(&GenParams::new(300, 42)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    let cfg = SimConfig {
        theta: 0.05,
        threads: 1,
        ..base_config()
    };
    let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g);
    let s = Simulation::new(&g, &w, &HashTieBreak, cfg)
        .run(&adopters)
        .stats;
    let got = [
        s.contexts_computed,
        s.trees_computed,
        s.dests_computed,
        s.dests_reused,
        s.passes,
        s.atlas_hits,
        s.atlas_misses,
        s.atlas_stored,
        s.atlas_evicted,
        s.atlas_bytes,
        s.atlas_raw_bytes,
        s.delta_hits,
        s.delta_fallbacks,
        s.delta_touched_nodes,
        s.delta_full_nodes,
    ];
    let want = [
        0, 2219, 1752, 348, 7, 2100, 0, 300, 0, 556_546, 1_425_108, 9589, 64, 89_657, 2_876_700,
    ];
    assert_eq!(got, want);
}
