//! The θ-sweep figures (8, 9, 11, 12): each figure's unit grid,
//! written once, and the one loop every execution path runs it through.
//!
//! A grid lists a figure's sweep cells (one early-adopter set × one θ,
//! plus any per-figure dimensions) in output order, each under the
//! checkpoint key that names it. The command registry
//! ([`crate::commands`]) hands a command's grid to every consumer: the
//! in-process loop here ([`sweep`]), the supervisor's dispatch pass and
//! the pipe and TCP workers ([`crate::shards`]), and `repro serve`,
//! which runs these same figure functions. Units compute through one
//! [`UnitRunner`] wherever they run, so every path agrees on the
//! results.
//!
//! In-process, the units a checkpoint lacks are computed by group:
//! every missing unit on the same graph, CP share and stub policy runs
//! in one branching call ([`sbgp_core::Simulation::run_cells`]), which
//! shares each engine pass among all cells still in the same state.
//! Workers still compute one key per call, so dispatch is unchanged,
//! and a sharded run does more engine passes than an in-process one
//! for byte-identical figures.
//!
//! Every unit is a checkpoint unit: with `--checkpoint-every N`, each
//! finished cell is journaled, the journal is compacted into the
//! checkpoint at most every `N` units, and `--resume` reloads both
//! instead of recomputing — see [`crate::harness::SweepRunner`].

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::harness::SweepRunner;
use crate::output::{f3, heading, Table};
use crate::world::{case_study_config, figure8_adopter_sets, World, THETAS, TIEBREAK};
use sbgp_asgraph::{AsGraph, Weights};
use sbgp_core::{metrics, Cell, EarlyAdopters, SimConfig, SimResult, Simulation};
use sbgp_routing::{RoutingAtlas, SecureSet, TreePolicy};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Units and grids
// ---------------------------------------------------------------------

/// Which of the world's graphs a unit runs on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphSel {
    /// `World::base()` — the (possibly fault-degraded) base topology.
    Base,
    /// `World::augmented` — the CP-peering-augmented topology.
    Augmented,
}

impl GraphSel {
    /// The graph this selects in `world`.
    pub fn of(self, world: &World) -> &AsGraph {
        match self {
            GraphSel::Base => world.base(),
            GraphSel::Augmented => &world.augmented,
        }
    }

    /// The label figure 12 prints (and keys its units by).
    pub fn label(self) -> &'static str {
        match self {
            GraphSel::Base => "base",
            GraphSel::Augmented => "augmented",
        }
    }
}

/// Everything needed to recompute one sweep cell from a [`World`].
#[derive(Clone, Debug)]
pub struct UnitSpec {
    /// The graph the unit runs on.
    pub graph: GraphSel,
    /// CP traffic share override (figure 12); `None` uses
    /// `--cp-fraction`.
    pub cp_x: Option<f64>,
    /// The early-adopter set.
    pub adopters: EarlyAdopters,
    /// Deployment threshold θ.
    pub theta: f64,
    /// Whether stubs break ties on security.
    pub stubs_prefer_secure: bool,
}

/// A figure's sweep grid: every unit with its checkpoint key, in the
/// order the figure's rows are built.
pub type Grid = fn(&World) -> Vec<(String, UnitSpec)>;

/// Every adopter set × every θ × every stub policy on the base graph,
/// keyed `<adopters>;theta=<θ><policy key suffix>`.
fn theta_grid(adopter_sets: Vec<EarlyAdopters>, stubs: &[(bool, &str)]) -> Vec<(String, UnitSpec)> {
    let mut units = Vec::new();
    for adopters in &adopter_sets {
        for &theta in &THETAS {
            for &(stubs_prefer_secure, suffix) in stubs {
                let key = format!("{};theta={theta}{suffix}", adopters.label());
                let spec = UnitSpec {
                    graph: GraphSel::Base,
                    cp_x: None,
                    adopters: adopters.clone(),
                    theta,
                    stubs_prefer_secure,
                };
                units.push((key, spec));
            }
        }
    }
    units
}

/// Stubs break ties on security, as in the paper's main runs.
const STUBS_PREFER: &[(bool, &str)] = &[(true, "")];

/// The adopter sets figures 9 and 11 compare: the case study's, and a
/// large top-ISP set.
fn fig9_adopter_sets(g: &AsGraph) -> Vec<EarlyAdopters> {
    let big = (g.isps().count() / 5).clamp(12, 200);
    vec![
        EarlyAdopters::ContentProvidersPlusTopIsps(5),
        EarlyAdopters::TopIspsByDegree(big),
    ]
}

/// Figure 8's grid: the Figure 8 adopter family × θ.
pub fn fig8_grid(world: &World) -> Vec<(String, UnitSpec)> {
    theta_grid(figure8_adopter_sets(world.base()), STUBS_PREFER)
}

/// Figure 9's grid: two adopter sets × θ.
pub fn fig9_grid(world: &World) -> Vec<(String, UnitSpec)> {
    theta_grid(fig9_adopter_sets(world.base()), STUBS_PREFER)
}

/// Figure 11's grid: figure 9's, with stubs preferring and then
/// ignoring security in each cell.
pub fn fig11_grid(world: &World) -> Vec<(String, UnitSpec)> {
    let stubs = [(true, ";stubs=prefer"), (false, ";stubs=ignore")];
    theta_grid(fig9_adopter_sets(world.base()), &stubs)
}

/// Figure 12's grid: graph × CP traffic share × {CPs, top-5 ISPs} × θ,
/// graph-major (so one atlas is resident at a time).
pub fn fig12_grid(_world: &World) -> Vec<(String, UnitSpec)> {
    let mut units = Vec::new();
    for graph in [GraphSel::Base, GraphSel::Augmented] {
        for &x in &[0.10, 0.20, 0.33, 0.50] {
            for adopters in [
                EarlyAdopters::ContentProviders,
                EarlyAdopters::TopIspsByDegree(5),
            ] {
                for &theta in &[0.0, 0.05, 0.10, 0.30] {
                    let key = format!("{};x={x};{};theta={theta}", graph.label(), adopters.label());
                    let spec = UnitSpec {
                        graph,
                        cp_x: Some(x),
                        adopters: adopters.clone(),
                        theta,
                        stubs_prefer_secure: true,
                    };
                    units.push((key, spec));
                }
            }
        }
    }
    units
}

// ---------------------------------------------------------------------
// Computing units
// ---------------------------------------------------------------------

impl UnitSpec {
    /// What units must share to run as one branching call: they then
    /// differ only in adopters and θ ([`Simulation::run_cells`]).
    fn group(&self) -> (GraphSel, Option<u64>, bool) {
        (
            self.graph,
            self.cp_x.map(f64::to_bits),
            self.stubs_prefer_secure,
        )
    }
}

/// Computes sweep units over one world, in-process or inside a worker.
///
/// A graph's frozen-context atlas is shared read-only by every unit on
/// that graph — all θ values, adopter sets and both stub tiebreak
/// policies, since per-destination route contexts are state-independent
/// (Observation C.1) and do not depend on [`TreePolicy`]. It is built on
/// the graph's first use and kept while units stay on that graph: one
/// atlas resident at a time, and none for a graph whose units all came
/// back from a checkpoint or a worker (unless a row needs it, as fig9's
/// secure-path metric does). Under `repro serve` the daemon's hot atlas
/// cache sits in front of the build; one-shot runs never install it.
/// Weights are cached per `(graph, CP share)`.
#[derive(Default)]
pub struct UnitRunner {
    atlas: Option<(GraphSel, Arc<RoutingAtlas>)>,
    weights: HashMap<(GraphSel, u64), Weights>,
}

impl UnitRunner {
    /// The atlas of `graph`, built (after releasing any other graph's)
    /// if it is not the resident one.
    pub fn atlas(&mut self, world: &World, graph: GraphSel, opts: &Options) -> &Arc<RoutingAtlas> {
        if self.atlas.as_ref().map(|(g, _)| *g) != Some(graph) {
            // Release the other graph's atlas before building this one.
            self.atlas = None;
            let g = graph.of(world);
            let budget = opts.ctx_cache_mb.saturating_mul(1 << 20);
            let atlas = crate::serve::cached_atlas(g, opts, || {
                Arc::new(RoutingAtlas::build(g, &TIEBREAK, budget, opts.threads))
            });
            self.atlas = Some((graph, atlas));
        }
        &self.atlas.as_ref().expect("built above").1
    }

    /// Simulate `spec` over `world`.
    pub fn run(&mut self, world: &World, spec: &UnitSpec, opts: &Options) -> SimResult {
        let mut results = self.run_group(world, &[spec], opts);
        results.pop().expect("one unit, one result")
    }

    /// Simulate `specs` over `world` as one branching call, results in
    /// `specs` order. Every spec must have the same
    /// [`group`](UnitSpec::group).
    fn run_group(&mut self, world: &World, specs: &[&UnitSpec], opts: &Options) -> Vec<SimResult> {
        let first = specs[0];
        debug_assert!(specs.iter().all(|s| s.group() == first.group()));
        let g = first.graph.of(world);
        let atlas = Arc::clone(self.atlas(world, first.graph, opts));
        let cp = first.cp_x.unwrap_or(opts.cp_fraction);
        let w = self
            .weights
            .entry((first.graph, cp.to_bits()))
            .or_insert_with(|| Weights::with_cp_fraction(g, cp));
        let cfg = SimConfig {
            tree_policy: TreePolicy {
                stubs_prefer_secure: first.stubs_prefer_secure,
            },
            ..case_study_config(opts)
        };
        let cells: Vec<Cell> = specs
            .iter()
            .map(|s| Cell {
                early_adopters: s.adopters.select(g),
                theta: s.theta,
            })
            .collect();
        Simulation::new(g, w, &TIEBREAK, cfg)
            .with_shared_atlas(atlas)
            .run_cells(&cells)
    }
}

/// Run `cmd`'s grid: open its checkpoint, hand every unit it lacks to
/// the worker fleet (if any), compute whatever is still missing here,
/// and pass each unit's result to `row` in grid order, with the runner
/// for rows that need the resident atlas.
///
/// A missing unit is computed together with every other missing unit
/// of its group (same graph, CP share and stub policy) in one branching
/// call, the first time one of them is due. The grids are graph-major,
/// so one atlas stays resident at a time; a group's results wait only
/// until their turn in grid order.
fn sweep(
    cmd: &str,
    opts: &Options,
    mut row: impl FnMut(&World, &UnitSpec, &SimResult, &mut UnitRunner),
) -> Result<(), ExperimentError> {
    let grid = crate::commands::find(cmd)
        .and_then(|c| c.grid)
        .expect("sweep figures declare a grid");
    let world = World::build(opts)?;
    let units = grid(&world);
    let mut runner = SweepRunner::open(cmd, opts)?;
    crate::shards::prefetch(cmd, opts, &units, &mut runner)?;
    let mut compute = UnitRunner::default();
    let mut ready: HashMap<&str, SimResult> = HashMap::new();
    for (key, spec) in &units {
        if runner.get(key).is_none() && !ready.contains_key(key.as_str()) {
            let group: Vec<&(String, UnitSpec)> = units
                .iter()
                .filter(|(k, s)| s.group() == spec.group() && runner.get(k).is_none())
                .collect();
            let specs: Vec<&UnitSpec> = group.iter().map(|(_, s)| s).collect();
            let results = compute.run_group(&world, &specs, opts);
            ready.extend(group.iter().map(|(k, _)| k.as_str()).zip(results));
        }
        let res = runner.run(key.clone(), || {
            ready.remove(key.as_str()).expect("computed with its group")
        })?;
        row(&world, spec, &res, &mut compute);
    }
    runner.finish()
}

// ---------------------------------------------------------------------
// The figures
// ---------------------------------------------------------------------

/// Figure 8: fraction of ASes (a) and ISPs (b) that end up secure, for
/// each θ and each early-adopter set.
pub fn fig8(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 8: secure fraction vs theta per early-adopter set");
    let mut columns = vec!["early adopters"];
    columns.extend(["theta=0", "0.05", "0.10", "0.20", "0.30", "0.40", "0.50"]);
    let mut ta = Table::new("fig8a_ases", &columns);
    let mut tb = Table::new("fig8b_isps", &columns);
    let (mut row_a, mut row_b) = (Vec::new(), Vec::new());
    sweep("fig8", opts, |world, unit, res, _| {
        let g = world.base();
        if row_a.is_empty() {
            row_a.push(unit.adopters.label());
            row_b.push(unit.adopters.label());
        }
        row_a.push(f3(res.secure_as_fraction(g)));
        row_b.push(f3(res.secure_isp_fraction(g)));
        // One row per adopter set, one column per θ.
        if row_a.len() == columns.len() {
            ta.row(std::mem::take(&mut row_a));
            tb.row(std::mem::take(&mut row_b));
        }
    })?;
    println!("(a) fraction of ASes secure");
    ta.emit(opts)?;
    println!("(b) fraction of ISPs secure");
    tb.emit(opts)?;
    Ok(())
}

/// Figure 9: fraction of all (src, dst) paths fully secure at
/// termination, vs θ; the paper observes it lands just under f².
pub fn fig9(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 9: secure-path fraction vs theta (and f^2 check)");
    let mut t = Table::new(
        "fig9_secure_paths",
        &[
            "early adopters",
            "theta",
            "f (secure ASes)",
            "secure paths",
            "f^2",
        ],
    );
    // Cells often end in the same state; measure each state once,
    // reading route contexts from the resident atlas.
    let mut measured: Vec<(SecureSet, f64)> = Vec::new();
    sweep("fig9", opts, |world, unit, res, compute| {
        let g = world.base();
        let f = res.secure_as_fraction(g);
        let frac = match measured.iter().find(|(s, _)| *s == res.final_state) {
            Some(&(_, frac)) => frac,
            None => {
                let atlas = compute.atlas(world, unit.graph, opts);
                let frac = metrics::secure_path_fraction_in(
                    g,
                    &res.final_state,
                    TreePolicy {
                        stubs_prefer_secure: true,
                    },
                    &TIEBREAK,
                    atlas,
                );
                measured.push((res.final_state.clone(), frac));
                frac
            }
        };
        t.row(vec![
            unit.adopters.label(),
            format!("{}", unit.theta),
            f3(f),
            f3(frac),
            f3(f * f),
        ]);
    })?;
    t.emit(opts)
}

/// Figure 11: the stub-tiebreak sensitivity — rerun the Figure 8
/// sweep with stubs ignoring security; results should barely move for
/// θ > 0 (Section 6.7).
pub fn fig11(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 11: sensitivity to stubs breaking ties on security");
    let mut t = Table::new(
        "fig11_stub_sensitivity",
        &[
            "early adopters",
            "theta",
            "ASes (stubs prefer)",
            "ASes (stubs ignore)",
            "delta",
        ],
    );
    // Each cell's "prefer" unit comes right before its "ignore" twin.
    let mut prefer = None;
    sweep("fig11", opts, |world, unit, res, _| {
        let f = res.secure_as_fraction(world.base());
        if unit.stubs_prefer_secure {
            prefer = Some(f);
            return;
        }
        let a = prefer.take().expect("the grid pairs prefer before ignore");
        t.row(vec![
            unit.adopters.label(),
            format!("{}", unit.theta),
            f3(a),
            f3(f),
            f3(a - f),
        ]);
    })?;
    t.emit(opts)
}

/// Figure 12: five CPs vs top five Tier-1s as early adopters, across
/// CP traffic shares x ∈ {10, 20, 33, 50}% and on the base vs
/// augmented graph.
pub fn fig12(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 12: CPs vs Tier-1s as early adopters");
    let mut t = Table::new(
        "fig12_cp_vs_tier1",
        &["graph", "x", "early adopters", "theta", "secure ASes"],
    );
    sweep("fig12", opts, |world, unit, res, _| {
        t.row(vec![
            unit.graph.label().to_string(),
            format!("{}", unit.cp_x.expect("figure 12 units set the CP share")),
            unit.adopters.label(),
            format!("{}", unit.theta),
            f3(res.secure_as_fraction(unit.graph.of(world))),
        ]);
    })?;
    t.emit(opts)
}
