//! The deployment-process driver (Section 3.2).
//!
//! One round loop runs every simulation, as a *branching trajectory*
//! over a list of cells. The cells share graph, weights, tiebreaker
//! and config, and differ only in early adopters and θ
//! ([`Simulation::run_cells`]). θ enters only the Eq. 3 comparison, so
//! cells in the same state see the same round computation:
//!
//! * **Sharing.** One engine, one worker pool and one all-insecure
//!   starting pass serve the whole list. Cells with the same initial
//!   state start as one branch.
//! * **Splitting.** Each round runs one engine pass per branch. Every
//!   cell of the branch then evaluates Eq. 3 against that pass. Cells
//!   whose decision vectors are equal continue together; the others
//!   split off into branches of their own.
//! * **Inheritance.** A child branch inherits the `seen` fingerprints,
//!   the `rounds` prefix and the self-check tally, so every cell's
//!   [`SimResult`] is `==` to the one it gets when run alone.
//! * **Round-robin** activation changes the state between movers, so
//!   its cells never share a branch.
//! * **Accounting.** Each engine pass is charged to the first cell of
//!   the branch that ran it (the starting pass to the first cell), so
//!   the cells' [`EngineStats`] sum to the engine's own counters.
//!
//! [`Simulation::run`] and [`Simulation::run_constrained`] are one-cell
//! calls of the same driver, and the oracle the branching is tested
//! against.

use crate::checkpoint::codec::QuarantinedTask;
use crate::config::{Activation, SimConfig, UtilityModel};
use crate::engine::{EnginePool, EngineStats, RoundComputation, SelfCheckViolation, UtilityEngine};
use crate::{guard, state};
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_routing::{RoutingAtlas, SecureSet, TieBreaker};
use std::collections::HashMap;
use std::sync::Arc;

/// Comparison slack for the Eq. 3 decision: utilities are sums of
/// thousands of f64 terms, so exact equality between "projected" and
/// "(1+θ)·current" is numerically meaningless. A candidate must beat
/// the threshold by more than this relative margin.
const DECISION_EPS: f64 = 1e-9;

/// How a simulation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A stable state was reached: no ISP wants to change its action.
    Stable {
        /// The round in which no ISP changed action.
        round: usize,
    },
    /// The state repeated — the process oscillates (possible in the
    /// incoming model, Section 7.2 / Theorem 7.1).
    Oscillation {
        /// Round at which the revisited state was first seen.
        first_seen: usize,
        /// Cycle length in rounds.
        period: usize,
    },
    /// The round cap was hit without stabilizing or provably cycling.
    MaxRounds,
}

/// Everything recorded about one round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Round number (1-based; the initial seeded state is round 0).
    pub round: usize,
    /// `u_n(S)` for every node at the *start* of the round, in the
    /// decision model.
    pub utilities: Vec<f64>,
    /// Projected utility for every candidate evaluated this round.
    pub projected: Vec<(AsId, f64)>,
    /// ISPs that deployed S\*BGP this round.
    pub turned_on: Vec<AsId>,
    /// ISPs that disabled S\*BGP this round (incoming model only).
    pub turned_off: Vec<AsId>,
    /// Stubs upgraded to simplex S\*BGP this round by their providers.
    pub newly_secure_stubs: Vec<AsId>,
    /// Total secure ASes after the round.
    pub secure_ases_after: usize,
    /// Total secure ISPs after the round.
    pub secure_isps_after: usize,
}

/// The full record of one deployment simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Utilities in the all-insecure world — the paper's "starting
    /// utility", the normalizer of Figures 4 and 5 (decision model).
    pub starting_utilities: Vec<f64>,
    /// The round-0 state the process started from.
    pub initial_state: SecureSet,
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// The state when the process stopped.
    pub final_state: SecureSet,
    /// Why it stopped.
    pub outcome: Outcome,
    /// The seeded early adopters.
    pub early_adopters: Vec<AsId>,
    /// Always `1.0`: every round sums over every destination. Kept,
    /// with [`quarantined`](Self::quarantined) and
    /// [`deadline_skipped`](Self::deadline_skipped), so the checkpoint
    /// and frame encodings keep their bytes.
    pub completeness: f64,
    /// Always empty (see [`completeness`](Self::completeness)).
    pub quarantined: Vec<QuarantinedTask>,
    /// Total differential audits performed across all engine passes
    /// (see [`SimConfig::self_check`]). `0` when self-checking is off.
    pub self_checked: usize,
    /// Differential-audit failures, deduplicated by destination and
    /// ascending by id. Each carries a shrunk, replayable
    /// counterexample artifact. Empty means every audit agreed with
    /// the reference oracle.
    pub violations: Vec<SelfCheckViolation>,
    /// Always empty (see [`completeness`](Self::completeness)).
    pub deadline_skipped: Vec<AsId>,
    /// Engine work counters for the whole run (atlas hits, contexts
    /// computed, destinations reused, per-phase wall time). Excluded
    /// from `PartialEq` — two runs that produced identical simulation
    /// outcomes compare equal even if one did less work (reuse) or
    /// ran on different hardware.
    pub stats: EngineStats,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.starting_utilities == other.starting_utilities
            && self.initial_state == other.initial_state
            && self.rounds == other.rounds
            && self.final_state == other.final_state
            && self.outcome == other.outcome
            && self.early_adopters == other.early_adopters
            && self.completeness == other.completeness
            && self.quarantined == other.quarantined
            && self.self_checked == other.self_checked
            && self.violations == other.violations
            && self.deadline_skipped == other.deadline_skipped
    }
}

impl SimResult {
    /// Fraction of all ASes secure at the end.
    pub fn secure_as_fraction(&self, g: &AsGraph) -> f64 {
        self.final_state.count() as f64 / g.len() as f64
    }

    /// Fraction of ISPs secure at the end.
    pub fn secure_isp_fraction(&self, g: &AsGraph) -> f64 {
        let total = g.isps().count();
        if total == 0 {
            return 0.0;
        }
        let secure = g.isps().filter(|&n| self.final_state.get(n)).count();
        secure as f64 / total as f64
    }

    /// The deployment state at the end of every round, replayed from
    /// the recorded actions (index 0 is the initial seeded state).
    /// These are the per-round snapshots the adversarial scenario
    /// layer ([`crate::scenario`]) evaluates attacks against.
    pub fn states_by_round(&self) -> Vec<SecureSet> {
        crate::metrics::states_by_round(self)
    }
}

/// One cell of a [`Simulation::run_cells`] call: the early adopters it
/// seeds and the θ its ISPs deploy under. Everything else (graph,
/// weights, tiebreaker and the rest of the [`SimConfig`]) is the
/// simulation's own.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The seeded early adopters.
    pub early_adopters: Vec<AsId>,
    /// Deployment threshold θ; replaces [`SimConfig::theta`].
    pub theta: f64,
}

/// Where one cell starts, and the config its Eq. 3 test reads θ from.
struct Start {
    initial: SecureSet,
    early_adopters: Vec<AsId>,
    cfg: SimConfig,
}

/// The differential-audit tally: audits run, and the violations
/// found, one per destination.
#[derive(Clone, Default)]
struct Ledger {
    self_checked: usize,
    violations: Vec<SelfCheckViolation>,
}

impl Ledger {
    fn absorb(&mut self, comp: &RoundComputation) {
        self.self_checked += comp.audited;
        for v in &comp.violations {
            if !self.violations.iter().any(|e| e.dest == v.dest) {
                self.violations.push(v.clone());
            }
        }
    }
}

/// Cells that have made identical decisions in every round so far, and
/// the trajectory they share. A split clones it, so every child
/// inherits the `seen` fingerprints, the `rounds` prefix and the ledger.
#[derive(Clone)]
struct Branch {
    /// Indices into the cell list, ascending. The first is charged for
    /// the branch's engine passes.
    cells: Vec<usize>,
    state: SecureSet,
    rounds: Vec<RoundRecord>,
    /// State fingerprint → the round that produced it (0 = initial).
    seen: HashMap<u64, usize>,
    ledger: Ledger,
}

/// Eq. 3: flip iff projected > (1+θ_n)·current (θ_n = θ unless the
/// Section 8.2 jitter is set).
fn wants_to_flip(cfg: &SimConfig, g: &AsGraph, n: AsId, u: f64, proj: f64) -> bool {
    let theta_n = cfg.theta_for(g, n);
    proj > (1.0 + theta_n) * u * (1.0 + DECISION_EPS) + DECISION_EPS
}

/// Run one engine pass and charge its work to `payer`.
fn pass(
    engine: &UtilityEngine<'_>,
    pool: &EnginePool,
    state: &SecureSet,
    candidates: &[AsId],
    payer: &mut EngineStats,
) -> RoundComputation {
    let before = engine.stats();
    let comp = engine.compute_in(pool, state, candidates);
    payer.absorb(&engine.stats().since(&before));
    comp
}

/// A configured deployment simulation, ready to run.
pub struct Simulation<'a> {
    g: &'a AsGraph,
    weights: &'a Weights,
    tiebreaker: &'a dyn TieBreaker,
    cfg: SimConfig,
    atlas: Option<Arc<RoutingAtlas>>,
    #[cfg(test)]
    plant: Option<crate::engine::Plant>,
}

impl<'a> Simulation<'a> {
    /// Build a simulation over `g`.
    pub fn new(
        g: &'a AsGraph,
        weights: &'a Weights,
        tiebreaker: &'a dyn TieBreaker,
        cfg: SimConfig,
    ) -> Self {
        Simulation {
            g,
            weights,
            tiebreaker,
            cfg,
            atlas: None,
            #[cfg(test)]
            plant: None,
        }
    }

    /// Reuse an already-built frozen-context atlas instead of building
    /// one per run — the sweep harness shares a single atlas across
    /// every repetition over the same `(graph, tiebreaker)`, which is
    /// sound because the atlas is state-independent (Observation C.1).
    pub fn with_shared_atlas(mut self, atlas: Arc<RoutingAtlas>) -> Self {
        self.atlas = Some(atlas);
        self
    }

    /// Run the deployment process from the seeded initial state
    /// (early adopters + their simplex stubs) to termination.
    pub fn run(&self, early_adopters: &[AsId]) -> SimResult {
        let cell = Cell {
            early_adopters: early_adopters.to_vec(),
            theta: self.cfg.theta,
        };
        self.run_cells(&[cell]).pop().expect("one cell, one result")
    }

    /// Run every cell from its seeded initial state to termination,
    /// as one branching trajectory (see the module docs). Each result
    /// is `==` to the one [`run`](Self::run) gives for that cell
    /// alone; only the work counters in [`SimResult::stats`] differ,
    /// since each engine pass is charged to one cell of the branch that
    /// ran it.
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<SimResult> {
        let starts = cells
            .iter()
            .map(|c| Start {
                initial: state::initial_state(self.g, &c.early_adopters),
                early_adopters: c.early_adopters.clone(),
                cfg: SimConfig {
                    theta: c.theta,
                    ..self.cfg
                },
            })
            .collect();
        let movable: Vec<AsId> = self.g.isps().collect();
        self.drive(starts, &movable).0
    }

    /// Run from an arbitrary initial state with only `movable` ISPs
    /// allowed to act.
    ///
    /// This is the appendix constructions' "fixed nodes" device
    /// (Appendix K.3): gadget proofs hold some nodes' deployment state
    /// constant via auxiliary machinery the paper omits; here they are
    /// simply excluded from the candidate set. It also models targeted
    /// what-if analyses ("what does AS 4755 alone do in state S?",
    /// Figure 13).
    pub fn run_constrained(
        &self,
        initial: SecureSet,
        movable: &[AsId],
        early_adopters: Vec<AsId>,
    ) -> SimResult {
        let start = Start {
            initial,
            early_adopters,
            cfg: self.cfg,
        };
        self.drive(vec![start], movable)
            .0
            .pop()
            .expect("one cell, one result")
    }

    /// The branching driver behind every run: one engine, one pool and
    /// one all-insecure starting pass serve all `starts`, then each
    /// round costs one engine pass per live branch. Returns the results
    /// in `starts` order, and the engine's own counters, which the
    /// cells' charged counters sum to.
    fn drive(&self, starts: Vec<Start>, movable: &[AsId]) -> (Vec<SimResult>, EngineStats) {
        let g = self.g;
        let engine = match &self.atlas {
            Some(atlas) => UtilityEngine::with_atlas(
                g,
                self.weights,
                self.tiebreaker,
                self.cfg,
                Arc::clone(atlas),
            ),
            None => UtilityEngine::new(g, self.weights, self.tiebreaker, self.cfg),
        };
        #[cfg(test)]
        let engine = engine.planted(self.plant);
        let model = self.cfg.model;
        let mut charged = vec![EngineStats::default(); starts.len()];
        let mut results: Vec<Option<SimResult>> = vec![None; starts.len()];

        // The whole round loop runs inside one pool: workers and their
        // scratch are spawned once and survive every engine pass.
        engine.with_pool(|pool| {
            // "Starting utility": the all-insecure world, before even the
            // early adopters deployed (Figure 4's normalizer). This pass
            // also warms the engine's cross-round C.4-1 cache: every
            // destination is insecure here, so later rounds only recompute
            // destinations that have since become secure.
            let insecure = SecureSet::new(g.len());
            let starting = pass(&engine, pool, &insecure, &[], &mut charged[0]);
            let mut root_ledger = Ledger::default();
            root_ledger.absorb(&starting);
            let starting_utilities = match model {
                UtilityModel::Outgoing => starting.base_out,
                UtilityModel::Incoming => starting.base_in,
            };

            // Cells that start from the same state share a branch, except
            // under round-robin activation: there each mover sees the
            // moves before it, so cells with different θ part mid-round.
            let shared = self.cfg.activation == Activation::Simultaneous;
            let mut live: Vec<Branch> = Vec::new();
            for (i, s) in starts.iter().enumerate() {
                match live.iter_mut().find(|b| shared && b.state == s.initial) {
                    Some(b) => b.cells.push(i),
                    None => live.push(Branch {
                        cells: vec![i],
                        state: s.initial.clone(),
                        rounds: Vec::new(),
                        seen: HashMap::from([(s.initial.fingerprint(), 0)]),
                        ledger: root_ledger.clone(),
                    }),
                }
            }

            let mut finish = |b: Branch, outcome: Outcome| {
                let Branch {
                    cells,
                    state,
                    mut rounds,
                    mut ledger,
                    ..
                } = b;
                ledger.violations.sort_by_key(|v| v.dest);
                for (k, &c) in cells.iter().enumerate() {
                    // The last cell takes the trajectory; the others copy it.
                    let rounds = if k + 1 == cells.len() {
                        std::mem::take(&mut rounds)
                    } else {
                        rounds.clone()
                    };
                    results[c] = Some(SimResult {
                        starting_utilities: starting_utilities.clone(),
                        initial_state: starts[c].initial.clone(),
                        rounds,
                        final_state: state.clone(),
                        outcome,
                        early_adopters: starts[c].early_adopters.clone(),
                        completeness: 1.0,
                        quarantined: Vec::new(),
                        self_checked: ledger.self_checked,
                        violations: ledger.violations.clone(),
                        deadline_skipped: Vec::new(),
                        stats: EngineStats::default(),
                    });
                }
            };

            while let Some(mut branch) = live.pop() {
                if branch.rounds.len() == self.cfg.max_rounds {
                    finish(branch, Outcome::MaxRounds);
                    continue;
                }
                let round = branch.rounds.len() + 1;
                // Candidates: insecure ISPs (turn-on) always; secure ISPs
                // (turn-off) only in the incoming model (Theorem 6.2 /
                // optimization C.4-2 rules them out in the outgoing model).
                // CPs and stubs never decide (Section 3.2).
                let candidates: Vec<AsId> = movable
                    .iter()
                    .copied()
                    .filter(|&n| !branch.state.get(n) || model == UtilityModel::Incoming)
                    .collect();
                let secure_before = branch.state.count();
                let payer = &mut charged[branch.cells[0]];
                let mut projected = Vec::with_capacity(candidates.len());
                let mut utilities;
                // Each step: a branch that already took this round's
                // actions, and those actions (turned on, turned off,
                // newly secure stubs).
                let mut steps: Vec<(Branch, [Vec<AsId>; 3])> = Vec::new();

                match self.cfg.activation {
                    Activation::Simultaneous => {
                        // The paper's rule: everyone best-responds to the
                        // same state, changes land together. Every cell of
                        // the branch reads the same pass; cells whose Eq. 3
                        // decisions differ split off into branches of their
                        // own.
                        let comp = pass(&engine, pool, &branch.state, &candidates, payer);
                        branch.ledger.absorb(&comp);
                        let mut groups: Vec<(Vec<AsId>, Vec<usize>)> = Vec::new();
                        for &c in &branch.cells {
                            let cfg = &starts[c].cfg;
                            let flipped: Vec<AsId> = candidates
                                .iter()
                                .copied()
                                .filter(|&n| {
                                    wants_to_flip(
                                        cfg,
                                        g,
                                        n,
                                        comp.base(model, n),
                                        comp.projected(model, n),
                                    )
                                })
                                .collect();
                            match groups.iter_mut().find(|(f, _)| *f == flipped) {
                                Some((_, cells)) => cells.push(c),
                                None => groups.push((flipped, vec![c])),
                            }
                        }
                        projected.extend(candidates.iter().map(|&n| (n, comp.projected(model, n))));
                        utilities = match model {
                            UtilityModel::Outgoing => comp.base_out,
                            UtilityModel::Incoming => comp.base_in,
                        };
                        let (last_flipped, last_cells) = groups.pop().expect("a branch has cells");
                        let mut children: Vec<(Branch, Vec<AsId>)> = groups
                            .into_iter()
                            .map(|(flipped, cells)| {
                                (
                                    Branch {
                                        cells,
                                        ..branch.clone()
                                    },
                                    flipped,
                                )
                            })
                            .collect();
                        branch.cells = last_cells;
                        children.push((branch, last_flipped));
                        for (mut child, flipped) in children {
                            let state = &mut child.state;
                            let (on, off): (Vec<AsId>, Vec<AsId>) =
                                flipped.into_iter().partition(|&n| !state.get(n));
                            // Newly secure ISPs upgrade their stubs.
                            let mut stubs = Vec::new();
                            for &n in &on {
                                state.set(n, true);
                                for s in g.stub_customers_of(n) {
                                    if !state.get(s) {
                                        state.set(s, true);
                                        stubs.push(s);
                                    }
                                }
                            }
                            for &n in &off {
                                state.set(n, false);
                            }
                            steps.push((child, [on, off, stubs]));
                        }
                    }
                    Activation::RoundRobin => {
                        // Asynchronous sweep: each ISP moves seeing every
                        // earlier move of the same round. One engine pass
                        // per mover (much slower; meant for gadget-scale
                        // dynamics, not the 36K-AS sweeps). A round-robin
                        // branch holds exactly one cell.
                        let cfg = &starts[branch.cells[0]].cfg;
                        let snapshot = pass(&engine, pool, &branch.state, &[], payer);
                        branch.ledger.absorb(&snapshot);
                        utilities = match model {
                            UtilityModel::Outgoing => snapshot.base_out,
                            UtilityModel::Incoming => snapshot.base_in,
                        };
                        let (mut on, mut off, mut stubs) = (Vec::new(), Vec::new(), Vec::new());
                        for &n in &candidates {
                            let comp = pass(&engine, pool, &branch.state, &[n], payer);
                            branch.ledger.absorb(&comp);
                            let (u, proj) = (comp.base(model, n), comp.projected(model, n));
                            projected.push((n, proj));
                            if wants_to_flip(cfg, g, n, u, proj) {
                                let state = &mut branch.state;
                                if state.get(n) {
                                    state.set(n, false);
                                    off.push(n);
                                } else {
                                    state.set(n, true);
                                    for s in g.stub_customers_of(n) {
                                        if !state.get(s) {
                                            state.set(s, true);
                                            stubs.push(s);
                                        }
                                    }
                                    on.push(n);
                                }
                            }
                        }
                        steps.push((branch, [on, off, stubs]));
                    }
                }

                let last = steps.len() - 1;
                for (k, (mut child, [turned_on, turned_off, newly_secure_stubs])) in
                    steps.into_iter().enumerate()
                {
                    // Theorem 6.2 invariant: in the outgoing model deployment
                    // only ever grows — a turn-off or a shrinking secure set
                    // here is a driver bug, not a modeling outcome.
                    if model == UtilityModel::Outgoing {
                        guard::assert_outgoing_monotone(
                            &turned_off,
                            secure_before,
                            child.state.count(),
                        );
                    }
                    let stable = turned_on.is_empty() && turned_off.is_empty();
                    // The last step takes the round's vectors; the others copy them.
                    let (utilities, projected) = if k == last {
                        (
                            std::mem::take(&mut utilities),
                            std::mem::take(&mut projected),
                        )
                    } else {
                        (utilities.clone(), projected.clone())
                    };
                    child.rounds.push(RoundRecord {
                        round,
                        utilities,
                        projected,
                        turned_on,
                        turned_off,
                        newly_secure_stubs,
                        secure_ases_after: child.state.count(),
                        secure_isps_after: g.isps().filter(|&n| child.state.get(n)).count(),
                    });
                    if stable {
                        finish(child, Outcome::Stable { round });
                        continue;
                    }
                    let fp = child.state.fingerprint();
                    if let Some(&first) = child.seen.get(&fp) {
                        let period = round - first;
                        finish(
                            child,
                            Outcome::Oscillation {
                                first_seen: first,
                                period,
                            },
                        );
                        continue;
                    }
                    child.seen.insert(fp, round);
                    live.push(child);
                }
            }
        });

        // Every cell reports the shared atlas's gauges beside the work it
        // was charged for.
        let total = engine.stats();
        let results = results
            .into_iter()
            .zip(charged)
            .map(|(r, mut stats)| {
                stats.absorb(&total.since(&total));
                SimResult {
                    stats,
                    ..r.expect("every cell finishes")
                }
            })
            .collect();
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Plant;
    use sbgp_asgraph::AsGraphBuilder;
    use sbgp_routing::LowestAsnTieBreak;

    /// Figure-2-style competition: early adopter Tier-1 above two ISPs
    /// fighting over a multihomed stub, each with private stubs.
    fn diamond_world() -> (AsGraph, AsId, AsId, AsId) {
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(100);
        let ia = b.add_node(10);
        let ib = b.add_node(20);
        let s = b.add_node(30);
        let sa = b.add_node(40);
        let sb = b.add_node(50);
        b.add_provider_customer(t, ia).unwrap();
        b.add_provider_customer(t, ib).unwrap();
        b.add_provider_customer(ia, s).unwrap();
        b.add_provider_customer(ib, s).unwrap();
        b.add_provider_customer(ia, sa).unwrap();
        b.add_provider_customer(ib, sb).unwrap();
        let g = b.build().unwrap();
        (g, t, ia, ib)
    }

    #[test]
    fn diamond_competition_drives_deployment() {
        let (g, t, ia, ib) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let cfg = SimConfig {
            theta: 0.05,
            ..SimConfig::default()
        };
        let sim = Simulation::new(&g, &w, &tb, cfg);
        let result = sim.run(&[t]);
        assert!(matches!(result.outcome, Outcome::Stable { .. }));
        // Both competing ISPs should end up secure: whoever deploys
        // first steals the multihomed stub's subtree traffic via the
        // now-secure path from t; the other deploys to win it back.
        assert!(result.final_state.get(ia), "ISP a should deploy");
        assert!(result.final_state.get(ib), "ISP b should deploy");
        // Their stubs ran simplex.
        for s in g.stub_customers_of(ia).chain(g.stub_customers_of(ib)) {
            assert!(result.final_state.get(s));
        }
    }

    #[test]
    fn no_adopters_zero_theta_can_still_start() {
        // With θ=0 any strictly positive gain triggers deployment, but
        // with *no* secure destination no gain exists: state stays empty.
        let (g, _, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let sim = Simulation::new(
            &g,
            &w,
            &tb,
            SimConfig {
                theta: 0.0,
                ..SimConfig::default()
            },
        );
        let result = sim.run(&[]);
        assert_eq!(result.final_state.count(), 0);
        assert!(matches!(result.outcome, Outcome::Stable { round: 1 }));
    }

    #[test]
    fn huge_theta_blocks_deployment() {
        let (g, t, ia, ib) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let sim = Simulation::new(
            &g,
            &w,
            &tb,
            SimConfig {
                theta: 10.0,
                ..SimConfig::default()
            },
        );
        let result = sim.run(&[t]);
        assert!(!result.final_state.get(ia));
        assert!(!result.final_state.get(ib));
    }

    #[test]
    fn records_are_consistent() {
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let sim = Simulation::new(&g, &w, &tb, SimConfig::default());
        let result = sim.run(&[t]);
        let mut secure_isps = result
            .early_adopters
            .iter()
            .filter(|&&n| g.is_isp(n))
            .count();
        for r in &result.rounds {
            secure_isps += r.turned_on.len();
            assert_eq!(r.secure_isps_after, secure_isps);
            assert!(r.secure_ases_after >= secure_isps);
            // Projected utilities exist for every evaluated candidate.
            for &(n, _) in &r.projected {
                assert!(g.is_isp(n));
            }
        }
        // Final round is the stable one: nothing changed.
        let last = result.rounds.last().unwrap();
        assert!(last.turned_on.is_empty() && last.turned_off.is_empty());
    }

    #[test]
    fn planted_panic_fails_the_run_naming_its_destination() {
        // A destination task that panics has no retry and no partial
        // result: the run fails, at any thread count, and says which
        // destination it was. It must fail, not hang waiting for the
        // missing task.
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let dest = AsId(3); // the multihomed stub
        for threads in [1, 3] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&g, &w, &tb, cfg);
            sim.plant = Some(Plant::Panic(dest));
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(&[t])))
                .expect_err("a panicking destination task must fail the run");
            let message = crate::supervise::panic_message(payload.as_ref());
            assert!(
                message.contains(&format!("destination {dest}")),
                "threads={threads}: {message}"
            );
        }
    }

    #[test]
    fn self_check_on_healthy_run_audits_everything_and_finds_nothing() {
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let clean = Simulation::new(&g, &w, &tb, SimConfig::default()).run(&[t]);
        let cfg = SimConfig {
            self_check: 1.0,
            ..SimConfig::default()
        };
        let audited = Simulation::new(&g, &w, &tb, cfg).run(&[t]);
        assert!(audited.self_checked > 0, "rate 1.0 must audit");
        assert!(
            audited.violations.is_empty(),
            "fast path must agree with the oracle: {:?}",
            audited.violations
        );
        // The audit is observation-only: the simulated outcome is
        // bit-identical to the unaudited run.
        assert_eq!(audited.final_state, clean.final_state);
        assert_eq!(audited.rounds, clean.rounds);
    }

    #[test]
    fn chaos_corrupted_tree_is_flagged_by_self_check() {
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let cfg = SimConfig {
            self_check: 1.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&g, &w, &tb, cfg);
        // The multihomed stub: two providers → a real tiebreak set.
        sim.plant = Some(Plant::CorruptTree(AsId(3)));
        let res = sim.run(&[t]);
        assert_eq!(res.violations.len(), 1, "corruption deduped by destination");
        let v = &res.violations[0];
        assert_eq!(v.dest, AsId(3));
        assert!(
            v.artifact.contains("sbgp-diffcheck counterexample"),
            "violation ships a replayable artifact:\n{}",
            v.artifact
        );
        // The corrupted contribution still flowed into the totals (the
        // checker observes, it does not veto) — but the run says so.
        assert!(res.self_checked > 0);
    }

    /// The Appendix K.5 chicken gadget (as built in `sbgp-gadgets`):
    /// players 10 and 20 in a web of fixed nodes, whose incoming-model
    /// game flips `(ON,ON) ↔ (OFF,OFF)` under a small θ. Returns the
    /// graph, the all-secure-but-the-fallback-chains state with both
    /// players ON, and the players.
    fn chicken_world() -> (AsGraph, SecureSet, [AsId; 2]) {
        let mut b = AsGraphBuilder::new();
        let [n1, n2, n3, n4, n5, n6, p10, p20, d1, d2, n1000, n1001, local1, local2, cross1, cross2] =
            [
                1, 2, 3, 4, 5, 6, 10, 20, 31, 32, 1000, 1001, 2001, 2002, 2003, 2004,
            ]
            .map(|asn| b.add_node(asn));
        let m = 10;
        for (p, c) in [
            (p20, p10),
            (p10, d1),
            (n1000, d1),
            (p20, d2),
            (n1001, d2),
            (p10, local1),
            (n1000, local1),
            (p20, local2),
            (n1001, local2),
            (n6, p20),
            (n4, n1),
            (p20, n4),
            (p10, cross1),
            (n1, cross1),
            (n5, n2),
            (p10, n5),
            (n3, cross2),
            (n2, cross2),
        ] {
            b.add_provider_customer(p, c).unwrap();
        }
        b.add_peer_peer(p10, n6).unwrap();
        b.add_peer_peer(n3, p20).unwrap();
        for (root, first, leaves) in [(cross1, 3000, m - 1), (cross2, 4000, 2 * m - 1)] {
            for k in 0..leaves {
                let leaf = b.add_node(first + k as u32);
                b.add_provider_customer(root, leaf).unwrap();
            }
        }
        let g = b.build().unwrap();
        let mut on = SecureSet::new(g.len());
        for n in g.nodes() {
            on.set(n, ![n1, n2, n4, n5].contains(&n));
        }
        (g, on, [p10, p20])
    }

    #[test]
    fn oscillating_and_stable_cells_split_and_match_their_one_cell_runs() {
        let (g, on, players) = chicken_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let cfg = SimConfig {
            model: UtilityModel::Incoming,
            max_rounds: 20,
            ..SimConfig::default()
        };
        let mut off = on.clone();
        for &p in &players {
            off.set(p, false);
        }
        let mut mixed = on.clone();
        mixed.set(players[1], false);
        let thetas = [0.0, 0.001, 0.05, 0.5, 10.0];
        let starts: Vec<Start> = [on, off, mixed]
            .iter()
            .flat_map(|initial| {
                thetas.iter().map(|&theta| Start {
                    initial: initial.clone(),
                    early_adopters: Vec::new(),
                    cfg: SimConfig { theta, ..cfg },
                })
            })
            .collect();
        let alone: Vec<SimResult> = starts
            .iter()
            .map(|s| {
                Simulation::new(&g, &w, &tb, s.cfg).run_constrained(
                    s.initial.clone(),
                    &players,
                    Vec::new(),
                )
            })
            .collect();
        let (together, _) = Simulation::new(&g, &w, &tb, cfg).drive(starts, &players);
        assert_eq!(together, alone);
        let oscillating = |r: &&SimResult| matches!(r.outcome, Outcome::Oscillation { .. });
        let cycles = together.iter().filter(oscillating).count();
        assert!(cycles > 0, "no cell oscillated");
        assert!(cycles < together.len(), "no cell settled");
    }

    #[test]
    fn cells_are_charged_every_engine_pass_exactly_once() {
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(120, 5)).graph;
        let w = Weights::with_cp_fraction(&g, 0.1);
        let tb = LowestAsnTieBreak;
        let sim = Simulation::new(&g, &w, &tb, SimConfig::default());
        let top: Vec<AsId> =
            sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 5);
        let starts: Vec<Start> = [Vec::new(), top]
            .iter()
            .flat_map(|adopters| {
                [0.0, 0.05, 0.2, 0.5].map(|theta| Start {
                    initial: state::initial_state(&g, adopters),
                    early_adopters: adopters.clone(),
                    cfg: SimConfig {
                        theta,
                        ..SimConfig::default()
                    },
                })
            })
            .collect();
        let (results, total) = sim.drive(starts, &g.isps().collect::<Vec<_>>());
        let mut sum = EngineStats::default();
        for r in &results {
            sum.absorb(&r.stats);
            assert_eq!(
                r.stats.atlas_bytes, total.atlas_bytes,
                "every cell carries the gauges"
            );
        }
        assert_eq!(sum, total);
        let alone: u64 = results.iter().map(|r| 1 + r.rounds.len() as u64).sum();
        assert!(
            total.passes < alone,
            "{} passes shared vs {alone} alone",
            total.passes
        );
    }

    #[test]
    fn starting_utilities_are_all_insecure_world() {
        let (g, t, ia, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let sim = Simulation::new(&g, &w, &tb, SimConfig::default());
        let result = sim.run(&[t]);
        // In the all-insecure diamond, ia (ASN 10 < 20) wins the
        // multihomed stub: outgoing utility = subtree{t, s... }
        // destinations via customer edges: s (subtree: t routes via ia:
        // that's t; plus nothing else) and sa.
        // ia's starting outgoing utility: dest s: t routes through ia
        // (flow t=1), s itself excluded; dest sa: t and others? t
        // routes to sa via ia: subtree {t}. Also s, sb route... s's
        // providers: to reach sa, s goes via ia (provider route), sb
        // via ib then t then ia.
        // Just sanity-check positivity and relative order.
        assert!(result.starting_utilities[ia.index()] > 0.0);
    }
}
