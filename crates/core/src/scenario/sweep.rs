//! The parallel scenario surface: snapshots × attacks × policies ×
//! pairs, bit-identical at any thread count.
//!
//! Determinism discipline (the same rules the engine's worker pool
//! follows):
//!
//! * The job index space is fixed up front; workers pull indices from
//!   an atomic counter but results are merged **sorted by index**, so
//!   scheduling order never leaks into the output. Each worker owns one
//!   reusable [`ScenarioKernel`] and jobs report counts only.
//! * The self-check audit set is pre-decided by a seeded RNG *before*
//!   the parallel region — which scenarios get differentially checked
//!   against the oracle cannot depend on which worker ran them.
//! * Aggregation (including every `f64` sum) walks jobs in index
//!   order on the calling thread.
//!
//! Worst-case greedy attacker selection runs as its own pre-pass over
//! a (pair × candidate) index space under the same discipline, so the
//! chosen attackers are also thread-count independent.

use super::select::{select_pairs, PairStrategy};
use super::ConvergenceError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbgp_asgraph::{AsGraph, AsId};
use sbgp_routing::scenario_oracle::converge_scenario;
use sbgp_routing::{
    AttackModel, ScenarioKernel, ScenarioPolicy, ScenarioTally, SecureSet, TieBreaker, Verdict,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A labeled deployment state to evaluate attacks against (typically
/// one per simulation round, plus the "pre" empty state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSnapshot {
    /// Label used in CSVs (e.g. `pre`, `round3`, `final`).
    pub label: String,
    /// The deployment state itself.
    pub state: SecureSet,
}

/// Configuration of a scenario surface run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Attack models to cross.
    pub attacks: Vec<AttackModel>,
    /// Defense policies to cross.
    pub policies: Vec<ScenarioPolicy>,
    /// Number of (attacker, victim) pairs sampled per cell.
    pub pairs: usize,
    /// How the pairs are chosen.
    pub strategy: PairStrategy,
    /// Seed for pair selection and the self-check audit draw.
    pub seed: u64,
    /// Worker threads (`0`/`1` = sequential).
    pub threads: usize,
    /// Fraction of scenarios differentially checked against the
    /// oracle (`0.0` = none, `1.0` = every scenario).
    pub self_check: f64,
}

/// `EngineStats`-style counters for a surface run. All counts are
/// thread-count independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Scenarios run (including greedy probe scenarios).
    pub scenarios_run: u64,
    /// Iterations of the only fixpoints still run: the oracle's, on
    /// audited scenarios (so `0` without a self-check). The field and
    /// its place in the `[scenario]` line are pinned by the ledger.
    pub fixpoint_iters: u64,
    /// Deceived ASes in downgrade scenarios that *would have* rejected
    /// the same announcement as a plain hijack — path validators the
    /// downgrade walked past.
    pub downgrades_observed: u64,
    /// Scenarios differentially replayed through the oracle.
    pub oracle_checked: u64,
    /// Oracle replays that disagreed with the kernel.
    pub oracle_mismatches: u64,
    /// Always `0`: the kernel settles every scenario. Kept because the
    /// `[scenario]` line the ledger parses reports it.
    pub quarantined: u64,
}

/// One aggregated cell of the surface: a (snapshot, attack, policy)
/// triple averaged over the sampled pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioCell {
    /// Snapshot label this cell was evaluated on.
    pub snapshot: String,
    /// Number of secure ASes in that snapshot.
    pub secure_ases: usize,
    /// The attack model.
    pub attack: AttackModel,
    /// The defense policy.
    pub policy: ScenarioPolicy,
    /// Mean deceived fraction over the sampled pairs.
    pub mean_deceived: f64,
    /// Mean fraction reaching the victim cleanly.
    pub mean_reached: f64,
    /// Mean fraction left with no route.
    pub mean_unreachable: f64,
    /// Pairs the means are over.
    pub sampled: usize,
    /// Always empty: the kernel settles every scenario. Kept because
    /// the ledger compiles against it and the golden CSVs pin the
    /// `quarantined` column it feeds.
    pub quarantined: Vec<ConvergenceError>,
}

/// The full surface: cells in (snapshot, attack, policy) order, the
/// sampled pairs, run counters, and any self-check mismatch artifacts.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSurface {
    /// Aggregated cells.
    pub cells: Vec<ScenarioCell>,
    /// The (attacker, victim) pairs every cell sampled.
    pub pairs: Vec<(AsId, AsId)>,
    /// Run counters.
    pub stats: ScenarioStats,
    /// Replayable mismatch descriptions from the differential
    /// self-check (empty on a healthy run).
    pub mismatches: Vec<String>,
}

/// What one scenario job reports back (kept small on purpose: a
/// paper-scale surface runs hundreds of thousands of scenarios, so
/// jobs return counts, not per-node verdict vectors).
struct JobResult {
    tally: ScenarioTally,
    downgraded: u64,
    /// Iterations the oracle took, if this scenario was audited.
    oracle_iters: u64,
    mismatch: Option<String>,
}

/// Run `f` over `0..total`, spreading across `threads` workers that
/// each own one kernel, and return results in index order regardless
/// of scheduling.
fn run_indexed<T: Send>(
    total: usize,
    threads: usize,
    f: impl Fn(&mut ScenarioKernel, usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1).min(total.max(1));
    if threads <= 1 {
        let mut kernel = ScenarioKernel::new();
        return (0..total).map(|i| f(&mut kernel, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut kernel = ScenarioKernel::new();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return mine;
                        }
                        mine.push((i, f(&mut kernel, i)));
                    }
                })
            })
            .collect();
        for h in handles {
            collected.extend(h.join().expect("scenario worker panicked"));
        }
    });
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// Render a mismatch as a replayable artifact. Small graphs get their
/// full edge list so the case can be reconstructed verbatim.
fn mismatch_artifact(
    g: &AsGraph,
    snapshot: &ScenarioSnapshot,
    attack: AttackModel,
    policy: &ScenarioPolicy,
    attacker: AsId,
    victim: AsId,
    detail: &str,
) -> String {
    let mut s = format!(
        "scenario self-check mismatch: snapshot={} attack={} policy={} attacker={} victim={} \
         secure={:?} — {detail}",
        snapshot.label,
        attack,
        policy.label(),
        attacker.0,
        victim.0,
        snapshot.state.iter().map(|x| x.0).collect::<Vec<_>>(),
    );
    if g.len() <= 40 {
        let edges: Vec<String> = g
            .edges()
            .map(|(a, b, rel)| format!("{}-{}:{rel:?}", a.0, b.0))
            .collect();
        s.push_str(&format!(" edges=[{}]", edges.join(",")));
    }
    s
}

/// Run one scenario through the kernel (and, if audited, replay it
/// through the oracle and compare verdicts, tallies and every path).
#[allow(clippy::too_many_arguments)]
fn run_one(
    kernel: &mut ScenarioKernel,
    g: &AsGraph,
    snapshot: &ScenarioSnapshot,
    policy: &ScenarioPolicy,
    attack: AttackModel,
    attacker: AsId,
    victim: AsId,
    tiebreaker: &dyn TieBreaker,
    audit: bool,
) -> JobResult {
    let state = &snapshot.state;
    let tally = kernel.run(g, state, policy, attack, attacker, victim, tiebreaker);
    // A downgrade's damage at a validator is damage a plain hijack
    // could not have done — count those ASes.
    let downgraded = if attack == AttackModel::Downgrade {
        g.nodes()
            .filter(|&x| {
                kernel.verdict(x) == Verdict::Deceived && policy.validates_path(g, state, x)
            })
            .count() as u64
    } else {
        0
    };
    let (mut oracle_iters, mut mismatch) = (0, None);
    if audit {
        // Verdict vectors and `Vec` paths exist only here, for the
        // scenarios the seeded audit set picked.
        let fast = kernel.materialize();
        let detail = match converge_scenario(g, state, policy, attack, attacker, victim, tiebreaker)
        {
            Ok(slow) => {
                oracle_iters = slow.iterations as u64;
                (fast.outcome != slow.outcome || fast.paths != slow.paths).then(|| {
                    let path_diff = (0..g.len())
                        .find(|&i| fast.paths[i] != slow.paths[i])
                        .map(|i| {
                            format!(
                                "; node {i}: kernel {:?} vs oracle {:?}",
                                fast.paths[i], slow.paths[i]
                            )
                        })
                        .unwrap_or_default();
                    format!(
                        "kernel (deceived {}, reached {}, unreachable {}) vs oracle \
                         (deceived {}, reached {}, unreachable {}){path_diff}",
                        tally.deceived,
                        tally.reached_victim,
                        tally.unreachable,
                        slow.outcome.deceived,
                        slow.outcome.reached_victim,
                        slow.outcome.unreachable,
                    )
                })
            }
            Err(e) => Some(format!(
                "the oracle exhausted its {}-iteration budget",
                e.iterations
            )),
        };
        mismatch =
            detail.map(|d| mismatch_artifact(g, snapshot, attack, policy, attacker, victim, &d));
    }
    JobResult {
        tally,
        downgraded,
        oracle_iters,
        mismatch,
    }
}

/// Run the full surface: every snapshot × attack × policy × pair.
///
/// # Panics
/// Panics if the graph has fewer than two nodes, if any config list is
/// empty, or if a snapshot's state capacity does not match the graph.
pub fn run_surface(
    g: &AsGraph,
    snapshots: &[ScenarioSnapshot],
    cfg: &ScenarioConfig,
    tiebreaker: &dyn TieBreaker,
) -> ScenarioSurface {
    assert!(!snapshots.is_empty(), "need at least one snapshot");
    assert!(!cfg.attacks.is_empty(), "need at least one attack model");
    assert!(!cfg.policies.is_empty(), "need at least one policy");
    assert!(cfg.pairs > 0, "need at least one pair");
    for s in snapshots {
        assert_eq!(s.state.capacity(), g.len(), "snapshot/graph size mismatch");
    }
    let mut stats = ScenarioStats::default();
    let mut pairs = select_pairs(g, cfg.strategy, cfg.pairs, cfg.seed);

    if let PairStrategy::WorstCaseGreedy { candidates } = cfg.strategy {
        // Clamp to the feasible candidate set: at least the seeded
        // placeholder, at most one probe per non-victim AS — a
        // `greedy:1000000` request on a 100-node graph must not stage
        // a million probes per pair.
        let candidates = candidates.clamp(1, g.len().saturating_sub(1));
        // Pre-pass: per victim, probe `candidates` attackers — the
        // seeded placeholder first (so `greedy:1` degenerates to plain
        // random and more candidates can only hit harder), then fresh
        // seeded draws — under the first attack × policy on the
        // initial snapshot, and keep the most damaging (ties to the
        // lowest candidate index).
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6772_6565_6479); // "greedy"
        let mut cand: Vec<AsId> = Vec::with_capacity(pairs.len() * candidates);
        for &(a, v) in &pairs {
            cand.push(a);
            for _ in 1..candidates {
                cand.push(loop {
                    let c = AsId(rng.gen_range(0..g.len()) as u32);
                    if c != v {
                        break c;
                    }
                });
            }
        }
        let probe = |kernel: &mut ScenarioKernel, i: usize| {
            let (_, v) = pairs[i / candidates];
            run_one(
                kernel,
                g,
                &snapshots[0],
                &cfg.policies[0],
                cfg.attacks[0],
                cand[i],
                v,
                tiebreaker,
                false,
            )
        };
        let probes = run_indexed(cand.len(), cfg.threads, probe);
        for (i, (a, _)) in pairs.iter_mut().enumerate() {
            let chunk = &probes[i * candidates..(i + 1) * candidates];
            let best = chunk
                .iter()
                .enumerate()
                .max_by_key(|(j, r)| (r.tally.deceived, std::cmp::Reverse(*j)))
                .expect("candidates is positive")
                .0;
            *a = cand[i * candidates + best];
        }
        stats.scenarios_run += probes.len() as u64;
    }

    // The main index space; the audit set is drawn before the run.
    let (na, np, nq) = (cfg.attacks.len(), cfg.policies.len(), pairs.len());
    let total = snapshots.len() * na * np * nq;
    let audited: Vec<bool> = if cfg.self_check > 0.0 {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0061_7564_6974); // "audit"
        let rate = cfg.self_check.clamp(0.0, 1.0);
        (0..total).map(|_| rng.gen_bool(rate)).collect()
    } else {
        vec![false; total]
    };
    let job = |kernel: &mut ScenarioKernel, i: usize| {
        let (qi, rest) = (i % nq, i / nq);
        let (pi, rest) = (rest % np, rest / np);
        let (ai, si) = (rest % na, rest / na);
        let (attacker, victim) = pairs[qi];
        run_one(
            kernel,
            g,
            &snapshots[si],
            &cfg.policies[pi],
            cfg.attacks[ai],
            attacker,
            victim,
            tiebreaker,
            audited[i],
        )
    };
    let results = run_indexed(total, cfg.threads, job);

    // Sequential aggregation in index order.
    let mut cells = Vec::with_capacity(snapshots.len() * na * np);
    let mut mismatches = Vec::new();
    // A two-node graph has nobody left to deceive: its fractions are
    // 0.0 (as `ScenarioOutcome::deceived_fraction` has it), not 0/0.
    let denom = (g.len() - 2).max(1) as f64;
    for (ci, chunk) in results.chunks(nq).enumerate() {
        let (pi, rest) = (ci % np, ci / np);
        let (ai, si) = (rest % na, rest / na);
        let mut cell = ScenarioCell {
            snapshot: snapshots[si].label.clone(),
            secure_ases: snapshots[si].state.count(),
            attack: cfg.attacks[ai],
            policy: cfg.policies[pi],
            mean_deceived: 0.0,
            mean_reached: 0.0,
            mean_unreachable: 0.0,
            sampled: chunk.len(),
            quarantined: Vec::new(),
        };
        for r in chunk {
            stats.scenarios_run += 1;
            stats.fixpoint_iters += r.oracle_iters;
            stats.downgrades_observed += r.downgraded;
            if let Some(m) = &r.mismatch {
                stats.oracle_mismatches += 1;
                mismatches.push(m.clone());
            }
            cell.mean_deceived += r.tally.deceived as f64 / denom;
            cell.mean_reached += r.tally.reached_victim as f64 / denom;
            cell.mean_unreachable += r.tally.unreachable as f64 / denom;
        }
        cell.mean_deceived /= cell.sampled as f64;
        cell.mean_reached /= cell.sampled as f64;
        cell.mean_unreachable /= cell.sampled as f64;
        cells.push(cell);
    }
    stats.oracle_checked = audited.iter().filter(|&&a| a).count() as u64;
    ScenarioSurface {
        cells,
        pairs,
        stats,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_routing::HashTieBreak;

    fn snapshots(g: &AsGraph) -> Vec<ScenarioSnapshot> {
        let mut mid = SecureSet::new(g.len());
        for x in g.nodes().step_by(2) {
            mid.set(x, true);
        }
        vec![
            ScenarioSnapshot {
                label: "pre".into(),
                state: SecureSet::new(g.len()),
            },
            ScenarioSnapshot {
                label: "mid".into(),
                state: mid,
            },
        ]
    }

    fn config(strategy: PairStrategy) -> ScenarioConfig {
        ScenarioConfig {
            attacks: AttackModel::ALL.to_vec(),
            policies: vec![
                ScenarioPolicy::security_third(),
                ScenarioPolicy::security_third().with_rov(),
            ],
            pairs: 6,
            strategy,
            seed: 42,
            threads: 1,
            self_check: 0.0,
        }
    }

    #[test]
    fn surface_is_bit_identical_at_any_thread_count() {
        let g = generate(&GenParams::new(120, 3)).graph;
        let snaps = snapshots(&g);
        for strategy in [
            PairStrategy::SeededRandom,
            PairStrategy::WorstCaseGreedy { candidates: 3 },
        ] {
            let mut cfg = config(strategy);
            cfg.self_check = 0.25;
            let runs: Vec<ScenarioSurface> = [1, 2, 4, 8]
                .iter()
                .map(|&t| {
                    let mut c = cfg.clone();
                    c.threads = t;
                    run_surface(&g, &snaps, &c, &HashTieBreak)
                })
                .collect();
            for r in &runs[1..] {
                assert_eq!(*r, runs[0], "{}", strategy.label());
            }
            assert!(runs[0].mismatches.is_empty(), "{:?}", runs[0].mismatches);
            assert!(runs[0].stats.oracle_checked > 0);
        }
    }

    #[test]
    fn full_self_check_agrees_with_the_oracle() {
        let g = generate(&GenParams::new(100, 9)).graph;
        let snaps = snapshots(&g);
        let mut cfg = config(PairStrategy::DegreeStratified);
        cfg.self_check = 1.0;
        cfg.threads = 4;
        let surface = run_surface(&g, &snaps, &cfg, &HashTieBreak);
        assert_eq!(
            surface.stats.oracle_mismatches, 0,
            "{:?}",
            surface.mismatches
        );
        assert_eq!(
            surface.stats.oracle_checked, surface.stats.scenarios_run,
            "every scenario should be audited at rate 1.0"
        );
        // Partition invariant on every cell: the three fractions cover
        // all n−2 non-origin nodes.
        for c in &surface.cells {
            let total = c.mean_deceived + c.mean_reached + c.mean_unreachable;
            assert!((total - 1.0).abs() < 1e-9, "{total} in {}", c.snapshot);
        }
        // The only fixpoints left are the oracle's, on audited scenarios.
        assert!(surface.stats.fixpoint_iters >= surface.stats.oracle_checked);
        cfg.self_check = 0.0;
        let unaudited = run_surface(&g, &snaps, &cfg, &HashTieBreak);
        assert_eq!(unaudited.stats.fixpoint_iters, 0);
        assert_eq!(unaudited.cells, surface.cells);
    }

    #[test]
    fn a_two_node_graph_has_zero_fractions_not_nan() {
        // Attacker and victim are the whole graph: nobody is left to
        // deceive, and 0 of 0 ASes is 0.0, not 0/0.
        let mut b = sbgp_asgraph::AsGraphBuilder::new();
        let (p, c) = (b.add_node(1), b.add_node(2));
        b.add_provider_customer(p, c).unwrap();
        let g = b.build().unwrap();
        let cfg = config(PairStrategy::SeededRandom);
        let surface = run_surface(&g, &snapshots(&g), &cfg, &HashTieBreak);
        for cell in &surface.cells {
            assert_eq!(cell.sampled, cfg.pairs);
            let means = [cell.mean_deceived, cell.mean_reached, cell.mean_unreachable];
            assert_eq!(means, [0.0; 3], "{} {}", cell.snapshot, cell.attack);
        }
    }

    #[test]
    fn greedy_attackers_hit_at_least_as_hard_as_random() {
        let g = generate(&GenParams::new(120, 3)).graph;
        let snaps = snapshots(&g);
        let random = run_surface(
            &g,
            &snaps,
            &config(PairStrategy::SeededRandom),
            &HashTieBreak,
        );
        let greedy = run_surface(
            &g,
            &snaps,
            &config(PairStrategy::WorstCaseGreedy { candidates: 6 }),
            &HashTieBreak,
        );
        // Compare the cell the greedy probe optimizes: first attack ×
        // first policy on the first snapshot.
        assert!(
            greedy.cells[0].mean_deceived >= random.cells[0].mean_deceived,
            "greedy {} < random {}",
            greedy.cells[0].mean_deceived,
            random.cells[0].mean_deceived
        );
    }

    #[test]
    fn greedy_k_is_deterministic_per_seed_and_moves_across_seeds() {
        let g = generate(&GenParams::new(120, 3)).graph;
        let snaps = snapshots(&g);
        let run = |seed: u64| {
            let mut cfg = config(PairStrategy::WorstCaseGreedy { candidates: 4 });
            cfg.seed = seed;
            run_surface(&g, &snaps, &cfg, &HashTieBreak)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the whole surface");
        let c = run(43);
        assert_ne!(
            a.pairs, c.pairs,
            "a different seed must draw different greedy pairs"
        );
    }

    #[test]
    fn greedy_candidates_clamp_to_the_feasible_set() {
        // `greedy:1000000` on a small graph must behave exactly like
        // one probe per non-victim AS — same surface, same probe count.
        let g = generate(&GenParams::new(110, 5)).graph;
        let snaps = snapshots(&g);
        let huge = run_surface(
            &g,
            &snaps,
            &config(PairStrategy::WorstCaseGreedy {
                candidates: 1_000_000,
            }),
            &HashTieBreak,
        );
        let exact = run_surface(
            &g,
            &snaps,
            &config(PairStrategy::WorstCaseGreedy {
                candidates: g.len() - 1,
            }),
            &HashTieBreak,
        );
        assert_eq!(huge, exact, "the clamp must make an oversized k exact");
        // Probe accounting: scenarios_run is the main surface plus
        // exactly pairs × (n - 1) greedy probes, not pairs × 1000000.
        let main_only = run_surface(
            &g,
            &snaps,
            &config(PairStrategy::SeededRandom),
            &HashTieBreak,
        )
        .stats
        .scenarios_run;
        let cfg = config(PairStrategy::SeededRandom);
        assert_eq!(
            huge.stats.scenarios_run,
            main_only + (cfg.pairs * (g.len() - 1)) as u64
        );
    }

    #[test]
    fn downgrade_counter_only_counts_walked_past_validators() {
        let g = generate(&GenParams::new(100, 5)).graph;
        let snaps = snapshots(&g);
        let cfg = config(PairStrategy::SeededRandom);
        let surface = run_surface(&g, &snaps, &cfg, &HashTieBreak);
        // The "pre" snapshot has no validators at all, so all observed
        // downgrades must come from the deployed snapshot's cells.
        assert!(surface.stats.scenarios_run > 0);
        let pre_cells: Vec<_> = surface
            .cells
            .iter()
            .filter(|c| c.snapshot == "pre" && c.attack == AttackModel::Downgrade)
            .collect();
        assert!(!pre_cells.is_empty());
        // (Counter correctness on "pre" is structural: validates_path
        // is false everywhere, so those cells contribute zero.)
        let mut empty_cfg = cfg.clone();
        empty_cfg.attacks = vec![AttackModel::Downgrade];
        let pre_only = run_surface(&g, &snaps[..1], &empty_cfg, &HashTieBreak);
        assert_eq!(pre_only.stats.downgrades_observed, 0);
    }
}
