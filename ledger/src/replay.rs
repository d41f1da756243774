//! The pipelines behind the benchmarked commands, replayed in-process
//! through the public functions of `sbgp_asgraph`, `sbgp_routing` and
//! `sbgp_core`, with a span around each call into a layer.
//!
//! `sbgp_experiments` has no lib target, so what `repro fig3`, `fig8`,
//! `fig9` and `scenario` do between those calls (option defaults, the
//! adopter sets, the table layout) is restated here. The restatement
//! is held to the program byte for byte: every run compares the CSVs
//! of the subprocess ops with the CSVs these functions produce.
//!
//! Only entry points the ROADMAP keeps are called (see the README):
//! the store-based checkpoint API, `run_surface`, `JobBoard`,
//! `RoutingAtlas::{build, get}`.

use crate::trace::Tracer;
use sbgp_asgraph::augment::augment_cp_peering;
use sbgp_asgraph::gen::{generate_checked, GenParams, Generated};
use sbgp_asgraph::{AsGraph, Weights};
use sbgp_core::checkpoint::{params_fingerprint, SweepCheckpoint, UnitJournal};
use sbgp_core::scenario::{
    run_surface, PairStrategy, ScenarioConfig, ScenarioSnapshot, ScenarioStats,
};
use sbgp_core::serve::{Admission, JobBoard, JobSpec};
use sbgp_core::storage::Store;
use sbgp_core::{
    metrics, EarlyAdopters, EngineStats, SimConfig, SimResult, Simulation, UtilityModel,
};
use sbgp_routing::{
    AttackModel, HashTieBreak, RoutingAtlas, ScenarioPolicy, SecureSet, TreePolicy,
};
use std::sync::Arc;

pub const TIEBREAK: HashTieBreak = HashTieBreak;

/// `repro`'s defaults for the flags the workloads leave alone.
pub const THETA: f64 = 0.05;
pub const CP_FRACTION: f64 = 0.10;
pub const CTX_CACHE_MB: usize = 256;
const THETAS: [f64; 7] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50];
const MAX_ROUND_SNAPSHOTS: usize = 8;
pub const STUBS_PREFER_SECURE: TreePolicy = TreePolicy {
    stubs_prefer_secure: true,
};

/// A named CSV, as `repro --out DIR` writes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csv {
    pub file: &'static str,
    pub bytes: Vec<u8>,
}

fn csv(file: &'static str, columns: &[&str], rows: &[Vec<String>]) -> Csv {
    let mut s = columns.join(",");
    s.push('\n');
    for row in rows {
        assert_eq!(row.len(), columns.len(), "row arity mismatch");
        s.push_str(&row.join(","));
        s.push('\n');
    }
    Csv {
        file,
        bytes: s.into_bytes(),
    }
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn f6(x: f64) -> String {
    format!("{x:.6}")
}

/// Work and time the engine reported over one pipeline, summed over
/// its simulations.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineTotals {
    pub stats: EngineStats,
    pub rounds: u64,
}

impl EngineTotals {
    pub fn absorb(&mut self, res: &SimResult) {
        self.absorb_stats(&res.stats, res.rounds.len() as u64);
    }

    pub fn absorb_stats(&mut self, s: &EngineStats, rounds: u64) {
        let t = &mut self.stats;
        t.contexts_computed += s.contexts_computed;
        t.trees_computed += s.trees_computed;
        t.dests_computed += s.dests_computed;
        t.dests_reused += s.dests_reused;
        t.passes += s.passes;
        t.compute_ns += s.compute_ns;
        t.atlas_hits += s.atlas_hits;
        t.atlas_misses += s.atlas_misses;
        t.delta_hits += s.delta_hits;
        t.delta_fallbacks += s.delta_fallbacks;
        t.delta_touched_nodes += s.delta_touched_nodes;
        t.delta_full_nodes += s.delta_full_nodes;
        // Gauges of the (shared) atlas: the latest snapshot.
        t.atlas_stored = s.atlas_stored;
        t.atlas_evicted = s.atlas_evicted;
        t.atlas_bytes = s.atlas_bytes;
        t.atlas_raw_bytes = s.atlas_raw_bytes;
        t.atlas_build_ns = s.atlas_build_ns;
        self.rounds += rounds;
    }
}

/// `World::build`: the generated base graph and its Appendix D
/// augmentation (every command pays for both, whether it reads the
/// augmented graph or not).
pub struct World {
    pub gen: Generated,
}

impl World {
    pub fn build(ases: usize, seed: u64, tr: &mut Tracer) -> World {
        tr.span("asgraph.world", |tr| {
            let gen = tr.span("asgraph.generate", |_| {
                generate_checked(&GenParams::new(ases, seed))
                    .expect("workload sizes are valid generator parameters")
            });
            // None of the replayed commands reads the augmented graph;
            // the program builds it regardless, so the replay does too.
            tr.span("asgraph.augment", |_| {
                std::hint::black_box(
                    augment_cp_peering(&gen.graph, &gen.ixp_members, 0.8, seed ^ 0xa6)
                        .expect("0.8 is a valid peering fraction"),
                );
            });
            World { gen }
        })
    }

    pub fn graph(&self) -> &AsGraph {
        &self.gen.graph
    }
}

pub fn weights(g: &AsGraph, cp_fraction: f64, tr: &mut Tracer) -> Weights {
    tr.span("asgraph.weights", |_| {
        Weights::with_cp_fraction(g, cp_fraction)
    })
}

pub fn case_study_adopters() -> EarlyAdopters {
    EarlyAdopters::ContentProvidersPlusTopIsps(5)
}

pub fn sim_config(theta: f64, threads: usize, ctx_cache_mb: usize) -> SimConfig {
    SimConfig {
        theta,
        model: UtilityModel::Outgoing,
        tree_policy: STUBS_PREFER_SECURE,
        max_rounds: 100,
        threads,
        ctx_cache_mb,
        ..SimConfig::default()
    }
}

/// The Section 5 case study: one simulation that builds its own atlas.
pub fn case_study(
    g: &AsGraph,
    w: &Weights,
    threads: usize,
    ctx_cache_mb: usize,
    tr: &mut Tracer,
) -> SimResult {
    let adopters = case_study_adopters().select(g);
    let cfg = sim_config(THETA, threads, ctx_cache_mb);
    tr.span("core.sim.run", |_| {
        Simulation::new(g, w, &TIEBREAK, cfg).run(&adopters)
    })
}

pub struct Fig3 {
    pub csv: Csv,
    pub result: SimResult,
}

/// `repro fig3 --ases N --seed S --threads K --ctx-cache-mb MB`.
pub fn fig3(ases: usize, seed: u64, threads: usize, ctx_cache_mb: usize, tr: &mut Tracer) -> Fig3 {
    let world = World::build(ases, seed, tr);
    let g = world.graph();
    let w = weights(g, CP_FRACTION, tr);
    let result = case_study(g, &w, threads, ctx_cache_mb, tr);
    let csv = tr.span("experiments.table", |_| {
        let rows: Vec<Vec<String>> = result
            .rounds
            .iter()
            .map(|r| {
                vec![
                    r.round.to_string(),
                    r.turned_on.len().to_string(),
                    r.newly_secure_stubs.len().to_string(),
                    (r.turned_on.len() + r.newly_secure_stubs.len()).to_string(),
                    r.secure_ases_after.to_string(),
                    r.secure_isps_after.to_string(),
                ]
            })
            .collect();
        csv(
            "fig3_rounds.csv",
            &[
                "round",
                "new ISPs",
                "new stubs",
                "new ASes",
                "secure ASes",
                "secure ISPs",
            ],
            &rows,
        )
    });
    Fig3 { csv, result }
}

/// The worlds a case-study run may measure, in order of preference:
/// `seed`, `seed + 1000`, ...
pub fn world_candidates(seed: u64) -> impl ExactSizeIterator<Item = u64> {
    (0..16u32).map(move |k| seed + 1000 * u64::from(k))
}

/// Whether a deployment that ends with `secure` of `ases` ASes secure
/// took off. The case-study workloads measure the first candidate world
/// that does; the end-to-end run reads `secure` from the program's CSV,
/// the traced run from the library's result. Sixteen stalls in a row do
/// not happen; if they did, the last candidate is measured.
///
/// About one generated world in ten stalls after two or three rounds.
/// Its engine passes have almost no secure destination to project, cost
/// a quarter less than a pass of a deployment that spreads, and would
/// make the per-pass cost of two seeds incomparable. The case study is
/// the paper's: a deployment that reaches most of the graph.
pub fn takes_off(secure: usize, ases: usize) -> bool {
    2 * secure >= ases
}

fn build_atlas(g: &AsGraph, threads: usize, tr: &mut Tracer) -> Arc<RoutingAtlas> {
    tr.span("routing.atlas.build", |_| {
        Arc::new(RoutingAtlas::build(
            g,
            &TIEBREAK,
            CTX_CACHE_MB << 20,
            threads,
        ))
    })
}

fn sweep_unit(
    g: &AsGraph,
    w: &Weights,
    atlas: &Arc<RoutingAtlas>,
    adopters: &EarlyAdopters,
    theta: f64,
    tr: &mut Tracer,
) -> SimResult {
    let seeds = adopters.select(g);
    tr.span("core.sim.run", |_| {
        Simulation::new(g, w, &TIEBREAK, sim_config(theta, 1, CTX_CACHE_MB))
            .with_shared_atlas(Arc::clone(atlas))
            .run(&seeds)
    })
}

fn fig8_adopter_sets(g: &AsGraph) -> Vec<EarlyAdopters> {
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

/// What `--checkpoint-every 1` does around each finished unit: a
/// durable journal append, then a rewrite of the whole checkpoint
/// (every earlier result included), then a journal reset.
struct Durability<'a> {
    store: &'a Store,
    journal: UnitJournal,
    ckpt: SweepCheckpoint,
}

const CKPT_KEY: &str = "checkpoints/fig8.ckpt";
const JOURNAL_KEY: &str = "checkpoints/fig8.journal";

impl<'a> Durability<'a> {
    fn open(store: &'a Store, ases: usize, seed: u64) -> Durability<'a> {
        let fingerprint = params_fingerprint(&[
            "cmd=fig8".to_string(),
            format!("ases={ases}"),
            format!("seed={seed}"),
            format!("cp={CP_FRACTION}"),
            "fail_links=0".to_string(),
        ]);
        Durability {
            store,
            journal: UnitJournal::open_in(store, JOURNAL_KEY).expect("scratch store is writable"),
            ckpt: SweepCheckpoint::new(fingerprint),
        }
    }

    fn record(&mut self, key: String, result: SimResult, tr: &mut Tracer) {
        tr.span("core.checkpoint.journal_append", |_| {
            self.journal
                .append(&key, &result)
                .expect("scratch store is writable")
        });
        self.ckpt.insert(key, result);
        tr.span("core.checkpoint.save", |_| {
            self.ckpt
                .save_to(self.store, CKPT_KEY)
                .expect("scratch store is writable")
        });
        tr.span("core.checkpoint.journal_reset", |_| {
            self.journal.reset().expect("scratch store is writable")
        });
    }
}

pub struct Fig8 {
    pub csvs: [Csv; 2],
    pub totals: EngineTotals,
    /// The 49 unit results in sweep order (payloads for the codec and
    /// transport rows of the traced run).
    pub results: Vec<(String, SimResult)>,
}

/// `repro fig8 --ases N --seed S`, and with `durable` also
/// `--checkpoint-every 1` into that store.
pub fn fig8(ases: usize, seed: u64, durable: Option<&Store>, tr: &mut Tracer) -> Fig8 {
    let world = World::build(ases, seed, tr);
    let g = world.graph();
    let w = weights(g, CP_FRACTION, tr);
    let atlas = build_atlas(g, 1, tr);
    let mut durability = durable.map(|store| Durability::open(store, ases, seed));
    let mut totals = EngineTotals::default();
    let mut results = Vec::new();
    let (mut rows_a, mut rows_b) = (Vec::new(), Vec::new());
    for adopters in fig8_adopter_sets(g) {
        let mut row_a = vec![adopters.label()];
        let mut row_b = vec![adopters.label()];
        for &theta in &THETAS {
            let res = sweep_unit(g, &w, &atlas, &adopters, theta, tr);
            totals.absorb(&res);
            row_a.push(f3(res.secure_as_fraction(g)));
            row_b.push(f3(res.secure_isp_fraction(g)));
            let key = format!("{};theta={theta}", adopters.label());
            if let Some(d) = durability.as_mut() {
                d.record(key.clone(), res.clone(), tr);
            }
            results.push((key, res));
        }
        rows_a.push(row_a);
        rows_b.push(row_b);
    }
    let columns = [
        "early adopters",
        "theta=0",
        "0.05",
        "0.10",
        "0.20",
        "0.30",
        "0.40",
        "0.50",
    ];
    let csvs = tr.span("experiments.table", |_| {
        [
            csv("fig8a_ases.csv", &columns, &rows_a),
            csv("fig8b_isps.csv", &columns, &rows_b),
        ]
    });
    Fig8 {
        csvs,
        totals,
        results,
    }
}

pub struct Fig9 {
    pub csv: Csv,
    pub totals: EngineTotals,
}

/// `repro fig9` over an already built world and atlas (the daemon's
/// hot-atlas cache hands a repeat world's atlas to the next job).
pub fn fig9(g: &AsGraph, cp_fraction: f64, atlas: &Arc<RoutingAtlas>, tr: &mut Tracer) -> Fig9 {
    let w = weights(g, cp_fraction, tr);
    let mut totals = EngineTotals::default();
    let mut rows = Vec::new();
    let big = (g.isps().count() / 5).clamp(12, 200);
    for adopters in [
        EarlyAdopters::ContentProvidersPlusTopIsps(5),
        EarlyAdopters::TopIspsByDegree(big),
    ] {
        for &theta in &THETAS {
            let res = sweep_unit(g, &w, atlas, &adopters, theta, tr);
            totals.absorb(&res);
            let f = res.secure_as_fraction(g);
            let frac = tr.span("core.metrics.secure_path_fraction", |_| {
                metrics::secure_path_fraction(g, &res.final_state, STUBS_PREFER_SECURE, &TIEBREAK)
            });
            rows.push(vec![
                adopters.label(),
                format!("{theta}"),
                f3(f),
                f3(frac),
                f3(f * f),
            ]);
        }
    }
    let csv = tr.span("experiments.table", |_| {
        csv(
            "fig9_secure_paths.csv",
            &[
                "early adopters",
                "theta",
                "f (secure ASes)",
                "secure paths",
                "f^2",
            ],
            &rows,
        )
    });
    Fig9 { csv, totals }
}

/// One served job: a fig9 over world `seed` at CP traffic share
/// `cp_fraction`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobParams {
    pub ases: usize,
    pub seed: u64,
    pub cp_fraction: f64,
}

impl JobParams {
    /// The `--config` text the job is submitted (and twinned) with.
    pub fn config(&self) -> String {
        format!(
            "ases = {}\nseed = {}\ncp-fraction = {}\n",
            self.ases, self.seed, self.cp_fraction
        )
    }
}

/// The served-jobs pipeline without the HTTP front end: every job goes
/// through the job board's journaled lifecycle on `store`, computes
/// its fig9 against a hot-atlas cache keyed by world, and materializes
/// its result. Returns each job's CSV in submission order.
pub fn served_jobs(jobs: &[JobParams], store: &Store, tr: &mut Tracer) -> (Vec<Csv>, EngineTotals) {
    let (mut board, _) = JobBoard::open(
        store,
        "serve/jobs.joblog",
        jobs.len().max(1),
        jobs.len().max(1),
    )
    .expect("scratch store is writable");
    let mut hot: Vec<(u64, World, Arc<RoutingAtlas>)> = Vec::new();
    let mut totals = EngineTotals::default();
    let mut out = Vec::new();
    for job in jobs {
        let spec = JobSpec::new("fig9", &job.config());
        let admitted = tr.span("core.serve.submit", |_| board.submit(spec, "ledger"));
        assert!(
            matches!(admitted, Ok(Admission::Accepted { .. })),
            "distinct job specs are admitted: {admitted:?}"
        );
        let (id, _, _) = tr
            .span("core.serve.start_next", |_| board.start_next())
            .expect("scratch store is writable")
            .expect("a job was just queued");
        if !hot.iter().any(|(seed, _, _)| *seed == job.seed) {
            let world = World::build(job.ases, job.seed, tr);
            let atlas = build_atlas(world.graph(), 1, tr);
            hot.push((job.seed, world, atlas));
        }
        let (_, world, atlas) = hot
            .iter()
            .find(|(seed, _, _)| *seed == job.seed)
            .expect("inserted above");
        let fig = fig9(world.graph(), job.cp_fraction, atlas, tr);
        totals.absorb_stats(&fig.totals.stats, fig.totals.rounds);
        tr.span("core.serve.complete", |_| {
            board.complete(&id, &fig.csv.bytes)
        })
        .expect("scratch store is writable");
        out.push(fig.csv);
    }
    (out, totals)
}

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
    for i in picks {
        snaps.push(ScenarioSnapshot {
            label: if i + 1 == rounds {
                "final".into()
            } else {
                format!("round{i}")
            },
            state: states[i].clone(),
        });
    }
    snaps
}

pub struct Scenario {
    pub csvs: [Csv; 2],
    pub stats: ScenarioStats,
    pub totals: EngineTotals,
}

/// `repro scenario --ases N --seed S --pairs P --threads K` with the
/// default attacks, policies and pair strategy.
pub fn scenario(ases: usize, seed: u64, pairs: usize, threads: usize, tr: &mut Tracer) -> Scenario {
    let world = World::build(ases, seed, tr);
    let g = world.graph();
    let w = weights(g, CP_FRACTION, tr);
    let res = case_study(g, &w, threads, CTX_CACHE_MB, tr);
    let mut totals = EngineTotals::default();
    totals.absorb(&res);
    let snaps = snapshot_schedule(g.len(), res.states_by_round());
    let cfg = ScenarioConfig {
        attacks: AttackModel::ALL.to_vec(),
        policies: vec![
            ScenarioPolicy::security_third(),
            ScenarioPolicy::security_third().with_rov(),
            ScenarioPolicy::security_second(),
            ScenarioPolicy::security_first(),
        ],
        pairs,
        strategy: PairStrategy::SeededRandom,
        seed,
        threads,
        self_check: 0.0,
    };
    let surface = tr.span("core.scenario.run_surface", |_| {
        run_surface(g, &snaps, &cfg, &TIEBREAK)
    });
    let csvs = tr.span("experiments.table", |_| {
        let rows: Vec<Vec<String>> = surface
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.snapshot.clone(),
                    c.secure_ases.to_string(),
                    c.attack.to_string(),
                    c.policy.label(),
                    f6(c.mean_deceived),
                    f6(c.mean_reached),
                    f6(c.mean_unreachable),
                    c.sampled.to_string(),
                    c.quarantined.len().to_string(),
                ]
            })
            .collect();
        let final_label = &snaps.last().expect("pre is always present").label;
        let cell = |label: &str, a: AttackModel, p: &ScenarioPolicy| {
            surface
                .cells
                .iter()
                .find(|c| c.snapshot == label && c.attack == a && &c.policy == p)
        };
        let mut deltas = Vec::new();
        for &a in &cfg.attacks {
            for p in &cfg.policies {
                if let (Some(pre), Some(fin)) = (cell("pre", a, p), cell(final_label, a, p)) {
                    deltas.push(vec![
                        a.to_string(),
                        p.label(),
                        f6(pre.mean_deceived),
                        f6(fin.mean_deceived),
                        f6(pre.mean_deceived - fin.mean_deceived),
                    ]);
                }
            }
        }
        [
            csv(
                "scenario_surface.csv",
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
                &rows,
            ),
            csv(
                "scenario_deltas.csv",
                &[
                    "attack",
                    "policy",
                    "pre deceived",
                    "final deceived",
                    "dividend",
                ],
                &deltas,
            ),
        ]
    });
    Scenario {
        csvs,
        stats: surface.stats,
        totals,
    }
}
