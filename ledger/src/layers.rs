//! The traced run: the workload's pipeline replayed in-process with a
//! span around each call into a layer, plus direct timings of the
//! layers' public entry points, and — for `sbgp_experiments`, which
//! has no lib target — timings through the process and socket
//! boundary. It prints every per-layer metric; a layer the workload
//! does not execute reports 0.
//!
//! Timings are medians. Metrics marked exact in the table are counts
//! the program made: they repeat bit for bit for a commit and a seed.

use crate::e2e::{self, Ctx, Scale};
use crate::json::Value;
use crate::proc::{http, warm_cores, Guard, Scratch};
use crate::replay::{self, Csv, EngineTotals, JobParams, TIEBREAK};
use crate::report::Report;
use crate::rng::Rng;
use crate::spec::{self, Kind};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_core::checkpoint::codec::{decode_result, encode_result, Parser};
use sbgp_core::checkpoint::{SweepCheckpoint, UnitJournal};
use sbgp_core::scenario::{select_pairs, PairStrategy};
use sbgp_core::serve::{JobBoard, JobSpec};
use sbgp_core::storage::Store;
use sbgp_core::supervise::{
    decode_from_worker, encode_from_worker, read_frame, write_frame, FromWorker,
};
use sbgp_core::{initial_state, DeltaMode, EngineStats, SimResult, UtilityEngine};
use sbgp_routing::scenario_oracle::converge_scenario;
use sbgp_routing::{
    accumulate_flows, compute_tree, delta_project, fold_utilities, AtlasScratch, AttackModel,
    DeltaScratch, DestContext, RouteContext, RouteTree, RoutingAtlas, ScenarioPolicy, SecureSet,
    TbDependents, TreePolicy,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

pub struct Traced {
    pub report: Report,
    pub tracer: Tracer,
}

/// Per-layer values by name; anything not set reports 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(spec::layer(name).is_some(), "{name} is not in the table");
        self.0.insert(name, (value, samples));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    fn fill(self, report: &mut Report) {
        for m in spec::PER_LAYER {
            let (value, samples) = self.0.get(m.name).copied().unwrap_or((0.0, 0));
            report.metric(m.name, value, samples);
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median microseconds of `f` over `items`.
fn median_us<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> (f64, usize) {
    let us: Vec<f64> = items
        .into_iter()
        .map(|item| timed(|| f(item)).0 * 1e6)
        .collect();
    (median(&us), us.len())
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> (f64, usize) {
    let (us, n) = median_us(0..reps, |_| f());
    (us / 1e3, n)
}

const POLICY: TreePolicy = replay::STUBS_PREFER_SECURE;
const SAMPLE_DESTS: usize = 64;
const IO_REPS: usize = 32;

// ---------------------------------------------------------------------
// routing
// ---------------------------------------------------------------------

/// Direct timings of the routing kernels on `g`, over a seeded sample
/// of destinations and (candidate, destination) pairs in the
/// mid-deployment state `state`. Returns the atlases it built, for the
/// engine rows.
fn routing_rows(
    l: &mut Layers,
    g: &AsGraph,
    w: &Weights,
    state: &SecureSet,
    seed: u64,
    starved_mb: usize,
) -> Atlases {
    let n = g.len();
    let mut rng = Rng::new(seed ^ 0x1a7e5);
    let dests: Vec<AsId> = rng
        .sample(n, SAMPLE_DESTS)
        .into_iter()
        .map(|i| AsId(i as u32))
        .collect();

    let mut ctx = DestContext::new(n);
    let (us, k) = median_us(&dests, |&d| {
        ctx.compute(g, d, &TIEBREAK);
        black_box(ctx.reachable());
    });
    l.set("routing.context.compute_us", us, k);

    let budget = replay::CTX_CACHE_MB << 20;
    let (secs, atlas) = timed(|| RoutingAtlas::build(g, &TIEBREAK, budget, 1));
    l.set("routing.atlas.build_ms", secs * 1e3, 1);
    warm_cores();
    let (secs, _) = timed(|| black_box(RoutingAtlas::build(g, &TIEBREAK, budget, 2)));
    l.set("routing.atlas.build_t2_ms", secs * 1e3, 1);
    let s = atlas.stats();
    l.set(
        "routing.atlas.bytes_per_dest",
        s.bytes as f64 / s.stored.max(1) as f64,
        s.stored,
    );
    l.set("routing.atlas.compression", s.compression_ratio(), s.stored);
    let starved = RoutingAtlas::build(g, &TIEBREAK, starved_mb << 20, 1);
    l.set(
        "routing.atlas.starved_stored_ratio",
        starved.stats().stored as f64 / n as f64,
        n,
    );

    let mut scratch = AtlasScratch::with_capacity(n);
    let (us, k) = median_us(&dests, |&d| {
        black_box(atlas.get(d, &mut scratch).is_some());
    });
    l.set("routing.atlas.get_us", us, k);

    let mut tree = RouteTree::new(n);
    let (mut flow, mut u_out, mut u_in) = (Vec::new(), vec![0.0; n], vec![0.0; n]);
    let mut deps = TbDependents::new(n);
    let (mut tree_us, mut fold_us, mut deps_us) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &dests {
        let Some(view) = atlas.get(d, &mut scratch) else {
            continue;
        };
        tree_us.push(timed(|| compute_tree(g, &view, state, POLICY, &mut tree)).0 * 1e6);
        fold_us.push(
            timed(|| fold_utilities(&view, &tree, w, &mut flow, &mut u_out, &mut u_in)).0 * 1e6,
        );
        deps_us.push(timed(|| deps.build(&view)).0 * 1e6);
    }

    // Projections as the engine makes them (C.4-3): a secure
    // destination, and an insecure ISP whose flip can create a secure
    // path, because a tiebreak-set member of it, or of a stub customer
    // it would upgrade, already has one. The candidate flips itself and
    // its insecure stub customers.
    let secure_dests: Vec<AsId> = state.iter().collect();
    let isps: Vec<AsId> = g.isps().filter(|&x| !state.get(x)).collect();
    let mut delta = DeltaScratch::new(n);
    let mut project_us = Vec::new();
    for i in rng.sample(secure_dests.len(), SAMPLE_DESTS) {
        let Some(view) = atlas.get(secure_dests[i], &mut scratch) else {
            continue;
        };
        compute_tree(g, &view, state, POLICY, &mut tree);
        accumulate_flows(&view, &tree, w, &mut flow);
        deps.build(&view);
        let member_secure = |x: AsId| {
            view.tiebreak_set(x)
                .iter()
                .any(|&m| tree.secure[m as usize])
        };
        let eligible: Vec<AsId> = isps
            .iter()
            .copied()
            .filter(|&c| {
                member_secure(c)
                    || g.stub_customers_of(c)
                        .any(|s| !state.get(s) && member_secure(s))
            })
            .collect();
        for k in rng.sample(eligible.len(), 32) {
            let cand = eligible[k];
            let mut flips = vec![cand];
            flips.extend(g.stub_customers_of(cand).filter(|&s| !state.get(s)));
            let mut flipped = state.clone();
            for &f in &flips {
                flipped.set(f, true);
            }
            let (secs, out) = timed(|| {
                delta_project(
                    g,
                    &view,
                    &deps,
                    &tree,
                    &flow,
                    &flipped,
                    &flips,
                    POLICY,
                    w,
                    cand,
                    view.reachable() / 4,
                    &mut delta,
                )
            });
            black_box(out);
            project_us.push(secs * 1e6);
        }
    }
    for (name, xs) in [
        ("routing.tree.compute_us", &tree_us),
        ("routing.flows.fold_us", &fold_us),
        ("routing.delta.deps_build_us", &deps_us),
    ] {
        if !xs.is_empty() {
            l.set(name, median(xs), xs.len());
        }
    }
    // The mean, not the median: most repairs touch a handful of nodes
    // and a few touch thousands, and the engine pays for the sum.
    if !project_us.is_empty() {
        l.set(
            "routing.delta.project_us",
            mean(&project_us),
            project_us.len(),
        );
    }
    Atlases {
        full: Arc::new(atlas),
        starved: Arc::new(starved),
    }
}

/// The world's atlas under the default budget and under the starved one.
struct Atlases {
    full: Arc<RoutingAtlas>,
    starved: Arc<RoutingAtlas>,
}

// ---------------------------------------------------------------------
// core.engine
// ---------------------------------------------------------------------

/// One round of the case-study shape (seeded state, every insecure ISP
/// a candidate) through `UtilityEngine::compute_in`: the first pass,
/// the steady state, the steady state without the delta kernel, on
/// two threads, and over an atlas built under the starved budget.
fn engine_rows(l: &mut Layers, g: &AsGraph, w: &Weights, atlases: &Atlases, starved_mb: usize) {
    let atlas = &atlases.full;
    let state = initial_state(g, &replay::case_study_adopters().select(g));
    let candidates: Vec<AsId> = g.isps().filter(|&x| !state.get(x)).collect();
    // First pass, then the median of `reps` further passes, in ms.
    let rounds = |cfg: sbgp_core::SimConfig, atlas: &Arc<RoutingAtlas>, reps: usize| {
        let engine = UtilityEngine::with_atlas(g, w, &TIEBREAK, cfg, Arc::clone(atlas));
        engine.with_pool(|pool| {
            let first = timed(|| black_box(engine.compute_in(pool, &state, &candidates))).0 * 1e3;
            let (steady, _) = median_ms(reps, || {
                black_box(engine.compute_in(pool, &state, &candidates));
            });
            (first, steady)
        })
    };
    let cfg = replay::sim_config(replay::THETA, 1, replay::CTX_CACHE_MB);
    let (first, steady) = rounds(cfg, atlas, 3);
    l.set("core.engine.round_first_ms", first, 1);
    l.set("core.engine.round_steady_ms", steady, 3);
    let full_cfg = sbgp_core::SimConfig {
        delta_projections: DeltaMode::Off,
        ..cfg
    };
    let (_, full) = rounds(full_cfg, atlas, 1);
    l.set("core.engine.round_full_ms", full, 1);
    l.set("core.engine.delta_speedup", full / steady, 1);
    warm_cores();
    let (_, steady_t2) = rounds(sbgp_core::SimConfig { threads: 2, ..cfg }, atlas, 3);
    l.set("core.engine.round_steady_t2_ms", steady_t2, 3);
    l.set(
        "core.engine.parallel_efficiency_t2",
        steady / (2.0 * steady_t2),
        3,
    );
    let starved_cfg = sbgp_core::SimConfig {
        ctx_cache_mb: starved_mb,
        ..cfg
    };
    let (_, starved_ms) = rounds(starved_cfg, &atlases.starved, 2);
    l.set("core.engine.round_starved_ms", starved_ms, 2);
}

/// The engine's own counters over the replayed pipeline, and what they
/// say about where `compute` time goes: each share is a count times a
/// unit cost measured above — an estimate, until spans exist inside
/// the engine.
fn engine_counters(l: &mut Layers, t: &EngineTotals, tracer: &Tracer, sim_builds_atlas: bool) {
    let s: &EngineStats = &t.stats;
    for (name, v) in [
        ("core.engine.trees_computed", s.trees_computed),
        ("core.engine.delta_hits", s.delta_hits),
        ("core.engine.delta_fallbacks", s.delta_fallbacks),
        ("core.engine.dests_computed", s.dests_computed),
        ("core.engine.dests_reused", s.dests_reused),
        ("core.engine.atlas_hits", s.atlas_hits),
        ("core.engine.atlas_misses", s.atlas_misses),
        ("core.engine.contexts_computed", s.contexts_computed),
        ("core.sim.rounds", t.rounds),
    ] {
        l.set(name, v as f64, 1);
    }
    l.set(
        "routing.delta.touched_fraction",
        s.delta_touched_fraction(),
        1,
    );
    let compute_ms = s.compute_ns as f64 / 1e6;
    let run_ms = tracer.total_ms("core.sim.run");
    let build_ms = if sim_builds_atlas {
        s.atlas_build_ns as f64 / 1e6
    } else {
        0.0
    };
    l.set("core.engine.compute_ms", compute_ms, s.passes as usize);
    l.set("core.sim.run_ms", run_ms, 1);
    l.set("core.sim.commit_ms", run_ms - compute_ms - build_ms, 1);
    if compute_ms > 0.0 {
        let share = |count: u64, unit_us: f64| count as f64 * unit_us / (compute_ms * 1e3);
        let parts = [
            (
                // Getting a context: decoded from the atlas on a hit,
                // recomputed on a miss.
                "core.engine.est_share.decode",
                share(s.atlas_hits, l.get("routing.atlas.get_us"))
                    + share(s.contexts_computed, l.get("routing.context.compute_us")),
            ),
            (
                "core.engine.est_share.tree",
                share(s.trees_computed, l.get("routing.tree.compute_us")),
            ),
            (
                "core.engine.est_share.delta",
                share(s.delta_hits, l.get("routing.delta.project_us"))
                    + share(s.dests_computed, l.get("routing.delta.deps_build_us")),
            ),
            (
                "core.engine.est_share.fold",
                share(s.dests_computed, l.get("routing.flows.fold_us")),
            ),
        ];
        let explained: f64 = parts.iter().map(|p| p.1).sum();
        for (name, v) in parts {
            l.set(name, v, 1);
        }
        l.set("core.engine.est_share.unexplained", 1.0 - explained, 1);
    }
}

// ---------------------------------------------------------------------
// core.checkpoint, core.storage, core.supervise, core.serve
// ---------------------------------------------------------------------

fn checkpoint_rows(l: &mut Layers, results: &[(String, SimResult)], disk: &Store) {
    let mut encoded = Vec::new();
    let (us, k) = median_us(results, |(_, r)| {
        let mut text = String::new();
        encode_result(&mut text, r);
        encoded.push(text);
    });
    l.set("core.checkpoint.encode_us", us, k);
    let (us, k) = median_us(&encoded, |text| {
        black_box(decode_result(&mut Parser::new(text)).expect("round trip"));
    });
    l.set("core.checkpoint.decode_us", us, k);
    let bytes: usize = encoded.iter().map(String::len).sum();
    l.set(
        "core.checkpoint.bytes_per_result",
        bytes as f64 / encoded.len().max(1) as f64,
        encoded.len(),
    );

    let fingerprint = 0x1ed9e4;
    let mut ckpt = SweepCheckpoint::new(fingerprint);
    for (key, r) in results {
        ckpt.insert(key.clone(), r.clone());
    }
    let (ms, k) = median_ms(5, || {
        ckpt.save_to(disk, "rows/sweep.ckpt")
            .expect("scratch is writable")
    });
    l.set("core.checkpoint.save_ms", ms, k);
    let mem = Store::in_memory();
    let (ms, k) = median_ms(5, || {
        ckpt.save_to(&mem, "rows/sweep.ckpt").expect("memory store")
    });
    l.set("core.checkpoint.save_mem_ms", ms, k);
    let (ms, k) = median_ms(5, || {
        black_box(
            SweepCheckpoint::load_from(disk, "rows/sweep.ckpt", fingerprint).expect("just saved"),
        );
    });
    l.set("core.checkpoint.load_ms", ms, k);

    let mut journal =
        UnitJournal::open_in(disk, "rows/sweep.journal").expect("scratch is writable");
    let (us, k) = median_us(results, |(key, r)| {
        journal.append(key, r).expect("scratch is writable")
    });
    l.set("core.checkpoint.journal_append_us", us, k);
    let (ms, k) = median_ms(5, || {
        let (units, report) =
            UnitJournal::replay_in(disk, "rows/sweep.journal").expect("just written");
        assert!(units.len() == results.len() && report.is_clean());
    });
    l.set("core.checkpoint.journal_replay_ms", ms, k);
}

fn storage_rows(l: &mut Layers, disk: &Store) {
    let page = vec![0x5au8; 64 * 1024];
    let record = [0x5au8; 256];
    for (store, put, append) in [
        (
            disk,
            "core.storage.put_atomic_us",
            "core.storage.append_durable_us",
        ),
        (
            &Store::in_memory(),
            "core.storage.put_atomic_mem_us",
            "core.storage.append_durable_mem_us",
        ),
    ] {
        let (us, k) = median_us(0..IO_REPS, |_| {
            store.put_atomic("rows/page", &page).expect("writable")
        });
        l.set(put, us, k);
        let (us, k) = median_us(0..IO_REPS, |_| {
            store.append_durable("rows/log", &record).expect("writable")
        });
        l.set(append, us, k);
    }
    let (us, k) = median_us(0..IO_REPS, |_| {
        black_box(disk.get("rows/page").expect("readable"));
    });
    l.set("core.storage.get_us", us, k);
}

fn supervise_rows(l: &mut Layers, results: &[(String, SimResult)]) -> io::Result<()> {
    let mut frames = Vec::new();
    let (us, k) = median_us(results, |(key, r)| {
        frames.push(encode_from_worker(&FromWorker::Unit {
            key: key.clone(),
            result: r.clone(),
            // Without the two wall-clock fields: their digit count
            // varies run to run, and the frame size is an exact metric.
            stats: EngineStats {
                compute_ns: 0,
                atlas_build_ns: 0,
                ..r.stats
            },
        }));
    });
    l.set("core.supervise.protocol.encode_us", us, k);
    let (us, k) = median_us(&frames, |f| {
        black_box(decode_from_worker(f).expect("round trip"));
    });
    l.set("core.supervise.protocol.decode_us", us, k);
    let bytes: usize = frames.iter().map(String::len).sum();
    l.set(
        "core.supervise.protocol.frame_bytes",
        bytes as f64 / frames.len().max(1) as f64,
        frames.len(),
    );
    let Some(frame) = frames.first() else {
        return Ok(());
    };

    // Pipes: through another process and back, as a shard worker's
    // stdin/stdout would carry it. `cat` is the echo.
    let mut cmd = Command::new("cat");
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    let mut child = cmd.spawn()?;
    let (mut tx, mut rx) = (
        child.stdin.take().expect("piped"),
        child.stdout.take().expect("piped"),
    );
    let echo = Guard::adopt(child);
    let round_trip_ok = |sent: &str, got: Result<Option<String>, _>| -> io::Result<()> {
        match got {
            Ok(Some(back)) if back == sent => Ok(()),
            other => Err(io::Error::other(format!(
                "frame echo failed: {:?}",
                other.map(|o| o.map(|s| s.len()))
            ))),
        }
    };
    let mut us = Vec::new();
    for _ in 0..IO_REPS {
        let (secs, got) = timed(|| write_frame(&mut tx, frame).and_then(|()| read_frame(&mut rx)));
        round_trip_ok(frame, got)?;
        us.push(secs * 1e6);
    }
    drop((tx, rx, echo));
    l.set("core.supervise.frame.rtt_pipe_us", median(&us), us.len());

    // TCP over loopback, as a `repro worker` link would carry it.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let us = std::thread::scope(|s| -> io::Result<Vec<f64>> {
        s.spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            while let Ok(Some(f)) = read_frame(&mut peer) {
                if write_frame(&mut peer, &f).is_err() {
                    break;
                }
            }
        });
        let mut link = TcpStream::connect(addr)?;
        link.set_nodelay(true)?;
        let mut us = Vec::new();
        for _ in 0..IO_REPS {
            let (secs, got) =
                timed(|| write_frame(&mut link, frame).and_then(|()| read_frame(&mut link)));
            round_trip_ok(frame, got)?;
            us.push(secs * 1e6);
        }
        // Dropping the link ends the echo thread's read loop.
        Ok(us)
    })?;
    l.set("core.supervise.frame.rtt_tcp_us", median(&us), us.len());
    Ok(())
}

fn serve_rows(l: &mut Layers, disk: &Store, result: &[u8]) {
    let spec = |i: usize| JobSpec::new("fig9", &format!("ases = 300\nseed = {i}\n"));
    let (mut board, _) = JobBoard::open(disk, "rows/jobs.joblog", 4 * IO_REPS, 4 * IO_REPS)
        .expect("scratch is writable");
    let (us, k) = median_us(0..IO_REPS, |i| {
        black_box(board.submit(spec(i), "rows").expect("scratch is writable"));
    });
    l.set("core.serve.submit_us", us, k);
    // Drain what the submit row queued, so the lifecycle row below
    // starts the job it just submitted.
    while let Some((id, _, _)) = board.start_next().expect("scratch is writable") {
        board.complete(&id, result).expect("scratch is writable");
    }
    let (us, k) = median_us(IO_REPS..2 * IO_REPS, |i| {
        board.submit(spec(i), "rows").expect("scratch is writable");
        let (id, _, _) = board
            .start_next()
            .expect("scratch is writable")
            .expect("just submitted");
        board.complete(&id, result).expect("scratch is writable");
    });
    l.set("core.serve.lifecycle_us", us, k);
    let (us, k) = median_us(0..IO_REPS, |i| {
        black_box(board.submit(spec(i), "rows").expect("scratch is writable"));
    });
    l.set("core.serve.cached_submit_us", us, k);

    // Journal replay over 1,000 finished jobs. The journal is written
    // in memory (3,000 durable appends would take longer than every
    // other row together) and opened from disk.
    let mem = Store::in_memory();
    let (mut big, _) = JobBoard::open(&mem, "big.joblog", 1, 1).expect("memory store");
    for i in 0..1000 {
        big.submit(spec(i), "rows").expect("memory store");
        let (id, _, _) = big
            .start_next()
            .expect("memory store")
            .expect("just submitted");
        big.complete(&id, b"").expect("memory store");
    }
    let journal = mem
        .get("big.joblog")
        .expect("memory store")
        .expect("written above");
    disk.put_atomic("rows/big.joblog", &journal)
        .expect("scratch is writable");
    let (ms, k) = median_ms(5, || {
        let (_, replay) = JobBoard::open(disk, "rows/big.joblog", 1, 1).expect("just written");
        assert_eq!(replay.done, 1000);
    });
    l.set("core.serve.replay_ms", ms, k);
}

// ---------------------------------------------------------------------
// core.scenario
// ---------------------------------------------------------------------

fn scenario_rows(
    l: &mut Layers,
    ctx: &Ctx,
    g: &AsGraph,
    traced: &replay::Scenario,
    tracer: &Tracer,
) {
    let scale = ctx.scale;
    let (ms, k) = median_ms(5, || {
        black_box(select_pairs(
            g,
            PairStrategy::SeededRandom,
            scale.scenario_pairs,
            ctx.seed,
        ));
    });
    l.set("core.scenario.select_ms", ms, k);
    let surface_ms = tracer.total_ms("core.scenario.run_surface");
    let run = traced.stats.scenarios_run;
    l.set("core.scenario.surface_ms", surface_ms, 1);
    l.set(
        "core.scenario.us_per_scenario",
        surface_ms * 1e3 / run.max(1) as f64,
        run as usize,
    );
    l.set("core.scenario.scenarios_run", run as f64, 1);
    l.set(
        "core.scenario.fixpoint_iters",
        traced.stats.fixpoint_iters as f64,
        1,
    );
    let mut t2 = Tracer::new(true);
    warm_cores();
    replay::scenario(
        scale.scenario_ases,
        ctx.seed,
        scale.scenario_pairs,
        2,
        &mut t2,
    );
    l.set(
        "core.scenario.surface_t2_ms",
        t2.total_ms("core.scenario.run_surface"),
        1,
    );

    // The reference the fast engine is read against: the synchronous
    // oracle on 64 seeded scenarios over the seeded deployment state.
    let state = initial_state(g, &replay::case_study_adopters().select(g));
    let policy = ScenarioPolicy::security_third();
    let pairs = select_pairs(g, PairStrategy::SeededRandom, 64, ctx.seed ^ 0x0bac1e);
    let (us, k) = median_us(pairs.iter().enumerate(), |(i, &(attacker, victim))| {
        let attack = AttackModel::ALL[i % AttackModel::ALL.len()];
        black_box(
            converge_scenario(g, &state, &policy, attack, attacker, victim, &TIEBREAK).is_ok(),
        );
    });
    l.set("routing.scenario_oracle.converge_us", us, k);
}

// ---------------------------------------------------------------------
// experiments: through the process and socket boundary
// ---------------------------------------------------------------------

/// Median wall of `reps` runs of `repro <args>`, each in a fresh
/// directory; every run is an op in the tally.
fn median_wall(
    ctx: &Ctx,
    report: &mut Report,
    label: &str,
    args: &[String],
    reps: usize,
) -> io::Result<f64> {
    let mut walls = Vec::new();
    for _ in 0..reps {
        let op = ctx.repro.run(args, ctx.scratch.fresh(label)?)?;
        report
            .tally
            .op(op.exit.success, || format!("{label} exited non-zero"));
        walls.push(op.wall_s);
    }
    Ok(median(&walls))
}

fn sweep_process_rows(
    l: &mut Layers,
    ctx: &Ctx,
    report: &mut Report,
    want: &[Csv],
) -> io::Result<f64> {
    let with = |dispatch: &str| ctx.scale.fig8(ctx.seed, dispatch);
    let inproc = median_wall(ctx, report, "sweep-inproc", &with(""), 5)?;
    let ckpt = median_wall(ctx, report, "sweep-ckpt", &with("--checkpoint-every 1"), 5)?;
    let sharded = median_wall(
        ctx,
        report,
        "sweep-shards",
        &with("--checkpoint-every 1 --process-shards 2"),
        5,
    )?;
    l.set("experiments.sweep.inproc_s", inproc, 5);
    l.set("experiments.sweep.ckpt_s", ckpt, 5);
    l.set("experiments.sweep.durability_ms", (ckpt - inproc) * 1e3, 5);
    l.set("experiments.sweep.dispatch_ms", (sharded - ckpt) * 1e3, 5);

    // Resume over a finished checkpoint: all 49 units load, none runs.
    let mut resumes = Vec::new();
    for _ in 0..5 {
        let dir = ctx.scratch.fresh("sweep-resume")?;
        let first = ctx.repro.run(&with("--checkpoint-every 1"), dir.clone())?;
        let again = ctx.repro.run(&with("--resume"), dir)?;
        report.tally.op(first.exit.success, || {
            "the sweep to resume exited non-zero".to_string()
        });
        e2e::check_op(&mut report.tally, &again, "resumed sweep", want);
        resumes.push(again.wall_s);
    }
    l.set(
        "experiments.sweep.resume_ms",
        median(&resumes) * 1e3,
        resumes.len(),
    );
    report.note(format!(
        "dominance: experiments.sweep.inproc_s / wall_s (--process-shards 2) = {:.3}",
        inproc / sharded
    ));
    Ok(ckpt)
}

/// The jobs of the traced served run: two worlds, one client.
fn traced_jobs(scale: &Scale, seed: u64) -> Vec<JobParams> {
    e2e::job_list(seed, scale.served_ases, 2, scale.traced_jobs_per_world)
}

fn serve_process_rows(
    l: &mut Layers,
    ctx: &Ctx,
    report: &mut Report,
    jobs: &[JobParams],
    want: &[Csv],
) -> io::Result<f64> {
    let daemon = e2e::start_daemon(ctx, "traced-daemon")?;
    l.set(
        "experiments.serve.boot_ms",
        daemon.started.elapsed().as_secs_f64() * 1e3,
        1,
    );
    let addr = daemon.addr.clone();

    // One client, so latency is service time: no queueing behind
    // another client's job.
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut polls = 0;
    for (job, csv) in jobs.iter().zip(want) {
        match e2e::submit_and_fetch(&addr, job, false) {
            Ok(served) => {
                report.tally.same_bytes(&served.result, &csv.bytes, || {
                    "served result vs the in-process replay".to_string()
                });
                latencies.push(served.latency_s * 1e3);
                polls += served.polls;
            }
            Err(e) => report.tally.op(false, || format!("traced job: {e}")),
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = e2e::stats_of(&addr);
    let stat = |key: &str| {
        stats
            .as_ref()
            .ok()
            .and_then(|v| v.get(key).and_then(Value::as_f64))
            .unwrap_or(0.0)
    };
    report.tally.op(stats.is_ok(), || {
        format!("GET /stats: {:?}", stats.as_ref().err())
    });
    let exec_ms = stat("mean_job_ms");
    l.set("experiments.serve.exec_ms", exec_ms, jobs.len());
    let (hits, misses) = (stat("atlas_cache_hits"), stat("atlas_cache_misses"));
    if hits + misses > 0.0 {
        l.set(
            "experiments.serve.atlas_cache_hit_rate",
            hits / (hits + misses),
            (hits + misses) as usize,
        );
    }
    if !latencies.is_empty() {
        l.set(
            "experiments.serve.overhead_1c_ms",
            median(&latencies) - exec_ms,
            latencies.len(),
        );
        l.set(
            "experiments.serve.polls_per_job",
            polls as f64 / latencies.len() as f64,
            latencies.len(),
        );
        report.note(format!(
            "dominance: experiments.serve.exec_ms / one-client job p50 = {:.3}",
            exec_ms / median(&latencies)
        ));
    }

    // The front end alone: sequential requests, none of which runs a job
    // (the POST resubmits a finished spec).
    let body = e2e::job_body(&jobs[0]);
    let id = http(&addr, "POST", "/jobs", &body)
        .ok()
        .and_then(|(_, b)| Value::parse(&String::from_utf8_lossy(&b)).ok())
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default();
    for (name, method, path, body) in [
        (
            "experiments.serve.healthz_us",
            "GET",
            "/healthz".to_string(),
            "",
        ),
        (
            "experiments.serve.post_us",
            "POST",
            "/jobs".to_string(),
            body.as_str(),
        ),
        (
            "experiments.serve.status_us",
            "GET",
            format!("/jobs/{id}"),
            "",
        ),
        (
            "experiments.serve.result_us",
            "GET",
            format!("/jobs/{id}/result"),
            "",
        ),
    ] {
        let mut ok = true;
        let (us, k) = median_us(0..IO_REPS, |_| {
            ok &= http(&addr, method, &path, body).is_ok_and(|(status, _)| status == 200);
        });
        report
            .tally
            .op(ok, || format!("{method} {path} did not answer 200"));
        l.set(name, us, k);
    }

    let (secs, exit) = timed(|| daemon.drain());
    report.tally.op(exit?.success, || {
        "traced daemon did not drain to exit 0".to_string()
    });
    l.set("experiments.serve.drain_ms", secs * 1e3, 1);
    Ok(elapsed)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// What a workload's replay hands back for the rows that follow it.
struct Replayed {
    outputs: Vec<Csv>,
    totals: EngineTotals,
    /// Unit results of a sweep replay (codec and frame payloads).
    results: Vec<(String, SimResult)>,
    scenario: Option<replay::Scenario>,
    /// The case study's result, when the workload is one.
    case_study: Option<SimResult>,
}

fn replay_workload(
    scale: &Scale,
    seed: u64,
    scratch: &Scratch,
    workload: Kind,
    tr: &mut Tracer,
) -> io::Result<Replayed> {
    let mut out = Replayed {
        outputs: Vec::new(),
        totals: EngineTotals::default(),
        results: Vec::new(),
        scenario: None,
        case_study: None,
    };
    tr.span("replay", |tr| -> io::Result<()> {
        match workload {
            Kind::CaseStudy | Kind::CaseStudyStarved => {
                let mb = scale.cache_mb(workload == Kind::CaseStudyStarved);
                let fig = replay::fig3(scale.case_ases, seed, 1, mb, tr);
                out.totals.absorb(&fig.result);
                out.outputs = vec![fig.csv];
                out.case_study = Some(fig.result);
            }
            Kind::SweepDispatch => {
                let store = Store::localdisk(scratch.fresh("replay-store")?);
                let fig = replay::fig8(scale.sweep_ases, seed, Some(&store), tr);
                out.totals = fig.totals;
                out.outputs = fig.csvs.to_vec();
                out.results = fig.results;
            }
            Kind::ScenarioSurface => {
                let s = replay::scenario(scale.scenario_ases, seed, scale.scenario_pairs, 1, tr);
                out.totals = s.totals;
                out.outputs = s.csvs.to_vec();
                out.scenario = Some(s);
            }
            Kind::ServedJobs => {
                let store = Store::localdisk(scratch.fresh("replay-store")?);
                let (csvs, totals) = replay::served_jobs(&traced_jobs(scale, seed), &store, tr);
                out.totals = totals;
                out.outputs = csvs;
            }
        }
        Ok(())
    })?;
    Ok(out)
}

pub fn run(ctx: &Ctx, workload: Kind) -> io::Result<Traced> {
    let mut report = Report::default();
    let mut l = Layers::default();
    let scale = ctx.scale;

    // The replay with spans, on the world the end-to-end run of this
    // workload and seed measures: for a case study the first candidate
    // whose deployment takes off (see `replay::takes_off`).
    let mut candidates = replay::world_candidates(ctx.seed);
    let (seed, tracer, traced) = loop {
        let seed = candidates.next().expect("the candidate list is not empty");
        let mut tracer = Tracer::new(true);
        let traced = replay_workload(scale, seed, ctx.scratch, workload, &mut tracer)?;
        let takes_off = traced
            .case_study
            .as_ref()
            .is_none_or(|result| replay::takes_off(result.final_state.count(), scale.case_ases));
        if takes_off || candidates.len() == 0 {
            break (seed, tracer, traced);
        }
    };
    // The same replay without spans: the ratio of the two is what
    // tracing costs, and their outputs must agree.
    let inproc_ms = tracer.total_ms("replay");
    let (plain_s, plain) =
        timed(|| replay_workload(scale, seed, ctx.scratch, workload, &mut Tracer::new(false)));
    let plain = plain?;
    report.tally.op(plain.outputs == traced.outputs, || {
        "the replay with spans and the replay without disagree".to_string()
    });
    // (The served jobs of a traced run are not the ones `expected/`
    // holds an answer for.)
    if workload != Kind::ServedJobs {
        report
            .tally
            .against_expected(ctx.expected, workload.name(), seed, &traced.outputs);
    }
    l.set("trace.inproc_ms", inproc_ms, 1);
    // A replay of a quarter second (`sweep-dispatch`) is paired five
    // times: one pair's ratio wanders by 2%, the whole acceptance band.
    let mut ratios = vec![inproc_ms / (plain_s * 1e3)];
    while inproc_ms < 1e3 && ratios.len() < 5 {
        let mut again = Tracer::new(true);
        replay_workload(scale, seed, ctx.scratch, workload, &mut again)?;
        let (plain_s, plain) =
            timed(|| replay_workload(scale, seed, ctx.scratch, workload, &mut Tracer::new(false)));
        plain?;
        ratios.push(again.total_ms("replay") / (plain_s * 1e3));
    }
    l.set("trace.overhead_ratio", median(&ratios), ratios.len());
    l.set(
        "trace.attributed_ratio",
        tracer.attributed_ratio(),
        tracer.spans().len(),
    );
    l.set(
        "asgraph.world_ms",
        tracer.total_ms("asgraph.world") + tracer.total_ms("asgraph.weights"),
        1,
    );

    // The kernels, on the workload's own world.
    let ases = match workload {
        Kind::CaseStudy | Kind::CaseStudyStarved => scale.case_ases,
        Kind::SweepDispatch => scale.sweep_ases,
        Kind::ScenarioSurface => scale.scenario_ases,
        Kind::ServedJobs => scale.served_ases,
    };
    // Every workload's starved rows use the one starved budget, so
    // that the rows compare across workloads.
    let starved_mb = scale.starved_mb;
    let world = replay::World::build(ases, seed, &mut Tracer::new(false));
    let g = world.graph();
    let w = Weights::with_cp_fraction(g, replay::CP_FRACTION);
    // Half-way through the world's case-study deployment.
    let state = {
        let states = match &traced.case_study {
            Some(result) => result.states_by_round(),
            None => replay::case_study(g, &w, 2, replay::CTX_CACHE_MB, &mut Tracer::new(false))
                .states_by_round(),
        };
        states[states.len() / 2].clone()
    };
    let atlases = routing_rows(&mut l, g, &w, &state, seed, starved_mb);
    engine_rows(&mut l, g, &w, &atlases, starved_mb);
    let sim_builds_atlas = matches!(
        workload,
        Kind::CaseStudy | Kind::CaseStudyStarved | Kind::ScenarioSurface
    );
    engine_counters(&mut l, &traced.totals, &tracer, sim_builds_atlas);
    report.note(format!(
        "dominance: core.engine.compute_ms / trace.inproc_ms = {:.3}",
        l.get("core.engine.compute_ms") / inproc_ms
    ));

    let startup = median_wall(ctx, &mut report, "cli-startup", &e2e::words("fig2"), 5)?;
    l.set("experiments.cli.startup_ms", startup * 1e3, 5);

    // The layers this workload exercises, and the subprocess wall the
    // replay is read against.
    let disk = Store::localdisk(ctx.scratch.fresh("rows")?);
    let wall_s = match workload {
        Kind::CaseStudy | Kind::CaseStudyStarved => {
            let mb = scale.cache_mb(workload == Kind::CaseStudyStarved);
            let op = ctx
                .repro
                .run(&scale.fig3(seed, 1, mb), ctx.scratch.fresh("twin")?)?;
            e2e::check_op(&mut report.tally, &op, "subprocess fig3", &traced.outputs);
            op.wall_s
        }
        Kind::SweepDispatch => {
            checkpoint_rows(&mut l, &traced.results, &disk);
            storage_rows(&mut l, &disk);
            supervise_rows(&mut l, &traced.results)?;
            sweep_process_rows(&mut l, ctx, &mut report, &traced.outputs)?
        }
        Kind::ScenarioSurface => {
            let s = traced.scenario.as_ref().expect("scenario replay");
            scenario_rows(&mut l, ctx, g, s, &tracer);
            report.note(format!(
                "dominance: core.scenario.surface_ms / trace.inproc_ms = {:.3}",
                l.get("core.scenario.surface_ms") / inproc_ms
            ));
            let op = ctx.repro.run(
                &scale.scenario(seed, scale.scenario_pairs, 1),
                ctx.scratch.fresh("twin")?,
            )?;
            e2e::check_op(
                &mut report.tally,
                &op,
                "subprocess scenario",
                &traced.outputs,
            );
            op.wall_s
        }
        Kind::ServedJobs => {
            storage_rows(&mut l, &disk);
            let result = traced
                .outputs
                .first()
                .map(|c| c.bytes.clone())
                .unwrap_or_default();
            serve_rows(&mut l, &disk, &result);
            let spf = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "core.metrics.secure_path_fraction")
                .count();
            l.set(
                "core.metrics.secure_path_fraction_ms",
                tracer.total_ms("core.metrics.secure_path_fraction") / spf.max(1) as f64,
                spf,
            );
            serve_process_rows(
                &mut l,
                ctx,
                &mut report,
                &traced_jobs(scale, seed),
                &traced.outputs,
            )?
        }
    };
    l.set("trace.inproc_vs_wall", inproc_ms / (wall_s * 1e3), 1);

    l.fill(&mut report);
    Ok(Traced { report, tracer })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload's in-process replay at n = 150: the calls into
    /// `sbgp_asgraph`, `sbgp_routing` and `sbgp_core` still compile
    /// and run, are deterministic, and every root span is attributed.
    #[test]
    fn every_workload_replays_in_process_at_smoke_scale() {
        let scratch = Scratch::new().unwrap();
        for w in spec::WORKLOADS {
            let mut tracer = Tracer::new(true);
            let a = replay_workload(&Scale::SMOKE, 42, &scratch, w.kind, &mut tracer).unwrap();
            let b = replay_workload(&Scale::SMOKE, 42, &scratch, w.kind, &mut Tracer::new(false))
                .unwrap();
            assert!(!a.outputs.is_empty(), "{}", w.name);
            assert_eq!(a.outputs, b.outputs, "{}", w.name);
            assert!(a.totals.stats.passes > 0, "{}", w.name);
            assert_eq!(tracer.spans()[0].name, "replay");
            assert!(tracer.attributed_ratio() > 0.9, "{}", w.name);
        }
    }

    /// The kernel and I/O rows at n = 150 fill the names they claim.
    #[test]
    fn rows_fill_their_metrics_at_smoke_scale() {
        let scratch = Scratch::new().unwrap();
        let mut l = Layers::default();
        let world = replay::World::build(150, 42, &mut Tracer::new(false));
        let g = world.graph();
        let w = Weights::with_cp_fraction(g, replay::CP_FRACTION);
        let state = initial_state(g, &replay::case_study_adopters().select(g));
        let atlases = routing_rows(&mut l, g, &w, &state, 42, 0);
        engine_rows(&mut l, g, &w, &atlases, 0);
        let store = Store::localdisk(scratch.fresh("rows").unwrap());
        let fig = replay::fig8(150, 42, None, &mut Tracer::new(false));
        checkpoint_rows(&mut l, &fig.results, &store);
        storage_rows(&mut l, &store);
        supervise_rows(&mut l, &fig.results).unwrap();
        serve_rows(&mut l, &store, b"csv");
        for name in [
            "routing.context.compute_us",
            "routing.atlas.get_us",
            "routing.delta.project_us",
            "core.engine.round_steady_ms",
            "core.engine.delta_speedup",
            "core.checkpoint.bytes_per_result",
            "core.checkpoint.journal_replay_ms",
            "core.storage.put_atomic_us",
            "core.supervise.protocol.frame_bytes",
            "core.supervise.frame.rtt_pipe_us",
            "core.supervise.frame.rtt_tcp_us",
            "core.serve.lifecycle_us",
            "core.serve.replay_ms",
        ] {
            assert!(l.get(name) > 0.0, "{name}");
        }
        assert_eq!(l.get("routing.atlas.starved_stored_ratio"), 0.0);
        let mut report = Report::default();
        l.fill(&mut report);
        assert_eq!(report.metrics.len(), spec::PER_LAYER.len());
    }
}
