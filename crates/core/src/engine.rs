//! The per-round utility computation (Appendix C).
//!
//! For a deployment state `S`, one round must produce, for every node,
//! its utility `u_n(S)` and, for every *candidate* ISP `n`, its
//! projected utility `u_n(¬S_n, S_−n)` in its own flipped state. Done
//! naively that is `0.15·|V|` full routing-tree computations per
//! destination; the engine applies the paper's optimizations:
//!
//! * **C.1 / C.3** — per-destination route lengths, classes, and
//!   tiebreak sets are state-independent, so they are computed **once
//!   per simulation** into a shared [`RoutingAtlas`] and read from its
//!   arenas every round instead of re-running the three-stage BFS. A
//!   memory budget ([`SimConfig::ctx_cache_mb`]) caps the atlas on
//!   large graphs; destinations that did not fit are recomputed on
//!   miss into worker scratch.
//! * **C.4-1** — if a destination is insecure in both the base and the
//!   flipped state, its routing tree is *identical* in both (no secure
//!   paths can exist), so the candidate's projected contribution
//!   equals its base contribution and no work is needed. For an
//!   insecure destination `d`, the only candidates whose flip changes
//!   `d`'s security are `d` itself and — because turning on deploys
//!   simplex S\*BGP at stubs — `d`'s providers when `d` is a stub.
//!   The same argument holds **across rounds**: while `d` stays
//!   insecure its base tree, flows, and utility contributions cannot
//!   change, so the engine caches the contribution after the first
//!   computation and replays it verbatim in later rounds.
//! * **C.4-2** — in the outgoing model secure ISPs are never
//!   candidates (Theorem 6.2), handled by the caller's candidate list.
//! * **C.4-3** — for a secure destination, flipping candidate `n` ON
//!   provably leaves the tree unchanged unless a fully secure path
//!   could newly appear through `n` (some tiebreak-set member of `n`
//!   already has a secure path) or an upgraded stub of `n` would
//!   change its own choice (stubs prefer secure paths and have a
//!   secure member). Flipping `n` OFF changes nothing unless `n`'s own
//!   chosen path was secure.
//!
//! # Parallel layout
//!
//! Work is split across a **persistent worker pool** (the map side of
//! the paper's DryadLINQ layout, Appendix C.3). [`UtilityEngine::with_pool`]
//! spawns the workers once; each owns its scratch for the whole
//! simulation and pulls destination chunks off an atomic work-stealing
//! counter, which balances the cost skew between secure and insecure
//! destinations. Workers stream per-destination results back to the
//! caller, which commits them **in destination-major order** — so the
//! floating-point reductions are bit-identical for every thread count
//! (including the serial path).
//!
//! # Failure
//!
//! A round is a function of `(graph, atlas, state)`, and every
//! utility sums over *every* destination, so a round without one
//! destination is a different game. The engine therefore has no
//! failure path of its own: a panicking destination task (a guard
//! violation, a bug) fails the pass. The serial path re-raises the
//! task's own panic; the pool's committer panics naming the lowest
//! destination whose task died. Recovery lives where real faults
//! happen — the supervisor restarts dead shard workers, the checkpoint
//! journal survives killed processes, and `repro serve` parks a job
//! that panics twice.

use crate::config::{DeltaMode, SimConfig};
use crate::guard;
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_routing::{
    compute_tree, delta_project, diffcheck, flows_and_target_utility, fold_utilities, AtlasScratch,
    DeltaScratch, DestContext, RouteContext, RouteTree, RoutingAtlas, SecureSet, TbDependents,
    TieBreaker,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

use crate::config::UtilityModel;

/// Predicate-evaluation budget for shrinking one self-check violation
/// (each evaluation runs a full oracle convergence on the shrinking
/// graph, so this bounds the cost of minimizing a counterexample).
const SHRINK_AUDIT_BUDGET: usize = 512;

/// Release-mode node stride for the sampled export-legality guard
/// (debug builds check every node of every guarded destination).
const GUARD_STRIDE: usize = if cfg!(debug_assertions) { 1 } else { 16 };

/// Candidate action this round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CandKind {
    NotCandidate,
    /// Insecure ISP evaluating deployment (also secures its stubs).
    TurnOn,
    /// Secure ISP evaluating disabling (incoming model only).
    TurnOff,
}

/// A recorded disagreement between the fast routing pipeline and the
/// reference oracle, caught by the `--self-check` differential audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelfCheckViolation {
    /// The destination whose routing tree diverged.
    pub dest: AsId,
    /// One-line description of the first divergence.
    pub detail: String,
    /// Replayable counterexample artifact (see
    /// [`diffcheck::Counterexample::artifact`]), minimized when the
    /// divergence reproduces from the `(graph, secure-set, dest)`
    /// triple alone.
    pub artifact: String,
}

/// Deterministic self-check sampling: audit `dest` iff an FNV-1a hash
/// of its id, mapped to `[0, 1)`, falls below `rate`. Independent of
/// thread count and run order, so the audited set is reproducible.
fn self_check_due(rate: f64, dest: AsId) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in dest.0.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
}

/// Result of one round's utility computation.
#[derive(Clone, Debug)]
pub struct RoundComputation {
    /// `u_n(S)` per node, outgoing model (Eq. 1).
    pub base_out: Vec<f64>,
    /// `u_n(S)` per node, incoming model (Eq. 2).
    pub base_in: Vec<f64>,
    /// `u_n(¬S_n, S_−n)` per node, outgoing model. Meaningful only for
    /// the round's candidates; equals the base value elsewhere.
    pub proj_out: Vec<f64>,
    /// `u_n(¬S_n, S_−n)` per node, incoming model.
    pub proj_in: Vec<f64>,
    /// How many destinations the `--self-check` differential audit
    /// replayed through the oracle this round.
    pub audited: usize,
    /// Divergences the differential audit found, ascending by
    /// destination id; empty unless the fast pipeline is buggy.
    pub violations: Vec<SelfCheckViolation>,
}

impl RoundComputation {
    /// Base utility of `n` under `model`.
    pub fn base(&self, model: UtilityModel, n: AsId) -> f64 {
        match model {
            UtilityModel::Outgoing => self.base_out[n.index()],
            UtilityModel::Incoming => self.base_in[n.index()],
        }
    }

    /// Projected utility of `n` under `model`.
    pub fn projected(&self, model: UtilityModel, n: AsId) -> f64 {
        match model {
            UtilityModel::Outgoing => self.proj_out[n.index()],
            UtilityModel::Incoming => self.proj_in[n.index()],
        }
    }
}

/// Counters describing how much work the engine actually did — and how
/// much the Observation C.1 machinery (atlas + cross-round reuse) let
/// it skip. Snapshot via [`UtilityEngine::stats`]; flows into
/// [`SimResult::stats`](crate::SimResult::stats) and the perf reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Fresh `DestContext::compute` BFS runs performed inside rounds
    /// (atlas misses only; `0` when the whole graph fit the budget).
    pub contexts_computed: u64,
    /// Routing trees resolved (base trees + candidate projections).
    pub trees_computed: u64,
    /// Destination tasks that ran the full pipeline.
    pub dests_computed: u64,
    /// Destination tasks answered from the cross-round C.4-1 cache.
    pub dests_reused: u64,
    /// Engine passes (one per `compute*` call).
    pub passes: u64,
    /// Wall-clock nanoseconds spent inside `compute*` calls.
    pub compute_ns: u64,
    /// Per-destination context lookups served from the atlas arenas.
    pub atlas_hits: u64,
    /// Lookups that fell back to recompute (budget eviction).
    pub atlas_misses: u64,
    /// Destinations resident in the atlas.
    pub atlas_stored: u64,
    /// Destinations dropped while building because the budget filled.
    pub atlas_evicted: u64,
    /// Bytes held by the atlas arenas (compressed layout).
    pub atlas_bytes: u64,
    /// Bytes the stored contexts would occupy in the dense
    /// pre-compression layout; `atlas_raw_bytes / atlas_bytes` is the
    /// compression ratio.
    pub atlas_raw_bytes: u64,
    /// Wall-clock nanoseconds spent building the atlas.
    pub atlas_build_ns: u64,
    /// Candidate projections answered by the incremental delta kernel
    /// (C.4-3 subtree/frontier repair instead of a fresh tree).
    pub delta_hits: u64,
    /// Delta attempts that bailed to the full recompute because the
    /// repaired region exceeded the [`DeltaMode::Auto`] cutoff.
    pub delta_fallbacks: u64,
    /// Node repairs (decisions + flows) performed across all delta
    /// hits.
    pub delta_touched_nodes: u64,
    /// Reachable nodes the full recompute would have scanned across
    /// the same delta hits — the baseline for
    /// [`delta_touched_fraction`](Self::delta_touched_fraction).
    pub delta_full_nodes: u64,
}

impl EngineStats {
    /// Fraction of context lookups served from the atlas (`0.0` when
    /// no lookup happened).
    pub fn atlas_hit_rate(&self) -> f64 {
        let total = self.atlas_hits + self.atlas_misses;
        if total == 0 {
            0.0
        } else {
            self.atlas_hits as f64 / total as f64
        }
    }

    /// Fraction of destination tasks answered from the cross-round
    /// cache (`0.0` when no task ran).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.dests_computed + self.dests_reused;
        if total == 0 {
            0.0
        } else {
            self.dests_reused as f64 / total as f64
        }
    }

    /// Mean fraction of the full recompute's node scans the delta
    /// kernel actually performed (`0.0` when no delta projection ran;
    /// values above `1.0` would mean the "incremental" path did more
    /// work than recomputing — the bench-regression gate).
    pub fn delta_touched_fraction(&self) -> f64 {
        if self.delta_full_nodes == 0 {
            0.0
        } else {
            self.delta_touched_nodes as f64 / self.delta_full_nodes as f64
        }
    }

    /// Fold `other` into these totals. Work and lookup counters
    /// (destinations, trees, passes, atlas hits/misses, delta
    /// projections) sum. The storage gauges (bytes, stored, evicted,
    /// build time) describe the shared atlas itself, so `other`'s
    /// values replace these.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.contexts_computed += other.contexts_computed;
        self.trees_computed += other.trees_computed;
        self.dests_computed += other.dests_computed;
        self.dests_reused += other.dests_reused;
        self.passes += other.passes;
        self.compute_ns += other.compute_ns;
        self.atlas_hits += other.atlas_hits;
        self.atlas_misses += other.atlas_misses;
        self.atlas_stored = other.atlas_stored;
        self.atlas_evicted = other.atlas_evicted;
        self.atlas_bytes = other.atlas_bytes;
        self.atlas_raw_bytes = other.atlas_raw_bytes;
        self.atlas_build_ns = other.atlas_build_ns;
        self.delta_hits += other.delta_hits;
        self.delta_fallbacks += other.delta_fallbacks;
        self.delta_touched_nodes += other.delta_touched_nodes;
        self.delta_full_nodes += other.delta_full_nodes;
    }

    /// The work one engine did between its snapshot `earlier` and this
    /// later one: counters are the difference, gauges this snapshot's.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            contexts_computed: self.contexts_computed - earlier.contexts_computed,
            trees_computed: self.trees_computed - earlier.trees_computed,
            dests_computed: self.dests_computed - earlier.dests_computed,
            dests_reused: self.dests_reused - earlier.dests_reused,
            passes: self.passes - earlier.passes,
            compute_ns: self.compute_ns - earlier.compute_ns,
            atlas_hits: self.atlas_hits - earlier.atlas_hits,
            atlas_misses: self.atlas_misses - earlier.atlas_misses,
            delta_hits: self.delta_hits - earlier.delta_hits,
            delta_fallbacks: self.delta_fallbacks - earlier.delta_fallbacks,
            delta_touched_nodes: self.delta_touched_nodes - earlier.delta_touched_nodes,
            delta_full_nodes: self.delta_full_nodes - earlier.delta_full_nodes,
            ..*self
        }
    }
}

/// Internal atomic counters behind [`EngineStats`].
#[derive(Default)]
struct StatCells {
    contexts_computed: AtomicU64,
    trees_computed: AtomicU64,
    dests_computed: AtomicU64,
    dests_reused: AtomicU64,
    passes: AtomicU64,
    compute_ns: AtomicU64,
    delta_hits: AtomicU64,
    delta_fallbacks: AtomicU64,
    delta_touched_nodes: AtomicU64,
    delta_full_nodes: AtomicU64,
}

/// A destination's sparse utility contribution: `(node, Δu_out, Δu_in)`
/// ascending by node id, zero entries omitted (safe to skip bitwise:
/// every term is `≥ +0.0`, so adding an omitted zero is a no-op).
type Contrib = Vec<(u32, f64, f64)>;

/// Base `(u_out, u_in)` contribution of node `x` in a sparse list.
fn contrib_entry(c: &Contrib, x: AsId) -> (f64, f64) {
    match c.binary_search_by_key(&x.0, |e| e.0) {
        Ok(i) => (c[i].1, c[i].2),
        Err(_) => (0.0, 0.0),
    }
}

/// The round's immutable per-candidate metadata, shared by every task.
#[derive(Clone, Copy)]
struct RoundSpec<'s> {
    candidates: &'s [AsId],
    kind: &'s [CandKind],
    skip_rules: bool,
}

/// What one destination task produced, streamed back to the committer.
struct TaskBody {
    contrib: Arc<Contrib>,
    pending: Vec<(u32, f64, f64)>,
    audited: usize,
    violations: Vec<SelfCheckViolation>,
}

/// One streamed task result.
struct DestOutcome {
    dest: u32,
    body: TaskBody,
}

/// One round's worth of work, shared with every pool worker.
struct RoundJob {
    state: SecureSet,
    candidates: Vec<AsId>,
    kind: Vec<CandKind>,
    skip_rules: bool,
    /// Work-stealing cursor: workers claim `chunk`-sized destination
    /// ranges with `fetch_add` until the id space is exhausted.
    next: AtomicUsize,
    chunk: usize,
    out: mpsc::Sender<DestOutcome>,
}

/// Per-worker scratch: everything a thread needs to process
/// destinations without allocation in the loop. Lives for the whole
/// simulation (the pool keeps it across rounds).
struct Scratch {
    /// Fallback context buffer for atlas misses.
    ctx: DestContext,
    /// Decode buffers for atlas hits (tiebreak CSR + order widening).
    atlas_scratch: AtlasScratch,
    bufs: TaskBufs,
}

/// The non-context half of [`Scratch`], split out so a task can borrow
/// the context (`&Scratch::ctx` or an atlas view) and the buffers
/// mutably at the same time.
struct TaskBufs {
    base_tree: RouteTree,
    proj_tree: RouteTree,
    flow: Vec<f64>,
    base_flow: Vec<f64>,
    secure: SecureSet,
    dest_out: Vec<f64>,
    dest_in: Vec<f64>,
    flips: Vec<AsId>,
    /// Reverse tiebreak index for the delta kernel, rebuilt lazily per
    /// destination (`deps_ready`), shared by that destination's
    /// candidate projections.
    deps: TbDependents,
    deps_ready: bool,
    delta: DeltaScratch,
    // Whether `base_tree`/`base_flow` describe the current destination
    // in the current state, making the delta path sound. Cleared on
    // the cache-reuse path (stale buffers) and for a planted corrupt
    // tree in tests (the delta would faithfully extend the corruption,
    // but the full path would not — they must stay comparable).
    delta_ok: bool,
    // Candidate deltas from the in-flight destination task:
    // `(candidate index, Δout, Δin)`, handed to the committer when the
    // task returns.
    pending: Vec<(u32, f64, f64)>,
    // Self-check results from the in-flight task, handed over with
    // `pending`.
    pending_audits: usize,
    pending_violations: Vec<SelfCheckViolation>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            ctx: DestContext::new(n),
            atlas_scratch: AtlasScratch::with_capacity(n),
            bufs: TaskBufs {
                base_tree: RouteTree::new(n),
                proj_tree: RouteTree::new(n),
                flow: Vec::with_capacity(n),
                base_flow: Vec::with_capacity(n),
                secure: SecureSet::new(n),
                dest_out: vec![0.0; n],
                dest_in: vec![0.0; n],
                flips: Vec::new(),
                deps: TbDependents::new(n),
                deps_ready: false,
                delta: DeltaScratch::new(n),
                delta_ok: false,
                pending: Vec::new(),
                pending_audits: 0,
                pending_violations: Vec::new(),
            },
        }
    }
}

/// Destination-major commit state: applies streamed task bodies in
/// ascending destination order so every floating-point reduction is
/// performed in the same sequence regardless of thread count.
struct RoundAccum {
    base_out: Vec<f64>,
    base_in: Vec<f64>,
    delta_out: Vec<f64>,
    delta_in: Vec<f64>,
    audited: usize,
    violations: Vec<SelfCheckViolation>,
}

impl RoundAccum {
    fn new(n: usize) -> Self {
        RoundAccum {
            base_out: vec![0.0; n],
            base_in: vec![0.0; n],
            delta_out: vec![0.0; n],
            delta_in: vec![0.0; n],
            audited: 0,
            violations: Vec::new(),
        }
    }

    fn apply(&mut self, body: TaskBody) {
        for &(x, o, i) in body.contrib.iter() {
            self.base_out[x as usize] += o;
            self.base_in[x as usize] += i;
        }
        for &(c, o, i) in &body.pending {
            self.delta_out[c as usize] += o;
            self.delta_in[c as usize] += i;
        }
        self.audited += body.audited;
        self.violations.extend(body.violations);
    }

    fn finish(mut self, n: usize) -> RoundComputation {
        self.violations.sort_by_key(|v| v.dest);
        // Projected = base + accumulated deltas (skipped destinations
        // contribute zero delta by the C.4 arguments).
        let mut proj_out = self.delta_out;
        let mut proj_in = self.delta_in;
        for i in 0..n {
            proj_out[i] += self.base_out[i];
            proj_in[i] += self.base_in[i];
        }
        RoundComputation {
            base_out: self.base_out,
            base_in: self.base_in,
            proj_out,
            proj_in,
            audited: self.audited,
            violations: self.violations,
        }
    }
}

/// A live worker pool bound to one [`UtilityEngine`], created by
/// [`UtilityEngine::with_pool`]. Workers and their scratch survive
/// across every `compute_in` call made through the same pool.
pub struct EnginePool {
    /// One job channel per worker (empty on the serial path): each
    /// round every worker receives one `Arc` of the shared job and
    /// claims chunks off its atomic cursor.
    job_txs: Vec<mpsc::Sender<Arc<RoundJob>>>,
    /// Lazily created scratch for the serial (`threads <= 1`) path, so
    /// it too persists across rounds.
    serial: RefCell<Option<Box<Scratch>>>,
}

/// Does any member of `x`'s tiebreak set have a fully secure path in
/// `tree`?
#[inline]
fn member_secure<C: RouteContext + ?Sized>(ctx: &C, tree: &RouteTree, x: AsId) -> bool {
    ctx.tiebreak_set(x).iter().any(|&m| tree.secure[m as usize])
}

/// The round-utility engine; holds the immutable inputs shared by all
/// rounds of a simulation: the graph, weights, the frozen-context
/// [`RoutingAtlas`], and the cross-round C.4-1 contribution cache.
pub struct UtilityEngine<'a> {
    g: &'a AsGraph,
    weights: &'a Weights,
    tiebreaker: &'a dyn TieBreaker,
    cfg: SimConfig,
    atlas: Arc<RoutingAtlas>,
    /// C.4-1 cross-round cache: a destination's base contribution,
    /// filled the first time it is computed while insecure. Write-once
    /// is sound because the cached value is state-independent for as
    /// long as the destination stays insecure, and secure destinations
    /// never read it.
    reuse: Vec<OnceLock<Arc<Contrib>>>,
    stats: StatCells,
    /// Atlas hit/miss counts at engine construction. The atlas's own
    /// counters accumulate across every sharer; snapshotting here lets
    /// [`stats`](Self::stats) report *this engine's* lookups, so sweep
    /// summaries attribute atlas traffic per figure instead of leaking
    /// earlier figures' counts in.
    atlas_base: (u64, u64),
    /// A fault planted at one destination, for the tests that prove a
    /// panic propagates and that the differential audit catches a
    /// wrong tree.
    #[cfg(test)]
    plant: Option<Plant>,
}

impl<'a> UtilityEngine<'a> {
    /// Create an engine over `g` with traffic `weights`, building the
    /// frozen-context atlas (Observation C.1) up front with the
    /// [`SimConfig::ctx_cache_mb`] memory budget.
    ///
    /// # Panics
    /// Panics if the graph's stub/ISP/CP partition is internally
    /// inconsistent (see [`guard::check_partition`]) — every utility
    /// model in the paper leans on that partition, so an engine must
    /// never be built over a graph that violates it.
    pub fn new(
        g: &'a AsGraph,
        weights: &'a Weights,
        tiebreaker: &'a dyn TieBreaker,
        cfg: SimConfig,
    ) -> Self {
        let atlas = Arc::new(RoutingAtlas::build(
            g,
            tiebreaker,
            cfg.ctx_cache_bytes(),
            cfg.effective_threads(),
        ));
        Self::with_atlas(g, weights, tiebreaker, cfg, atlas)
    }

    /// Like [`new`](Self::new), but reusing an already-built atlas —
    /// the sweep harness shares one atlas across every repetition over
    /// the same `(graph, tiebreaker)`.
    ///
    /// # Panics
    /// Panics on an inconsistent partition (as [`new`](Self::new)) or
    /// if `atlas` was built over a different-sized graph.
    pub fn with_atlas(
        g: &'a AsGraph,
        weights: &'a Weights,
        tiebreaker: &'a dyn TieBreaker,
        cfg: SimConfig,
        atlas: Arc<RoutingAtlas>,
    ) -> Self {
        if let Err(v) = guard::check_partition(g) {
            panic!("{v}");
        }
        assert_eq!(
            atlas.nodes(),
            g.len(),
            "shared atlas was built over a different graph"
        );
        let a = atlas.stats();
        UtilityEngine {
            g,
            weights,
            tiebreaker,
            cfg,
            atlas,
            reuse: std::iter::repeat_with(OnceLock::new)
                .take(g.len())
                .collect(),
            stats: StatCells::default(),
            atlas_base: (a.hits, a.misses),
            #[cfg(test)]
            plant: None,
        }
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The frozen-context atlas this engine reads from.
    pub fn atlas(&self) -> &Arc<RoutingAtlas> {
        &self.atlas
    }

    /// Snapshot the engine's work counters. Atlas hit/miss counts are
    /// reported relative to engine construction — a shared atlas's
    /// cumulative counters never leak another engine's lookups into
    /// this snapshot.
    pub fn stats(&self) -> EngineStats {
        let a = self.atlas.stats();
        EngineStats {
            contexts_computed: self.stats.contexts_computed.load(Ordering::Relaxed),
            trees_computed: self.stats.trees_computed.load(Ordering::Relaxed),
            dests_computed: self.stats.dests_computed.load(Ordering::Relaxed),
            dests_reused: self.stats.dests_reused.load(Ordering::Relaxed),
            passes: self.stats.passes.load(Ordering::Relaxed),
            compute_ns: self.stats.compute_ns.load(Ordering::Relaxed),
            atlas_hits: a.hits - self.atlas_base.0,
            atlas_misses: a.misses - self.atlas_base.1,
            atlas_stored: a.stored as u64,
            atlas_evicted: a.evicted as u64,
            atlas_bytes: a.bytes as u64,
            atlas_raw_bytes: a.raw_bytes as u64,
            atlas_build_ns: a.build_ns,
            delta_hits: self.stats.delta_hits.load(Ordering::Relaxed),
            delta_fallbacks: self.stats.delta_fallbacks.load(Ordering::Relaxed),
            delta_touched_nodes: self.stats.delta_touched_nodes.load(Ordering::Relaxed),
            delta_full_nodes: self.stats.delta_full_nodes.load(Ordering::Relaxed),
        }
    }

    /// Run `f` with a live worker pool. The pool's workers (and their
    /// scratch) are spawned once and serve every
    /// [`compute_in`](Self::compute_in) call `f` makes — the
    /// simulation driver wraps its whole round loop in one `with_pool`
    /// so nothing is respawned per round. With `threads <= 1` no
    /// threads are spawned and the pool runs the serial path.
    pub fn with_pool<R>(&self, f: impl FnOnce(&EnginePool) -> R) -> R {
        let n = self.g.len();
        let threads = self.cfg.effective_threads().clamp(1, n.max(1));
        if threads <= 1 {
            let pool = EnginePool {
                job_txs: Vec::new(),
                serial: RefCell::new(None),
            };
            return f(&pool);
        }
        crossbeam::thread::scope(|scope| {
            let mut job_txs = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (job_tx, job_rx) = mpsc::channel::<Arc<RoundJob>>();
                job_txs.push(job_tx);
                scope.spawn(move |_| {
                    let mut sc = Scratch::new(n);
                    while let Ok(job) = job_rx.recv() {
                        self.work_job(&job, &mut sc);
                    }
                });
            }
            let pool = EnginePool {
                job_txs,
                serial: RefCell::new(None),
            };
            f(&pool)
            // Dropping `pool` closes the job channels; workers drain
            // and exit, and the scope joins them.
        })
        .expect("engine worker panicked")
    }

    /// Compute base and projected utilities for `state`.
    ///
    /// `candidates` are the ISPs whose projected (flipped) utility is
    /// needed: the simulation passes every insecure ISP (evaluating
    /// turn-on) and, in the incoming model, every secure ISP
    /// (evaluating turn-off).
    ///
    /// Convenience wrapper that stands up a transient pool; round
    /// loops should use [`with_pool`](Self::with_pool) +
    /// [`compute_in`](Self::compute_in) instead.
    pub fn compute(&self, state: &SecureSet, candidates: &[AsId]) -> RoundComputation {
        self.with_pool(|pool| self.compute_with_options_in(pool, state, candidates, true))
    }

    /// [`compute`](Self::compute) with the Appendix C.4 skip rules
    /// switchable (see
    /// [`compute_with_options_in`](Self::compute_with_options_in)).
    pub fn compute_with_options(
        &self,
        state: &SecureSet,
        candidates: &[AsId],
        skip_rules: bool,
    ) -> RoundComputation {
        self.with_pool(|pool| self.compute_with_options_in(pool, state, candidates, skip_rules))
    }

    /// [`compute`](Self::compute) on an existing pool.
    pub fn compute_in(
        &self,
        pool: &EnginePool,
        state: &SecureSet,
        candidates: &[AsId],
    ) -> RoundComputation {
        self.compute_with_options_in(pool, state, candidates, true)
    }

    /// One engine pass on an existing pool. `skip_rules = false`
    /// recomputes the routing tree for **every** (candidate,
    /// destination) pair and bypasses the cross-round reuse cache —
    /// the naive `O(0.15·t·|V|³)` algorithm. Exists for the ablation
    /// benchmark and as a cross-check oracle in tests; results must be
    /// identical either way.
    pub fn compute_with_options_in(
        &self,
        pool: &EnginePool,
        state: &SecureSet,
        candidates: &[AsId],
        skip_rules: bool,
    ) -> RoundComputation {
        let t0 = Instant::now();
        let n = self.g.len();
        let mut kind = vec![CandKind::NotCandidate; n];
        for &c in candidates {
            kind[c.index()] = if state.get(c) {
                CandKind::TurnOff
            } else {
                CandKind::TurnOn
            };
        }

        let mut acc = RoundAccum::new(n);
        match pool.job_txs.as_slice() {
            [] => {
                let mut slot = pool.serial.borrow_mut();
                let sc = slot.get_or_insert_with(|| Box::new(Scratch::new(n)));
                sc.bufs.secure.assign(state);
                let spec = RoundSpec {
                    candidates,
                    kind: &kind,
                    skip_rules,
                };
                for di in 0..n as u32 {
                    acc.apply(self.run_dest(AsId(di), state, spec, sc));
                }
            }
            job_txs => {
                let (out_tx, out_rx) = mpsc::channel();
                // Small chunks keep the work-stealing balanced across
                // the secure/insecure destination cost skew; large
                // enough to keep counter contention negligible. Past
                // ~16K destinations per-destination cost evens out and
                // there are thousands of chunks either way, so a wider
                // cap trades nothing in balance for fewer cursor
                // round-trips and longer sequential arena scans.
                let max_chunk = if n >= 16_384 { 256 } else { 64 };
                let chunk = (n / (job_txs.len() * 8)).clamp(1, max_chunk);
                let job = Arc::new(RoundJob {
                    state: state.clone(),
                    candidates: candidates.to_vec(),
                    kind,
                    skip_rules,
                    next: AtomicUsize::new(0),
                    chunk,
                    out: out_tx,
                });
                // One "invitation" per worker; claims are arbitrated by
                // the job's atomic cursor, so a straggling worker that
                // arrives after the cursor is exhausted is a no-op.
                for job_tx in job_txs {
                    job_tx
                        .send(Arc::clone(&job))
                        .expect("engine pool disconnected");
                }
                drop(job);
                // Destination-major reorder buffer: commit strictly in
                // ascending id order for thread-count-invariant sums.
                let mut held: BTreeMap<u32, TaskBody> = BTreeMap::new();
                let mut next_commit = 0u32;
                for _ in 0..n {
                    // A worker whose task panics dies without sending,
                    // and the channel closes once the others finish.
                    // Every destination below `next_commit` was
                    // delivered, so `next_commit` is the lowest one
                    // whose task panicked.
                    let Ok(o) = out_rx.recv() else {
                        panic!("engine task for destination {} panicked", AsId(next_commit));
                    };
                    if o.dest == next_commit {
                        acc.apply(o.body);
                        next_commit += 1;
                        while let Some(b) = held.remove(&next_commit) {
                            acc.apply(b);
                            next_commit += 1;
                        }
                    } else {
                        held.insert(o.dest, o.body);
                    }
                }
                debug_assert_eq!(next_commit as usize, n);
                debug_assert!(held.is_empty());
            }
        }
        let comp = acc.finish(n);
        self.stats.passes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .compute_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        comp
    }

    /// Worker body: claim destination chunks off the job's cursor
    /// until the id space is exhausted, streaming each task's result
    /// to the committer.
    fn work_job(&self, job: &RoundJob, sc: &mut Scratch) {
        let n = self.g.len();
        sc.bufs.secure.assign(&job.state);
        let spec = RoundSpec {
            candidates: &job.candidates,
            kind: &job.kind,
            skip_rules: job.skip_rules,
        };
        loop {
            let start = job.next.fetch_add(job.chunk, Ordering::Relaxed);
            if start >= n {
                return;
            }
            let end = (start + job.chunk).min(n);
            for di in start..end {
                let body = self.run_dest(AsId(di as u32), &job.state, spec, sc);
                if job
                    .out
                    .send(DestOutcome {
                        dest: di as u32,
                        body,
                    })
                    .is_err()
                {
                    return;
                }
            }
        }
    }

    /// Run one destination task and hand its contributions to the
    /// committer.
    fn run_dest(
        &self,
        d: AsId,
        state: &SecureSet,
        spec: RoundSpec<'_>,
        sc: &mut Scratch,
    ) -> TaskBody {
        #[cfg(test)]
        if let Some(Plant::Panic(at)) = self.plant {
            assert_ne!(at, d, "planted panic at destination {d}");
        }
        let (contrib, cacheable) = self.process_dest(d, state, spec, sc);
        if cacheable {
            let _ = self.reuse[d.index()].set(Arc::clone(&contrib));
        }
        TaskBody {
            contrib,
            pending: std::mem::take(&mut sc.bufs.pending),
            audited: std::mem::take(&mut sc.bufs.pending_audits),
            violations: std::mem::take(&mut sc.bufs.pending_violations),
        }
    }

    /// Process one destination: resolve its frozen context (atlas hit,
    /// or recompute on miss), then either replay the cross-round
    /// cached contribution (C.4-1, insecure destinations) or run the
    /// full tree/flows/projection pipeline.
    ///
    /// Returns the destination's sparse contribution plus whether it
    /// is freshly eligible for the cross-round cache.
    fn process_dest(
        &self,
        d: AsId,
        state: &SecureSet,
        spec: RoundSpec<'_>,
        sc: &mut Scratch,
    ) -> (Arc<Contrib>, bool) {
        let g = self.g;
        // The cross-round cache is only sound under the skip rules'
        // C.4-1 argument and only while `d` is insecure; the ablation
        // path (`skip_rules = false`) bypasses reads and writes.
        let fresh_insecure = spec.skip_rules && !state.get(d);
        if fresh_insecure {
            if let Some(cached) = self.reuse[d.index()].get() {
                let contrib = Arc::clone(cached);
                self.stats.dests_reused.fetch_add(1, Ordering::Relaxed);
                // Even a reused destination still owes projections for
                // the flips that would secure it: itself, or (stub
                // destinations) a candidate provider.
                let need_self = spec.kind[d.index()] == CandKind::TurnOn;
                let need_providers = g.is_stub(d)
                    && g.providers(d)
                        .iter()
                        .any(|&p| spec.kind[p.index()] == CandKind::TurnOn);
                if need_self || need_providers {
                    let Scratch {
                        ctx,
                        atlas_scratch,
                        bufs,
                    } = sc;
                    // The scratch base tree/flows describe some earlier
                    // destination — the delta path must not touch them.
                    bufs.delta_ok = false;
                    match self.atlas.get(d, atlas_scratch) {
                        Some(view) => {
                            self.project_insecure_reused(&view, bufs, d, state, spec, &contrib)
                        }
                        None => {
                            ctx.compute(g, d, self.tiebreaker);
                            self.stats.contexts_computed.fetch_add(1, Ordering::Relaxed);
                            self.project_insecure_reused(&*ctx, bufs, d, state, spec, &contrib)
                        }
                    }
                }
                return (contrib, false);
            }
        }
        self.stats.dests_computed.fetch_add(1, Ordering::Relaxed);
        let Scratch {
            ctx,
            atlas_scratch,
            bufs,
        } = sc;
        let contrib = match self.atlas.get(d, atlas_scratch) {
            Some(view) => self.process_dest_full(&view, bufs, d, state, spec),
            None => {
                ctx.compute(g, d, self.tiebreaker);
                self.stats.contexts_computed.fetch_add(1, Ordering::Relaxed);
                self.process_dest_full(&*ctx, bufs, d, state, spec)
            }
        };
        (contrib, fresh_insecure)
    }

    /// Projections owed by a cache-reused insecure destination, with
    /// base contributions read from the cached sparse list instead of
    /// the (stale) dense scratch.
    fn project_insecure_reused<C: RouteContext + ?Sized>(
        &self,
        ctx: &C,
        bufs: &mut TaskBufs,
        d: AsId,
        state: &SecureSet,
        spec: RoundSpec<'_>,
        base: &Contrib,
    ) {
        let g = self.g;
        if spec.kind[d.index()] == CandKind::TurnOn {
            self.project_candidate(
                ctx,
                bufs,
                d,
                CandKind::TurnOn,
                state,
                contrib_entry(base, d),
            );
        }
        if g.is_stub(d) {
            for &p in g.providers(d) {
                if spec.kind[p.index()] == CandKind::TurnOn {
                    self.project_candidate(
                        ctx,
                        bufs,
                        p,
                        CandKind::TurnOn,
                        state,
                        contrib_entry(base, p),
                    );
                }
            }
        }
    }

    /// The full per-destination pipeline: base tree, guards, flows,
    /// sparse contribution snapshot, and candidate projections.
    fn process_dest_full<C: RouteContext + ?Sized>(
        &self,
        ctx: &C,
        bufs: &mut TaskBufs,
        d: AsId,
        state: &SecureSet,
        spec: RoundSpec<'_>,
    ) -> Arc<Contrib> {
        let g = self.g;
        let policy = self.cfg.tree_policy;

        // Base tree, flows, and this destination's utility contributions.
        compute_tree(g, ctx, state, policy, &mut bufs.base_tree);
        self.stats.trees_computed.fetch_add(1, Ordering::Relaxed);

        // Test plant: silently corrupt the freshly computed tree — the
        // failure mode the differential audit below must catch.
        #[cfg(test)]
        let corrupted = self.plant == Some(Plant::CorruptTree(d));
        #[cfg(test)]
        if corrupted {
            corrupt_tree(ctx, &mut bufs.base_tree);
        }

        // Export-legality guard: every extracted path must be GR2-legal
        // and length-consistent. Debug builds check every sampled
        // destination fully; release builds sample nodes too. A
        // violation panics, failing the round.
        if guard::should_check(u64::from(d.0)) {
            if let Err(v) = guard::check_path_legality(g, ctx, &bufs.base_tree, GUARD_STRIDE) {
                panic!("{v}");
            }
        }

        // Differential self-check: replay this destination through the
        // reference oracle and record (never abort on) any divergence,
        // shrunk to a minimal reproducible counterexample when possible.
        if self_check_due(self.cfg.self_check, d) {
            bufs.pending_audits += 1;
            if let Some(m) =
                diffcheck::compare(g, ctx, &bufs.base_tree, state, policy, self.tiebreaker)
            {
                let detail = m.to_string();
                let tiebreaker = self.tiebreaker;
                let cex = diffcheck::shrink(
                    g,
                    state,
                    d,
                    policy,
                    m,
                    |g2, s2, d2| diffcheck::audit(g2, d2, s2, policy, tiebreaker),
                    SHRINK_AUDIT_BUDGET,
                );
                bufs.pending_violations.push(SelfCheckViolation {
                    dest: d,
                    detail,
                    artifact: cex.artifact(),
                });
            }
        }

        // Fused fold: flows plus this destination's dense utility
        // contribution in two order-streaming passes (bit-identical to
        // the unfused zero + accumulate_flows + add_utilities sequence
        // it replaced — pinned by the routing crate's fold test).
        fold_utilities(
            ctx,
            &bufs.base_tree,
            self.weights,
            &mut bufs.base_flow,
            &mut bufs.dest_out,
            &mut bufs.dest_in,
        );
        // The base tree and flows above are exactly what the delta
        // kernel repairs against; the reverse tiebreak index is built
        // lazily by the first projection that wants it.
        // Never on the ablation path (it exists to be an independent
        // oracle).
        bufs.delta_ok = spec.skip_rules && self.cfg.delta_projections != DeltaMode::Off;
        // Nor for a planted corrupt tree (the delta would faithfully
        // extend the corruption the full recompute repairs).
        #[cfg(test)]
        if corrupted {
            bufs.delta_ok = false;
        }
        bufs.deps_ready = false;
        // Sparse, id-ascending snapshot of this destination's base
        // contribution — the unit the committer sums and the C.4-1
        // cache replays.
        let mut entries: Contrib = Vec::new();
        for &xi in ctx.order() {
            let o = bufs.dest_out[xi as usize];
            let i = bufs.dest_in[xi as usize];
            if o != 0.0 || i != 0.0 {
                entries.push((xi, o, i));
            }
        }
        entries.sort_unstable_by_key(|e| e.0);
        let contrib = Arc::new(entries);

        if !spec.skip_rules {
            // Ablation mode: project every candidate against every
            // destination, no shortcuts.
            for &cand in spec.candidates {
                let k = spec.kind[cand.index()];
                debug_assert_ne!(k, CandKind::NotCandidate);
                let base = (bufs.dest_out[cand.index()], bufs.dest_in[cand.index()]);
                self.project_candidate(ctx, bufs, cand, k, state, base);
            }
            return contrib;
        }

        let d_secure = state.get(d);
        if !d_secure {
            // C.4-1: the tree of an insecure destination is
            // state-independent. Only flips that *secure d itself*
            // matter: d (if an insecure candidate ISP) or, for a stub
            // destination, its candidate providers (simplex upgrade).
            if spec.kind[d.index()] == CandKind::TurnOn {
                let base = (bufs.dest_out[d.index()], bufs.dest_in[d.index()]);
                self.project_candidate(ctx, bufs, d, CandKind::TurnOn, state, base);
            }
            if g.is_stub(d) {
                for &p in g.providers(d) {
                    if spec.kind[p.index()] == CandKind::TurnOn {
                        let base = (bufs.dest_out[p.index()], bufs.dest_in[p.index()]);
                        self.project_candidate(ctx, bufs, p, CandKind::TurnOn, state, base);
                    }
                }
            }
            return contrib;
        }

        // Secure destination: evaluate each candidate under C.4-3.
        for &cand in spec.candidates {
            match spec.kind[cand.index()] {
                CandKind::NotCandidate => unreachable!("candidate list mismatch"),
                CandKind::TurnOn => {
                    let mut need = member_secure(ctx, &bufs.base_tree, cand);
                    if !need && policy.stubs_prefer_secure {
                        need = g
                            .stub_customers_of(cand)
                            .any(|s| !state.get(s) && member_secure(ctx, &bufs.base_tree, s));
                    }
                    if need {
                        let base = (bufs.dest_out[cand.index()], bufs.dest_in[cand.index()]);
                        self.project_candidate(ctx, bufs, cand, CandKind::TurnOn, state, base);
                    }
                }
                CandKind::TurnOff => {
                    if bufs.base_tree.secure[cand.index()] {
                        let base = (bufs.dest_out[cand.index()], bufs.dest_in[cand.index()]);
                        self.project_candidate(ctx, bufs, cand, CandKind::TurnOff, state, base);
                    }
                }
            }
        }
        contrib
    }

    /// Recompute the tree in `cand`'s flipped state and record the
    /// delta of `cand`'s utility contribution (vs. `base`) for the
    /// current destination (handed over by [`Self::run_dest`]).
    fn project_candidate<C: RouteContext + ?Sized>(
        &self,
        ctx: &C,
        bufs: &mut TaskBufs,
        cand: AsId,
        kind: CandKind,
        state: &SecureSet,
        base: (f64, f64),
    ) {
        let g = self.g;
        bufs.flips.clear();
        bufs.flips.push(cand);
        let turning_on = kind == CandKind::TurnOn;
        if turning_on {
            // Deploying also installs simplex S*BGP at all currently
            // insecure stub customers (Section 2.3). Turning off does
            // not un-install it.
            for s in g.stub_customers_of(cand) {
                if !state.get(s) {
                    bufs.flips.push(s);
                }
            }
        }
        for &f in &bufs.flips {
            bufs.secure.set(f, turning_on);
        }
        // C.4-3 delta path: repair only the part of the base tree/flows
        // the flip can reach. Bit-identical to the full recompute below
        // (see `sbgp_routing::delta_project`); `None` means the repair
        // frontier exceeded the cutoff and we fall through.
        if bufs.delta_ok {
            if !bufs.deps_ready {
                bufs.deps.build(ctx);
                bufs.deps_ready = true;
            }
            let max_touched = match self.cfg.delta_projections {
                DeltaMode::On => usize::MAX,
                _ => ctx.reachable() / 4,
            };
            let outcome = delta_project(
                g,
                ctx,
                &bufs.deps,
                &bufs.base_tree,
                &bufs.base_flow,
                &bufs.secure,
                &bufs.flips,
                self.cfg.tree_policy,
                self.weights,
                cand,
                max_touched,
                &mut bufs.delta,
            );
            match outcome {
                Some(out) => {
                    self.stats.delta_hits.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .delta_touched_nodes
                        .fetch_add(out.touched as u64, Ordering::Relaxed);
                    self.stats
                        .delta_full_nodes
                        .fetch_add(ctx.reachable() as u64, Ordering::Relaxed);
                    bufs.pending
                        .push((cand.0, out.u_out - base.0, out.u_in - base.1));
                    for &f in &bufs.flips {
                        bufs.secure.set(f, !turning_on);
                    }
                    return;
                }
                None => {
                    self.stats.delta_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        compute_tree(
            g,
            ctx,
            &bufs.secure,
            self.cfg.tree_policy,
            &mut bufs.proj_tree,
        );
        self.stats.trees_computed.fetch_add(1, Ordering::Relaxed);
        let (o, i) =
            flows_and_target_utility(ctx, &bufs.proj_tree, self.weights, cand, &mut bufs.flow);
        bufs.pending.push((cand.0, o - base.0, i - base.1));
        for &f in &bufs.flips {
            bufs.secure.set(f, !turning_on);
        }
    }
}

/// A fault planted at one destination, so tests can watch a panic
/// propagate and the differential audit catch a wrong tree.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Plant {
    /// The destination's task panics.
    Panic(AsId),
    /// The destination's base routing tree is corrupted after it is
    /// computed (see [`corrupt_tree`]).
    CorruptTree(AsId),
}

#[cfg(test)]
impl UtilityEngine<'_> {
    /// This engine, with `plant` planted.
    pub(crate) fn planted(self, plant: Option<Plant>) -> Self {
        UtilityEngine { plant, ..self }
    }
}

/// Corrupt a computed routing tree in a way that is *export-legal*
/// (the substituted next hop is another tiebreak-set member, so path
/// lengths and valley-freedom still hold) but wrong — exactly the
/// class of silent bug only the differential oracle audit can catch.
/// Falls back to flipping a secure bit if no node has a choice of next
/// hops.
#[cfg(test)]
fn corrupt_tree<C: RouteContext + ?Sized>(ctx: &C, tree: &mut RouteTree) {
    for &xi in ctx.order() {
        let x = AsId(xi);
        if x == ctx.dest() {
            continue;
        }
        let tb = ctx.tiebreak_set(x);
        if tb.len() >= 2 {
            let cur = tree.next_hop[x.index()];
            if let Some(&other) = tb.iter().find(|&&m| m != cur) {
                tree.next_hop[x.index()] = other;
                return;
            }
        }
    }
    // Degenerate tree (no tiebreak competition anywhere): corrupt a
    // security flag instead.
    if let Some(&xi) = ctx.order().iter().find(|&&xi| AsId(xi) != ctx.dest()) {
        let i = xi as usize;
        tree.secure[i] = !tree.secure[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, UtilityModel};
    use sbgp_asgraph::{AsGraph, AsGraphBuilder};
    use sbgp_routing::{HashTieBreak, LowestAsnTieBreak, TreePolicy};

    /// Brute-force reference: compute projected utility by running the
    /// full pipeline on every destination in the flipped state, with
    /// no skip rules.
    fn brute_force_projected(
        g: &AsGraph,
        weights: &Weights,
        state: &SecureSet,
        cand: AsId,
        policy: TreePolicy,
        tiebreaker: &dyn TieBreaker,
    ) -> (f64, f64) {
        let mut flipped = state.clone();
        let turning_on = !state.get(cand);
        flipped.set(cand, turning_on);
        if turning_on {
            for s in g.stub_customers_of(cand) {
                flipped.set(s, true);
            }
        }
        let mut ctx = DestContext::new(g.len());
        let mut acc = sbgp_routing::UtilityAccumulator::new(g.len());
        for d in g.nodes() {
            ctx.compute(g, d, tiebreaker);
            acc.add_destination(g, &ctx, &flipped, policy, weights);
        }
        (acc.u_out[cand.index()], acc.u_in[cand.index()])
    }

    /// Diamond with an extra tier: t (early adopter) above two
    /// competing ISPs over a multihomed stub, plus single-homed stubs.
    fn diamond_world() -> (AsGraph, AsId, AsId, AsId, AsId) {
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
        (g, t, ia, ib, s)
    }

    #[test]
    fn engine_matches_brute_force_on_diamond() {
        let (g, t, ia, ib, _s) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let cfg = SimConfig::default();
        let state = crate::state::initial_state(&g, &[t]);
        let engine = UtilityEngine::new(&g, &w, &tb, cfg);
        let comp = engine.compute(&state, &[ia, ib]);
        for cand in [ia, ib] {
            let (o, i) = brute_force_projected(&g, &w, &state, cand, cfg.tree_policy, &tb);
            assert!(
                (comp.proj_out[cand.index()] - o).abs() < 1e-9,
                "out mismatch for {cand}: engine {} vs brute {o}",
                comp.proj_out[cand.index()]
            );
            assert!(
                (comp.proj_in[cand.index()] - i).abs() < 1e-9,
                "in mismatch for {cand}"
            );
        }
    }

    #[test]
    fn engine_matches_brute_force_on_generated_graph() {
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(100, 77)).graph;
        let w = Weights::with_cp_fraction(&g, 0.1);
        let tb = HashTieBreak;
        for stubs_prefer in [true, false] {
            let cfg = SimConfig {
                tree_policy: TreePolicy {
                    stubs_prefer_secure: stubs_prefer,
                },
                ..SimConfig::default()
            };
            // Seed a couple of early adopters so secure paths exist.
            let adopters: Vec<AsId> =
                sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 2);
            let state = crate::state::initial_state(&g, &adopters);
            let candidates: Vec<AsId> = g.isps().filter(|&n| !state.get(n)).collect();
            let engine = UtilityEngine::new(&g, &w, &tb, cfg);
            let comp = engine.compute(&state, &candidates);
            // Verify a sample of candidates against brute force.
            for &cand in candidates.iter().step_by(7) {
                let (o, i) = brute_force_projected(&g, &w, &state, cand, cfg.tree_policy, &tb);
                assert!(
                    (comp.proj_out[cand.index()] - o).abs() < 1e-6,
                    "out mismatch for {cand} (stubs_prefer={stubs_prefer}): {} vs {o}",
                    comp.proj_out[cand.index()]
                );
                assert!(
                    (comp.proj_in[cand.index()] - i).abs() < 1e-6,
                    "in mismatch for {cand} (stubs_prefer={stubs_prefer}): {} vs {i}",
                    comp.proj_in[cand.index()]
                );
            }
        }
    }

    #[test]
    fn turn_off_projection_matches_brute_force() {
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(100, 3)).graph;
        let w = Weights::with_cp_fraction(&g, 0.2);
        let tb = HashTieBreak;
        let cfg = SimConfig {
            model: UtilityModel::Incoming,
            ..SimConfig::default()
        };
        let adopters: Vec<AsId> =
            sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 4);
        let state = crate::state::initial_state(&g, &adopters);
        let engine = UtilityEngine::new(&g, &w, &tb, cfg);
        let comp = engine.compute(&state, &adopters);
        for &cand in &adopters {
            let (o, i) = brute_force_projected(&g, &w, &state, cand, cfg.tree_policy, &tb);
            assert!(
                (comp.proj_out[cand.index()] - o).abs() < 1e-6,
                "turn-off out mismatch for {cand}"
            );
            assert!(
                (comp.proj_in[cand.index()] - i).abs() < 1e-6,
                "turn-off in mismatch for {cand}: {} vs {i}",
                comp.proj_in[cand.index()]
            );
        }
    }

    #[test]
    fn base_utilities_match_direct_accumulation() {
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(100, 5)).graph;
        let w = Weights::uniform(&g);
        let tb = HashTieBreak;
        let cfg = SimConfig::default();
        let state = SecureSet::new(g.len());
        let engine = UtilityEngine::new(&g, &w, &tb, cfg);
        let comp = engine.compute(&state, &[]);
        let mut ctx = DestContext::new(g.len());
        let mut acc = sbgp_routing::UtilityAccumulator::new(g.len());
        for d in g.nodes() {
            ctx.compute(&g, d, &tb);
            acc.add_destination(&g, &ctx, &state, cfg.tree_policy, &w);
        }
        for i in 0..g.len() {
            assert!((comp.base_out[i] - acc.u_out[i]).abs() < 1e-9);
            assert!((comp.base_in[i] - acc.u_in[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn skip_rules_are_exact_not_heuristic() {
        // The C.4 optimizations must change nothing but speed: the
        // optimized and brute-force computations agree bit-for-bit on
        // decisions (and to fp tolerance on values). A second fast
        // pass — this time served from the cross-round reuse cache —
        // must agree with the ablation oracle too.
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(120, 21)).graph;
        let w = Weights::with_cp_fraction(&g, 0.10);
        let tb = HashTieBreak;
        for model in [UtilityModel::Outgoing, UtilityModel::Incoming] {
            let cfg = SimConfig {
                model,
                ..SimConfig::default()
            };
            let adopters: Vec<AsId> =
                sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 3);
            let state = crate::state::initial_state(&g, &adopters);
            let candidates: Vec<AsId> = g
                .isps()
                .filter(|&x| !state.get(x) || model == UtilityModel::Incoming)
                .collect();
            let engine = UtilityEngine::new(&g, &w, &tb, cfg);
            let fast = engine.compute_with_options(&state, &candidates, true);
            let brute = engine.compute_with_options(&state, &candidates, false);
            let reused = engine.compute_with_options(&state, &candidates, true);
            assert!(
                engine.stats().dests_reused > 0,
                "{model:?}: second fast pass must hit the reuse cache"
            );
            assert_eq!(fast.base_out, reused.base_out, "{model:?} reuse base_out");
            assert_eq!(fast.base_in, reused.base_in, "{model:?} reuse base_in");
            assert_eq!(fast.proj_out, reused.proj_out, "{model:?} reuse proj_out");
            assert_eq!(fast.proj_in, reused.proj_in, "{model:?} reuse proj_in");
            for &c in &candidates {
                assert!(
                    (fast.proj_out[c.index()] - brute.proj_out[c.index()]).abs() < 1e-6,
                    "{model:?} out mismatch at {c}"
                );
                assert!(
                    (fast.proj_in[c.index()] - brute.proj_in[c.index()]).abs() < 1e-6,
                    "{model:?} in mismatch at {c}"
                );
                assert!(
                    (reused.proj_out[c.index()] - brute.proj_out[c.index()]).abs() < 1e-6,
                    "{model:?} reused-vs-brute out mismatch at {c}"
                );
            }
        }
    }

    #[test]
    fn multithreaded_matches_single_threaded_bit_for_bit() {
        // The destination-major ordered commit makes the f64 sums
        // identical for every thread count — exact equality, not
        // tolerance.
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(90, 8)).graph;
        let w = Weights::uniform(&g);
        let tb = HashTieBreak;
        let adopters: Vec<AsId> =
            sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 2);
        let state = crate::state::initial_state(&g, &adopters);
        let candidates: Vec<AsId> = g.isps().filter(|&n| !state.get(n)).collect();
        let run = |threads| {
            let cfg = SimConfig {
                threads,
                ..SimConfig::default()
            };
            UtilityEngine::new(&g, &w, &tb, cfg).compute(&state, &candidates)
        };
        let a = run(1);
        for threads in [2usize, 4, 8] {
            let b = run(threads);
            assert_eq!(
                a.base_out, b.base_out,
                "base_out differs at {threads} threads"
            );
            assert_eq!(a.base_in, b.base_in, "base_in differs at {threads} threads");
            assert_eq!(
                a.proj_out, b.proj_out,
                "proj_out differs at {threads} threads"
            );
            assert_eq!(a.proj_in, b.proj_in, "proj_in differs at {threads} threads");
        }
    }

    #[test]
    fn starved_atlas_budget_is_bit_identical_to_unlimited() {
        // A zero --ctx-cache-mb budget stores nothing: every lookup
        // misses and recomputes into worker scratch. The resulting
        // RoundComputation must be bit-identical to the fully cached
        // atlas, serial or parallel.
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(100, 13)).graph;
        let w = Weights::with_cp_fraction(&g, 0.1);
        let tb = HashTieBreak;
        let adopters: Vec<AsId> =
            sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 2);
        let state = crate::state::initial_state(&g, &adopters);
        let candidates: Vec<AsId> = g.isps().filter(|&n| !state.get(n)).collect();
        let run = |mb: usize, threads: usize| {
            let cfg = SimConfig {
                ctx_cache_mb: mb,
                threads,
                ..SimConfig::default()
            };
            let engine = UtilityEngine::new(&g, &w, &tb, cfg);
            let comp = engine.compute(&state, &candidates);
            (comp, engine.stats())
        };
        let (cached, cached_stats) = run(256, 1);
        assert_eq!(cached_stats.atlas_stored as usize, g.len());
        assert_eq!(
            cached_stats.contexts_computed, 0,
            "full atlas never recomputes"
        );
        assert!(cached_stats.atlas_hits >= g.len() as u64);
        for threads in [1usize, 4] {
            let (starved, stats) = run(0, threads);
            assert_eq!(stats.atlas_stored, 0);
            assert_eq!(stats.atlas_hits, 0);
            assert!(
                stats.contexts_computed >= g.len() as u64,
                "every dest recomputes"
            );
            assert_eq!(cached.base_out, starved.base_out, "threads={threads}");
            assert_eq!(cached.base_in, starved.base_in, "threads={threads}");
            assert_eq!(cached.proj_out, starved.proj_out, "threads={threads}");
            assert_eq!(cached.proj_in, starved.proj_in, "threads={threads}");
        }
    }

    #[test]
    fn cross_round_reuse_is_bit_identical_and_counted() {
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(110, 9)).graph;
        let w = Weights::with_cp_fraction(&g, 0.15);
        let tb = HashTieBreak;
        let adopters: Vec<AsId> =
            sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 2);
        let state = crate::state::initial_state(&g, &adopters);
        let candidates: Vec<AsId> = g.isps().filter(|&n| !state.get(n)).collect();
        let engine = UtilityEngine::new(&g, &w, &tb, SimConfig::default());
        let first = engine.compute(&state, &candidates);
        let s1 = engine.stats();
        assert_eq!(s1.dests_reused, 0, "first pass computes everything");
        assert_eq!(s1.dests_computed, g.len() as u64);
        assert_eq!(s1.passes, 1);
        let second = engine.compute(&state, &candidates);
        let s2 = engine.stats();
        assert!(
            s2.dests_reused > 0,
            "insecure destinations must be served from the cache"
        );
        let insecure = (0..g.len()).filter(|&i| !state.get(AsId(i as u32))).count();
        assert_eq!(s2.dests_reused as usize, insecure);
        assert_eq!(first.base_out, second.base_out);
        assert_eq!(first.base_in, second.base_in);
        assert_eq!(first.proj_out, second.proj_out);
        assert_eq!(first.proj_in, second.proj_in);
        assert!(s2.reuse_rate() > 0.0 && s2.reuse_rate() < 1.0);
        assert!(
            s2.atlas_hit_rate() > 0.99,
            "default budget caches the whole graph"
        );
    }

    #[test]
    fn delta_projection_modes_are_bit_identical_and_counted() {
        // `--delta-projections` must trade only speed: every mode, at
        // every thread count, produces the same bits as the full
        // recompute (`Off`), and the counters prove the delta path
        // actually ran.
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(130, 33)).graph;
        let w = Weights::with_cp_fraction(&g, 0.12);
        let tb = HashTieBreak;
        for model in [UtilityModel::Outgoing, UtilityModel::Incoming] {
            let adopters: Vec<AsId> =
                sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 3);
            let state = crate::state::initial_state(&g, &adopters);
            let candidates: Vec<AsId> = g
                .isps()
                .filter(|&x| !state.get(x) || model == UtilityModel::Incoming)
                .collect();
            let run = |mode: DeltaMode, threads: usize| {
                let cfg = SimConfig {
                    model,
                    delta_projections: mode,
                    threads,
                    ..SimConfig::default()
                };
                let engine = UtilityEngine::new(&g, &w, &tb, cfg);
                let comp = engine.compute(&state, &candidates);
                (comp, engine.stats())
            };
            let (off, off_stats) = run(DeltaMode::Off, 1);
            assert_eq!(
                off_stats.delta_hits, 0,
                "{model:?}: Off never takes the delta path"
            );
            assert_eq!(off_stats.delta_fallbacks, 0);
            assert_eq!(off_stats.delta_touched_fraction(), 0.0);
            for (mode, threads) in [
                (DeltaMode::On, 1),
                (DeltaMode::Auto, 1),
                (DeltaMode::Auto, 4),
            ] {
                let (got, stats) = run(mode, threads);
                assert_eq!(
                    off.base_out, got.base_out,
                    "{model:?} {mode:?} t={threads} base_out"
                );
                assert_eq!(
                    off.base_in, got.base_in,
                    "{model:?} {mode:?} t={threads} base_in"
                );
                assert_eq!(
                    off.proj_out, got.proj_out,
                    "{model:?} {mode:?} t={threads} proj_out"
                );
                assert_eq!(
                    off.proj_in, got.proj_in,
                    "{model:?} {mode:?} t={threads} proj_in"
                );
                assert!(
                    stats.delta_hits > 0,
                    "{model:?} {mode:?}: delta path must fire"
                );
                if mode == DeltaMode::On {
                    assert_eq!(stats.delta_fallbacks, 0, "On never falls back");
                }
                let frac = stats.delta_touched_fraction();
                assert!(
                    frac > 0.0 && frac <= 1.0,
                    "{model:?} {mode:?}: touched fraction {frac} out of (0, 1]"
                );
            }
        }
    }

    #[test]
    fn shared_atlas_stats_are_attributed_per_engine() {
        // Regression: the atlas's hit/miss counters accumulate across
        // every sharer, and sweep summaries once reported figure N's
        // engine with figures 1..N-1's lookups folded in. The
        // construction-time snapshot must keep each engine's report to
        // its own traffic.
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::new(100, 4)).graph;
        let w = Weights::uniform(&g);
        let tb = HashTieBreak;
        let cfg = SimConfig::default();
        let adopters: Vec<AsId> =
            sbgp_asgraph::stats::top_k_by_degree(&g, sbgp_asgraph::AsClass::Isp, 2);
        let state = crate::state::initial_state(&g, &adopters);
        let candidates: Vec<AsId> = g.isps().filter(|&n| !state.get(n)).collect();
        let e1 = UtilityEngine::new(&g, &w, &tb, cfg);
        let _ = e1.compute(&state, &candidates);
        let _ = e1.compute(&state, &candidates);
        let s1 = e1.stats();
        assert!(s1.atlas_hits > 0, "two passes over a warm atlas must hit");
        let e2 = UtilityEngine::with_atlas(&g, &w, &tb, cfg, Arc::clone(e1.atlas()));
        let fresh = e2.stats();
        assert_eq!(fresh.atlas_hits, 0, "a fresh sharer inherits no hits");
        assert_eq!(fresh.atlas_misses, 0, "a fresh sharer inherits no misses");
        let _ = e2.compute(&state, &candidates);
        let s2 = e2.stats();
        assert_eq!(
            s2.atlas_hits,
            g.len() as u64,
            "exactly one lookup per destination — none leaked from the first engine"
        );
        assert_eq!(s2.atlas_misses, 0, "fully warmed atlas: no misses");
    }

    #[test]
    fn self_check_sampling_is_roughly_uniform_on_small_id_ranges() {
        // Regression: a mistyped FNV prime once mapped every id below
        // 150 into [0.67, 0.91], silently disabling --self-check rates
        // under 0.67 on small graphs.
        for (rate, lo, hi) in [(0.05, 2, 20), (0.5, 50, 100)] {
            let hits = (0u32..150)
                .filter(|&i| self_check_due(rate, AsId(i)))
                .count();
            assert!(
                (lo..=hi).contains(&hits),
                "rate {rate}: {hits} of 150 sampled"
            );
        }
        assert!(!self_check_due(0.0, AsId(7)));
        assert!(self_check_due(1.0, AsId(7)));
    }
}
