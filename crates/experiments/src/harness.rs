//! Checkpointed sweep execution.
//!
//! A [`SweepRunner`] wraps the unit loop of a θ-sweep (every sweep
//! figure opens one through [`crate::sweeps`]' grid loop): each unit is
//! keyed by its grid label and, once finished — merged from a worker or
//! computed in-process — appended (fsync'd) to the write-ahead
//! `<cmd>.journal`; that append *is* the durable write. The checkpoint
//! `results/checkpoints/<cmd>.ckpt`
//! (atomic write-rename, see [`sbgp_core::checkpoint`]) is the
//! journal's compaction: it is rewritten no more often than every
//! `--checkpoint-every` units *and* only once the journal holds as many
//! units as the checkpoint did at its last save, so a sweep of `n`
//! units rewrites it O(log n) times (after units 1, 2, 4, 8, … and at
//! the end) instead of `n`. `--resume` loads the checkpoint, folds the
//! journal in, and skips every unit either holds. Because every
//! simulation is deterministic, a resumed sweep is bit-identical to an
//! uninterrupted one — `tests/determinism.rs` pins this down. The
//! checkpoint is fingerprinted by the world it was computed over
//! ([`WorldKey`]) and the CP share, so a resume under options that
//! build another world is refused instead of merging two topologies.
//!
//! Checkpointing is off by default (no files written); it turns on when
//! the user passes `--resume` or `--checkpoint-every N`.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::world::WorldKey;
use sbgp_core::checkpoint::{SweepCheckpoint, UnitJournal};
use sbgp_core::storage::{LockOutcome, Store};
use sbgp_core::{EngineStats, SimResult};
use std::path::{Path, PathBuf};

/// A checkpoint key, made filesystem-safe for artifact filenames.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs a sweep's units with optional checkpoint/resume.
pub struct SweepRunner {
    /// The sweep's name (the subcommand) — used for artifact filenames.
    name: String,
    /// The durable-artifact store everything below persists through
    /// (local disk, optionally wrapped in `--disk-chaos` injection).
    store: Store,
    /// Checkpoint key in the store; `None` disables persistence.
    ckpt_key: Option<String>,
    /// The checkpoint's human-facing path, for progress messages.
    ckpt_display: PathBuf,
    /// Where self-check counterexample artifacts are dumped (a key
    /// prefix in the store; displayed as a path under the out dir).
    artifact_dir: PathBuf,
    ckpt: SweepCheckpoint,
    /// `--checkpoint-every`: the minimum spacing of two saves.
    every: usize,
    /// Units journaled since the last save.
    since_save: usize,
    /// Units the checkpoint held at its last save (or load). A save is
    /// not due before the journal has grown that long: the rewrite
    /// costs O(units held), so doubling between saves keeps a sweep's
    /// total compaction work linear in its size.
    saved_len: usize,
    reused: usize,
    /// Differential audits performed across all units this run.
    self_checked: usize,
    /// Self-check violations observed across all units this run.
    violations: usize,
    /// Engine work counters summed over freshly computed units
    /// (checkpoint-reused units carry zeroed stats by design).
    engine: EngineStats,
    /// Write-ahead journal of completed units between checkpoint
    /// saves, so a supervisor crash mid-cadence loses nothing. Only
    /// present when persistence is on.
    journal: Option<UnitJournal>,
    /// The sweep's advisory lock key, released by [`Self::finish`].
    lock: Option<String>,
}

/// Is `pid` a live process? (linux: `/proc/<pid>` exists; elsewhere
/// assume live, which errs toward refusing to steal a lock.)
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// The lock-owner string for this process (the on-storage lock value
/// keeps the historical `pid <N>\n` byte format).
pub(crate) fn lock_owner() -> String {
    format!("pid {}", std::process::id())
}

/// Take the sweep lock at `key`, stealing it only from a dead owner —
/// first-writer-wins acquisition via the store's compare-and-swap, a
/// CAS takeover when the recorded owner's pid no longer exists.
/// (Shared with `repro serve`, whose daemon lock follows the same
/// steal-only-from-the-dead discipline across SIGKILL restarts.)
pub(crate) fn take_lock(store: &Store, key: &str) -> Result<(), ExperimentError> {
    let me = lock_owner();
    match store.try_lock(key, &me)? {
        LockOutcome::Acquired => Ok(()),
        LockOutcome::Held { owner } => {
            let pid: Option<u32> = owner
                .strip_prefix("pid ")
                .and_then(|r| r.trim().parse().ok());
            if let Some(pid) = pid {
                if pid_alive(pid) {
                    return Err(ExperimentError::Harness(format!(
                        "sweep lock {key} is held by live process {pid}; \
                         is another run of this sweep in flight?"
                    )));
                }
            }
            eprintln!("[checkpoint] taking over stale sweep lock {key} (owner {owner:?} is gone)");
            if store.takeover(key, &owner, &me)? {
                Ok(())
            } else {
                Err(ExperimentError::Harness(format!(
                    "sweep lock {key} changed hands while taking it over; \
                     is another run of this sweep in flight?"
                )))
            }
        }
    }
}

impl SweepRunner {
    /// Open the runner for the sweep named `name` (the subcommand).
    ///
    /// The checkpoint's fingerprint covers every option that changes
    /// results — the world ([`WorldKey`]: `--ases`, `--seed`,
    /// `--fail-links`, a preset such as `--paper-scale`) and
    /// `--cp-fraction` — never `--threads`, which determinism tests
    /// guarantee is result-neutral. With `--resume`, an existing file
    /// for the same fingerprint is loaded; a file from different
    /// parameters is a hard error.
    pub fn open(name: &str, opts: &Options) -> Result<Self, ExperimentError> {
        let base_dir = match &opts.out {
            Some(out) => out.clone(),
            None => PathBuf::from("results"),
        };
        let store = opts.storage_at(&base_dir);
        Self::open_in(name, opts, store, &base_dir)
    }

    /// [`Self::open`] over a given store (`base_dir` only names it in
    /// messages and roots the self-check artifacts).
    fn open_in(
        name: &str,
        opts: &Options,
        store: Store,
        base_dir: &Path,
    ) -> Result<Self, ExperimentError> {
        let fp = WorldKey::of(opts).fingerprint(name, opts.cp_fraction);
        let ckpt_key = format!("checkpoints/{name}.ckpt");
        let mut runner = SweepRunner {
            name: name.to_string(),
            store: store.clone(),
            ckpt_key: None,
            ckpt_display: base_dir.join(&ckpt_key),
            artifact_dir: base_dir.join("diffcheck"),
            ckpt: SweepCheckpoint::new(fp),
            every: usize::MAX,
            since_save: 0,
            saved_len: 0,
            reused: 0,
            self_checked: 0,
            violations: 0,
            engine: EngineStats::default(),
            journal: None,
            lock: None,
        };
        if !opts.resume && opts.checkpoint_every == 0 {
            return Ok(runner);
        }
        let lock_key = format!("checkpoints/{name}.lock");
        take_lock(&store, &lock_key)?;
        let mut ckpt = if opts.resume {
            SweepCheckpoint::load_or_new_from(&store, &ckpt_key, fp)?
        } else {
            SweepCheckpoint::new(fp)
        };
        let journal_key = format!("checkpoints/{name}.journal");
        let mut journal = UnitJournal::open_in(&store, &journal_key)?;
        if opts.resume {
            // A crash between checkpoint saves leaves completed units
            // only in the journal; fold them in (salvaging a torn
            // tail first) and compact so the journal never regrows
            // unboundedly across resumes.
            let (records, salvage) = UnitJournal::replay_records_in(&store, &journal_key)?;
            if !salvage.is_clean() {
                eprintln!(
                    "[resume] journal {journal_key} had a torn tail: salvaged {} record(s) \
                     ({} bytes), dropped {} trailing byte(s)",
                    salvage.records, salvage.valid_bytes, salvage.torn_bytes
                );
            }
            let leases = UnitJournal::outstanding_leases(&records);
            if !leases.is_empty() {
                eprintln!(
                    "[resume] {} unit(s) were leased to workers and never completed \
                     (coordinator died mid-dispatch); they will be re-dispatched",
                    leases.len()
                );
            }
            let mut recovered = 0;
            for record in records {
                if let sbgp_core::checkpoint::JournalRecord::Unit { key, result } = record {
                    if ckpt.get(&key).is_none() {
                        ckpt.insert(key, *result);
                        recovered += 1;
                    }
                }
            }
            if recovered > 0 {
                eprintln!("[resume] {recovered} unit(s) recovered from the journal");
                ckpt.save_to(&store, &ckpt_key)?;
            }
        }
        journal.reset()?;
        if !ckpt.is_empty() {
            println!(
                "[resume] {} completed units loaded from {}",
                ckpt.len(),
                runner.ckpt_display.display()
            );
        }
        runner.ckpt_key = Some(ckpt_key);
        runner.saved_len = ckpt.len();
        runner.ckpt = ckpt;
        runner.every = opts.checkpoint_every.max(1);
        runner.journal = Some(journal);
        runner.lock = Some(lock_key);
        Ok(runner)
    }

    /// The checkpointed result for `key`, if it has already completed
    /// (in this run, a resumed one, or a merged shard).
    pub fn get(&self, key: &str) -> Option<&SimResult> {
        self.ckpt.get(key)
    }

    /// Journal a lease: `key` is about to be dispatched to `peer`.
    /// Written (and fsynced) before the assignment leaves the
    /// coordinator, so a resumed run knows which units were in flight
    /// at the moment of death. No-op when persistence is off.
    pub fn lease(&mut self, key: &str, peer: &str) -> Result<(), ExperimentError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.append_lease(key, peer)?;
        }
        Ok(())
    }

    /// Run one unit: return the checkpointed result if `key` already
    /// completed, else compute it via `f`, record it, and persist when
    /// the save cadence is due.
    pub fn run(
        &mut self,
        key: String,
        f: impl FnOnce() -> SimResult,
    ) -> Result<SimResult, ExperimentError> {
        if let Some(prev) = self.ckpt.get(&key) {
            self.reused += 1;
            return Ok(prev.clone());
        }
        let result = f();
        let stats = result.stats;
        self.record(key, result.clone(), &stats)?;
        Ok(result)
    }

    /// Merge a unit computed by a shard worker process. The engine
    /// counters arrive separately because the checkpoint codec
    /// deliberately zeroes `SimResult::stats` — the shard result frame
    /// carries them alongside so `[engine]` summaries stay accurate in
    /// sharded mode.
    ///
    /// A key the checkpoint already holds is dropped, not re-counted:
    /// a shard retried after a hard crash can complete twice, and
    /// unit and engine accounting must count unique units, not
    /// attempts.
    pub fn absorb_remote(
        &mut self,
        key: &str,
        result: SimResult,
        stats: &EngineStats,
    ) -> Result<(), ExperimentError> {
        if self.ckpt.get(key).is_some() {
            return Ok(());
        }
        self.record(key.to_string(), result, stats)
    }

    /// Shared bookkeeping for a freshly completed unit: self-check
    /// artifacts, engine counters, the journal append (the durable
    /// write), and the amortised checkpoint save.
    fn record(
        &mut self,
        key: String,
        result: SimResult,
        stats: &EngineStats,
    ) -> Result<(), ExperimentError> {
        self.self_checked += result.self_checked;
        self.violations += result.violations.len();
        self.engine.absorb(stats);
        for v in &result.violations {
            let file = self.artifact_dir.join(format!(
                "{}-{}-dest{}.txt",
                self.name,
                sanitize(&key),
                v.dest.0
            ));
            eprintln!(
                "SELF-CHECK VIOLATION: unit {key:?}: {} (artifact: {})",
                v.detail,
                file.display()
            );
            if let Err(e) = std::fs::create_dir_all(&self.artifact_dir)
                .and_then(|()| std::fs::write(&file, &v.artifact))
            {
                eprintln!("warning: could not write artifact {}: {e}", file.display());
            }
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.append(&key, &result)?;
        }
        self.ckpt.insert(key, result);
        self.since_save += 1;
        if let Some(key) = &self.ckpt_key {
            if self.since_save >= self.every && self.since_save >= self.saved_len {
                self.ckpt.save_to(&self.store, key)?;
                self.since_save = 0;
                self.saved_len = self.ckpt.len();
                // Everything journaled is now in the checkpoint.
                if let Some(journal) = self.journal.as_mut() {
                    journal.reset()?;
                }
            }
        }
        Ok(())
    }

    /// Final save (if any unit since the last one) and a resume note.
    /// The checkpoint file is kept so the sweep can be re-emitted or
    /// extended without recomputation; delete it to start over.
    pub fn finish(self) -> Result<(), ExperimentError> {
        let e = &self.engine;
        if e.dests_computed + e.dests_reused > 0 {
            println!(
                "[engine] {} passes: {} destinations computed, {} reused ({:.1}% reuse); \
                 atlas hit rate {:.1}% ({} contexts recomputed)",
                e.passes,
                e.dests_computed,
                e.dests_reused,
                100.0 * e.reuse_rate(),
                100.0 * e.atlas_hit_rate(),
                e.contexts_computed,
            );
            if e.delta_hits + e.delta_fallbacks > 0 {
                println!(
                    "[engine] delta projections: {} repaired, {} fell back to full \
                     recompute; repaired region averaged {:.1}% of reachable nodes",
                    e.delta_hits,
                    e.delta_fallbacks,
                    100.0 * e.delta_touched_fraction(),
                );
            }
            if e.atlas_bytes > 0 {
                println!(
                    "[engine] atlas resident: {:.1} MiB compressed ({:.1} MiB dense \
                     equivalent, {:.2}x), {} stored / {} evicted",
                    e.atlas_bytes as f64 / (1u64 << 20) as f64,
                    e.atlas_raw_bytes as f64 / (1u64 << 20) as f64,
                    e.atlas_raw_bytes as f64 / e.atlas_bytes as f64,
                    e.atlas_stored,
                    e.atlas_evicted,
                );
            }
        }
        if self.self_checked > 0 || self.violations > 0 {
            println!(
                "[self-check] {} destination audits, {} violation(s){}",
                self.self_checked,
                self.violations,
                if self.violations > 0 {
                    format!(" — artifacts in {}", self.artifact_dir.display())
                } else {
                    String::new()
                }
            );
        }
        if let Some(key) = &self.ckpt_key {
            if self.since_save > 0 {
                self.ckpt.save_to(&self.store, key)?;
            }
            println!(
                "[checkpoint] {} units in {}{}",
                self.ckpt.len(),
                self.ckpt_display.display(),
                if self.reused > 0 {
                    format!(" ({} reused)", self.reused)
                } else {
                    String::new()
                }
            );
        }
        if let Some(ledger) = self.store.fault_ledger() {
            if ledger.total() > 0 {
                let counts: Vec<String> = ledger
                    .counts()
                    .iter()
                    .map(|(name, n)| format!("{name}={n}"))
                    .collect();
                println!(
                    "[storage] survived {} injected disk fault(s): {}",
                    ledger.total(),
                    counts.join(", ")
                );
            }
        }
        // The checkpoint now holds everything; a lingering journal or
        // lock would only confuse the next run (and `repro doctor`).
        // Cleanup is best-effort: under fault injection a failed delete
        // must not fail an otherwise completed sweep.
        if let Some(journal) = &self.journal {
            let _ = self.store.delete(journal.key());
        }
        if let Some(lock) = &self.lock {
            let _ = self.store.unlock(lock, &lock_owner());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Table;
    use crate::world::{THETAS, TIEBREAK};
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::Weights;
    use sbgp_core::checkpoint::CheckpointError;
    use sbgp_core::storage::{InMemory, StorageBackend, StorageError};
    use sbgp_core::{EarlyAdopters, SimConfig, Simulation};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const CKPT: &str = "checkpoints/t.ckpt";
    const JOURNAL: &str = "checkpoints/t.journal";
    const LOCK: &str = "checkpoints/t.lock";

    /// An in-memory backend that counts the `put_atomic`s of [`CKPT`].
    struct Counting {
        inner: InMemory,
        ckpt_puts: Arc<AtomicUsize>,
    }

    impl StorageBackend for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn put_atomic(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
            if key == CKPT {
                self.ckpt_puts.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.put_atomic(key, bytes)
        }
        fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
            self.inner.get(key)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
            self.inner.list(prefix)
        }
        fn append_durable(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.append_durable(key, bytes)
        }
        fn len(&self, key: &str) -> Result<Option<u64>, StorageError> {
            self.inner.len(key)
        }
        fn truncate(&self, key: &str, len: u64) -> Result<(), StorageError> {
            self.inner.truncate(key, len)
        }
        fn delete(&self, key: &str) -> Result<(), StorageError> {
            self.inner.delete(key)
        }
        fn compare_and_swap(
            &self,
            key: &str,
            expected: Option<&[u8]>,
            new: &[u8],
        ) -> Result<bool, StorageError> {
            self.inner.compare_and_swap(key, expected, new)
        }
    }

    /// What a SIGKILL at this instant leaves for the next process: every
    /// key but the dead owner's lock, in a store of its own.
    fn crash_image(store: &Store) -> Store {
        let image = Store::in_memory();
        for key in store.list("checkpoints/").unwrap() {
            if key != LOCK {
                image
                    .put_atomic(&key, &store.get(&key).unwrap().unwrap())
                    .unwrap();
            }
        }
        image
    }

    /// Run all `units` through a runner over `store`; the CSV the sweep
    /// would emit, and how many units had to be computed.
    fn sweep(store: Store, opts: &Options, units: &[(String, SimResult)]) -> (String, usize) {
        let mut runner = SweepRunner::open_in("t", opts, store, Path::new("mem")).expect("open");
        let mut table = Table::new("t", &["unit", "rounds", "secure"]);
        let mut computed = 0;
        for (key, result) in units {
            let res = runner
                .run(key.clone(), || {
                    computed += 1;
                    result.clone()
                })
                .expect("run");
            table.row(vec![
                key.clone(),
                res.rounds.len().to_string(),
                res.final_state.count().to_string(),
            ]);
        }
        runner.finish().expect("finish");
        (table.to_csv(), computed)
    }

    #[test]
    fn resume_across_topology_presets_is_refused() {
        // `--paper-scale` and `--n 36964` agree on `ases` but build
        // different worlds: neither may resume the other's units.
        let args =
            |v: &[&str]| Options::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let preset = args(&["--paper-scale", "--checkpoint-every", "1"]).unwrap();
        let plain = args(&["--n", "36964", "--resume"]).unwrap();
        assert_eq!(preset.ases, plain.ases);
        let g = generate(&GenParams::new(120, 42)).graph;
        let w = Weights::with_cp_fraction(&g, 0.10);
        let result = Simulation::new(&g, &w, &TIEBREAK, SimConfig::default())
            .run(&EarlyAdopters::ContentProviders.select(&g));

        let store = Store::in_memory();
        let mut runner =
            SweepRunner::open_in("t", &preset, store.clone(), Path::new("mem")).unwrap();
        runner.run("unit".into(), || result.clone()).unwrap();
        runner.finish().unwrap();
        let same = Options {
            resume: true,
            ..preset
        };
        assert!(SweepRunner::open_in("t", &same, crash_image(&store), Path::new("mem")).is_ok());
        match SweepRunner::open_in("t", &plain, crash_image(&store), Path::new("mem")) {
            Err(ExperimentError::Checkpoint(CheckpointError::ParamsMismatch { .. })) => {}
            Err(e) => panic!("expected a params mismatch, got: {e}"),
            Ok(_) => panic!("resumed a checkpoint written over another topology"),
        }
    }

    #[test]
    fn compaction_is_logarithmic_and_every_prefix_resumes_byte_identically() {
        // A fig8-shaped sweep: 7 adopter sets x 7 thetas = 49 units.
        let g = generate(&GenParams::new(120, 42)).graph;
        let w = Weights::with_cp_fraction(&g, 0.10);
        let mut units = Vec::new();
        for k in 1..=7 {
            let adopters = EarlyAdopters::TopIspsByDegree(k);
            for &theta in &THETAS {
                let cfg = SimConfig {
                    theta,
                    ..SimConfig::default()
                };
                let result = Simulation::new(&g, &w, &TIEBREAK, cfg).run(&adopters.select(&g));
                units.push((format!("{};theta={theta}", adopters.label()), result));
            }
        }
        assert_eq!(units.len(), 49);
        let opts = Options::parse(&["--checkpoint-every".into(), "1".into()]).unwrap();
        let resume = Options {
            resume: true,
            ..opts.clone()
        };

        // Uninterrupted, over the counting store.
        let ckpt_puts = Arc::new(AtomicUsize::new(0));
        let counting = Store::new(Counting {
            inner: InMemory::new(),
            ckpt_puts: Arc::clone(&ckpt_puts),
        });
        let (want, computed) = sweep(counting, &opts, &units);
        assert_eq!(computed, 49);
        // Saves after units 1, 2, 4, 8, 16, 32 and in finish().
        let puts = ckpt_puts.load(Ordering::Relaxed);
        assert!(
            puts <= 49usize.ilog2() as usize + 2,
            "{puts} checkpoint rewrites for 49 units"
        );

        // Killed after each prefix of the run, resumed from what was left.
        let store = Store::in_memory();
        let mut runner = SweepRunner::open_in("t", &opts, store.clone(), Path::new("mem")).unwrap();
        for done in 0..=units.len() {
            // The largest save point at or below `done`.
            let saved = if done == 0 { 0 } else { 1 << done.ilog2() };
            for (what, drop_key, recovered) in [
                ("journal and checkpoint", None, done),
                ("checkpoint only", Some(JOURNAL), saved),
                ("journal only", Some(CKPT), done - saved),
            ] {
                let image = crash_image(&store);
                if let Some(key) = drop_key {
                    image.delete(key).unwrap();
                }
                let (got, computed) = sweep(image, &resume, &units);
                assert_eq!(got, want, "resume after {done} units from {what}");
                assert_eq!(
                    computed,
                    units.len() - recovered,
                    "units recomputed after {done} from {what}"
                );
            }
            if let Some((key, result)) = units.get(done) {
                runner.run(key.clone(), || result.clone()).unwrap();
            }
        }
    }
}
