//! Minimal flag parsing (no external CLI crates offline).
//!
//! The same `key = value` vocabulary is accepted from a config file
//! (`--config FILE`, or `repro doctor` validating one): keys are the
//! flag names without the leading `--`, switches take `true`/`false`,
//! and errors carry the offending line number.

/// Options shared by all `repro` subcommands.
#[derive(Clone, Debug)]
pub struct Options {
    /// Topology size (paper: 36,964; default downscaled to 1,000).
    /// `--n` is accepted as an alias.
    pub ases: usize,
    /// Use the paper-scale topology preset: 36,964 ASes with the
    /// published Tier-1/stub mix (overrides `--ases`).
    pub paper_scale: bool,
    /// Generator seed.
    pub seed: u64,
    /// Deployment threshold θ for single-run commands.
    pub theta: f64,
    /// Fraction of traffic originated by the five CPs.
    pub cp_fraction: f64,
    /// Worker threads.
    pub threads: usize,
    /// Optional CSV output directory.
    pub out: Option<std::path::PathBuf>,
    /// `fig13 --census`: run the Section 7.3 whole-graph search.
    pub census: bool,
    /// `chaos --net`: torture the TCP worker transport under seeded
    /// network-fault schedules instead of (only) process kills.
    pub net: bool,
    /// `chaos --storage`: torture the durable-artifact store under
    /// seeded disk-fault schedules (EIO, ENOSPC, torn writes,
    /// crash-before-rename, read corruption) instead of process kills.
    pub storage: bool,
    /// Resume sweep commands from their checkpoint file.
    pub resume: bool,
    /// Persist sweep progress every N units (0 = only with --resume).
    pub checkpoint_every: usize,
    /// Random link-failure rate applied to the topology (0 = intact).
    pub fail_links: f64,
    /// Differential self-check sampling rate in [0, 1] (0 disables):
    /// the fraction of destinations replayed through the reference
    /// oracle each engine pass.
    pub self_check: f64,
    /// Memory budget in MiB for the frozen-context routing atlas
    /// (`0` disables it; results are identical either way).
    pub ctx_cache_mb: usize,
    /// Candidate-projection strategy: `auto` (delta kernel with a size
    /// cutoff, the default), `on` (delta always), `off` (full
    /// recompute). Results are bit-identical in every mode.
    pub delta_projections: sbgp_core::DeltaMode,
    /// Shard sweep units across N child worker processes (0 = stay
    /// in-process). Crashed workers are restarted under a watchdog;
    /// results are bit-identical at any shard count.
    pub process_shards: usize,
    /// Chaos: probability of SIGKILLing a shard worker after each unit
    /// it delivers (supervised mode only; 0 disables).
    pub kill_workers: f64,
    /// Watchdog interval in seconds: a shard worker silent this long
    /// is declared dead and restarted.
    pub watchdog_secs: f64,
    /// Worker restarts allowed across a supervised run before the
    /// sweep aborts (injected chaos kills are exempt).
    pub restart_budget: u32,
    /// Per-worker address-space ceiling in MiB (unix `ulimit -v`;
    /// 0 = unlimited). A worker that trips it is restarted with a
    /// halved batch.
    pub worker_mem_mb: usize,
    /// Remote worker addresses (`host:port,host:port,...`) to dispatch
    /// sweep units to instead of (or alongside) local process shards.
    /// Duplicates are rejected at parse time.
    pub workers: Vec<String>,
    /// Chaos: seeded network-fault schedule applied to every remote
    /// worker link (drops, dups, delays, torn frames, partitions).
    /// `None` = clean links.
    pub net_chaos: Option<sbgp_core::supervise::ChaosProfile>,
    /// Chaos: seeded disk-fault schedule applied to every durable
    /// artifact the run writes (checkpoints, journals, locks, figure
    /// CSVs). `None` = a clean disk.
    pub disk_chaos: Option<sbgp_core::storage::DiskChaosProfile>,
    /// Keep at least this many remote links live; when the remote pool
    /// drains below it, the coordinator degrades gracefully by
    /// spawning local process-shard workers instead.
    pub remote_floor: usize,
    /// Per-unit lease in seconds: a worker holding units that makes no
    /// progress for this long is recycled even if it heartbeats.
    pub lease_secs: f64,
    /// `scenario`: (attacker, victim) pairs sampled per surface cell.
    pub pairs: usize,
    /// `scenario`: attack models to cross (`--attacks
    /// hijack,forgery,leak,downgrade` or `all`).
    pub attacks: Vec<sbgp_routing::AttackModel>,
    /// `scenario`: defense policies to cross (`--policies
    /// sec3,sec3+rov,...`; see `ScenarioPolicy::parse`).
    pub policies: Vec<sbgp_routing::ScenarioPolicy>,
    /// `scenario`: how attacker/victim pairs are chosen
    /// (`random|degree|greedy[:K]`).
    pub pair_strategy: sbgp_core::scenario::PairStrategy,
    /// `serve`: the daemon's listen address (`host:port`; port 0 binds
    /// an ephemeral port, published via `--port-file`).
    pub listen: Option<String>,
    /// `serve`: atomically publish the bound address to this file.
    pub port_file: Option<std::path::PathBuf>,
    /// `serve`: bounded job-queue depth; submissions beyond it get a
    /// typed `Overloaded` rejection with a retry-after hint.
    pub queue_bound: usize,
    /// `serve`: per-client cap on queued+running jobs.
    pub client_inflight: usize,
    /// `chaos --serve`: torture the `repro serve` daemon (SIGKILL +
    /// restart, worker kills, disk chaos under the job journal)
    /// instead of a batch sweep.
    pub serve: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            ases: 1_000,
            paper_scale: false,
            seed: 42,
            theta: 0.05,
            cp_fraction: 0.10,
            threads: 1,
            out: None,
            census: false,
            net: false,
            storage: false,
            resume: false,
            checkpoint_every: 0,
            fail_links: 0.0,
            self_check: 0.0,
            ctx_cache_mb: 256,
            delta_projections: sbgp_core::DeltaMode::Auto,
            process_shards: 0,
            kill_workers: 0.0,
            watchdog_secs: 30.0,
            restart_budget: 8,
            worker_mem_mb: 0,
            workers: Vec::new(),
            net_chaos: None,
            disk_chaos: None,
            remote_floor: 1,
            lease_secs: 120.0,
            pairs: 40,
            attacks: sbgp_routing::AttackModel::ALL.to_vec(),
            policies: vec![
                sbgp_routing::ScenarioPolicy::security_third(),
                sbgp_routing::ScenarioPolicy::security_third().with_rov(),
                sbgp_routing::ScenarioPolicy::security_second(),
                sbgp_routing::ScenarioPolicy::security_first(),
            ],
            pair_strategy: sbgp_core::scenario::PairStrategy::SeededRandom,
            listen: None,
            port_file: None,
            queue_bound: 16,
            client_inflight: 8,
            serve: false,
        }
    }
}

impl Options {
    /// Parse `--flag value` pairs; unknown flags are errors. `--config
    /// FILE` loads a `key = value` file at that point (later flags
    /// override it).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(key) = flag.strip_prefix("--") else {
                return Err(format!("unknown argument {flag:?}"));
            };
            match key {
                "config" => {
                    let path = it.next().ok_or("--config needs a value")?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("--config {path}: {e}"))?;
                    apply_config(&mut o, &text).map_err(|e| format!("{path}: {e}"))?;
                }
                "census" | "net" | "storage" | "resume" | "paper-scale" | "serve" => {
                    apply(&mut o, key, "true")?
                }
                _ => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    apply(&mut o, key, v)?;
                }
            }
        }
        o.validate()?;
        Ok(o)
    }

    /// Parse a config file's text alone — `repro doctor`'s validation
    /// path. Errors name the offending line.
    pub fn from_config_str(text: &str) -> Result<Options, String> {
        let mut o = Options::default();
        apply_config(&mut o, text)?;
        o.validate()?;
        Ok(o)
    }

    /// The durable-artifact store rooted at `base`: plain local disk,
    /// or — with `--disk-chaos` — local disk wrapped in the seeded
    /// fault-injection schedule. Every artifact writer (checkpoints,
    /// journals, locks, figure CSVs, bench history) goes through this
    /// one constructor, so the whole persistence surface is torturable
    /// from a single flag.
    pub fn storage_at(&self, base: &std::path::Path) -> sbgp_core::storage::Store {
        use sbgp_core::storage::{LocalDisk, Store};
        match self.disk_chaos {
            Some(profile) => Store::with_chaos(LocalDisk::new(base), profile),
            None => Store::localdisk(base),
        }
    }

    /// Render the options a shard worker needs as config-file text
    /// (the [`Self::from_config_str`] vocabulary — floats use Rust's
    /// shortest round-trip formatting, so the worker reparses the
    /// exact same values).
    ///
    /// Supervision-only knobs (`process-shards`, `kill-workers`,
    /// `workers`, `net-chaos`, `resume`, checkpointing) stay with the
    /// supervisor: workers just compute units.
    pub fn to_worker_config(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("ases = {}\n", self.ases));
        s.push_str(&format!("paper-scale = {}\n", self.paper_scale));
        s.push_str(&format!("seed = {}\n", self.seed));
        s.push_str(&format!("theta = {}\n", self.theta));
        s.push_str(&format!("cp-fraction = {}\n", self.cp_fraction));
        s.push_str(&format!("threads = {}\n", self.threads));
        if let Some(out) = &self.out {
            s.push_str(&format!("out = {}\n", out.display()));
        }
        s.push_str(&format!("census = {}\n", self.census));
        s.push_str(&format!("fail-links = {}\n", self.fail_links));
        s.push_str(&format!("self-check = {}\n", self.self_check));
        s.push_str(&format!("ctx-cache-mb = {}\n", self.ctx_cache_mb));
        let delta = match self.delta_projections {
            sbgp_core::DeltaMode::On => "on",
            sbgp_core::DeltaMode::Off => "off",
            sbgp_core::DeltaMode::Auto => "auto",
        };
        s.push_str(&format!("delta-projections = {delta}\n"));
        s
    }

    fn validate(&mut self) -> Result<(), String> {
        if self.paper_scale {
            // The preset pins the topology size; `--ases` is ignored so
            // a stale flag can't silently shrink a paper-scale run.
            self.ases = sbgp_asgraph::gen::GenParams::paper_scale(self.seed).n_ases;
        }
        if self.ases < 50 {
            return Err("--ases must be at least 50".into());
        }
        if !(0.0..=1.0).contains(&self.fail_links) {
            return Err("--fail-links must be a rate in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.self_check) {
            return Err("--self-check must be a rate in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.kill_workers) {
            return Err("--kill-workers must be a rate in [0, 1]".into());
        }
        if !(self.watchdog_secs > 0.0 && self.watchdog_secs.is_finite()) {
            return Err("--watchdog-secs must be a positive number of seconds".into());
        }
        if !(self.lease_secs > 0.0 && self.lease_secs.is_finite()) {
            return Err("--lease-secs must be a positive number of seconds".into());
        }
        if self.pairs == 0 {
            return Err("--pairs must be at least 1".into());
        }
        if self.queue_bound == 0 {
            return Err("--queue-bound must be at least 1".into());
        }
        if self.client_inflight == 0 {
            return Err("--client-inflight must be at least 1".into());
        }
        if self.restart_budget == 0 {
            return Err(
                "--restart-budget must be at least 1 (0 would abort on the first worker death)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Apply one `key value` pair (the flag name without `--`).
fn apply(o: &mut Options, key: &str, v: &str) -> Result<(), String> {
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("--{key}: {e}"))
    }
    match key {
        // `--n` mirrors the paper's notation for graph size.
        "ases" | "n" => o.ases = num(key, v)?,
        "paper-scale" => o.paper_scale = num(key, v)?,
        "seed" => o.seed = num(key, v)?,
        "theta" => o.theta = num(key, v)?,
        "cp-fraction" => o.cp_fraction = num(key, v)?,
        "threads" => o.threads = num(key, v)?,
        "out" => o.out = Some(v.into()),
        "census" => o.census = num(key, v)?,
        "net" => o.net = num(key, v)?,
        "storage" => o.storage = num(key, v)?,
        "resume" => o.resume = num(key, v)?,
        "checkpoint-every" => o.checkpoint_every = num(key, v)?,
        "fail-links" => o.fail_links = num(key, v)?,
        "self-check" => o.self_check = num(key, v)?,
        "ctx-cache-mb" => o.ctx_cache_mb = num(key, v)?,
        "process-shards" => o.process_shards = num(key, v)?,
        "kill-workers" => o.kill_workers = num(key, v)?,
        "watchdog-secs" => o.watchdog_secs = num(key, v)?,
        "restart-budget" => o.restart_budget = num(key, v)?,
        "worker-mem-mb" => o.worker_mem_mb = num(key, v)?,
        "workers" => o.workers = parse_workers(v)?,
        "net-chaos" => {
            let profile = sbgp_core::supervise::ChaosProfile::parse(v)
                .map_err(|e| format!("--net-chaos: {e}"))?;
            o.net_chaos = profile.is_active().then_some(profile);
        }
        "disk-chaos" => {
            let profile = sbgp_core::storage::DiskChaosProfile::parse(v)
                .map_err(|e| format!("--disk-chaos: {e}"))?;
            o.disk_chaos = profile.is_active().then_some(profile);
        }
        "remote-floor" => o.remote_floor = num(key, v)?,
        "lease-secs" => o.lease_secs = num(key, v)?,
        "serve" => o.serve = num(key, v)?,
        "listen" => o.listen = Some(v.into()),
        "port-file" => o.port_file = Some(v.into()),
        "queue-bound" => o.queue_bound = num(key, v)?,
        "client-inflight" => o.client_inflight = num(key, v)?,
        "pairs" => o.pairs = num(key, v)?,
        "attacks" => {
            o.attacks =
                sbgp_routing::AttackModel::parse_list(v).map_err(|e| format!("--attacks: {e}"))?
        }
        "policies" => {
            o.policies = sbgp_routing::ScenarioPolicy::parse_list(v)
                .map_err(|e| format!("--policies: {e}"))?
        }
        "pair-strategy" => {
            o.pair_strategy = sbgp_core::scenario::PairStrategy::parse(v)
                .map_err(|e| format!("--pair-strategy: {e}"))?
        }
        "delta-projections" => {
            o.delta_projections = match v {
                "on" => sbgp_core::DeltaMode::On,
                "off" => sbgp_core::DeltaMode::Off,
                "auto" => sbgp_core::DeltaMode::Auto,
                other => {
                    return Err(format!(
                        "--delta-projections: expected on|off|auto, got {other:?}"
                    ))
                }
            }
        }
        other => return Err(format!("unknown flag \"--{other}\"")),
    }
    Ok(())
}

/// Parse a `host:port,host:port,...` worker list, rejecting malformed
/// addresses and duplicates up front — a duplicate address would make
/// two supervisor slots fight over one worker's accept queue, which
/// surfaces as a confusing mid-sweep stall rather than a clean error.
fn parse_workers(v: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for part in v.split(',') {
        let addr = part.trim();
        if addr.is_empty() {
            continue;
        }
        let Some((host, port)) = addr.rsplit_once(':') else {
            return Err(format!("--workers: {addr:?} is not host:port"));
        };
        if host.is_empty() {
            return Err(format!("--workers: {addr:?} has an empty host"));
        }
        match port.parse::<u16>() {
            Ok(p) if p > 0 => {}
            _ => return Err(format!("--workers: {addr:?} has an invalid port {port:?}")),
        }
        if out.iter().any(|a| a == addr) {
            return Err(format!("--workers: duplicate address {addr:?}"));
        }
        out.push(addr.to_string());
    }
    if out.is_empty() {
        return Err("--workers: no addresses given".into());
    }
    Ok(out)
}

/// Apply every `key = value` line of a config file onto `o`.
fn apply_config(o: &mut Options, text: &str) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let Some((k, v)) = t.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`, got {t:?}"));
        };
        let key = k.trim();
        if key == "config" {
            return Err(format!("line {lineno}: config files cannot nest"));
        }
        apply(o, key, v.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.ases, 1_000);
        assert_eq!(o.theta, 0.05);
        assert!(!o.census);
        assert_eq!(o.self_check, 0.0);
    }

    #[test]
    fn parses_flags() {
        let o = Options::parse(&s(&[
            "--ases", "2000", "--seed", "7", "--theta", "0.3", "--census", "--out", "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(o.ases, 2000);
        assert_eq!(o.seed, 7);
        assert_eq!(o.theta, 0.3);
        assert!(o.census);
        assert_eq!(o.out.unwrap(), std::path::PathBuf::from("/tmp/x"));
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(Options::parse(&s(&["--bogus"])).is_err());
        assert!(Options::parse(&s(&["--ases"])).is_err());
        assert!(Options::parse(&s(&["--ases", "10"])).is_err());
        assert!(Options::parse(&s(&["positional"])).is_err());
        // No retry or wall-clock budget: a round sums over every
        // destination, or the run fails.
        for (flag, v) in [
            ("--max-retries", "1"),
            ("--deadline", "5"),
            ("--task-deadline", "5"),
        ] {
            let err = Options::parse(&s(&[flag, v])).unwrap_err();
            assert_eq!(err, format!("unknown flag \"{flag}\""));
        }
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let o = Options::parse(&s(&[
            "--resume",
            "--checkpoint-every",
            "3",
            "--fail-links",
            "0.05",
        ]))
        .unwrap();
        assert!(o.resume);
        assert_eq!(o.checkpoint_every, 3);
        assert_eq!(o.fail_links, 0.05);
    }

    #[test]
    fn rejects_out_of_range_fail_rate() {
        assert!(Options::parse(&s(&["--fail-links", "1.5"])).is_err());
        assert!(Options::parse(&s(&["--fail-links", "-0.1"])).is_err());
    }

    #[test]
    fn parses_guard_rail_flags() {
        let o = Options::parse(&s(&["--self-check", "0.05"])).unwrap();
        assert_eq!(o.self_check, 0.05);
    }

    #[test]
    fn rejects_bad_guard_rail_values() {
        assert!(Options::parse(&s(&["--self-check", "1.5"])).is_err());
        assert!(Options::parse(&s(&["--self-check", "-0.1"])).is_err());
    }

    #[test]
    fn parses_paper_scale_and_n_alias() {
        let o = Options::parse(&[]).unwrap();
        assert!(!o.paper_scale);
        // --n is an alias for --ases.
        let o = Options::parse(&s(&["--n", "36964"])).unwrap();
        assert_eq!(o.ases, 36_964);
        // --paper-scale is a switch and pins the topology size, even
        // against an explicit --ases.
        let o = Options::parse(&s(&["--paper-scale", "--ases", "500"])).unwrap();
        assert!(o.paper_scale);
        assert_eq!(o.ases, 36_964);
        // Config-file spelling and worker propagation.
        let o = Options::from_config_str("paper-scale = true\n").unwrap();
        assert!(o.paper_scale);
        let back = Options::from_config_str(&o.to_worker_config()).unwrap();
        assert!(back.paper_scale);
        assert_eq!(back.ases, 36_964);
    }

    #[test]
    fn parses_ctx_cache_mb() {
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.ctx_cache_mb, 256);
        let o = Options::parse(&s(&["--ctx-cache-mb", "0"])).unwrap();
        assert_eq!(o.ctx_cache_mb, 0);
        let o = Options::from_config_str("ctx-cache-mb = 64\n").unwrap();
        assert_eq!(o.ctx_cache_mb, 64);
        assert!(Options::parse(&s(&["--ctx-cache-mb", "lots"])).is_err());
    }

    #[test]
    fn parses_delta_projections() {
        use sbgp_core::DeltaMode;
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.delta_projections, DeltaMode::Auto);
        for (v, want) in [
            ("on", DeltaMode::On),
            ("off", DeltaMode::Off),
            ("auto", DeltaMode::Auto),
        ] {
            let o = Options::parse(&s(&["--delta-projections", v])).unwrap();
            assert_eq!(o.delta_projections, want);
        }
        let o = Options::from_config_str("delta-projections = off\n").unwrap();
        assert_eq!(o.delta_projections, DeltaMode::Off);
        let err = Options::parse(&s(&["--delta-projections", "maybe"])).unwrap_err();
        assert!(err.contains("on|off|auto"), "{err}");
    }

    #[test]
    fn parses_process_sharding_flags() {
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.process_shards, 0);
        assert_eq!(o.kill_workers, 0.0);
        assert_eq!(o.watchdog_secs, 30.0);
        assert_eq!(o.restart_budget, 8);
        assert_eq!(o.worker_mem_mb, 0);
        let o = Options::parse(&s(&[
            "--process-shards",
            "4",
            "--kill-workers",
            "0.2",
            "--watchdog-secs",
            "2.5",
            "--restart-budget",
            "3",
            "--worker-mem-mb",
            "512",
        ]))
        .unwrap();
        assert_eq!(o.process_shards, 4);
        assert_eq!(o.kill_workers, 0.2);
        assert_eq!(o.watchdog_secs, 2.5);
        assert_eq!(o.restart_budget, 3);
        assert_eq!(o.worker_mem_mb, 512);
        assert!(Options::parse(&s(&["--kill-workers", "1.5"])).is_err());
        assert!(Options::parse(&s(&["--watchdog-secs", "0"])).is_err());
    }

    #[test]
    fn worker_config_round_trips_exactly() {
        let o = Options::parse(&s(&[
            "--ases",
            "240",
            "--seed",
            "9",
            "--theta",
            "0.3",
            "--cp-fraction",
            "0.125",
            "--fail-links",
            "0.07",
            "--self-check",
            "0.25",
            "--out",
            "/tmp/sweep-out",
            "--delta-projections",
            "off",
            "--process-shards",
            "4",
            "--kill-workers",
            "0.9",
            "--resume",
        ]))
        .unwrap();
        let back = Options::from_config_str(&o.to_worker_config()).unwrap();
        assert_eq!(back.ases, o.ases);
        assert_eq!(back.seed, o.seed);
        assert_eq!(back.theta.to_bits(), o.theta.to_bits());
        assert_eq!(back.cp_fraction.to_bits(), o.cp_fraction.to_bits());
        assert_eq!(back.fail_links.to_bits(), o.fail_links.to_bits());
        assert_eq!(back.self_check.to_bits(), o.self_check.to_bits());
        assert_eq!(back.out, o.out);
        assert_eq!(back.delta_projections, o.delta_projections);
        // Supervision-only knobs must NOT propagate into workers.
        assert_eq!(back.process_shards, 0);
        assert_eq!(back.kill_workers, 0.0);
        assert!(!back.resume);
    }

    #[test]
    fn parses_remote_worker_flags() {
        let o = Options::parse(&[]).unwrap();
        assert!(o.workers.is_empty());
        assert!(o.net_chaos.is_none());
        assert_eq!(o.remote_floor, 1);
        assert_eq!(o.lease_secs, 120.0);
        let o = Options::parse(&s(&[
            "--workers",
            "10.0.0.1:9001, 10.0.0.2:9001",
            "--net-chaos",
            "drop=0.05,dup=0.05,seed=7",
            "--remote-floor",
            "2",
            "--lease-secs",
            "15",
        ]))
        .unwrap();
        assert_eq!(o.workers, vec!["10.0.0.1:9001", "10.0.0.2:9001"]);
        let chaos = o.net_chaos.unwrap();
        assert_eq!(chaos.drop, 0.05);
        assert_eq!(chaos.seed, 7);
        assert_eq!(o.remote_floor, 2);
        assert_eq!(o.lease_secs, 15.0);
        // An all-zero chaos spec means no chaos at all.
        let o = Options::parse(&s(&["--net-chaos", "seed=9"])).unwrap();
        assert!(o.net_chaos.is_none());
        // Remote workers do not inherit coordination knobs.
        let o = Options::parse(&s(&["--workers", "a:1", "--net-chaos", "drop=0.5"])).unwrap();
        let back = Options::from_config_str(&o.to_worker_config()).unwrap();
        assert!(back.workers.is_empty());
        assert!(back.net_chaos.is_none());
    }

    #[test]
    fn parses_disk_chaos_flags() {
        let o = Options::parse(&[]).unwrap();
        assert!(o.disk_chaos.is_none());
        assert!(!o.storage);
        let o = Options::parse(&s(&[
            "--storage",
            "--disk-chaos",
            "eio=0.05,enospc=0.02,torn=0.03,crash=0.02,seed=7",
        ]))
        .unwrap();
        assert!(o.storage);
        let chaos = o.disk_chaos.unwrap();
        assert_eq!(chaos.eio, 0.05);
        assert_eq!(chaos.crash, 0.02);
        assert_eq!(chaos.seed, 7);
        // An all-zero spec means a clean disk.
        let o = Options::parse(&s(&["--disk-chaos", "seed=9"])).unwrap();
        assert!(o.disk_chaos.is_none());
        let err = Options::parse(&s(&["--disk-chaos", "eio=2.0"])).unwrap_err();
        assert!(err.contains("--disk-chaos"), "{err}");
        // Disk chaos is a supervision knob: workers don't inherit it.
        let o = Options::parse(&s(&["--disk-chaos", "eio=0.5"])).unwrap();
        let back = Options::from_config_str(&o.to_worker_config()).unwrap();
        assert!(back.disk_chaos.is_none());
    }

    #[test]
    fn storage_at_reflects_disk_chaos() {
        let o = Options::parse(&[]).unwrap();
        let store = o.storage_at(std::path::Path::new("/tmp/x"));
        assert_eq!(store.backend_name(), "localdisk");
        assert!(store.fault_ledger().is_none());
        let o = Options::parse(&s(&["--disk-chaos", "eio=0.5,seed=3"])).unwrap();
        let store = o.storage_at(std::path::Path::new("/tmp/x"));
        assert_eq!(store.backend_name(), "fault");
        assert!(store.fault_ledger().is_some());
    }

    #[test]
    fn rejects_bad_supervisor_knobs_at_parse_time() {
        // Satellite: these used to surface as late runtime failures.
        let err = Options::parse(&s(&["--watchdog-secs", "0"])).unwrap_err();
        assert!(err.contains("--watchdog-secs"), "{err}");
        let err = Options::parse(&s(&["--restart-budget", "0"])).unwrap_err();
        assert!(err.contains("--restart-budget"), "{err}");
        let err = Options::parse(&s(&["--lease-secs", "0"])).unwrap_err();
        assert!(err.contains("--lease-secs"), "{err}");
        // Duplicate worker addresses, malformed addresses, bad ports.
        let err = Options::parse(&s(&["--workers", "h:9001,h:9001"])).unwrap_err();
        assert!(err.contains("duplicate address"), "{err}");
        assert!(Options::parse(&s(&["--workers", "nocolon"])).is_err());
        assert!(Options::parse(&s(&["--workers", "h:0"])).is_err());
        assert!(Options::parse(&s(&["--workers", "h:notaport"])).is_err());
        assert!(Options::parse(&s(&["--workers", " , "])).is_err());
        let err = Options::parse(&s(&["--net-chaos", "drop=2.0"])).unwrap_err();
        assert!(err.contains("--net-chaos"), "{err}");
        // Config-file versions carry the line number (line-precise).
        let err = Options::from_config_str("ases = 200\nworkers = h:1,h:1\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("duplicate address"), "{err}");
        let err = Options::from_config_str("restart-budget = 0\n").unwrap_err();
        assert!(err.contains("--restart-budget"), "{err}");
    }

    #[test]
    fn parses_scenario_flags() {
        use sbgp_core::scenario::PairStrategy;
        use sbgp_routing::{AttackModel, ScenarioPolicy};
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.pairs, 40);
        assert_eq!(o.attacks, AttackModel::ALL.to_vec());
        assert_eq!(o.policies.len(), 4);
        assert_eq!(o.pair_strategy, PairStrategy::SeededRandom);
        let o = Options::parse(&s(&[
            "--pairs",
            "12",
            "--attacks",
            "hijack,downgrade",
            "--policies",
            "sec3,sec1+rov",
            "--pair-strategy",
            "greedy:5",
        ]))
        .unwrap();
        assert_eq!(o.pairs, 12);
        assert_eq!(
            o.attacks,
            vec![AttackModel::OriginHijack, AttackModel::Downgrade]
        );
        assert_eq!(
            o.policies,
            vec![
                ScenarioPolicy::security_third(),
                ScenarioPolicy::security_first().with_rov(),
            ]
        );
        assert_eq!(
            o.pair_strategy,
            PairStrategy::WorstCaseGreedy { candidates: 5 }
        );
        // Config-file spelling works too, and errors are labeled.
        let o = Options::from_config_str("attacks = leak\npair-strategy = degree\n").unwrap();
        assert_eq!(o.attacks, vec![AttackModel::RouteLeak]);
        assert_eq!(o.pair_strategy, PairStrategy::DegreeStratified);
        assert!(Options::parse(&s(&["--pairs", "0"])).is_err());
        let err = Options::parse(&s(&["--attacks", "squat"])).unwrap_err();
        assert!(err.contains("--attacks"), "{err}");
        let err = Options::parse(&s(&["--policies", "sec9"])).unwrap_err();
        assert!(err.contains("--policies"), "{err}");
        let err = Options::parse(&s(&["--pair-strategy", "lucky"])).unwrap_err();
        assert!(err.contains("--pair-strategy"), "{err}");
    }

    #[test]
    fn parses_serve_flags() {
        let o = Options::parse(&[]).unwrap();
        assert!(o.listen.is_none());
        assert!(o.port_file.is_none());
        assert_eq!(o.queue_bound, 16);
        assert_eq!(o.client_inflight, 8);
        assert!(!o.serve);
        let o = Options::parse(&s(&[
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            "/tmp/serve.port",
            "--queue-bound",
            "3",
            "--client-inflight",
            "1",
            "--serve",
        ]))
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            o.port_file.as_deref(),
            Some(std::path::Path::new("/tmp/serve.port"))
        );
        assert_eq!(o.queue_bound, 3);
        assert_eq!(o.client_inflight, 1);
        assert!(o.serve);
        // Degenerate bounds are parse-time errors, not runtime stalls.
        let err = Options::parse(&s(&["--queue-bound", "0"])).unwrap_err();
        assert!(err.contains("--queue-bound"), "{err}");
        let err = Options::parse(&s(&["--client-inflight", "0"])).unwrap_err();
        assert!(err.contains("--client-inflight"), "{err}");
        // Service knobs never leak into worker configs.
        let back = Options::from_config_str(&o.to_worker_config()).unwrap();
        assert!(back.listen.is_none());
        assert_eq!(back.queue_bound, 16);
    }

    #[test]
    fn config_text_round_trips_the_flag_vocabulary() {
        let o = Options::from_config_str(
            "# sweep setup\nases = 200\nseed = 9\nself-check = 0.25\ncensus = true\n",
        )
        .unwrap();
        assert_eq!(o.ases, 200);
        assert_eq!(o.seed, 9);
        assert_eq!(o.self_check, 0.25);
        assert!(o.census);
    }

    #[test]
    fn config_errors_carry_line_numbers() {
        let err = Options::from_config_str("ases = 200\nbogus = 12\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unknown flag"), "{err}");
        let err = Options::from_config_str("just words\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // Semantic errors surface too (no line: they span the file).
        let err = Options::from_config_str("ases = 10\n").unwrap_err();
        assert!(err.contains("at least 50"), "{err}");
    }
}
