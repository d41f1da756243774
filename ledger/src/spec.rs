//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds.
//!
//! This table is the single source of truth. `BENCHMARK.json` at the
//! repository root is its rendering (`ledger spec` prints it and a
//! test keeps the two byte-identical), the runs print exactly these
//! names, and `ledger compare` judges against these bounds.

/// Which workload a run is: parsed once from `--workload`, matched
/// exhaustively from then on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    CaseStudy,
    CaseStudyStarved,
    SweepDispatch,
    ScenarioSurface,
    ServedJobs,
}

impl Kind {
    pub const fn name(self) -> &'static str {
        match self {
            Kind::CaseStudy => "case-study",
            Kind::CaseStudyStarved => "case-study-starved",
            Kind::SweepDispatch => "sweep-dispatch",
            Kind::ScenarioSurface => "scenario-surface",
            Kind::ServedJobs => "served-jobs",
        }
    }
}

/// One set of inputs the benchmark runs.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Why the workload exists and which layer it bypasses (one line).
    pub why: &'static str,
}

const fn workload_of(kind: Kind, why: &'static str) -> Workload {
    Workload {
        kind,
        name: kind.name(),
        why,
    }
}

pub const WORKLOADS: &[Workload] = &[
    workload_of(
        Kind::CaseStudy,
        "fig3 at n=3000, threads 1 vs 2, atlas resident: the engine round kernel is ~90% of wall; transport, storage and serve do nothing",
    ),
    workload_of(
        Kind::CaseStudyStarved,
        "same fig3 input under --ctx-cache-mb 8 (about 1/7 of the atlas resident): the recompute-on-miss path a default-budget paper-scale run lives in",
    ),
    workload_of(
        Kind::SweepDispatch,
        "fig8 at n=150 with --checkpoint-every 1 over 8 seeded worlds, pipes (--process-shards 2) vs TCP (--workers A,B): spawn, frames, codec and fsync dominate, the engine is a third",
    ),
    workload_of(
        Kind::ScenarioSurface,
        "repro scenario at n=1000 with --pairs 160, threads 1 vs 2: the scenario fixpoint engine is >=95% of wall; the deployment engine is 0.4 s of it",
    ),
    workload_of(
        Kind::ServedJobs,
        "closed loop of 2 clients posting distinct fig9 jobs (n=300, 8 worlds) to one repro serve daemon, then the same specs again: HTTP front end, job board, joblog and hot-atlas cache, fresh vs cached",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; every workload reports
/// every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const UNIT_MS: &str = "unit_ms";
pub const ALT_UNIT_MS: &str = "alt_unit_ms";
pub const UNIT_CPU_MS: &str = "unit_cpu_ms";
pub const UNITS_PER_S: &str = "units_per_s";
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: UNIT_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: ALT_UNIT_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: UNIT_CPU_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: UNITS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: PEAK_RSS_MIB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A metric of a single layer, from the traced run. `exact` marks a
/// count that must repeat bit for bit for one commit and seed.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn ratio(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// The layers are this repository's modules. A workload that does not
/// execute a layer reports 0 for its metrics.
pub const PER_LAYER: &[Layer] = &[
    // asgraph: every command pays this once.
    timing("asgraph.world_ms", "ms"),
    // routing
    timing("routing.context.compute_us", "us"),
    timing("routing.atlas.build_ms", "ms"),
    timing("routing.atlas.build_t2_ms", "ms"),
    count("routing.atlas.bytes_per_dest", "B", Lower),
    count("routing.atlas.compression", "ratio", Higher),
    timing("routing.atlas.get_us", "us"),
    count("routing.atlas.starved_stored_ratio", "ratio", Higher),
    timing("routing.tree.compute_us", "us"),
    timing("routing.flows.fold_us", "us"),
    timing("routing.delta.deps_build_us", "us"),
    timing("routing.delta.project_us", "us"),
    count("routing.delta.touched_fraction", "ratio", Lower),
    timing("routing.scenario_oracle.converge_us", "us"),
    // core.engine and core.sim
    timing("core.engine.round_first_ms", "ms"),
    timing("core.engine.round_steady_ms", "ms"),
    timing("core.engine.round_full_ms", "ms"),
    ratio("core.engine.delta_speedup", Higher),
    timing("core.engine.round_steady_t2_ms", "ms"),
    ratio("core.engine.parallel_efficiency_t2", Higher),
    timing("core.engine.round_starved_ms", "ms"),
    count("core.engine.trees_computed", "count", Lower),
    count("core.engine.delta_hits", "count", Higher),
    count("core.engine.delta_fallbacks", "count", Lower),
    count("core.engine.dests_computed", "count", Lower),
    count("core.engine.dests_reused", "count", Higher),
    count("core.engine.atlas_hits", "count", Higher),
    count("core.engine.atlas_misses", "count", Lower),
    count("core.engine.contexts_computed", "count", Lower),
    count("core.sim.rounds", "count", Lower),
    timing("core.engine.compute_ms", "ms"),
    timing("core.sim.run_ms", "ms"),
    timing("core.sim.commit_ms", "ms"),
    ratio("core.engine.est_share.decode", Lower),
    ratio("core.engine.est_share.tree", Lower),
    ratio("core.engine.est_share.delta", Lower),
    ratio("core.engine.est_share.fold", Lower),
    ratio("core.engine.est_share.unexplained", Lower),
    timing("core.metrics.secure_path_fraction_ms", "ms"),
    // core.checkpoint
    timing("core.checkpoint.encode_us", "us"),
    timing("core.checkpoint.decode_us", "us"),
    count("core.checkpoint.bytes_per_result", "B", Lower),
    timing("core.checkpoint.save_ms", "ms"),
    timing("core.checkpoint.save_mem_ms", "ms"),
    timing("core.checkpoint.load_ms", "ms"),
    timing("core.checkpoint.journal_append_us", "us"),
    timing("core.checkpoint.journal_replay_ms", "ms"),
    // core.storage
    timing("core.storage.put_atomic_us", "us"),
    timing("core.storage.append_durable_us", "us"),
    timing("core.storage.get_us", "us"),
    timing("core.storage.put_atomic_mem_us", "us"),
    timing("core.storage.append_durable_mem_us", "us"),
    // core.supervise
    timing("core.supervise.protocol.encode_us", "us"),
    timing("core.supervise.protocol.decode_us", "us"),
    count("core.supervise.protocol.frame_bytes", "B", Lower),
    timing("core.supervise.frame.rtt_pipe_us", "us"),
    timing("core.supervise.frame.rtt_tcp_us", "us"),
    // core.serve
    timing("core.serve.submit_us", "us"),
    timing("core.serve.lifecycle_us", "us"),
    timing("core.serve.cached_submit_us", "us"),
    timing("core.serve.replay_ms", "ms"),
    // core.scenario
    timing("core.scenario.select_ms", "ms"),
    timing("core.scenario.surface_ms", "ms"),
    timing("core.scenario.surface_t2_ms", "ms"),
    timing("core.scenario.us_per_scenario", "us"),
    count("core.scenario.scenarios_run", "count", Lower),
    count("core.scenario.fixpoint_iters", "count", Lower),
    // experiments: no lib target, so measured through the process and
    // socket boundary.
    timing("experiments.cli.startup_ms", "ms"),
    timing("experiments.sweep.inproc_s", "s"),
    timing("experiments.sweep.ckpt_s", "s"),
    timing("experiments.sweep.durability_ms", "ms"),
    timing("experiments.sweep.dispatch_ms", "ms"),
    timing("experiments.sweep.resume_ms", "ms"),
    timing("experiments.serve.boot_ms", "ms"),
    timing("experiments.serve.healthz_us", "us"),
    timing("experiments.serve.post_us", "us"),
    timing("experiments.serve.status_us", "us"),
    timing("experiments.serve.result_us", "us"),
    timing("experiments.serve.exec_ms", "ms"),
    timing("experiments.serve.overhead_1c_ms", "ms"),
    ratio("experiments.serve.atlas_cache_hit_rate", Higher),
    ratio("experiments.serve.polls_per_job", Lower),
    timing("experiments.serve.drain_ms", "ms"),
    // trace: how far the replay can be trusted.
    timing("trace.inproc_ms", "ms"),
    ratio("trace.inproc_vs_wall", Lower),
    ratio("trace.attributed_ratio", Higher),
    ratio("trace.overhead_ratio", Lower),
];

#[cfg(test)]
pub const MAX_END_TO_END: usize = 16;
#[cfg(test)]
pub const MAX_PER_LAYER: usize = 128;

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// How long one run measures, and the driver command: the rest of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;
pub const COMMAND: &[&str] = &["bash", "ledger/run.sh"];
pub const PATHS: &[&str] = &["ledger"];

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use crate::json::escape;
    let list = |items: Vec<String>| items.join(",\n    ");
    let strs = |xs: &[&str]| {
        xs.iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                    escape(w.name),
                    escape(w.why)
                )
            })
            .collect(),
    );
    let e2e = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.label(),
                    m.bound
                )
            })
            .collect(),
    );
    let layers = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        strs(COMMAND),
        strs(PATHS),
        RUN_SECONDS,
        workloads,
        e2e,
        layers
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn names_are_valid_unique_and_within_the_caps() {
        assert!(END_TO_END.len() <= MAX_END_TO_END);
        assert!(PER_LAYER.len() <= MAX_PER_LAYER);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end(SETUP_S).expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_validation_follows_the_contract() {
        assert!(valid_name("core.engine.est_share.tree"));
        assert!(valid_name("9lives_a-b.c"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    /// `BENCHMARK.json` and the binary name identical metric and
    /// workload sets (and units, directions and bounds).
    #[test]
    fn benchmark_json_is_the_rendering_of_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `ledger spec`");
        let v = Value::parse(&on_disk).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
