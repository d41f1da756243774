//! Simulation configuration.

use sbgp_routing::TreePolicy;
use serde::{Deserialize, Serialize};

/// Which of the two Section 3.3 utility models drives ISP decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UtilityModel {
    /// Equation 1: traffic the ISP forwards *toward* destinations it
    /// reaches via customer edges. Theorem 6.2 holds here (no
    /// turn-off), so the game always terminates.
    Outgoing,
    /// Equation 2: traffic arriving at the ISP *over* customer edges.
    /// Turn-off incentives and oscillations are possible (Section 7).
    Incoming,
}

/// How [`project_candidate`](crate::UtilityEngine) computes a
/// candidate's flipped-state utility (CLI knob:
/// `--delta-projections on|off|auto`).
///
/// The delta path repairs only the part of the base routing tree and
/// flows a flip can reach (`sbgp_routing::delta_project`) and is
/// bit-identical to the full recompute — the modes trade only speed:
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaMode {
    /// Always take the delta path, with no affected-set cutoff.
    On,
    /// Always recompute the flipped tree from scratch (the PR 3
    /// behavior; also the ablation oracle's path).
    Off,
    /// Delta path with a size cutoff: fall back to the full recompute
    /// when the repaired region exceeds a quarter of the reachable
    /// nodes, bounding wasted work on flips that ripple everywhere.
    Auto,
}

/// When ISPs act within a round (Section 8.1 discussion).
///
/// The paper's simulations update **simultaneously** — every ISP
/// best-responds to the same state, which is what creates the
/// projected-vs-actual gap of Figure 14 and the lockstep oscillations
/// of Section 7.2. The appendix gadget arguments, by contrast, reason
/// about *asynchronous* moves; [`Activation::RoundRobin`] provides
/// those dynamics (one ISP moves at a time, seeing every earlier move).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// All ISPs move at once each round (the paper's update rule).
    Simultaneous,
    /// ISPs move one at a time, in ascending node order, each seeing
    /// the effects of all previous moves; a "round" is one full sweep.
    RoundRobin,
}

/// Parameters of a deployment simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Deployment threshold `θ` of Eq. 3 — the relative utility gain
    /// an ISP requires before changing its action (a proxy for
    /// deployment cost; the paper sweeps 0–50%).
    pub theta: f64,
    /// Which utility model ISPs optimize.
    pub model: UtilityModel,
    /// Whether secure stubs break ties in favor of secure paths
    /// (Section 6.7 evaluates both).
    pub tree_policy: TreePolicy,
    /// Hard cap on rounds (the paper's runs settle in 2–40).
    pub max_rounds: usize,
    /// Worker threads for the per-destination map-reduce (the paper
    /// used a 200-node DryadLINQ cluster; we use a thread pool).
    /// `0` means "use all available cores".
    pub threads: usize,
    /// Per-ISP threshold randomization (Section 8.2): each ISP `n`
    /// uses `θ_n = θ · (1 + jitter · u_n)` with `u_n ∈ [-1, 1]` a
    /// deterministic hash of `(theta_seed, ASN)`. Models heterogeneous
    /// deployment costs and noisy projected-utility estimates. `0.0`
    /// (the default) recovers the paper's uniform threshold.
    pub theta_jitter: f64,
    /// Seed for the per-ISP threshold hash.
    pub theta_seed: u64,
    /// Whether ISPs move simultaneously (the paper) or one at a time.
    pub activation: Activation,
    /// Differential self-checking rate: the fraction of destinations
    /// whose computed routing tree is replayed through the reference
    /// oracle ([`sbgp_routing::diffcheck`]). `0.0` (the default)
    /// disables the audit; `1.0` audits every destination. Sampling is
    /// a deterministic hash of the destination id, so the audited set
    /// is identical across runs and thread counts.
    pub self_check: f64,
    /// Memory budget, in MiB, for the frozen-context
    /// [`RoutingAtlas`](sbgp_routing::RoutingAtlas) (Observation C.1).
    /// Destinations that fit are computed once per simulation and read
    /// from shared arenas every round; destinations beyond the budget
    /// are recomputed on miss. `0` disables the atlas entirely
    /// (recompute every lookup) — results are bit-identical either
    /// way, only speed changes. CLI knob: `--ctx-cache-mb`.
    pub ctx_cache_mb: usize,
    /// Whether candidate projections use the incremental
    /// delta-projection kernel (see [`DeltaMode`]). Results are
    /// bit-identical in every mode; only speed changes.
    pub delta_projections: DeltaMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            theta: 0.05,
            model: UtilityModel::Outgoing,
            tree_policy: TreePolicy::default(),
            max_rounds: 100,
            threads: 1,
            theta_jitter: 0.0,
            theta_seed: 0,
            activation: Activation::Simultaneous,
            self_check: 0.0,
            ctx_cache_mb: 256,
            delta_projections: DeltaMode::Auto,
        }
    }
}

impl SimConfig {
    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The [`ctx_cache_mb`](Self::ctx_cache_mb) budget in bytes.
    pub fn ctx_cache_bytes(&self) -> usize {
        self.ctx_cache_mb.saturating_mul(1 << 20)
    }

    /// The deployment threshold ISP `n` applies (Section 8.2's
    /// randomized-θ extension; equals [`theta`](Self::theta) when
    /// `theta_jitter == 0`).
    pub fn theta_for(&self, g: &sbgp_asgraph::AsGraph, n: sbgp_asgraph::AsId) -> f64 {
        if self.theta_jitter == 0.0 {
            return self.theta;
        }
        // FNV-1a over (seed, ASN) → u ∈ [-1, 1].
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.theta_seed;
        for byte in g.asn(n).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let u = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        (self.theta * (1.0 + self.theta_jitter * u)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_case_study_like() {
        let c = SimConfig::default();
        assert_eq!(c.theta, 0.05);
        assert_eq!(c.model, UtilityModel::Outgoing);
        assert!(c.tree_policy.stubs_prefer_secure);
    }

    #[test]
    fn zero_threads_resolves_to_positive() {
        let c = SimConfig {
            threads: 0,
            ..SimConfig::default()
        };
        assert!(c.effective_threads() >= 1);
    }
}

#[cfg(test)]
mod theta_tests {
    use super::*;
    use sbgp_asgraph::gen::{generate, GenParams};

    #[test]
    fn zero_jitter_is_uniform() {
        let g = generate(&GenParams::tiny(1)).graph;
        let c = SimConfig::default();
        for n in g.nodes().take(10) {
            assert_eq!(c.theta_for(&g, n), c.theta);
        }
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_varied() {
        let g = generate(&GenParams::tiny(1)).graph;
        let c = SimConfig {
            theta: 0.10,
            theta_jitter: 0.5,
            theta_seed: 7,
            ..SimConfig::default()
        };
        let thetas: Vec<f64> = g.nodes().take(50).map(|n| c.theta_for(&g, n)).collect();
        for &t in &thetas {
            assert!((0.05..=0.15).contains(&t), "theta {t} out of jitter range");
        }
        let again: Vec<f64> = g.nodes().take(50).map(|n| c.theta_for(&g, n)).collect();
        assert_eq!(thetas, again, "deterministic per (seed, ASN)");
        let distinct: std::collections::HashSet<u64> = thetas.iter().map(|t| t.to_bits()).collect();
        assert!(distinct.len() > 10, "jitter should actually vary");
        // A different seed permutes the draws.
        let c2 = SimConfig { theta_seed: 8, ..c };
        let other: Vec<f64> = g.nodes().take(50).map(|n| c2.theta_for(&g, n)).collect();
        assert_ne!(thetas, other);
    }
}
