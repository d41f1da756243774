//! The adversarial scenario engine: attack models × defense policies
//! × attacker/victim selection × deployment snapshots.
//!
//! The paper defers "resiliency to attack" under partial deployment to
//! future work (Section 6.4). This module family is that evaluation,
//! grown from the single-attack `resilience.rs` seed into a surface:
//!
//! * [`sbgp_routing::scenario_kernel`] — the one engine behind every
//!   scenario: a single rank-ordered label-setting pass with victim
//!   and attacker as pinned sources. No explicit paths, no iteration
//!   to convergence, exact under GR1 (the argument is in that module's
//!   docs); [`simulate_scenario`] is its one-shot form with verdicts
//!   and paths materialized.
//! * [`select`] — seeded attacker/victim pair strategies (random,
//!   degree-stratified, worst-case greedy).
//! * [`sweep`] — the parallel surface runner: crosses everything,
//!   keeps results bit-identical at any thread count (index-ordered
//!   merge), and differentially audits a seeded fraction of scenarios
//!   against [`sbgp_routing::scenario_oracle`].
//!
//! The attack/policy vocabulary and semantics live in
//! [`sbgp_routing::threat`], shared with the oracle so the two
//! implementations can be compared outcome-for-outcome (the
//! `scenario_conformance` property suite does exactly that).

pub mod select;
pub mod sweep;

pub use sbgp_routing::{simulate_scenario, ScenarioRun};
pub use select::{select_pairs, PairStrategy};
pub use sweep::{
    run_surface, ScenarioCell, ScenarioConfig, ScenarioSnapshot, ScenarioStats, ScenarioSurface,
};

use sbgp_asgraph::AsId;
use sbgp_routing::AttackModel;

/// A scenario whose route selection did not settle. The kernel settles
/// every AS in one pass, so nothing constructs this any more; it
/// survives only as the element type of the always-empty
/// [`ScenarioCell::quarantined`], whose shape the performance ledger
/// compiles against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvergenceError {
    /// The sampled attacker.
    pub attacker: AsId,
    /// The sampled victim.
    pub victim: AsId,
    /// The attack model being simulated.
    pub attack: AttackModel,
    /// The iteration budget that was exhausted.
    pub iterations: usize,
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scenario (attacker node {}, victim node {}) failed to converge within {} iterations",
            self.attack, self.attacker.0, self.victim.0, self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_error_formats_the_full_scenario() {
        let e = ConvergenceError {
            attacker: AsId(7),
            victim: AsId(3),
            attack: AttackModel::Downgrade,
            iterations: 42,
        };
        let msg = e.to_string();
        assert!(msg.contains("downgrade"), "{msg}");
        assert!(msg.contains("attacker node 7"), "{msg}");
        assert!(msg.contains("victim node 3"), "{msg}");
        assert!(msg.contains("42 iterations"), "{msg}");
    }
}
