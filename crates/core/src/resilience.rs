//! How much security does partial deployment buy? (Section 6.4.)
//!
//! The paper counts secure paths but explicitly defers quantifying
//! "resiliency to attack" to future work, citing the methodology of
//! [15] (Goldberg et al.) — an attacker origin-hijacks a victim's
//! prefix and one asks how much of the Internet is fooled. The paper's
//! own motivation cites that under plain BGP "an arbitrary misbehaving
//! AS can impact about half of the ASes in the Internet".
//!
//! This module is the origin-hijack special case of the general
//! adversarial layer in [`crate::scenario`], kept as the stable API
//! the experiment harness grew up on:
//!
//! * the attacker announces the victim's prefix as its own (a one-hop
//!   fabrication, the classic origin hijack);
//! * a **fully secure** AS (secure ISP or CP) *validates* and rejects
//!   the bogus announcement outright — it neither uses nor propagates
//!   it;
//! * a **simplex** stub (Section 2.2.1) signs its own announcements
//!   but cannot validate, so — like an insecure AS — it treats the
//!   bogus route as an ordinary route to the prefix and picks by LP,
//!   path length, and tiebreak;
//! * every AS ends up routing the prefix toward either the victim or
//!   the attacker; the *deceived* set is everyone routing to the
//!   attacker.
//!
//! [`simulate_hijack`] maps a [`TreePolicy`] onto the equivalent
//! [`ScenarioPolicy`] (security third, no ROV, simplex-asymmetric
//! stubs — the paper's baseline) and runs the
//! [`sbgp_routing::scenario_kernel`] with
//! [`AttackModel::OriginHijack`]. Other attacks, rankings, and ROV
//! live behind the general API.

use sbgp_asgraph::{AsGraph, AsId};
use sbgp_routing::{
    AttackModel, ScenarioKernel, ScenarioPolicy, ScenarioTally, SecureSet, SecurityRank,
    TieBreaker, TreePolicy,
};

/// Result of one hijack simulation: the ASes deceived, still reaching
/// the true victim, and left with no route to the prefix at all.
pub type HijackOutcome = ScenarioTally;

/// The paper-baseline scenario policy equivalent to `policy`: security
/// ranks third, no ROV, stubs sign but cannot validate.
fn as_scenario_policy(policy: TreePolicy) -> ScenarioPolicy {
    ScenarioPolicy {
        rank: SecurityRank::Third,
        rov: false,
        stubs_validate: false,
        stubs_prefer_secure: policy.stubs_prefer_secure,
    }
}

/// Simulate `attacker` origin-hijacking `victim`'s prefix under
/// deployment state `state`.
///
/// # Panics
/// Panics if `attacker == victim`.
pub fn simulate_hijack(
    g: &AsGraph,
    state: &SecureSet,
    policy: TreePolicy,
    attacker: AsId,
    victim: AsId,
    tiebreaker: &dyn TieBreaker,
) -> HijackOutcome {
    assert_ne!(attacker, victim, "attacker cannot hijack itself");
    ScenarioKernel::new().run(
        g,
        state,
        &as_scenario_policy(policy),
        AttackModel::OriginHijack,
        attacker,
        victim,
        tiebreaker,
    )
}

/// Mean deceived fraction over `n_pairs` deterministic
/// (attacker, victim) samples — the headline resilience number for a
/// deployment state (`0.0` for an empty sample). The same seed samples
/// the same pairs, so states can be compared.
pub fn mean_deceived_fraction(
    g: &AsGraph,
    state: &SecureSet,
    policy: TreePolicy,
    tiebreaker: &dyn TieBreaker,
    n_pairs: usize,
    seed: u64,
) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.len() as u32;
    let policy = as_scenario_policy(policy);
    let hijack = AttackModel::OriginHijack;
    let mut kernel = ScenarioKernel::new();
    let mut total = 0.0;
    let mut drawn = 0;
    // Draws are with replacement: a repeated pair counts every time.
    while drawn < n_pairs {
        let a = AsId(rng.gen_range(0..n));
        let v = AsId(rng.gen_range(0..n));
        if a == v {
            continue;
        }
        drawn += 1;
        total += kernel
            .run(g, state, &policy, hijack, a, v, tiebreaker)
            .deceived_fraction();
    }
    if n_pairs == 0 {
        0.0
    } else {
        total / n_pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::AsGraphBuilder;
    use sbgp_routing::{HashTieBreak, LowestAsnTieBreak};

    /// v and a are both stubs of competing ISPs under a common Tier-1.
    fn contest() -> (AsGraph, AsId, AsId, AsId, AsId, AsId) {
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(1);
        let ia = b.add_node(10);
        let ib = b.add_node(20);
        let v = b.add_node(100);
        let a = b.add_node(200);
        b.add_provider_customer(t, ia).unwrap();
        b.add_provider_customer(t, ib).unwrap();
        b.add_provider_customer(ia, v).unwrap();
        b.add_provider_customer(ib, a).unwrap();
        let g = b.build().unwrap();
        (g, t, ia, ib, v, a)
    }

    #[test]
    fn insecure_world_splits_by_distance_and_tiebreak() {
        let (g, t, ia, _ib, v, a) = contest();
        let state = SecureSet::new(g.len());
        let out = simulate_hijack(&g, &state, TreePolicy::default(), a, v, &LowestAsnTieBreak);
        // ia is v's provider (1 hop): not deceived. ib is a's provider:
        // deceived. t ties at length 2 and picks via ia (ASN 10 < 20):
        // reaches the victim.
        assert_eq!(
            out,
            HijackOutcome {
                deceived: 1,
                reached_victim: 2,
                unreachable: 0
            }
        );
        let _ = (t, ia);
    }

    #[test]
    fn validating_isps_block_the_hijack() {
        let (g, t, ia, ib, v, a) = contest();
        let mut state = SecureSet::new(g.len());
        // Everyone secure except the attacker: bogus routes are
        // rejected at every validating hop, so even a's own provider
        // refuses the announcement... ib *is* secure so it validates.
        for x in [t, ia, ib, v] {
            state.set(x, true);
        }
        let out = simulate_hijack(&g, &state, TreePolicy::default(), a, v, &LowestAsnTieBreak);
        assert_eq!(out.deceived, 0);
        assert_eq!(out.reached_victim, 3);
    }

    #[test]
    fn simplex_stubs_remain_deceivable() {
        // Add a multihomed stub s under both ISPs; secure everything
        // except s runs simplex (it cannot validate). The bogus route
        // dies at the validating ISPs, so even s is protected — the
        // paper's "the only open attack vector is the ISP itself"
        // argument (Section 2.2.1).
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(1);
        let ia = b.add_node(10);
        let ib = b.add_node(20);
        let v = b.add_node(100);
        let a = b.add_node(200);
        let s = b.add_node(300);
        b.add_provider_customer(t, ia).unwrap();
        b.add_provider_customer(t, ib).unwrap();
        b.add_provider_customer(ia, v).unwrap();
        b.add_provider_customer(ib, a).unwrap();
        b.add_provider_customer(ia, s).unwrap();
        b.add_provider_customer(ib, s).unwrap();
        let g = b.build().unwrap();
        let (t, ia, ib, v, a, s) = (
            g.node_by_asn(1).unwrap(),
            g.node_by_asn(10).unwrap(),
            g.node_by_asn(20).unwrap(),
            g.node_by_asn(100).unwrap(),
            g.node_by_asn(200).unwrap(),
            g.node_by_asn(300).unwrap(),
        );
        let mut state = SecureSet::new(g.len());
        for x in [t, ia, ib, v, s] {
            state.set(x, true);
        }
        let out = simulate_hijack(&g, &state, TreePolicy::default(), a, v, &HashTieBreak);
        assert_eq!(
            out.deceived, 0,
            "validating providers shield the simplex stub"
        );

        // But if s's providers are NOT validating, the simplex stub
        // falls back to plain tiebreaks and can be deceived.
        let mut partial = SecureSet::new(g.len());
        partial.set(s, true);
        partial.set(v, true);
        let out = simulate_hijack(
            &g,
            &partial,
            TreePolicy::default(),
            a,
            v,
            &LowestAsnTieBreak,
        );
        // s ties between (s, ia, v) true and (s, ib, a) bogus, both
        // 2-hop provider routes; with no secure path available its
        // plain tiebreak decides (ia, ASN 10) — not deceived. ib is.
        assert_eq!(out.deceived, 1);
    }

    #[test]
    fn deployment_reduces_deception_monotonically_in_practice() {
        let g = generate(&GenParams::new(200, 3)).graph;
        let insecure = SecureSet::new(g.len());
        let mut half = SecureSet::new(g.len());
        for x in g.nodes().step_by(2) {
            half.set(x, true);
        }
        let mut full = SecureSet::new(g.len());
        for x in g.nodes() {
            full.set(x, true);
        }
        let policy = TreePolicy::default();
        let base = mean_deceived_fraction(&g, &insecure, policy, &HashTieBreak, 30, 9);
        let mid = mean_deceived_fraction(&g, &half, policy, &HashTieBreak, 30, 9);
        let top = mean_deceived_fraction(&g, &full, policy, &HashTieBreak, 30, 9);
        // The paper's motivating number: an arbitrary attacker fools a
        // large chunk of the insecure Internet.
        assert!(base > 0.15, "insecure baseline too low: {base}");
        assert!(mid < base, "half deployment must help: {mid} vs {base}");
        // Full deployment: only the attacker's own simplex stubs (if
        // any) could be fooled; with everyone validating upstream,
        // deception collapses.
        assert!(top < 0.02, "full deployment should stop hijacks: {top}");
    }

    #[test]
    fn deterministic_sampling() {
        let g = generate(&GenParams::new(120, 5)).graph;
        let state = SecureSet::new(g.len());
        let p = TreePolicy::default();
        let a = mean_deceived_fraction(&g, &state, p, &HashTieBreak, 20, 1);
        let b = mean_deceived_fraction(&g, &state, p, &HashTieBreak, 20, 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "hijack itself")]
    fn attacker_is_not_victim() {
        let (g, _, _, _, v, _) = contest();
        let state = SecureSet::new(g.len());
        simulate_hijack(&g, &state, TreePolicy::default(), v, v, &HashTieBreak);
    }
}
