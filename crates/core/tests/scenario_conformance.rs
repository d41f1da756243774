//! Property-based conformance suite for the adversarial scenario
//! engine: on arbitrary valley-free topologies, deployment states, and
//! (attacker, victim) pairs, the one-pass kernel
//! ([`sbgp_core::scenario::simulate_scenario`]) must agree with the
//! slow synchronous oracle
//! ([`sbgp_routing::scenario_oracle::converge_scenario`])
//! outcome-for-outcome — every per-node verdict, the three tallies and
//! every full path (rebuilt from next hops plus the announcement) —
//! for every attack model, a spread of defense policies, and three
//! tiebreakers. How many iterations the oracle's schedule took is not
//! part of the outcome; that it never exhausts its budget on a GR1
//! world is, and is asserted on every case.
//!
//! A failing case shrinks (proptest's built-in shrinking over the
//! edge-list strategy) and the assertion message carries a replayable
//! artifact: the full edge list, secure set, attack, policy, and pair,
//! so the minimal counterexample is reproducible from the test log
//! alone — the same discipline as `delta_conformance.rs`.

use proptest::prelude::*;
use sbgp_asgraph::{AsGraph, AsGraphBuilder, AsId};
use sbgp_core::scenario::{
    run_surface, simulate_scenario, PairStrategy, ScenarioConfig, ScenarioSnapshot, ScenarioSurface,
};
use sbgp_routing::scenario_oracle::converge_scenario;
use sbgp_routing::{
    AttackModel, HashTieBreak, LowestAsnTieBreak, ScenarioPolicy, SecureSet, TieBreaker,
};

/// Arbitrary valley-free topology (provider edges point down the index
/// order, GR1 by construction) plus a deployment state and a raw
/// (attacker, victim) draw.
fn arb_case() -> impl Strategy<Value = (AsGraph, Vec<bool>, u32, u32)> {
    (6usize..24).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, any::<bool>()), n..n * 3);
        let secure_bits = proptest::collection::vec(any::<bool>(), n);
        let pair = (0u32..n as u32, 0u32..n as u32);
        (Just(n), edges, secure_bits, pair).prop_map(|(n, edges, secure_bits, (a, v))| {
            let mut b = AsGraphBuilder::new();
            for i in 0..n {
                b.add_node(((i as u32) * 7919) % 10007 + 1);
            }
            for (x, y, is_peer) in edges {
                let (lo, hi) = (AsId(x.min(y)), AsId(x.max(y)));
                let _ = if is_peer {
                    b.add_peer_peer(lo, hi)
                } else {
                    b.add_provider_customer(lo, hi)
                };
            }
            (b.build().unwrap(), secure_bits, a, v)
        })
    })
}

fn secure_from_bits(bits: &[bool]) -> SecureSet {
    let mut s = SecureSet::new(bits.len());
    for (i, &on) in bits.iter().enumerate() {
        s.set(AsId(i as u32), on);
    }
    s
}

/// Every (node, next hop) gets the same key, so every full-key tie
/// falls through to the lower-neighbor-id rule.
struct ConstantTieBreak;

impl TieBreaker for ConstantTieBreak {
    fn key(&self, _: &AsGraph, _: AsId, _: AsId) -> u64 {
        7
    }
}

/// The policy spread every case is checked under: all three rankings,
/// ROV, and both asymmetry switches get coverage — the stub SecP knob
/// under the two rankings where security outranks length included.
fn policies() -> Vec<ScenarioPolicy> {
    let stubs_ignore = |p: ScenarioPolicy| ScenarioPolicy {
        stubs_prefer_secure: false,
        ..p
    };
    vec![
        ScenarioPolicy::security_third(),
        ScenarioPolicy::security_third().with_rov(),
        ScenarioPolicy::security_third().symmetric(),
        ScenarioPolicy::security_second(),
        ScenarioPolicy::security_second().with_rov().symmetric(),
        stubs_ignore(ScenarioPolicy::security_second()),
        ScenarioPolicy::security_first(),
        ScenarioPolicy::security_first().with_rov().symmetric(),
        stubs_ignore(ScenarioPolicy::security_first()),
    ]
}

/// Replayable artifact: everything needed to reconstruct the case.
fn artifact(
    g: &AsGraph,
    state: &SecureSet,
    attack: AttackModel,
    policy: &ScenarioPolicy,
    attacker: AsId,
    victim: AsId,
    tb_name: &str,
) -> String {
    let mut out = format!(
        "attack: {attack}\npolicy: {}\nattacker: {} victim: {}\ntiebreaker: {tb_name}\nnodes ({}):",
        policy.label(),
        attacker.0,
        victim.0,
        g.len()
    );
    for n in g.nodes() {
        out.push_str(&format!(
            " {}:{}{}",
            n.0,
            g.asn(n),
            if state.get(n) { "*" } else { "" }
        ));
    }
    out.push_str("\nprovider->customer edges:");
    for n in g.nodes() {
        for &c in g.customers(n) {
            out.push_str(&format!(" {}->{}", n.0, c.0));
        }
    }
    out.push_str("\npeer edges:");
    for n in g.nodes() {
        for &p in g.peers(n) {
            if n.0 < p.0 {
                out.push_str(&format!(" {}--{}", n.0, p.0));
            }
        }
    }
    out.push('\n');
    out
}

/// One conformance case: kernel vs oracle under every attack × policy
/// for the given tiebreaker. Returns the first divergence.
fn check_case(
    g: &AsGraph,
    bits: &[bool],
    attacker: AsId,
    victim: AsId,
    tiebreaker: &dyn TieBreaker,
    tb_name: &str,
) -> Result<(), String> {
    let state = secure_from_bits(bits);
    for &attack in &AttackModel::ALL {
        for policy in &policies() {
            let fast = simulate_scenario(g, &state, policy, attack, attacker, victim, tiebreaker);
            let detail =
                match converge_scenario(g, &state, policy, attack, attacker, victim, tiebreaker) {
                    // The fact that retired quarantine: GR1 + GR2 export
                    // leave the oracle nothing to spin on.
                    Err(e) => Some(format!(
                        "the oracle exhausted its {}-iteration budget",
                        e.iterations
                    )),
                    Ok(slow) if fast.outcome != slow.outcome => Some(format!(
                        "outcomes diverge:\nkernel {:?}\noracle {:?}",
                        fast.outcome, slow.outcome
                    )),
                    Ok(slow) => (0..fast.paths.len())
                        .find(|&i| fast.paths[i] != slow.paths[i])
                        .map(|i| {
                            format!(
                                "paths diverge at node {i}: kernel {:?} vs oracle {:?}",
                                fast.paths[i], slow.paths[i]
                            )
                        }),
                };
            if let Some(d) = detail {
                return Err(format!(
                    "{d}\n{}",
                    artifact(g, &state, attack, policy, attacker, victim, tb_name)
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 arbitrary worlds × 4 attacks × 9 policies × three
    /// tiebreakers: the kernel is the oracle, path-for-path, and the
    /// oracle always converges.
    #[test]
    fn fast_engine_matches_the_oracle((g, bits, a, v) in arb_case()) {
        let n = g.len() as u32;
        let attacker = AsId(a % n);
        // A raw draw may collide; shift the victim off the attacker.
        let victim = if a % n == v % n { AsId((v + 1) % n) } else { AsId(v % n) };
        let tiebreakers: [(&dyn TieBreaker, &str); 3] = [
            (&HashTieBreak, "hash"),
            (&LowestAsnTieBreak, "lowest-asn"),
            (&ConstantTieBreak, "constant"),
        ];
        for (tiebreaker, name) in tiebreakers {
            if let Err(e) = check_case(&g, &bits, attacker, victim, tiebreaker, name) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// The aggregated surface is exactly `==` at any thread count —
    /// on arbitrary worlds, not just the generator's.
    #[test]
    fn surface_is_thread_count_independent((g, bits, _, _) in arb_case()) {
        let snaps = vec![
            ScenarioSnapshot { label: "pre".into(), state: SecureSet::new(g.len()) },
            ScenarioSnapshot { label: "mid".into(), state: secure_from_bits(&bits) },
        ];
        let cfg = ScenarioConfig {
            attacks: AttackModel::ALL.to_vec(),
            policies: vec![
                ScenarioPolicy::security_third(),
                ScenarioPolicy::security_third().with_rov(),
            ],
            pairs: 3,
            strategy: PairStrategy::SeededRandom,
            seed: 11,
            threads: 1,
            self_check: 0.5,
        };
        let runs: Vec<ScenarioSurface> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                let mut c = cfg.clone();
                c.threads = t;
                run_surface(&g, &snaps, &c, &HashTieBreak)
            })
            .collect();
        for r in &runs[1..] {
            prop_assert_eq!(r, &runs[0]);
        }
        prop_assert!(runs[0].mismatches.is_empty(), "{:?}", runs[0].mismatches);
    }
}
