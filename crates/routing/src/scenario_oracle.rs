//! A deliberately naive two-origin path-vector simulator used as the
//! testing oracle for adversarial scenarios.
//!
//! Like [`crate::oracle`], this re-implements the semantics the slow
//! way: every node holds its full best AS path as a `Vec`, nodes
//! synchronously re-rank everything their neighbors export, and the
//! system iterates to a fixpoint — except here *two* origins announce
//! the contested prefix (the victim legitimately, the attacker per its
//! [`AttackModel`]), candidates derived from the attacker are filtered
//! by the [`ScenarioPolicy`] defense matrix, and security can sit at
//! any position of the ranking.
//!
//! Nothing in the simulator proper uses this module — it exists so the
//! one-pass [`crate::scenario_kernel`] (no explicit paths, no
//! iteration) can be differentially checked against an independent
//! implementation, path-for-path and verdict-for-verdict.
//!
//! Unlike [`crate::oracle`], exhausting the iteration budget is a
//! value, not a panic. The kernel's exactness argument says it cannot
//! happen on a GR1 graph under GR2 export, whatever the ranking; the
//! conformance suite asserts that on every world it generates.

use crate::secure::SecureSet;
use crate::threat::{AttackModel, ScenarioOutcome, ScenarioPolicy, Verdict};
use crate::tiebreak::TieBreaker;
use sbgp_asgraph::{AsGraph, AsId};

/// The converged reference result: full paths plus the tallied
/// outcome.
#[derive(Clone, Debug)]
pub struct OracleRun {
    /// Best AS path per node (`[node, ..., origin]`), `None` if no
    /// route survived filtering.
    pub paths: Vec<Option<Vec<AsId>>>,
    /// Tallied verdicts.
    pub outcome: ScenarioOutcome,
    /// Synchronous iterations of the two-origin fixpoint (the route
    /// leak's clean-route prephase is not counted) — a property of
    /// this schedule, not of the outcome.
    pub iterations: usize,
}

/// The fixpoint exhausted its `2·|V| + 10` iteration budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleExhausted {
    /// The iteration budget that was exhausted.
    pub iterations: usize,
}

/// A ranked candidate: the policy-ordered key plus the path itself.
type RankedPath = ((u64, u64, u64, u64), Vec<AsId>);

/// Relationship rank of neighbor `m` from `x`'s perspective
/// (0 customer, 1 peer, 2 provider) — the LP step.
fn lp_rank(g: &AsGraph, x: AsId, m: AsId) -> u8 {
    g.relationship(x, m)
        .expect("candidate must be a neighbor")
        .preference_rank()
}

/// Run the naive two-origin fixpoint for one scenario.
///
/// Outcome semantics are defined in [`crate::threat`].
///
/// # Errors
/// Returns [`OracleExhausted`] if either fixpoint phase fails to
/// settle within `2·|V| + 10` synchronous iterations.
///
/// # Panics
/// Panics if `attacker == victim`.
pub fn converge_scenario<T: TieBreaker + ?Sized>(
    g: &AsGraph,
    state: &SecureSet,
    policy: &ScenarioPolicy,
    attack: AttackModel,
    attacker: AsId,
    victim: AsId,
    tiebreaker: &T,
) -> Result<OracleRun, OracleExhausted> {
    assert_ne!(attacker, victim, "attacker cannot target itself");
    let announcement = match attack {
        AttackModel::OriginHijack | AttackModel::Downgrade => Some(vec![attacker]),
        AttackModel::PathForgery => Some(vec![attacker, victim]),
        AttackModel::RouteLeak => {
            // Prephase: the attacker's real best route to the victim in
            // the clean (no-attack) world is what it leaks.
            let (clean, _) = fixpoint(g, state, policy, victim, None, tiebreaker)?;
            clean[attacker.index()].clone()
        }
    };
    let (paths, iterations) = fixpoint(
        g,
        state,
        policy,
        victim,
        Some((attacker, attack, announcement)),
        tiebreaker,
    )?;
    let verdicts: Vec<Verdict> = g
        .nodes()
        .map(|x| {
            if x == attacker || x == victim {
                Verdict::Origin
            } else {
                match &paths[x.index()] {
                    None => Verdict::Unreachable,
                    Some(p) if p.contains(&attacker) => Verdict::Deceived,
                    Some(_) => Verdict::ReachedVictim,
                }
            }
        })
        .collect();
    Ok(OracleRun {
        paths,
        outcome: ScenarioOutcome::tally(verdicts),
        iterations,
    })
}

/// One synchronous path-vector fixpoint. With `attack_cfg = None` this
/// is the clean single-origin world (the route-leak prephase); with
/// `Some((attacker, attack, announcement))` the attacker is pinned to
/// its announcement (or pinned routeless if it had none to leak) and
/// exports to every neighbor — that GR2 violation *is* the attack.
#[allow(clippy::type_complexity)]
fn fixpoint<T: TieBreaker + ?Sized>(
    g: &AsGraph,
    state: &SecureSet,
    policy: &ScenarioPolicy,
    victim: AsId,
    attack_cfg: Option<(AsId, AttackModel, Option<Vec<AsId>>)>,
    tiebreaker: &T,
) -> Result<(Vec<Option<Vec<AsId>>>, usize), OracleExhausted> {
    let n = g.len();
    let mut paths: Vec<Option<Vec<AsId>>> = vec![None; n];
    paths[victim.index()] = Some(vec![victim]);
    let pinned_attacker = attack_cfg.as_ref().map(|(a, _, _)| *a);
    if let Some((a, _, ann)) = &attack_cfg {
        paths[a.index()] = ann.clone();
    }

    let all_secure = |p: &[AsId]| p.iter().all(|&x| state.get(x));
    let exports = |m: AsId, x: AsId, mp: &[AsId]| -> bool {
        if m == victim || Some(m) == pinned_attacker {
            return true; // origins (and the leaker) announce to everyone
        }
        if g.customers(m).binary_search(&x).is_ok() {
            return true;
        }
        g.customers(m).binary_search(&mp[1]).is_ok()
    };

    let max_iters = 2 * n + 10;
    let mut iterations = 0;
    loop {
        iterations += 1;
        if iterations > max_iters {
            return Err(OracleExhausted {
                iterations: max_iters,
            });
        }
        let mut changed = false;
        let mut next = paths.clone();
        for x in g.nodes() {
            if x == victim || Some(x) == pinned_attacker {
                continue;
            }
            let applies_secp = policy.applies_secp(g, state, x);
            let mut best: Option<RankedPath> = None;
            for &m in g.neighbors(x) {
                let Some(mp) = paths[m.index()].as_ref() else {
                    continue;
                };
                if mp.contains(&x) || !exports(m, x, mp) {
                    continue;
                }
                // The attacker is pinned, so a path contains it iff the
                // path descends from its announcement.
                let from_attacker = pinned_attacker.is_some_and(|a| mp.contains(&a));
                if from_attacker {
                    let (_, attack, _) = attack_cfg.as_ref().expect("attacker is pinned");
                    if policy.rejects_attacker_route(g, state, *attack, victim, x) {
                        continue;
                    }
                }
                let mut cand = Vec::with_capacity(mp.len() + 1);
                cand.push(x);
                cand.extend_from_slice(mp);
                // Forged announcements can never rank as secure — the
                // attacker cannot produce the victim's signatures. A
                // leaked route's signatures are all genuine.
                let forged = from_attacker
                    && attack_cfg
                        .as_ref()
                        .is_some_and(|(_, attack, _)| attack.forges_path());
                let sec_flag = u8::from(!(applies_secp && !forged && all_secure(&cand)));
                let key = policy.rank_key(
                    lp_rank(g, x, m),
                    cand.len() - 1,
                    sec_flag,
                    tiebreaker.key(g, x, m),
                );
                if best.as_ref().is_none_or(|(k, _)| key < *k) {
                    best = Some((key, cand));
                }
            }
            let new = best.map(|(_, p)| p);
            if new != paths[x.index()] {
                changed = true;
            }
            next[x.index()] = new;
        }
        paths = next;
        if !changed {
            break;
        }
    }
    Ok((paths, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiebreak::LowestAsnTieBreak;
    use sbgp_asgraph::AsGraphBuilder;

    /// v and a are stubs of competing ISPs under a common Tier-1.
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
    fn hijack_matches_the_resilience_seed_semantics() {
        let (g, _t, _ia, ib, v, a) = contest();
        let state = SecureSet::new(g.len());
        let run = converge_scenario(
            &g,
            &state,
            &ScenarioPolicy::security_third(),
            AttackModel::OriginHijack,
            a,
            v,
            &LowestAsnTieBreak,
        )
        .unwrap();
        // ib is the attacker's provider: deceived. ia and t reach v.
        assert_eq!(run.outcome.deceived, 1);
        assert_eq!(run.outcome.reached_victim, 2);
        assert_eq!(run.outcome.unreachable, 0);
        assert_eq!(run.outcome.verdicts[ib.index()], Verdict::Deceived);
    }

    #[test]
    fn leak_intercepts_through_the_attackers_real_route() {
        // A multihomed attacker: a buys transit from both t1 and t2,
        // the victim sits under t1, and t1–t2 peer. a's real route is
        // [a, t1, v]; leaking it hands t2 a 3-hop *customer* route
        // that LP prefers over its own 2-hop peer route [t2, t1, v].
        let mut b = AsGraphBuilder::new();
        let t1 = b.add_node(1);
        let t2 = b.add_node(2);
        let v = b.add_node(100);
        let a = b.add_node(200);
        b.add_peer_peer(t1, t2).unwrap();
        b.add_provider_customer(t1, v).unwrap();
        b.add_provider_customer(t1, a).unwrap();
        b.add_provider_customer(t2, a).unwrap();
        let g = b.build().unwrap();
        // Even under FULL deployment the leak works: every signature
        // on the leaked route is genuine, so validation has nothing to
        // reject — the Lychev-adjacent point the engine must express.
        let mut state = SecureSet::new(g.len());
        for x in [t1, t2, v, a] {
            state.set(x, true);
        }
        let run = converge_scenario(
            &g,
            &state,
            &ScenarioPolicy::security_third().with_rov(),
            AttackModel::RouteLeak,
            a,
            v,
            &LowestAsnTieBreak,
        )
        .unwrap();
        assert_eq!(run.paths[t2.index()].as_ref().unwrap(), &vec![t2, a, t1, v]);
        assert_eq!(run.outcome.verdicts[t2.index()], Verdict::Deceived);
        // t1 hears the leak back but it contains t1 itself: rejected.
        assert_eq!(run.outcome.verdicts[t1.index()], Verdict::ReachedVictim);
        assert_eq!(run.outcome.deceived, 1);
    }

    #[test]
    fn downgrade_beats_hijack_where_validators_were_the_shield() {
        let (g, t, ia, ib, v, a) = contest();
        let mut state = SecureSet::new(g.len());
        for x in [t, ia, ib, v] {
            state.set(x, true);
        }
        let p = ScenarioPolicy::security_third();
        let hijack = converge_scenario(
            &g,
            &state,
            &p,
            AttackModel::OriginHijack,
            a,
            v,
            &LowestAsnTieBreak,
        )
        .unwrap();
        let down = converge_scenario(
            &g,
            &state,
            &p,
            AttackModel::Downgrade,
            a,
            v,
            &LowestAsnTieBreak,
        )
        .unwrap();
        assert_eq!(hijack.outcome.deceived, 0, "validators stop the hijack");
        assert!(down.outcome.deceived >= 1, "the downgrade walks past them");
        // ...but ROV restores the defense.
        let rov = p.with_rov();
        let down_rov = converge_scenario(
            &g,
            &state,
            &rov,
            AttackModel::Downgrade,
            a,
            v,
            &LowestAsnTieBreak,
        )
        .unwrap();
        assert_eq!(down_rov.outcome.deceived, 0);
    }
}
