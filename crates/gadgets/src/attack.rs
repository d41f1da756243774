//! Appendix B / Figure 15: why partially-secure paths must never be
//! preferred.
//!
//! Only ASes `p` and `q` are secure. A malicious AS `m` falsely
//! announces the one-hop path `(m, v)`. AS `p` now sees two
//! equally-good candidates:
//!
//! * the **false** path `(p, q, m, v)` — partially secure: its prefix
//!   `p, q` is signed, but `m`'s hop is fabricated;
//! * the **true** path `(p, r, s, v)` — entirely insecure but real,
//!   and favored by `p`'s plain tiebreak.
//!
//! Without S\*BGP, `p` picks the true path. If `p`'s policy prefers
//! *partially* secure paths, the attacker wins — a new attack vector
//! that did not exist before deploying security. This is why the
//! paper (Section 2.2.2) and this simulator's
//! [`compute_tree`](sbgp_routing::compute_tree) apply the SecP step
//! only to **fully** secure paths.
//!
//! The attack involves a *lying* announcement, which the deployment
//! simulator deliberately does not model (Section 8.3), so this module
//! demonstrates it on explicit candidate routes.

/// A candidate route as seen by the deciding AS, after LP and
/// path-length ranking have already tied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateRoute {
    /// AS-level path, deciding AS first, destination last.
    pub path: Vec<u32>,
    /// Which hops carry valid signatures (same length as `path`).
    pub signed: Vec<bool>,
    /// Ground truth: does this path actually exist / lead to the real
    /// destination? (Unknowable to the protocol; used to judge the
    /// outcome.)
    pub legitimate: bool,
    /// The deciding AS's intradomain tiebreak key; lower wins.
    pub tiebreak_key: u64,
}

impl CandidateRoute {
    /// Is every hop signed (a *fully* secure path)?
    pub fn fully_secure(&self) -> bool {
        self.signed.iter().all(|&s| s)
    }

    /// Number of signed hops (what a partial-security ranking would
    /// maximize).
    pub fn secure_hops(&self) -> usize {
        self.signed.iter().filter(|&&s| s).count()
    }
}

/// The security criterion applied between equally-good paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecurityPolicy {
    /// The paper's rule: prefer *fully* secure paths only; partially
    /// secure paths get no preference (Section 2.2.2).
    FullySecureOnly,
    /// The tempting-but-broken rule: prefer the path with more signed
    /// hops.
    PreferPartiallySecure,
}

impl SecurityPolicy {
    /// The equivalent full-engine policy, now that the adversarial
    /// scenario layer models lying announcements for real:
    /// [`SecurityPolicy::FullySecureOnly`] is exactly the paper's
    /// baseline ranking (security third, fully-secure paths only).
    /// [`SecurityPolicy::PreferPartiallySecure`] has *no* engine
    /// equivalent — it returns `None` — because the engine refuses to
    /// implement the broken rule this module exists to warn about.
    pub fn as_scenario_policy(self) -> Option<sbgp_routing::ScenarioPolicy> {
        match self {
            SecurityPolicy::FullySecureOnly => Some(sbgp_routing::ScenarioPolicy::security_third()),
            SecurityPolicy::PreferPartiallySecure => None,
        }
    }
}

/// Select among equally-good candidates under `policy`; ties fall back
/// to the intradomain key.
pub fn select_route(routes: &[CandidateRoute], policy: SecurityPolicy) -> &CandidateRoute {
    routes
        .iter()
        .min_by_key(|r| {
            let sec_rank = match policy {
                SecurityPolicy::FullySecureOnly => usize::from(!r.fully_secure()),
                // More signed hops = better = smaller rank.
                SecurityPolicy::PreferPartiallySecure => r.path.len() - r.secure_hops(),
            };
            (sec_rank, r.tiebreak_key)
        })
        .expect("at least one candidate")
}

/// The concrete Figure 15 scenario: returns `(false_path, true_path)`
/// as seen by AS `p` after `m` announces the fabricated `(m, v)`.
pub fn figure15() -> (CandidateRoute, CandidateRoute) {
    // ASes: p=1, q=2, m=666 (attacker), r=3, s=4, v=5.
    let false_path = CandidateRoute {
        path: vec![1, 2, 666, 5],
        // p and q sign; m cannot produce v's signature, and v never
        // announced through m.
        signed: vec![true, true, false, false],
        legitimate: false,
        tiebreak_key: 20, // p's tiebreak prefers r (10) over q (20)
    };
    let true_path = CandidateRoute {
        path: vec![1, 3, 4, 5],
        signed: vec![true, false, false, false],
        legitimate: true,
        tiebreak_key: 10,
    };
    (false_path, true_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_partial_preference_truth_wins() {
        let (false_path, true_path) = figure15();
        let routes = [false_path, true_path.clone()];
        let chosen = select_route(&routes, SecurityPolicy::FullySecureOnly);
        assert_eq!(chosen, &true_path);
        assert!(chosen.legitimate, "p routes to the real destination");
    }

    #[test]
    fn partial_preference_enables_the_hijack() {
        let (false_path, true_path) = figure15();
        let routes = [false_path.clone(), true_path];
        let chosen = select_route(&routes, SecurityPolicy::PreferPartiallySecure);
        assert_eq!(chosen, &false_path);
        assert!(
            !chosen.legitimate,
            "preferring partially-secure paths hands traffic to the attacker"
        );
    }

    #[test]
    fn fully_secure_paths_still_win_under_the_safe_policy() {
        let (mut false_path, true_path) = figure15();
        // Counterfactual: if the whole false path *were* validly
        // signed, it would not be false — fully secure paths are
        // preferred and that is sound.
        false_path.signed = vec![true, true, true, true];
        false_path.legitimate = true;
        let routes = [false_path.clone(), true_path];
        let chosen = select_route(&routes, SecurityPolicy::FullySecureOnly);
        assert_eq!(chosen, &false_path);
    }

    #[test]
    fn figure15_replays_through_the_real_scenario_engine() {
        // The same story, but as a live topology under the scenario
        // engine's one-hop path forgery instead of hand-fed candidate
        // routes: p tops two customer branches, one leading to the
        // attacker m (via q) and one to the victim v (via r, s); m
        // announces the forged (m, v).
        use sbgp_asgraph::AsGraphBuilder;
        use sbgp_core::scenario::simulate_scenario;
        use sbgp_routing::{AttackModel, LowestAsnTieBreak, SecureSet, Verdict};
        let mut b = AsGraphBuilder::new();
        let p = b.add_node(1);
        let q = b.add_node(20); // p's tiebreak prefers r (ASN 3) over q
        let m = b.add_node(666);
        let r = b.add_node(3);
        let s = b.add_node(4);
        let v = b.add_node(5);
        b.add_provider_customer(p, q).unwrap();
        b.add_provider_customer(q, m).unwrap();
        b.add_provider_customer(p, r).unwrap();
        b.add_provider_customer(r, s).unwrap();
        b.add_provider_customer(s, v).unwrap();
        let g = b.build().unwrap();
        let mut state = SecureSet::new(g.len());
        state.set(p, true);
        state.set(q, true);
        let policy = SecurityPolicy::FullySecureOnly
            .as_scenario_policy()
            .expect("the sound rule has an engine equivalent");

        // The insecure victim cannot sign, so the forged (m, v) is
        // indistinguishable from a real route at p: two equally-good
        // 3-hop customer candidates — [p,q,m,v] forged (its p,q prefix
        // signed, never fully secure) vs [p,r,s,v] true — and p's
        // plain tiebreak picks the true branch, exactly Figure 15
        // under FullySecureOnly.
        let run = simulate_scenario(
            &g,
            &state,
            &policy,
            AttackModel::PathForgery,
            m,
            v,
            &LowestAsnTieBreak,
        );
        assert_eq!(run.paths[p.index()].as_ref().unwrap(), &vec![p, r, s, v]);
        assert_eq!(run.outcome.verdicts[p.index()], Verdict::ReachedVictim);
        // q sits right above the attacker with no alternative of its
        // own class: deceived — the forgery is a real attack even
        // under the sound policy.
        assert_eq!(run.outcome.verdicts[q.index()], Verdict::Deceived);

        // Once the victim deploys (signs its announcements), the
        // unsigned forgery becomes provably bogus and validators drop
        // it: nobody is deceived anymore.
        state.set(v, true);
        let run = simulate_scenario(
            &g,
            &state,
            &policy,
            AttackModel::PathForgery,
            m,
            v,
            &LowestAsnTieBreak,
        );
        assert_eq!(run.outcome.deceived, 0);
        assert_eq!(run.outcome.verdicts[q.index()], Verdict::ReachedVictim);
    }

    #[test]
    fn the_broken_rule_has_no_engine_equivalent() {
        assert_eq!(
            SecurityPolicy::PreferPartiallySecure.as_scenario_policy(),
            None
        );
        assert_eq!(
            SecurityPolicy::FullySecureOnly.as_scenario_policy(),
            Some(sbgp_routing::ScenarioPolicy::security_third())
        );
    }

    #[test]
    fn helpers() {
        let (false_path, true_path) = figure15();
        assert_eq!(false_path.secure_hops(), 2);
        assert_eq!(true_path.secure_hops(), 1);
        assert!(!false_path.fully_secure());
    }
}
