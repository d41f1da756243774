//! Shared vocabulary for adversarial routing scenarios.
//!
//! The paper defers "resiliency to attack" under partial deployment to
//! future work (Section 6.4); the related literature fills the gap:
//! Goldberg et al. \[15\] measure origin hijacks, Lychev, Goldberg &
//! Schapira analyze protocol-downgrade attacks that collapse the gains
//! of partial S\*BGP, and route leaks evade path validation entirely.
//! This module defines the attack models, defense policies, and
//! per-node verdicts used by both the route-selection kernel
//! ([`crate::scenario_kernel`]) and the slow reference implementation
//! ([`crate::scenario_oracle`]) so the two can be compared
//! outcome-for-outcome.
//!
//! ## Attack semantics
//!
//! All attacks target one `(attacker, victim)` pair: both announce the
//! victim's prefix and the rest of the graph converges on whichever
//! origin each AS (transitively) prefers. What differs is the shape of
//! the attacker's announcement and which defenses can see through it:
//!
//! * **Origin hijack** — the attacker originates the prefix itself
//!   (path `[a]`). The origination is unattestable, so *path
//!   validators* (fully secure ASes, per the asymmetric simplex rule)
//!   reject it outright, and *ROV origin filters* reject it too.
//! * **One-hop path forgery** — the attacker announces `[a, v]`: the
//!   true origin with a fabricated adjacency. ROV passes (the origin
//!   is valid). Path validators reject it **iff the victim is
//!   secure** — only then are the victim's announcements signed, which
//!   makes an unsigned `[a, v]` provably bogus; an insecure victim's
//!   routes are unsigned anyway, so the forgery is indistinguishable
//!   from a legitimate route.
//! * **Route leak** — the attacker takes its *real* best route to the
//!   victim and exports it to every neighbor, violating GR2. Every
//!   signature on the path is genuine, so neither path validation nor
//!   ROV can reject it — a leaked route through a fully secure chain
//!   even *ranks* as secure. "Deceived" here means intercepted: the
//!   traffic flows through the attacker before reaching the victim.
//! * **Protocol downgrade** (Lychev-style) — an origin hijack mounted
//!   over a downgraded (insecure) session, so path validation never
//!   happens and secure ASes accept the bogus route like anyone else.
//!   ROV still rejects it: origin filtering is an out-of-band check
//!   that no session downgrade can bypass. Under security-third this
//!   attacker is at least as effective as the plain hijacker — the
//!   Lychev monotonicity claim the invariant tests pin down.

use crate::secure::SecureSet;
use sbgp_asgraph::{AsGraph, AsId};
use std::fmt;

/// What the attacker announces for the victim's prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackModel {
    /// The classic origin hijack: the attacker originates the prefix.
    OriginHijack,
    /// One-hop path forgery: the attacker announces `[a, victim]`.
    PathForgery,
    /// The attacker leaks its real route to the victim to everyone.
    RouteLeak,
    /// An origin hijack that evades path validation via session
    /// downgrade; only ROV origin filtering still stops it.
    Downgrade,
}

impl AttackModel {
    /// Every attack model, in canonical (CSV/CLI) order.
    pub const ALL: [AttackModel; 4] = [
        AttackModel::OriginHijack,
        AttackModel::PathForgery,
        AttackModel::RouteLeak,
        AttackModel::Downgrade,
    ];

    /// Short label used in CSVs and `--attacks` values.
    pub fn label(self) -> &'static str {
        match self {
            AttackModel::OriginHijack => "hijack",
            AttackModel::PathForgery => "forgery",
            AttackModel::RouteLeak => "leak",
            AttackModel::Downgrade => "downgrade",
        }
    }

    /// Does the announcement carry fabricated path material? Forged
    /// routes can never rank as fully secure — the attacker cannot
    /// produce the missing signatures. A route leak is the exception:
    /// every signature on it is real.
    pub fn forges_path(self) -> bool {
        !matches!(self, AttackModel::RouteLeak)
    }

    /// Parse one `--attacks` item.
    pub fn parse(s: &str) -> Result<AttackModel, String> {
        match s {
            "hijack" => Ok(AttackModel::OriginHijack),
            "forgery" => Ok(AttackModel::PathForgery),
            "leak" => Ok(AttackModel::RouteLeak),
            "downgrade" => Ok(AttackModel::Downgrade),
            other => Err(format!(
                "unknown attack {other:?} (expected hijack|forgery|leak|downgrade|all)"
            )),
        }
    }

    /// Parse a comma-separated `--attacks` list; `all` expands to
    /// every model. Duplicates are rejected — a repeated attack would
    /// silently double its weight in every surface.
    pub fn parse_list(s: &str) -> Result<Vec<AttackModel>, String> {
        if s.trim() == "all" {
            return Ok(Self::ALL.to_vec());
        }
        let mut out = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let a = AttackModel::parse(part)?;
            if out.contains(&a) {
                return Err(format!("duplicate attack {part:?}"));
            }
            out.push(a);
        }
        if out.is_empty() {
            return Err("no attacks given".into());
        }
        Ok(out)
    }
}

impl fmt::Display for AttackModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where the security comparison sits in the route-selection ranking
/// (Lychev et al.'s three deployment dials).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SecurityRank {
    /// Security before everything: (sec, LP, length, TB).
    First,
    /// Security after LP, before length: (LP, sec, length, TB).
    Second,
    /// The paper's Appendix A ranking: (LP, length, sec, TB).
    Third,
}

/// A defense configuration: where security ranks, whether ROV origin
/// filtering is on, and how simplex stubs behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioPolicy {
    /// Position of the security comparison in the ranking.
    pub rank: SecurityRank,
    /// ROV-style origin filtering: every secure AS (including simplex
    /// stubs — ROV needs only the RPKI, not a BGPsec session) drops
    /// origin-invalid routes.
    pub rov: bool,
    /// If `true`, secure stubs validate paths like full deployments
    /// (the symmetric model); if `false` (the paper's Section 2.2.1
    /// simplex asymmetry), stubs sign but cannot validate.
    pub stubs_validate: bool,
    /// Whether secure stubs apply the SecP preference step (the
    /// existing `TreePolicy::stubs_prefer_secure` knob).
    pub stubs_prefer_secure: bool,
}

impl ScenarioPolicy {
    /// The paper's baseline: security third, no ROV, simplex stubs.
    pub fn security_third() -> ScenarioPolicy {
        ScenarioPolicy {
            rank: SecurityRank::Third,
            rov: false,
            stubs_validate: false,
            stubs_prefer_secure: true,
        }
    }

    /// Security second (above path length), otherwise the baseline.
    pub fn security_second() -> ScenarioPolicy {
        ScenarioPolicy {
            rank: SecurityRank::Second,
            ..ScenarioPolicy::security_third()
        }
    }

    /// Security first (above LP), otherwise the baseline. Export
    /// still follows GR2, so outcomes stay unique and the kernel
    /// settles them in one pass like the other two rankings.
    pub fn security_first() -> ScenarioPolicy {
        ScenarioPolicy {
            rank: SecurityRank::First,
            ..ScenarioPolicy::security_third()
        }
    }

    /// The same policy with ROV origin filtering switched on.
    pub fn with_rov(mut self) -> ScenarioPolicy {
        self.rov = true;
        self
    }

    /// The same policy with symmetric (validating) stubs.
    pub fn symmetric(mut self) -> ScenarioPolicy {
        self.stubs_validate = true;
        self
    }

    /// Canonical label: `sec1|sec2|sec3` plus `+rov` / `+symmetric`
    /// suffixes. [`ScenarioPolicy::parse`] round-trips it.
    pub fn label(&self) -> String {
        let mut s = String::from(match self.rank {
            SecurityRank::First => "sec1",
            SecurityRank::Second => "sec2",
            SecurityRank::Third => "sec3",
        });
        if self.rov {
            s.push_str("+rov");
        }
        if self.stubs_validate {
            s.push_str("+symmetric");
        }
        if !self.stubs_prefer_secure {
            s.push_str("+stubs-ignore");
        }
        s
    }

    /// Parse one `--policies` item (the [`ScenarioPolicy::label`]
    /// vocabulary).
    pub fn parse(s: &str) -> Result<ScenarioPolicy, String> {
        let mut parts = s.split('+');
        let base = parts.next().unwrap_or_default();
        let mut p = match base {
            "sec1" => ScenarioPolicy::security_first(),
            "sec2" => ScenarioPolicy::security_second(),
            "sec3" => ScenarioPolicy::security_third(),
            other => {
                return Err(format!(
                    "unknown policy {other:?} (expected sec1|sec2|sec3 with optional \
                     +rov/+symmetric/+stubs-ignore suffixes)"
                ))
            }
        };
        for suffix in parts {
            match suffix {
                "rov" => p.rov = true,
                "symmetric" => p.stubs_validate = true,
                "stubs-ignore" => p.stubs_prefer_secure = false,
                other => return Err(format!("unknown policy suffix {other:?} in {s:?}")),
            }
        }
        Ok(p)
    }

    /// Parse a comma-separated `--policies` list, rejecting
    /// duplicates.
    pub fn parse_list(s: &str) -> Result<Vec<ScenarioPolicy>, String> {
        let mut out = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let p = ScenarioPolicy::parse(part)?;
            if out.contains(&p) {
                return Err(format!("duplicate policy {part:?}"));
            }
            out.push(p);
        }
        if out.is_empty() {
            return Err("no policies given".into());
        }
        Ok(out)
    }

    /// Does `x` apply the SecP preference step in `state`?
    pub fn applies_secp(&self, g: &AsGraph, state: &SecureSet, x: AsId) -> bool {
        state.get(x) && (self.stubs_prefer_secure || !g.is_stub(x))
    }

    /// Does `x` validate announcement paths in `state`? Fully secure
    /// ISPs and CPs always do; stubs only under the symmetric model.
    pub fn validates_path(&self, g: &AsGraph, state: &SecureSet, x: AsId) -> bool {
        state.get(x) && (self.stubs_validate || !g.is_stub(x))
    }

    /// Does `x` reject a route derived from the attacker's
    /// announcement? This is the whole defense matrix (see the module
    /// docs for why each cell is what it is).
    pub fn rejects_attacker_route(
        &self,
        g: &AsGraph,
        state: &SecureSet,
        attack: AttackModel,
        victim: AsId,
        x: AsId,
    ) -> bool {
        let path_reject = self.validates_path(g, state, x)
            && match attack {
                AttackModel::OriginHijack => true,
                AttackModel::PathForgery => state.get(victim),
                AttackModel::RouteLeak | AttackModel::Downgrade => false,
            };
        let rov_reject = self.rov
            && state.get(x)
            && matches!(attack, AttackModel::OriginHijack | AttackModel::Downgrade);
        path_reject || rov_reject
    }

    /// The comparable selection key for a candidate with the given LP
    /// class, hop length, security flag (0 = secure preferred), and
    /// tiebreak key. Smaller wins.
    pub fn rank_key(&self, lp: u8, len: usize, sec_flag: u8, tb: u64) -> (u64, u64, u64, u64) {
        match self.rank {
            SecurityRank::First => (sec_flag as u64, lp as u64, len as u64, tb),
            SecurityRank::Second => (lp as u64, sec_flag as u64, len as u64, tb),
            SecurityRank::Third => (lp as u64, len as u64, sec_flag as u64, tb),
        }
    }
}

/// Where one AS's converged route for the contested prefix leads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The attacker or the victim themselves (excluded from counts).
    Origin,
    /// The chosen route passes through the attacker.
    Deceived,
    /// The chosen route reaches the victim without the attacker.
    ReachedVictim,
    /// No route survived filtering at all.
    Unreachable,
}

/// The outcome of one scenario — what the routing settles on, with
/// nothing of how an engine got there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Per-node verdicts (index = node id).
    pub verdicts: Vec<Verdict>,
    /// Non-origin ASes routing through the attacker.
    pub deceived: usize,
    /// Non-origin ASes reaching the victim cleanly.
    pub reached_victim: usize,
    /// Non-origin ASes with no route at all.
    pub unreachable: usize,
}

impl ScenarioOutcome {
    /// Tally counts from per-node verdicts.
    pub fn tally(verdicts: Vec<Verdict>) -> ScenarioOutcome {
        let mut out = ScenarioOutcome {
            verdicts,
            deceived: 0,
            reached_victim: 0,
            unreachable: 0,
        };
        for v in &out.verdicts {
            match v {
                Verdict::Origin => {}
                Verdict::Deceived => out.deceived += 1,
                Verdict::ReachedVictim => out.reached_victim += 1,
                Verdict::Unreachable => out.unreachable += 1,
            }
        }
        out
    }

    /// Fraction of non-origin ASes deceived (`0.0` on an empty tally).
    pub fn deceived_fraction(&self) -> f64 {
        let total = self.deceived + self.reached_victim + self.unreachable;
        if total == 0 {
            0.0
        } else {
            self.deceived as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_labels_round_trip() {
        for a in AttackModel::ALL {
            assert_eq!(AttackModel::parse(a.label()).unwrap(), a);
            assert_eq!(a.to_string(), a.label());
        }
        assert_eq!(AttackModel::parse_list("all").unwrap().len(), 4);
        assert_eq!(
            AttackModel::parse_list("hijack, leak").unwrap(),
            vec![AttackModel::OriginHijack, AttackModel::RouteLeak]
        );
        assert!(AttackModel::parse_list("hijack,hijack").is_err());
        assert!(AttackModel::parse_list("prefixsquat").is_err());
        assert!(AttackModel::parse_list("").is_err());
    }

    #[test]
    fn policy_labels_round_trip() {
        let all = [
            ScenarioPolicy::security_third(),
            ScenarioPolicy::security_third().with_rov(),
            ScenarioPolicy::security_second().symmetric(),
            ScenarioPolicy::security_first().with_rov().symmetric(),
            ScenarioPolicy {
                stubs_prefer_secure: false,
                ..ScenarioPolicy::security_third()
            },
        ];
        for p in all {
            assert_eq!(
                ScenarioPolicy::parse(&p.label()).unwrap(),
                p,
                "{}",
                p.label()
            );
        }
        assert!(ScenarioPolicy::parse("sec4").is_err());
        assert!(ScenarioPolicy::parse("sec3+loud").is_err());
        assert!(ScenarioPolicy::parse_list("sec3,sec3").is_err());
    }

    #[test]
    fn rank_key_orders_by_policy() {
        // A longer secure route vs a shorter insecure one: security
        // third prefers short, security second and first prefer secure.
        let secure_long = |p: &ScenarioPolicy| p.rank_key(0, 5, 0, 9);
        let insecure_short = |p: &ScenarioPolicy| p.rank_key(0, 2, 1, 1);
        let p3 = ScenarioPolicy::security_third();
        assert!(insecure_short(&p3) < secure_long(&p3));
        let p2 = ScenarioPolicy::security_second();
        assert!(secure_long(&p2) < insecure_short(&p2));
        let p1 = ScenarioPolicy::security_first();
        assert!(secure_long(&p1) < insecure_short(&p1));
        // LP still dominates security under sec2.
        assert!(p2.rank_key(0, 2, 1, 0) < p2.rank_key(1, 2, 0, 0));
        // But not under sec1.
        assert!(p1.rank_key(1, 2, 0, 0) < p1.rank_key(0, 2, 1, 0));
    }

    #[test]
    fn defense_matrix() {
        use sbgp_asgraph::AsGraphBuilder;
        let mut b = AsGraphBuilder::new();
        let isp = b.add_node(1);
        let stub = b.add_node(2);
        let victim = b.add_node(3);
        b.add_provider_customer(isp, stub).unwrap();
        b.add_provider_customer(isp, victim).unwrap();
        let g = b.build().unwrap();
        let mut state = SecureSet::new(g.len());
        state.set(isp, true);
        state.set(stub, true);

        let p = ScenarioPolicy::security_third();
        // Hijack: rejected by the validating ISP, not the simplex stub.
        assert!(p.rejects_attacker_route(&g, &state, AttackModel::OriginHijack, victim, isp));
        assert!(!p.rejects_attacker_route(&g, &state, AttackModel::OriginHijack, victim, stub));
        // Symmetric stubs validate too.
        let sym = p.symmetric();
        assert!(sym.rejects_attacker_route(&g, &state, AttackModel::OriginHijack, victim, stub));
        // Forgery: only rejectable once the victim signs.
        assert!(!p.rejects_attacker_route(&g, &state, AttackModel::PathForgery, victim, isp));
        state.set(victim, true);
        assert!(p.rejects_attacker_route(&g, &state, AttackModel::PathForgery, victim, isp));
        // Leak: invisible to every defense.
        for pol in [p, p.with_rov(), sym.with_rov()] {
            assert!(!pol.rejects_attacker_route(&g, &state, AttackModel::RouteLeak, victim, isp));
        }
        // Downgrade: path validation is blind, ROV is not — and ROV
        // works at simplex stubs too.
        assert!(!p.rejects_attacker_route(&g, &state, AttackModel::Downgrade, victim, isp));
        let rov = p.with_rov();
        assert!(rov.rejects_attacker_route(&g, &state, AttackModel::Downgrade, victim, isp));
        assert!(rov.rejects_attacker_route(&g, &state, AttackModel::Downgrade, victim, stub));
    }
}
