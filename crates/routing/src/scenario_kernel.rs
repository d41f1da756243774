//! The two-origin route-selection kernel: one label-setting pass in
//! rank order.
//!
//! "Which route does each AS pick when the victim and an attacker both
//! announce the prefix" is answered here without explicit paths and
//! without iterating to convergence, the way Lychev, Goldberg &
//! Schapira ("BGP Security in Partial Deployment: Is the Juice Worth
//! the Squeeze?", 2013) compute partial-deployment attack outcomes
//! with a staged multi-source BFS. The first three components of
//! [`ScenarioPolicy::rank_key`] — `(LP, len, sec)`, `(LP, sec, len)` or
//! `(sec, LP, len)` depending on where security ranks — are packed
//! into one integer, and ASes are settled from a bucket queue over it:
//! the victim and the attacker are pinned sources, a settled AS offers
//! its route to the neighbors it exports to, and every AS keeps the
//! best offer (packed key, then TB, then the lower neighbor id).
//! Lychev's stages (secure customer routes, customer routes, secure
//! peer routes, …) are key ranges of that one queue, not separate
//! phases.
//!
//! ## Why one pass is exact
//!
//! The packed key strictly increases along every legal export:
//!
//! * **LP** never decreases: a customer or peer only hears routes
//!   whose exporter holds a customer route or is an origin (class 0),
//!   so the class sequence along a path is `0→{0,1,2}`, `{1,2}→2`.
//! * **sec** never decreases: a route can rank secure at `x` only if
//!   the chain below it is fully secure, and then it ranked secure at
//!   the exporter too — an exporting non-origin AS has customers, so
//!   it is not a stub and the stub SecP knob cannot switch it off.
//! * **len** grows by one.
//!
//! So every AS's final route hangs off a neighbor with a strictly
//! smaller key. Settling in key order, the neighbor is final before
//! the AS is popped, no later offer can beat a popped AS's route, each
//! AS is settled exactly once, and the pass always terminates — there
//! is no convergence budget to exhaust. The outcome is the unique
//! stable state of the path-vector system the reference
//! [`crate::scenario_oracle`] iterates toward; Chiesa et al. show such
//! outcomes are unique and polynomial exactly under the Gao–Rexford
//! conditions, which `AsGraphBuilder::build` enforces (GR1) on every
//! `AsGraph` that exists. The conformance suite checks the equality
//! path for path.

use crate::secure::SecureSet;
use crate::threat::{AttackModel, ScenarioOutcome, ScenarioPolicy, SecurityRank, Verdict};
use crate::tiebreak::TieBreaker;
use crate::tree::NO_NEXT_HOP;
use sbgp_asgraph::{AsGraph, AsId};

/// Packed keys are `region << REGION_SHIFT | offset`: the region is
/// the part of the rank above the path length, the offset the length
/// (with `sec` below it under security-third).
const REGION_SHIFT: u32 = 28;
const REGIONS: usize = 6;
/// Key of an AS no offer has reached.
const NO_KEY: u32 = u32::MAX;

/// Weights `(lp, sec, len)` such that `lp·w.0 + sec·w.1 + len·w.2`
/// orders candidates exactly like the first three components of
/// [`ScenarioPolicy::rank_key`].
fn key_weights(rank: SecurityRank) -> (u32, u32, u32) {
    let region = 1 << REGION_SHIFT;
    match rank {
        SecurityRank::First => (region, 3 * region, 1),
        SecurityRank::Second => (2 * region, region, 1),
        SecurityRank::Third => (region, 1, 2),
    }
}

/// One AS's best offer so far; final once `settled`.
#[derive(Clone, Copy)]
struct Label {
    /// Packed `(LP, len, sec)` of the route in rank order.
    key: u32,
    next_hop: u32,
    len: u32,
    /// LP class of the route: 0 customer (and the origins), 1 peer,
    /// 2 provider.
    lp: u8,
    /// Every hop is secure and none of the path is forged.
    secure: bool,
    via_attacker: bool,
    settled: bool,
    /// On the leaked path: any attacker-derived route loops back.
    on_announced: bool,
}

impl Label {
    const UNREACHED: Label = Label {
        key: NO_KEY,
        next_hop: NO_NEXT_HOP,
        len: 0,
        lp: 0,
        secure: false,
        via_attacker: false,
        settled: false,
        on_announced: false,
    };
}

/// The three tallies of one scenario, over the ASes that are neither
/// attacker nor victim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioTally {
    /// ASes whose route leads through the attacker.
    pub deceived: usize,
    /// ASes that reach the victim cleanly.
    pub reached_victim: usize,
    /// ASes with no route at all.
    pub unreachable: usize,
}

impl ScenarioTally {
    /// Fraction of the tallied ASes deceived (`0.0` on an empty tally).
    pub fn deceived_fraction(&self) -> f64 {
        let total = self.deceived + self.reached_victim + self.unreachable;
        if total == 0 {
            0.0
        } else {
            self.deceived as f64 / total as f64
        }
    }
}

/// A fully materialized scenario result: per-node verdicts with their
/// tallies, and every AS's full path rebuilt from the kernel's next
/// hops and the attacker's announcement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioRun {
    /// Per-node verdicts and the three tallies.
    pub outcome: ScenarioOutcome,
    /// Best AS path per node (`[node, ..., origin]`).
    pub paths: Vec<Option<Vec<AsId>>>,
}

/// What stays fixed while one pass runs.
struct Pass<'a> {
    g: &'a AsGraph,
    state: &'a SecureSet,
    policy: &'a ScenarioPolicy,
    tiebreaker: &'a dyn TieBreaker,
    victim: AsId,
    /// Read only for attacker-derived routes, which a clean
    /// single-origin pass never creates.
    attack: AttackModel,
    weights: (u32, u32, u32),
}

/// Reusable scratch for the kernel: per-node labels plus the bucket
/// queue. One per worker; a run leaves the settled routes readable
/// until the next run.
pub struct ScenarioKernel {
    labels: Vec<Label>,
    /// `buckets[region][offset]`: ASes whose best offer has that key.
    /// Grown on demand and drained empty by every pass.
    buckets: [Vec<Vec<u32>>; REGIONS],
    /// The attacker's announcement `[attacker, ..]` in the last run;
    /// empty if it had nothing to announce.
    announced: Vec<AsId>,
    victim: AsId,
    attacker: AsId,
}

impl Default for ScenarioKernel {
    fn default() -> Self {
        ScenarioKernel::new()
    }
}

impl ScenarioKernel {
    /// Empty scratch; it sizes itself to the graph of each run.
    pub fn new() -> ScenarioKernel {
        ScenarioKernel {
            labels: Vec::new(),
            buckets: Default::default(),
            announced: Vec::new(),
            victim: AsId(0),
            attacker: AsId(0),
        }
    }

    /// Settle every AS's route with `attacker` mounting `attack`
    /// against `victim`'s prefix under deployment `state` and defense
    /// `policy`, and return the tallies. A route leak first runs one
    /// clean single-origin pass to learn the route being leaked.
    ///
    /// # Panics
    /// Panics if `attacker == victim`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        g: &AsGraph,
        state: &SecureSet,
        policy: &ScenarioPolicy,
        attack: AttackModel,
        attacker: AsId,
        victim: AsId,
        tiebreaker: &dyn TieBreaker,
    ) -> ScenarioTally {
        assert_ne!(attacker, victim, "attacker cannot target itself");
        let pass = Pass {
            g,
            state,
            policy,
            tiebreaker,
            victim,
            attack,
            weights: key_weights(policy.rank),
        };
        self.announced.clear();
        let mut announced_secure = false;
        match attack {
            AttackModel::OriginHijack | AttackModel::Downgrade => self.announced.push(attacker),
            AttackModel::PathForgery => self.announced.extend([attacker, victim]),
            AttackModel::RouteLeak => {
                self.clean_pass(&pass);
                if self.labels[attacker.index()].settled {
                    announced_secure = self.labels[attacker.index()].secure;
                    let mut cur = attacker;
                    self.announced.push(cur);
                    while cur != victim {
                        cur = AsId(self.labels[cur.index()].next_hop);
                        self.announced.push(cur);
                    }
                }
            }
        }

        // The attacker is pinned either way: to its announcement, or
        // routeless if it had nothing to leak.
        self.reset(&pass, attacker);
        let pinned = &mut self.labels[attacker.index()];
        pinned.settled = true;
        if !self.announced.is_empty() {
            let len = (self.announced.len() - 1) as u32;
            let sec = u32::from(!announced_secure);
            pinned.key = sec * pass.weights.1 + len * pass.weights.2;
            pinned.len = len;
            pinned.secure = announced_secure;
            pinned.via_attacker = true;
            for hop in &self.announced[1..] {
                self.labels[hop.index()].on_announced = true;
            }
            self.pour(&pass, attacker);
        }
        self.pour(&pass, victim);
        let (deceived, reached_victim) = self.drain(&pass);
        ScenarioTally {
            deceived,
            reached_victim,
            unreachable: g.len() - 2 - deceived - reached_victim,
        }
    }

    /// The clean world: only `pass.victim` announces and every other
    /// AS selects normally (`attacker == victim` stands for "nobody
    /// attacks" in the accessors).
    fn clean_pass(&mut self, pass: &Pass) {
        self.reset(pass, pass.victim);
        self.pour(pass, pass.victim);
        self.drain(pass);
    }

    /// Forget the previous pass and pin the victim as a source.
    fn reset(&mut self, pass: &Pass, attacker: AsId) {
        self.labels.clear();
        self.labels.resize(pass.g.len(), Label::UNREACHED);
        self.victim = pass.victim;
        self.attacker = attacker;
        self.labels[pass.victim.index()] = Label {
            key: 0,
            secure: pass.state.get(pass.victim),
            settled: true,
            ..Label::UNREACHED
        };
    }

    /// Offer settled `m`'s route to every neighbor it exports to:
    /// customers always, peers and providers only for a customer route
    /// (GR2) — or from an origin, which is how the attacker's
    /// export-to-everyone rides the same rule.
    fn pour(&mut self, pass: &Pass, m: AsId) {
        let from = self.labels[m.index()];
        for &x in pass.g.customers(m) {
            self.offer(pass, x, m, 2, &from);
        }
        if from.lp == 0 {
            for &x in pass.g.peers(m) {
                self.offer(pass, x, m, 1, &from);
            }
            for &x in pass.g.providers(m) {
                self.offer(pass, x, m, 0, &from);
            }
        }
    }

    /// `x` hears `m`'s route (`from`) over a session of class `lp`.
    #[inline]
    fn offer(&mut self, pass: &Pass, x: AsId, m: AsId, lp: u8, from: &Label) {
        let Pass {
            g, state, policy, ..
        } = *pass;
        let cur = self.labels[x.index()];
        if cur.settled {
            return;
        }
        if from.via_attacker
            && (cur.on_announced
                || policy.rejects_attacker_route(g, state, pass.attack, pass.victim, x))
        {
            return;
        }
        let secure = from.secure && state.get(x);
        let sec = u32::from(!(secure && policy.applies_secp(g, state, x)));
        let len = from.len + 1;
        let (w_lp, w_sec, w_len) = pass.weights;
        let key = u32::from(lp) * w_lp + sec * w_sec + len * w_len;
        if key > cur.key {
            return;
        }
        if key == cur.key {
            // Full-key tie on (LP, len, sec): TB decides, then the
            // lower neighbor id (the order the oracle scans them in).
            let tb = |hop: AsId| (pass.tiebreaker.key(g, x, hop), hop);
            if tb(m) >= tb(AsId(cur.next_hop)) {
                return;
            }
        } else {
            let region = &mut self.buckets[(key >> REGION_SHIFT) as usize];
            let offset = (key & ((1 << REGION_SHIFT) - 1)) as usize;
            if offset >= region.len() {
                region.resize_with(offset + 1, Vec::new);
            }
            region[offset].push(x.0);
        }
        self.labels[x.index()] = Label {
            key,
            next_hop: m.0,
            len,
            lp,
            secure,
            via_attacker: from.via_attacker,
            settled: false,
            on_announced: cur.on_announced,
        };
    }

    /// Settle everything the sources reach, in key order; returns the
    /// `(deceived, reached victim)` counts over the ASes settled here.
    fn drain(&mut self, pass: &Pass) -> (usize, usize) {
        let (mut deceived, mut reached) = (0, 0);
        for region in 0..REGIONS {
            let mut offset = 0;
            // Offers only ever land in later buckets (the key strictly
            // increases), which may grow this region while it drains.
            while offset < self.buckets[region].len() {
                let mut bucket = std::mem::take(&mut self.buckets[region][offset]);
                for &x in &bucket {
                    let label = &mut self.labels[x as usize];
                    // An AS sits in one bucket per improvement of its
                    // key; all but the first it is popped from are stale.
                    if label.settled {
                        continue;
                    }
                    label.settled = true;
                    if label.via_attacker {
                        deceived += 1;
                    } else {
                        reached += 1;
                    }
                    self.pour(pass, AsId(x));
                }
                bucket.clear();
                self.buckets[region][offset] = bucket;
                offset += 1;
            }
        }
        (deceived, reached)
    }

    /// Where `x`'s settled route leads.
    pub fn verdict(&self, x: AsId) -> Verdict {
        let label = &self.labels[x.index()];
        if x == self.attacker || x == self.victim {
            Verdict::Origin
        } else if !label.settled {
            Verdict::Unreachable
        } else if label.via_attacker {
            Verdict::Deceived
        } else {
            Verdict::ReachedVictim
        }
    }

    /// `x`'s full path `[x, ..., origin]`: its next-hop chain, then —
    /// through the attacker — the announcement the attacker made.
    fn path(&self, x: AsId) -> Option<Vec<AsId>> {
        if !self.labels[x.index()].settled || self.labels[x.index()].key == NO_KEY {
            return None;
        }
        let mut path = vec![x];
        let mut cur = x;
        while cur != self.victim {
            if cur == self.attacker {
                path.extend_from_slice(&self.announced[1..]);
                break;
            }
            cur = AsId(self.labels[cur.index()].next_hop);
            path.push(cur);
        }
        Some(path)
    }

    /// Build the per-node verdicts and full paths of the last run.
    pub fn materialize(&self) -> ScenarioRun {
        let nodes = || (0..self.labels.len() as u32).map(AsId);
        ScenarioRun {
            outcome: ScenarioOutcome::tally(nodes().map(|x| self.verdict(x)).collect()),
            paths: nodes().map(|x| self.path(x)).collect(),
        }
    }
}

/// Simulate `attacker` mounting `attack` against `victim`'s prefix
/// under deployment `state` and defense `policy`, with verdicts and
/// paths materialized (sweeps keep a [`ScenarioKernel`] per worker and
/// read the tallies instead).
///
/// # Panics
/// Panics if `attacker == victim`.
pub fn simulate_scenario(
    g: &AsGraph,
    state: &SecureSet,
    policy: &ScenarioPolicy,
    attack: AttackModel,
    attacker: AsId,
    victim: AsId,
    tiebreaker: &dyn TieBreaker,
) -> ScenarioRun {
    let mut kernel = ScenarioKernel::new();
    kernel.run(g, state, policy, attack, attacker, victim, tiebreaker);
    kernel.materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DestContext;
    use crate::scenario_oracle::converge_scenario;
    use crate::tiebreak::{HashTieBreak, LowestAsnTieBreak};
    use crate::tree::{compute_tree, RouteTree, TreePolicy};
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::AsGraphBuilder;

    fn secure_set(g: &AsGraph, secure: &[AsId]) -> SecureSet {
        let mut state = SecureSet::new(g.len());
        for &x in secure {
            state.set(x, true);
        }
        state
    }

    /// Run the kernel and require the oracle's verdicts, tallies and
    /// paths.
    fn checked(
        g: &AsGraph,
        state: &SecureSet,
        policy: &ScenarioPolicy,
        attack: AttackModel,
        attacker: AsId,
        victim: AsId,
        tiebreaker: &dyn TieBreaker,
    ) -> ScenarioRun {
        let fast = simulate_scenario(g, state, policy, attack, attacker, victim, tiebreaker);
        let slow = converge_scenario(g, state, policy, attack, attacker, victim, tiebreaker)
            .expect("the oracle converges on GR1 graphs");
        assert_eq!(fast.outcome, slow.outcome, "{attack} {}", policy.label());
        assert_eq!(fast.paths, slow.paths, "{attack} {}", policy.label());
        fast
    }

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
    fn packed_key_orders_like_rank_key() {
        for policy in [
            ScenarioPolicy::security_first(),
            ScenarioPolicy::security_second(),
            ScenarioPolicy::security_third(),
        ] {
            let (w_lp, w_sec, w_len) = key_weights(policy.rank);
            let mut keys = Vec::new();
            for lp in 0..3u8 {
                for len in 0..6usize {
                    for sec in 0..2u8 {
                        let (a, b, c, _) = policy.rank_key(lp, len, sec, 0);
                        let packed =
                            u32::from(lp) * w_lp + u32::from(sec) * w_sec + len as u32 * w_len;
                        assert!((packed >> REGION_SHIFT) < REGIONS as u32);
                        keys.push(((a, b, c), packed));
                    }
                }
            }
            for (ka, pa) in &keys {
                for (kb, pb) in &keys {
                    assert_eq!(ka.cmp(kb), pa.cmp(pb), "{} {ka:?} {kb:?}", policy.label());
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_the_contest_graph_everywhere() {
        let (g, t, ia, _ib, v, a) = contest();
        let all: Vec<AsId> = g.nodes().collect();
        for state in [
            secure_set(&g, &[]),
            secure_set(&g, &[t, ia, v]),
            secure_set(&g, &all),
        ] {
            for attack in AttackModel::ALL {
                for policy in [
                    ScenarioPolicy::security_third(),
                    ScenarioPolicy::security_second().with_rov(),
                    ScenarioPolicy::security_first().symmetric(),
                ] {
                    checked(&g, &state, &policy, attack, a, v, &LowestAsnTieBreak);
                }
            }
        }
    }

    #[test]
    fn outcomes_match_the_oracle_on_a_generated_graph() {
        let g = generate(&GenParams::new(150, 7)).graph;
        let mut state = SecureSet::new(g.len());
        for x in g.nodes().step_by(3) {
            state.set(x, true);
        }
        for (ai, vi) in [(3u32, 140u32), (77, 5), (120, 121)] {
            for attack in AttackModel::ALL {
                for policy in [
                    ScenarioPolicy::security_third().with_rov(),
                    ScenarioPolicy::security_second(),
                    ScenarioPolicy::security_first(),
                ] {
                    checked(
                        &g,
                        &state,
                        &policy,
                        attack,
                        AsId(ai),
                        AsId(vi),
                        &HashTieBreak,
                    );
                }
            }
        }
    }

    #[test]
    fn clean_pass_equals_compute_tree_on_every_destination() {
        // The two selectors left in the codebase, tied together: with a
        // single origin and the paper's security-third ranking, the
        // kernel is the Appendix C.2 routing tree.
        let g = generate(&GenParams::new(300, 21)).graph;
        let mut state = SecureSet::new(g.len());
        for x in g.nodes().filter(|x| x.0 % 3 != 1) {
            state.set(x, true);
        }
        let mut ctx = DestContext::new(g.len());
        let mut tree = RouteTree::new(g.len());
        let mut kernel = ScenarioKernel::new();
        let tiebreakers: [&dyn TieBreaker; 2] = [&HashTieBreak, &LowestAsnTieBreak];
        for tiebreaker in tiebreakers {
            for stubs_prefer_secure in [true, false] {
                let policy = ScenarioPolicy {
                    stubs_prefer_secure,
                    ..ScenarioPolicy::security_third()
                };
                for d in g.nodes() {
                    ctx.compute(&g, d, tiebreaker);
                    compute_tree(
                        &g,
                        &ctx,
                        &state,
                        TreePolicy {
                            stubs_prefer_secure,
                        },
                        &mut tree,
                    );
                    kernel.clean_pass(&Pass {
                        g: &g,
                        state: &state,
                        policy: &policy,
                        tiebreaker,
                        victim: d,
                        attack: AttackModel::RouteLeak,
                        weights: key_weights(policy.rank),
                    });
                    for (label, x) in kernel.labels.iter().zip(g.nodes()) {
                        assert_eq!(label.next_hop, tree.next_hop[x.index()], "{x:?} to {d:?}");
                        assert_eq!(label.secure, tree.secure[x.index()], "{x:?} to {d:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_leaker_without_a_clean_route_announces_nothing() {
        // v — p1 — a are chained by peering: p1's peer route to v is
        // not exported to its peer a, so a has nothing to leak. It is
        // still pinned: it neither selects a route nor gets a verdict.
        let mut b = AsGraphBuilder::new();
        let v = b.add_node(1);
        let p1 = b.add_node(2);
        let a = b.add_node(3);
        let c = b.add_node(4);
        b.add_peer_peer(v, p1).unwrap();
        b.add_peer_peer(p1, a).unwrap();
        b.add_provider_customer(a, c).unwrap();
        let g = b.build().unwrap();
        let state = SecureSet::new(g.len());
        for policy in [
            ScenarioPolicy::security_third(),
            ScenarioPolicy::security_first(),
        ] {
            let run = checked(
                &g,
                &state,
                &policy,
                AttackModel::RouteLeak,
                a,
                v,
                &HashTieBreak,
            );
            assert_eq!(run.paths[a.index()], None);
            assert_eq!(run.outcome.verdicts[a.index()], Verdict::Origin);
            assert_eq!(run.outcome.verdicts[c.index()], Verdict::Unreachable);
            assert_eq!(run.outcome.verdicts[p1.index()], Verdict::ReachedVictim);
            assert_eq!(run.outcome.deceived, 0);
        }
    }

    #[test]
    fn ases_on_the_leaked_path_keep_their_clean_routes() {
        // a buys transit from t1 and t2, v sits under t1, t1–t2 peer.
        // a leaks [a, t1, v]: t2 prefers the leaked customer route,
        // but t1 is on it and refuses it under every ranking.
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
        let state = secure_set(&g, &[t1, t2, v, a]);
        for policy in [
            ScenarioPolicy::security_third().with_rov(),
            ScenarioPolicy::security_second(),
            ScenarioPolicy::security_first().symmetric(),
        ] {
            let run = checked(
                &g,
                &state,
                &policy,
                AttackModel::RouteLeak,
                a,
                v,
                &LowestAsnTieBreak,
            );
            assert_eq!(run.paths[a.index()], Some(vec![a, t1, v]));
            assert_eq!(run.paths[t1.index()], Some(vec![t1, v]));
            assert_eq!(run.paths[t2.index()], Some(vec![t2, a, t1, v]));
            assert_eq!(run.outcome.deceived, 1);
        }
    }

    #[test]
    fn an_attacker_adjacent_to_the_victim_stays_pinned() {
        // a is v's provider: the victim's own announcement reaches a
        // first, but a is pinned to its announcement, so its other
        // customer c is deceived whatever a announces. t hears both
        // origins as customers and its tiebreak (v has the lower ASN)
        // or the shorter path keeps it on the victim.
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(1);
        let v = b.add_node(5);
        let a = b.add_node(10);
        let c = b.add_node(101);
        b.add_provider_customer(t, a).unwrap();
        b.add_provider_customer(t, v).unwrap();
        b.add_provider_customer(a, v).unwrap();
        b.add_provider_customer(a, c).unwrap();
        let g = b.build().unwrap();
        let state = SecureSet::new(g.len());
        for attack in AttackModel::ALL {
            let policy = ScenarioPolicy::security_third();
            let run = checked(&g, &state, &policy, attack, a, v, &LowestAsnTieBreak);
            assert_eq!(run.outcome.verdicts[a.index()], Verdict::Origin);
            assert_eq!(run.outcome.verdicts[c.index()], Verdict::Deceived);
            assert_eq!(run.outcome.verdicts[t.index()], Verdict::ReachedVictim);
        }
    }

    #[test]
    fn a_forged_adjacency_to_a_secure_victim_never_ranks_secure() {
        // s hears two 3-hop provider routes: the genuine, fully signed
        // [s, ia, m, v] and — through an insecure ib — the forged
        // [s, ib, a, v]. Its plain tiebreak prefers ib (lower ASN);
        // SecP picks the signed route, and a forgery is never signed.
        let mut b = AsGraphBuilder::new();
        let ib = b.add_node(5);
        let ia = b.add_node(10);
        let m = b.add_node(50);
        let v = b.add_node(100);
        let a = b.add_node(200);
        let s = b.add_node(300);
        b.add_provider_customer(ia, m).unwrap();
        b.add_provider_customer(m, v).unwrap();
        b.add_provider_customer(ib, a).unwrap();
        b.add_provider_customer(ia, s).unwrap();
        b.add_provider_customer(ib, s).unwrap();
        let g = b.build().unwrap();
        let forgery = AttackModel::PathForgery;
        let state = secure_set(&g, &[ia, m, v, a, s]);
        let third = ScenarioPolicy::security_third();
        let run = checked(&g, &state, &third, forgery, a, v, &LowestAsnTieBreak);
        assert_eq!(run.paths[ib.index()], Some(vec![ib, a, v]));
        assert_eq!(run.paths[s.index()], Some(vec![s, ia, m, v]));
        let ignoring = ScenarioPolicy {
            stubs_prefer_secure: false,
            ..third
        };
        let run = checked(&g, &state, &ignoring, forgery, a, v, &LowestAsnTieBreak);
        assert_eq!(run.paths[s.index()], Some(vec![s, ib, a, v]));
        // A validating ib drops what the secure victim never signed,
        // even though every AS on the forged path is itself secure.
        let state = secure_set(&g, &[ib, ia, m, v, a, s]);
        let run = checked(&g, &state, &third, forgery, a, v, &LowestAsnTieBreak);
        assert_eq!(run.outcome.deceived, 0);
        assert_eq!(run.outcome.verdicts[ib.index()], Verdict::Unreachable);
    }

    #[test]
    #[should_panic(expected = "cannot target itself")]
    fn attacker_is_not_victim() {
        let (g, _, _, _, v, _) = contest();
        let state = SecureSet::new(g.len());
        simulate_scenario(
            &g,
            &state,
            &ScenarioPolicy::security_third(),
            AttackModel::OriginHijack,
            v,
            v,
            &HashTieBreak,
        );
    }
}
