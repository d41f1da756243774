//! Invariant guards enforced at layer boundaries.
//!
//! Every guard here checks a property that is *provable* under the
//! paper's model, so a violation always means an implementation bug
//! (or memory corruption), never "unlucky input":
//!
//! * [`check_partition`] — the stub/ISP/CP partition reported by
//!   [`AsGraph::class`] must be consistent with the topology (stubs
//!   have no customers, ISPs have at least one). Checked once per
//!   engine construction — `O(|V|)`.
//! * [`check_path_legality`] — every path extracted from a routing
//!   tree must be GR2-exportable end to end (valley-free: up\* peer?
//!   down\*, at most one peer edge) and agree with the context's
//!   best-route length. Debug builds check every node of every
//!   destination; release builds sample via [`should_check`].
//! * [`assert_outgoing_monotone`] — Theorem 6.2: in the outgoing
//!   model no ISP ever gains by turning off, so the secure set grows
//!   monotonically and `turned_off` is always empty. Checked every
//!   round — `O(1)`.
//!
//! Guards *panic* on violation, failing the run: a violated invariant
//! means every number the run would print is suspect. The differential
//! checker ([`sbgp_routing::diffcheck`]) is the complementary
//! mechanism: it compares against an independent implementation and
//! records rather than panics.

use sbgp_asgraph::{AsClass, AsGraph, AsId, Relationship};
use sbgp_routing::{RouteContext, RouteTree, NO_NEXT_HOP};
use std::fmt;

/// A violated structural invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuardViolation {
    /// A node's [`AsClass`] disagrees with its customer degree.
    Partition {
        /// ASN of the inconsistent node.
        asn: u32,
        /// What was inconsistent.
        reason: String,
    },
    /// An extracted path violates GR2 export legality or disagrees
    /// with the context's best-route length.
    IllegalPath {
        /// ASN of the destination being routed to.
        dest_asn: u32,
        /// ASN of the node whose path is illegal.
        node_asn: u32,
        /// What was illegal about it.
        reason: String,
    },
    /// Theorem 6.2 violated: an ISP turned off (or the secure set
    /// shrank) in the outgoing model.
    Monotonicity {
        /// What regressed.
        reason: String,
    },
}

impl fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardViolation::Partition { asn, reason } => {
                write!(f, "partition guard: AS{asn}: {reason}")
            }
            GuardViolation::IllegalPath {
                dest_asn,
                node_asn,
                reason,
            } => write!(
                f,
                "export guard: dest AS{dest_asn}: node AS{node_asn}: {reason}"
            ),
            GuardViolation::Monotonicity { reason } => {
                write!(f, "monotonicity guard (Theorem 6.2): {reason}")
            }
        }
    }
}

impl std::error::Error for GuardViolation {}

/// Deterministic sampling for release-mode guard checks: always `true`
/// under `debug_assertions`, otherwise true for ~1/64 of keys (FNV-1a
/// over the key, so the sampled set is stable across runs and thread
/// counts).
#[inline]
pub fn should_check(key: u64) -> bool {
    if cfg!(debug_assertions) {
        return true;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h & 63 == 0
}

/// Verify the stub/ISP/CP partition is consistent with the topology.
pub fn check_partition(g: &AsGraph) -> Result<(), GuardViolation> {
    for n in g.nodes() {
        let violation = |reason: String| GuardViolation::Partition {
            asn: g.asn(n),
            reason,
        };
        match g.class(n) {
            AsClass::Stub => {
                if g.num_customers(n) != 0 {
                    return Err(violation(format!(
                        "classified Stub but has {} customers",
                        g.num_customers(n)
                    )));
                }
                if !g.is_stub(n) || g.is_isp(n) {
                    return Err(violation("is_stub/is_isp disagree with class Stub".into()));
                }
            }
            AsClass::Isp => {
                if g.num_customers(n) == 0 {
                    return Err(violation("classified Isp but has no customers".into()));
                }
                if g.is_stub(n) || !g.is_isp(n) {
                    return Err(violation("is_stub/is_isp disagree with class Isp".into()));
                }
            }
            AsClass::ContentProvider => {
                if !g.content_providers().contains(&n) {
                    return Err(violation(
                        "classified ContentProvider but absent from content_providers()".into(),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One step of a path, classified by travel direction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Toward a provider (uphill).
    Up,
    /// Across a peer edge (flat).
    Flat,
    /// Toward a customer (downhill).
    Down,
}

/// Verify that the paths encoded in `tree` are GR2-legal and agree
/// with `ctx`'s best-route lengths. Checks every `stride`-th node of
/// the destination's routing order (`stride = 1` checks all).
///
/// The walk is explicitly bounded by the reachable-node count, so a
/// corrupted tree containing a next-hop cycle is reported as a
/// violation instead of looping forever.
pub fn check_path_legality<C: RouteContext + ?Sized>(
    g: &AsGraph,
    ctx: &C,
    tree: &RouteTree,
    stride: usize,
) -> Result<(), GuardViolation> {
    let dest = ctx.dest();
    let max_hops = ctx.reachable();
    for &xi in ctx.order().iter().step_by(stride.max(1)) {
        let x = AsId(xi);
        if x == dest {
            continue;
        }
        let violation = |reason: String| GuardViolation::IllegalPath {
            dest_asn: g.asn(dest),
            node_asn: g.asn(x),
            reason,
        };

        // Bounded walk down the tree, classifying each step.
        let mut hops = 0usize;
        let mut peer_steps = 0usize;
        let mut gone_down = false;
        let mut cur = x;
        while cur != dest {
            let nh = tree.next_hop[cur.index()];
            if nh == NO_NEXT_HOP {
                return Err(violation(format!(
                    "reachable node's path hits NO_NEXT_HOP at AS{}",
                    g.asn(cur)
                )));
            }
            let next = AsId(nh);
            let step = match g.relationship(cur, next) {
                Some(Relationship::Provider) => Step::Up,
                Some(Relationship::Peer) => Step::Flat,
                Some(Relationship::Customer) => Step::Down,
                None => {
                    return Err(violation(format!(
                        "next hop AS{} is not adjacent to AS{}",
                        g.asn(next),
                        g.asn(cur)
                    )))
                }
            };
            // Valley-freedom: once a path goes down (or flat) it may
            // never go up again, and at most one peer edge appears.
            match step {
                Step::Up => {
                    if gone_down || peer_steps > 0 {
                        return Err(violation(format!(
                            "valley: uphill step AS{}→AS{} after a peer/customer step",
                            g.asn(cur),
                            g.asn(next)
                        )));
                    }
                }
                Step::Flat => {
                    peer_steps += 1;
                    if gone_down || peer_steps > 1 {
                        return Err(violation(format!(
                            "valley: peer step AS{}→AS{} after a peer/customer step",
                            g.asn(cur),
                            g.asn(next)
                        )));
                    }
                }
                Step::Down => gone_down = true,
            }
            hops += 1;
            if hops > max_hops {
                return Err(violation("next-hop cycle (path exceeds graph size)".into()));
            }
            cur = next;
        }

        let want = ctx
            .route_len(x)
            .expect("nodes in order() are reachable by construction");
        if hops != usize::from(want) {
            return Err(violation(format!(
                "path length {hops} disagrees with context length {want}"
            )));
        }
    }
    Ok(())
}

/// Theorem 6.2 guard: in the outgoing model, panic if any ISP turned
/// off this round or the secure count shrank.
///
/// # Panics
/// Panics with the [`GuardViolation`] message on violation.
pub fn assert_outgoing_monotone(turned_off: &[AsId], secure_before: usize, secure_after: usize) {
    if !turned_off.is_empty() {
        panic!(
            "{}",
            GuardViolation::Monotonicity {
                reason: format!(
                    "{} ISP(s) turned off in the outgoing model (first: node {})",
                    turned_off.len(),
                    turned_off[0]
                ),
            }
        );
    }
    if secure_after < secure_before {
        panic!(
            "{}",
            GuardViolation::Monotonicity {
                reason: format!("secure count shrank {secure_before} → {secure_after}"),
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::AsGraphBuilder;
    use sbgp_routing::{compute_tree, DestContext, LowestAsnTieBreak, SecureSet, TreePolicy};

    fn computed(g: &AsGraph, d: AsId) -> (DestContext, RouteTree) {
        let mut ctx = DestContext::new(g.len());
        ctx.compute(g, d, &LowestAsnTieBreak);
        let secure = SecureSet::new(g.len());
        let mut tree = RouteTree::new(g.len());
        compute_tree(g, &ctx, &secure, TreePolicy::default(), &mut tree);
        (ctx, tree)
    }

    #[test]
    fn partition_holds_on_generated_graph() {
        let g = generate(&GenParams::tiny(9)).graph;
        check_partition(&g).unwrap();
    }

    #[test]
    fn legal_trees_pass_everywhere() {
        let g = generate(&GenParams::tiny(4)).graph;
        for d in g.nodes().take(20) {
            let (ctx, tree) = computed(&g, d);
            check_path_legality(&g, &ctx, &tree, 1).unwrap();
        }
    }

    #[test]
    fn corrupted_next_hop_is_caught() {
        // Chain t -> i -> s (providers on top). Point s's next hop at
        // a non-adjacent node: must be flagged.
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(1);
        let i = b.add_node(2);
        let s = b.add_node(3);
        b.add_provider_customer(t, i).unwrap();
        b.add_provider_customer(i, s).unwrap();
        let g = b.build().unwrap();
        let (ctx, mut tree) = computed(&g, t);
        tree.next_hop[s.index()] = t.0; // not adjacent to s
        let err = check_path_legality(&g, &ctx, &tree, 1).unwrap_err();
        assert!(matches!(err, GuardViolation::IllegalPath { .. }), "{err}");
        assert!(err.to_string().contains("not adjacent"));
    }

    #[test]
    fn next_hop_cycle_terminates_with_violation() {
        // A next-hop 2-cycle must be reported, not walked forever.
        // (In a GR1-valid graph any cycle contains an illegal step, so
        // the valley rule fires before the hop bound — the bound is the
        // termination backstop either way.)
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(1);
        let i = b.add_node(2);
        let s = b.add_node(3);
        b.add_provider_customer(t, i).unwrap();
        b.add_provider_customer(i, s).unwrap();
        let g = b.build().unwrap();
        let (ctx, mut tree) = computed(&g, t);
        // i and s point at each other: a cycle that never reaches t.
        tree.next_hop[s.index()] = i.0;
        tree.next_hop[i.index()] = s.0;
        let err = check_path_legality(&g, &ctx, &tree, 1).unwrap_err();
        assert!(matches!(err, GuardViolation::IllegalPath { .. }), "{err}");
    }

    #[test]
    fn valley_is_caught() {
        // Two ISPs over a shared stub; dest is a stub of ia. Forcing
        // ib's traffic through the shared stub (down, then up into ia)
        // is a valley.
        let mut b = AsGraphBuilder::new();
        let ia = b.add_node(10);
        let ib = b.add_node(20);
        let shared = b.add_node(30);
        let d = b.add_node(40);
        b.add_provider_customer(ia, shared).unwrap();
        b.add_provider_customer(ib, shared).unwrap();
        b.add_provider_customer(ia, d).unwrap();
        b.add_peer_peer(ia, ib).unwrap();
        let g = b.build().unwrap();
        let (ctx, mut tree) = computed(&g, d);
        tree.next_hop[ib.index()] = shared.0;
        tree.next_hop[shared.index()] = ia.0;
        let err = check_path_legality(&g, &ctx, &tree, 1).unwrap_err();
        assert!(err.to_string().contains("valley"), "{err}");
    }

    #[test]
    fn monotone_guard_accepts_growth() {
        assert_outgoing_monotone(&[], 3, 5);
        assert_outgoing_monotone(&[], 4, 4);
    }

    #[test]
    #[should_panic(expected = "Theorem 6.2")]
    fn monotone_guard_rejects_turn_off() {
        assert_outgoing_monotone(&[AsId(7)], 3, 3);
    }

    #[test]
    #[should_panic(expected = "secure count shrank")]
    fn monotone_guard_rejects_shrink() {
        assert_outgoing_monotone(&[], 5, 4);
    }
}
