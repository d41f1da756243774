//! # sbgp-routing
//!
//! The Gao–Rexford routing model of the paper's Appendix A, plus the
//! optimized algorithms of Appendix C that make the `O(|V|³)`
//! deployment simulation feasible.
//!
//! ## The routing model (Appendix A)
//!
//! Each AS ranks outgoing paths to a destination by:
//!
//! 1. **LP** — local preference: customer routes ≻ peer routes ≻
//!    provider routes;
//! 2. **SP** — shortest AS-path among the most-preferred class;
//! 3. **SecP** — if the node is *secure*, prefer fully secure paths
//!    among the remaining ties (the paper's key deployment lever,
//!    Section 2.2.2);
//! 4. **TB** — a deterministic tiebreak (hash `H(a,b)` in the paper's
//!    simulations; lowest-ASN in the appendix gadget constructions —
//!    both provided via [`TieBreaker`]).
//!
//! Export follows **GR2**: a route learned from a neighbor is
//! re-announced to a neighbor `a` iff the next hop or `a` is a
//! customer.
//!
//! ## Observation C.1 and the fast routing tree
//!
//! Under this model the *class* and *length* of every node's best route
//! to a destination are independent of which ASes are secure — only
//! the TB choice *within* the tiebreak set moves. [`DestContext`]
//! precomputes, per destination, each node's route class, length, and
//! tiebreak set (three-stage BFS, `O(|V|+|E|)`). [`compute_tree`] then
//! resolves the actual next-hop forest for a given secure set in
//! `O(t·|V|)` — the Appendix C.2 algorithm.
//!
//! ## Validation
//!
//! [`oracle`] contains a deliberately naive message-passing BGP
//! simulator (full path vectors, iterate-to-fixpoint). It exists so
//! tests can check the fast algorithms against an independent
//! implementation of the Appendix A semantics on small graphs.
//!
//! ## Adversarial scenarios
//!
//! [`threat`] defines attacks, defenses and verdicts for a victim and
//! an attacker announcing the same prefix; [`scenario_kernel`] settles
//! every AS's route in one rank-ordered label-setting pass, and
//! [`scenario_oracle`] is the path-vector fixpoint it is checked
//! against.
//!
//! # Example
//!
//! ```
//! use sbgp_asgraph::AsGraphBuilder;
//! use sbgp_routing::{
//!     compute_tree, DestContext, LowestAsnTieBreak, RouteTree, SecureSet, TreePolicy,
//! };
//!
//! // A diamond: source s can reach stub d via ISP a (ASN 20) or b (ASN 30).
//! let mut builder = AsGraphBuilder::new();
//! let s = builder.add_node(10);
//! let a = builder.add_node(20);
//! let b = builder.add_node(30);
//! let d = builder.add_node(40);
//! builder.add_provider_customer(s, a).unwrap();
//! builder.add_provider_customer(s, b).unwrap();
//! builder.add_provider_customer(a, d).unwrap();
//! builder.add_provider_customer(b, d).unwrap();
//! let graph = builder.build().unwrap();
//!
//! // Frozen per-destination info (Observation C.1), then the fast tree.
//! let mut ctx = DestContext::new(graph.len());
//! ctx.compute(&graph, d, &LowestAsnTieBreak);
//! assert_eq!(ctx.tiebreak_set(s), &[a.0, b.0]); // two equally-good paths
//!
//! // With s, b, and d secure, the SecP tiebreak moves s onto b's path.
//! let mut secure = SecureSet::new(graph.len());
//! for x in [s, b, d] { secure.set(x, true); }
//! let mut tree = RouteTree::new(graph.len());
//! compute_tree(&graph, &ctx, &secure, TreePolicy::default(), &mut tree);
//! assert_eq!(tree.next_hop[s.index()], b.0);
//! assert!(tree.secure[s.index()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atlas;
mod context;
mod delta;
mod flows;
mod secure;
mod tiebreak;
mod tree;

pub mod census;
pub mod diffcheck;
pub mod oracle;
pub mod scenario_kernel;
pub mod scenario_oracle;
pub mod threat;

pub use atlas::{AtlasScratch, AtlasStats, AtlasView, RoutingAtlas};
pub use context::{DestContext, RouteClass, RouteContext};
pub use delta::{delta_project, DeltaOutcome, DeltaScratch, TbDependents};
pub use flows::{
    accumulate_flows, add_utilities, flows_and_target_utility, fold_utilities, utilities_of,
    UtilityAccumulator,
};
pub use scenario_kernel::{simulate_scenario, ScenarioKernel, ScenarioRun, ScenarioTally};
pub use secure::SecureSet;
pub use threat::{AttackModel, ScenarioOutcome, ScenarioPolicy, SecurityRank, Verdict};
pub use tiebreak::{HashTieBreak, LowestAsnTieBreak, TieBreaker};
pub use tree::{compute_tree, extract_path, RouteTree, TreePolicy, NO_NEXT_HOP};
