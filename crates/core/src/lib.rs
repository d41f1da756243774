//! # sbgp-core
//!
//! The S\*BGP deployment game of *"Let the Market Drive Deployment"*
//! (Gill, Schapira, Goldberg — SIGCOMM 2011), Sections 3–7.
//!
//! The model: deployment proceeds in rounds over a fixed AS graph.
//! Each round, every ISP plays **myopic best response** — it deploys
//! (or, in the incoming-utility model, possibly disables) S\*BGP iff
//! its projected utility beats its current utility by more than a
//! threshold `θ` capturing deployment cost (Eq. 3):
//!
//! ```text
//! u_n(¬S_n, S_−n)  >  (1 + θ) · u_n(S)
//! ```
//!
//! Utility is the volume of *customer* traffic the ISP transits, in
//! one of two models (Section 3.3): **outgoing** (Eq. 1 — traffic
//! forwarded toward destinations reached via customer edges) or
//! **incoming** (Eq. 2 — traffic arriving over customer edges). A
//! newly secure ISP deploys *simplex* S\*BGP at all its stub customers
//! (Section 2.3), and content providers only ever deploy as seeded
//! early adopters.
//!
//! Key structural results the implementation honors:
//!
//! * **Theorem 6.2** — in the outgoing model a secure node never gains
//!   by turning off, so secure ISPs are skipped as candidates
//!   (optimization C.4-2), and every simulation terminates;
//! * **Section 7** — in the incoming model turn-off incentives and
//!   even endless oscillations exist; the driver detects revisited
//!   states and reports [`Outcome::Oscillation`];
//! * **Appendix C.4** — per-destination skip rules: an insecure
//!   destination's tree is state-independent, and a candidate's flip
//!   provably cannot move a tree unless it creates or destroys a
//!   secure path through the candidate or its upgraded stubs.
//!
//! # Example
//!
//! ```
//! use sbgp_asgraph::gen::{generate, GenParams};
//! use sbgp_asgraph::Weights;
//! use sbgp_core::{EarlyAdopters, Outcome, SimConfig, Simulation};
//! use sbgp_routing::HashTieBreak;
//!
//! let graph = generate(&GenParams::new(200, 42)).graph;
//! let weights = Weights::with_cp_fraction(&graph, 0.10);
//! let config = SimConfig { theta: 0.05, ..SimConfig::default() };
//! let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&graph);
//!
//! let result = Simulation::new(&graph, &weights, &HashTieBreak, config).run(&adopters);
//! assert!(matches!(result.outcome, Outcome::Stable { .. }));
//! assert!(result.secure_as_fraction(&graph) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod early;
mod engine;
mod sim;
mod state;

pub mod checkpoint;
pub mod guard;
pub mod metrics;
pub mod resilience;
pub mod scenario;
pub mod serve;
pub mod storage;
pub mod supervise;
pub mod turnoff;

pub use checkpoint::codec::{QuarantinedTask, TaskFault};
pub use config::{Activation, DeltaMode, SimConfig, UtilityModel};
pub use early::{greedy_select, EarlyAdopters};
pub use engine::{EnginePool, EngineStats, RoundComputation, SelfCheckViolation, UtilityEngine};
pub use sim::{Cell, Outcome, RoundRecord, SimResult, Simulation};
pub use state::initial_state;
pub use supervise::panic_message;
