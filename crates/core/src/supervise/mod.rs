//! Crash-isolated sweep supervision: protocol, transports, supervisor.
//!
//! The paper's evaluation ran on a 200-node DryadLINQ cluster precisely
//! because the sweep shards cleanly and individual workers can die
//! without invalidating the run (Appendix C.4). In-process panic
//! isolation ([`crate::engine`]) cannot survive an abort, an OOM kill,
//! or a stack overflow — those take the whole process down. This module
//! moves the fault boundary first to the OS (child worker processes)
//! and then to the network (remote TCP workers), while keeping one
//! invariant at every layer: the merged output is **bit-identical** to
//! a single-process run at any shard count, any kill schedule, any
//! fault schedule, and any restart interleaving.
//!
//! The module splits along the layers a frame crosses:
//!
//! * [`protocol`] — the length-prefixed frame codec (byte-identical on
//!   every transport) and the supervisor ↔ worker message vocabulary,
//!   with *typed* faults so a torn frame is distinguishable from a
//!   poison unit;
//! * [`transport`] — how frames move: child-process pipes, TCP
//!   sockets, and a seeded chaos wrapper injecting drops, delays,
//!   duplicates, torn mid-frame disconnects, and one-way partitions;
//! * [`supervisor`] — the dispatch/requeue/restart loop
//!   ([`run_supervised`]) generic over a connect factory, plus the
//!   worker-side serve loop ([`serve_worker`]) and the process-shard
//!   wrapper ([`run_sharded`]).
//!
//! Fault handling in one line each: crashes requeue at the front and
//! restart under a budget with exponential backoff; hangs trip the
//! heartbeat watchdog; lost assignments trip per-unit leases; lost
//! results trip the batch-accounting anomaly check; duplicated results
//! dedupe on merge (first wins — results are deterministic); injected
//! chaos is ledgered and exempt from the restart budget.

pub mod protocol;
pub mod supervisor;
pub mod transport;

pub use protocol::{
    decode_from_worker, decode_to_worker, encode_from_worker, encode_to_worker, read_frame,
    write_frame, FromWorker, ToWorker, MAX_FRAME_BYTES,
};
pub use supervisor::{
    panic_message, run_sharded, run_supervised, serve_worker, serve_worker_until, ShardPolicy,
    ShardReport,
};
pub use transport::{
    pipe_link, tcp_link, ChaosProfile, ChaosSchedule, FaultLedger, FrameRecv, FrameSend,
    WorkerHandle, WorkerLink,
};

use std::fmt;

/// Errors from the supervisor/worker layer.
///
/// Transport faults (a link died, a frame tore, a peer vanished) are
/// separate variants from worker faults (a unit panicked, setup
/// failed) so restart accounting can treat them differently — see
/// [`SuperviseError::is_transport_fault`].
#[derive(Debug)]
pub enum SuperviseError {
    /// Reading or writing a frame failed for a reason that is not a
    /// recognized peer-death pattern.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error, stringified.
        message: String,
    },
    /// The stream ended in the middle of a frame — the peer died (or
    /// the link was cut) mid-write.
    TornFrame {
        /// Where in the frame the stream ended.
        context: String,
    },
    /// A frame length exceeded [`MAX_FRAME_BYTES`] — stream corruption,
    /// not an allocation request.
    Oversize {
        /// The claimed length.
        len: u64,
        /// The configured limit.
        limit: u32,
    },
    /// The peer closed the link (broken pipe, connection reset) while
    /// a frame was being written to it.
    PeerClosed {
        /// What was being written.
        context: String,
    },
    /// A peer sent bytes that do not decode as the expected message.
    Protocol {
        /// What was wrong.
        message: String,
    },
    /// Spawning or connecting a worker failed.
    Spawn {
        /// The underlying error, stringified.
        message: String,
    },
    /// The restart budget was exhausted before the sweep completed.
    RestartBudget {
        /// The configured budget.
        budget: u32,
        /// Units still outstanding when the supervisor gave up.
        outstanding: usize,
        /// Why the last worker died.
        last_error: String,
    },
    /// A worker reported an unrecoverable error (bad job config,
    /// unknown unit key, or a panic inside a unit).
    Worker {
        /// The worker's message.
        message: String,
    },
    /// The caller's result sink refused a unit (e.g. journal I/O).
    Sink {
        /// The sink's error.
        message: String,
    },
}

impl SuperviseError {
    /// Whether this error lives in the transport layer (the link or
    /// its bytes) rather than the worker (its units) — the distinction
    /// restart accounting reports, and the reconnect logic acts on.
    pub fn is_transport_fault(&self) -> bool {
        matches!(
            self,
            SuperviseError::Io { .. }
                | SuperviseError::TornFrame { .. }
                | SuperviseError::Oversize { .. }
                | SuperviseError::PeerClosed { .. }
        )
    }
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Io { context, message } => {
                write!(f, "shard i/o error ({context}): {message}")
            }
            SuperviseError::TornFrame { context } => {
                write!(f, "torn frame: {context}")
            }
            SuperviseError::Oversize { len, limit } => {
                write!(f, "frame length {len} exceeds limit {limit}")
            }
            SuperviseError::PeerClosed { context } => {
                write!(f, "peer closed the link ({context})")
            }
            SuperviseError::Protocol { message } => {
                write!(f, "shard protocol error: {message}")
            }
            SuperviseError::Spawn { message } => {
                write!(f, "failed to spawn shard worker: {message}")
            }
            SuperviseError::RestartBudget {
                budget,
                outstanding,
                last_error,
            } => write!(
                f,
                "shard restart budget ({budget}) exhausted with {outstanding} unit(s) \
                 outstanding; last failure: {last_error}"
            ),
            SuperviseError::Worker { message } => {
                write!(f, "shard worker failed: {message}")
            }
            SuperviseError::Sink { message } => {
                write!(f, "shard result sink failed: {message}")
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frame").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "third").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello frame"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("third"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_frame_is_a_typed_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "whole").unwrap();
        // Cut mid-payload and mid-header.
        for cut in [buf.len() - 2, 2] {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r).unwrap_err();
            assert!(
                matches!(err, SuperviseError::TornFrame { .. }),
                "cut at {cut}: {err}"
            );
            assert!(err.is_transport_fault());
        }
    }

    #[test]
    fn oversized_frame_is_a_typed_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, SuperviseError::Oversize { .. }), "{err}");
        assert!(err.is_transport_fault());
    }

    #[test]
    fn worker_faults_are_not_transport_faults() {
        assert!(!SuperviseError::Worker {
            message: "unit panicked".into()
        }
        .is_transport_fault());
        assert!(!SuperviseError::Protocol {
            message: "bad message".into()
        }
        .is_transport_fault());
        assert!(SuperviseError::PeerClosed {
            context: "frame payload".into()
        }
        .is_transport_fault());
    }

    #[test]
    fn to_worker_messages_round_trip() {
        for msg in [
            ToWorker::Job {
                cmd: "fig8".into(),
                config: "ases = 200\nseed = 7\n".into(),
                heartbeat_ms: 500,
            },
            ToWorker::Assign {
                keys: vec!["5cps;theta=0.05".into(), "".into(), "x y z".into()],
            },
            ToWorker::Shutdown,
        ] {
            let text = encode_to_worker(&msg);
            assert_eq!(decode_to_worker(&text).unwrap(), msg);
        }
    }

    #[test]
    fn from_worker_messages_round_trip() {
        use sbgp_asgraph::gen::{generate, GenParams};
        use sbgp_asgraph::Weights;
        use sbgp_routing::HashTieBreak;
        let g = generate(&GenParams::new(120, 5)).graph;
        let w = Weights::with_cp_fraction(&g, 0.10);
        let cfg = crate::config::SimConfig::default();
        let adopters = crate::early::EarlyAdopters::ContentProviders.select(&g);
        let result = crate::sim::Simulation::new(&g, &w, &HashTieBreak, cfg).run(&adopters);
        let stats = result.stats;
        for msg in [
            FromWorker::Ready { units: 49 },
            FromWorker::Heartbeat,
            FromWorker::Unit {
                key: "5cps;theta=0.05".into(),
                result: result.clone(),
                stats,
            },
            FromWorker::BatchDone,
            FromWorker::Goodbye,
            FromWorker::Fatal {
                message: "unit \"x\" panicked: boom".into(),
            },
        ] {
            let text = encode_from_worker(&msg);
            let back = decode_from_worker(&text).unwrap();
            match (&msg, &back) {
                (
                    FromWorker::Unit { key, result, stats },
                    FromWorker::Unit {
                        key: bk,
                        result: br,
                        stats: bs,
                    },
                ) => {
                    assert_eq!(key, bk);
                    assert_eq!(result, br);
                    assert_eq!(stats, bs);
                    // Bit-exact across the boundary.
                    for (a, b) in result
                        .starting_utilities
                        .iter()
                        .zip(br.starting_utilities.iter())
                    {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                _ => assert_eq!(msg, back),
            }
        }
    }

    #[test]
    fn garbage_messages_are_typed_errors() {
        assert!(decode_to_worker("launch missiles\n").is_err());
        assert!(decode_from_worker("unit zz-not-hex\n").is_err());
        assert!(decode_from_worker("").is_err());
    }
}
