//! The harness's error taxonomy.
//!
//! Every subcommand returns `Result<(), ExperimentError>`; `main`
//! prints the error and exits non-zero instead of unwinding, so a bad
//! flag combination or an unwritable checkpoint directory produces a
//! readable one-line diagnosis rather than a panic backtrace.

use sbgp_asgraph::GraphError;
use sbgp_core::checkpoint::CheckpointError;
use sbgp_core::serve::ServeError;
use sbgp_core::storage::StorageError;
use std::fmt;

/// Anything that can stop an experiment command.
#[derive(Debug)]
pub enum ExperimentError {
    /// Building or mutating the topology failed (bad generator
    /// parameters, invalid fault rates, …).
    Graph(GraphError),
    /// Checkpoint persistence failed (I/O, corruption, or a
    /// parameter-fingerprint mismatch on `--resume`).
    Checkpoint(CheckpointError),
    /// `repro doctor` found invalid input files.
    Doctor {
        /// How many of the inspected files failed validation.
        failures: usize,
    },
    /// The process-shard supervisor failed (spawn, protocol, restart
    /// budget, …).
    Supervise(sbgp_core::supervise::SuperviseError),
    /// A durable-artifact store operation failed permanently (or
    /// exhausted its transient-retry budget) — a figure CSV, bench
    /// history file, or sweep lock could not be written.
    Storage(StorageError),
    /// The `repro serve` job board failed (journal I/O or corruption).
    Serve(ServeError),
    /// A harness-level invariant failed (lock contention, mismatched
    /// sharded output, …).
    Harness(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Graph(e) => write!(f, "{e}"),
            ExperimentError::Checkpoint(e) => write!(f, "{e}"),
            ExperimentError::Doctor { failures } => {
                write!(f, "doctor: {failures} file(s) failed validation")
            }
            ExperimentError::Supervise(e) => write!(f, "{e}"),
            ExperimentError::Storage(e) => write!(f, "{e}"),
            ExperimentError::Serve(e) => write!(f, "{e}"),
            ExperimentError::Harness(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Graph(e) => Some(e),
            ExperimentError::Checkpoint(e) => Some(e),
            ExperimentError::Doctor { .. } => None,
            ExperimentError::Supervise(e) => Some(e),
            ExperimentError::Storage(e) => Some(e),
            ExperimentError::Serve(e) => Some(e),
            ExperimentError::Harness(_) => None,
        }
    }
}

impl From<sbgp_core::supervise::SuperviseError> for ExperimentError {
    fn from(e: sbgp_core::supervise::SuperviseError) -> Self {
        ExperimentError::Supervise(e)
    }
}

impl From<GraphError> for ExperimentError {
    fn from(e: GraphError) -> Self {
        ExperimentError::Graph(e)
    }
}

impl From<CheckpointError> for ExperimentError {
    fn from(e: CheckpointError) -> Self {
        ExperimentError::Checkpoint(e)
    }
}

impl From<StorageError> for ExperimentError {
    fn from(e: StorageError) -> Self {
        ExperimentError::Storage(e)
    }
}

impl From<ServeError> for ExperimentError {
    fn from(e: ServeError) -> Self {
        ExperimentError::Serve(e)
    }
}
