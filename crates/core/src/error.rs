//! The typed error and degradation vocabulary of the pipeline.
//!
//! [`CompileError`] is what [`crate::try_compile`] returns when a
//! compilation cannot produce a result at all; [`Degradation`] records
//! what a *successful* compilation had to sacrifice along the way (see
//! `CompilationResult::degradations`). The split is deliberate: under
//! pulse-source failure the pipeline's contract is to degrade — retry,
//! fall back, mark partial — and only error when no result is possible
//! (unmappable or malformed input, a zero deadline, a backend
//! mismatch).

use paqoc_circuit::ParseQasmError;
use paqoc_mapping::MapError;
use std::time::Duration;

/// Why a compilation produced no result.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The circuit cannot be placed on the device.
    Mapping(MapError),
    /// The input circuit is structurally unusable (zero qubits, a gate
    /// addressing a qubit outside the register, a QASM parse failure).
    MalformedCircuit(String),
    /// The wall-clock deadline was already spent before compilation
    /// could begin. (A deadline hit *during* generation degrades to a
    /// partial result instead — see [`Degradation::DeadlineHit`].)
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
    },
    /// `PipelineOptions::backend` named a backend, but the device the
    /// compilation was handed belongs to a different one. Compiling
    /// anyway would file the pulses under the wrong store namespace, so
    /// this fails fast instead.
    BackendMismatch {
        /// Backend the options requested.
        requested: String,
        /// Backend the device actually belongs to.
        actual: String,
    },
}

impl CompileError {
    /// A stable machine-readable tag for this error, used as the typed
    /// `kind` field when errors cross a serialization boundary (the
    /// serve wire protocol). Tags are snake_case and never change once
    /// shipped.
    pub fn kind(&self) -> &'static str {
        match self {
            CompileError::Mapping(_) => "mapping",
            CompileError::MalformedCircuit(_) => "malformed_circuit",
            CompileError::DeadlineExceeded { .. } => "deadline_exceeded",
            CompileError::BackendMismatch { .. } => "backend_mismatch",
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Mapping(e) => write!(f, "mapping failed: {e}"),
            CompileError::MalformedCircuit(msg) => write!(f, "malformed circuit: {msg}"),
            CompileError::DeadlineExceeded { deadline } => {
                write!(
                    f,
                    "compilation deadline of {deadline:?} exceeded before start"
                )
            }
            CompileError::BackendMismatch { requested, actual } => write!(
                f,
                "options request backend {requested:?} but the device belongs to {actual:?}"
            ),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Mapping(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Mapping(e)
    }
}

impl From<ParseQasmError> for CompileError {
    fn from(e: ParseQasmError) -> Self {
        CompileError::MalformedCircuit(e.to_string())
    }
}

/// One concession a successful compilation made to stay successful.
#[derive(Clone, Debug, PartialEq)]
pub enum Degradation {
    /// A customized (merged) group's pulse could not be generated even
    /// after retries; the merge was rolled back and its gates were
    /// re-attached from smaller groups.
    MergeRolledBack {
        /// Gates in the rolled-back group.
        gates: usize,
        /// Qubits the group spanned.
        qubits: usize,
        /// The generation failure that forced the rollback.
        reason: String,
    },
    /// A group kept its analytic-model estimate because the real pulse
    /// source failed on it even as a singleton.
    EstimatorFallback {
        /// Gates in the group.
        gates: usize,
        /// The generation failure that forced the fallback.
        reason: String,
    },
    /// The wall-clock deadline expired mid-compilation; the phase named
    /// here was cut short and the result is marked partial.
    DeadlineHit {
        /// Phase interrupted (`"group"`, `"merge"` or `"attach"`): APA
        /// acceptance, the merge search or the pulse attach. A compile
        /// records at most one, for the first phase the deadline cut.
        phase: String,
    },
    /// The pulse source **panicked** on a group; the supervisor caught
    /// the unwind, quarantined the group's cache key, and the group fell
    /// through the usual ladder (rollback, then estimator fallback).
    SourcePanic {
        /// Gates in the group whose generation panicked.
        gates: usize,
        /// The panic payload captured by the supervisor.
        message: String,
    },
    /// The persistent pulse store could not be opened; compilation
    /// proceeded with the in-memory table only, so this run's pulses
    /// will not survive the process.
    StoreUnavailable {
        /// Why the store could not be opened.
        reason: String,
    },
    /// The persistent pulse store opened read-only — another process
    /// holds the single-writer lock (or read-only was requested).
    /// Cached pulses are still served, but this run's fresh pulses will
    /// not be persisted.
    StoreReadOnly {
        /// Why the handle is read-only (`"lock-held"` or
        /// `"requested"`).
        reason: String,
    },
}

impl Degradation {
    /// A stable machine-readable tag for this degradation, used as the
    /// typed `kind` field when degradations cross a serialization
    /// boundary (the serve wire protocol). Tags are snake_case and
    /// never change once shipped.
    pub fn kind(&self) -> &'static str {
        match self {
            Degradation::MergeRolledBack { .. } => "merge_rolled_back",
            Degradation::EstimatorFallback { .. } => "estimator_fallback",
            Degradation::DeadlineHit { .. } => "deadline_hit",
            Degradation::SourcePanic { .. } => "source_panic",
            Degradation::StoreUnavailable { .. } => "store_unavailable",
            Degradation::StoreReadOnly { .. } => "store_read_only",
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::MergeRolledBack {
                gates,
                qubits,
                reason,
            } => write!(
                f,
                "rolled back a {gates}-gate merge on {qubits} qubits ({reason})"
            ),
            Degradation::EstimatorFallback { gates, reason } => write!(
                f,
                "kept the analytic estimate for a {gates}-gate group ({reason})"
            ),
            Degradation::DeadlineHit { phase } => {
                write!(f, "deadline hit during {phase}; result is partial")
            }
            Degradation::SourcePanic { gates, message } => write!(
                f,
                "pulse source panicked on a {gates}-gate group ({message}); key quarantined"
            ),
            Degradation::StoreUnavailable { reason } => write!(
                f,
                "persistent pulse store unavailable ({reason}); running in-memory only"
            ),
            Degradation::StoreReadOnly { reason } => write!(
                f,
                "persistent pulse store is read-only ({reason}); fresh pulses will not persist"
            ),
        }
    }
}
