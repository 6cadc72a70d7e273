//! # paqoc-serve
//!
//! A fault-tolerant **resident compilation service** wrapping the PAQOC
//! batch pipeline: a long-lived daemon (`paqoc-serve`) that amortizes
//! pulse-generation cost across programs and tenants through the shared
//! pulse table and persistent store, plus a client/load-generator
//! (`paqoc-load`). AccQOC's observation — pulse cost pays off when
//! amortized across programs via a shared pulse database — is the whole
//! point of keeping the compiler resident instead of one-shot.
//!
//! The robustness contract, built from the primitives PRs 2–8 added:
//!
//! * **Admission control** — per-tenant bounded queues with round-robin
//!   fair share ([`paqoc_exec::FairQueue`]); overload answers a typed
//!   `overloaded` response instead of buffering unboundedly.
//! * **Deadline propagation** — the client's `deadline_ms` becomes the
//!   request budget; time spent queued is charged against it, requests
//!   that expire in the queue are shed *before* compilation starts, and
//!   the remainder flows into `PipelineOptions::deadline` so the
//!   pipeline degrades to a partial result rather than overrun.
//! * **A strict frame parser** — length-prefixed JSON over TCP or a
//!   unix socket, with the advertised length validated against a hard
//!   cap **before** any allocation ([`protocol`]).
//! * **Typed degradation surfacing** — every concession the pipeline
//!   records ([`paqoc_core::Degradation`]) crosses the wire as a typed
//!   JSON object, so clients distinguish "degraded result" from
//!   "error".
//! * **Graceful drain** — SIGTERM (or a `drain` request) stops
//!   admission, answers or sheds everything already accepted, syncs the
//!   pulse table to the store, and exits 0; a restart warm-loads the
//!   store and serves previous pulses as hits.
//!
//! [`protocol`] defines the wire format and the one TCP/unix-socket
//! stream type both ends speak it over, [`server`] the daemon, and
//! [`client`] the blocking client plus the QPS replay driver.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, Endpoint, LoadReport, ReplayOptions, RetryPolicy};
pub use protocol::{
    decode_request, decode_response, degradation_from_value, degradation_to_value, encode_request,
    encode_response, read_frame, write_frame, Budget, CompileReply, ConfigPreset, FrameError, Op,
    Request, Response, ServerStats, DEFAULT_MAX_FRAME_BYTES, MAX_TENANT_LEN,
};
pub use server::{BindAddr, DrainSummary, ServeOptions, Server};
