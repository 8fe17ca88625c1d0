//! `glitch-serve`: the batch analysis daemon.
//!
//! Amortises the per-invocation costs of the one-shot CLI — netlist
//! parsing and kernel compilation — across many requests, behind a
//! dependency-free JSON-lines protocol on a loopback TCP socket:
//!
//! - [`protocol`]: request parsing (`analyze`, `check`, `flip`, `sweep`,
//!   `reduce`, `metrics`, `status`, `ping`, `shutdown`) with strict
//!   unknown-field rejection.
//! - [`cache`]: the content-addressed warm cache — circuits and their
//!   compiled kernel programs keyed by
//!   [`glitch_core::netlist::Netlist::fingerprint`], with single-flight
//!   coalescing and LRU byte-budget eviction.
//! - [`exec`]: the one job executor the daemon and the one-shot CLI
//!   share, so responses are byte-identical to one-shot `--json` output
//!   by construction.
//! - [`engine`]: the daemon's side of a job — cache lookup, fingerprint
//!   check, counters, spans and the access log around [`exec::exec`],
//!   with a panicking job answered as an error (`serve.panics`).
//! - [`server`] / [`client`]: the worker-pool daemon and its blocking
//!   line-protocol client.
//!
//! The CLI layers (`glitch-cli serve` / `glitch-cli client`) are thin
//! wrappers over [`server::run_server`] and [`client::Client`]. The
//! shared JSON emission ([`json`]), parameter resolution ([`params`]) and
//! report envelopes ([`report`]) live here so the daemon and the one-shot
//! commands render through literally the same code.

pub mod cache;
pub mod client;
pub mod engine;
pub mod exec;
pub mod json;
pub mod jsonin;
pub mod params;
pub mod protocol;
pub mod report;
pub mod server;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use client::Client;
pub use engine::{Engine, RequestContext};
pub use protocol::{JobKind, JobRequest, MetricsFormat, Request};
pub use server::{run_server, ServeConfig};

/// Locks `mutex`, recovering the guard when a panicking holder poisoned
/// it. The critical sections here only update counters, span and latency
/// records, the job queue and the cache maps; parsing, compiling and job
/// execution run outside every lock. A poisoned guard therefore still
/// holds usable data, and recovering it keeps one panicking job from
/// failing every later request.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
