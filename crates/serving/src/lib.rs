#![warn(missing_docs)]

//! # bamboo-serving
//!
//! Resident Bamboo deployments under open-loop traffic (DESIGN.md §15).
//!
//! The batch executors answer *how fast does one workload drain*; this
//! crate answers the serving question: a deployment stays resident
//! ([`bamboo_runtime::ThreadedExecutor::start`]), root objects arrive
//! from an open-loop process — the arrival clock never waits for
//! completions, so overload is visible instead of self-throttled — and
//! each injection is its own *request* whose completion the runtime's
//! request ledger detects individually (no global quiescence).
//!
//! The pieces:
//!
//! - [`arrivals`] — pluggable seeded arrival processes: [`Poisson`],
//!   [`Bursty`] (two-state Markov-modulated Poisson), [`Trace`] replay
//!   (including a diurnal day-curve constructor).
//! - [`ingress`] — an mpsc channel ingress ([`channel`]) whose cloneable
//!   [`IngressHandle`] is usable from a socket-accept loop or any other
//!   thread; capacity-bounded, rejecting with
//!   [`ServingError::Overloaded`].
//! - [`admission`] — ingress admission control: a [`TokenBucket`] rate
//!   limiter plus queue-depth shedding against the requests admitted
//!   and not yet complete, counting the batch-mates ahead of the
//!   arrival.
//! - [`server`] — the [`ServingSession`] loop: collect a micro-batch per
//!   arrival tick, admit or shed, inject, track completions and their
//!   admit→complete latencies
//!   ([`ServingReport::latency`] buckets them into a
//!   [`bamboo_telemetry::analyze::LatencyHistogram`]). The live layout
//!   and epoch are read through its
//!   [`relayout_handle`](ServingSession::relayout_handle).
//!
//! Every lifecycle edge is stamped into the ordinary telemetry rings
//! (`serving.*` namespace in METRICS.md: `req_arrive`, `req_admit`,
//! `req_shed`, `req_complete`) so latency distributions can also be
//! reconstructed offline from a recorded report via the analysis fold,
//! [`bamboo_telemetry::analyze::ObservedGraph`].
//!
//! With [`ServingOptions::with_scope`] the same lifecycle also feeds
//! the *live* observability plane (`bamboo-scope`, DESIGN.md §17):
//! sliding-window p50/p99/p999, shed rate, SLO burn-rate, and
//! tail-based span sampling, snapshotted on demand through a
//! [`ScopeHandle`] while the deployment keeps serving.

pub mod admission;
pub mod arrivals;
pub mod error;
pub mod ingress;
pub mod server;

pub use admission::{AdmissionControl, AdmissionVerdict, TokenBucket};
pub use arrivals::{ArrivalProcess, Bursty, Poisson, Trace};
pub use error::{ServingError, ShedReason};
pub use ingress::{channel, ChannelIngress, IngressHandle};
pub use server::{Pacing, ServingOptions, ServingReport, ServingSession};
// Re-exported so `ServingReport::adapt` and the `AdaptPolicy` handed to
// `RunOptions::with_adapt` are nameable from this crate alone.
pub use bamboo_runtime::{AdaptPolicy, AdaptReport, RelayoutError};
// Re-exported so `ServingOptions::with_scope` and the snapshots hanging
// off `ServingReport::scope` are nameable from this crate alone.
pub use bamboo_telemetry::scope::{ScopeConfig, ScopeHandle, ScopeSnapshot};
