//! # sprout-serve — fault-hardened routing as a service
//!
//! The supervisor (`sprout-core`) makes one routing job robust; this
//! crate makes a *stream* of jobs robust. It wraps the supervisor in a
//! long-running service with the failure-handling machinery a
//! deployment needs, all std-only like the rest of the workspace:
//!
//! * **Admission control and backpressure** — a [`queue::BoundedQueue`]
//!   caps in-flight work; saturation sheds strictly-lower-priority jobs
//!   or rejects with a retry-after hint. The queue never grows without
//!   bound.
//! * **Deadline propagation** — per-job deadlines, measured from
//!   admission, flow into the supervisor and from there into every
//!   pipeline stage's wall budget.
//! * **Retries with deterministic backoff** — [`backoff::BackoffConfig`]
//!   produces a monotone, bounded, *seeded* schedule: bit-identical on
//!   any machine and thread count, so chaos runs replay exactly.
//! * **Crash recovery** — accepted jobs are journaled before they
//!   queue; terminal states are journaled exactly once; a restarted
//!   service replays the journal ([`lifecycle::replay_journal`]),
//!   re-admits unfinished jobs and resumes them from their supervisor
//!   checkpoints.
//! * **Graceful degradation** — past the overload watermark, attempts
//!   run under the `BestSoFar` policy with tightened budgets, and
//!   `/readyz` reports the pressure.
//! * **Chaos harness** — [`chaos::ServeFaultPlan`] injects worker
//!   panics, mid-job kills, and stalls, seeded and reproducible.
//! * **Live observability** — every job feeds a bounded
//!   [`events::EventBus`] ring (wave progress, pipeline stage spans,
//!   solver residuals, retries, exactly one terminal event), streamed
//!   to clients as chunked NDJSON via `GET /jobs/<id>/events` or a
//!   `?since=` long-poll; `/metrics` negotiates JSON or Prometheus
//!   text exposition. Publishing never blocks the routing hot path.
//! * **One job core** — [`lifecycle`] owns a job's life from admission
//!   to its terminal state for both backends: one job table, one
//!   retry path, one `settle` that classifies each attempt, one
//!   exactly-once `finalize`, one append-only journal and one
//!   [`service::ServiceMetrics`] type. The in-process service and the
//!   fleet coordinator are thin executors over it, and both run each
//!   attempt through one crate-private attempt runner: one supervisor
//!   configuration, one job-event recorder, one per-attempt profile.
//! * **Fleet mode** — [`fleet::FleetCoordinator`] shards jobs across
//!   worker *processes* ([`worker`], speaking the framed protocol of
//!   [`proto`]) with heartbeat liveness, lease-based assignment,
//!   idempotent journal-fingerprinted finalize, and bounded worker
//!   respawn — the robustness boundary above panicked threads: lost
//!   processes. [`chaos::FleetFaultPlan`] injects the process-level
//!   faults (kill -9, stalls, heartbeat blackouts).
//!
//! The service invariant, asserted end to end by the chaos suites at
//! both levels: *every accepted job ends in exactly one terminal state
//! — completed, a best-so-far partial, or a typed error — and the
//! service never panics and never loses an accepted job.*
//!
//! Four binaries ship with the crate: `sprout_served` (the HTTP
//! daemon), `serve_batch` (a load-driving batch client),
//! `sprout_fleet` (the fleet coordinator CLI) and
//! `sprout_fleet_worker` (the per-process fleet worker).

#![warn(missing_docs)]

mod attempt;
pub mod backoff;
pub mod chaos;
pub mod cli;
pub mod events;
pub mod fleet;
pub mod http;
pub mod job;
pub mod lifecycle;
pub mod proto;
pub mod queue;
pub mod service;
pub mod worker;

pub use backoff::BackoffConfig;
pub use chaos::{FleetFaultPlan, ServeFaultPlan};
pub use events::{EventBus, EventKind, EventPage, JobEvent, JobRecorder};
pub use fleet::{FleetConfig, FleetCoordinator};
pub use http::{HttpServer, JobBackend};
pub use job::{JobSnapshot, JobSpec, JobState, Priority, SpecError};
pub use lifecycle::{replay_journal, JournalReplay};
pub use proto::{spec_fingerprint, CoordFrame, DoneFrame, ProtoError, WorkerFrame};
pub use queue::{AdmitError, Admitted, BoundedQueue};
pub use service::{
    Readiness, RoutingService, ServeError, ServiceConfig, ServiceMetrics, SubmitError,
};
pub use worker::{run_worker, WorkerConfig};
