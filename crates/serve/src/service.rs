//! The fault-hardened routing service.
//!
//! [`RoutingService`] fronts the supervisor with the robustness
//! machinery a long-running deployment needs:
//!
//! * **Bounded admission** — jobs enter through a
//!   [`crate::queue::BoundedQueue`]; when it is full,
//!   [`RoutingService::submit`] either sheds a
//!   strictly-lower-priority queued job or rejects the arrival with a
//!   retry-after hint. Accepted jobs are never silently dropped.
//! * **Deadline propagation** — each job's wall-clock deadline is
//!   measured from admission; the remaining budget at each attempt is
//!   handed to the supervisor, which folds it into every worker's
//!   per-stage budgets.
//! * **Retry with seeded backoff** — retryable failures re-enter the
//!   queue after a [`BackoffConfig`] delay; the supervisor checkpoint
//!   is kept between attempts so completed rails restore instead of
//!   re-routing.
//! * **Crash recovery** — every accepted job is journaled to the data
//!   directory before it is queued, and its terminal state is journaled
//!   once when it finishes. A restarted service replays the journal,
//!   re-admits every job without a terminal record and resumes it from
//!   its supervisor checkpoint.
//! * **Graceful degradation** — under queue pressure jobs run with the
//!   `BestSoFar` recovery policy and a tightened wall budget: a partial
//!   result beats a timed-out queue.
//!
//! Admission, the job table, retries, terminal classification and the
//! journal are the shared [`crate::lifecycle`] core, and each attempt
//! is the shared [`crate::attempt`] runner; this module is the
//! in-process executor: worker threads, the `catch_unwind` boundary,
//! cancel tokens, fault injection, overload degradation, retained
//! reports, and the mid-job kill simulation.
//!
//! The invariant everything above serves, asserted by the chaos suite:
//! **every accepted job reaches exactly one terminal state, and the
//! service never panics** — whatever the fault plan injects.

use crate::attempt::Attempt;
use crate::backoff::BackoffConfig;
use crate::chaos::ServeFaultPlan;
use crate::events::{EventBus, EventSink};
use crate::job::{JobSnapshot, JobSpec, JobState, SpecError};
use crate::lifecycle::{CoreConfig, JobCore, Retry};
use crate::queue::{Popped, QueueEntry};
use sprout_core::recovery::RecoveryPolicy;
use sprout_core::report::RunReport;
use sprout_core::router::RouterConfig;
use sprout_telemetry::{self as telemetry, json::Obj};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads pulling jobs from the queue.
    pub workers: usize,
    /// Admission-queue capacity (the backpressure bound).
    pub queue_capacity: usize,
    /// Router configuration applied to every job (pitch may be
    /// overridden per job).
    pub router: RouterConfig,
    /// Supervisor threads per job (rails of one job in parallel).
    pub supervisor_threads: usize,
    /// Supervisor-level retries per rail within one attempt.
    pub supervisor_retries: usize,
    /// Service-level retries per job (re-queued with backoff).
    pub max_job_retries: usize,
    /// Retry-delay schedule.
    pub backoff: BackoffConfig,
    /// Deadline for jobs that do not bring their own (ms from
    /// admission); `None` means no default deadline.
    pub default_deadline_ms: Option<f64>,
    /// Journal/checkpoint directory. `None` disables crash recovery
    /// (jobs still run, but a killed service forgets them).
    pub data_dir: Option<PathBuf>,
    /// Queue-depth fraction at which the service reports itself
    /// overloaded and degrades new attempts to `BestSoFar`.
    pub overload_watermark: f64,
    /// Per-stage wall budget (ms) applied to attempts started while
    /// overloaded.
    pub degraded_wall_ms: f64,
    /// Service-level fault injection (testing only).
    pub fault: Option<ServeFaultPlan>,
    /// Retain a [`RunReport`] per completed attempt for benches.
    pub keep_reports: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            router: RouterConfig::default(),
            supervisor_threads: 1,
            supervisor_retries: 1,
            max_job_retries: 2,
            backoff: BackoffConfig::default(),
            default_deadline_ms: None,
            data_dir: None,
            overload_watermark: 0.75,
            degraded_wall_ms: 2_000.0,
            fault: None,
            keep_reports: false,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec failed validation (HTTP 400).
    Invalid(SpecError),
    /// The queue is full and nothing in it has lower priority; retry
    /// after the hinted delay (HTTP 429 + `Retry-After`).
    Saturated {
        /// Suggested client backoff (ms).
        retry_after_ms: f64,
    },
    /// The service is draining or stopped (HTTP 503).
    Draining,
    /// The journal write failed; the job was not accepted (HTTP 500).
    Journal(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid job spec: {e}"),
            SubmitError::Saturated { retry_after_ms } => {
                write!(f, "queue saturated; retry after {retry_after_ms:.0} ms")
            }
            SubmitError::Draining => write!(f, "service is draining"),
            SubmitError::Journal(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why the service could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The data directory could not be created or scanned.
    Io(String),
    /// A configuration value is unusable.
    InvalidConfig(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "service I/O error: {e}"),
            ServeError::InvalidConfig(what) => write!(f, "invalid service config: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Health/readiness of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Accepting work with headroom.
    Ready,
    /// Accepting work, but the queue is past the overload watermark —
    /// new attempts run degraded.
    Overloaded,
    /// Not accepting work (draining or stopped).
    Draining,
}

impl Readiness {
    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Readiness::Ready => "ready",
            Readiness::Overloaded => "overloaded",
            Readiness::Draining => "draining",
        }
    }
}

/// A point-in-time snapshot of a backend's counters — the `/metrics`
/// payload of the in-process service and of fleet mode alike, so a
/// scrape sees the same field names against either. A field that does
/// not apply to a backend reads 0: `running`, `killed` and
/// `worker_panics` count in-process threads; `workers_*`, `leased`,
/// `redispatches` and `stale_finalizes` count fleet worker processes.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Jobs waiting in the queue (retry delays included).
    pub queue_depth: usize,
    /// Jobs currently routing on an in-process worker thread.
    pub running: usize,
    /// Jobs out under a worker-process lease.
    pub leased: usize,
    /// Worker processes alive (heartbeating or within their timeout).
    pub workers_live: usize,
    /// Jobs accepted since start (recovered jobs included).
    pub accepted: u64,
    /// Submissions rejected with backpressure.
    pub rejected: u64,
    /// Terminal: completed.
    pub completed: u64,
    /// Terminal: partial results shipped.
    pub best_so_far: u64,
    /// Terminal: failed with a typed error.
    pub failed: u64,
    /// Terminal: shed under saturation.
    pub shed: u64,
    /// Terminal: deadline expired.
    pub expired: u64,
    /// Terminal: cancelled.
    pub cancelled: u64,
    /// Attempts re-queued after a worker panic or a retryable failure.
    pub retries: u64,
    /// Leases expired by worker-process death and re-dispatched.
    pub redispatches: u64,
    /// Attempt summaries rejected for an expired lease or an
    /// already-terminal job — the double-finalize attempts defeated.
    pub stale_finalizes: u64,
    /// Jobs re-admitted by journal replay at start.
    pub recovered: u64,
    /// Duplicate/conflicting journal records ignored during replay.
    pub journal_duplicates: u64,
    /// In-process workers "killed" mid-job by the fault plan.
    pub killed: u64,
    /// In-process worker panics contained by the service boundary.
    pub worker_panics: u64,
    /// Jobs observed in more than one terminal state — always 0 unless
    /// the exactly-once invariant broke.
    pub terminal_violations: u64,
    /// Worker processes spawned since start (initial + replacements).
    pub workers_spawned: u64,
    /// Worker processes declared dead.
    pub workers_dead: u64,
    /// Replacement worker processes spawned after a death.
    pub worker_restarts: u64,
    /// Median admission→terminal latency (ms) over terminal jobs.
    pub latency_p50_ms: f64,
    /// 99th-percentile admission→terminal latency (ms).
    pub latency_p99_ms: f64,
    /// Sum of terminal latencies (ms) — the Prometheus `_sum`.
    pub latency_sum_ms: f64,
    /// Median admission→start queue wait (ms) over started attempts.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile admission→start queue wait (ms).
    pub queue_wait_p99_ms: f64,
    /// Attempt starts measured for the queue-wait percentiles.
    pub queue_wait_count: u64,
    /// Sum of measured queue waits (ms) — the Prometheus `_sum`.
    pub queue_wait_sum_ms: f64,
    /// Seconds since the backend started.
    pub uptime_seconds: f64,
    /// Events published on the per-job observability bus.
    pub events_published: u64,
    /// Bus events dropped to drop-oldest backpressure.
    pub events_dropped: u64,
}

impl ServiceMetrics {
    /// The plain counters, as `(name, help, value)`, in `/metrics`
    /// order. Both encodings render from this one list.
    fn counters(&self) -> [(&'static str, &'static str, u64); 19] {
        [
            ("accepted", "jobs accepted", self.accepted),
            ("rejected", "submissions rejected", self.rejected),
            ("completed", "jobs completed", self.completed),
            ("best_so_far", "partial results shipped", self.best_so_far),
            ("failed", "jobs failed", self.failed),
            ("shed", "jobs shed under saturation", self.shed),
            ("expired", "jobs past their deadline", self.expired),
            ("cancelled", "jobs cancelled", self.cancelled),
            ("retries", "attempts retried", self.retries),
            ("redispatches", "leases re-dispatched", self.redispatches),
            (
                "stale_finalizes",
                "double-finalize attempts defeated",
                self.stale_finalizes,
            ),
            ("recovered", "jobs re-admitted by recovery", self.recovered),
            (
                "journal_duplicates",
                "duplicate journal records ignored",
                self.journal_duplicates,
            ),
            ("killed", "workers killed mid-job", self.killed),
            (
                "worker_panics",
                "worker panics contained",
                self.worker_panics,
            ),
            (
                "terminal_violations",
                "exactly-once violations (must stay 0)",
                self.terminal_violations,
            ),
            (
                "workers_spawned",
                "worker processes spawned",
                self.workers_spawned,
            ),
            (
                "workers_dead",
                "worker processes declared dead",
                self.workers_dead,
            ),
            (
                "worker_restarts",
                "replacement worker processes spawned",
                self.worker_restarts,
            ),
        ]
    }

    /// One JSON line (the `/metrics` body).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.u64("queue_depth", self.queue_depth as u64)
            .u64("running", self.running as u64)
            .u64("leased", self.leased as u64)
            .u64("workers_live", self.workers_live as u64);
        for (name, _, v) in self.counters() {
            o.u64(name, v);
        }
        o.f64("latency_p50_ms", self.latency_p50_ms)
            .f64("latency_p99_ms", self.latency_p99_ms)
            .f64("queue_wait_p50_ms", self.queue_wait_p50_ms)
            .f64("queue_wait_p99_ms", self.queue_wait_p99_ms)
            .f64("uptime_seconds", self.uptime_seconds)
            .u64("events_published", self.events_published)
            .u64("events_dropped", self.events_dropped);
        o.finish()
    }

    /// Prometheus text exposition of the same counters (the
    /// `/metrics` body under content negotiation), with `prefix`
    /// (`sprout_serve_` or `sprout_fleet_`) naming the backend.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        use sprout_telemetry::prom::PromText;
        let mut p = PromText::new();
        let n = |name: &str| format!("{prefix}{name}");
        p.gauge(
            &n("queue_depth"),
            "jobs waiting in the queue",
            self.queue_depth as f64,
        )
        .gauge(&n("running"), "jobs currently routing", self.running as f64)
        .gauge(
            &n("leased"),
            "jobs out under a process lease",
            self.leased as f64,
        )
        .gauge(
            &n("workers_live"),
            "worker processes alive",
            self.workers_live as f64,
        )
        .gauge(
            &n("uptime_seconds"),
            "seconds since service start",
            self.uptime_seconds,
        );
        for (name, help, v) in self.counters() {
            p.counter(&n(&format!("{name}_total")), help, v);
        }
        p.counter(
            &n("events_published_total"),
            "observability events published",
            self.events_published,
        )
        .counter(
            &n("events_dropped_total"),
            "observability events dropped",
            self.events_dropped,
        )
        .summary(
            &n("latency_ms"),
            "admission to terminal latency (ms)",
            &[(0.5, self.latency_p50_ms), (0.99, self.latency_p99_ms)],
            self.completed
                + self.best_so_far
                + self.failed
                + self.shed
                + self.expired
                + self.cancelled,
            self.latency_sum_ms,
        )
        .summary(
            &n("queue_wait_ms"),
            "admission to start queue wait (ms)",
            &[
                (0.5, self.queue_wait_p50_ms),
                (0.99, self.queue_wait_p99_ms),
            ],
            self.queue_wait_count,
            self.queue_wait_sum_ms,
        );
        // Per-stage wall time and everything else the routing layer
        // observes into the global registry rides along with the
        // workspace prefix.
        p.registry("sprout_", telemetry::metrics::global());
        p.finish()
    }
}

#[derive(Debug)]
struct Shared {
    config: ServiceConfig,
    core: JobCore,
    running: AtomicUsize,
    reports: Mutex<Vec<RunReport>>,
}

/// The running service. Cheap to clone handles are not provided —
/// share it behind an `Arc` if multiple frontends need it (the HTTP
/// server does exactly that).
#[derive(Debug)]
pub struct RoutingService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl RoutingService {
    /// Starts the service: prepares the data directory, replays its
    /// journal (re-admitting every job without a terminal record —
    /// crash recovery), and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the configuration is unusable or the data
    /// directory cannot be prepared.
    pub fn start(config: ServiceConfig) -> Result<RoutingService, ServeError> {
        if config.workers == 0 && config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "a service needs at least one worker or a queue",
            ));
        }
        let core = JobCore::open(CoreConfig {
            queue_capacity: config.queue_capacity,
            max_job_retries: config.max_job_retries,
            backoff: config.backoff,
            default_deadline_ms: config.default_deadline_ms,
            overload_watermark: config.overload_watermark,
            data_dir: config.data_dir.clone(),
        })?;
        let shared = Arc::new(Shared {
            core,
            running: AtomicUsize::new(0),
            reports: Mutex::new(Vec::new()),
            config,
        });

        let service = RoutingService {
            shared: Arc::clone(&shared),
            workers: Mutex::new(Vec::new()),
        };
        let recorder = telemetry::current();
        let mut workers = service.workers.lock().unwrap_or_else(|e| e.into_inner());
        for w in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            let recorder = recorder.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sprout-serve-{w}"))
                    .spawn(move || {
                        let _telemetry = recorder.map(telemetry::RecorderScope::install);
                        worker_loop(&shared);
                    })
                    .map_err(|e| ServeError::Io(e.to_string()))?,
            );
        }
        drop(workers);
        Ok(service)
    }

    /// Submits a job. Returns its id once the job is journaled and
    /// queued — from that point on the service guarantees exactly one
    /// terminal state.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] with the HTTP-facing rejection reason.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        self.shared.core.submit(spec)
    }

    /// The snapshot of one job, if known.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        self.shared.core.status(id)
    }

    /// Snapshots of every known job, ordered by id.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        self.shared.core.jobs()
    }

    /// Cancels a job: queued jobs finalize immediately; running jobs
    /// get their cancel token triggered and finalize when the
    /// supervisor yields. `false` when the id is unknown or already
    /// terminal.
    pub fn cancel(&self, id: u64) -> bool {
        self.shared.core.cancel(id)
    }

    /// Current health/readiness.
    pub fn ready(&self) -> Readiness {
        self.shared.core.ready()
    }

    /// The per-job event bus feeding `GET /jobs/:id/events`.
    pub fn events(&self) -> Arc<EventBus> {
        Arc::clone(&self.shared.core.bus)
    }

    /// The latest attempt's performance profile for `id` (rendered
    /// JSON: timeline summary plus
    /// [`sprout_telemetry::prof::ScalingDiagnosis`]), once a routing
    /// attempt has run. Feeds `GET /jobs/<id>/profile`.
    pub fn profile(&self, id: u64) -> Option<String> {
        self.shared.core.profile(id)
    }

    /// Current counters and latency percentiles.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            running: self.shared.running.load(Ordering::SeqCst),
            ..self.shared.core.metrics()
        }
    }

    /// Blocks until every accepted job is terminal (killed jobs — which
    /// only a restart can finish — are excluded) or the timeout passes.
    /// `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.shared.core.wait_idle(timeout)
    }

    /// Stops the service. With `drain` the queue is emptied by the
    /// workers first; without it, queued jobs are finalized as
    /// cancelled. Killed jobs are left non-terminal on purpose: only a
    /// restart may finish them.
    pub fn shutdown(&self, drain: bool) {
        let core = &self.shared.core;
        core.draining.store(true, Ordering::SeqCst);
        if drain {
            core.queue.close();
        } else {
            for entry in core.queue.close_and_clear() {
                core.finalize(
                    entry.id,
                    JobState::Cancelled,
                    Some("service shut down before the job ran".into()),
                );
            }
        }
        self.join_workers();
    }

    /// Takes the retained per-attempt [`RunReport`]s (empty unless
    /// [`ServiceConfig::keep_reports`] is set).
    pub fn take_reports(&self) -> Vec<RunReport> {
        let mut reports = self
            .shared
            .reports
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *reports)
    }

    fn join_workers(&self) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RoutingService {
    fn drop(&mut self) {
        // A dropped service stops accepting and drains workers; jobs
        // still queued stay journaled for the next instance.
        self.shared.core.draining.store(true, Ordering::SeqCst);
        self.shared.core.queue.close();
        self.join_workers();
    }
}

// ---- worker side -------------------------------------------------------

fn worker_loop(s: &Arc<Shared>) {
    loop {
        match s.core.queue.pop(Duration::from_millis(50)) {
            Popped::Closed => break,
            Popped::Timeout => continue,
            Popped::Entry(entry) => {
                s.running.fetch_add(1, Ordering::SeqCst);
                // The worker's own panic boundary: whatever run_one
                // does — including injected panics — the loop survives
                // and the job gets a typed outcome, exactly as the
                // supervisor does for rail panics.
                let id = entry.id;
                if catch_unwind(AssertUnwindSafe(|| run_one(s, entry))).is_err() {
                    s.core
                        .counters
                        .worker_panics
                        .fetch_add(1, Ordering::Relaxed);
                    telemetry::counter!("serve.worker_panics");
                    s.core.retry(id, None, Retry::WorkerPanic);
                }
                s.running.fetch_sub(1, Ordering::SeqCst);
                telemetry::gauge!("serve.queue_depth", s.core.queue.len() as i64);
            }
        }
    }
}

fn run_one(s: &Arc<Shared>, entry: QueueEntry) {
    let id = entry.id;
    let Some(job) = s.core.start(&entry, None) else {
        return;
    };

    let fault = s.config.fault;
    if let Some(plan) = fault {
        if plan.slows(id, entry.attempt) {
            std::thread::sleep(Duration::from_millis(plan.slow_ms));
        }
        if plan.panics(id, entry.attempt) {
            telemetry::counter!("serve.injected_panics");
            panic!(
                "injected service worker panic (job {id}, attempt {})",
                entry.attempt
            );
        }
    }

    // Deadline check before spending any routing work.
    let remaining_ms = job.remaining_ms();
    if remaining_ms.is_some_and(|rem| rem <= 0.0) {
        s.core.expire(id, &job);
        return;
    }

    let mut router = s.config.router;
    // Graceful degradation: under queue pressure, prefer shipping a
    // partial result within a tight budget over queue collapse.
    if s.core.overloaded() {
        router.recovery.policy = RecoveryPolicy::BestSoFar;
        if router.recovery.budget.wall_clock_ms > s.config.degraded_wall_ms {
            router.recovery.budget.wall_clock_ms = s.config.degraded_wall_ms;
        }
        telemetry::counter!("serve.degraded_attempts");
    }

    let killed = fault.is_some_and(|p| p.kills(id, entry.attempt));
    let attempt = Attempt {
        job: id,
        lease: 0,
        spec: &job.spec,
        router,
        threads: s.config.supervisor_threads,
        retries: s.config.supervisor_retries,
        deadline_ms: remaining_ms,
        checkpoint: s.core.checkpoint(id),
        cancel: job.cancel.clone(),
        kill_after_wave: killed.then_some(0),
        sink: EventSink::Bus(Arc::clone(&s.core.bus)),
    };
    // Board + requests were validated at submit; a spec that no longer
    // resolves is internal and terminal.
    let ran = match attempt.run() {
        Ok(ran) => ran,
        Err(done) => {
            s.core.settle(id, None, &done);
            return;
        }
    };

    if s.config.keep_reports {
        let label = format!("serve-job-{id}");
        let rr = RunReport::from_job(&label, &ran.report);
        let mut reports = s.reports.lock().unwrap_or_else(|e| e.into_inner());
        reports.push(rr);
    }

    if killed {
        // The "process died mid-job" simulation: the first wave's
        // checkpoint is on disk, nothing is settled, no terminal record
        // is journaled. Only a restarted service finishes this job —
        // journal replay re-admits it and the supervisor resumes from
        // the checkpoint.
        s.core.counters.killed.fetch_add(1, Ordering::Relaxed);
        telemetry::counter!("serve.killed");
        s.core.with_record(id, |rec| {
            rec.killed = true;
            rec.profile = ran.done.profile;
        });
        return;
    }

    s.core.settle(id, None, &ran.done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Priority};
    use crate::worker::fast_router;

    fn fast_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            router: fast_router(),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_route_complete() {
        let svc = RoutingService::start(fast_config()).expect("start");
        let id = svc.submit(JobSpec::two_rail(20.0)).expect("submit");
        assert!(svc.wait_idle(Duration::from_secs(120)));
        let snap = svc.status(id).expect("known job");
        assert_eq!(snap.state, JobState::Completed);
        assert_eq!(snap.rails_complete, 2);
        assert_eq!(snap.terminal_transitions, 1);
        svc.shutdown(true);
        assert_eq!(svc.metrics().completed, 1);
    }

    #[test]
    fn completed_jobs_expose_a_profile() {
        use sprout_telemetry::json::{parse, Json};
        let svc = RoutingService::start(fast_config()).expect("start");
        let id = svc.submit(JobSpec::two_rail(20.0)).expect("submit");
        assert!(svc.wait_idle(Duration::from_secs(120)));
        assert!(svc.profile(id + 100).is_none(), "unknown job: no profile");
        let body = svc.profile(id).expect("profile recorded");
        let root = parse(&body).expect("profile is JSON");
        assert_eq!(root.get("job").and_then(Json::as_u64), Some(id));
        let diag = root.get("diagnosis").expect("diagnosis attached");
        assert!(diag.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        assert!(diag
            .get("critical_path_fraction")
            .and_then(Json::as_f64)
            .is_some());
        svc.shutdown(true);
    }

    #[test]
    fn invalid_specs_are_rejected_before_acceptance() {
        let svc = RoutingService::start(fast_config()).expect("start");
        let mut spec = JobSpec::two_rail(20.0);
        spec.rails[0].net = 99;
        match svc.submit(spec) {
            Err(SubmitError::Invalid(_)) => {}
            other => panic!("expected invalid, got {other:?}"),
        }
        assert_eq!(svc.metrics().accepted, 0);
        svc.shutdown(false);
    }

    #[test]
    fn saturation_rejects_with_retry_after() {
        let cfg = ServiceConfig {
            workers: 0, // nothing drains the queue
            queue_capacity: 2,
            router: fast_router(),
            ..ServiceConfig::default()
        };
        let svc = RoutingService::start(cfg).expect("start");
        svc.submit(JobSpec::two_rail(20.0)).expect("1");
        svc.submit(JobSpec::two_rail(20.0)).expect("2");
        match svc.submit(JobSpec::two_rail(20.0)) {
            Err(SubmitError::Saturated { retry_after_ms }) => {
                assert!(retry_after_ms > 0.0);
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert_eq!(svc.metrics().rejected, 1);
        // A high-priority job sheds a queued normal one instead.
        let mut high = JobSpec::two_rail(20.0);
        high.priority = Priority::High;
        svc.submit(high).expect("high priority displaces");
        let m = svc.metrics();
        assert_eq!(m.shed, 1);
        svc.shutdown(false);
    }
}
