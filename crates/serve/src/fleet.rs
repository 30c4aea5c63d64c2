//! Fleet coordinator: sharding jobs across worker *processes* with
//! leases, heartbeats, and kill-resilient redistribution.
//!
//! [`RoutingService`](crate::service::RoutingService) survives panicked
//! threads; [`FleetCoordinator`] survives lost processes. It spawns N
//! `sprout_fleet_worker` children speaking the newline-delimited JSON
//! protocol of [`crate::proto`] over stdin/stdout and enforces one
//! invariant under any fault schedule: **every accepted job reaches
//! exactly one terminal state**.
//!
//! The machinery, layer by layer:
//!
//! * **Leases** — a job is dispatched under a fresh lease id. Only a
//!   `done` frame carrying the *current* lease finalizes the job; a
//!   slow-then-revived worker reporting under an expired lease is
//!   counted in [`FleetMetrics::stale_finalizes`] and ignored.
//! * **Heartbeats** — workers beat on a timer from a dedicated thread.
//!   A worker silent past [`FleetConfig::heartbeat_timeout_ms`] is
//!   declared dead: its lease expires, its job re-enters the queue with
//!   the attempt bumped and a seeded-jitter [`BackoffConfig`] delay,
//!   and the next healthy worker resumes it *from its last completed
//!   wave* — the supervisor checkpoint in the shared data directory is
//!   the cross-process handoff.
//! * **Idempotent finalize** — terminal records are appended to
//!   `fleet.journal` keyed on `(job id, spec fingerprint)`; replay is
//!   first-wins ([`replay_journal`]), so duplicate or interleaved
//!   terminal records — the revived-worker case — collapse to exactly
//!   one terminal state, across coordinator restarts too.
//! * **Supervision** — dead workers are respawned (bounded by
//!   [`FleetConfig::max_worker_restarts`]); when every worker is dead
//!   and the restart budget is spent, queued jobs fail with a typed
//!   error instead of waiting forever.
//! * **Graceful drain** — [`FleetCoordinator::drain`] stops leasing,
//!   waits for in-flight leases to finish, sends `drain` frames, and
//!   reaps the children. Jobs still queued stay journaled for the next
//!   coordinator — exactly what a SIGTERM'd deployment wants.

use crate::backoff::BackoffConfig;
use crate::chaos::FleetFaultPlan;
use crate::events::{EventBus, EventKind};
use crate::job::{JobSnapshot, JobSpec, JobState, Priority};
use crate::proto::{spec_fingerprint, CoordFrame, DoneFrame, WorkerFrame, MAX_FRAME_BYTES};
use crate::queue::{Admitted, BoundedQueue, Popped, QueueEntry};
use crate::service::{percentiles, render_json, Readiness, ServeError, SubmitError};
use sprout_telemetry::{self as telemetry, json::Obj};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker processes to spawn at start.
    pub workers: usize,
    /// Worker executable. `None` resolves `sprout_fleet_worker` next to
    /// the current executable — correct for the shipped binaries, which
    /// land in the same target directory.
    pub worker_cmd: Option<PathBuf>,
    /// Extra arguments appended to every worker invocation (e.g.
    /// `--router fast`).
    pub worker_args: Vec<String>,
    /// Admission-queue capacity (the backpressure bound).
    pub queue_capacity: usize,
    /// Journal + checkpoint directory, shared with the workers. `None`
    /// disables crash recovery *and* cross-process resume.
    pub data_dir: Option<PathBuf>,
    /// Heartbeat period workers are told to use (ms).
    pub heartbeat_ms: u64,
    /// Silence past this declares a worker dead (ms). Must comfortably
    /// exceed `heartbeat_ms`.
    pub heartbeat_timeout_ms: u64,
    /// Dispatch attempts per job before it fails terminally.
    pub max_job_retries: usize,
    /// Replacement workers spawned over the coordinator's lifetime.
    pub max_worker_restarts: usize,
    /// Seeded-jitter delay schedule for re-dispatch.
    pub backoff: BackoffConfig,
    /// Deadline for jobs that do not bring their own (ms).
    pub default_deadline_ms: Option<f64>,
    /// Queue-depth fraction at which `/readyz` reports overload.
    pub overload_watermark: f64,
    /// SIGKILL workers on death declaration. `false` leaves a silent
    /// worker running — the configuration that exercises the
    /// stale-finalize path, since the zombie eventually reports.
    pub kill_dead_workers: bool,
    /// Process-level fault plan forwarded to every worker (testing
    /// only).
    pub fault: Option<FleetFaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            worker_cmd: None,
            worker_args: Vec::new(),
            queue_capacity: 64,
            data_dir: None,
            heartbeat_ms: 50,
            heartbeat_timeout_ms: 500,
            max_job_retries: 3,
            max_worker_restarts: 8,
            backoff: BackoffConfig {
                base_ms: 20.0,
                ..BackoffConfig::default()
            },
            default_deadline_ms: None,
            overload_watermark: 0.75,
            kill_dead_workers: true,
            fault: None,
        }
    }
}

/// Fleet counters, the `/metrics` payload of a fleet-backed server.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Workers currently alive (heartbeating or within their timeout).
    pub workers_live: usize,
    /// Workers spawned since start (initial + replacements).
    pub workers_spawned: u64,
    /// Workers declared dead.
    pub workers_dead: u64,
    /// Replacement workers spawned after a death.
    pub worker_restarts: u64,
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently out under a lease.
    pub leased: usize,
    /// Jobs accepted (recovered jobs included).
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
    /// Worker-reported retryable failures re-dispatched.
    pub retries: u64,
    /// Leases expired by worker death and re-dispatched.
    pub redispatches: u64,
    /// `done` frames rejected for carrying an expired lease or an
    /// already-terminal job — the double-finalize attempts defeated.
    pub stale_finalizes: u64,
    /// Jobs re-admitted from the journal at start.
    pub recovered: u64,
    /// Duplicate/conflicting journal records ignored during replay.
    pub journal_duplicates: u64,
    /// In-memory double-finalize attempts — always 0 unless the
    /// exactly-once invariant broke.
    pub terminal_violations: u64,
    /// Median admission→terminal latency (ms).
    pub latency_p50_ms: f64,
    /// 99th-percentile admission→terminal latency (ms).
    pub latency_p99_ms: f64,
    /// Seconds since the coordinator started.
    pub uptime_seconds: f64,
    /// Events published onto the fleet's per-job event bus.
    pub events_published: u64,
    /// Events evicted from full per-job rings (drop-oldest).
    pub events_dropped: u64,
    /// Median admission→lease queue wait (ms).
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile admission→lease queue wait (ms).
    pub queue_wait_p99_ms: f64,
    /// Queue-wait samples recorded (one per lease grant).
    pub queue_wait_count: u64,
    /// Sum of all queue waits (ms) — the Prometheus summary `_sum`.
    pub queue_wait_sum_ms: f64,
    /// Sum of all terminal latencies (ms) — the Prometheus summary `_sum`.
    pub latency_sum_ms: f64,
}

impl FleetMetrics {
    /// One JSON line (the fleet `/metrics` body).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.u64("workers_live", self.workers_live as u64)
            .u64("workers_spawned", self.workers_spawned)
            .u64("workers_dead", self.workers_dead)
            .u64("worker_restarts", self.worker_restarts)
            .u64("queue_depth", self.queue_depth as u64)
            .u64("leased", self.leased as u64)
            .u64("accepted", self.accepted)
            .u64("rejected", self.rejected)
            .u64("completed", self.completed)
            .u64("best_so_far", self.best_so_far)
            .u64("failed", self.failed)
            .u64("shed", self.shed)
            .u64("expired", self.expired)
            .u64("cancelled", self.cancelled)
            .u64("retries", self.retries)
            .u64("redispatches", self.redispatches)
            .u64("stale_finalizes", self.stale_finalizes)
            .u64("recovered", self.recovered)
            .u64("journal_duplicates", self.journal_duplicates)
            .u64("terminal_violations", self.terminal_violations)
            .f64("latency_p50_ms", self.latency_p50_ms)
            .f64("latency_p99_ms", self.latency_p99_ms)
            .f64("uptime_seconds", self.uptime_seconds)
            .u64("events_published", self.events_published)
            .u64("events_dropped", self.events_dropped)
            .f64("queue_wait_p50_ms", self.queue_wait_p50_ms)
            .f64("queue_wait_p99_ms", self.queue_wait_p99_ms);
        o.finish()
    }

    /// Prometheus text exposition of the same counters, under
    /// `<prefix>` (the fleet server uses `sprout_fleet_`).
    pub fn to_prometheus(&self, prefix: &str) -> String {
        use sprout_telemetry::prom::PromText;
        let name = |n: &str| format!("{prefix}{n}");
        let mut p = PromText::new();
        p.gauge(
            &name("queue_depth"),
            "Jobs waiting in the queue.",
            self.queue_depth as f64,
        );
        p.gauge(
            &name("leased"),
            "Jobs currently out under a lease.",
            self.leased as f64,
        );
        p.gauge(
            &name("workers_live"),
            "Workers currently alive.",
            self.workers_live as f64,
        );
        p.gauge(
            &name("uptime_seconds"),
            "Seconds since the coordinator started.",
            self.uptime_seconds,
        );
        let counters: &[(&str, &str, u64)] = &[
            (
                "workers_spawned_total",
                "Workers spawned since start.",
                self.workers_spawned,
            ),
            (
                "workers_dead_total",
                "Workers declared dead.",
                self.workers_dead,
            ),
            (
                "worker_restarts_total",
                "Replacement workers spawned.",
                self.worker_restarts,
            ),
            ("accepted_total", "Jobs accepted.", self.accepted),
            (
                "rejected_total",
                "Submissions rejected with backpressure.",
                self.rejected,
            ),
            ("completed_total", "Jobs completed.", self.completed),
            (
                "best_so_far_total",
                "Partial results shipped.",
                self.best_so_far,
            ),
            (
                "failed_total",
                "Jobs failed with a typed error.",
                self.failed,
            ),
            ("shed_total", "Jobs shed under saturation.", self.shed),
            (
                "expired_total",
                "Jobs expired past their deadline.",
                self.expired,
            ),
            ("cancelled_total", "Jobs cancelled.", self.cancelled),
            (
                "retries_total",
                "Worker-reported retryable failures re-dispatched.",
                self.retries,
            ),
            (
                "redispatches_total",
                "Leases expired by worker death and re-dispatched.",
                self.redispatches,
            ),
            (
                "stale_finalizes_total",
                "Double-finalize attempts defeated.",
                self.stale_finalizes,
            ),
            (
                "recovered_total",
                "Jobs re-admitted from the journal.",
                self.recovered,
            ),
            (
                "journal_duplicates_total",
                "Duplicate journal records ignored.",
                self.journal_duplicates,
            ),
            (
                "terminal_violations_total",
                "Exactly-once invariant violations.",
                self.terminal_violations,
            ),
            (
                "events_published_total",
                "Events published onto the event bus.",
                self.events_published,
            ),
            (
                "events_dropped_total",
                "Events evicted from full per-job rings.",
                self.events_dropped,
            ),
        ];
        for (n, help, v) in counters {
            p.counter(&name(n), help, *v);
        }
        let terminal = self.completed
            + self.best_so_far
            + self.failed
            + self.shed
            + self.expired
            + self.cancelled;
        p.summary(
            &name("latency_ms"),
            "Admission-to-terminal latency (ms).",
            &[(0.5, self.latency_p50_ms), (0.99, self.latency_p99_ms)],
            terminal,
            self.latency_sum_ms,
        );
        p.summary(
            &name("queue_wait_ms"),
            "Admission-to-lease queue wait (ms).",
            &[
                (0.5, self.queue_wait_p50_ms),
                (0.99, self.queue_wait_p99_ms),
            ],
            self.queue_wait_count,
            self.queue_wait_sum_ms,
        );
        p.registry("sprout_", telemetry::metrics::global());
        p.finish()
    }
}

// ---- journal -----------------------------------------------------------

/// The outcome of replaying a fleet journal — a pure function of the
/// journal text, exposed so the idempotence tests can drive it with
/// hand-built (including hostile) journals.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Admitted jobs without a terminal record, in id order: the work a
    /// restarted coordinator must re-dispatch.
    pub pending: Vec<(u64, JobSpec, Option<f64>)>,
    /// First terminal record per job: `id → (state name, fingerprint)`.
    pub terminal: HashMap<u64, (String, u64)>,
    /// Duplicate admits and duplicate/conflicting terminal records
    /// ignored (first record wins).
    pub duplicates: u64,
    /// Unparseable or orphaned lines skipped.
    pub malformed: u64,
    /// One past the highest id seen.
    pub next_id: u64,
}

/// Replays a fleet journal. First record wins throughout: a journal
/// holding duplicate or interleaved terminal records for one job — the
/// slow-then-revived worker, or a double-finalize bug — still replays
/// to exactly one terminal state per job. A terminal record whose
/// fingerprint does not match the admitted spec is ignored as
/// malformed: it cannot have been computed for that job.
pub fn replay_journal(text: &str) -> JournalReplay {
    use sprout_telemetry::json::{self, Json};
    let mut out = JournalReplay::default();
    let mut admitted: HashMap<u64, (JobSpec, u64, Option<f64>)> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.len() > MAX_FRAME_BYTES {
            out.malformed += 1;
            continue;
        }
        let Ok(root) = json::parse(line) else {
            out.malformed += 1;
            continue;
        };
        let kind = root.get("kind").and_then(Json::as_str).unwrap_or("");
        let Some(id) = root.get("id").and_then(Json::as_u64) else {
            out.malformed += 1;
            continue;
        };
        // Fingerprints are full 64-bit values; JSON numbers are f64 and
        // would round them, so the journal stores them as hex strings.
        let Some(fp) = root
            .get("fp")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
        else {
            out.malformed += 1;
            continue;
        };
        out.next_id = out.next_id.max(id + 1);
        match kind {
            "admit" => {
                let Some(spec_json) = root.get("spec").map(render_json) else {
                    out.malformed += 1;
                    continue;
                };
                let Ok(spec) = JobSpec::parse(&spec_json) else {
                    out.malformed += 1;
                    continue;
                };
                if spec_fingerprint(&spec) != fp {
                    out.malformed += 1;
                    continue;
                }
                if admitted.contains_key(&id) {
                    out.duplicates += 1;
                    continue;
                }
                let deadline = root.get("deadline_ms").and_then(|v| v.as_f64());
                admitted.insert(id, (spec, fp, deadline));
                order.push(id);
            }
            "done" => {
                let Some(state) = root.get("state").and_then(Json::as_str) else {
                    out.malformed += 1;
                    continue;
                };
                match admitted.get(&id) {
                    None => out.malformed += 1, // orphaned terminal record
                    Some((_, admit_fp, _)) if *admit_fp != fp => out.malformed += 1,
                    Some(_) => match out.terminal.entry(id) {
                        Entry::Occupied(_) => out.duplicates += 1, // first record wins
                        Entry::Vacant(v) => {
                            v.insert((state.to_owned(), fp));
                        }
                    },
                }
            }
            _ => out.malformed += 1,
        }
    }
    for id in order {
        if out.terminal.contains_key(&id) {
            continue;
        }
        let (spec, _, deadline) = admitted.remove(&id).expect("ordered ids were admitted");
        out.pending.push((id, spec, deadline));
    }
    out
}

fn state_from_name(name: &str) -> Option<JobState> {
    match name {
        "completed" => Some(JobState::Completed),
        "best_so_far" => Some(JobState::BestSoFar),
        "failed" => Some(JobState::Failed),
        "shed" => Some(JobState::Shed),
        "expired" => Some(JobState::Expired),
        "cancelled" => Some(JobState::Cancelled),
        _ => None,
    }
}

// ---- coordinator internals ---------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Idle,
    Leased { job: u64, lease: u64 },
    Dead,
}

struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pid: u32,
    state: SlotState,
    last_beat: Instant,
}

struct FleetJob {
    id: u64,
    spec: JobSpec,
    fp: u64,
    state: JobState,
    priority: Priority,
    attempts: usize,
    submitted: Instant,
    deadline_ms: Option<f64>,
    queue_ms: f64,
    run_ms: f64,
    rails_total: usize,
    rails_complete: usize,
    resumed: usize,
    recovered: bool,
    lease: Option<(u64, usize)>,
    solves: u64,
    area_mm2: f64,
    error: Option<String>,
    terminal_transitions: usize,
}

impl FleetJob {
    /// A freshly admitted (or journal-recovered) job waiting for a lease.
    fn queued(
        id: u64,
        spec: JobSpec,
        fp: u64,
        deadline_ms: Option<f64>,
        recovered: bool,
    ) -> FleetJob {
        FleetJob {
            id,
            rails_total: spec.rails.len(),
            priority: spec.priority,
            spec,
            fp,
            state: JobState::Queued,
            attempts: 0,
            submitted: Instant::now(),
            deadline_ms,
            queue_ms: 0.0,
            run_ms: 0.0,
            rails_complete: 0,
            resumed: 0,
            recovered,
            lease: None,
            solves: 0,
            area_mm2: 0.0,
            error: None,
            terminal_transitions: 0,
        }
    }

    fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            id: self.id,
            tag: self.spec.tag.clone(),
            state: self.state,
            priority: self.priority,
            attempts: self.attempts,
            rails_total: self.rails_total,
            rails_complete: self.rails_complete,
            resumed: self.resumed,
            recovered: self.recovered,
            killed: false,
            queue_ms: self.queue_ms,
            run_ms: self.run_ms,
            solves: self.solves,
            area_mm2: self.area_mm2,
            error: self.error.clone(),
            terminal_transitions: self.terminal_transitions,
        }
    }
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    best_so_far: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    retries: AtomicU64,
    redispatches: AtomicU64,
    stale_finalizes: AtomicU64,
    recovered: AtomicU64,
    journal_duplicates: AtomicU64,
    terminal_violations: AtomicU64,
    workers_spawned: AtomicU64,
    workers_dead: AtomicU64,
    worker_restarts: AtomicU64,
}

struct Inner {
    workers: Vec<WorkerSlot>,
    jobs: HashMap<u64, FleetJob>,
}

struct Shared {
    config: FleetConfig,
    queue: BoundedQueue,
    inner: Mutex<Inner>,
    journal: Mutex<Option<std::fs::File>>,
    counters: Counters,
    latencies: Mutex<Vec<f64>>,
    queue_waits: Mutex<Vec<f64>>,
    next_id: AtomicU64,
    next_lease: AtomicU64,
    draining: AtomicBool,
    started: Instant,
    bus: Arc<EventBus>,
}

impl Shared {
    fn new(config: FleetConfig, journal: Option<std::fs::File>, next_id: u64) -> Shared {
        Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            inner: Mutex::new(Inner {
                workers: Vec::new(),
                jobs: HashMap::new(),
            }),
            journal: Mutex::new(journal),
            counters: Counters::default(),
            latencies: Mutex::new(Vec::new()),
            queue_waits: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(next_id),
            next_lease: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            bus: Arc::new(EventBus::default()),
            config,
        }
    }
}

/// The running fleet coordinator. Share behind an `Arc` when multiple
/// frontends need it — the HTTP server does.
pub struct FleetCoordinator {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl FleetCoordinator {
    /// Starts the fleet: prepares the data directory, replays the
    /// journal (re-admitting unfinished jobs — coordinator crash
    /// recovery), spawns the worker processes, and starts the
    /// dispatcher and heartbeat monitor.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the configuration is unusable, the data
    /// directory cannot be prepared, or no worker can be spawned.
    pub fn start(config: FleetConfig) -> Result<FleetCoordinator, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "a fleet needs at least one worker",
            ));
        }
        if config.heartbeat_timeout_ms <= config.heartbeat_ms {
            return Err(ServeError::InvalidConfig(
                "heartbeat_timeout_ms must exceed heartbeat_ms",
            ));
        }

        let mut journal_file = None;
        let mut replay = JournalReplay::default();
        if let Some(dir) = &config.data_dir {
            std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
            let path = dir.join("fleet.journal");
            if let Ok(text) = std::fs::read_to_string(&path) {
                replay = replay_journal(&text);
            }
            journal_file = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| ServeError::Io(e.to_string()))?,
            );
        }

        let shared = Arc::new(Shared::new(config, journal_file, replay.next_id.max(1)));
        shared
            .counters
            .journal_duplicates
            .store(replay.duplicates, Ordering::Relaxed);

        let fleet = FleetCoordinator {
            shared: Arc::clone(&shared),
            threads: Mutex::new(Vec::new()),
        };

        // Materialize journal state: terminal jobs stay terminal (their
        // in-memory guard blocks any late double finalize), unfinished
        // jobs re-enter the queue.
        {
            let mut inner = lock_inner(&shared);
            for (&id, (state, fp)) in &replay.terminal {
                let Some(state) = state_from_name(state) else {
                    continue; // tombstones (e.g. rejected submissions)
                };
                // The spec is not re-materialized for terminal jobs.
                let placeholder = FleetJob::queued(id, JobSpec::two_rail(0.1), *fp, None, true);
                inner.jobs.insert(
                    id,
                    FleetJob {
                        state,
                        priority: Priority::Normal,
                        rails_total: 0,
                        terminal_transitions: 1,
                        ..placeholder
                    },
                );
            }
            for (id, spec, deadline_ms) in replay.pending {
                let priority = spec.priority;
                let fp = spec_fingerprint(&spec);
                inner
                    .jobs
                    .insert(id, FleetJob::queued(id, spec, fp, deadline_ms, true));
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                shared.counters.recovered.fetch_add(1, Ordering::Relaxed);
                telemetry::counter!("fleet.recovered");
                shared.queue.reenter(id, priority, 0, Duration::ZERO);
            }
        }

        for _ in 0..shared.config.workers {
            let handle = spawn_worker(&shared).map_err(|e| ServeError::Io(e.to_string()))?;
            fleet
                .threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }

        {
            let mut threads = fleet.threads.lock().unwrap_or_else(|e| e.into_inner());
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("fleet-dispatch".into())
                    .spawn(move || dispatch_loop(&s))
                    .map_err(|e| ServeError::Io(e.to_string()))?,
            );
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("fleet-monitor".into())
                    .spawn(move || monitor_loop(&s))
                    .map_err(|e| ServeError::Io(e.to_string()))?,
            );
        }
        Ok(fleet)
    }

    /// Submits a job. The id returns only once the admission record is
    /// in the journal — from that point the fleet guarantees exactly
    /// one terminal state, across worker deaths and coordinator
    /// restarts.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] with the HTTP-facing rejection reason.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let s = &self.shared;
        if s.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let board = spec.resolve_board().map_err(SubmitError::Invalid)?;
        spec.requests(&board).map_err(SubmitError::Invalid)?;

        let id = s.next_id.fetch_add(1, Ordering::SeqCst);
        let priority = spec.priority;
        let fp = spec_fingerprint(&spec);
        let deadline_ms = spec.deadline_ms.or(s.config.default_deadline_ms);

        // Journal before queueing — accepted means crash-survivable.
        if let Err(e) = journal_admit(s, id, fp, &spec, deadline_ms) {
            return Err(SubmitError::Journal(e));
        }

        lock_inner(s)
            .jobs
            .insert(id, FleetJob::queued(id, spec, fp, deadline_ms, false));

        match s.queue.admit(id, priority) {
            Ok(Admitted::Queued) => {}
            Ok(Admitted::Shed { victim }) => {
                telemetry::counter!("fleet.sheds");
                finalize(
                    s,
                    victim,
                    JobState::Shed,
                    Some("shed by higher-priority arrival".into()),
                );
            }
            Err(_) => {
                // Rejected: tombstone the admit line so a restart never
                // resurrects a job the client was told was refused.
                {
                    let mut inner = lock_inner(s);
                    inner.jobs.remove(&id);
                }
                journal_done(s, id, fp, "rejected");
                s.counters.rejected.fetch_add(1, Ordering::Relaxed);
                telemetry::counter!("fleet.rejected");
                let retry_after_ms = s.config.backoff.delay_ms(id, 0);
                return Err(if s.draining.load(Ordering::SeqCst) {
                    SubmitError::Draining
                } else {
                    SubmitError::Saturated { retry_after_ms }
                });
            }
        }
        s.counters.accepted.fetch_add(1, Ordering::Relaxed);
        telemetry::counter!("fleet.accepted");
        Ok(id)
    }

    /// The snapshot of one job, if known.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let inner = lock_inner(&self.shared);
        inner.jobs.get(&id).map(FleetJob::snapshot)
    }

    /// Snapshots of every known job, ordered by id.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        let inner = lock_inner(&self.shared);
        let mut out: Vec<JobSnapshot> = inner.jobs.values().map(FleetJob::snapshot).collect();
        out.sort_by_key(|j| j.id);
        out
    }

    /// Cancels a *queued* job. Jobs already out under a lease cannot be
    /// cancelled cross-process (there is no preemption frame — by
    /// design, a leased job either finishes or its worker dies);
    /// `false` for those, for unknown ids, and for terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let s = &self.shared;
        {
            let inner = lock_inner(s);
            match inner.jobs.get(&id) {
                Some(rec) if !rec.state.is_terminal() && rec.lease.is_none() => {}
                _ => return false,
            }
        }
        if s.queue.remove(id) {
            finalize(
                s,
                id,
                JobState::Cancelled,
                Some("cancelled while queued".into()),
            );
            return true;
        }
        false
    }

    /// Current readiness: `Draining` once a drain began (the fleet
    /// `/readyz` turns 503), `Overloaded` past the queue watermark.
    pub fn ready(&self) -> Readiness {
        let s = &self.shared;
        if s.draining.load(Ordering::SeqCst) {
            return Readiness::Draining;
        }
        let cap = s.queue.capacity().max(1);
        let watermark = (s.config.overload_watermark.clamp(0.0, 1.0) * cap as f64).ceil() as usize;
        if s.queue.len() >= watermark.max(1) {
            Readiness::Overloaded
        } else {
            Readiness::Ready
        }
    }

    /// The per-job event bus feeding `GET /jobs/:id/events`. Worker
    /// progress frames are republished here, so a fleet-backed stream
    /// looks identical to an in-process one.
    pub fn events(&self) -> Arc<EventBus> {
        Arc::clone(&self.shared.bus)
    }

    /// Current counters and latency percentiles.
    pub fn metrics(&self) -> FleetMetrics {
        let s = &self.shared;
        let c = &s.counters;
        let (workers_live, leased) = {
            let inner = lock_inner(s);
            (
                inner
                    .workers
                    .iter()
                    .filter(|w| w.state != SlotState::Dead)
                    .count(),
                inner.jobs.values().filter(|j| j.lease.is_some()).count(),
            )
        };
        let (p50, p99, lat_sum) = {
            let lat = s.latencies.lock().unwrap_or_else(|e| e.into_inner());
            let (p50, p99) = percentiles(&lat);
            (p50, p99, lat.iter().sum())
        };
        let (qw50, qw99, qw_count, qw_sum) = {
            let qw = s.queue_waits.lock().unwrap_or_else(|e| e.into_inner());
            let (p50, p99) = percentiles(&qw);
            (p50, p99, qw.len() as u64, qw.iter().sum())
        };
        FleetMetrics {
            workers_live,
            workers_spawned: c.workers_spawned.load(Ordering::Relaxed),
            workers_dead: c.workers_dead.load(Ordering::Relaxed),
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            queue_depth: s.queue.len(),
            leased,
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            best_so_far: c.best_so_far.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            redispatches: c.redispatches.load(Ordering::Relaxed),
            stale_finalizes: c.stale_finalizes.load(Ordering::Relaxed),
            recovered: c.recovered.load(Ordering::Relaxed),
            journal_duplicates: c.journal_duplicates.load(Ordering::Relaxed),
            terminal_violations: c.terminal_violations.load(Ordering::Relaxed),
            latency_p50_ms: p50,
            latency_p99_ms: p99,
            uptime_seconds: s.started.elapsed().as_secs_f64(),
            events_published: s.bus.events_published(),
            events_dropped: s.bus.events_dropped(),
            queue_wait_p50_ms: qw50,
            queue_wait_p99_ms: qw99,
            queue_wait_count: qw_count,
            queue_wait_sum_ms: qw_sum,
            latency_sum_ms: lat_sum,
        }
    }

    /// OS pids of the workers currently considered live — the handles
    /// the process-level chaos tests aim real `SIGKILL`/`SIGSTOP` at.
    pub fn worker_pids(&self) -> Vec<u32> {
        let inner = lock_inner(&self.shared);
        inner
            .workers
            .iter()
            .filter(|w| w.state != SlotState::Dead)
            .map(|w| w.pid)
            .collect()
    }

    /// Blocks until every accepted job is terminal or the timeout
    /// passes. `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.is_idle() {
                return true;
            }
            if Instant::now() >= deadline {
                return self.is_idle();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn is_idle(&self) -> bool {
        let s = &self.shared;
        if !s.queue.is_empty() {
            return false;
        }
        let inner = lock_inner(s);
        inner.jobs.values().all(|r| r.state.is_terminal())
    }

    /// Graceful drain (the SIGTERM path): stop admitting and leasing,
    /// wait for in-flight leases to finish (bounded by `timeout`), ask
    /// every worker to exit, and reap the children. Jobs still queued
    /// stay journaled — a later coordinator recovers them. Returns
    /// `true` when every lease finished in time.
    pub fn drain(&self, timeout: Duration) -> bool {
        let s = &self.shared;
        s.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        let drained = loop {
            let outstanding = {
                let inner = lock_inner(s);
                inner.jobs.values().filter(|j| j.lease.is_some()).count()
            };
            if outstanding == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };

        // Ask workers to exit, then close their stdin so even a worker
        // that misses the frame sees EOF.
        {
            let mut inner = lock_inner(s);
            for w in inner.workers.iter_mut() {
                if let Some(stdin) = &mut w.stdin {
                    let _ = writeln!(stdin, "{}", CoordFrame::Drain.to_json());
                    let _ = stdin.flush();
                }
                w.stdin = None;
            }
        }
        self.reap_all(Duration::from_secs(10));
        s.queue.close();
        self.join_threads();
        drained
    }

    /// Abrupt stop — the coordinator-crash simulation for restart
    /// tests: kill every worker, join nothing gracefully, finalize
    /// nothing. The journal and checkpoints stay exactly as they were;
    /// only a fresh [`FleetCoordinator::start`] on the same data
    /// directory finishes the surviving jobs.
    pub fn shutdown_abrupt(&self) {
        let s = &self.shared;
        s.draining.store(true, Ordering::SeqCst);
        {
            let mut inner = lock_inner(s);
            for w in inner.workers.iter_mut() {
                w.stdin = None;
                if let Some(child) = &mut w.child {
                    let _ = child.kill();
                }
            }
        }
        self.reap_all(Duration::from_secs(5));
        s.queue.close();
        self.join_threads();
    }

    fn reap_all(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let mut alive = false;
            {
                let mut inner = lock_inner(&self.shared);
                for w in inner.workers.iter_mut() {
                    if let Some(child) = &mut w.child {
                        match child.try_wait() {
                            Ok(Some(_)) => {
                                w.child = None;
                            }
                            Ok(None) => alive = true,
                            Err(_) => {
                                w.child = None;
                            }
                        }
                    }
                }
                if alive && Instant::now() >= deadline {
                    for w in inner.workers.iter_mut() {
                        if let Some(child) = &mut w.child {
                            let _ = child.kill();
                            let _ = child.wait();
                            w.child = None;
                        }
                    }
                    return;
                }
            }
            if !alive {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn join_threads(&self) {
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        for h in threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FleetCoordinator {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        {
            let mut inner = lock_inner(&self.shared);
            for w in inner.workers.iter_mut() {
                w.stdin = None;
                if let Some(child) = &mut w.child {
                    let _ = child.kill();
                    let _ = child.wait();
                    w.child = None;
                }
            }
        }
        self.shared.queue.close();
        self.join_threads();
    }
}

fn lock_inner(s: &Shared) -> std::sync::MutexGuard<'_, Inner> {
    s.inner.lock().unwrap_or_else(|e| e.into_inner())
}

// ---- journal writes ----------------------------------------------------

fn journal_admit(
    s: &Shared,
    id: u64,
    fp: u64,
    spec: &JobSpec,
    deadline_ms: Option<f64>,
) -> Result<(), String> {
    let mut journal = s.journal.lock().unwrap_or_else(|e| e.into_inner());
    let Some(file) = journal.as_mut() else {
        return Ok(());
    };
    let mut o = Obj::new();
    o.str("kind", "admit")
        .u64("id", id)
        .str("fp", &format!("{fp:016x}"))
        .raw("spec", &spec.to_json());
    if let Some(d) = deadline_ms {
        o.f64("deadline_ms", d);
    }
    writeln!(file, "{}", o.finish())
        .and_then(|_| file.flush())
        .map_err(|e| e.to_string())
}

fn journal_done(s: &Shared, id: u64, fp: u64, state: &str) {
    let mut journal = s.journal.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(file) = journal.as_mut() {
        let mut o = Obj::new();
        o.str("kind", "done")
            .u64("id", id)
            .str("fp", &format!("{fp:016x}"))
            .str("state", state);
        let _ = writeln!(file, "{}", o.finish());
        let _ = file.flush();
    }
}

// ---- terminal transition -----------------------------------------------

/// The single terminal transition: in-memory exactly-once guard, one
/// terminal counter, one journal record, checkpoint cleanup.
fn finalize(s: &Shared, id: u64, state: JobState, error: Option<String>) {
    debug_assert!(state.is_terminal());
    let (latency_ms, fp, terminal_error) = {
        let mut inner = lock_inner(s);
        let Some(rec) = inner.jobs.get_mut(&id) else {
            return;
        };
        rec.terminal_transitions += 1;
        if rec.terminal_transitions > 1 {
            s.counters
                .terminal_violations
                .fetch_add(1, Ordering::Relaxed);
            telemetry::counter!("fleet.terminal_violations");
            return;
        }
        rec.state = state;
        rec.lease = None;
        if rec.error.is_none() {
            rec.error = error;
        }
        (
            rec.submitted.elapsed().as_secs_f64() * 1e3,
            rec.fp,
            rec.error.clone(),
        )
    };

    let counter = match state {
        JobState::Completed => &s.counters.completed,
        JobState::BestSoFar => &s.counters.best_so_far,
        JobState::Failed => &s.counters.failed,
        JobState::Shed => &s.counters.shed,
        JobState::Expired => &s.counters.expired,
        JobState::Cancelled => &s.counters.cancelled,
        JobState::Queued | JobState::Running => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    telemetry::point("fleet_job_terminal")
        .field("job", id)
        .field("state", state.name())
        .field("latency_ms", latency_ms)
        .emit();
    // Exactly one Terminal event per job: guarded by the same
    // terminal_transitions check a zombie finalize cannot pass.
    s.bus.publish(id, EventKind::Terminal, |o| {
        o.str("state", state.name()).f64("latency_ms", latency_ms);
        if let Some(e) = &terminal_error {
            o.str("error", e);
        }
    });
    {
        let mut lat = s.latencies.lock().unwrap_or_else(|e| e.into_inner());
        lat.push(latency_ms);
    }
    journal_done(s, id, fp, state.name());
    if let Some(dir) = &s.config.data_dir {
        let _ = std::fs::remove_file(dir.join(format!("ckpt-{id}")));
    }
}

// ---- worker lifecycle --------------------------------------------------

fn worker_command(config: &FleetConfig) -> PathBuf {
    config.worker_cmd.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .map(|p| p.with_file_name("sprout_fleet_worker"))
            .unwrap_or_else(|_| PathBuf::from("sprout_fleet_worker"))
    })
}

fn spawn_worker(s: &Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    let mut cmd = Command::new(worker_command(&s.config));
    cmd.arg("--heartbeat-ms")
        .arg(s.config.heartbeat_ms.to_string())
        .args(&s.config.worker_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(f) = &s.config.fault {
        cmd.arg("--chaos-seed").arg(f.seed.to_string());
        cmd.arg("--kill-rate").arg(f.kill_rate.to_string());
        cmd.arg("--stall-rate").arg(f.stall_rate.to_string());
        cmd.arg("--stall-ms").arg(f.stall_ms.to_string());
        cmd.arg("--blackout-rate").arg(f.blackout_rate.to_string());
        cmd.arg("--blackout-ms").arg(f.blackout_ms.to_string());
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("worker stdout not captured"))?;
    let pid = child.id();

    let w = {
        let mut inner = lock_inner(s);
        // `drain` raises the flag before it closes every registered
        // worker's stdin under this lock. A replacement that passed
        // `worker_died`'s unlocked check but registers after that must
        // not keep its pipe open: it would never see EOF, and drain
        // would wait out its reap timeout.
        let stdin = if s.draining.load(Ordering::SeqCst) {
            None
        } else {
            stdin
        };
        inner.workers.push(WorkerSlot {
            child: Some(child),
            stdin,
            pid,
            state: SlotState::Idle,
            last_beat: Instant::now(),
        });
        inner.workers.len() - 1
    };
    s.counters.workers_spawned.fetch_add(1, Ordering::Relaxed);
    telemetry::counter!("fleet.workers_spawned");

    let shared = Arc::clone(s);
    std::thread::Builder::new()
        .name(format!("fleet-read-{w}"))
        .spawn(move || reader_loop(&shared, w, stdout))
}

fn reader_loop(s: &Arc<Shared>, w: usize, stdout: std::process::ChildStdout) {
    let reader = BufReader::new(stdout);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(frame) = WorkerFrame::parse(&line) else {
            telemetry::counter!("fleet.bad_frames");
            continue;
        };
        match frame {
            WorkerFrame::Hello { .. } | WorkerFrame::Heartbeat { .. } => {
                let mut inner = lock_inner(s);
                let slot = &mut inner.workers[w];
                if slot.state != SlotState::Dead {
                    slot.last_beat = Instant::now();
                }
            }
            WorkerFrame::Progress {
                job,
                lease,
                wave,
                waves,
                rails_complete,
                stage,
                elapsed_ms,
                solve_ms,
            } => {
                let publish = {
                    let mut inner = lock_inner(s);
                    if inner.workers[w].state != SlotState::Dead {
                        inner.workers[w].last_beat = Instant::now();
                    }
                    match inner.jobs.get_mut(&job) {
                        // Only the current lease publishes: a zombie
                        // worker's frames must not pollute the stream.
                        Some(rec) if rec.lease == Some((lease, w)) => {
                            rec.rails_complete = rec.rails_complete.max(rails_complete);
                            Some((rec.rails_complete, rec.rails_total))
                        }
                        _ => None,
                    }
                };
                if let Some((rails_done, rails_total)) = publish {
                    if stage == "wave" {
                        s.bus.publish(job, EventKind::Progress, |o| {
                            o.u64("wave", wave as u64)
                                .u64("waves", waves as u64)
                                .u64("rails_complete", rails_done as u64)
                                .u64("rails_total", rails_total as u64)
                                .f64("elapsed_ms", elapsed_ms)
                                .f64("solve_ms", solve_ms);
                        });
                    } else {
                        s.bus.publish(job, EventKind::Stage, |o| {
                            o.str("stage", &stage).f64("elapsed_ms", elapsed_ms);
                        });
                    }
                }
            }
            WorkerFrame::Done(done) => handle_done(s, w, done),
        }
    }
    // EOF: the worker process is gone (exit, SIGKILL, or drain).
    worker_died(s, w, "worker pipe closed");
    let child = {
        let mut inner = lock_inner(s);
        inner.workers[w].child.take()
    };
    if let Some(mut c) = child {
        let _ = c.wait();
    }
}

/// Declares worker `w` dead (idempotent): expires its lease so the job
/// re-enters the queue with backoff, optionally SIGKILLs the process,
/// and spawns a replacement while the restart budget lasts.
fn worker_died(s: &Arc<Shared>, w: usize, why: &str) {
    let expired_lease = {
        let mut inner = lock_inner(s);
        let slot = &mut inner.workers[w];
        if slot.state == SlotState::Dead {
            return;
        }
        let lease = match slot.state {
            SlotState::Leased { job, lease } => Some((job, lease)),
            _ => None,
        };
        slot.state = SlotState::Dead;
        slot.stdin = None;
        if s.config.kill_dead_workers {
            if let Some(child) = &mut slot.child {
                let _ = child.kill();
            }
        }
        lease
    };
    // A worker exiting cleanly after the Drain frame is retirement, not
    // death — don't let graceful shutdown inflate the fault counters.
    if !s.draining.load(Ordering::SeqCst) || expired_lease.is_some() {
        s.counters.workers_dead.fetch_add(1, Ordering::Relaxed);
        telemetry::point("fleet_worker_dead")
            .field("worker", w)
            .field("why", why)
            .emit();
    }

    if let Some((job, lease)) = expired_lease {
        expire_lease(s, job, lease, w);
    }

    // Supervision: replace the dead worker while the budget lasts. The
    // replacement's reader thread is detached — it exits on its pipe's
    // EOF, and shutdown reaps the child itself.
    if !s.draining.load(Ordering::SeqCst) {
        let restarts = s.counters.worker_restarts.load(Ordering::Relaxed);
        if (restarts as usize) < s.config.max_worker_restarts {
            s.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
            match spawn_worker(s) {
                Ok(handle) => drop(handle),
                Err(_) => telemetry::counter!("fleet.respawn_failed"),
            }
        }
    }
}

/// Expires the lease `(job, lease)` held by dead worker `w`: the job
/// re-enters the queue (attempt bumped, seeded backoff) or fails
/// terminally once the retry budget is spent.
fn expire_lease(s: &Arc<Shared>, job: u64, lease: u64, w: usize) {
    let next = {
        let mut inner = lock_inner(s);
        let Some(rec) = inner.jobs.get_mut(&job) else {
            return;
        };
        if rec.state.is_terminal() || rec.lease != Some((lease, w)) {
            return;
        }
        rec.lease = None;
        rec.state = JobState::Queued;
        if rec.attempts <= s.config.max_job_retries {
            Some((rec.priority, rec.attempts))
        } else {
            None
        }
    };
    s.counters.redispatches.fetch_add(1, Ordering::Relaxed);
    telemetry::counter!("fleet.redispatches");
    match next {
        Some((priority, attempts)) => {
            let delay = s
                .config
                .backoff
                .delay_ms(job, attempts.saturating_sub(1) as u32);
            s.bus.publish(job, EventKind::Retry, |o| {
                o.str("reason", "worker_died")
                    .u64("attempt", attempts as u64)
                    .f64("backoff_ms", delay);
            });
            s.queue.reenter(
                job,
                priority,
                attempts,
                Duration::from_secs_f64(delay / 1e3),
            );
        }
        None => finalize(
            s,
            job,
            JobState::Failed,
            Some("worker died and the re-dispatch budget is exhausted".into()),
        ),
    }
}

/// Handles a `done` frame from worker `w`. Only the current lease may
/// finalize; everything else is a defeated double-finalize attempt.
fn handle_done(s: &Arc<Shared>, w: usize, done: DoneFrame) {
    let decision = {
        let mut inner = lock_inner(s);
        if inner.workers[w].state != SlotState::Dead {
            inner.workers[w].last_beat = Instant::now();
        }
        // Free the slot if this frame settles the lease it holds —
        // even a stale done means the worker finished *something*.
        if inner.workers[w].state
            == (SlotState::Leased {
                job: done.job,
                lease: done.lease,
            })
        {
            inner.workers[w].state = SlotState::Idle;
        }
        let Some(rec) = inner.jobs.get_mut(&done.job) else {
            s.counters.stale_finalizes.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if rec.state.is_terminal() || rec.lease != Some((done.lease, w)) {
            // Expired lease or already-terminal job: the revived-worker
            // double finalize, rejected.
            s.counters.stale_finalizes.fetch_add(1, Ordering::Relaxed);
            telemetry::counter!("fleet.stale_finalizes");
            return;
        }
        rec.lease = None;
        rec.run_ms += done.run_ms;
        rec.rails_complete = rec.rails_complete.max(done.rails_complete);
        rec.resumed += done.resumed;
        rec.solves += done.solves;
        rec.area_mm2 = done.area_mm2.max(rec.area_mm2);
        let retry_ok =
            done.retryable && done.state == "failed" && rec.attempts <= s.config.max_job_retries;
        if retry_ok {
            rec.state = JobState::Queued;
            Decision::Retry(rec.priority, rec.attempts)
        } else {
            match done.state.as_str() {
                "completed" => Decision::Final(JobState::Completed, None),
                "expired" => {
                    if done.rails_complete > 0 {
                        Decision::Final(JobState::BestSoFar, done.error.clone())
                    } else {
                        Decision::Final(
                            JobState::Expired,
                            done.error
                                .clone()
                                .or_else(|| Some("deadline expired".into())),
                        )
                    }
                }
                _ => {
                    if done.rails_complete > 0 {
                        Decision::Final(JobState::BestSoFar, done.error.clone())
                    } else {
                        Decision::Final(
                            JobState::Failed,
                            done.error
                                .clone()
                                .or_else(|| Some("no rail completed".into())),
                        )
                    }
                }
            }
        }
    };
    match decision {
        Decision::Retry(priority, attempts) => {
            s.counters.retries.fetch_add(1, Ordering::Relaxed);
            telemetry::counter!("fleet.retries");
            let delay = s
                .config
                .backoff
                .delay_ms(done.job, attempts.saturating_sub(1) as u32);
            s.bus.publish(done.job, EventKind::Retry, |o| {
                o.str("reason", "attempt_failed")
                    .u64("attempt", attempts as u64)
                    .f64("backoff_ms", delay);
            });
            s.queue.reenter(
                done.job,
                priority,
                attempts,
                Duration::from_secs_f64(delay / 1e3),
            );
        }
        Decision::Final(state, error) => finalize(s, done.job, state, error),
    }
}

enum Decision {
    Retry(Priority, usize),
    Final(JobState, Option<String>),
}

// ---- dispatcher --------------------------------------------------------

fn idle_live_worker(inner: &Inner) -> Option<usize> {
    inner
        .workers
        .iter()
        .position(|w| w.state == SlotState::Idle)
}

fn dispatch_loop(s: &Arc<Shared>) {
    loop {
        if s.draining.load(Ordering::SeqCst) {
            // Drain: stop leasing. Queued jobs stay journaled for the
            // next coordinator. Exit once the queue is closed.
            match s.queue.pop(Duration::from_millis(20)) {
                Popped::Closed => return,
                _ => continue,
            }
        }

        // Pop only when a lease could actually be granted: a popped
        // entry with no healthy worker would spin.
        let has_idle = {
            let inner = lock_inner(s);
            idle_live_worker(&inner).is_some()
        };
        if !has_idle {
            // All workers dead with the restart budget spent: fail
            // queued jobs with a typed error instead of leasing into
            // the void forever.
            let fleet_lost = {
                let inner = lock_inner(s);
                inner.workers.iter().all(|w| w.state == SlotState::Dead)
            } && s.counters.worker_restarts.load(Ordering::Relaxed) as usize
                >= s.config.max_worker_restarts;
            if fleet_lost {
                match s.queue.pop(Duration::from_millis(20)) {
                    Popped::Closed => return,
                    Popped::Timeout => continue,
                    Popped::Entry(entry) => {
                        finalize(
                            s,
                            entry.id,
                            JobState::Failed,
                            Some("no live workers and the restart budget is exhausted".into()),
                        );
                        continue;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }

        match s.queue.pop(Duration::from_millis(20)) {
            Popped::Closed => return,
            Popped::Timeout => continue,
            Popped::Entry(entry) => dispatch(s, entry),
        }
    }
}

fn dispatch(s: &Arc<Shared>, entry: QueueEntry) {
    let id = entry.id;
    let mut inner = lock_inner(s);
    // `drain` raises the flag before it counts outstanding leases under
    // this lock, so re-check here: a dispatcher that passed the
    // unlocked check in `dispatch_loop` must not lease into a drain.
    // The job stays journaled for the next coordinator, as in the
    // draining branch of `dispatch_loop`.
    if s.draining.load(Ordering::SeqCst) {
        return;
    }
    let lease = s.next_lease.fetch_add(1, Ordering::SeqCst);
    let Some(w) = idle_live_worker(&inner) else {
        // The worker died between the check and the pop: requeue
        // without burning an attempt.
        if let Some(rec) = inner.jobs.get(&id) {
            if !rec.state.is_terminal() {
                let priority = rec.priority;
                drop(inner);
                s.queue
                    .reenter(id, priority, entry.attempt, Duration::from_millis(5));
            }
        }
        return;
    };
    let Some(rec) = inner.jobs.get_mut(&id) else {
        return;
    };
    if rec.state.is_terminal() {
        return;
    }
    let elapsed_ms = rec.submitted.elapsed().as_secs_f64() * 1e3;
    if let Some(d) = rec.deadline_ms {
        if d - elapsed_ms <= 0.0 {
            drop(inner);
            finalize(
                s,
                id,
                JobState::Expired,
                Some(format!(
                    "deadline of {d:.0} ms expired after {elapsed_ms:.0} ms in queue"
                )),
            );
            return;
        }
    }
    rec.state = JobState::Running;
    rec.attempts = entry.attempt + 1;
    rec.queue_ms = elapsed_ms - rec.run_ms;
    {
        let mut qw = s.queue_waits.lock().unwrap_or_else(|e| e.into_inner());
        qw.push(rec.queue_ms.max(0.0));
    }
    telemetry::histogram!("fleet.queue_wait_ms", rec.queue_ms.max(0.0) as u64);
    rec.lease = Some((lease, w));
    let priority = rec.priority;
    let frame = CoordFrame::Lease {
        job: id,
        lease,
        attempt: entry.attempt,
        spec: rec.spec.clone(),
        deadline_ms: rec.deadline_ms.map(|d| d - elapsed_ms),
        checkpoint: s
            .config
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("ckpt-{id}")).to_string_lossy().into_owned()),
    };
    inner.workers[w].state = SlotState::Leased { job: id, lease };
    let ok = match inner.workers[w].stdin.as_mut() {
        Some(stdin) => writeln!(stdin, "{}", frame.to_json())
            .and_then(|_| stdin.flush())
            .is_ok(),
        None => false,
    };
    if ok {
        telemetry::counter!("fleet.leases");
        return;
    }
    // The pipe is broken: the worker is dead. Roll the lease back (no
    // attempt burned), requeue, and let the death path clean the slot —
    // the slot keeps its Leased marker so worker_died stays idempotent,
    // but the rolled-back record makes expire_lease a no-op.
    if let Some(rec) = inner.jobs.get_mut(&id) {
        rec.lease = None;
        rec.state = JobState::Queued;
    }
    drop(inner);
    s.queue
        .reenter(id, priority, entry.attempt, Duration::from_millis(5));
    worker_died(s, w, "lease write failed");
}

// ---- monitor -----------------------------------------------------------

fn monitor_loop(s: &Arc<Shared>) {
    let timeout = Duration::from_millis(s.config.heartbeat_timeout_ms);
    let tick = Duration::from_millis((s.config.heartbeat_timeout_ms / 4).max(5));
    while !s.draining.load(Ordering::SeqCst) {
        let silent: Vec<usize> = {
            let inner = lock_inner(s);
            inner
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.state != SlotState::Dead && w.last_beat.elapsed() > timeout)
                .map(|(i, _)| i)
                .collect()
        };
        for w in silent {
            worker_died(s, w, "heartbeat timeout");
        }
        std::thread::sleep(tick);
    }
}

// ---- SIGTERM -----------------------------------------------------------

static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler (once) and returns the flag it sets —
/// the graceful-drain trigger for the fleet binaries. On non-Unix
/// platforms the flag simply never fires.
pub fn sigterm_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            extern "C" fn handler(_sig: i32) {
                // Only the async-signal-safe atomic store happens here.
                SIGTERM.store(true, Ordering::SeqCst);
            }
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGTERM_NO: i32 = 15;
            let f: extern "C" fn(i32) = handler;
            #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_any)]
            unsafe {
                signal(SIGTERM_NO, f as usize);
            }
        });
    }
    &SIGTERM
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit_line(id: u64, spec: &JobSpec) -> String {
        let mut o = Obj::new();
        o.str("kind", "admit")
            .u64("id", id)
            .str("fp", &format!("{:016x}", spec_fingerprint(spec)))
            .raw("spec", &spec.to_json());
        o.finish()
    }

    fn done_line(id: u64, spec: &JobSpec, state: &str) -> String {
        let mut o = Obj::new();
        o.str("kind", "done")
            .u64("id", id)
            .str("fp", &format!("{:016x}", spec_fingerprint(spec)))
            .str("state", state);
        o.finish()
    }

    #[test]
    fn replay_is_first_wins_for_duplicate_terminals() {
        let spec = JobSpec::two_rail(20.0);
        let journal = [
            admit_line(1, &spec),
            done_line(1, &spec, "completed"),
            done_line(1, &spec, "failed"), // revived worker's late report
            done_line(1, &spec, "completed"),
        ]
        .join("\n");
        let r = replay_journal(&journal);
        assert_eq!(r.terminal.len(), 1);
        assert_eq!(r.terminal[&1].0, "completed");
        assert_eq!(r.duplicates, 2);
        assert!(r.pending.is_empty());
    }

    #[test]
    fn replay_readmits_unfinished_jobs_in_order() {
        let spec = JobSpec::two_rail(20.0);
        let journal = [
            admit_line(3, &spec),
            admit_line(1, &spec),
            admit_line(2, &spec),
            done_line(2, &spec, "failed"),
        ]
        .join("\n");
        let r = replay_journal(&journal);
        let ids: Vec<u64> = r.pending.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, vec![3, 1]); // journal order, not id order
        assert_eq!(r.next_id, 4);
    }

    #[test]
    fn replay_rejects_fingerprint_mismatch_and_garbage() {
        let spec = JobSpec::two_rail(20.0);
        let other = JobSpec::two_rail(99.0);
        let journal = [
            admit_line(1, &spec),
            done_line(1, &other, "completed"), // fp of a different spec
            "not json at all".into(),
            done_line(7, &spec, "completed"), // orphan: no admit
        ]
        .join("\n");
        let r = replay_journal(&journal);
        assert!(r.terminal.is_empty(), "mismatched fp must not finalize");
        assert_eq!(r.malformed, 3);
        assert_eq!(r.pending.len(), 1, "job 1 is still pending");
    }
    /// The interleaving: the dispatcher passed its unlocked `draining`
    /// check and popped an entry; then `drain` raised the flag, counted
    /// no outstanding lease and closed every worker's stdin. The late
    /// dispatch must neither lease nor declare the idle worker dead.
    #[test]
    fn dispatch_after_drain_began_leases_nothing() {
        let s = Arc::new(Shared::new(FleetConfig::default(), None, 1));
        let spec = JobSpec::two_rail(20.0);
        let fp = spec_fingerprint(&spec);
        {
            let mut inner = lock_inner(&s);
            inner.workers.push(WorkerSlot {
                child: None,
                stdin: None,
                pid: 0,
                state: SlotState::Idle,
                last_beat: Instant::now(),
            });
            inner
                .jobs
                .insert(1, FleetJob::queued(1, spec, fp, None, false));
        }
        s.draining.store(true, Ordering::SeqCst);
        let entry = QueueEntry {
            id: 1,
            priority: Priority::Normal,
            seq: 0,
            ready_at: Instant::now(),
            attempt: 0,
        };
        dispatch(&s, entry);
        let inner = lock_inner(&s);
        let job = &inner.jobs[&1];
        assert_eq!(job.state, JobState::Queued);
        assert_eq!((job.lease, job.attempts), (None, 0));
        assert_eq!(inner.workers[0].state, SlotState::Idle);
        assert_eq!(s.counters.workers_dead.load(Ordering::SeqCst), 0);
    }

    /// The interleaving: `worker_died` passed its unlocked `draining`
    /// check and spawned a replacement; `drain` closed every registered
    /// stdin before the replacement registered. Its pipe must be closed
    /// too, or it never sees EOF.
    #[test]
    fn worker_spawned_after_drain_began_gets_no_stdin() {
        // Any executable will do: the test binary itself exits at once
        // on the worker flags it does not know.
        let config = FleetConfig {
            worker_cmd: Some(std::env::current_exe().expect("test binary path")),
            ..FleetConfig::default()
        };
        let s = Arc::new(Shared::new(config, None, 1));
        s.draining.store(true, Ordering::SeqCst);
        let reader = spawn_worker(&s).expect("spawn");
        assert!(lock_inner(&s).workers[0].stdin.is_none());
        reader.join().expect("reader thread");
        assert_eq!(lock_inner(&s).workers[0].state, SlotState::Dead);
    }
}
