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
//!   `done` frame carrying the *current* lease settles the job; a
//!   slow-then-revived worker reporting under an expired lease is
//!   counted in [`ServiceMetrics::stale_finalizes`] and ignored.
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
//!   one terminal state, across coordinator restarts too. The journal,
//!   the job table, retry and settle are the [`crate::lifecycle`] core
//!   the in-process service shares; this module is the process
//!   executor: worker slots, leases, heartbeats and respawn.
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
use crate::job::{JobSnapshot, JobSpec, JobState};
use crate::lifecycle::{CoreConfig, JobCore, Retry};
use crate::proto::{CoordFrame, WorkerFrame};
use crate::queue::{Popped, QueueEntry};
use crate::service::{Readiness, ServeError, ServiceMetrics, SubmitError};
use sprout_telemetry as telemetry;
use sprout_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::lifecycle::{replay_journal, JournalReplay};

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

struct Shared {
    config: FleetConfig,
    core: JobCore,
    // Lock order: `workers` before the core's job table, never the
    // other way round.
    workers: Mutex<Vec<WorkerSlot>>,
    next_lease: AtomicU64,
}

impl Shared {
    fn new(config: FleetConfig) -> Result<Shared, ServeError> {
        Ok(Shared {
            core: JobCore::open(CoreConfig {
                queue_capacity: config.queue_capacity,
                max_job_retries: config.max_job_retries,
                backoff: config.backoff,
                default_deadline_ms: config.default_deadline_ms,
                overload_watermark: config.overload_watermark,
                data_dir: config.data_dir.clone(),
            })?,
            workers: Mutex::new(Vec::new()),
            next_lease: AtomicU64::new(1),
            config,
        })
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
        let shared = Arc::new(Shared::new(config)?);
        let fleet = FleetCoordinator {
            shared: Arc::clone(&shared),
            threads: Mutex::new(Vec::new()),
        };
        let mut threads = fleet.threads.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..shared.config.workers {
            threads.push(spawn_worker(&shared).map_err(|e| ServeError::Io(e.to_string()))?);
        }
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
        drop(threads);
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

    /// Cancels a job no worker holds yet. Jobs already out under a
    /// lease cannot be cancelled cross-process (there is no preemption
    /// frame — by design, a leased job either finishes or its worker
    /// dies); `false` for those, for unknown ids, and for terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        self.shared.core.cancel(id)
    }

    /// Current readiness: `Draining` once a drain began (the fleet
    /// `/readyz` turns 503), `Overloaded` past the queue watermark.
    pub fn ready(&self) -> Readiness {
        self.shared.core.ready()
    }

    /// The per-job event bus feeding `GET /jobs/:id/events`. Worker
    /// event frames are republished here verbatim, so a fleet-backed
    /// stream looks identical to an in-process one.
    pub fn events(&self) -> Arc<EventBus> {
        Arc::clone(&self.shared.core.bus)
    }

    /// The latest attempt's performance profile for `id`, as the
    /// worker that ran it rendered it into its `done` frame. Feeds
    /// `GET /jobs/<id>/profile`, same shape as in-process.
    pub fn profile(&self, id: u64) -> Option<String> {
        self.shared.core.profile(id)
    }

    /// Current counters and latency percentiles.
    pub fn metrics(&self) -> ServiceMetrics {
        let workers_live = lock_workers(&self.shared)
            .iter()
            .filter(|w| w.state != SlotState::Dead)
            .count();
        ServiceMetrics {
            workers_live,
            ..self.shared.core.metrics()
        }
    }

    /// OS pids of the workers currently considered live — the handles
    /// the process-level chaos tests aim real `SIGKILL`/`SIGSTOP` at.
    pub fn worker_pids(&self) -> Vec<u32> {
        lock_workers(&self.shared)
            .iter()
            .filter(|w| w.state != SlotState::Dead)
            .map(|w| w.pid)
            .collect()
    }

    /// Blocks until every accepted job is terminal or the timeout
    /// passes. `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.shared.core.wait_idle(timeout)
    }

    /// Graceful drain (the SIGTERM path): stop admitting and leasing,
    /// wait for in-flight leases to finish (bounded by `timeout`), ask
    /// every worker to exit, and reap the children. Jobs still queued
    /// stay journaled — a later coordinator recovers them. Returns
    /// `true` when every lease finished in time.
    pub fn drain(&self, timeout: Duration) -> bool {
        let s = &self.shared;
        s.core.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        let drained = loop {
            if s.core.leased() == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };

        // Ask workers to exit, then close their stdin so even a worker
        // that misses the frame sees EOF.
        for w in lock_workers(s).iter_mut() {
            if let Some(stdin) = &mut w.stdin {
                let _ = writeln!(stdin, "{}", CoordFrame::Drain.to_json());
                let _ = stdin.flush();
            }
            w.stdin = None;
        }
        self.reap_all(Duration::from_secs(10));
        s.core.queue.close();
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
        s.core.draining.store(true, Ordering::SeqCst);
        for w in lock_workers(s).iter_mut() {
            w.stdin = None;
            if let Some(child) = &mut w.child {
                let _ = child.kill();
            }
        }
        self.reap_all(Duration::from_secs(5));
        s.core.queue.close();
        self.join_threads();
    }

    fn reap_all(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let mut alive = false;
            {
                let mut workers = lock_workers(&self.shared);
                for w in workers.iter_mut() {
                    if let Some(child) = &mut w.child {
                        match child.try_wait() {
                            Ok(None) => alive = true,
                            Ok(Some(_)) | Err(_) => w.child = None,
                        }
                    }
                }
                if alive && Instant::now() >= deadline {
                    for w in workers.iter_mut() {
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
        self.shared.core.draining.store(true, Ordering::SeqCst);
        for w in lock_workers(&self.shared).iter_mut() {
            w.stdin = None;
            if let Some(child) = &mut w.child {
                let _ = child.kill();
                let _ = child.wait();
                w.child = None;
            }
        }
        self.shared.core.queue.close();
        self.join_threads();
    }
}

fn lock_workers(s: &Shared) -> std::sync::MutexGuard<'_, Vec<WorkerSlot>> {
    s.workers.lock().unwrap_or_else(|e| e.into_inner())
}

/// Refreshes worker `w`'s liveness clock unless it was declared dead.
fn beat(s: &Shared, w: usize) {
    let mut workers = lock_workers(s);
    if workers[w].state != SlotState::Dead {
        workers[w].last_beat = Instant::now();
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
        let mut workers = lock_workers(s);
        // `drain` raises the flag before it closes every registered
        // worker's stdin under this lock. A replacement that passed
        // `worker_died`'s unlocked check but registers after that must
        // not keep its pipe open: it would never see EOF, and drain
        // would wait out its reap timeout.
        let stdin = if s.core.draining.load(Ordering::SeqCst) {
            None
        } else {
            stdin
        };
        workers.push(WorkerSlot {
            child: Some(child),
            stdin,
            pid,
            state: SlotState::Idle,
            last_beat: Instant::now(),
        });
        workers.len() - 1
    };
    s.core
        .counters
        .workers_spawned
        .fetch_add(1, Ordering::Relaxed);
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
            WorkerFrame::Hello { .. } | WorkerFrame::Heartbeat { .. } => beat(s, w),
            WorkerFrame::Event {
                job,
                lease,
                event,
                body,
            } => {
                beat(s, w);
                // The core publishes terminal events itself; a worker
                // naming one, or no kind at all, is faulty.
                let Some(kind) = EventKind::parse(&event).filter(|k| *k != EventKind::Terminal)
                else {
                    telemetry::counter!("fleet.bad_frames");
                    continue;
                };
                // Progress events carry the rails finished so far; they
                // fold in with `max`, so every other event's 0 is inert.
                let rails_done = match kind {
                    EventKind::Progress => json::parse(&body)
                        .ok()
                        .and_then(|b| b.get("rails_complete").and_then(Json::as_u64))
                        .unwrap_or(0) as usize,
                    _ => 0,
                };
                // Only the current lease publishes: a zombie worker's
                // events must not pollute the stream.
                let current = s.core.with_record(job, |rec| {
                    let current = rec.lease == Some((lease, w));
                    if current {
                        rec.rails_complete = rec.rails_complete.max(rails_done);
                    }
                    current
                });
                if current == Some(true) {
                    s.core.bus.publish(job, kind, |o| {
                        o.splice(&body);
                    });
                }
            }
            WorkerFrame::Done(done) => {
                // Free the slot if this frame settles the lease it
                // holds — even a stale done means the worker finished
                // *something*. Only the current lease may settle the
                // job; the core counts everything else as stale.
                {
                    let mut workers = lock_workers(s);
                    let slot = &mut workers[w];
                    if slot.state != SlotState::Dead {
                        slot.last_beat = Instant::now();
                    }
                    if slot.state
                        == (SlotState::Leased {
                            job: done.job,
                            lease: done.lease,
                        })
                    {
                        slot.state = SlotState::Idle;
                    }
                }
                s.core.settle(done.job, Some((done.lease, w)), &done);
            }
        }
    }
    // EOF: the worker process is gone (exit, SIGKILL, or drain).
    worker_died(s, w, "worker pipe closed");
    let child = lock_workers(s)[w].child.take();
    if let Some(mut c) = child {
        let _ = c.wait();
    }
}

/// Declares worker `w` dead (idempotent): expires its lease so the job
/// re-enters the queue with backoff (or fails once the budget is
/// spent), optionally SIGKILLs the process, and spawns a replacement
/// while the restart budget lasts.
fn worker_died(s: &Arc<Shared>, w: usize, why: &str) {
    let expired_lease = {
        let mut workers = lock_workers(s);
        let slot = &mut workers[w];
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
    let draining = s.core.draining.load(Ordering::SeqCst);
    // A worker exiting cleanly after the Drain frame is retirement, not
    // death — don't let graceful shutdown inflate the fault counters.
    if !draining || expired_lease.is_some() {
        s.core.counters.workers_dead.fetch_add(1, Ordering::Relaxed);
        telemetry::point("fleet_worker_dead")
            .field("worker", w)
            .field("why", why)
            .emit();
    }

    if let Some((job, lease)) = expired_lease {
        s.core.retry(job, Some((lease, w)), Retry::WorkerDied);
    }

    // Supervision: replace the dead worker while the budget lasts. The
    // replacement's reader thread is detached — it exits on its pipe's
    // EOF, and shutdown reaps the child itself.
    let restarts = &s.core.counters.worker_restarts;
    if !draining && (restarts.load(Ordering::Relaxed) as usize) < s.config.max_worker_restarts {
        restarts.fetch_add(1, Ordering::Relaxed);
        match spawn_worker(s) {
            Ok(handle) => drop(handle),
            Err(_) => telemetry::counter!("fleet.respawn_failed"),
        }
    }
}

// ---- dispatcher --------------------------------------------------------

fn idle_live_worker(workers: &[WorkerSlot]) -> Option<usize> {
    workers.iter().position(|w| w.state == SlotState::Idle)
}

fn dispatch_loop(s: &Arc<Shared>) {
    let queue = &s.core.queue;
    loop {
        if s.core.draining.load(Ordering::SeqCst) {
            // Drain: stop leasing. Queued jobs stay journaled for the
            // next coordinator. Exit once the queue is closed.
            match queue.pop(Duration::from_millis(20)) {
                Popped::Closed => return,
                _ => continue,
            }
        }

        // Pop only when a lease could actually be granted: a popped
        // entry with no healthy worker would spin.
        let (has_idle, all_dead) = {
            let workers = lock_workers(s);
            (
                idle_live_worker(&workers).is_some(),
                workers.iter().all(|w| w.state == SlotState::Dead),
            )
        };
        if !has_idle {
            // All workers dead with the restart budget spent: fail
            // queued jobs with a typed error instead of leasing into
            // the void forever.
            let fleet_lost = all_dead
                && s.core.counters.worker_restarts.load(Ordering::Relaxed) as usize
                    >= s.config.max_worker_restarts;
            if fleet_lost {
                match queue.pop(Duration::from_millis(20)) {
                    Popped::Closed => return,
                    Popped::Timeout => continue,
                    Popped::Entry(entry) => {
                        s.core.finalize(
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

        match queue.pop(Duration::from_millis(20)) {
            Popped::Closed => return,
            Popped::Timeout => continue,
            Popped::Entry(entry) => dispatch(s, entry),
        }
    }
}

fn dispatch(s: &Arc<Shared>, entry: QueueEntry) {
    let id = entry.id;
    let mut workers = lock_workers(s);
    // `drain` raises the flag before it counts outstanding leases, so
    // re-check under this lock: a dispatcher that passed the unlocked
    // check in `dispatch_loop` must not lease into a drain. The job
    // stays journaled for the next coordinator, as in the draining
    // branch of `dispatch_loop`.
    if s.core.draining.load(Ordering::SeqCst) {
        return;
    }
    let Some(w) = idle_live_worker(&workers) else {
        // The worker died between the check and the pop: requeue
        // without burning an attempt.
        drop(workers);
        s.core.requeue(id, entry.attempt);
        return;
    };
    let lease = s.next_lease.fetch_add(1, Ordering::SeqCst);
    let Some(job) = s.core.start(&entry, Some((lease, w))) else {
        return;
    };
    let deadline_ms = job.remaining_ms();
    if deadline_ms.is_some_and(|d| d <= 0.0) {
        drop(workers);
        s.core.expire(id, &job);
        return;
    }
    let frame = CoordFrame::Lease {
        job: id,
        lease,
        attempt: entry.attempt,
        spec: job.spec,
        deadline_ms,
        checkpoint: s
            .core
            .checkpoint(id)
            .map(|p| p.to_string_lossy().into_owned()),
    };
    workers[w].state = SlotState::Leased { job: id, lease };
    let ok = match workers[w].stdin.as_mut() {
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
    // but the rolled-back record makes its retry a no-op.
    drop(workers);
    s.core.requeue(id, entry.attempt);
    worker_died(s, w, "lease write failed");
}

// ---- monitor -----------------------------------------------------------

fn monitor_loop(s: &Arc<Shared>) {
    let timeout = Duration::from_millis(s.config.heartbeat_timeout_ms);
    let tick = Duration::from_millis((s.config.heartbeat_timeout_ms / 4).max(5));
    while !s.core.draining.load(Ordering::SeqCst) {
        let silent: Vec<usize> = lock_workers(s)
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state != SlotState::Dead && w.last_beat.elapsed() > timeout)
            .map(|(i, _)| i)
            .collect();
        for w in silent {
            worker_died(s, w, "heartbeat timeout");
        }
        std::thread::sleep(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use crate::proto::spec_fingerprint;
    use sprout_telemetry::json::Obj;

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
        let s = Arc::new(Shared::new(FleetConfig::default()).expect("core"));
        lock_workers(&s).push(WorkerSlot {
            child: None,
            stdin: None,
            pid: 0,
            state: SlotState::Idle,
            last_beat: Instant::now(),
        });
        let id = s.core.submit(JobSpec::two_rail(20.0)).expect("submit");
        s.core.draining.store(true, Ordering::SeqCst);
        let entry = QueueEntry {
            id,
            priority: Priority::Normal,
            seq: 0,
            ready_at: Instant::now(),
            attempt: 0,
        };
        dispatch(&s, entry);
        let job = s.core.status(id).expect("known");
        assert_eq!(job.state, JobState::Queued);
        assert_eq!((s.core.leased(), job.attempts), (0, 0));
        assert_eq!(lock_workers(&s)[0].state, SlotState::Idle);
        assert_eq!(s.core.counters.workers_dead.load(Ordering::SeqCst), 0);
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
        let s = Arc::new(Shared::new(config).expect("core"));
        s.core.draining.store(true, Ordering::SeqCst);
        let reader = spawn_worker(&s).expect("spawn");
        assert!(lock_workers(&s)[0].stdin.is_none());
        reader.join().expect("reader thread");
        assert_eq!(lock_workers(&s)[0].state, SlotState::Dead);
    }
}
