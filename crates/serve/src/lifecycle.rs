//! The job core both backends share: one job table, one journal, one
//! retry path, one `settle` and one exactly-once `finalize`.
//!
//! [`RoutingService`](crate::service::RoutingService) runs attempts on
//! threads of its own process; [`FleetCoordinator`](crate::fleet::FleetCoordinator)
//! leases them to worker processes. Everything between admission and
//! the terminal state is the same for both and lives in `JobCore`:
//!
//! * **Admission** — validate → journal → queue, in that order: a job
//!   is accepted only once it would survive a crash. A full queue sheds
//!   a strictly-lower-priority job or rejects the arrival, leaving a
//!   `rejected` tombstone in the journal.
//! * **Attempts** — an executor takes a popped entry through
//!   `JobCore::start`, runs it however it runs things, and hands the
//!   attempt summary ([`DoneFrame`]) to `JobCore::settle`, which
//!   classifies it once for both backends and keeps its profile. An
//!   attempt that ends without a summary (a panicked thread, a dead
//!   process) goes through `JobCore::retry`. Both re-enter the queue
//!   the same way: seeded backoff, one `retry` event.
//! * **Terminal states** — `JobCore::finalize` is the one terminal
//!   transition: an in-memory transition counter, one terminal counter,
//!   one `terminal` event, one `done` journal line.
//! * **The journal** — `fleet.journal` in the data directory, append
//!   only, opened on the first append. [`replay_journal`] reads it back
//!   first-record-wins, so a restarted backend re-admits exactly the
//!   unfinished jobs and remembers the finished ones as terminal, with
//!   their admitted spec and what their `done` line says they produced.

use crate::backoff::BackoffConfig;
use crate::events::{EventBus, EventKind};
use crate::job::{JobSnapshot, JobSpec, JobState, Priority};
use crate::proto::{spec_fingerprint, DoneFrame, MAX_FRAME_BYTES};
use crate::queue::{Admitted, BoundedQueue, QueueEntry};
use crate::service::{Readiness, ServeError, ServiceMetrics, SubmitError};
use sprout_core::recovery::CancelToken;
use sprout_core::SproutError;
use sprout_telemetry as telemetry;
use sprout_telemetry::json::{self, Json, Obj};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The journal's file name inside the data directory.
const JOURNAL_FILE: &str = "fleet.journal";

/// The part of either backend's configuration the job core runs on.
#[derive(Debug, Clone)]
pub(crate) struct CoreConfig {
    pub queue_capacity: usize,
    pub max_job_retries: usize,
    pub backoff: BackoffConfig,
    pub default_deadline_ms: Option<f64>,
    pub overload_watermark: f64,
    pub data_dir: Option<PathBuf>,
}

/// One job's full record. `cancel` and `killed` are only ever set by
/// the in-process executor, `lease` only by the fleet.
#[derive(Debug)]
pub(crate) struct JobRecord {
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
    pub rails_total: usize,
    pub rails_complete: usize,
    resumed: usize,
    recovered: bool,
    pub killed: bool,
    cancel_requested: bool,
    cancel: CancelToken,
    /// `(lease id, worker slot)` while a worker process holds the job.
    pub lease: Option<(u64, usize)>,
    solves: u64,
    area_mm2: f64,
    error: Option<String>,
    terminal_transitions: usize,
    /// The latest routed attempt's rendered profile.
    pub profile: Option<String>,
}

impl JobRecord {
    fn new(id: u64, spec: JobSpec, fp: u64, deadline_ms: Option<f64>, recovered: bool) -> Self {
        JobRecord {
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
            killed: false,
            cancel_requested: false,
            cancel: CancelToken::new(),
            lease: None,
            solves: 0,
            area_mm2: 0.0,
            error: None,
            terminal_transitions: 0,
            profile: None,
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
            killed: self.killed,
            queue_ms: self.queue_ms,
            run_ms: self.run_ms,
            solves: self.solves,
            area_mm2: self.area_mm2,
            error: self.error.clone(),
            terminal_transitions: self.terminal_transitions,
        }
    }
}

/// Every counter either backend reports; see [`ServiceMetrics`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub best_so_far: AtomicU64,
    pub failed: AtomicU64,
    pub shed: AtomicU64,
    pub expired: AtomicU64,
    pub cancelled: AtomicU64,
    pub retries: AtomicU64,
    pub redispatches: AtomicU64,
    pub stale_finalizes: AtomicU64,
    pub recovered: AtomicU64,
    pub journal_duplicates: AtomicU64,
    pub killed: AtomicU64,
    pub worker_panics: AtomicU64,
    pub terminal_violations: AtomicU64,
    pub workers_spawned: AtomicU64,
    pub workers_dead: AtomicU64,
    pub worker_restarts: AtomicU64,
}

/// Why an attempt ended without a verdict of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retry {
    /// The in-process worker thread panicked.
    WorkerPanic,
    /// The worker process holding the lease died.
    WorkerDied,
    /// The attempt failed with a retryable error ([`JobCore::settle`]).
    AttemptFailed,
}

impl Retry {
    fn reason(self) -> &'static str {
        match self {
            Retry::WorkerPanic => "worker_panic",
            Retry::WorkerDied => "worker_died",
            Retry::AttemptFailed => "attempt_failed",
        }
    }

    fn exhausted(self) -> &'static str {
        match self {
            Retry::WorkerPanic => "worker panicked and the retry budget is exhausted",
            Retry::WorkerDied => "worker died and the re-dispatch budget is exhausted",
            Retry::AttemptFailed => "attempt failed and the retry budget is exhausted",
        }
    }
}

/// What an executor needs to run one attempt of a started job.
#[derive(Debug)]
pub(crate) struct Started {
    pub spec: JobSpec,
    pub deadline_ms: Option<f64>,
    pub submitted: Instant,
    pub cancel: CancelToken,
}

impl Started {
    /// Deadline budget left (ms); `None` when the job has no deadline.
    pub fn remaining_ms(&self) -> Option<f64> {
        self.deadline_ms.map(|d| d - ms_since(self.submitted))
    }
}

/// What one attempt summary means for its job.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    Retry,
    Final(JobState, Option<String>),
}

/// The one classification of an attempt summary, for both backends.
/// A deadline that passed ends the job whatever else happened — with
/// the finished rails as `best_so_far` when there are any — so a
/// retryable failure never re-queues a job that can only expire.
fn verdict(
    a: &DoneFrame,
    cancel_requested: bool,
    deadline_passed: bool,
    budget_left: bool,
) -> Verdict {
    let partial = |otherwise: JobState, why: &str| {
        if a.rails_complete > 0 {
            Verdict::Final(JobState::BestSoFar, a.error.clone())
        } else {
            Verdict::Final(otherwise, a.error.clone().or_else(|| Some(why.into())))
        }
    };
    match a.state.as_str() {
        "completed" => Verdict::Final(JobState::Completed, None),
        "cancelled" if cancel_requested => {
            Verdict::Final(JobState::Cancelled, Some("cancelled".into()))
        }
        state if state == "expired" || deadline_passed => {
            partial(JobState::Expired, "deadline expired")
        }
        _ if a.retryable && budget_left && !cancel_requested => Verdict::Retry,
        _ => partial(JobState::Failed, "no rail completed"),
    }
}

/// The append-only journal, opened on the first append.
#[derive(Debug)]
struct Journal {
    path: Option<PathBuf>,
    file: Mutex<Option<File>>,
    /// The previous writer died mid-line: the first append starts a
    /// fresh line, so the torn tail cannot swallow it.
    torn: bool,
}

impl Journal {
    fn append(&self, record: &str) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if file.is_none() {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| e.to_string())?;
            if self.torn {
                f.write_all(b"\n").map_err(|e| e.to_string())?;
            }
            *file = Some(f);
        }
        let f = file.as_mut().expect("opened above");
        // One write per record: a crash leaves at most one torn line.
        f.write_all(format!("{record}\n").as_bytes())
            .map_err(|e| e.to_string())
    }

    fn admit(
        &self,
        id: u64,
        fp: u64,
        spec: &JobSpec,
        deadline_ms: Option<f64>,
    ) -> Result<(), String> {
        if self.path.is_none() {
            return Ok(());
        }
        let mut o = Obj::new();
        o.str("kind", "admit")
            .u64("id", id)
            .str("fp", &format!("{fp:016x}"))
            .raw("spec", &spec.to_json());
        if let Some(d) = deadline_ms {
            o.f64("deadline_ms", d);
        }
        self.append(&o.finish())
    }

    fn done(&self, id: u64, fp: u64, state: &str, produced: Produced) {
        if self.path.is_none() {
            return;
        }
        let mut o = Obj::new();
        o.str("kind", "done")
            .u64("id", id)
            .str("fp", &format!("{fp:016x}"))
            .str("state", state)
            .u64("rails_complete", produced.rails_complete as u64)
            .f64("area_mm2", produced.area_mm2)
            .u64("solves", produced.solves);
        // A lost terminal line re-runs the job after a restart, which
        // the checkpoint makes cheap; it must not fail the finalize.
        let _ = self.append(&o.finish());
    }
}

/// What a job had produced when it reached its terminal state, as its
/// `done` journal line records it. A line written before these fields
/// existed replays as zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Produced {
    /// Rails complete.
    pub rails_complete: usize,
    /// Shipped metal area (mm²).
    pub area_mm2: f64,
    /// Linear solves spent over every attempt.
    pub solves: u64,
}

/// The outcome of replaying a journal — a pure function of the journal
/// text, exposed so the idempotence tests can drive it with hand-built
/// (including hostile) journals.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Admitted jobs without a terminal record, in journal order: the
    /// work a restarted backend must re-admit.
    pub pending: Vec<(u64, JobSpec, Option<f64>)>,
    /// First terminal record per job: `id → (state name, fingerprint)`.
    /// Rejected submissions appear here as `rejected` tombstones.
    pub terminal: HashMap<u64, (String, u64)>,
    /// For every job in `terminal`: the spec it was admitted with and
    /// what its first terminal record says it produced.
    pub finished: HashMap<u64, (JobSpec, Produced)>,
    /// Duplicate admits and duplicate/conflicting terminal records
    /// ignored (first record wins).
    pub duplicates: u64,
    /// Unparseable or orphaned lines skipped.
    pub malformed: u64,
    /// One past the highest id seen.
    pub next_id: u64,
}

/// Replays a journal. First record wins throughout: a journal holding
/// duplicate or interleaved terminal records for one job — the
/// slow-then-revived worker, or a double-finalize bug — still replays
/// to exactly one terminal state per job. A terminal record whose
/// fingerprint does not match the admitted spec is ignored as
/// malformed: it cannot have been computed for that job.
pub fn replay_journal(text: &str) -> JournalReplay {
    let mut out = JournalReplay::default();
    let mut admitted: HashMap<u64, (JobSpec, u64, Option<f64>)> = HashMap::new();
    let mut produced: HashMap<u64, Produced> = HashMap::new();
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
                let Some(Ok(spec)) = root.get("spec").map(JobSpec::from_json) else {
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
                let deadline = root.get("deadline_ms").and_then(Json::as_f64);
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
                            let count = |k| root.get(k).and_then(Json::as_u64).unwrap_or(0);
                            produced.insert(
                                id,
                                Produced {
                                    rails_complete: count("rails_complete") as usize,
                                    area_mm2: root
                                        .get("area_mm2")
                                        .and_then(Json::as_f64)
                                        .unwrap_or(0.0),
                                    solves: count("solves"),
                                },
                            );
                        }
                    },
                }
            }
            _ => out.malformed += 1,
        }
    }
    for id in order {
        let (spec, _, deadline) = admitted.remove(&id).expect("ordered ids were admitted");
        match produced.remove(&id) {
            Some(p) => {
                out.finished.insert(id, (spec, p));
            }
            None => out.pending.push((id, spec, deadline)),
        }
    }
    out
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `(p50, p99, sum, count)` of a sample set.
fn summarize(samples: &Mutex<Vec<f64>>) -> (f64, f64, f64, u64) {
    let samples = samples.lock().unwrap_or_else(|e| e.into_inner());
    if samples.is_empty() {
        return (0.0, 0.0, 0.0, 0);
    }
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| sorted[((sorted.len() as f64 - 1.0) * q).round() as usize];
    (
        pick(0.50),
        pick(0.99),
        sorted.iter().sum(),
        sorted.len() as u64,
    )
}

/// A job's life from admission to its one terminal state.
#[derive(Debug)]
pub(crate) struct JobCore {
    config: CoreConfig,
    pub queue: BoundedQueue,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    journal: Journal,
    pub counters: Counters,
    latencies: Mutex<Vec<f64>>,
    queue_waits: Mutex<Vec<f64>>,
    next_id: AtomicU64,
    pub draining: AtomicBool,
    started: Instant,
    pub bus: Arc<EventBus>,
}

impl JobCore {
    /// Prepares the data directory and replays its journal: finished
    /// jobs are remembered as terminal (their records guard against a
    /// late double finalize), unfinished ones re-enter the queue with
    /// their deadline clocks restarted.
    pub fn open(config: CoreConfig) -> Result<JobCore, ServeError> {
        let mut replay = JournalReplay::default();
        let mut torn = false;
        let path = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
                let path = dir.join(JOURNAL_FILE);
                if let Ok(text) = std::fs::read_to_string(&path) {
                    torn = !text.is_empty() && !text.ends_with('\n');
                    replay = replay_journal(&text);
                }
                Some(path)
            }
            None => None,
        };
        let core = JobCore {
            queue: BoundedQueue::new(config.queue_capacity),
            jobs: Mutex::new(HashMap::new()),
            journal: Journal {
                path,
                file: Mutex::new(None),
                torn,
            },
            counters: Counters::default(),
            latencies: Mutex::new(Vec::new()),
            queue_waits: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(replay.next_id.max(1)),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            bus: Arc::new(EventBus::default()),
            config,
        };
        core.counters
            .journal_duplicates
            .store(replay.duplicates, Ordering::Relaxed);
        let mut jobs = core.lock_jobs();
        for (id, (spec, produced)) in replay.finished {
            let (state, fp) = &replay.terminal[&id];
            let Some(state) = JobState::parse(state).filter(JobState::is_terminal) else {
                continue; // a rejected submission's tombstone
            };
            let mut rec = JobRecord::new(id, spec, *fp, None, true);
            rec.state = state;
            rec.terminal_transitions = 1;
            rec.rails_complete = produced.rails_complete;
            rec.area_mm2 = produced.area_mm2;
            rec.solves = produced.solves;
            jobs.insert(id, rec);
        }
        for (id, spec, deadline_ms) in replay.pending {
            let priority = spec.priority;
            let fp = spec_fingerprint(&spec);
            jobs.insert(id, JobRecord::new(id, spec, fp, deadline_ms, true));
            core.counters.accepted.fetch_add(1, Ordering::Relaxed);
            core.counters.recovered.fetch_add(1, Ordering::Relaxed);
            telemetry::counter!("serve.recovered");
            core.queue.reenter(id, priority, 0, Duration::ZERO);
        }
        drop(jobs);
        Ok(core)
    }

    fn lock_jobs(&self) -> MutexGuard<'_, HashMap<u64, JobRecord>> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a job: validate → journal → queue. From the returned id
    /// on, the job reaches exactly one terminal state.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        // An unresolvable job must be rejected, not accepted-then-failed.
        spec.resolve().map_err(SubmitError::Invalid)?;

        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let fp = spec_fingerprint(&spec);
        let priority = spec.priority;
        let deadline_ms = spec.deadline_ms.or(self.config.default_deadline_ms);
        self.journal
            .admit(id, fp, &spec, deadline_ms)
            .map_err(SubmitError::Journal)?;
        self.lock_jobs()
            .insert(id, JobRecord::new(id, spec, fp, deadline_ms, false));

        match self.queue.admit(id, priority) {
            Ok(Admitted::Queued) => {}
            Ok(Admitted::Shed { victim }) => {
                telemetry::counter!("serve.sheds");
                self.finalize(
                    victim,
                    JobState::Shed,
                    Some("shed by higher-priority arrival".into()),
                );
            }
            Err(_) => {
                // Tombstone the admit line so a restart never resurrects
                // a job the client was told was refused.
                self.lock_jobs().remove(&id);
                self.journal.done(id, fp, "rejected", Produced::default());
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                telemetry::counter!("serve.rejected");
                let retry_after_ms = self.config.backoff.delay_ms(id, 0);
                return Err(if self.draining.load(Ordering::SeqCst) {
                    SubmitError::Draining
                } else {
                    SubmitError::Saturated { retry_after_ms }
                });
            }
        }
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        telemetry::counter!("serve.accepted");
        telemetry::gauge!("serve.queue_depth", self.queue.len() as i64);
        Ok(id)
    }

    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        self.lock_jobs().get(&id).map(JobRecord::snapshot)
    }

    pub fn jobs(&self) -> Vec<JobSnapshot> {
        let mut out: Vec<JobSnapshot> =
            self.lock_jobs().values().map(JobRecord::snapshot).collect();
        out.sort_by_key(|j| j.id);
        out
    }

    /// Runs `f` on job `id`'s record, if it exists.
    pub fn with_record<R>(&self, id: u64, f: impl FnOnce(&mut JobRecord) -> R) -> Option<R> {
        self.lock_jobs().get_mut(&id).map(f)
    }

    /// The latest routed attempt's profile for job `id`.
    pub fn profile(&self, id: u64) -> Option<String> {
        self.lock_jobs().get(&id).and_then(|r| r.profile.clone())
    }

    /// Job `id`'s supervisor checkpoint file, when there is a data
    /// directory: kept across attempts, removed at the terminal state.
    pub fn checkpoint(&self, id: u64) -> Option<PathBuf> {
        self.config
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("ckpt-{id}")))
    }

    /// Jobs out under a worker-process lease.
    pub fn leased(&self) -> usize {
        self.lock_jobs()
            .values()
            .filter(|r| r.lease.is_some())
            .count()
    }

    /// Cancels a job that no worker process holds: a queued job
    /// finalizes at once, one between pop and start finalizes at
    /// [`JobCore::start`], and a running in-process attempt has its
    /// token triggered and settles when the supervisor yields. `false`
    /// for unknown, terminal, and leased jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let token = {
            let mut jobs = self.lock_jobs();
            match jobs.get_mut(&id) {
                Some(rec) if !rec.state.is_terminal() && rec.lease.is_none() => {
                    rec.cancel_requested = true;
                    rec.cancel.clone()
                }
                _ => return false,
            }
        };
        token.cancel();
        if self.queue.remove(id) {
            self.finalize(
                id,
                JobState::Cancelled,
                Some("cancelled while queued".into()),
            );
        }
        true
    }

    /// `true` once the queue is past the overload watermark.
    pub fn overloaded(&self) -> bool {
        let cap = self.queue.capacity().max(1);
        let watermark =
            (self.config.overload_watermark.clamp(0.0, 1.0) * cap as f64).ceil() as usize;
        self.queue.len() >= watermark.max(1)
    }

    pub fn ready(&self) -> Readiness {
        if self.draining.load(Ordering::SeqCst) {
            Readiness::Draining
        } else if self.overloaded() {
            Readiness::Overloaded
        } else {
            Readiness::Ready
        }
    }

    /// Blocks until every job is terminal (or killed: only a restart
    /// finishes those) or the timeout passes. `true` when idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let idle = self.queue.is_empty()
                && self
                    .lock_jobs()
                    .values()
                    .all(|r| r.state.is_terminal() || r.killed);
            if idle || Instant::now() >= deadline {
                return idle;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Counters and percentiles. `running` and `workers_live` belong to
    /// the executor and read 0 here.
    pub fn metrics(&self) -> ServiceMetrics {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (latency_p50_ms, latency_p99_ms, latency_sum_ms, _) = summarize(&self.latencies);
        let (queue_wait_p50_ms, queue_wait_p99_ms, queue_wait_sum_ms, queue_wait_count) =
            summarize(&self.queue_waits);
        ServiceMetrics {
            queue_depth: self.queue.len(),
            running: 0,
            leased: self.leased(),
            workers_live: 0,
            accepted: load(&c.accepted),
            rejected: load(&c.rejected),
            completed: load(&c.completed),
            best_so_far: load(&c.best_so_far),
            failed: load(&c.failed),
            shed: load(&c.shed),
            expired: load(&c.expired),
            cancelled: load(&c.cancelled),
            retries: load(&c.retries),
            redispatches: load(&c.redispatches),
            stale_finalizes: load(&c.stale_finalizes),
            recovered: load(&c.recovered),
            journal_duplicates: load(&c.journal_duplicates),
            killed: load(&c.killed),
            worker_panics: load(&c.worker_panics),
            terminal_violations: load(&c.terminal_violations),
            workers_spawned: load(&c.workers_spawned),
            workers_dead: load(&c.workers_dead),
            worker_restarts: load(&c.worker_restarts),
            latency_p50_ms,
            latency_p99_ms,
            latency_sum_ms,
            queue_wait_p50_ms,
            queue_wait_p99_ms,
            queue_wait_count,
            queue_wait_sum_ms,
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            events_published: self.bus.events_published(),
            events_dropped: self.bus.events_dropped(),
        }
    }

    /// Starts an attempt of a popped entry (under `lease` in fleet
    /// mode) and records its queue wait. `None` when there is nothing
    /// to run: the job is terminal, or a cancel arrived after the pop —
    /// that job finalizes `cancelled` here.
    pub fn start(&self, entry: &QueueEntry, lease: Option<(u64, usize)>) -> Option<Started> {
        let id = entry.id;
        let (job, queue_ms, cancelled) = {
            let mut jobs = self.lock_jobs();
            let rec = jobs.get_mut(&id).filter(|r| !r.state.is_terminal())?;
            rec.state = JobState::Running;
            rec.attempts = entry.attempt + 1;
            rec.lease = lease;
            rec.queue_ms = ms_since(rec.submitted) - rec.run_ms;
            let job = Started {
                spec: rec.spec.clone(),
                deadline_ms: rec.deadline_ms,
                submitted: rec.submitted,
                cancel: rec.cancel.clone(),
            };
            (job, rec.queue_ms.max(0.0), rec.cancel_requested)
        };
        self.queue_waits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(queue_ms);
        telemetry::histogram!("serve.queue_wait_ms", queue_ms as u64);
        if cancelled {
            self.finalize(id, JobState::Cancelled, Some("cancelled".into()));
            return None;
        }
        Some(job)
    }

    /// Finalizes a started job whose deadline ran out before routing.
    pub fn expire(&self, id: u64, job: &Started) {
        let e = SproutError::DeadlineExpired {
            deadline_ms: job.deadline_ms.unwrap_or(0.0),
            elapsed_ms: ms_since(job.submitted),
        };
        self.finalize(id, JobState::Expired, Some(e.to_string()));
    }

    /// Puts a job back without burning an attempt: its lease never
    /// reached a worker.
    pub fn requeue(&self, id: u64, attempt: usize) {
        let priority = self.with_record(id, |rec| {
            (!rec.state.is_terminal()).then(|| {
                rec.state = JobState::Queued;
                rec.lease = None;
                rec.priority
            })
        });
        if let Some(Some(priority)) = priority {
            self.queue
                .reenter(id, priority, attempt, Duration::from_millis(5));
        }
    }

    /// Settles the attempt `lease` of job `id` (`None` in-process) with
    /// its summary: folds the attempt's figures into the record, then
    /// retries or finalizes. A summary for an attempt the job no longer
    /// waits on — an expired lease, an already-terminal job — is a
    /// defeated double finalize, counted in `stale_finalizes`.
    pub fn settle(&self, id: u64, lease: Option<(u64, usize)>, attempt: &DoneFrame) {
        let (verdict, priority, attempts) = {
            let mut jobs = self.lock_jobs();
            let Some(rec) = jobs
                .get_mut(&id)
                .filter(|r| !r.state.is_terminal() && r.lease == lease)
            else {
                self.counters
                    .stale_finalizes
                    .fetch_add(1, Ordering::Relaxed);
                telemetry::counter!("serve.stale_finalizes");
                return;
            };
            rec.lease = None;
            rec.run_ms += attempt.run_ms;
            rec.rails_complete = attempt.rails_complete;
            rec.resumed += attempt.resumed;
            rec.solves += attempt.solves;
            rec.area_mm2 = attempt.area_mm2;
            if attempt.profile.is_some() {
                rec.profile.clone_from(&attempt.profile);
            }
            let deadline_passed = rec
                .deadline_ms
                .is_some_and(|d| ms_since(rec.submitted) >= d);
            let v = verdict(
                attempt,
                rec.cancel_requested,
                deadline_passed,
                rec.attempts <= self.config.max_job_retries,
            );
            if v == Verdict::Retry {
                rec.state = JobState::Queued;
            }
            (v, rec.priority, rec.attempts)
        };
        match verdict {
            // The checkpoint is kept, so completed rails restore on the
            // next attempt instead of re-routing.
            Verdict::Retry => self.reenter(id, priority, attempts, Retry::AttemptFailed),
            Verdict::Final(state, error) => self.finalize(id, state, error),
        }
    }

    /// The attempt `lease` of job `id` ended without a summary: retry
    /// it while the budget lasts, else fail it with a typed error.
    pub fn retry(&self, id: u64, lease: Option<(u64, usize)>, why: Retry) {
        let next = {
            let mut jobs = self.lock_jobs();
            let Some(rec) = jobs
                .get_mut(&id)
                .filter(|r| !r.state.is_terminal() && r.lease == lease)
            else {
                return;
            };
            rec.lease = None;
            if rec.attempts <= self.config.max_job_retries && !rec.cancel_requested {
                rec.state = JobState::Queued;
                Some((rec.priority, rec.attempts))
            } else {
                None
            }
        };
        match next {
            Some((priority, attempts)) => self.reenter(id, priority, attempts, why),
            None => self.finalize(id, JobState::Failed, Some(why.exhausted().into())),
        }
    }

    /// The one way back into the queue: seeded backoff, one `retry`
    /// event, one counter.
    fn reenter(&self, id: u64, priority: Priority, attempts: usize, why: Retry) {
        if why == Retry::WorkerDied {
            self.counters.redispatches.fetch_add(1, Ordering::Relaxed);
            telemetry::counter!("serve.redispatches");
        } else {
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            telemetry::counter!("serve.retries");
        }
        let delay = self
            .config
            .backoff
            .delay_ms(id, attempts.saturating_sub(1) as u32);
        self.bus.publish(id, EventKind::Retry, |o| {
            o.str("reason", why.reason())
                .u64("attempt", attempts as u64)
                .f64("backoff_ms", delay);
        });
        self.queue
            .reenter(id, priority, attempts, Duration::from_secs_f64(delay / 1e3));
    }

    /// The single terminal transition: in-memory exactly-once guard,
    /// one terminal counter, one `terminal` event, one journal record,
    /// checkpoint cleanup.
    pub fn finalize(&self, id: u64, state: JobState, error: Option<String>) {
        debug_assert!(state.is_terminal());
        let (latency_ms, fp, error, produced) = {
            let mut jobs = self.lock_jobs();
            let Some(rec) = jobs.get_mut(&id) else { return };
            rec.terminal_transitions += 1;
            if rec.terminal_transitions > 1 {
                self.counters
                    .terminal_violations
                    .fetch_add(1, Ordering::Relaxed);
                telemetry::counter!("serve.terminal_violations");
                return;
            }
            rec.state = state;
            rec.lease = None;
            if rec.error.is_none() {
                rec.error = error;
            }
            let produced = Produced {
                rails_complete: rec.rails_complete,
                area_mm2: rec.area_mm2,
                solves: rec.solves,
            };
            (ms_since(rec.submitted), rec.fp, rec.error.clone(), produced)
        };
        let c = &self.counters;
        let counter = match state {
            JobState::Completed => &c.completed,
            JobState::BestSoFar => &c.best_so_far,
            JobState::Failed => &c.failed,
            JobState::Shed => &c.shed,
            JobState::Expired => &c.expired,
            JobState::Cancelled => &c.cancelled,
            JobState::Queued | JobState::Running => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        telemetry::point("job_terminal")
            .field("job", id)
            .field("state", state.name())
            .field("latency_ms", latency_ms)
            .emit();
        self.bus.publish(id, EventKind::Terminal, |o| {
            o.str("state", state.name()).f64("latency_ms", latency_ms);
            if let Some(e) = &error {
                o.str("error", e);
            }
        });
        self.latencies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(latency_ms);
        self.journal.done(id, fp, state.name(), produced);
        if let Some(path) = self.checkpoint(id) {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> JobCore {
        JobCore::open(CoreConfig {
            queue_capacity: 8,
            max_job_retries: 1,
            backoff: BackoffConfig::default(),
            default_deadline_ms: None,
            overload_watermark: 0.75,
            data_dir: None,
        })
        .expect("open")
    }

    fn attempt(state: &str, rails_complete: usize, retryable: bool) -> DoneFrame {
        DoneFrame {
            state: state.into(),
            rails_complete,
            retryable,
            ..DoneFrame::unroutable(0, 0, 2, "rail failed".into())
        }
    }

    /// Every way one attempt can end, settled on both backends: through
    /// the in-process path (no lease) and the fleet path (a worker
    /// lease). `attempt` is the 0-based attempt the summary reports on;
    /// the budget allows one retry.
    #[test]
    fn settle_classifies_every_outcome_the_same_on_both_backends() {
        struct Case {
            name: &'static str,
            summary: DoneFrame,
            attempt: usize,
            cancel: bool,
            deadline_passed: bool,
            expect: JobState,
        }
        let cases = [
            Case {
                name: "complete",
                summary: DoneFrame {
                    error: None,
                    ..attempt("completed", 2, false)
                },
                attempt: 0,
                cancel: false,
                deadline_passed: false,
                expect: JobState::Completed,
            },
            Case {
                name: "cancelled",
                summary: attempt("cancelled", 0, false),
                attempt: 0,
                cancel: true,
                deadline_passed: false,
                expect: JobState::Cancelled,
            },
            Case {
                name: "deadline hit, rails finished",
                summary: attempt("expired", 1, false),
                attempt: 0,
                cancel: false,
                deadline_passed: false,
                expect: JobState::BestSoFar,
            },
            Case {
                name: "deadline hit, no rail finished",
                summary: attempt("expired", 0, false),
                attempt: 0,
                cancel: false,
                deadline_passed: false,
                expect: JobState::Expired,
            },
            Case {
                name: "deadline passed during a retryable failure",
                summary: attempt("failed", 1, true),
                attempt: 0,
                cancel: false,
                deadline_passed: true,
                expect: JobState::BestSoFar,
            },
            Case {
                name: "retryable failure, budget left",
                summary: attempt("failed", 1, true),
                attempt: 0,
                cancel: false,
                deadline_passed: false,
                expect: JobState::Queued,
            },
            Case {
                name: "retryable failure, budget spent",
                summary: attempt("failed", 0, true),
                attempt: 1,
                cancel: false,
                deadline_passed: false,
                expect: JobState::Failed,
            },
            Case {
                name: "non-retryable failure",
                summary: attempt("failed", 0, false),
                attempt: 0,
                cancel: false,
                deadline_passed: false,
                expect: JobState::Failed,
            },
        ];
        for case in &cases {
            for lease in [None, Some((7, 0))] {
                let core = core();
                let mut spec = JobSpec::two_rail(20.0);
                if case.deadline_passed {
                    spec.deadline_ms = Some(1.0);
                }
                let id = core.submit(spec).expect("submit");
                let entry = QueueEntry {
                    id,
                    priority: Priority::Normal,
                    seq: 0,
                    ready_at: Instant::now(),
                    attempt: case.attempt,
                };
                core.start(&entry, lease).expect("started");
                if case.cancel {
                    core.with_record(id, |r| r.cancel_requested = true);
                }
                if case.deadline_passed {
                    std::thread::sleep(Duration::from_millis(5));
                }
                core.settle(id, lease, &case.summary);
                let snap = core.status(id).expect("known");
                assert_eq!(snap.state, case.expect, "{} (lease {lease:?})", case.name);
                let m = core.metrics();
                assert_eq!(m.retries, u64::from(case.expect == JobState::Queued));
                assert_eq!((m.leased, m.stale_finalizes), (0, 0), "{}", case.name);
                if case.expect == JobState::BestSoFar {
                    assert_eq!(snap.rails_complete, 1, "{}: rails shipped", case.name);
                }
            }
        }
    }

    /// A `done` line carries what the job produced; one written before
    /// those fields existed still replays, reading them as 0. Either
    /// way the finished job keeps the spec it was admitted with.
    #[test]
    fn replay_restores_what_finished_jobs_produced() {
        let mut spec = JobSpec::two_rail(20.0);
        spec.priority = Priority::High;
        let fp = format!("{:016x}", spec_fingerprint(&spec));
        let admit = |id: u64| {
            let mut o = Obj::new();
            o.str("kind", "admit")
                .u64("id", id)
                .str("fp", &fp)
                .raw("spec", &spec.to_json());
            o.finish()
        };
        let journal = [
            admit(1),
            format!(
                r#"{{"kind":"done","id":1,"fp":"{fp}","state":"completed","rails_complete":2,"area_mm2":38.125,"solves":120}}"#
            ),
            admit(2),
            format!(r#"{{"kind":"done","id":2,"fp":"{fp}","state":"failed"}}"#),
        ]
        .join("\n");
        let r = replay_journal(&journal);
        assert!(r.pending.is_empty());
        let produced = |id| r.finished[&id].1;
        assert_eq!(
            produced(1),
            Produced {
                rails_complete: 2,
                area_mm2: 38.125,
                solves: 120
            }
        );
        assert_eq!(produced(2), Produced::default(), "old line reads as 0");
        assert_eq!(r.finished[&2].0, spec);
    }

    /// A writer that died mid-line leaves a torn tail; the next
    /// lifetime's first record must start a line of its own, or replay
    /// would drop that job with the torn line.
    #[test]
    fn an_admit_after_a_torn_tail_survives_replay() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("sprout-lifecycle-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("data dir");
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, r#"{"kind":"admit","id":1,"fp":"00","spec":{"boa"#)
            .expect("torn journal");
        let open = || {
            JobCore::open(CoreConfig {
                data_dir: Some(dir.clone()),
                ..core().config
            })
            .expect("open")
        };
        let id = open().submit(JobSpec::two_rail(20.0)).expect("submit");
        let replay = replay_journal(&std::fs::read_to_string(&path).expect("journal"));
        assert_eq!(replay.pending.len(), 1, "the new admit replays");
        assert_eq!(replay.pending[0].0, id);
        assert_eq!(replay.malformed, 1, "only the torn line is lost");
        assert_eq!(open().status(id).map(|s| s.recovered), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settle_rejects_a_stale_lease_and_a_terminal_job() {
        let core = core();
        let id = core.submit(JobSpec::two_rail(20.0)).expect("submit");
        let entry = QueueEntry {
            id,
            priority: Priority::Normal,
            seq: 0,
            ready_at: Instant::now(),
            attempt: 0,
        };
        core.start(&entry, Some((2, 0))).expect("started");
        let done = DoneFrame {
            error: None,
            ..attempt("completed", 2, false)
        };
        core.settle(id, Some((1, 0)), &done); // an expired lease
        assert_eq!(core.status(id).map(|s| s.state), Some(JobState::Running));
        core.settle(id, Some((2, 0)), &done);
        core.settle(id, Some((2, 0)), &done); // the same report twice
        let snap = core.status(id).expect("known");
        assert_eq!(
            (snap.state, snap.terminal_transitions),
            (JobState::Completed, 1)
        );
        let m = core.metrics();
        assert_eq!((m.stale_finalizes, m.terminal_violations), (2, 0));
        assert_eq!(core.bus.terminal_events(id), 1);
    }
}
