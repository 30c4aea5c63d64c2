//! Fleet worker: one process, one job at a time, heartbeats always.
//!
//! [`run_worker`] is the whole worker: it announces itself with a
//! `hello` frame, starts a heartbeat thread, and then serves
//! [`CoordFrame::Lease`] frames from its input until EOF or a
//! [`CoordFrame::Drain`]. Each leased job runs through the same
//! [`crate::attempt`] runner as an in-process attempt, with the lease's
//! checkpoint path, so a job re-dispatched from a dead worker resumes
//! from whatever waves the dead worker finished — the checkpoint file
//! in the coordinator's data directory is the cross-process handoff.
//!
//! The runner's job-event recorder ships every event as a
//! [`WorkerFrame::Event`] frame, and the attempt's summary — a
//! [`DoneFrame`] carrying the rendered profile — goes back as the
//! `done` frame; the coordinator's job core owns the retry decision.
//! Heartbeats run on their own thread, so they keep flowing while a
//! long job routes — only an injected blackout, a SIGSTOP, or real
//! death silences them.
//!
//! Process-level faults ([`FleetFaultPlan`]) are drawn *inside* the
//! worker from `(seed, job, attempt)` carried by the lease, so a chaos
//! schedule replays identically whichever worker a job lands on. The
//! injected kill stops the supervisor after wave 0's checkpoint is on
//! disk and then `exit(9)`s — by construction the coordinator can
//! always resume what it re-dispatches.

use crate::attempt::Attempt;
use crate::chaos::FleetFaultPlan;
use crate::cli::{parse, take};
use crate::events::{EventKind, EventSink};
use crate::job::JobSpec;
use crate::proto::{CoordFrame, DoneFrame, WorkerFrame};
use sprout_core::recovery::{CancelToken, RecoveryConfig, RecoveryPolicy, StageBudget};
use sprout_core::router::RouterConfig;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker configuration, normally parsed from the command line by
/// [`worker_main`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Heartbeat period (ms).
    pub heartbeat_ms: u64,
    /// Router configuration for every job (pitch may be overridden per
    /// job spec).
    pub router: RouterConfig,
    /// Supervisor threads per job.
    pub supervisor_threads: usize,
    /// Supervisor-level retries per rail.
    pub supervisor_retries: usize,
    /// Process-level fault injection (testing only).
    pub fault: Option<FleetFaultPlan>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_ms: 100,
            router: RouterConfig::default(),
            supervisor_threads: 1,
            supervisor_retries: 1,
            fault: None,
        }
    }
}

/// The router profile the chaos suites and smoke binaries use: coarse
/// pitch, few iterations, `BestSoFar` — fast enough to run dozens of
/// jobs per test, complete enough to exercise every wave path.
pub fn fast_router() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        recovery: RecoveryConfig {
            policy: RecoveryPolicy::BestSoFar,
            budget: StageBudget::default(),
            fault: None,
        },
        ..RouterConfig::default()
    }
}

struct Outbound<W: Write> {
    out: Mutex<W>,
}

impl<W: Write> Outbound<W> {
    fn send(&self, frame: &WorkerFrame) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A closed pipe means the coordinator is gone; the read loop
        // will see EOF and exit — nothing useful to do with the error.
        let _ = writeln!(out, "{}", frame.to_json());
        let _ = out.flush();
    }
}

/// Runs the worker protocol over the given streams until EOF or a
/// drain frame. Returns the number of jobs completed (all outcomes).
///
/// Input is normally the process's stdin and output its stdout; tests
/// drive it with in-memory pipes.
pub fn run_worker<R, W>(config: WorkerConfig, input: R, output: W) -> usize
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let out = Arc::new(Outbound {
        out: Mutex::new(output),
    });
    out.send(&WorkerFrame::Hello {
        pid: std::process::id(),
    });

    // Heartbeats flow on their own thread for the whole process
    // lifetime; `blackout` silences them without stopping the clock.
    // The startup beat is sent here, before the thread exists: the
    // coordinator's liveness check must not depend on the beat thread
    // being scheduled before a short input runs out and sets `stop`.
    let stop = Arc::new(AtomicBool::new(false));
    let blackout = Arc::new(AtomicBool::new(false));
    let seq = AtomicU64::new(0);
    out.send(&WorkerFrame::Heartbeat {
        seq: seq.fetch_add(1, Ordering::SeqCst),
    });
    let beat = {
        let out = Arc::clone(&out);
        let stop = Arc::clone(&stop);
        let blackout = Arc::clone(&blackout);
        let period = Duration::from_millis(config.heartbeat_ms.max(1));
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if !blackout.load(Ordering::SeqCst) {
                out.send(&WorkerFrame::Heartbeat {
                    seq: seq.fetch_add(1, Ordering::SeqCst),
                });
            }
        })
    };

    let mut served = 0usize;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match CoordFrame::parse(&line) {
            Ok(CoordFrame::Lease {
                job,
                lease,
                attempt,
                spec,
                deadline_ms,
                checkpoint,
            }) => {
                let done = run_lease(
                    &config,
                    &out,
                    &blackout,
                    job,
                    lease,
                    attempt,
                    &spec,
                    deadline_ms,
                    checkpoint.map(PathBuf::from),
                );
                out.send(&WorkerFrame::Done(done));
                served += 1;
            }
            Ok(CoordFrame::Drain) => break,
            // A frame this worker cannot parse is the coordinator's
            // bug, not a reason to die: skip it and keep heartbeating.
            Err(_) => continue,
        }
    }

    stop.store(true, Ordering::SeqCst);
    let _ = beat.join();
    served
}

#[allow(clippy::too_many_arguments)]
fn run_lease<W>(
    config: &WorkerConfig,
    out: &Arc<Outbound<W>>,
    blackout: &Arc<AtomicBool>,
    job: u64,
    lease: u64,
    attempt: usize,
    spec: &JobSpec,
    deadline_ms: Option<f64>,
    checkpoint: Option<PathBuf>,
) -> DoneFrame
where
    W: Write + Send + 'static,
{
    // Injected process faults, decided from (seed, job, attempt) so the
    // schedule is identical whichever worker the job lands on.
    let mut kill = false;
    if let Some(plan) = config.fault {
        if plan.stalls(job, attempt) {
            std::thread::sleep(Duration::from_millis(plan.stall_ms));
        }
        if plan.blackouts(job, attempt) {
            // The slow-then-revived worker: heartbeats stop long enough
            // for the lease to expire, but the job still finishes and
            // reports — the stale `done` the coordinator must ignore.
            blackout.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(plan.blackout_ms));
            blackout.store(false, Ordering::SeqCst);
        }
        kill = plan.kills(job, attempt);
    }

    // Every job event goes out as an event frame for the coordinator's
    // bus, rendered exactly as the in-process recorder renders it.
    let sink = {
        let out = Arc::clone(out);
        EventSink::Rendered(Arc::new(move |kind: EventKind, body: String| {
            out.send(&WorkerFrame::Event {
                job,
                lease,
                event: kind.name().to_owned(),
                body,
            });
        }))
    };
    let ran = Attempt {
        job,
        lease,
        spec,
        router: config.router,
        threads: config.supervisor_threads,
        retries: config.supervisor_retries,
        deadline_ms,
        checkpoint,
        cancel: CancelToken::new(),
        kill_after_wave: kill.then_some(0),
        sink,
    }
    .run();
    match ran {
        // The deterministic `kill -9`: the supervisor stopped after
        // wave 0's checkpoint, every event frame is flushed, and the
        // process dies without reporting — exactly what a real SIGKILL
        // leaves behind.
        Ok(_) if kill => std::process::exit(9),
        Ok(ran) => ran.done,
        Err(unroutable) => *unroutable,
    }
}

/// The `sprout_fleet_worker` entry point: parses the worker command
/// line and serves leases over stdin/stdout. Shared as a library
/// function so the integration-test harness can build a bit-identical
/// worker binary in its own package.
pub fn worker_main() {
    let mut config = WorkerConfig::default();
    let mut fault = FleetFaultPlan::quiet(0);
    let mut have_fault = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if fault.parse_flag(&args, &mut i) {
            have_fault = true;
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--heartbeat-ms" => config.heartbeat_ms = parse(&args, &mut i),
            "--router" => match take(&args, &mut i).as_str() {
                "fast" => config.router = fast_router(),
                "default" => config.router = RouterConfig::default(),
                other => {
                    eprintln!("unknown router profile `{other}` (expected fast|default)");
                    std::process::exit(2);
                }
            },
            "--supervisor-threads" => config.supervisor_threads = parse(&args, &mut i),
            "--supervisor-retries" => config.supervisor_retries = parse(&args, &mut i),
            "--help" | "-h" => {
                println!(
                    "sprout_fleet_worker [--heartbeat-ms N] [--router fast|default] \
                     [--supervisor-threads N] [--supervisor-retries N] [--chaos-seed S] \
                     [--kill-rate F] [--stall-rate F] [--stall-ms N] \
                     [--blackout-rate F] [--blackout-ms N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if have_fault {
        config.fault = Some(fault);
    }

    let stdin = std::io::stdin();
    run_worker(config, stdin.lock(), std::io::stdout());
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_telemetry::json::{parse, Json};
    use std::io::Cursor;

    /// A Vec<u8> sink shared with the test thread.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frames(buf: &SharedBuf) -> Vec<WorkerFrame> {
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| WorkerFrame::parse(l).expect("worker emits valid frames"))
            .collect()
    }

    #[test]
    fn worker_serves_a_lease_in_process() {
        let lease = CoordFrame::Lease {
            job: 1,
            lease: 100,
            attempt: 0,
            spec: JobSpec::two_rail(20.0),
            deadline_ms: None,
            checkpoint: None,
        };
        let input = format!("{}\n{}\n", lease.to_json(), CoordFrame::Drain.to_json());
        let out = SharedBuf::default();
        let config = WorkerConfig {
            router: fast_router(),
            ..WorkerConfig::default()
        };
        let served = run_worker(config, Cursor::new(input), out.clone());
        assert_eq!(served, 1);
        let fs = frames(&out);
        assert!(matches!(fs.first(), Some(WorkerFrame::Hello { .. })));
        let done = fs
            .iter()
            .find_map(|f| match f {
                WorkerFrame::Done(d) => Some(d.clone()),
                _ => None,
            })
            .expect("done frame");
        assert_eq!(done.job, 1);
        assert_eq!(done.lease, 100);
        assert_eq!(done.state, "completed");
        assert_eq!(done.rails_complete, 2);
        // Two rails on one layer = two waves = two progress events;
        // stage spans ride along as their own event frames.
        let events: Vec<(&str, Json)> = fs
            .iter()
            .filter_map(|f| match f {
                WorkerFrame::Event {
                    job,
                    lease,
                    event,
                    body,
                } => {
                    assert_eq!((*job, *lease), (1, 100), "event under the lease");
                    Some((event.as_str(), parse(body).expect("body is JSON")))
                }
                _ => None,
            })
            .collect();
        let progress: Vec<&Json> = events
            .iter()
            .filter(|(e, _)| *e == "progress")
            .map(|(_, b)| b)
            .collect();
        assert_eq!(progress.len(), 2);
        assert!(
            events.iter().any(
                |(e, b)| *e == "stage" && b.get("stage").and_then(Json::as_str) == Some("grow")
            ),
            "stage spans must be forwarded as event frames"
        );
        let timed = progress
            .iter()
            .any(|b| b.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        assert!(timed, "progress events must carry elapsed_ms");
        // The done frame carries the attempt's profile.
        let profile = parse(done.profile.as_deref().expect("profile")).expect("profile JSON");
        assert_eq!(profile.get("job").and_then(Json::as_u64), Some(1));
        assert!(profile.get("diagnosis").is_some());
    }

    #[test]
    fn worker_heartbeats_while_idle_and_skips_garbage() {
        // No lease at all: just garbage lines, then EOF. The input ends
        // before the beat thread is likely to be scheduled, so repeat
        // the run: the startup beat must go out every time.
        for run in 0..50 {
            let input = "nonsense\n{\"type\":\"warp\"}\n";
            let out = SharedBuf::default();
            let config = WorkerConfig {
                heartbeat_ms: 5,
                router: fast_router(),
                ..WorkerConfig::default()
            };
            let served = run_worker(config, Cursor::new(input), out.clone());
            assert_eq!(served, 0);
            assert!(
                frames(&out)
                    .iter()
                    .any(|f| matches!(f, WorkerFrame::Heartbeat { .. })),
                "run {run}: no startup heartbeat"
            );
        }
    }
}
