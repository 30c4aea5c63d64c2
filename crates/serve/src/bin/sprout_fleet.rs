//! `sprout_fleet` — fleet-mode smoke driver and demo CLI.
//!
//! Starts a [`FleetCoordinator`] over N worker processes, submits a
//! budget sweep of jobs, waits for every terminal state, drains
//! gracefully, and reports throughput, latency, and fault counters.
//! Exits nonzero if any accepted job was lost or any exactly-once
//! invariant broke — so the binary doubles as the CI `fleet-smoke`
//! check. SIGTERM triggers a graceful drain.
//!
//! ```text
//! sprout_fleet [--jobs N] [--workers N] [--queue-capacity N]
//!              [--deadline-ms MS] [--data-dir PATH]
//!              [--chaos-seed S] [--kill-rate F] [--stall-rate F]
//!              [--stall-ms N] [--blackout-rate F] [--blackout-ms N]
//!              [--heartbeat-ms N] [--heartbeat-timeout-ms N] [--quiet]
//! ```

use sprout_serve::backoff::BackoffConfig;
use sprout_serve::chaos::FleetFaultPlan;
use sprout_serve::cli::{parse, sigterm_flag, take};
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::job::{JobSpec, JobState};
use sprout_serve::service::SubmitError;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Saturation retries per job before giving up on it.
const SUBMIT_ATTEMPTS: u32 = 4;

fn main() {
    let mut jobs = 8usize;
    let mut config = FleetConfig {
        worker_args: vec!["--router".into(), "fast".into()],
        ..FleetConfig::default()
    };
    let mut deadline_ms: Option<f64> = None;
    let mut fault = FleetFaultPlan {
        seed: 0,
        kill_rate: 0.0,
        stall_rate: 0.0,
        stall_ms: 20,
        blackout_rate: 0.0,
        blackout_ms: 800,
    };
    let mut have_fault = false;
    let mut quiet = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if fault.parse_flag(&args, &mut i) {
            have_fault = true;
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--jobs" => jobs = parse(&args, &mut i),
            "--workers" => config.workers = parse(&args, &mut i),
            "--queue-capacity" => config.queue_capacity = parse(&args, &mut i),
            "--deadline-ms" => deadline_ms = Some(parse(&args, &mut i)),
            "--data-dir" => config.data_dir = Some(take(&args, &mut i).into()),
            "--heartbeat-ms" => config.heartbeat_ms = parse(&args, &mut i),
            "--heartbeat-timeout-ms" => config.heartbeat_timeout_ms = parse(&args, &mut i),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "sprout_fleet [--jobs N] [--workers N] [--queue-capacity N] \
                     [--deadline-ms MS] [--data-dir PATH] [--chaos-seed S] [--kill-rate F] \
                     [--stall-rate F] [--stall-ms N] [--blackout-rate F] [--blackout-ms N] \
                     [--heartbeat-ms N] [--heartbeat-timeout-ms N] [--quiet]"
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
    config.default_deadline_ms = deadline_ms;
    if have_fault {
        config.fault = Some(fault);
    }

    // Use a scratch data dir when none was given: cross-process resume
    // needs shared checkpoints to be interesting at all.
    let scratch;
    if config.data_dir.is_none() {
        scratch = std::env::temp_dir().join(format!("sprout-fleet-{}", std::process::id()));
        config.data_dir = Some(scratch.clone());
    } else {
        scratch = std::path::PathBuf::new();
    }

    let sigterm = sigterm_flag();
    let fleet = match FleetCoordinator::start(config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sprout_fleet: {e}");
            std::process::exit(1);
        }
    };

    // Saturation rides the same seeded backoff schedule the coordinator
    // uses internally, never shorter than the retry-after hint.
    let submit_backoff = BackoffConfig::default();
    let start = Instant::now();
    let mut ids = Vec::new();
    for k in 0..jobs {
        let budget = 20.0 + (k % 3) as f64 * 2.0;
        let mut attempt = 0u32;
        let outcome = loop {
            match fleet.submit(JobSpec::two_rail(budget)) {
                Err(SubmitError::Saturated { retry_after_ms }) if attempt + 1 < SUBMIT_ATTEMPTS => {
                    let delay_ms = submit_backoff
                        .delay_ms(k as u64, attempt)
                        .max(retry_after_ms);
                    std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
                    attempt += 1;
                }
                other => break other,
            }
        };
        match outcome {
            Ok(id) => ids.push(id),
            Err(SubmitError::Saturated { .. }) => {
                eprintln!("sprout_fleet: job {k} rejected after {SUBMIT_ATTEMPTS} attempts")
            }
            Err(e) => {
                eprintln!("sprout_fleet: submit {k}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Wait for idle, watching for SIGTERM → graceful drain.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if fleet.wait_idle(Duration::from_millis(100)) {
            break;
        }
        if sigterm.load(Ordering::SeqCst) {
            eprintln!("sprout_fleet: SIGTERM — draining");
            fleet.drain(Duration::from_secs(60));
            std::process::exit(0);
        }
        if Instant::now() >= deadline {
            eprintln!("sprout_fleet: jobs did not settle within 600 s");
            std::process::exit(1);
        }
    }
    let drained = fleet.drain(Duration::from_secs(60));
    let wall_s = start.elapsed().as_secs_f64();

    let mut lost = 0usize;
    let mut resumed_jobs = 0usize;
    let mut by_state = [0usize; 6];
    for &id in &ids {
        match fleet.status(id) {
            Some(snap) => {
                if snap.resumed > 0 {
                    resumed_jobs += 1;
                }
                match snap.state {
                    JobState::Completed => by_state[0] += 1,
                    JobState::BestSoFar => by_state[1] += 1,
                    JobState::Failed => by_state[2] += 1,
                    JobState::Shed => by_state[3] += 1,
                    JobState::Expired => by_state[4] += 1,
                    JobState::Cancelled => by_state[5] += 1,
                    _ => lost += 1,
                }
            }
            None => lost += 1,
        }
    }
    let m = fleet.metrics();
    if !quiet {
        println!(
            "sprout_fleet: {} jobs across {} workers in {:.2} s ({:.2} boards/s) — \
             completed {} best_so_far {} failed {} shed {} expired {} cancelled {}",
            ids.len(),
            m.workers_spawned,
            wall_s,
            ids.len() as f64 / wall_s.max(1e-9),
            by_state[0],
            by_state[1],
            by_state[2],
            by_state[3],
            by_state[4],
            by_state[5],
        );
        println!(
            "sprout_fleet: p50 {:.1} ms p99 {:.1} ms — workers dead {} restarts {} \
             redispatches {} stale finalizes {} resumed jobs {}",
            m.latency_p50_ms,
            m.latency_p99_ms,
            m.workers_dead,
            m.worker_restarts,
            m.redispatches,
            m.stale_finalizes,
            resumed_jobs,
        );
    }
    drop(fleet);
    if !scratch.as_os_str().is_empty() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    if lost > 0 || m.terminal_violations > 0 || !drained {
        eprintln!(
            "sprout_fleet: INVARIANT BROKEN — {lost} lost job(s), {} double finalize(s), drained={drained}",
            m.terminal_violations
        );
        std::process::exit(1);
    }
}
