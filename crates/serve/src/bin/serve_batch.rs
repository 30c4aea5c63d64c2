//! `serve_batch` — batch client driving a [`RoutingService`] in
//! process.
//!
//! Submits a sweep of jobs (budget variants over a board preset),
//! waits for every terminal state, and reports throughput and latency.
//! Exits nonzero if any accepted job was lost (no terminal state) or
//! any terminal-state invariant broke — so the binary doubles as a
//! scriptable smoke check.
//!
//! ```text
//! serve_batch [--jobs N] [--workers N] [--queue-capacity N]
//!             [--deadline-ms MS] [--chaos-seed S] [--quiet]
//! ```

use sprout_serve::backoff::BackoffConfig;
use sprout_serve::chaos::ServeFaultPlan;
use sprout_serve::cli::parse;
use sprout_serve::job::{JobSpec, JobState};
use sprout_serve::service::{RoutingService, ServiceConfig, SubmitError};
use sprout_serve::worker::fast_router;
use std::time::{Duration, Instant};

/// Saturation retries per job before giving up on it.
const SUBMIT_ATTEMPTS: u32 = 4;

/// Submits `spec`, riding out saturation with the same seeded backoff
/// schedule the service itself uses — deterministic per job index, and
/// never shorter than the service's own retry-after hint.
fn submit_with_backoff(
    service: &RoutingService,
    backoff: &BackoffConfig,
    k: usize,
    spec: JobSpec,
) -> Result<u64, SubmitError> {
    let mut attempt = 0u32;
    loop {
        match service.submit(spec.clone()) {
            Err(SubmitError::Saturated { retry_after_ms }) if attempt + 1 < SUBMIT_ATTEMPTS => {
                let delay_ms = backoff.delay_ms(k as u64, attempt).max(retry_after_ms);
                std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
                attempt += 1;
            }
            other => return other,
        }
    }
}

fn main() {
    let mut jobs = 8usize;
    let mut workers = 2usize;
    let mut queue_capacity = 64usize;
    let mut deadline_ms: Option<f64> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut quiet = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => jobs = parse(&args, &mut i),
            "--workers" => workers = parse(&args, &mut i),
            "--queue-capacity" => queue_capacity = parse(&args, &mut i),
            "--deadline-ms" => deadline_ms = Some(parse(&args, &mut i)),
            "--chaos-seed" => chaos_seed = Some(parse(&args, &mut i)),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "serve_batch [--jobs N] [--workers N] [--queue-capacity N] \
                     [--deadline-ms MS] [--chaos-seed S] [--quiet]"
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

    let config = ServiceConfig {
        workers,
        queue_capacity,
        router: fast_router(),
        default_deadline_ms: deadline_ms,
        fault: chaos_seed.map(|seed| ServeFaultPlan {
            seed,
            panic_rate: 0.3,
            kill_rate: 0.0,
            slow_rate: 0.2,
            slow_ms: 10,
        }),
        ..ServiceConfig::default()
    };

    let service = match RoutingService::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_batch: {e}");
            std::process::exit(1);
        }
    };

    let submit_backoff = BackoffConfig::default();
    let start = Instant::now();
    let mut ids = Vec::new();
    for k in 0..jobs {
        // Budget sweep: distinct boards-worth of work per job, all
        // comfortably routable on the preset so any failure is the
        // chaos plan's doing rather than the budget's.
        let budget = 20.0 + (k % 3) as f64 * 2.0;
        match submit_with_backoff(&service, &submit_backoff, k, JobSpec::two_rail(budget)) {
            Ok(id) => ids.push(id),
            Err(SubmitError::Saturated { .. }) => {
                eprintln!("serve_batch: job {k} rejected after {SUBMIT_ATTEMPTS} attempts")
            }
            Err(e) => {
                eprintln!("serve_batch: submit {k}: {e}");
                std::process::exit(1);
            }
        }
    }

    if !service.wait_idle(Duration::from_secs(600)) {
        eprintln!("serve_batch: jobs did not settle within 600 s");
        std::process::exit(1);
    }
    service.shutdown(true);
    let wall_s = start.elapsed().as_secs_f64();

    let mut lost = 0usize;
    let mut by_state = [0usize; 6];
    for &id in &ids {
        match service.status(id).map(|s| s.state) {
            Some(JobState::Completed) => by_state[0] += 1,
            Some(JobState::BestSoFar) => by_state[1] += 1,
            Some(JobState::Failed) => by_state[2] += 1,
            Some(JobState::Shed) => by_state[3] += 1,
            Some(JobState::Expired) => by_state[4] += 1,
            Some(JobState::Cancelled) => by_state[5] += 1,
            _ => lost += 1,
        }
    }
    let m = service.metrics();
    let boards_per_s = ids.len() as f64 / wall_s.max(1e-9);
    if !quiet {
        println!(
            "serve_batch: {} jobs in {:.2} s ({:.2} boards/s) — \
             completed {} best_so_far {} failed {} shed {} expired {} cancelled {}",
            ids.len(),
            wall_s,
            boards_per_s,
            by_state[0],
            by_state[1],
            by_state[2],
            by_state[3],
            by_state[4],
            by_state[5],
        );
        println!(
            "serve_batch: p50 {:.1} ms p99 {:.1} ms retries {} panics contained {}",
            m.latency_p50_ms, m.latency_p99_ms, m.retries, m.worker_panics
        );
    }
    if lost > 0 || m.terminal_violations > 0 {
        eprintln!(
            "serve_batch: INVARIANT BROKEN — {lost} lost job(s), {} double finalize(s)",
            m.terminal_violations
        );
        std::process::exit(1);
    }
}
