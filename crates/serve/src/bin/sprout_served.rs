//! `sprout_served` — the routing-service daemon.
//!
//! Starts a [`RoutingService`] — or, with `--fleet N`, a
//! [`FleetCoordinator`] over N worker processes — and serves the same
//! HTTP/1.1 JSON API until SIGTERM (or until `--run-for-ms` elapses,
//! for scripted smoke tests). Either way the stop is a graceful drain:
//! the listener closes, in-flight jobs finish (or checkpoint, in fleet
//! mode), queued work stays journaled for the next start, and a
//! `drained` line with the final metrics is printed before exit 0.
//!
//! ```text
//! sprout_served [--addr 127.0.0.1:7171] [--workers N] [--queue-capacity N]
//!               [--data-dir DIR] [--deadline-ms MS] [--run-for-ms MS]
//!               [--fleet N]
//! ```

use sprout_serve::cli::{parse, sigterm_flag, take};
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::http::{HttpServer, JobBackend};
use sprout_serve::service::{RoutingService, ServiceConfig};
use std::fmt::Display;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut addr = "127.0.0.1:7171".to_owned();
    let mut config = ServiceConfig::default();
    let mut run_for_ms: Option<u64> = None;
    let mut fleet_workers: Option<usize> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(&args, &mut i),
            "--workers" => config.workers = parse(&args, &mut i),
            "--queue-capacity" => config.queue_capacity = parse(&args, &mut i),
            "--data-dir" => config.data_dir = Some(take(&args, &mut i).into()),
            "--deadline-ms" => config.default_deadline_ms = Some(parse(&args, &mut i)),
            "--run-for-ms" => run_for_ms = Some(parse(&args, &mut i)),
            "--fleet" => fleet_workers = Some(parse(&args, &mut i)),
            "--help" | "-h" => {
                println!(
                    "sprout_served [--addr A] [--workers N] [--queue-capacity N] \
                     [--data-dir DIR] [--deadline-ms MS] [--run-for-ms MS] [--fleet N]"
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

    // Install the handler before any worker thread or process exists.
    let sigterm = sigterm_flag();
    let stop_at = run_for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let until_stopped = || loop {
        std::thread::sleep(Duration::from_millis(50));
        if sigterm.load(Ordering::SeqCst) {
            eprintln!("sprout_served: SIGTERM — draining");
            return;
        }
        if stop_at.is_some_and(|t| Instant::now() >= t) {
            return;
        }
    };

    match fleet_workers {
        Some(workers) => {
            let fleet = FleetCoordinator::start(FleetConfig {
                workers,
                queue_capacity: config.queue_capacity,
                data_dir: config.data_dir.clone(),
                default_deadline_ms: config.default_deadline_ms,
                worker_args: vec!["--router".into(), "fast".into()],
                ..FleetConfig::default()
            });
            let mode = format!("fleet, {workers} workers");
            serve(&addr, &mode, fleet, until_stopped, |f| {
                f.drain(Duration::from_secs(60));
            });
        }
        None => serve(
            &addr,
            "in-process",
            RoutingService::start(config),
            until_stopped,
            |s| s.shutdown(true),
        ),
    }
}

/// The one serve loop for both backends: bind, serve until
/// `until_stopped` returns, close the listener, `drain` the backend and
/// print its final metrics.
fn serve<B: JobBackend + 'static>(
    addr: &str,
    mode: &str,
    backend: Result<B, impl Display>,
    until_stopped: impl FnOnce(),
    drain: impl FnOnce(&B),
) {
    let backend = match backend {
        Ok(b) => Arc::new(b),
        Err(e) => {
            eprintln!("sprout_served: {e}");
            std::process::exit(1);
        }
    };
    let mut server = match HttpServer::bind(addr, Arc::clone(&backend)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sprout_served: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sprout_served listening on http://{} ({mode})",
        server.addr()
    );
    until_stopped();
    server.stop();
    drain(&backend);
    println!("sprout_served: drained; {}", backend.metrics_json());
}
