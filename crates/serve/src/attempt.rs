//! One routing attempt, the same for both executors.
//!
//! The in-process service runs attempts on its worker threads; a fleet
//! worker runs them for its leases. Either way an attempt is the same
//! thing, and it is built here and nowhere else: resolve the spec,
//! apply its pitch override, configure the supervisor, and run it under
//! one [`JobRecorder`] (wave progress, stage spans, residuals, retries,
//! panics) wrapped by a per-attempt [`Profiler`]. The result is the
//! attempt summary both backends settle — a [`DoneFrame`] carrying the
//! rendered profile — plus the full [`JobReport`].
//!
//! What the executors keep for themselves stays with them: the
//! service's fault plan, deadline pre-check, overload degradation and
//! retained reports; the worker's stalls, blackouts and `exit(9)`.

use crate::events::{EventKind, EventSink, JobRecorder};
use crate::job::JobSpec;
use crate::proto::DoneFrame;
use sprout_core::recovery::CancelToken;
use sprout_core::router::RouterConfig;
use sprout_core::supervisor::{JobReport, Supervisor, SupervisorConfig, WaveHook, WaveProgress};
use sprout_telemetry::json::Obj;
use sprout_telemetry::prof::{self, Profiler};
use sprout_telemetry::{self as telemetry, Recorder, RecorderScope};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Slices each attempt's profiler keeps per thread.
const PROFILE_SLICES: usize = 8192;

/// Everything one attempt runs with.
pub(crate) struct Attempt<'a> {
    /// Job id.
    pub job: u64,
    /// Lease the attempt runs under (0 in-process).
    pub lease: u64,
    /// The job spec; resolved here.
    pub spec: &'a JobSpec,
    /// Router configuration before the spec's pitch override.
    pub router: RouterConfig,
    /// Supervisor threads.
    pub threads: usize,
    /// Supervisor retries per rail.
    pub retries: usize,
    /// Wall budget left (ms).
    pub deadline_ms: Option<f64>,
    /// Supervisor checkpoint: resume from it, save after every wave.
    pub checkpoint: Option<PathBuf>,
    /// Cooperative cancellation.
    pub cancel: CancelToken,
    /// Stop after this wave's checkpoint (the injected mid-job kill).
    pub kill_after_wave: Option<usize>,
    /// Where the attempt's job events go.
    pub sink: EventSink,
}

/// A finished attempt.
pub(crate) struct Ran {
    /// The summary to settle, with the rendered profile attached.
    pub done: DoneFrame,
    /// The supervisor's full report.
    pub report: JobReport,
}

impl Attempt<'_> {
    /// Runs the attempt. `Err` is the summary of a spec that does not
    /// resolve — a typed failure no retry can fix.
    pub fn run(self) -> Result<Ran, Box<DoneFrame>> {
        let (job, lease) = (self.job, self.lease);
        let (board, requests) = self.spec.resolve().map_err(|e| {
            Box::new(DoneFrame::unroutable(
                job,
                lease,
                self.spec.rails.len(),
                e.to_string(),
            ))
        })?;
        let mut router = self.router;
        if let Some(pitch) = self.spec.tile_pitch_mm {
            router.tile_pitch_mm = pitch;
        }

        // Stage spans, residual points, retries and panics recorded
        // during the attempt reach the sink with this job's id; the
        // recorder chains to whatever the host installed.
        let recorder = Arc::new(JobRecorder {
            sink: self.sink,
            job,
            inner: telemetry::current(),
        });
        // The hook runs on the supervisor thread after the wave's
        // checkpoint save, off the rail-routing hot path.
        let on_wave: WaveHook = {
            let recorder = Arc::clone(&recorder);
            Arc::new(move |p: WaveProgress| {
                recorder.emit(EventKind::Progress, |o| {
                    o.u64("wave", p.wave as u64)
                        .u64("waves", p.waves as u64)
                        .u64("rails_complete", p.rails_complete as u64)
                        .u64("rails_total", p.rails_total as u64)
                        .f64("elapsed_ms", p.elapsed_ms)
                        .f64("solve_ms", p.solve_ms);
                });
            })
        };
        let config = SupervisorConfig {
            threads: self.threads,
            deadline_ms: self.deadline_ms,
            max_retries: self.retries,
            checkpoint: self.checkpoint,
            cancel: self.cancel,
            kill_after_wave: self.kill_after_wave,
            on_wave: Some(on_wave),
            ..SupervisorConfig::default()
        };

        // The profiler captures this attempt's thread timeline and
        // forwards every event on to the job recorder.
        let profiler = Profiler::with_capacity(PROFILE_SLICES);
        let contention_base = prof::snapshot();
        let start = Instant::now();
        let report = {
            let _scope =
                RecorderScope::install(profiler.recorder(Some(recorder as Arc<dyn Recorder>)));
            Supervisor::new(&board, router, config).run(&requests)
        };
        let run_ms = start.elapsed().as_secs_f64() * 1e3;
        telemetry::histogram!("serve.attempt_ms", run_ms as u64);

        let mut done = DoneFrame::from_report(job, lease, &report, run_ms);
        let timeline = profiler.drain();
        if !timeline.is_empty() {
            // Lock stats are process-wide, so under concurrent jobs the
            // delta over-attributes shared-lock waits to each job — fine
            // for a forensic summary, stated here so nobody sums them.
            let contention = prof::snapshot().delta_since(&contention_base);
            let diagnosis = prof::diagnose(&timeline, &contention, self.threads);
            let mut o = Obj::new();
            o.u64("job", job)
                .f64("attempt_ms", (run_ms * 1e3).round() / 1e3)
                .u64("slices", timeline.slice_count() as u64)
                .raw("diagnosis", &diagnosis.to_json());
            done.profile = Some(o.finish());
        }
        Ok(Ran { done, report })
    }
}
