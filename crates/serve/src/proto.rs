//! Fleet wire protocol: newline-delimited JSON frames between the
//! coordinator and its worker processes.
//!
//! The coordinator owns each worker's stdin/stdout pipe pair. Frames
//! are one JSON object per line — the same hand-rolled JSON as the rest
//! of the workspace, hardened the same way: a frame that fails to parse
//! is a typed [`ProtoError`], never a panic, and the peer that sent it
//! is treated as faulty rather than trusted.
//!
//! Worker → coordinator: [`WorkerFrame::Hello`] once at startup,
//! [`WorkerFrame::Heartbeat`] on a timer (the liveness signal leases
//! hang off), one [`WorkerFrame::Event`] per job event the attempt's
//! recorder delivers (wave progress — sent only once that wave's
//! checkpoint is on disk — stage spans, residuals, retries, panics),
//! and [`WorkerFrame::Done`] when a leased job finishes, carrying the
//! attempt's rendered profile. An event frame's body is the event's
//! fields exactly as the in-process recorder renders them; the
//! coordinator checks the lease and republishes the body verbatim, so
//! the two backends stream the same events.
//!
//! Coordinator → worker: [`CoordFrame::Lease`] assigning one job (spec
//! embedded, checkpoint path shared through the coordinator's data
//! directory — that file is the cross-process resume handoff), and
//! [`CoordFrame::Drain`] asking the worker to exit once idle.
//!
//! Every `Done` is keyed by `(job, lease)` and the journal key adds the
//! [`spec_fingerprint`]: a revived worker reporting under an expired
//! lease is detected and ignored, which is what makes finalize
//! idempotent at the fleet level.

use crate::job::JobSpec;
use sprout_board::io::fnv1a64;
use sprout_core::supervisor::{is_retryable, JobReport};
use sprout_core::SproutError;
use sprout_telemetry::json::{self, Json, Obj};
use std::fmt;

/// Longest accepted frame line (bytes). A worker that emits more is
/// malfunctioning or hostile; the coordinator drops the frame.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A frame the protocol could not accept.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line is not valid JSON.
    Json(String),
    /// The `type` field is missing or unknown.
    UnknownType(String),
    /// A required field is missing or mistyped for the frame type.
    Field(&'static str),
    /// The line exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "frame is not valid JSON: {e}"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type `{t}`"),
            ProtoError::Field(what) => write!(f, "missing or mistyped frame field `{what}`"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_BYTES}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Fingerprint of a job spec — FNV-1a over its canonical JSON line.
/// The journal's idempotent-finalize key is `(job id, fingerprint)`:
/// a terminal record only counts for the job it was actually computed
/// for, even across coordinator restarts and id reuse by a corrupt
/// journal.
pub fn spec_fingerprint(spec: &JobSpec) -> u64 {
    fnv1a64(spec.to_json().as_bytes())
}

/// The summary of one routing attempt: what a fleet worker reports for
/// a leased job, and what the in-process service builds for its own
/// attempts. The executor *classifies*; the shared job core *decides*
/// (retry vs finalize), so the retry policy lives in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneFrame {
    /// Job id.
    pub job: u64,
    /// The lease this run was performed under (0 in-process).
    pub lease: u64,
    /// Outcome hint: `completed`, `expired`, `cancelled` (every failed
    /// rail was cancelled), or `failed`.
    pub state: String,
    /// Rails restored from the checkpoint instead of re-routed.
    pub resumed: usize,
    /// Rails complete at the end of the attempt.
    pub rails_complete: usize,
    /// Rails in the job.
    pub rails_total: usize,
    /// Shipped metal area (mm²).
    pub area_mm2: f64,
    /// Linear solves spent.
    pub solves: u64,
    /// Routing wall clock (ms).
    pub run_ms: f64,
    /// First typed error, for non-completed outcomes.
    pub error: Option<String>,
    /// `true` when the failure class is worth re-dispatching.
    pub retryable: bool,
    /// The attempt's performance profile (rendered JSON: `job`,
    /// `attempt_ms`, `slices`, `diagnosis`), when the attempt routed.
    pub profile: Option<String>,
}

impl DoneFrame {
    /// An attempt that failed before routing, with a typed error that
    /// no retry can fix (an unresolvable board or rail list).
    pub fn unroutable(job: u64, lease: u64, rails_total: usize, error: String) -> DoneFrame {
        DoneFrame {
            job,
            lease,
            state: "failed".into(),
            resumed: 0,
            rails_complete: 0,
            rails_total,
            area_mm2: 0.0,
            solves: 0,
            run_ms: 0.0,
            error: Some(error),
            retryable: false,
            profile: None,
        }
    }

    /// Summarizes a supervisor run that took `run_ms`.
    pub fn from_report(job: u64, lease: u64, report: &JobReport, run_ms: f64) -> DoneFrame {
        let mut done = DoneFrame {
            job,
            lease,
            state: "completed".into(),
            resumed: report.resumed,
            rails_complete: report
                .rails
                .iter()
                .filter(|r| r.outcome.is_complete())
                .count(),
            rails_total: report.rails.len(),
            area_mm2: report.shapes().iter().map(|(_, _, sh)| sh.area_mm2()).sum(),
            solves: report.results().map(|r| r.timings.solves as u64).sum(),
            run_ms,
            error: None,
            retryable: false,
            profile: None,
        };
        if report.is_complete() {
            return done;
        }
        let (mut any_deadline, mut all_cancelled) = (false, true);
        for (_, e) in report.failures() {
            if done.error.is_none() {
                done.error = Some(e.to_string());
            }
            done.retryable |= is_retryable(e);
            any_deadline |= matches!(e, SproutError::DeadlineExpired { .. });
            all_cancelled &= matches!(e, SproutError::Cancelled);
        }
        done.state = if done.error.is_some() && all_cancelled {
            "cancelled"
        } else if any_deadline {
            "expired"
        } else {
            "failed"
        }
        .into();
        done
    }
}

/// A frame sent by a worker process.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// First frame after startup.
    Hello {
        /// The worker's OS process id.
        pid: u32,
    },
    /// Periodic liveness signal.
    Heartbeat {
        /// Monotone per-worker sequence number.
        seq: u64,
    },
    /// One job event of a leased attempt, for the coordinator to
    /// republish on its event bus.
    Event {
        /// Job id.
        job: u64,
        /// Lease id.
        lease: u64,
        /// Event kind wire name (`progress`, `stage`, `residual`, …).
        event: String,
        /// The event's fields as a rendered JSON object. It travels as
        /// a JSON string, so the coordinator republishes it byte for
        /// byte.
        body: String,
    },
    /// A leased job finished.
    Done(DoneFrame),
}

impl WorkerFrame {
    /// Serializes the frame as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        match self {
            WorkerFrame::Hello { pid } => {
                o.str("type", "hello").u64("pid", u64::from(*pid));
            }
            WorkerFrame::Heartbeat { seq } => {
                o.str("type", "heartbeat").u64("seq", *seq);
            }
            WorkerFrame::Event {
                job,
                lease,
                event,
                body,
            } => {
                o.str("type", "event")
                    .u64("job", *job)
                    .u64("lease", *lease)
                    .str("event", event)
                    .str("body", body);
            }
            WorkerFrame::Done(d) => {
                o.str("type", "done")
                    .u64("job", d.job)
                    .u64("lease", d.lease)
                    .str("state", &d.state)
                    .u64("resumed", d.resumed as u64)
                    .u64("rails_complete", d.rails_complete as u64)
                    .u64("rails_total", d.rails_total as u64)
                    .f64("area_mm2", d.area_mm2)
                    .u64("solves", d.solves)
                    .f64("run_ms", d.run_ms)
                    .bool("retryable", d.retryable);
                if let Some(e) = &d.error {
                    o.str("error", e);
                }
                if let Some(p) = &d.profile {
                    o.str("profile", p);
                }
            }
        }
        o.finish()
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; hostile input never panics.
    pub fn parse(line: &str) -> Result<WorkerFrame, ProtoError> {
        let root = parse_frame(line)?;
        let ty = frame_type(&root)?;
        match ty.as_str() {
            "hello" => Ok(WorkerFrame::Hello {
                pid: need_u64(&root, "pid")? as u32,
            }),
            "heartbeat" => Ok(WorkerFrame::Heartbeat {
                seq: need_u64(&root, "seq")?,
            }),
            "event" => Ok(WorkerFrame::Event {
                job: need_u64(&root, "job")?,
                lease: need_u64(&root, "lease")?,
                event: need_str(&root, "event")?.to_owned(),
                // The body is spliced verbatim into event lines, so
                // anything but a JSON object is a faulty frame.
                body: need_str(&root, "body")
                    .ok()
                    .filter(|b| is_object(b))
                    .ok_or(ProtoError::Field("body"))?
                    .to_owned(),
            }),
            "done" => Ok(WorkerFrame::Done(DoneFrame {
                job: need_u64(&root, "job")?,
                lease: need_u64(&root, "lease")?,
                state: need_str(&root, "state")?.to_owned(),
                resumed: need_u64(&root, "resumed")? as usize,
                rails_complete: need_u64(&root, "rails_complete")? as usize,
                rails_total: need_u64(&root, "rails_total")? as usize,
                area_mm2: root.get("area_mm2").and_then(Json::as_f64).unwrap_or(0.0),
                solves: root.get("solves").and_then(Json::as_u64).unwrap_or(0),
                run_ms: root.get("run_ms").and_then(Json::as_f64).unwrap_or(0.0),
                error: root.get("error").and_then(Json::as_str).map(str::to_owned),
                retryable: matches!(root.get("retryable"), Some(Json::Bool(true))),
                // Served verbatim as JSON: a malformed profile is
                // dropped, never the result it rides with.
                profile: root
                    .get("profile")
                    .and_then(Json::as_str)
                    .filter(|p| is_object(p))
                    .map(str::to_owned),
            })),
            other => Err(ProtoError::UnknownType(other.to_owned())),
        }
    }
}

/// A frame sent by the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordFrame {
    /// Assign one job under a lease.
    Lease {
        /// Job id.
        job: u64,
        /// Lease id — unique per dispatch, so a re-dispatched job's
        /// stale first run is distinguishable from the live one.
        lease: u64,
        /// Dispatch attempt (0-based) — the fault plan's and backoff's
        /// escalation key.
        attempt: usize,
        /// The job spec, embedded.
        spec: JobSpec,
        /// Wall budget remaining at dispatch (ms).
        deadline_ms: Option<f64>,
        /// Supervisor checkpoint path, shared through the coordinator's
        /// data directory: attempt `n+1` on any worker resumes from the
        /// waves attempt `n` finished on whichever worker ran it.
        checkpoint: Option<String>,
    },
    /// Finish the current job (if any), then exit cleanly.
    Drain,
}

impl CoordFrame {
    /// Serializes the frame as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        match self {
            CoordFrame::Lease {
                job,
                lease,
                attempt,
                spec,
                deadline_ms,
                checkpoint,
            } => {
                o.str("type", "lease")
                    .u64("job", *job)
                    .u64("lease", *lease)
                    .u64("attempt", *attempt as u64)
                    .raw("spec", &spec.to_json());
                if let Some(d) = deadline_ms {
                    o.f64("deadline_ms", *d);
                }
                if let Some(c) = checkpoint {
                    o.str("checkpoint", c);
                }
            }
            CoordFrame::Drain => {
                o.str("type", "drain");
            }
        }
        o.finish()
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; hostile input never panics.
    pub fn parse(line: &str) -> Result<CoordFrame, ProtoError> {
        let root = parse_frame(line)?;
        let ty = frame_type(&root)?;
        match ty.as_str() {
            "lease" => {
                let spec = root
                    .get("spec")
                    .ok_or(ProtoError::Field("spec"))
                    .and_then(|v| {
                        JobSpec::from_json(v)
                            .map_err(|e| ProtoError::Json(format!("embedded spec: {e}")))
                    })?;
                Ok(CoordFrame::Lease {
                    job: need_u64(&root, "job")?,
                    lease: need_u64(&root, "lease")?,
                    attempt: need_u64(&root, "attempt")? as usize,
                    spec,
                    deadline_ms: root.get("deadline_ms").and_then(Json::as_f64),
                    checkpoint: root
                        .get("checkpoint")
                        .and_then(Json::as_str)
                        .map(str::to_owned),
                })
            }
            "drain" => Ok(CoordFrame::Drain),
            other => Err(ProtoError::UnknownType(other.to_owned())),
        }
    }
}

fn parse_frame(line: &str) -> Result<Json, ProtoError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized(line.len()));
    }
    json::parse(line.trim()).map_err(ProtoError::Json)
}

fn frame_type(root: &Json) -> Result<String, ProtoError> {
    root.get("type")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or(ProtoError::Field("type"))
}

fn need_u64(root: &Json, field: &'static str) -> Result<u64, ProtoError> {
    root.get(field)
        .and_then(Json::as_u64)
        .ok_or(ProtoError::Field(field))
}

/// `true` when `text` is a JSON object.
fn is_object(text: &str) -> bool {
    matches!(json::parse(text), Ok(Json::Obj(_)))
}

fn need_str<'a>(root: &'a Json, field: &'static str) -> Result<&'a str, ProtoError> {
    root.get(field)
        .and_then(Json::as_str)
        .ok_or(ProtoError::Field(field))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            WorkerFrame::Hello { pid: 4242 },
            WorkerFrame::Heartbeat { seq: 17 },
            WorkerFrame::Event {
                job: 3,
                lease: 9,
                event: "progress".into(),
                body: r#"{"wave":1,"waves":2,"rails_complete":1,"elapsed_ms":12.5}"#.into(),
            },
            WorkerFrame::Event {
                job: 3,
                lease: 9,
                event: "stage".into(),
                body: r#"{"stage":"grow","elapsed_ms":3.5,"note":"a \"quoted\" word"}"#.into(),
            },
            WorkerFrame::Done(DoneFrame {
                job: 3,
                lease: 9,
                state: "completed".into(),
                resumed: 1,
                rails_complete: 2,
                rails_total: 2,
                area_mm2: 38.5,
                solves: 120,
                run_ms: 41.25,
                error: None,
                retryable: false,
                profile: Some(r#"{"job":3,"attempt_ms":41.25,"slices":7,"diagnosis":{}}"#.into()),
            }),
            WorkerFrame::Done(DoneFrame {
                job: 4,
                lease: 11,
                state: "failed".into(),
                resumed: 0,
                rails_complete: 0,
                rails_total: 2,
                area_mm2: 0.0,
                solves: 0,
                run_ms: 1.0,
                error: Some("solver diverged".into()),
                retryable: true,
                profile: None,
            }),
        ];
        for f in frames {
            assert_eq!(WorkerFrame::parse(&f.to_json()).expect("roundtrip"), f);
        }
    }

    #[test]
    fn coord_frames_round_trip() {
        let frames = [
            CoordFrame::Lease {
                job: 5,
                lease: 21,
                attempt: 1,
                spec: JobSpec::two_rail(20.0),
                deadline_ms: Some(1500.0),
                checkpoint: Some("/tmp/fleet/ckpt-5".into()),
            },
            CoordFrame::Lease {
                job: 6,
                lease: 22,
                attempt: 0,
                spec: JobSpec::two_rail(22.0),
                deadline_ms: None,
                checkpoint: None,
            },
            CoordFrame::Drain,
        ];
        for f in frames {
            assert_eq!(CoordFrame::parse(&f.to_json()).expect("roundtrip"), f);
        }
    }

    #[test]
    fn hostile_frames_are_typed_rejections() {
        assert!(matches!(
            WorkerFrame::parse("not json"),
            Err(ProtoError::Json(_))
        ));
        assert!(matches!(
            WorkerFrame::parse("{}"),
            Err(ProtoError::Field("type"))
        ));
        assert!(matches!(
            WorkerFrame::parse(r#"{"type":"warp"}"#),
            Err(ProtoError::UnknownType(_))
        ));
        assert!(matches!(
            WorkerFrame::parse(r#"{"type":"heartbeat"}"#),
            Err(ProtoError::Field("seq"))
        ));
        assert!(matches!(
            WorkerFrame::parse(
                r#"{"type":"event","job":1,"lease":1,"event":"stage","body":"[1]"}"#
            ),
            Err(ProtoError::Field("body"))
        ));
        let bad_profile = r#"{"type":"done","job":1,"lease":1,"state":"completed","resumed":0,"rails_complete":1,"rails_total":1,"profile":"[1]"}"#;
        match WorkerFrame::parse(bad_profile) {
            Ok(WorkerFrame::Done(d)) => {
                assert_eq!((d.state.as_str(), d.profile), ("completed", None))
            }
            other => panic!("a bad profile must not cost the result: {other:?}"),
        }
        assert!(matches!(
            CoordFrame::parse(r#"{"type":"lease","job":1,"lease":1,"attempt":0}"#),
            Err(ProtoError::Field("spec"))
        ));
        let big = format!(
            r#"{{"type":"heartbeat","seq":1,"pad":"{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        );
        assert!(matches!(
            WorkerFrame::parse(&big),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_the_spec() {
        let a = JobSpec::two_rail(20.0);
        let mut b = JobSpec::two_rail(20.0);
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        b.rails[0].budget_mm2 = 21.0;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }
}
