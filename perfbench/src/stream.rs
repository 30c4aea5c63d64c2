//! `service_stream`: an open loop of jobs into an in-process
//! [`RoutingService`] with one worker and a journal directory, at the
//! `serve_load` router settings.
//!
//! Arrivals are Poisson at a ladder of fixed absolute rates, drawn from
//! the seed, one window of [`RUNG_S`] per rung. Job latency is reported
//! at [`REFERENCE_RATE`], the ladder's first rung, per job kind and as
//! the geometric mean of the two kinds' figures; the ladder also finds
//! the highest rate whose p90 latency meets [`LATENCY_LIMIT_MS`] without
//! a growing backlog. Each job is timed from its *due* time to the
//! moment the generator first observes it terminal. Capacity comes from
//! bursts of [`BURST_JOBS`] jobs all due at once, so no offered rate
//! caps it.
//!
//! The job mix is seeded: a share of jobs are `two_rail` presets at
//! three budgets, which share one board; the rest route one rail on a
//! random board of their own, which share nothing. After the clock
//! stops, every distinct job is routed again directly, and the shipped
//! shape (matched bit for bit through its area and solve count) is
//! checked: DRC-clean, within budget, connected.

use crate::common::{
    connected, extract, latency_note, peak_rss_mb, within_budget, Digest, Outcome, RouteCounters,
    Run, SetupSamples,
};
use crate::layers::LayerValues;
use crate::stats::{
    backlog_grows, completion_rate, geomean, max_sustainable_rate, median, poisson_arrivals,
    quantile, OpenLoopSample, Rung,
};
use crate::trace::Tracer;
use sprout_board::presets::{self, RandomBoardConfig};
use sprout_board::{Board, ElementRole};
use sprout_core::drc::check_route;
use sprout_core::recovery::{RecoveryConfig, RecoveryPolicy, StageBudget};
use sprout_core::report::RunReport;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::tile_session::TileConfig;
use sprout_geom::Polygon;
use sprout_rng::SproutRng;
use sprout_serve::job::{BoardSpec, JobSpec, JobState, RailSpec};
use sprout_serve::service::{RoutingService, ServiceConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Service workers. The generator polls on a thread of its own, so one
/// worker keeps the runnable threads at the two cores the benchmark is
/// tuned on. In three interleaved runs of each on that machine, the
/// median routing time of a job swung by 1.5× with two workers and by
/// 7 % with one.
const WORKERS: usize = 1;
/// Offered rates of the load ladder (jobs/s), ascending. Fixed, not
/// scaled to the machine: against the capacity measured on the machine
/// the benchmark was tuned on (150–300 jobs/s as its speed drifted),
/// they start at 0.07–0.13× and end at 1.1–2.1× of it. The reference
/// rate is low because with one worker a short job that arrives while a
/// long one runs waits for it, and that wait swings with the machine's
/// speed.
const LADDER: &[f64] = &[20.0, 60.0, 120.0, 180.0, 240.0, 320.0];
/// The rate at which job latency is reported (jobs/s): the first rung.
const REFERENCE_RATE: f64 = LADDER[0];
/// The p90 latency a sustainable rate must meet (ms).
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Jobs of one capacity burst, all due at time 0: the service works flat
/// out from the first submission to the last completion. Small, so that
/// many bursts spread over the run: the machine's speed drifts over
/// seconds, and a median over a few long bursts drifts with it.
const BURST_JOBS: usize = 50;
/// Arrival window of one ladder rung (s).
const RUNG_S: f64 = 1.0;
/// Which quantile over a rung's windows summarizes its p90 latency
/// (see `run`).
const WINDOW_QUANTILE: f64 = 0.25;
/// Nominal length of one measured round (s): its windows and bursts,
/// without the drains of the overloaded ones.
const ROUND_S: f64 = 12.0;
/// Reference-rate windows of the unmeasured warm-up.
const WARMUP_WINDOWS: u64 = 2;
/// Bursts of the unmeasured warm-up.
const WARMUP_BURSTS: u64 = 3;
/// Input streams of the warm-up phases, apart from the measured ones.
const WARMUP_STREAM: u64 = 1 << 32;

/// One phase of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// An arrival window of the ladder's rung with this index.
    Window(usize),
    /// A capacity burst.
    Burst,
}

/// The phases of one round: the reference rung alternates with each
/// other rung in turn, and a burst follows every window, so the
/// reference latency and the capacity are sampled evenly across the run
/// rather than in a few blocks.
fn round_steps() -> Vec<Step> {
    let mut steps = Vec::new();
    for i in 1..LADDER.len() {
        steps.extend([Step::Window(0), Step::Burst, Step::Window(i), Step::Burst]);
    }
    steps.extend([Step::Window(0), Step::Burst]);
    steps
}
/// Share of jobs that are `two_rail` presets. An assumption: the repo
/// holds no traffic data, so the two kinds the mix is made of are drawn
/// equally often.
const TWO_RAIL_SHARE: f64 = 0.5;
/// Budgets drawn for every job (mm²); all routable on both job kinds.
const BUDGETS: [f64; 3] = [20.0, 22.0, 24.0];
/// How often the generator polls outstanding jobs.
const POLL: Duration = Duration::from_micros(500);
/// Longest a phase may take to drain after its last arrival.
const DRAIN_LIMIT_S: f64 = 30.0;
/// Trace item ids of the generator's phases (rungs and bursts).
const PHASE_ITEMS: u64 = 1 << 32;

fn router_config() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        // The worker and the generator already fill the two cores the
        // benchmark is tuned on: the worker tiles on its own thread, so
        // no more threads are runnable than there are cores.
        tile: TileConfig {
            threads: 1,
            ..TileConfig::default()
        },
        recovery: RecoveryConfig {
            policy: RecoveryPolicy::BestSoFar,
            budget: StageBudget::default(),
            fault: None,
        },
        ..RouterConfig::default()
    }
}

/// The service under test; `keep_reports` keeps each job's run report
/// for the traced run's router figures.
fn service_config(data_dir: PathBuf, keep_reports: bool) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        // Deep enough that the ladder never meets admission control: an
        // overloaded rung shows as latency and backlog, not refusals.
        queue_capacity: 1 << 16,
        router: router_config(),
        data_dir: Some(data_dir),
        keep_reports,
        ..ServiceConfig::default()
    }
}

/// A random board is a valid input when every terminal pad keeps clear
/// of every blockage by the blockage's clearance plus two tiles, so no
/// blockage swallows a terminal.
fn pads_clear_of_blockages(board: &Board, layer: usize, pitch: f64) -> bool {
    let elements: Vec<_> = board.elements_on_layer(layer).collect();
    elements
        .iter()
        .filter(|e| e.role == ElementRole::Obstacle && e.net.is_none())
        .all(|b| {
            let need = board.clearance_of(b) + 2.0 * pitch;
            elements
                .iter()
                .filter(|t| matches!(t.role, ElementRole::Source | ElementRole::Sink))
                .all(|t| t.shape.distance_to_polygon(&b.shape) >= need)
        })
}

/// One generated job.
#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    spec: JobSpec,
}

/// `true` for a `two_rail` preset job, `false` for a random board.
fn is_preset(spec: &JobSpec) -> bool {
    matches!(spec.board, BoardSpec::Preset(_))
}

/// Draws a job of the given kind (`two_rail` preset or random board).
fn draw_job(rng: &mut SproutRng, preset: bool) -> JobSpec {
    let budget = BUDGETS[rng.usize_below(BUDGETS.len())];
    if preset {
        return JobSpec::two_rail(budget);
    }
    let cfg = RandomBoardConfig {
        nets: 1,
        ..RandomBoardConfig::default()
    };
    let pitch = router_config().tile_pitch_mm;
    let seed = loop {
        let s = rng.next_u64() >> 1;
        if pads_clear_of_blockages(
            &presets::random_board(s, cfg),
            presets::TWO_RAIL_ROUTE_LAYER,
            pitch,
        ) {
            break s;
        }
    };
    JobSpec {
        board: BoardSpec::Random { seed, nets: 1 },
        rails: vec![RailSpec {
            net: 0,
            layer: presets::TWO_RAIL_ROUTE_LAYER,
            budget_mm2: budget,
        }],
        ..JobSpec::two_rail(budget)
    }
}

fn plan(rate: f64, window_s: f64, arrivals: &mut SproutRng, mix: &mut SproutRng) -> Vec<Planned> {
    poisson_arrivals(rate, window_s, || arrivals.f64())
        .into_iter()
        .map(|due_s| {
            let preset = mix.bool_with(TWO_RAIL_SHARE);
            Planned {
                due_s,
                spec: draw_job(mix, preset),
            }
        })
        .collect()
}

/// `jobs` jobs, all due at time 0, the two kinds alternating, so every
/// burst offers the same share of each.
fn plan_burst(jobs: usize, mix: &mut SproutRng) -> Vec<Planned> {
    (0..jobs)
        .map(|k| Planned {
            due_s: 0.0,
            spec: draw_job(mix, k % 2 == 0),
        })
        .collect()
}

/// One submitted job, as the generator saw it.
#[derive(Debug, Clone)]
struct Sent {
    spec: JobSpec,
    id: Option<u64>,
    sample: OpenLoopSample,
    state: Option<JobState>,
    queue_ms: f64,
    run_ms: f64,
    /// Shipped area and solves, as the service reported them.
    shipped: (f64, u64),
}

/// What one phase (rung window or burst) observed.
struct Phase {
    sent: Vec<Sent>,
    backlog_grew: bool,
    queued_max: usize,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.sample.latency_ms()).collect()
    }

    fn completion_rate(&self) -> f64 {
        let samples: Vec<OpenLoopSample> = self.sent.iter().map(|s| s.sample).collect();
        completion_rate(&samples)
    }
}

/// Offers `jobs` open-loop and waits until every one is terminal.
fn drive(
    service: &RoutingService,
    jobs: Vec<Planned>,
    tr: &mut Tracer,
    item: &mut u64,
    phase_item: u64,
) -> Phase {
    tr.set_iteration(phase_item);
    let root = tr.enter(crate::trace::ITERATION);
    let window = jobs.last().map_or(0.0, |j| j.due_s);
    let mut sent: Vec<Sent> = Vec::with_capacity(jobs.len());
    let mut outstanding: Vec<usize> = Vec::new();
    let mut depth: Vec<(f64, f64)> = Vec::new();
    let mut queued_max = 0;
    let mut next = 0;
    let t0 = Instant::now();
    loop {
        while next < jobs.len() && jobs[next].due_s <= t0.elapsed().as_secs_f64() {
            let job = &jobs[next];
            let sent_s = t0.elapsed().as_secs_f64();
            tr.set_iteration(*item);
            *item += 1;
            let spec = job.spec.clone();
            let id = tr.time("serve.submit", || service.submit(spec)).ok();
            tr.set_iteration(phase_item);
            if id.is_some() {
                outstanding.push(sent.len());
            }
            sent.push(Sent {
                spec: job.spec.clone(),
                id,
                sample: OpenLoopSample {
                    due_s: job.due_s,
                    sent_s,
                    done_s: None,
                },
                state: None,
                queue_ms: 0.0,
                run_ms: 0.0,
                shipped: (0.0, 0),
            });
            next += 1;
        }
        let poll = tr.enter("bench.poll");
        let seen = t0.elapsed().as_secs_f64();
        let mut queued = 0;
        outstanding.retain(|&i| {
            let s = &mut sent[i];
            let Some(snap) = s.id.and_then(|id| service.status(id)) else {
                return false;
            };
            if !snap.state.is_terminal() {
                queued += usize::from(snap.state == JobState::Queued);
                return true;
            }
            if snap.state == JobState::Completed {
                s.sample.done_s = Some(seen);
            }
            s.state = Some(snap.state);
            s.queue_ms = snap.queue_ms;
            s.run_ms = snap.run_ms;
            s.shipped = (snap.area_mm2, snap.solves);
            false
        });
        tr.exit(poll);
        queued_max = queued_max.max(queued);
        if seen <= window {
            depth.push((seen, outstanding.len() as f64));
        }
        if next == jobs.len() && (outstanding.is_empty() || seen > window + DRAIN_LIMIT_S) {
            break;
        }
        // Poll while jobs are outstanding; otherwise sleep until the next
        // arrival, so an idle generator does not wake the machine.
        let until_due = jobs
            .get(next)
            .map(|j| Duration::from_secs_f64((j.due_s - t0.elapsed().as_secs_f64()).max(0.0)));
        let wake = match until_due {
            Some(d) if outstanding.is_empty() => d,
            Some(d) => d.min(POLL),
            None => POLL,
        };
        tr.time("bench.sleep", || std::thread::sleep(wake));
    }
    tr.exit(root);
    let threshold = (0.1 * sent.len() as f64).max(4.0);
    Phase {
        backlog_grew: backlog_grows(&depth, threshold),
        sent,
        queued_max,
    }
}

/// A fresh, empty journal directory inside the run's output directory.
fn journal_dir(out_dir: &Path, tag: &str) -> PathBuf {
    let dir = out_dir.join(format!("journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A job routed directly by the benchmark.
#[derive(Debug, Default)]
struct Direct {
    /// Failed checks.
    problems: Vec<String>,
    /// Extracted (R_dc Ω, L H) per rail, when asked for.
    impedances: Vec<(f64, f64)>,
    /// Total area and solves, summed as the service sums them.
    shipped: (f64, u64),
}

/// Routes `spec` directly, the way the service's supervisor does (rails
/// in request order, each blocked by the ones before), and checks every
/// shape: DRC-clean, within budget, connected. A check, not a measurement:
/// it runs with the tracer off.
fn verify_job(tr: &mut Tracer, spec: &JobSpec, digest: &mut Digest, extract_rails: bool) -> Direct {
    let mut d = Direct::default();
    let problems = &mut d.problems;
    let board = match spec.resolve_board() {
        Ok(b) => b,
        Err(e) => {
            problems.push(format!("board: {e}"));
            return d;
        }
    };
    let requests = match spec.requests(&board) {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("rails: {e}"));
            return d;
        }
    };
    let mut areas = Vec::new();
    let router = Router::new(&board, router_config());
    let mut claimed: Vec<Polygon> = Vec::new();
    for (k, &(net, layer, budget)) in requests.iter().enumerate() {
        let route = match router.route_net_with(net, layer, budget, &claimed, &[]) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("rail {k}: direct route failed: {e}"));
                continue;
            }
        };
        match check_route(&board, net, layer, &route.shape, &claimed) {
            Ok(v) if v.is_empty() => {}
            Ok(v) => problems.push(format!("rail {k}: {} DRC violations", v.len())),
            Err(e) => problems.push(format!("rail {k}: DRC failed: {e}")),
        }
        if !within_budget(route.shape.area_mm2(), budget, router.config()) {
            problems.push(format!(
                "rail {k}: area {} mm² over budget {budget} mm²",
                route.shape.area_mm2()
            ));
        }
        if !connected(&route) {
            problems.push(format!("rail {k}: terminals disconnected"));
        }
        if extract_rails {
            match extract(tr, &board, &route) {
                Ok(z) => d.impedances.push((z.r_ohm, z.l_h)),
                Err(e) => problems.push(format!("rail {k}: extraction failed: {e}")),
            }
        }
        areas.push(route.shape.area_mm2());
        d.shipped.1 += route.timings.solves as u64;
        digest.shape(&route.shape);
        claimed.extend(route.shape.blocker_polygons());
    }
    d.shipped.0 = areas.iter().sum();
    d
}

/// The service's own router figures for one job attempt, from the run
/// report its worker kept: the job's routing wall (supervision included)
/// and the stage times and counts of every rail it routed.
fn report_counters(report: &RunReport) -> RouteCounters {
    let mut c = RouteCounters {
        route_ms: report.elapsed_ms,
        ..RouteCounters::default()
    };
    let s = &mut c.stages;
    for rail in &report.rails {
        for stage in &rail.stages {
            let slot = match stage.name {
                "space" => &mut s.space_ms,
                "tile" => &mut s.tile_ms,
                "seed" => &mut s.seed_ms,
                "grow" => &mut s.grow_ms,
                "refine" => &mut s.refine_ms,
                "reheat" => &mut s.reheat_ms,
                "backconv" => &mut s.backconv_ms,
                _ => continue,
            };
            *slot += stage.duration_ms;
        }
        s.solves += rail.solves;
        s.factorizations += rail.factorizations;
        s.factor_updates += rail.factor_updates;
        s.tile_rebuilds += rail.tile_rebuilds;
        s.tile_reuses += rail.tile_reuses;
    }
    c
}

/// Latency and routing figures of one job kind at the reference rate.
struct KindFigures {
    name: &'static str,
    jobs: usize,
    latency_ms: Vec<f64>,
    run_ms: Vec<f64>,
}

fn kind_figures(reference: &[Sent]) -> [KindFigures; 2] {
    [("two_rail", true), ("random", false)].map(|(name, preset)| {
        let kind: Vec<&Sent> = reference
            .iter()
            .filter(|s| is_preset(&s.spec) == preset)
            .collect();
        KindFigures {
            name,
            jobs: kind.len(),
            latency_ms: kind.iter().map(|s| s.sample.latency_ms()).collect(),
            run_ms: kind.iter().map(|s| s.run_ms).collect(),
        }
    })
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Outcome {
    let mut out = Outcome::default();
    let out_dir = run.out_dir.clone();
    let mut setup_error = None;
    let mut set_up = |_: &mut Tracer| {
        let dir = journal_dir(&out_dir, "setup");
        let t = Instant::now();
        let service = RoutingService::start(service_config(dir.clone(), false));
        let s = t.elapsed().as_secs_f64();
        match service {
            Ok(service) => service.shutdown(true),
            Err(e) => setup_error = Some(e.to_string()),
        }
        let _ = std::fs::remove_dir_all(&dir);
        s
    };
    let mut setup = SetupSamples::default();
    setup.burst(&mut run.tracer, &mut set_up);

    // Inputs: every phase draws its arrivals and its job mix from two
    // streams of its own, derived from the seed: the `r`th window of rung
    // `i` from stream `i`, burst `r` from stream `LADDER.len()`, and the
    // warm-up from streams of its own. The number of rounds follows from
    // `--seconds` alone, so a seed and a run length fix every job offered.
    let seed = run.seed;
    let inputs = |stream: u64, r: u64| {
        let mut rng = SproutRng::seed_from_u64(sprout_rng::hash3(seed, stream, r));
        (rng.fork(), rng.fork())
    };
    let window = |i: usize, r: u64| -> Vec<Planned> {
        let (mut arrivals, mut mix) = inputs(i as u64, r);
        plan(LADDER[i], RUNG_S, &mut arrivals, &mut mix)
    };
    let burst =
        |r: u64| -> Vec<Planned> { plan_burst(BURST_JOBS, &mut inputs(LADDER.len() as u64, r).1) };
    let rounds = ((run.seconds / ROUND_S).round() as u64).max(1);

    let traced = run.tracer.is_on();
    let dir = journal_dir(&out_dir, "run");
    let service = match RoutingService::start(service_config(dir.clone(), traced)) {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("service failed to start: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let mut item = 0u64;
    let mut phase_item = PHASE_ITEMS;
    let mut all: Vec<Sent> = Vec::new();

    // Warm-up, not measured: while the service's heap and journal grow to
    // their working size, its first jobs run up to twice as slow as later
    // ones. Its jobs are still checked.
    run.tracer.set_on(false);
    let warm_up = (0..WARMUP_WINDOWS)
        .map(|w| window(0, WARMUP_STREAM + w))
        .chain((0..WARMUP_BURSTS).map(|b| burst(WARMUP_STREAM + b)));
    for jobs in warm_up {
        let phase = drive(&service, jobs, &mut run.tracer, &mut item, phase_item);
        phase_item += 1;
        all.extend(phase.sent);
    }

    let (mut traced_p50, mut untraced_p50) = (Vec::new(), Vec::new());
    // Per rung, each window's (p50 ms, p90 ms, backlog grew).
    let mut windows: Vec<Vec<(f64, f64, bool)>> = vec![Vec::new(); LADDER.len()];
    let mut reference: Vec<Sent> = Vec::new();
    let mut capacity: Vec<f64> = Vec::new();
    let mut lag: Vec<f64> = Vec::new();
    let mut queued_max = 0;
    // The rounds repeat `round_steps`, so every rung and the bursts are
    // sampled across the whole run and a slow spell of the machine does
    // not land on one of them only. The traced run traces every other
    // window of each rung and every other burst, to measure the tracing
    // overhead. A set-up burst follows every phase.
    let mut offered = vec![0u64; LADDER.len()];
    let mut bursts = 0u64;
    for step in (0..rounds).flat_map(|_| round_steps()) {
        let nth = match step {
            Step::Window(i) => offered[i],
            Step::Burst => bursts,
        };
        let trace_this = traced && nth.is_multiple_of(2);
        run.tracer.set_on(trace_this);
        match step {
            Step::Window(i) => {
                let jobs = window(i, offered[i]);
                offered[i] += 1;
                let phase = drive(&service, jobs, &mut run.tracer, &mut item, phase_item);
                let lat = phase.latencies();
                let p50 = median(&lat);
                let p90 = quantile(&lat, 0.9).unwrap_or(f64::INFINITY);
                windows[i].push((p50, p90, phase.backlog_grew));
                if i == 0 {
                    if trace_this {
                        traced_p50.push(p50);
                    } else {
                        untraced_p50.push(p50);
                    }
                    reference.extend(phase.sent.iter().cloned());
                }
                lag.extend(phase.sent.iter().map(|s| s.sample.lag_ms()));
                queued_max = queued_max.max(phase.queued_max);
                all.extend(phase.sent);
            }
            Step::Burst => {
                let jobs = burst(bursts);
                bursts += 1;
                let phase = drive(&service, jobs, &mut run.tracer, &mut item, phase_item);
                // A burst's queue depth is its size by construction: it
                // is left out of `queued_max`.
                capacity.push(phase.completion_rate());
                all.extend(phase.sent);
            }
        }
        phase_item += 1;
        setup.burst(&mut run.tracer, &mut set_up);
    }
    // The benchmark's own checks below are no layer of the service: they
    // stay out of the trace.
    run.tracer.set_on(false);
    let setup_s = setup.estimate(&mut out);
    if let Some(e) = setup_error {
        out.attempted += 1;
        out.fail(format!("service failed to start during set-up: {e}"));
    }
    // For the sustainable-rate estimate (printed, not gated), a rung's
    // p90 is the lower quartile over its windows of each window's p90:
    // most rungs have only a few windows, and on a shared host a spell
    // in which the virtual CPUs are held back can slow one of them 2–5×.
    // The backlog grew when it grew in most windows.
    let over_windows = |ws: &[(f64, f64, bool)], f: fn(&(f64, f64, bool)) -> f64| {
        quantile(&ws.iter().map(f).collect::<Vec<_>>(), WINDOW_QUANTILE).unwrap_or(f64::INFINITY)
    };
    let ladder: Vec<Rung> = LADDER
        .iter()
        .zip(&windows)
        .map(|(&rate, ws)| Rung {
            rate,
            tail_ms: over_windows(ws, |w| w.1),
            backlog_grew: 2 * ws.iter().filter(|w| w.2).count() > ws.len(),
        })
        .collect();
    for (rung, ws) in ladder.iter().zip(&windows) {
        out.note(format!(
            "rung {:>5.0} jobs/s: {} windows, p90 {:.2} ms (lower quartile over windows), backlog grew in {}",
            rung.rate,
            ws.len(),
            rung.tail_ms,
            ws.iter().filter(|w| w.2).count()
        ));
    }
    let max_rate = max_sustainable_rate(&ladder, LATENCY_LIMIT_MS);
    // Capacity is the median over the bursts of each one's completion
    // rate.
    let capacity_s = median(&capacity);
    // Job latency is pooled over every reference-rate job, per kind. The
    // two kinds take about 2× apart to route, so a quantile of the mix
    // falls into the gap between them and swings with the share of each
    // in the sample; the geometric mean of the per-kind quantiles weighs
    // a relative change in either kind the same, whatever the mix.
    let kinds = kind_figures(&reference);
    let over_kinds = |q: f64| {
        let per_kind: Vec<f64> = kinds
            .iter()
            .map(|k| quantile(&k.latency_ms, q).unwrap_or(f64::INFINITY))
            .collect();
        geomean(&per_kind).unwrap_or(f64::INFINITY)
    };
    let (p50, p90) = (over_kinds(0.5), over_kinds(0.9));
    let stream_s = Run::since(start);
    service.shutdown(true);
    let metrics = service.metrics();
    let reports = service.take_reports();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    // The clock has stopped: route every distinct job again directly and
    // check it — always including the three two_rail presets, whose
    // extracted R and L are the workload's quality figures. Each job's
    // shipped shapes are the checked ones when the service reported the
    // same total area, to the bit, and the same solve count.
    let verify_start = Instant::now();
    out.attempted += all.len() as u64;
    let mut digest = Digest::default();
    let mut verified: BTreeMap<String, Direct> = BTreeMap::new();
    let presets = BUDGETS.map(JobSpec::two_rail);
    let specs = presets.iter().chain(all.iter().map(|s| &s.spec));
    for (k, spec) in specs.enumerate() {
        let key = spec.to_json();
        if verified.contains_key(&key) {
            continue;
        }
        let d = verify_job(&mut run.tracer, spec, &mut digest, k < presets.len());
        verified.insert(key, d);
    }
    let impedances: Vec<(f64, f64)> = presets
        .iter()
        .flat_map(|p| verified[&p.to_json()].impedances.clone())
        .collect();
    let mut two_rail_jobs = 0;
    let mut solves = 0u64;
    for (i, s) in all.iter().enumerate() {
        two_rail_jobs += usize::from(is_preset(&s.spec));
        let Some(id) = s.id else {
            out.fail(format!("job {i}: refused at admission"));
            continue;
        };
        if s.state != Some(JobState::Completed) {
            out.fail(format!("job {id}: ended {:?}", s.state));
            continue;
        }
        solves += s.shipped.1;
        let direct = &verified[&s.spec.to_json()];
        let mut problems = direct.problems.clone();
        if s.shipped.0.to_bits() != direct.shipped.0.to_bits() || s.shipped.1 != direct.shipped.1 {
            problems.push(format!(
                "shipped {} mm² / {} solves, direct route {} mm² / {} solves",
                s.shipped.0, s.shipped.1, direct.shipped.0, direct.shipped.1
            ));
        }
        if !problems.is_empty() {
            out.fail(format!(
                "job {id} {}: {}",
                s.spec.to_json(),
                problems.join("; ")
            ));
        }
    }
    let verify_s = Run::since(verify_start);

    let ref_lat: Vec<f64> = reference.iter().map(|s| s.sample.latency_ms()).collect();
    let share = two_rail_jobs as f64 / all.len().max(1) as f64;
    let n = impedances.len().max(1) as f64;
    let r_mean = impedances.iter().map(|z| z.0 * 1e3).sum::<f64>() / n;
    let l_mean = impedances.iter().map(|z| z.1 * 1e12).sum::<f64>() / n;
    out.note(format!(
        "service_stream: {} jobs ({:.1} % two_rail preset, {:.1} % random board); arrivals and drains {stream_s:.1} s, checks {verify_s:.1} s; max sustainable rate {max_rate:.1} jobs/s",
        all.len(),
        share * 100.0,
        (1.0 - share) * 100.0,
    ));
    out.note(format!(
        "capacity {capacity_s:.1} jobs/s: median over {} bursts of {BURST_JOBS} jobs (per burst {}); the reference rate is {:.2}× and the ladder's top {:.2}× of it",
        capacity.len(),
        capacity
            .iter()
            .map(|c| format!("{c:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        REFERENCE_RATE / capacity_s,
        LADDER[LADDER.len() - 1] / capacity_s,
    ));
    out.note(latency_note(
        &format!(
            "job latency at {REFERENCE_RATE} jobs/s, pooled (p90 limit {LATENCY_LIMIT_MS} ms)"
        ),
        &ref_lat,
    ));
    for k in &kinds {
        out.note(format!(
            "{} jobs at {REFERENCE_RATE} jobs/s: {} jobs, latency p50 {:.3} ms, p90 {:.3} ms (pooled), run p50 {:.3} ms",
            k.name,
            k.jobs,
            median(&k.latency_ms),
            quantile(&k.latency_ms, 0.9).unwrap_or(f64::NAN),
            median(&k.run_ms)
        ));
    }
    out.note(format!(
        "job latency at {REFERENCE_RATE} jobs/s, geometric mean over the two kinds: p50 {p50:.3} ms, p90 {p90:.3} ms; per window p50/p90 of the mix {}",
        windows[0]
            .iter()
            .map(|w| format!("{:.1}/{:.1}", w.0, w.1))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(format!(
        "solves {solves}, digest of verified shapes {} ({} distinct jobs)",
        digest.hex(),
        verified.len()
    ));
    out.facts.push(("jobs", all.len().to_string()));
    out.facts
        .push(("max_rate_jobs_per_s", format!("{max_rate}")));
    out.facts
        .push(("capacity_jobs_per_s", format!("{capacity_s}")));
    out.facts.push(("two_rail_share", format!("{share}")));
    out.facts.push(("stream_s", format!("{stream_s}")));
    out.facts.push(("verify_s", format!("{verify_s}")));
    out.facts.push(("item_p90_ms", format!("{p90}")));
    out.facts.push(("solves", solves.to_string()));
    out.facts.push(("digest", format!("\"{}\"", digest.hex())));
    run.tracer.set_on(traced);

    if traced {
        let mut v = LayerValues::new();
        v.absorb_spans(&run.tracer);
        // Router figures come from the service's own workers: each
        // completed attempt's run report.
        let counters: Vec<RouteCounters> = reports.iter().map(report_counters).collect();
        v.absorb_routes(&counters);
        v.set(
            "core.route_ms",
            median(&counters.iter().map(|c| c.route_ms).collect::<Vec<_>>()),
        );
        let qw: Vec<f64> = reference.iter().map(|s| s.queue_ms).collect();
        let rm: Vec<f64> = reference.iter().map(|s| s.run_ms).collect();
        v.set("serve.queue_wait_p50_ms", median(&qw));
        v.set("serve.queue_wait_p90_ms", quantile(&qw, 0.9).unwrap_or(0.0));
        v.set("serve.run_p50_ms", median(&rm));
        v.set("serve.latency_p50_ms", median(&ref_lat));
        v.set(
            "serve.latency_p90_ms",
            quantile(&ref_lat, 0.9).unwrap_or(0.0),
        );
        let [two_rail, random] = &kinds;
        v.set(
            "serve.two_rail.latency_p50_ms",
            median(&two_rail.latency_ms),
        );
        v.set(
            "serve.two_rail.latency_p90_ms",
            quantile(&two_rail.latency_ms, 0.9).unwrap_or(0.0),
        );
        v.set("serve.two_rail.run_p50_ms", median(&two_rail.run_ms));
        v.set("serve.random.latency_p50_ms", median(&random.latency_ms));
        v.set(
            "serve.random.latency_p90_ms",
            quantile(&random.latency_ms, 0.9).unwrap_or(0.0),
        );
        v.set("serve.random.run_p50_ms", median(&random.run_ms));
        v.set("serve.shed", metrics.shed as f64);
        v.set("serve.rejected", metrics.rejected as f64);
        v.set("serve.retries", metrics.retries as f64);
        v.set("serve.degraded", metrics.best_so_far as f64);
        v.set("serve.queue_depth_max", queued_max as f64);
        v.set("bench.gen_lag_p90_ms", quantile(&lag, 0.9).unwrap_or(0.0));
        v.set_overhead(&traced_p50, &untraced_p50);
        out.metrics = v.into_metrics();
        return out;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out.metric("items_per_s", capacity_s, "1/s");
    out.metric("item_p50_ms", p50, "ms");
    out.metric("r_mean_mohm", r_mean, "mohm");
    out.metric("l_mean_ph", l_mean, "pH");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_core::report::{RailRunRecord, StageBreakdown};

    #[test]
    fn report_counters_sum_the_service_rails() {
        let stage = |name, duration_ms| StageBreakdown {
            name,
            start_ms: 0.0,
            duration_ms,
        };
        let rail = |tile_ms, grow_ms, tile_rebuilds, tile_reuses| RailRunRecord {
            stages: vec![stage("tile", tile_ms), stage("grow", grow_ms)],
            solves: 10,
            factorizations: 2,
            factor_updates: 3,
            tile_rebuilds,
            tile_reuses,
            ..RailRunRecord::default()
        };
        let report = RunReport {
            rails: vec![rail(2.0, 1.0, 1, 0), rail(0.5, 1.5, 0, 1)],
            elapsed_ms: 6.0,
            ..RunReport::default()
        };
        let c = report_counters(&report);
        assert_eq!(c.route_ms, 6.0);
        assert_eq!(c.stages.tile_ms, 2.5);
        assert_eq!(c.stages.grow_ms, 2.5);
        assert_eq!(c.stages.total_ms(), 5.0);
        assert_eq!(c.stages.solves, 20);
        assert_eq!(c.stages.factorizations, 4);
        assert_eq!(c.stages.factor_updates, 6);
        assert_eq!((c.stages.tile_rebuilds, c.stages.tile_reuses), (1, 1));
    }
}
