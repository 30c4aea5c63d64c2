//! Pieces every workload shares: run options, output checks, the shape
//! digest, extraction, machine facts and the result record.

use crate::trace::Tracer;
use sprout_board::Board;
use sprout_core::backconv::RoutedShape;
use sprout_core::graph::NodeId;
use sprout_core::router::{RouteResult, RouterConfig, StageTimings};
use sprout_extract::ac::ac_impedance_25mhz;
use sprout_extract::network::RailNetwork;
use sprout_extract::resistance::dc_resistance;
use sprout_telemetry::json::Obj;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per burst (see [`SetupSamples`]).
pub const SETUP_BURST: usize = 5;

/// Options of one benchmark run.
#[derive(Debug)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time (s).
    pub seconds: f64,
    /// Span recorder (on for the traced run).
    pub tracer: Tracer,
    /// Where run artifacts go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Run {
    /// Seconds since `t`.
    pub fn since(t: Instant) -> f64 {
        t.elapsed().as_secs_f64()
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items attempted (rails, prototypes or jobs).
    pub attempted: u64,
    /// Items that failed any check or errored.
    pub failed: u64,
    /// Human-readable notes, printed before the result line.
    pub notes: Vec<String>,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
    /// End-to-end metrics: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra facts for the result file (name, JSON value).
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed item with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Share of attempted items that passed every check.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// A one-line summary of item latencies: the sample count, p50, p90,
/// and the highest percentile with at least ten samples beyond it.
pub fn latency_note(what: &str, ms: &[f64]) -> String {
    let q = |p| crate::stats::quantile(ms, p).unwrap_or(f64::NAN);
    let tail = crate::stats::supported_tail(ms.len(), 10)
        .map_or("none".to_owned(), |p| format!("p{}", p * 100.0));
    format!(
        "{what}: {} samples, p50 {:.3} ms, p90 {:.3} ms; highest percentile with 10 samples beyond: {tail}",
        ms.len(),
        q(0.5),
        q(0.9)
    )
}

/// Set-up times (s), sampled in small bursts between work items.
///
/// A set-up takes well under a millisecond, and on a shared virtual
/// machine the same set-up runs at one of two speeds, up to 2× apart,
/// switching every few hundred milliseconds. A burst taken at one
/// moment reads one speed only, so bursts are spread over the whole
/// run. Each burst keeps its median, which drops the first, cache-cold
/// repetition after a work item; `setup_s` is the lowest burst median,
/// the set-up's cost when the host is not holding it back. Over runs of
/// the same code, the median of the burst medians jumped between the two
/// speeds, and their trimmed mean with how many bursts a spell of
/// sub-millisecond stalls hit; the lowest burst median did neither.
#[derive(Debug, Default)]
pub struct SetupSamples {
    bursts: Vec<f64>,
    reps: u64,
}

impl SetupSamples {
    /// Runs `setup` [`SETUP_BURST`] times, each its own work item in the
    /// trace (numbered from [`SETUP_ITEMS`]), and keeps their median.
    pub fn burst(&mut self, tracer: &mut Tracer, setup: &mut impl FnMut(&mut Tracer) -> f64) {
        let times: Vec<f64> = (0..SETUP_BURST)
            .map(|_| {
                tracer.set_iteration(SETUP_ITEMS + self.reps);
                self.reps += 1;
                setup(tracer)
            })
            .collect();
        self.bursts.push(crate::stats::median(&times));
    }

    /// The lowest burst median (s), with a note on their spread.
    pub fn estimate(&self, out: &mut Outcome) -> f64 {
        let q = |p| crate::stats::quantile(&self.bursts, p).unwrap_or(f64::NAN) * 1e3;
        out.note(format!(
            "set-up: {} bursts of {SETUP_BURST}, burst medians in ms: min {:.4} p25 {:.4} median {:.4} p75 {:.4} max {:.4}",
            self.bursts.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        ));
        self.bursts.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Trace item ids of the set-up repetitions (far above any work item).
pub const SETUP_ITEMS: u64 = 1 << 40;

/// `true` when `area` is within `budget`, give or take the one SmartGrow
/// step the router may overshoot by: grow stops on the step that crosses
/// the budget (Eq. 7), and a step adds at most
/// `max(4, budget cells / grow_iterations)` cells.
pub fn within_budget(area_mm2: f64, budget_mm2: f64, config: &RouterConfig) -> bool {
    let cell_mm2 = config.tile_pitch_mm * config.tile_pitch_mm;
    let step_mm2 = (4.0 * cell_mm2).max(budget_mm2 / config.grow_iterations.max(1) as f64);
    area_mm2 <= budget_mm2 + step_mm2
}

/// `true` when the routed subgraph connects every terminal of the net.
pub fn connected(route: &RouteResult) -> bool {
    let nodes: Vec<NodeId> = route.terminals.iter().map(|t| t.node).collect();
    route.subgraph.connects(&route.graph, &nodes)
}

/// FNV-1a over the bit patterns of shipped shapes, so whoever compares
/// two runs can see at a glance whether a change altered any result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in a shape: contour vertices, hole flags, fragments and
    /// the area, all as exact bits.
    pub fn shape(&mut self, shape: &RoutedShape) {
        self.word(shape.contours.len() as u64);
        for c in &shape.contours {
            self.word(u64::from(c.is_hole));
            self.word(c.points.len() as u64);
            for p in &c.points {
                self.word(p.x.to_bits());
                self.word(p.y.to_bits());
            }
        }
        self.word(shape.fragments.len() as u64);
        for f in &shape.fragments {
            self.word(f.len() as u64);
            for p in f.vertices() {
                self.word(p.x.to_bits());
                self.word(p.y.to_bits());
            }
        }
        self.word(shape.area_mm2().to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Extracted rail impedance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impedance {
    /// DC resistance (Ω).
    pub r_ohm: f64,
    /// Loop inductance at 25 MHz (H).
    pub l_h: f64,
}

/// Builds the rail network of `route` and extracts R_dc and L@25 MHz,
/// timing each extraction layer.
pub fn extract(
    tr: &mut Tracer,
    board: &Board,
    route: &RouteResult,
) -> Result<Impedance, sprout_extract::ExtractError> {
    let network = tr.time("extract.network", || RailNetwork::build(board, route))?;
    let dc = tr.time("extract.dc", || dc_resistance(&network))?;
    let ac = tr.time("extract.ac", || ac_impedance_25mhz(&network))?;
    Ok(Impedance {
        r_ohm: dc.total_ohm,
        l_h: ac.inductance_h,
    })
}

/// Per-item router counters, summed over the routes of one item.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteCounters {
    /// Bench-timed `Router::route_net_with` wall (ms).
    pub route_ms: f64,
    /// Stage timings summed over the item's routes.
    pub stages: StageTimings,
    /// `check_route` calls.
    pub drc_calls: u64,
    /// Violations those calls reported.
    pub drc_violations: u64,
}

impl RouteCounters {
    /// Adds one route's stage timings and its measured wall.
    pub fn add_route(&mut self, t: &StageTimings, wall_ms: f64) {
        self.route_ms += wall_ms;
        let s = &mut self.stages;
        s.space_ms += t.space_ms;
        s.tile_ms += t.tile_ms;
        s.seed_ms += t.seed_ms;
        s.grow_ms += t.grow_ms;
        s.refine_ms += t.refine_ms;
        s.reheat_ms += t.reheat_ms;
        s.backconv_ms += t.backconv_ms;
        s.solves += t.solves;
        s.factorizations += t.factorizations;
        s.factor_updates += t.factor_updates;
        s.tile_rebuilds += t.tile_rebuilds;
        s.tile_reuses += t.tile_reuses;
    }
}

/// Facts about the machine and build, recorded with every result.
pub fn machine_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut o = Obj::new();
    o.u64("nproc", nproc as u64)
        .str("cpu", &cpu)
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str("commit", env!("PERFBENCH_COMMIT"));
    o.finish()
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
