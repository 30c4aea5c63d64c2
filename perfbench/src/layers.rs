//! Per-layer metrics of the traced run. Names follow the workspace's
//! crates: `core` (router, DRC), `baseline`, `extract`, `observe`,
//! `board`, `serve`, plus `bench` for the benchmark's own accounting.
//!
//! A time metric is the median, over the work items (board, sweep, job)
//! that called the layer, of the layer's summed self time in that item.
//! A count is the median per item as well. A layer a workload never
//! calls reads 0.

use crate::common::RouteCounters;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.route_ms", "ms"),
    ("core.space_ms", "ms"),
    ("core.tile_ms", "ms"),
    ("core.seed_ms", "ms"),
    ("core.grow_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.reheat_ms", "ms"),
    ("core.backconv_ms", "ms"),
    ("core.route_unattributed_ms", "ms"),
    ("core.solves", "count"),
    ("core.factorizations", "count"),
    ("core.factor_updates", "count"),
    ("core.tile_rebuilds", "count"),
    ("core.tile_reuses", "count"),
    ("core.tile_reuse_ratio", "ratio"),
    ("core.factor_reuse_ratio", "ratio"),
    ("core.drc_ms", "ms"),
    ("core.drc_calls", "count"),
    ("core.drc_violations", "count"),
    ("baseline.route_ms", "ms"),
    ("extract.network_ms", "ms"),
    ("extract.dc_ms", "ms"),
    ("extract.ac_ms", "ms"),
    ("extract.droop_ms", "ms"),
    ("observe.heatmap_ms", "ms"),
    ("board.build_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.two_rail.latency_p50_ms", "ms"),
    ("serve.two_rail.latency_p90_ms", "ms"),
    ("serve.two_rail.run_p50_ms", "ms"),
    ("serve.random.latency_p50_ms", "ms"),
    ("serve.random.latency_p90_ms", "ms"),
    ("serve.random.run_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("serve.queue_depth_max", "count"),
    ("bench.gen_lag_p90_ms", "ms"),
    ("bench.unaccounted_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Span names whose per-item self time becomes a `<name>_ms` metric.
const TIMED_LAYERS: &[(&str, &str)] = &[
    ("core.route", "core.route_ms"),
    ("core.drc", "core.drc_ms"),
    ("baseline.route", "baseline.route_ms"),
    ("extract.network", "extract.network_ms"),
    ("extract.dc", "extract.dc_ms"),
    ("extract.ac", "extract.ac_ms"),
    ("extract.droop", "extract.droop_ms"),
    ("observe.heatmap", "observe.heatmap_ms"),
    ("board.build", "board.build_ms"),
    ("serve.submit", "serve.submit_ms"),
];

/// Reads one per-item figure from a work item's router counters.
type PerItem = fn(&RouteCounters) -> f64;

/// The per-layer values being assembled for one traced run.
#[derive(Debug)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Every metric at 0.
    pub fn new() -> LayerValues {
        LayerValues(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    /// Sets one metric. Panics on a name missing from [`PER_LAYER`] —
    /// a bug in the benchmark, not in the program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot = value;
    }

    /// Fills the span-timed layers and the unaccounted remainder from
    /// the tracer.
    pub fn absorb_spans(&mut self, tracer: &Tracer) {
        let layers = tracer.layer_self_ms();
        for (span, metric) in TIMED_LAYERS {
            if let Some(per_item) = layers.get(span) {
                let v: Vec<f64> = per_item.values().copied().collect();
                self.set(metric, median(&v));
            }
        }
        let unaccounted: Vec<f64> = tracer.iteration_walls().iter().map(|w| w.1).collect();
        self.set("bench.unaccounted_ms", median(&unaccounted));
    }

    /// Fills the router stage metrics from per-item counters, and the
    /// route wall the stages leave unattributed (bench-timed route self
    /// time minus the stage sum).
    pub fn absorb_routes(&mut self, items: &[RouteCounters]) {
        if items.is_empty() {
            return;
        }
        let per_item: [(&'static str, PerItem); 15] = [
            ("core.space_ms", |c| c.stages.space_ms),
            ("core.tile_ms", |c| c.stages.tile_ms),
            ("core.seed_ms", |c| c.stages.seed_ms),
            ("core.grow_ms", |c| c.stages.grow_ms),
            ("core.refine_ms", |c| c.stages.refine_ms),
            ("core.reheat_ms", |c| c.stages.reheat_ms),
            ("core.backconv_ms", |c| c.stages.backconv_ms),
            ("core.route_unattributed_ms", |c| {
                (c.route_ms - c.stages.total_ms()).max(0.0)
            }),
            ("core.solves", |c| c.stages.solves as f64),
            ("core.factorizations", |c| c.stages.factorizations as f64),
            ("core.factor_updates", |c| c.stages.factor_updates as f64),
            ("core.tile_rebuilds", |c| c.stages.tile_rebuilds as f64),
            ("core.tile_reuses", |c| c.stages.tile_reuses as f64),
            ("core.drc_calls", |c| c.drc_calls as f64),
            ("core.drc_violations", |c| c.drc_violations as f64),
        ];
        for (name, f) in per_item {
            self.set(name, median(&items.iter().map(f).collect::<Vec<_>>()));
        }
        let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let s = items.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, c| {
            (
                acc.0 + c.stages.tile_reuses as f64,
                acc.1 + (c.stages.tile_reuses + c.stages.tile_rebuilds) as f64,
                acc.2 + c.stages.factor_updates as f64,
                acc.3 + (c.stages.factor_updates + c.stages.factorizations) as f64,
            )
        });
        self.set("core.tile_reuse_ratio", ratio(s.0, s.1));
        self.set("core.factor_reuse_ratio", ratio(s.2, s.3));
    }

    /// Tracing overhead from interleaved traced and untraced readings:
    /// `median(traced) / median(untraced) − 1`.
    pub fn set_overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        let (t, u) = (median(traced_ms), median(untraced_ms));
        if t > 0.0 && u > 0.0 {
            self.set("bench.trace_overhead_frac", t / u - 1.0);
        }
    }

    /// The metrics in [`PER_LAYER`] order: (name, value, unit).
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|(n, u)| (*n, self.0[n], *u)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_reported_once_in_order() {
        let m = LayerValues::new().into_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        let mut names: Vec<&str> = m.iter().map(|x| x.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (_, metric) in TIMED_LAYERS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn route_unattributed_is_route_wall_minus_stages() {
        let mut c = RouteCounters {
            route_ms: 100.0,
            ..RouteCounters::default()
        };
        c.stages.grow_ms = 60.0;
        c.stages.tile_ms = 30.0;
        c.stages.tile_rebuilds = 1;
        c.stages.tile_reuses = 3;
        let mut v = LayerValues::new();
        v.absorb_routes(&[c]);
        let m: BTreeMap<_, _> = v.into_metrics().into_iter().map(|x| (x.0, x.1)).collect();
        assert!((m["core.route_unattributed_ms"] - 10.0).abs() < 1e-9);
        assert!((m["core.tile_reuse_ratio"] - 0.75).abs() < 1e-12);
    }
}
