//! `six_rail_signoff`: the paper's sign-off job (§III-B, Table III).
//!
//! On the 612-BGA six-rail board at the `table3` router settings, each
//! rail is first routed by the manual baseline; SPROUT then routes it
//! under the manual layout's realized area. Every SPROUT shape is
//! DRC-checked against the board and the rails routed before it, and
//! both layouts are extracted (R_dc, L@25 MHz). A board sign-off uses a
//! fresh router, so every net is tiled from scratch.
//!
//! An item is one rail's sign-off: manual route, SPROUT route, DRC and
//! both extractions.

use crate::common::{
    connected, extract, latency_note, peak_rss_mb, within_budget, Digest, Impedance, Outcome,
    RouteCounters, Run, SetupSamples,
};
use crate::layers::LayerValues;
use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;
use sprout_baseline::{ManualConfig, ManualRouter};
use sprout_board::{presets, Board};
use sprout_core::drc::check_route;
use sprout_core::router::{Router, RouterConfig};
use sprout_geom::Polygon;
use std::time::Instant;

const LAYER: usize = presets::TEN_LAYER_ROUTE_LAYER;

fn router_config() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.25,
        grow_iterations: 15,
        refine_iterations: 4,
        ..RouterConfig::default()
    }
}

fn manual_config() -> ManualConfig {
    ManualConfig {
        tile_pitch_mm: router_config().tile_pitch_mm,
        ..ManualConfig::default()
    }
}

/// The manual budget a designer allots a rail of `current_a` (the
/// `table3` schedule).
fn manual_budget(current_a: f64) -> f64 {
    16.0 + 1.8 * current_a
}

/// One rail's signed-off pair of layouts.
#[derive(Debug, Clone, Copy)]
struct RailResult {
    manual: Impedance,
    sprout: Impedance,
}

/// One board sign-off: per-rail walls (ms) and results.
struct Board1 {
    rail_ms: Vec<f64>,
    rails: Vec<Option<RailResult>>,
    counters: RouteCounters,
    digest: Digest,
}

fn sign_off(run: &mut Run, board: &Board, out: &mut Outcome) -> Board1 {
    let router = Router::new(board, router_config());
    let manual = ManualRouter::new(board, manual_config());
    let tr = &mut run.tracer;
    let mut claimed_manual: Vec<Polygon> = Vec::new();
    let mut claimed_sprout: Vec<Polygon> = Vec::new();
    let mut res = Board1 {
        rail_ms: Vec::new(),
        rails: Vec::new(),
        counters: RouteCounters::default(),
        digest: Digest::default(),
    };
    for (net_id, net) in board.power_nets() {
        let t_rail = Instant::now();
        let m = tr.time("baseline.route", || {
            manual.route_net_with(net_id, LAYER, manual_budget(net.current_a), &claimed_manual)
        });
        let m = match m {
            Ok(m) => m,
            Err(e) => {
                out.fail(format!("{}: manual baseline failed: {e}", net.name));
                res.rails.push(None);
                continue;
            }
        };
        let budget = m.shape.area_mm2();
        let t_route = Instant::now();
        let s = tr.time("core.route", || {
            router.route_net_with(net_id, LAYER, budget, &claimed_sprout, &[])
        });
        let route_ms = t_route.elapsed().as_secs_f64() * 1e3;
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("{}: SPROUT route failed: {e}", net.name));
                res.rails.push(None);
                continue;
            }
        };
        res.counters.add_route(&s.timings, route_ms);
        let drc = tr.time("core.drc", || {
            check_route(board, net_id, LAYER, &s.shape, &claimed_sprout)
        });
        res.counters.drc_calls += 1;
        let extracted = extract(tr, board, &m).and_then(|mi| Ok((mi, extract(tr, board, &s)?)));
        let span = tr.enter("bench.verify");
        let mut problems = Vec::new();
        match &drc {
            Ok(v) if v.is_empty() => {}
            Ok(v) => {
                res.counters.drc_violations += v.len() as u64;
                problems.push(format!("{} DRC violations", v.len()));
            }
            Err(e) => problems.push(format!("DRC failed: {e}")),
        }
        if !within_budget(s.shape.area_mm2(), budget, router.config()) {
            problems.push(format!(
                "area {:.3} mm² over budget {budget:.3}",
                s.shape.area_mm2()
            ));
        }
        if !connected(&s) {
            problems.push("terminals disconnected".into());
        }
        let rail = match extracted {
            Ok((manual, sprout)) => {
                // Table III: SPROUT is never worse than manual, per rail.
                if sprout.r_ohm > manual.r_ohm {
                    problems.push("R_dc worse than manual".into());
                }
                if sprout.l_h > manual.l_h {
                    problems.push("L@25MHz worse than manual".into());
                }
                Some(RailResult { manual, sprout })
            }
            Err(e) => {
                problems.push(format!("extraction failed: {e}"));
                None
            }
        };
        if !problems.is_empty() {
            out.fail(format!("{}: {}", net.name, problems.join("; ")));
        }
        res.digest.shape(&s.shape);
        res.digest.word(s.timings.solves as u64);
        claimed_manual.extend(m.shape.blocker_polygons());
        claimed_sprout.extend(s.shape.blocker_polygons());
        tr.exit(span);
        res.rails.push(rail);
        res.rail_ms.push(t_rail.elapsed().as_secs_f64() * 1e3);
    }
    res
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Outcome {
    let mut out = Outcome::default();
    let mut set_up = |tr: &mut Tracer| {
        let t = Instant::now();
        let board = tr.time("board.build", presets::six_rail);
        let router = Router::new(&board, router_config());
        let manual = ManualRouter::new(&board, manual_config());
        let s = t.elapsed().as_secs_f64();
        drop((router, manual));
        s
    };
    let mut setup = SetupSamples::default();
    setup.burst(&mut run.tracer, &mut set_up);
    let board = presets::six_rail();
    let traced = run.tracer.is_on();

    let mut rail_ms: Vec<f64> = Vec::new();
    let mut board_ms: Vec<f64> = Vec::new();
    let mut untraced_board_ms: Vec<f64> = Vec::new();
    let mut counters: Vec<RouteCounters> = Vec::new();
    let mut first: Option<(Digest, Vec<Option<RailResult>>, usize)> = None;
    let start = Instant::now();
    let mut k = 0u64;
    // At least two boards, so the traced run has one of each kind.
    while k < 2 || Run::since(start) < run.seconds {
        // The traced run interleaves untraced boards to measure the
        // tracing overhead.
        let trace_this = traced && k.is_multiple_of(2);
        run.tracer.set_on(trace_this);
        let it = run.tracer.begin_iteration(k);
        let t = Instant::now();
        let b = sign_off(run, &board, &mut out);
        let wall = t.elapsed().as_secs_f64() * 1e3;
        run.tracer.exit(it);
        out.attempted += board.power_nets().count() as u64;
        if trace_this || !traced {
            board_ms.push(wall);
            counters.push(b.counters);
        } else {
            untraced_board_ms.push(wall);
        }
        rail_ms.extend(&b.rail_ms);
        match &first {
            None => first = Some((b.digest, b.rails, b.counters.stages.solves)),
            Some((d, ..)) if *d != b.digest => {
                out.fail(format!("board {k}: shapes differ from the first board"));
            }
            Some(_) => {}
        }
        setup.burst(&mut run.tracer, &mut set_up);
        k += 1;
    }
    run.tracer.set_on(traced);
    let setup_s = setup.estimate(&mut out);
    let (digest, rails, solves) = first.expect("at least one board");
    let ok: Vec<RailResult> = rails.iter().flatten().copied().collect();
    let ratio = |f: &dyn Fn(&RailResult) -> f64| geomean(&ok.iter().map(f).collect::<Vec<_>>());
    let r_ratio = ratio(&|r| r.sprout.r_ohm / r.manual.r_ohm).unwrap_or(f64::NAN);
    let l_ratio = ratio(&|r| r.sprout.l_h / r.manual.l_h).unwrap_or(f64::NAN);
    let n = ok.len().max(1) as f64;
    let r_mean = ok.iter().map(|r| r.sprout.r_ohm * 1e3).sum::<f64>() / n;
    let l_mean = ok.iter().map(|r| r.sprout.l_h * 1e12).sum::<f64>() / n;
    let board_s = median(&board_ms) / 1e3;

    out.note(format!(
        "six_rail_signoff: {k} boards, {} rails; board_s {board_s:.4} (median), r_ratio {r_ratio:.4}, l_ratio {l_ratio:.4} (SPROUT/manual geomean)",
        rail_ms.len()
    ));
    out.note(format!(
        "solves per board {solves}, shape digest {}",
        digest.hex()
    ));
    out.note(latency_note("rail sign-off", &rail_ms));
    out.facts.push(("board_s", format!("{board_s}")));
    out.facts.push(("r_ratio", format!("{r_ratio}")));
    out.facts.push(("l_ratio", format!("{l_ratio}")));
    out.facts.push(("solves", solves.to_string()));
    out.facts.push(("digest", format!("\"{}\"", digest.hex())));
    out.facts.push(("boards", k.to_string()));

    if traced {
        let mut v = LayerValues::new();
        v.absorb_spans(&run.tracer);
        v.absorb_routes(&counters);
        v.set_overhead(&board_ms, &untraced_board_ms);
        out.metrics = v.into_metrics();
        return out;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    let rails = board.power_nets().count() as f64;
    out.metric("items_per_s", rails / board_s, "1/s");
    out.metric("item_p50_ms", median(&rail_ms), "ms");
    // Printed, not gated: see the README on tail latency.
    let p90 = quantile(&rail_ms, 0.9).unwrap_or(0.0);
    out.facts.push(("item_p90_ms", format!("{p90}")));
    out.metric("r_mean_mohm", r_mean, "mohm");
    out.metric("l_mean_ph", l_mean, "pH");
    out
}
