//! `three_rail_sweep`: the exploration loop (§III-C, Table IV, Fig. 12).
//!
//! The nine Table IV layouts on the three-rail board at the `fig12`
//! router settings: 27 routes, each followed by DC and AC extraction,
//! droop simulation and heatmaps. One router serves a whole sweep, so
//! later layouts re-route the same nets under new blockers through the
//! tiling session's patch and reuse paths. DRC, budget and connectivity
//! checks run after the clock stops, on the first sweep's shapes; every
//! later sweep must reproduce them bit for bit.
//!
//! An item is one prototype: one rail routed, extracted, droop-simulated
//! and mapped.

use crate::common::{
    connected, extract, latency_note, peak_rss_mb, within_budget, Digest, Outcome, RouteCounters,
    Run, SetupSamples,
};
use crate::layers::LayerValues;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use sprout_board::{presets, Board, Net, NetId};
use sprout_core::drc::check_route;
use sprout_core::router::{RouteResult, Router, RouterConfig};
use sprout_extract::pdn::RailPdn;
use sprout_geom::Polygon;
use sprout_observe::build_heatmaps;
use std::time::Instant;

const LAYER: usize = presets::TEN_LAYER_ROUTE_LAYER;
/// mm² per normalized Table IV area unit (as `fig12`).
const AREA_UNIT_MM2: f64 = 1.7;

fn router_config() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.3,
        grow_iterations: 15,
        refine_iterations: 4,
        ..RouterConfig::default()
    }
}

/// A prototype kept for the off-clock checks.
struct Shipped {
    net: NetId,
    budget_mm2: f64,
    blockers: Vec<Polygon>,
    route: RouteResult,
}

/// One prototype's extracted figures.
#[derive(Debug, Clone, Copy)]
struct Figures {
    r_ohm: f64,
    l_h: f64,
    v_min: f64,
}

struct SweepResult {
    proto_ms: Vec<f64>,
    figures: Vec<Option<Figures>>,
    shipped: Vec<Shipped>,
    counters: RouteCounters,
    digest: Digest,
}

fn sweep(run: &mut Run, board: &Board, nets: &[(NetId, Net)], out: &mut Outcome) -> SweepResult {
    let router = Router::new(board, router_config());
    let tr = &mut run.tracer;
    let mut res = SweepResult {
        proto_ms: Vec::new(),
        figures: Vec::new(),
        shipped: Vec::new(),
        counters: RouteCounters::default(),
        digest: Digest::default(),
    };
    for (k, (a_modem, a_cpu, a_dsp)) in presets::table_iv_area_schedule().into_iter().enumerate() {
        let budgets = [a_modem, a_cpu, a_dsp].map(|a| a * AREA_UNIT_MM2);
        let mut claimed: Vec<Polygon> = Vec::new();
        for ((net_id, net), budget) in nets.iter().zip(budgets) {
            let t = Instant::now();
            let route = tr.time("core.route", || {
                router.route_net_with(*net_id, LAYER, budget, &claimed, &[])
            });
            let route_ms = t.elapsed().as_secs_f64() * 1e3;
            let route = match route {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("layout {} {}: route failed: {e}", k + 1, net.name));
                    res.figures.push(None);
                    continue;
                }
            };
            res.counters.add_route(&route.timings, route_ms);
            let figures = extract(tr, board, &route)
                .map_err(|e| e.to_string())
                .and_then(|z| {
                    let pdn = RailPdn {
                        supply_v: net.supply_v,
                        resistance_ohm: z.r_ohm,
                        inductance_h: z.l_h,
                        decaps: board.decaps_for(*net_id).cloned().collect(),
                        load_a: net.current_a,
                        slew_a_per_s: net.slew_a_per_s,
                    };
                    let droop = tr
                        .time("extract.droop", || pdn.simulate_droop())
                        .map_err(|e| e.to_string())?;
                    tr.time("observe.heatmap", || {
                        build_heatmaps(&route.graph, &route.subgraph, &route.pairs)
                    })
                    .map_err(|e| e.to_string())?;
                    Ok(Figures {
                        r_ohm: z.r_ohm,
                        l_h: z.l_h,
                        v_min: droop.v_min,
                    })
                });
            res.proto_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let span = tr.enter("bench.verify");
            match figures {
                Ok(f) => res.figures.push(Some(f)),
                Err(e) => {
                    out.fail(format!("layout {} {}: {e}", k + 1, net.name));
                    res.figures.push(None);
                }
            }
            res.digest.shape(&route.shape);
            res.digest.word(route.timings.solves as u64);
            let blockers = claimed.clone();
            claimed.extend(route.shape.blocker_polygons());
            res.shipped.push(Shipped {
                net: *net_id,
                budget_mm2: budget,
                blockers,
                route,
            });
            tr.exit(span);
        }
    }
    res
}

/// The off-clock checks on one sweep's prototypes: DRC-clean, within
/// budget, connected, and Fig. 12c's V_min rising with area per rail.
fn check(run: &mut Run, board: &Board, s: &SweepResult, rails: usize, out: &mut Outcome) -> u64 {
    let tr = &mut run.tracer;
    let mut violations = 0;
    for (i, p) in s.shipped.iter().enumerate() {
        let drc = tr.time("core.drc", || {
            check_route(board, p.net, LAYER, &p.route.shape, &p.blockers)
        });
        let mut problems = Vec::new();
        match drc {
            Ok(v) if v.is_empty() => {}
            Ok(v) => {
                violations += v.len() as u64;
                problems.push(format!("{} DRC violations", v.len()));
            }
            Err(e) => problems.push(format!("DRC failed: {e}")),
        }
        if !within_budget(p.route.shape.area_mm2(), p.budget_mm2, &router_config()) {
            problems.push(format!(
                "area {:.3} over budget {:.3}",
                p.route.shape.area_mm2(),
                p.budget_mm2
            ));
        }
        if !connected(&p.route) {
            problems.push("terminals disconnected".into());
        }
        if !problems.is_empty() {
            out.fail(format!("prototype {i}: {}", problems.join("; ")));
        }
    }
    for rail in 0..rails {
        let v: Vec<Option<f64>> = s
            .figures
            .iter()
            .skip(rail)
            .step_by(rails)
            .map(|f| f.map(|f| f.v_min))
            .collect();
        for (k, w) in v.windows(2).enumerate() {
            if let [Some(a), Some(b)] = w {
                if b < a {
                    out.fail(format!(
                        "rail {rail}: V_min falls from layout {} to {} ({a:.6} → {b:.6} V)",
                        k + 1,
                        k + 2
                    ));
                }
            }
        }
    }
    violations
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Outcome {
    let mut out = Outcome::default();
    let mut set_up = |tr: &mut Tracer| {
        let t = Instant::now();
        let board = tr.time("board.build", presets::three_rail);
        let router = Router::new(&board, router_config());
        let s = t.elapsed().as_secs_f64();
        drop(router);
        s
    };
    let mut setup = SetupSamples::default();
    setup.burst(&mut run.tracer, &mut set_up);
    let board = presets::three_rail();
    let nets: Vec<(NetId, Net)> = board.power_nets().map(|(id, n)| (id, n.clone())).collect();
    let traced = run.tracer.is_on();

    let mut proto_ms: Vec<f64> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut counters: Vec<RouteCounters> = Vec::new();
    let mut first: Option<SweepResult> = None;
    let mut sweep_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while k < 2 || Run::since(start) < run.seconds {
        let trace_this = traced && k.is_multiple_of(2);
        run.tracer.set_on(trace_this);
        let it = run.tracer.begin_iteration(k);
        let t = Instant::now();
        let s = sweep(run, &board, &nets, &mut out);
        let wall = t.elapsed().as_secs_f64();
        run.tracer.exit(it);
        out.attempted += s.figures.len() as u64;
        proto_ms.extend(&s.proto_ms);
        if trace_this || !traced {
            sweep_ms.push(wall * 1e3);
            counters.push(s.counters);
        } else {
            untraced_ms.push(wall * 1e3);
        }
        match &first {
            None => first = Some(s),
            Some(f) if f.digest != s.digest => {
                out.fail(format!("sweep {k}: shapes differ from the first sweep"));
            }
            Some(_) => {}
        }
        setup.burst(&mut run.tracer, &mut set_up);
        k += 1;
    }
    let setup_s = setup.estimate(&mut out);
    // The clock has stopped: check the first sweep's prototypes, which
    // every later sweep reproduced bit for bit. Their DRC is charged to
    // the first (traced) sweep.
    run.tracer.set_on(traced);
    run.tracer.set_iteration(0);
    let first = first.expect("at least one sweep");
    let violations = check(run, &board, &first, nets.len(), &mut out);
    let figs: Vec<Figures> = first.figures.iter().flatten().copied().collect();
    let n = figs.len().max(1) as f64;
    let r_mean = figs.iter().map(|f| f.r_ohm * 1e3).sum::<f64>() / n;
    let l_mean = figs.iter().map(|f| f.l_h * 1e12).sum::<f64>() / n;
    // Prototypes per second at the median sweep.
    let per_s = first.figures.len() as f64 / (median(&sweep_ms) / 1e3);
    out.note(format!(
        "three_rail_sweep: {k} sweeps, {} prototypes, {per_s:.3} prototypes/s; r_eff_mean {r_mean:.4} mΩ",
        proto_ms.len(),
    ));
    out.note(latency_note("prototype", &proto_ms));
    out.note(format!(
        "solves per sweep {}, shape digest {}",
        first.counters.stages.solves,
        first.digest.hex()
    ));
    out.facts
        .push(("solves", first.counters.stages.solves.to_string()));
    out.facts
        .push(("digest", format!("\"{}\"", first.digest.hex())));
    out.facts.push(("sweeps", k.to_string()));

    if traced {
        let mut v = LayerValues::new();
        v.absorb_spans(&run.tracer);
        v.absorb_routes(&counters);
        v.set("core.drc_calls", first.shipped.len() as f64);
        v.set("core.drc_violations", violations as f64);
        v.set_overhead(&sweep_ms, &untraced_ms);
        out.metrics = v.into_metrics();
        return out;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out.metric("items_per_s", per_s, "1/s");
    out.metric("item_p50_ms", median(&proto_ms), "ms");
    // Printed, not gated: see the README on tail latency.
    let p90 = quantile(&proto_ms, 0.9).unwrap_or(0.0);
    out.facts.push(("item_p90_ms", format!("{p90}")));
    out.metric("r_mean_mohm", r_mean, "mohm");
    out.metric("l_mean_ph", l_mean, "pH");
    out
}
