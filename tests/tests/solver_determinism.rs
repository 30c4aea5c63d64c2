//! End-to-end routing determinism against recorded scratch goldens.
//!
//! The incremental nodal session and the persistent tiling sessions are
//! bit-identical to the from-scratch evaluators ([`node_current`] and
//! [`space_to_graph`]). The constants below were recorded by routing
//! this two-rail job with both from-scratch evaluators; the two engines
//! agreed bit for bit on every field. Routing it now through the one
//! production path must reproduce them exactly.
//!
//! [`node_current`]: sprout_core::current::node_current
//! [`space_to_graph`]: sprout_core::tile::space_to_graph

use sprout_board::io::fnv1a64;
use sprout_board::presets;
use sprout_core::reheat::ReheatConfig;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::RouteResult;

/// One rail's recorded route.
struct Golden {
    final_resistance_sq_bits: u64,
    area_mm2_bits: u64,
    /// [`fnv1a64`] of the member list as little-endian `u32` node ids,
    /// in subgraph order.
    members_fnv: u64,
    /// [`fnv1a64`] of `resistance_history_sq` as little-endian bit
    /// patterns.
    history_fnv: u64,
    history_len: usize,
    solves: usize,
    /// Metric evaluations (`factorizations + factor_updates`); the
    /// scratch engine factored every one of them from scratch.
    evaluations: usize,
}

const GOLDENS: [Golden; 2] = [
    Golden {
        final_resistance_sq_bits: 0x403b_72ca_8fd2_3739,
        area_mm2_bits: 0x4034_0000_0000_0000,
        members_fnv: 0xba63_2bc1_083b_37a1,
        history_fnv: 0x783b_1333_88f5_788e,
        history_len: 11,
        solves: 225,
        evaluations: 25,
    },
    Golden {
        final_resistance_sq_bits: 0x403b_5612_3a3e_b0f8,
        area_mm2_bits: 0x4034_0000_0000_0000,
        members_fnv: 0x136a_35ae_3956_2fbf,
        history_fnv: 0x4128_971a_9319_d3f2,
        history_len: 11,
        solves: 225,
        evaluations: 25,
    },
];

fn route_all() -> Vec<RouteResult> {
    let board = presets::two_rail();
    let config = RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 3,
        reheat: Some(ReheatConfig {
            dilate_iterations: 1,
            erode_step: 24,
        }),
        ..RouterConfig::default()
    };
    let router = Router::new(&board, config);
    let nets: Vec<_> = board.power_nets().map(|(id, _)| id).collect();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let requests: Vec<_> = nets.into_iter().map(|n| (n, layer, 20.0)).collect();
    router.route_all(&requests).into_results().unwrap()
}

fn members_fnv(route: &RouteResult) -> u64 {
    let bytes: Vec<u8> = route
        .subgraph
        .members()
        .iter()
        .flat_map(|n| n.0.to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn history_fnv(route: &RouteResult) -> u64 {
    let bytes: Vec<u8> = route
        .resistance_history_sq
        .iter()
        .flat_map(|r| r.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

#[test]
fn routes_match_recorded_scratch_goldens() {
    let routes = route_all();
    assert_eq!(
        routes.len(),
        GOLDENS.len(),
        "two-rail preset routes two rails"
    );
    for (route, golden) in routes.iter().zip(&GOLDENS) {
        let net = route.net;
        assert_eq!(
            route.final_resistance_sq.to_bits(),
            golden.final_resistance_sq_bits,
            "{net:?}: objective must be bit-identical ({})",
            route.final_resistance_sq
        );
        assert_eq!(
            route.shape.area_mm2().to_bits(),
            golden.area_mm2_bits,
            "{net:?}: shipped area"
        );
        assert_eq!(
            members_fnv(route),
            golden.members_fnv,
            "{net:?}: subgraph membership"
        );
        assert_eq!(
            route.resistance_history_sq.len(),
            golden.history_len,
            "{net:?}: history length"
        );
        assert_eq!(history_fnv(route), golden.history_fnv, "{net:?}: history");
        assert_eq!(route.timings.solves, golden.solves, "{net:?}: solve count");
    }
}

#[test]
fn incremental_engine_skips_factorizations() {
    for (route, golden) in route_all().iter().zip(&GOLDENS) {
        let t = route.timings;
        assert!(
            t.factor_updates > 0,
            "{:?}: the session must serve some evaluations without a full factor",
            route.net
        );
        assert_eq!(
            t.factorizations + t.factor_updates,
            golden.evaluations,
            "{:?}: every recorded metric evaluation is either factored or updated",
            route.net
        );
    }
}
