//! Post-route timing: routed connection delays and the routed hop.
//!
//! Replaces the placement-time distance estimates with the actual routed
//! wire delays: each sink's net delay is the sum of the wire-tier delays
//! along its routed path. The slice critical path then comes from the
//! same longest-path pass as the pre-route estimate
//! ([`nanomap_place::analyze_timing`]), charged with [`routed_hop`]; the
//! router keeps its arrivals, so the path tracer reads them instead of
//! running the pass again.

use std::collections::HashMap;

use nanomap_arch::{ArchParams, RrGraph, TimingModel};
use nanomap_netlist::LutId;
use nanomap_pack::{Packing, Slice, TemporalDesign};
use nanomap_place::EdgeSource;

use crate::pathfinder::RoutedNet;

/// Routed delay of every (slice, driver SMB, sink SMB) connection.
pub(crate) type NetDelays = HashMap<(Slice, u32, u32), f64>;

/// Computes routed net delays from the per-slice routing.
pub(crate) fn net_delays(
    graph: &RrGraph,
    timing: &TimingModel,
    routes: &HashMap<Slice, Vec<RoutedNet>>,
) -> NetDelays {
    let mut out = NetDelays::new();
    for (&slice, nets) in routes {
        for net in nets {
            for (sink_idx, &sink) in net.sinks.iter().enumerate() {
                let delay: f64 = net.sink_paths[sink_idx]
                    .iter()
                    .filter_map(|&n| graph.node(n).wire)
                    .map(|w| timing.wire_delay(w))
                    .sum();
                let key = (slice, net.driver, sink);
                let slot = out.entry(key).or_insert(0.0);
                *slot = slot.max(delay);
            }
        }
    }
    out
}

/// The routed hop delay of an input edge from SMB `from` into LUT `id`
/// on SMB `to`. A cross-SMB hop costs its routed connection's delay; a
/// same-SMB hop, or a connection with no route, costs the local
/// crossbar, refined to the intra-MB delay for a same-slice producer in
/// the consumer's macroblock.
pub(crate) fn routed_hop<'a>(
    design: &'a TemporalDesign<'a>,
    packing: &'a Packing,
    delays: &'a NetDelays,
    timing: &'a TimingModel,
    arch: &'a ArchParams,
) -> impl Fn(LutId, EdgeSource, u32, u32) -> f64 + 'a {
    let mb = |l: LutId| packing.lut_le[&l] / arch.les_per_mb;
    move |id, source, from, to| {
        if from != to {
            let key = (design.slice_of(id), from, to);
            return delays
                .get(&key)
                .copied()
                .unwrap_or(timing.local_interconnect);
        }
        match source {
            EdgeSource::Lut { lut, .. } if mb(lut) == mb(id) => timing.local_intra_mb,
            _ => timing.local_interconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::{ChannelConfig, DefectMap, Grid, SmbPos};
    use nanomap_observe::CancelToken;
    use nanomap_pack::SliceNet;

    #[test]
    fn routed_delay_sums_wire_tiers() {
        let grid = Grid::new(3, 1);
        let graph = RrGraph::build(grid, &ChannelConfig::nature(), &DefectMap::none());
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(2, 0)];
        let nets = vec![SliceNet {
            driver: 0,
            sinks: vec![1],
            critical: false,
        }];
        let routed = crate::pathfinder::route_slice(
            &graph,
            &nets,
            &pos,
            crate::pathfinder::RouteOptions::default(),
            &CancelToken::unlimited(),
        )
        .unwrap()
        .into_value();
        let slice = Slice { plane: 0, stage: 0 };
        let mut routes = HashMap::new();
        routes.insert(slice, routed);
        let timing = TimingModel::nature_100nm();
        let delays = net_delays(&graph, &timing, &routes);
        let d = delays[&(slice, 0, 1)];
        // Distance-2 connection: at least one wire hop, bounded by global.
        assert!(d >= timing.wire_direct);
        assert!(d <= timing.wire_global + timing.wire_direct * 2.0 + 1e-9);
    }
}
