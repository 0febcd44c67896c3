//! Whole-design routing driver: every folding cycle, then timing, usage
//! statistics and the configuration bitmap.

use std::collections::HashMap;

use nanomap_arch::{ArchParams, ChannelConfig, ConfigBitmap, DefectMap, RrGraph, TimingModel};
use nanomap_observe::span;
use nanomap_observe::{Anytime, CancelToken, Degradation};
use nanomap_pack::{Packing, Slice, SliceNets, TemporalDesign};
use nanomap_place::Placement;

use crate::bitmap::generate_bitmap;
use crate::error::RouteError;
use crate::pathfinder::{route_slice, RouteOptions, RoutedNet};
use crate::timing::{analyze, net_delays, RoutedTiming};
use crate::usage::{tally_usage, InterconnectUsage};

/// A fully routed design.
#[derive(Debug)]
pub struct RoutedDesign {
    /// The routing-resource graph the routes refer into (kept so that
    /// downstream attribution — segment breakdowns, congestion grids —
    /// can resolve node ids without rebuilding it).
    pub graph: RrGraph,
    /// Per-slice routing trees.
    pub routes: HashMap<Slice, Vec<RoutedNet>>,
    /// Interconnect usage counters.
    pub usage: InterconnectUsage,
    /// Post-route timing.
    pub timing: RoutedTiming,
    /// The generated configuration bitmap.
    pub bitmap: ConfigBitmap,
    /// Wall-clock milliseconds spent generating the bitmap (the flow
    /// reports it as its own phase).
    pub bitmap_ms: f64,
}

/// Routes a placed design cycle by cycle and assembles the bitmap. The
/// routing-resource graph is built with the fabric's broken wires and
/// stuck-open switches pruned, so PathFinder negotiates around them (a
/// clean fabric is [`DefectMap::none`]).
///
/// # Errors
///
/// Returns the first slice's routing failure (congestion or
/// disconnection), with slice and net context attached.
#[allow(clippy::too_many_arguments)] // the flow's full context is the point
pub fn route_design_with_defects(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    nets: &SliceNets,
    placement: &Placement,
    channels: &ChannelConfig,
    timing_model: &TimingModel,
    arch: &ArchParams,
    options: RouteOptions,
    defects: &DefectMap,
) -> Result<RoutedDesign, RouteError> {
    route_design_budgeted(
        design,
        packing,
        nets,
        placement,
        channels,
        timing_model,
        arch,
        options,
        defects,
        &CancelToken::unlimited(),
    )
    .map(Anytime::into_value)
}

/// Budget-aware [`route_design_with_defects`]: each slice's PathFinder
/// run polls `token` between rip-up iterations. Degraded slices keep
/// their best-so-far (possibly congested) routes; the merged
/// [`Degradation`] sums completed iterations and overused nodes across
/// degraded slices.
///
/// # Errors
///
/// Same as [`route_design_with_defects`]; an expired budget never
/// surfaces as a routing error.
#[allow(clippy::too_many_arguments)] // the flow's full context is the point
pub fn route_design_budgeted(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    nets: &SliceNets,
    placement: &Placement,
    channels: &ChannelConfig,
    timing_model: &TimingModel,
    arch: &ArchParams,
    options: RouteOptions,
    defects: &DefectMap,
    token: &CancelToken,
) -> Result<Anytime<RoutedDesign>, RouteError> {
    let graph = RrGraph::build(placement.grid, channels, defects);
    let mut routes: HashMap<Slice, Vec<RoutedNet>> = HashMap::new();
    let mut degraded_slices = 0u32;
    let mut degraded_iterations = 0u64;
    let mut degraded_overuse = 0.0f64;
    let num_slices = design.slices().len();
    for slice in design.slices() {
        let slice_nets = nets.of(slice);
        let mut slice_span = span!("route-slice", seed = options.seed);
        slice_span.attr("nets", slice_nets.len() as u64);
        let routed = route_slice(&graph, slice_nets, &placement.pos_of, options, token)
            .map_err(|e| e.in_slice(slice))?;
        let (routed, degradation) = routed.into_parts();
        if let Some(d) = degradation {
            slice_span.attr("degraded", 1u64);
            degraded_slices += 1;
            degraded_iterations += d.completed_iterations;
            degraded_overuse += d.qor_estimate;
        }
        routes.insert(slice, routed);
    }
    let usage = tally_usage(&graph, &routes);
    let delays = net_delays(&graph, timing_model, &routes);
    let timing = analyze(design, packing, &delays, timing_model, arch);
    let bitmap_start = std::time::Instant::now();
    let bitmap = {
        let _span = span!("bitmap", slices = design.num_slices());
        generate_bitmap(
            design,
            packing,
            &placement.pos_of,
            &routes,
            arch.les_per_smb(),
        )
    };
    let bitmap_ms = bitmap_start.elapsed().as_secs_f64() * 1e3;
    let routed = RoutedDesign {
        graph,
        routes,
        usage,
        timing,
        bitmap,
        bitmap_ms,
    };
    Ok(if degraded_slices > 0 {
        Anytime::Degraded(
            routed,
            Degradation {
                phase: "route".into(),
                reason: format!(
                    "time budget expired: {degraded_slices} of {num_slices} slices kept \
                     best-so-far routes ({degraded_overuse:.0} overused nodes)"
                ),
                completed_iterations: degraded_iterations,
                qor_estimate: degraded_overuse,
            },
        )
    } else {
        Anytime::Complete(routed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{segment_breakdowns, trace_critical_paths};
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::PlaneSet;
    use nanomap_pack::{extract_nets, pack, PackOptions};
    use nanomap_place::{place_with_defects, PlaceOptions};
    use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
    use nanomap_techmap::{expand, ExpandOptions};

    #[test]
    fn routes_end_to_end() {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 6);
        let c = b.input("b", 6);
        let mul = b.comb("mul", CombOp::Mul { width: 6 });
        b.connect(a, 0, mul, 0).unwrap();
        b.connect(c, 0, mul, 1).unwrap();
        let r = b.register("r", 12);
        b.connect(mul, 0, r, 0).unwrap();
        let y = b.output("y", 12);
        b.connect(r, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane0 = planes.planes()[0].clone();
        let p = 4;
        let stages = plane0.depth.div_ceil(p);
        let graph = ItemGraph::build(&net, &plane0, p).unwrap();
        let schedule = schedule_fds(&net, &graph, stages, FdsOptions::default()).unwrap();
        let design = TemporalDesign::new(&net, &planes, vec![graph], vec![schedule]).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let nets = extract_nets(&design, &packing);
        let channels = ChannelConfig::nature();
        let timing = TimingModel::nature_100nm();
        let clean = DefectMap::none();
        let placement = place_with_defects(
            &design,
            &packing,
            &nets,
            &channels,
            &timing,
            PlaceOptions::default(),
            &clean,
        )
        .unwrap();
        let routed = route_design_with_defects(
            &design,
            &packing,
            &nets,
            &placement,
            &channels,
            &timing,
            &arch,
            RouteOptions::default(),
            &clean,
        )
        .unwrap();
        // Every slice routed.
        assert_eq!(routed.routes.len(), design.slices().len());
        // Bitmap covers every slice.
        assert_eq!(routed.bitmap.num_cycles() as u32, design.num_slices());
        // Routed timing is at least the logical lower bound.
        assert!(routed.timing.cycle_period >= timing.folding_cycle(1));
        // Routed delay should not be wildly above the pre-route estimate.
        assert!(routed.timing.circuit_delay <= placement.delay.circuit_delay * 5.0 + 10.0);
        // Some interconnect is used (multi-SMB design).
        if packing.num_smbs > 1 {
            assert!(routed.usage.total() > 0);
        }
        // Critical path: non-empty, single-slice, monotone arrivals ending
        // at the worst slice path.
        let delays = net_delays(&routed.graph, &timing, &routed.routes);
        let breakdowns = segment_breakdowns(&routed.graph, &timing, &routed.routes);
        let report =
            trace_critical_paths(&design, &packing, &delays, &breakdowns, &timing, &arch, 1);
        let worst = &report.paths[0];
        assert!(!worst.hops.is_empty());
        let mut last = 0.0;
        for hop in &worst.hops {
            assert_eq!(
                design.slice_of(hop.lut),
                worst.slice,
                "critical path stays in one slice"
            );
            assert!(hop.arrival_ns >= last);
            last = hop.arrival_ns;
        }
        assert!((last - routed.timing.max_slice_path).abs() < 1e-9);
    }
}
