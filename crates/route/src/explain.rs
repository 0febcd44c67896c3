//! QoR attribution: per-net segment breakdowns and K-worst path tracing.
//!
//! The headline `circuit_delay` is one number; this module explains it.
//! Every routed connection gets a per-tier delay breakdown (how many
//! direct / length-1 / length-4 / global hops, and how much each tier
//! contributes), and each folding cycle gets its K worst post-route paths
//! traced LUT by LUT with per-hop interconnect and logic delays.
//!
//! The tracer reads the arrivals the router's timing pass kept and walks
//! back through the same [`input_edges`] classifier and routed hop, so
//! the hops of a traced path sum *exactly* (modulo f64 rounding) to the
//! arrival of its endpoint — and the top-1 path sums to
//! `max_slice_path`, which ties it to `routed_delay_ns` through the
//! identity `(path + reconfiguration + clocking) * num_slices`.

use std::collections::HashMap;

use nanomap_arch::{ArchParams, RrGraph, TimingModel, WireType};
use nanomap_netlist::LutId;
use nanomap_pack::{Packing, Slice, TemporalDesign};
use nanomap_place::{input_edges, EdgeSource, InputEdge};

use crate::driver::RoutedDesign;
use crate::pathfinder::RoutedNet;
use crate::timing::routed_hop;

/// Per-tier decomposition of one routed connection's delay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentBreakdown {
    /// Direct-link hops on the path.
    pub direct_hops: u32,
    /// Delay contributed by direct links (ns).
    pub direct_ns: f64,
    /// Length-1 segment hops.
    pub length1_hops: u32,
    /// Delay contributed by length-1 segments (ns).
    pub length1_ns: f64,
    /// Length-4 segment hops.
    pub length4_hops: u32,
    /// Delay contributed by length-4 segments (ns).
    pub length4_ns: f64,
    /// Global-line hops.
    pub global_hops: u32,
    /// Delay contributed by global lines (ns).
    pub global_ns: f64,
    /// Programmable switch crossings (wire-to-wire transitions).
    pub switch_hops: u32,
}

impl SegmentBreakdown {
    /// Total wire hops across all tiers.
    pub fn total_hops(&self) -> u32 {
        self.direct_hops + self.length1_hops + self.length4_hops + self.global_hops
    }

    /// Total wire delay across all tiers (ns).
    pub fn total_ns(&self) -> f64 {
        self.direct_ns + self.length1_ns + self.length4_ns + self.global_ns
    }

    /// Hop count and delay for one tier, in a stable order for reports.
    pub fn tier(&self, wire: WireType) -> (u32, f64) {
        match wire {
            WireType::Direct => (self.direct_hops, self.direct_ns),
            WireType::Length1 => (self.length1_hops, self.length1_ns),
            WireType::Length4 => (self.length4_hops, self.length4_ns),
            WireType::Global => (self.global_hops, self.global_ns),
        }
    }

    fn add(&mut self, wire: WireType, delay: f64) {
        match wire {
            WireType::Direct => {
                self.direct_hops += 1;
                self.direct_ns += delay;
            }
            WireType::Length1 => {
                self.length1_hops += 1;
                self.length1_ns += delay;
            }
            WireType::Length4 => {
                self.length4_hops += 1;
                self.length4_ns += delay;
            }
            WireType::Global => {
                self.global_hops += 1;
                self.global_ns += delay;
            }
        }
    }

    /// Deterministic tie-break key (hop counts per tier, switches).
    fn key(&self) -> (u32, u32, u32, u32, u32) {
        (
            self.direct_hops,
            self.length1_hops,
            self.length4_hops,
            self.global_hops,
            self.switch_hops,
        )
    }
}

/// Segment breakdown of every (slice, driver SMB, sink SMB) connection.
///
/// Mirrors `net_delays`: when several routed paths serve the same
/// connection, the breakdown of the slowest one is kept (ties broken
/// deterministically by hop-count key), so `total_ns` matches the delay
/// the timing analyzer charges for that hop.
fn segment_breakdowns(
    graph: &RrGraph,
    timing: &TimingModel,
    routes: &HashMap<Slice, Vec<RoutedNet>>,
) -> HashMap<(Slice, u32, u32), SegmentBreakdown> {
    let mut out = HashMap::new();
    for (&slice, nets) in routes {
        for net in nets {
            for (sink_idx, &sink) in net.sinks.iter().enumerate() {
                let mut b = SegmentBreakdown::default();
                let mut prev_was_wire = false;
                for &n in &net.sink_paths[sink_idx] {
                    match graph.node(n).wire {
                        Some(w) => {
                            b.add(w, timing.wire_delay(w));
                            if prev_was_wire {
                                b.switch_hops += 1;
                            }
                            prev_was_wire = true;
                        }
                        None => prev_was_wire = false,
                    }
                }
                let slot: &mut SegmentBreakdown = out.entry((slice, net.driver, sink)).or_default();
                let better = b.total_ns() > slot.total_ns()
                    || (b.total_ns() == slot.total_ns() && b.key() < slot.key());
                if better {
                    *slot = b;
                }
            }
        }
    }
    out
}

/// One hop of a traced path: an interconnect edge into a LUT plus the
/// LUT's own logic delay.
#[derive(Debug, Clone, PartialEq)]
pub struct PathHop {
    /// The LUT computed at this hop.
    pub lut: LutId,
    /// Diagnostic name, when the LUT has one.
    pub name: Option<String>,
    /// SMB the LUT is packed into.
    pub smb: u32,
    /// What drove the critical input of this LUT.
    pub source: EdgeSource,
    /// Interconnect delay of the edge into this LUT (ns; 0 for primaries).
    pub interconnect_ns: f64,
    /// Logic delay of the LUT itself (ns).
    pub lut_ns: f64,
    /// Cumulative arrival at the LUT output (ns into the folding cycle).
    pub arrival_ns: f64,
    /// Wire-tier decomposition of the interconnect hop, when it crossed
    /// SMBs over routed wires (`None` for local/primary hops).
    pub wires: Option<SegmentBreakdown>,
}

/// One traced post-route path, worst-first within its slice.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedPath {
    /// Folding cycle the path executes in.
    pub slice: Slice,
    /// Rank within the slice (0 = worst).
    pub rank: u32,
    /// Hops from path start to endpoint.
    pub hops: Vec<PathHop>,
    /// Total path delay: sum of every hop's interconnect + logic delay,
    /// equal to the endpoint's arrival time.
    pub path_delay_ns: f64,
    /// Slack against the folding-cycle budget (`max_slice_path`): the
    /// design-wide worst path has slack 0; everything else is positive.
    pub slack_ns: f64,
}

/// K worst post-route paths per folding cycle, with the identity that
/// ties them to the headline delay.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// Traced paths, sorted worst-first across the whole design
    /// (ties broken by slice, then rank).
    pub paths: Vec<TracedPath>,
    /// Worst combinational path over all slices (ns).
    pub max_slice_path_ns: f64,
    /// Fixed per-cycle overhead: reconfiguration + clock skew (ns).
    pub overhead_ns: f64,
    /// Folding-cycle period, copied from the router's timing:
    /// `max_slice_path_ns + overhead_ns` up to the last bit.
    pub cycle_period_ns: f64,
    /// Number of folding cycles.
    pub num_slices: u32,
    /// Headline circuit delay, copied from the router's timing (the
    /// report's `routed_delay_ns`): `cycle_period_ns * num_slices`.
    pub routed_delay_ns: f64,
}

/// Traces the K worst post-route paths of every folding cycle.
///
/// Endpoints are the K LUTs with the latest arrivals in each slice; each
/// is traced backwards along its critical input edge (the argmax of
/// `upstream + hop` over all inputs, matching the forward recurrence
/// exactly), stopping at a primary input, a stored-value read or a
/// flip-flop read. Per-hop delays telescope: they sum to the endpoint
/// arrival with no residual. The arrivals and headline timing are the
/// ones `routed` kept; the wire breakdowns are computed here, on demand.
pub fn trace_critical_paths(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    routed: &RoutedDesign,
    timing: &TimingModel,
    arch: &ArchParams,
    k: usize,
) -> CriticalPathReport {
    let net = design.net;
    let arrival = |l: LutId| routed.arrivals[l.index()];
    let hop = routed_hop(design, packing, &routed.delays, timing, arch);
    let breakdowns = segment_breakdowns(&routed.graph, timing, &routed.routes);
    let max_slice_path = routed.timing.max_slice_path;

    let mut paths = Vec::new();
    for slice in design.slices() {
        // K latest-arrival endpoints, deterministically ordered.
        let mut luts: Vec<LutId> = design.luts_in(slice);
        luts.sort_by(|a, b| arrival(*b).total_cmp(&arrival(*a)).then(a.cmp(b)));
        for (rank, &endpoint) in luts.iter().take(k).enumerate() {
            let mut hops = Vec::new();
            let mut cursor = Some(endpoint);
            while let Some(id) = cursor {
                let my_smb = packing.lut_smb[&id];
                // The critical input: argmax contribution, ties broken
                // towards the earlier input (the contribution value is
                // what telescopes, so any argmax would do).
                let critical = input_edges(design, packing, &routed.arrivals, id, &hop)
                    .enumerate()
                    .max_by(|(ai, a), (bi, b)| {
                        a.contribution()
                            .total_cmp(&b.contribution())
                            .then(bi.cmp(ai))
                    })
                    .map_or(
                        InputEdge {
                            source: EdgeSource::Primary,
                            upstream_ns: 0.0,
                            hop_ns: 0.0,
                        },
                        |(_, e)| e,
                    );
                let wires = critical
                    .source
                    .smb()
                    .filter(|&s| s != my_smb)
                    .and_then(|s| breakdowns.get(&(design.slice_of(id), s, my_smb)))
                    .copied();
                hops.push(PathHop {
                    lut: id,
                    name: net.lut(id).name.clone(),
                    smb: my_smb,
                    source: critical.source,
                    interconnect_ns: critical.hop_ns,
                    lut_ns: timing.lut_delay,
                    arrival_ns: arrival(id),
                    wires,
                });
                cursor = match critical.source {
                    EdgeSource::Lut { lut, .. } => Some(lut),
                    _ => None,
                };
            }
            hops.reverse();
            let path_delay = arrival(endpoint);
            paths.push(TracedPath {
                slice,
                rank: rank as u32,
                hops,
                path_delay_ns: path_delay,
                slack_ns: max_slice_path - path_delay,
            });
        }
    }

    // Worst-first across the design; deterministic tie-break.
    paths.sort_by(|a, b| {
        b.path_delay_ns
            .total_cmp(&a.path_delay_ns)
            .then(a.slice.cmp(&b.slice))
            .then(a.rank.cmp(&b.rank))
    });

    // The period and delay are the router's, bit for bit, so the
    // artifact and the report agree; the identity holds within 1e-9.
    CriticalPathReport {
        paths,
        max_slice_path_ns: max_slice_path,
        overhead_ns: timing.reconfiguration + timing.clocking,
        cycle_period_ns: routed.timing.cycle_period,
        num_slices: design.num_slices(),
        routed_delay_ns: routed.timing.circuit_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_tier_accessor_is_consistent() {
        let mut b = SegmentBreakdown::default();
        b.add(WireType::Direct, 0.25);
        b.add(WireType::Direct, 0.25);
        b.add(WireType::Global, 1.1);
        assert_eq!(b.tier(WireType::Direct), (2, 0.5));
        assert_eq!(b.tier(WireType::Global), (1, 1.1));
        assert_eq!(b.total_hops(), 3);
        assert!((b.total_ns() - 1.6).abs() < 1e-12);
    }
}
