//! Interconnect usage statistics.
//!
//! Section 5 of the paper observes that level-1 folding cuts global
//! interconnect usage by more than 50 % versus no-folding; these counters
//! regenerate that experiment.

use std::collections::{BTreeMap, HashMap};

use nanomap_arch::{RrGraph, WireType};
use nanomap_pack::Slice;

use crate::pathfinder::RoutedNet;

/// Wire-node usage per interconnect tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterconnectUsage {
    /// Direct-link nodes used (summed over slices).
    pub direct: u64,
    /// Length-1 nodes used.
    pub length1: u64,
    /// Length-4 nodes used.
    pub length4: u64,
    /// Global-line nodes used.
    pub global: u64,
}

impl InterconnectUsage {
    /// Total wire nodes used.
    pub fn total(&self) -> u64 {
        self.direct + self.length1 + self.length4 + self.global
    }

    /// Fraction of wire usage on the global tier.
    pub fn global_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.global as f64 / self.total() as f64
        }
    }

    /// Per-slice average usage (total divided by slice count) — the
    /// hardware-level view: how much interconnect one configuration needs.
    pub fn per_slice_total(&self, slices: u32) -> f64 {
        self.total() as f64 / f64::from(slices.max(1))
    }
}

/// Tallies wire usage over all routed slices.
pub fn tally_usage(graph: &RrGraph, routes: &HashMap<Slice, Vec<RoutedNet>>) -> InterconnectUsage {
    let mut usage = InterconnectUsage::default();
    for nets in routes.values() {
        for net in nets {
            for &node in &net.nodes {
                match graph.node(node).wire {
                    Some(WireType::Direct) => usage.direct += 1,
                    Some(WireType::Length1) => usage.length1 += 1,
                    Some(WireType::Length4) => usage.length4 += 1,
                    Some(WireType::Global) => usage.global += 1,
                    None => {}
                }
            }
        }
    }
    usage
}

/// Per-cell wire usage for one interconnect tier in one slice, row-major
/// over the placement grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierGrid {
    /// Direct-link nodes anchored at each cell.
    pub direct: Vec<u64>,
    /// Length-1 nodes anchored at each cell.
    pub length1: Vec<u64>,
    /// Length-4 nodes anchored at each cell.
    pub length4: Vec<u64>,
    /// Global-line nodes anchored at each cell.
    pub global: Vec<u64>,
}

impl TierGrid {
    fn zeroed(cells: usize) -> Self {
        Self {
            direct: vec![0; cells],
            length1: vec![0; cells],
            length4: vec![0; cells],
            global: vec![0; cells],
        }
    }

    /// All tiers summed for one cell.
    pub fn cell_total(&self, idx: usize) -> u64 {
        self.direct[idx] + self.length1[idx] + self.length4[idx] + self.global[idx]
    }

    /// Per-tier totals over every cell of this slice.
    pub fn usage(&self) -> InterconnectUsage {
        InterconnectUsage {
            direct: self.direct.iter().sum(),
            length1: self.length1.iter().sum(),
            length4: self.length4.iter().sum(),
            global: self.global.iter().sum(),
        }
    }
}

/// Per-cell, per-tier, per-slice congestion: how many wire nodes of each
/// tier each grid cell's channels carry in each folding cycle.
///
/// Every used wire node is attributed to exactly one cell (its
/// [`nanomap_arch::RrNodeKind::anchor`]), so [`CongestionGrid::totals`]
/// reconciles *exactly* with [`tally_usage`]'s counters — the heatmap and
/// the headline usage numbers cannot drift apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionGrid {
    /// Grid width in SMBs.
    pub width: u16,
    /// Grid height in SMBs.
    pub height: u16,
    /// One tier grid per routed folding cycle, in slice order.
    pub per_slice: BTreeMap<Slice, TierGrid>,
}

impl CongestionGrid {
    /// Per-tier totals summed over all slices; equal to what
    /// [`tally_usage`] reports for the same routing.
    pub fn totals(&self) -> InterconnectUsage {
        let mut total = InterconnectUsage::default();
        for tier in self.per_slice.values() {
            let u = tier.usage();
            total.direct += u.direct;
            total.length1 += u.length1;
            total.length4 += u.length4;
            total.global += u.global;
        }
        total
    }

    /// Per-cell totals summed over all slices and tiers (the combined
    /// heatmap), row-major.
    pub fn combined_cells(&self) -> Vec<u64> {
        let cells = usize::from(self.width) * usize::from(self.height);
        let mut out = vec![0u64; cells];
        for tier in self.per_slice.values() {
            for (idx, slot) in out.iter_mut().enumerate() {
                *slot += tier.cell_total(idx);
            }
        }
        out
    }
}

/// Tallies per-cell wire usage over all routed slices. Each wire node is
/// counted once, at its anchor cell.
pub fn tally_congestion(
    graph: &RrGraph,
    routes: &HashMap<Slice, Vec<RoutedNet>>,
) -> CongestionGrid {
    let grid = graph.grid();
    let cells = grid.num_slots() as usize;
    let mut per_slice = BTreeMap::new();
    for (&slice, nets) in routes {
        let tier: &mut TierGrid = per_slice
            .entry(slice)
            .or_insert_with(|| TierGrid::zeroed(cells));
        for net in nets {
            for &node in &net.nodes {
                let n = graph.node(node);
                let Some(wire) = n.wire else { continue };
                let idx = grid.index(n.kind.anchor());
                match wire {
                    WireType::Direct => tier.direct[idx] += 1,
                    WireType::Length1 => tier.length1[idx] += 1,
                    WireType::Length4 => tier.length4[idx] += 1,
                    WireType::Global => tier.global[idx] += 1,
                }
            }
        }
    }
    CongestionGrid {
        width: grid.width,
        height: grid.height,
        per_slice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::{ChannelConfig, DefectMap, Grid, SmbPos};
    use nanomap_observe::CancelToken;
    use nanomap_pack::SliceNet;

    #[test]
    fn congestion_grid_reconciles_with_usage() {
        let grid = Grid::new(4, 2);
        let graph = RrGraph::build(grid, &ChannelConfig::nature(), &DefectMap::none());
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(3, 1), SmbPos::new(1, 0)];
        let nets = vec![
            SliceNet {
                driver: 0,
                sinks: vec![1, 2],
                critical: true,
            },
            SliceNet {
                driver: 2,
                sinks: vec![1],
                critical: false,
            },
        ];
        let routed = crate::pathfinder::route_slice(
            &graph,
            &nets,
            &pos,
            crate::pathfinder::RouteOptions::default(),
            &CancelToken::unlimited(),
        )
        .unwrap()
        .into_value();
        let mut routes = HashMap::new();
        routes.insert(Slice { plane: 0, stage: 0 }, routed);
        let usage = tally_usage(&graph, &routes);
        let congestion = tally_congestion(&graph, &routes);
        assert!(usage.total() > 0, "multi-SMB nets must use wires");
        assert_eq!(congestion.totals(), usage);
        let combined: u64 = congestion.combined_cells().iter().sum();
        assert_eq!(combined, usage.total());
    }

    #[test]
    fn fractions_and_totals() {
        let u = InterconnectUsage {
            direct: 6,
            length1: 2,
            length4: 1,
            global: 1,
        };
        assert_eq!(u.total(), 10);
        assert!((u.global_fraction() - 0.1).abs() < 1e-12);
        assert!((u.per_slice_total(5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_usage_is_zero() {
        let u = InterconnectUsage::default();
        assert_eq!(u.total(), 0);
        assert_eq!(u.global_fraction(), 0.0);
    }
}
