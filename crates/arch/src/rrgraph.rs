//! Routing-resource graph over the NATURE interconnect.
//!
//! Nodes model SMB output pins (sources), SMB input pins (sinks) and wire
//! tracks of the four interconnect tiers; edges model the programmable
//! switches between them. The PathFinder router negotiates congestion over
//! node capacities.
//!
//! Switch pattern:
//! * `Source(x,y)` drives its direct links, and every length-1/length-4
//!   track and global line passing its slot;
//! * a direct link ends in the neighbouring slot's `Sink`;
//! * wire tracks connect to `Sink`s of every slot they span;
//! * colinear tracks of the same tier connect end-to-end; horizontal and
//!   vertical tracks connect wherever they cross (full switch boxes);
//! * global lines connect to everything in their row/column, including
//!   each other at crossings.

use std::collections::HashMap;

use crate::defects::DefectMap;
use crate::grid::{Grid, SmbPos};
use crate::interconnect::{ChannelConfig, WireType};

/// Identifier of a routing-resource node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RrNodeId(pub u32);

impl RrNodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a routing-resource node models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrNodeKind {
    /// The output pin bundle of the SMB at a slot.
    Source(SmbPos),
    /// The input pin bundle of the SMB at a slot.
    Sink(SmbPos),
    /// A horizontal wire track starting at `at` and spanning `span` slots.
    HWire {
        /// Leftmost slot the track touches.
        at: SmbPos,
        /// Number of slots spanned.
        span: u16,
        /// Track index within the channel.
        track: u16,
    },
    /// A vertical wire track starting at `at` and spanning `span` slots.
    VWire {
        /// Topmost slot the track touches.
        at: SmbPos,
        /// Number of slots spanned.
        span: u16,
        /// Track index within the channel.
        track: u16,
    },
    /// A direct link from a slot toward a neighbour.
    Direct {
        /// Originating slot.
        from: SmbPos,
        /// Destination slot.
        to: SmbPos,
        /// Track index.
        track: u16,
    },
    /// A global line spanning an entire row.
    GlobalRow {
        /// Row index.
        y: u16,
        /// Track index.
        track: u16,
    },
    /// A global line spanning an entire column.
    GlobalCol {
        /// Column index.
        x: u16,
        /// Track index.
        track: u16,
    },
}

impl RrNodeKind {
    /// The single grid cell a node is attributed to in per-cell usage
    /// accounting (heatmaps): pins and direct links belong to their
    /// originating slot, segment wires to their anchor slot, and global
    /// lines to the first slot of their row/column. Attributing each node
    /// to exactly one cell keeps heatmap totals reconcilable with the
    /// per-tier usage counters.
    pub fn anchor(&self) -> SmbPos {
        match *self {
            RrNodeKind::Source(p) | RrNodeKind::Sink(p) => p,
            RrNodeKind::Direct { from, .. } => from,
            RrNodeKind::HWire { at, .. } | RrNodeKind::VWire { at, .. } => at,
            RrNodeKind::GlobalRow { y, .. } => SmbPos::new(0, y),
            RrNodeKind::GlobalCol { x, .. } => SmbPos::new(x, 0),
        }
    }
}

/// A routing-resource node.
#[derive(Debug, Clone)]
pub struct RrNode {
    /// What the node models.
    pub kind: RrNodeKind,
    /// Interconnect tier (None for sources/sinks).
    pub wire: Option<WireType>,
    /// How many nets may use the node per folding cycle.
    pub capacity: u32,
    /// Router base cost.
    pub base_cost: f64,
}

/// The routing-resource graph.
#[derive(Debug)]
pub struct RrGraph {
    grid: Grid,
    nodes: Vec<RrNode>,
    edges: Vec<Vec<RrNodeId>>,
    source_of: HashMap<SmbPos, RrNodeId>,
    sink_of: HashMap<SmbPos, RrNodeId>,
}

impl RrGraph {
    /// Builds the routing-resource graph for a grid and channel config,
    /// pruning defective resources: broken wires (direct links, segment
    /// tracks, global lines) are not created, and stuck-open switches
    /// between surviving wires are not connected. Sources and sinks always
    /// exist — a dead *slot* is a placement concern, not a routing one. A
    /// clean fabric is [`DefectMap::none`].
    pub fn build(grid: Grid, channels: &ChannelConfig, defects: &DefectMap) -> Self {
        let mut b = Builder {
            nodes: Vec::new(),
            edges: Vec::new(),
            source_of: HashMap::new(),
            sink_of: HashMap::new(),
        };
        // Sources and sinks. Pin counts are generous (intra-SMB crossbars
        // are rich); congestion lives on the wires.
        for pos in grid.iter() {
            let src = b.add(RrNode {
                kind: RrNodeKind::Source(pos),
                wire: None,
                capacity: u32::MAX,
                base_cost: 0.0,
            });
            let snk = b.add(RrNode {
                kind: RrNodeKind::Sink(pos),
                wire: None,
                capacity: u32::MAX,
                base_cost: 0.0,
            });
            b.source_of.insert(pos, src);
            b.sink_of.insert(pos, snk);
        }
        // Direct links.
        for pos in grid.iter() {
            for neighbor in grid.neighbors(pos) {
                for track in 0..channels.direct as u16 {
                    let kind = RrNodeKind::Direct {
                        from: pos,
                        to: neighbor,
                        track,
                    };
                    if defects.wire_defective(&kind) {
                        continue;
                    }
                    let wire = b.add(RrNode {
                        kind,
                        wire: Some(WireType::Direct),
                        capacity: 1,
                        base_cost: WireType::Direct.base_cost(),
                    });
                    b.connect(b.source_of[&pos], wire);
                    b.connect(wire, b.sink_of[&neighbor]);
                }
            }
        }
        // Segment wires (length-1 and length-4), both orientations.
        let mut h_wires: Vec<RrNodeId> = Vec::new();
        let mut v_wires: Vec<RrNodeId> = Vec::new();
        for (tier, span) in [(WireType::Length1, 1u16), (WireType::Length4, 4u16)] {
            for track in 0..channels.tracks(tier) as u16 {
                for y in 0..grid.height {
                    let mut x = 0;
                    while x < grid.width {
                        let span = span.min(grid.width - x);
                        let at = SmbPos::new(x, y);
                        let kind = RrNodeKind::HWire { at, span, track };
                        if defects.wire_defective(&kind) {
                            x += span;
                            continue;
                        }
                        let wire = b.add(RrNode {
                            kind,
                            wire: Some(tier),
                            capacity: 1,
                            base_cost: tier.base_cost(),
                        });
                        h_wires.push(wire);
                        for dx in 0..span {
                            let cell = SmbPos::new(x + dx, y);
                            b.connect(b.source_of[&cell], wire);
                            b.connect(wire, b.sink_of[&cell]);
                        }
                        x += span;
                    }
                }
                for x in 0..grid.width {
                    let mut y = 0;
                    while y < grid.height {
                        let span = span.min(grid.height - y);
                        let at = SmbPos::new(x, y);
                        let kind = RrNodeKind::VWire { at, span, track };
                        if defects.wire_defective(&kind) {
                            y += span;
                            continue;
                        }
                        let wire = b.add(RrNode {
                            kind,
                            wire: Some(tier),
                            capacity: 1,
                            base_cost: tier.base_cost(),
                        });
                        v_wires.push(wire);
                        for dy in 0..span {
                            let cell = SmbPos::new(x, y + dy);
                            b.connect(b.source_of[&cell], wire);
                            b.connect(wire, b.sink_of[&cell]);
                        }
                        y += span;
                    }
                }
            }
        }
        // Colinear end-to-end switches.
        let ends = |kind: &RrNodeKind| -> Option<(bool, u16, u16, u16)> {
            match *kind {
                RrNodeKind::HWire { at, span, .. } => Some((true, at.y, at.x, at.x + span - 1)),
                RrNodeKind::VWire { at, span, .. } => Some((false, at.x, at.y, at.y + span - 1)),
                _ => None,
            }
        };
        let all_wires: Vec<RrNodeId> = h_wires.iter().chain(v_wires.iter()).copied().collect();
        for (i, &a) in all_wires.iter().enumerate() {
            for &c in all_wires.iter().skip(i + 1) {
                let (ka, kc) = (b.nodes[a.index()].kind, b.nodes[c.index()].kind);
                let (Some((ha, la, sa, ea)), Some((hc, lc, sc, ec))) = (ends(&ka), ends(&kc))
                else {
                    continue;
                };
                let touching = if ha == hc && la == lc {
                    // Colinear: abutting ends.
                    ea + 1 == sc || ec + 1 == sa
                } else if ha != hc {
                    // Crossing: the H wire's row lies in the V wire's span
                    // and vice versa.
                    let (hl, hs, he, vl, vs, ve) = if ha {
                        (la, sa, ea, lc, sc, ec)
                    } else {
                        (lc, sc, ec, la, sa, ea)
                    };
                    // hl = row of H wire, vl = column of V wire.
                    (hs..=he).contains(&vl) && (vs..=ve).contains(&hl)
                } else {
                    false
                };
                if touching && !defects.switch_defective(&ka, &kc) {
                    b.connect(a, c);
                    b.connect(c, a);
                }
            }
        }
        // Global lines.
        let mut global_rows = Vec::new();
        let mut global_cols = Vec::new();
        for track in 0..channels.global as u16 {
            for y in 0..grid.height {
                let kind = RrNodeKind::GlobalRow { y, track };
                if defects.wire_defective(&kind) {
                    continue;
                }
                let wire = b.add(RrNode {
                    kind,
                    wire: Some(WireType::Global),
                    capacity: 1,
                    base_cost: WireType::Global.base_cost(),
                });
                global_rows.push((kind, wire));
                for x in 0..grid.width {
                    let cell = SmbPos::new(x, y);
                    b.connect(b.source_of[&cell], wire);
                    b.connect(wire, b.sink_of[&cell]);
                }
            }
            for x in 0..grid.width {
                let kind = RrNodeKind::GlobalCol { x, track };
                if defects.wire_defective(&kind) {
                    continue;
                }
                let wire = b.add(RrNode {
                    kind,
                    wire: Some(WireType::Global),
                    capacity: 1,
                    base_cost: WireType::Global.base_cost(),
                });
                global_cols.push((kind, wire));
                for y in 0..grid.height {
                    let cell = SmbPos::new(x, y);
                    b.connect(b.source_of[&cell], wire);
                    b.connect(wire, b.sink_of[&cell]);
                }
            }
        }
        // Global-global crossings.
        for &(rk, row) in &global_rows {
            for &(ck, col) in &global_cols {
                if defects.switch_defective(&rk, &ck) {
                    continue;
                }
                b.connect(row, col);
                b.connect(col, row);
            }
        }
        RrGraph {
            grid,
            nodes: b.nodes,
            edges: b.edges,
            source_of: b.source_of,
            sink_of: b.sink_of,
        }
    }

    /// The grid this graph was built for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node data.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: RrNodeId) -> &RrNode {
        &self.nodes[id.index()]
    }

    /// Outgoing switch targets of a node.
    pub fn neighbors(&self, id: RrNodeId) -> &[RrNodeId] {
        &self.edges[id.index()]
    }

    /// The source node of the SMB at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the grid.
    pub fn source(&self, pos: SmbPos) -> RrNodeId {
        self.source_of[&pos]
    }

    /// The sink node of the SMB at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the grid.
    pub fn sink(&self, pos: SmbPos) -> RrNodeId {
        self.sink_of[&pos]
    }

    /// Iterates `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RrNodeId, &RrNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (RrNodeId(i as u32), n))
    }
}

struct Builder {
    nodes: Vec<RrNode>,
    edges: Vec<Vec<RrNodeId>>,
    source_of: HashMap<SmbPos, RrNodeId>,
    sink_of: HashMap<SmbPos, RrNodeId>,
}

impl Builder {
    fn add(&mut self, node: RrNode) -> RrNodeId {
        let id = RrNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.edges.push(Vec::new());
        id
    }

    fn connect(&mut self, from: RrNodeId, to: RrNodeId) {
        self.edges[from.index()].push(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> RrGraph {
        RrGraph::build(
            Grid::new(4, 4),
            &ChannelConfig::nature(),
            &DefectMap::none(),
        )
    }

    #[test]
    fn sources_and_sinks_exist_per_slot() {
        let g = small_graph();
        for pos in g.grid().iter() {
            let s = g.source(pos);
            assert!(matches!(g.node(s).kind, RrNodeKind::Source(p) if p == pos));
            let k = g.sink(pos);
            assert!(matches!(g.node(k).kind, RrNodeKind::Sink(p) if p == pos));
        }
    }

    #[test]
    fn direct_links_reach_neighbors_only() {
        let g = small_graph();
        for (_, node) in g.iter() {
            if let RrNodeKind::Direct { from, to, .. } = node.kind {
                assert_eq!(from.manhattan(to), 1);
            }
        }
    }

    /// Any sink must be reachable from any source (connected fabric).
    #[test]
    fn fabric_is_fully_connected() {
        let g = small_graph();
        let start = g.source(SmbPos::new(0, 0));
        let mut seen = vec![false; g.num_nodes()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            for &m in g.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        for pos in g.grid().iter() {
            assert!(seen[g.sink(pos).index()], "sink at {pos:?} unreachable");
        }
    }

    #[test]
    fn wires_have_unit_capacity_and_tier_costs() {
        let g = small_graph();
        for (_, node) in g.iter() {
            if let Some(tier) = node.wire {
                assert_eq!(node.capacity, 1);
                assert!((node.base_cost - tier.base_cost()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn length4_wires_span_four_or_clip() {
        let g = RrGraph::build(
            Grid::new(6, 6),
            &ChannelConfig::nature(),
            &DefectMap::none(),
        );
        let mut saw_four = false;
        for (_, node) in g.iter() {
            if node.wire == Some(WireType::Length4) {
                match node.kind {
                    RrNodeKind::HWire { span, .. } | RrNodeKind::VWire { span, .. } => {
                        assert!(span == 4 || span == 2, "span {span}");
                        if span == 4 {
                            saw_four = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_four);
    }

    #[test]
    fn zero_rate_defect_map_builds_identical_graph() {
        let clean = small_graph();
        // A uniform map at rate 0 kills nothing.
        let defective = RrGraph::build(
            Grid::new(4, 4),
            &ChannelConfig::nature(),
            &DefectMap::uniform(0.0, 7),
        );
        assert_eq!(clean.num_nodes(), defective.num_nodes());
        for ((ia, a), (ib, b)) in clean.iter().zip(defective.iter()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(clean.neighbors(ia), defective.neighbors(ib));
        }
    }

    #[test]
    fn explicit_wire_defect_prunes_node() {
        let map = DefectMap::parse("hwire 0 0 0\n").unwrap();
        let g = RrGraph::build(Grid::new(4, 4), &ChannelConfig::nature(), &map);
        for (_, node) in g.iter() {
            if let RrNodeKind::HWire { at, span, track } = node.kind {
                assert!(
                    !(at == SmbPos::new(0, 0) && span == 1 && track == 0),
                    "defective wire survived pruning"
                );
            }
        }
        let clean = small_graph();
        // Exactly one length-1 H wire is gone (the length-4 track indices
        // are an independent channel, so only tier Length1 track 0 dies...
        // unless the length-4 channel also has a track-0 wire at (0,0),
        // which shares the key. The key encodes position+track only, so
        // both tiers' track-0 wires at (0,0) are pruned.)
        let missing = clean.num_nodes() - g.num_nodes();
        assert!((1..=2).contains(&missing), "pruned {missing}");
    }

    #[test]
    fn random_defects_prune_but_keep_sources_and_sinks() {
        let map = DefectMap::uniform(0.3, 1234);
        let grid = Grid::new(5, 5);
        let g = RrGraph::build(grid, &ChannelConfig::nature(), &map);
        let clean = RrGraph::build(grid, &ChannelConfig::nature(), &DefectMap::none());
        assert!(g.num_nodes() < clean.num_nodes());
        for pos in grid.iter() {
            // Lookups must not panic: every slot keeps its pins.
            let _ = g.source(pos);
            let _ = g.sink(pos);
        }
    }

    #[test]
    fn defective_builds_are_deterministic() {
        let map = DefectMap::uniform(0.15, 77);
        let grid = Grid::new(4, 4);
        let a = RrGraph::build(grid, &ChannelConfig::nature(), &map);
        let b = RrGraph::build(grid, &ChannelConfig::nature(), &map);
        assert_eq!(a.num_nodes(), b.num_nodes());
        for ((ia, na), (ib, nb)) in a.iter().zip(b.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(na.kind, nb.kind);
            assert_eq!(a.neighbors(ia), b.neighbors(ib));
        }
    }

    #[test]
    fn globals_span_full_rows_and_columns() {
        let g = small_graph();
        let mut rows = 0;
        let mut cols = 0;
        for (id, node) in g.iter() {
            match node.kind {
                RrNodeKind::GlobalRow { .. } => {
                    rows += 1;
                    // must reach all 4 sinks of its row + crossings
                    assert!(g.neighbors(id).len() >= 4);
                }
                RrNodeKind::GlobalCol { .. } => cols += 1,
                _ => {}
            }
        }
        let tracks = ChannelConfig::nature().global;
        assert_eq!(rows, 4 * tracks);
        assert_eq!(cols, 4 * tracks);
    }
}
