//! The explain artifact: one self-contained QoR attribution report.
//!
//! Everything the flow's headline numbers are made of, in one place:
//!
//! * the K worst post-route paths per folding cycle, hop by hop, with the
//!   identity `(worst_path + overhead) × num_slices = routed_delay_ns`
//!   spelled out;
//! * per-cell, per-tier routed congestion grids that reconcile exactly
//!   with the interconnect usage counters;
//! * the placement-time estimated-demand grid (RISA);
//! * per-SMB/per-cycle occupancy and per-stage NRAM-set fill.
//!
//! The artifact serializes to deterministic JSON ([`ExplainReport::to_json`])
//! and renders as ASCII heatmaps plus a top-K path listing
//! ([`ExplainReport::render_text`]). [`check_artifact`] re-validates a
//! parsed artifact's internal invariants — CI runs it on every emitted
//! file.

use nanomap_arch::{ArchParams, ChannelConfig, TimingModel, WireType};
use nanomap_observe::JsonValue;
use nanomap_pack::{OccupancyMap, Packing, Slice, SliceNets, TemporalDesign};
use nanomap_place::{estimate_demand_grid, DemandGrid, EdgeSource, Placement};
use nanomap_route::{
    tally_congestion, trace_critical_paths, CongestionGrid, CriticalPathReport, RoutedDesign,
    SegmentBreakdown, TracedPath,
};

use crate::report::UsageReport;

/// Schema tag stamped into every artifact.
pub const EXPLAIN_SCHEMA: &str = crate::artifact::versions::EXPLAIN;

/// Paths traced per folding cycle (and listed in the text report).
pub const DEFAULT_TOP_K: usize = 3;

/// QoR attribution for one finished mapping.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Circuit name.
    pub circuit: String,
    /// Placement grid dimensions (width, height).
    pub grid: (u16, u16),
    /// Physical SMBs used.
    pub num_smbs: u32,
    /// Grid position of every SMB (indexed by SMB id).
    pub smb_pos: Vec<(u16, u16)>,
    /// Traced critical paths plus the delay identity.
    pub paths: CriticalPathReport,
    /// Routed per-cell, per-tier congestion.
    pub congestion: CongestionGrid,
    /// Interconnect usage counters the congestion grid reconciles with.
    pub usage: UsageReport,
    /// Placement-time estimated wiring demand.
    pub demand: DemandGrid,
    /// Per-SMB, per-cycle resource occupancy and NRAM view.
    pub occupancy: OccupancyMap,
}

impl ExplainReport {
    /// Builds the attribution report from the flow's physical-design
    /// results.
    #[allow(clippy::too_many_arguments)] // the flow's full context is the point
    pub fn build(
        circuit: &str,
        design: &TemporalDesign<'_>,
        packing: &Packing,
        nets: &SliceNets,
        placement: &Placement,
        routed: &RoutedDesign,
        channels: &ChannelConfig,
        timing: &TimingModel,
        arch: &ArchParams,
        top_k: usize,
    ) -> Self {
        let paths = trace_critical_paths(design, packing, routed, timing, arch, top_k);
        let congestion = tally_congestion(&routed.graph, &routed.routes);
        let demand = estimate_demand_grid(placement.grid, channels, nets, &placement.pos_of);
        let occupancy = OccupancyMap::build(design, packing, arch);
        let smb_pos = placement
            .pos_of
            .iter()
            .take(packing.num_smbs as usize)
            .map(|p| (p.x, p.y))
            .collect();
        Self {
            circuit: circuit.to_string(),
            grid: (placement.grid.width, placement.grid.height),
            num_smbs: packing.num_smbs,
            smb_pos,
            paths,
            congestion,
            usage: routed.usage.into(),
            demand,
            occupancy,
        }
    }

    /// Serializes the artifact as deterministic JSON: map iteration is
    /// ordered, floats are pure functions of the mapping, and no
    /// wall-clock data is included, so same-seed runs are byte-identical.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("schema", EXPLAIN_SCHEMA)
            .with("circuit", self.circuit.as_str())
            .with(
                "grid",
                JsonValue::object()
                    .with("width", self.grid.0)
                    .with("height", self.grid.1),
            )
            .with("num_smbs", self.num_smbs)
            .with(
                "smb_pos",
                JsonValue::Array(
                    self.smb_pos
                        .iter()
                        .map(|&(x, y)| JsonValue::Array(vec![x.into(), y.into()]))
                        .collect(),
                ),
            )
            .with(
                "timing",
                JsonValue::object()
                    .with("max_slice_path_ns", self.paths.max_slice_path_ns)
                    .with("overhead_ns", self.paths.overhead_ns)
                    .with("cycle_period_ns", self.paths.cycle_period_ns)
                    .with("num_slices", self.paths.num_slices)
                    .with("routed_delay_ns", self.paths.routed_delay_ns),
            )
            .with(
                "critical_paths",
                JsonValue::Array(self.paths.paths.iter().map(path_json).collect()),
            )
            .with("congestion", congestion_json(&self.congestion))
            .with("usage", self.usage.to_json())
            .with(
                "estimated_demand",
                JsonValue::object().with("supply", self.demand.supply).with(
                    "worst_cells",
                    JsonValue::Array(
                        self.demand
                            .worst_cells()
                            .into_iter()
                            .map(Into::into)
                            .collect(),
                    ),
                ),
            )
            .with("occupancy", occupancy_json(&self.occupancy))
    }

    /// Renders the artifact as terminal text: congestion heatmap,
    /// placement-utilization heatmap, per-stage NRAM occupancy bars, and
    /// the top-K critical paths hop by hop.
    pub fn render_text(&self, top_k: usize) -> String {
        let (w, h) = (usize::from(self.grid.0), usize::from(self.grid.1));
        let mut out = String::new();
        out.push_str(&format!(
            "QoR explainability — {} ({}x{} grid, {} SMBs, {} folding cycles)\n",
            self.circuit, self.grid.0, self.grid.1, self.num_smbs, self.paths.num_slices
        ));

        // Routed congestion, all cycles and tiers combined.
        let cells: Vec<f64> = self
            .congestion
            .combined_cells()
            .into_iter()
            .map(|c| c as f64)
            .collect();
        let max = cells.iter().copied().fold(0.0, f64::max);
        out.push_str(&format!(
            "\nrouted congestion (wire nodes per cell, all cycles; max={max:.0}):\n"
        ));
        out.push_str(&ascii_heatmap(w, h, &cells, max));
        out.push_str(&format!(
            "tiers: direct {:.0}% | length1 {:.0}% | length4 {:.0}% | global {:.0}%\n",
            self.usage.fraction(WireType::Direct) * 100.0,
            self.usage.fraction(WireType::Length1) * 100.0,
            self.usage.fraction(WireType::Length4) * 100.0,
            self.usage.fraction(WireType::Global) * 100.0,
        ));

        // Placement utilization: peak LUT fill of the SMB in each cell.
        let mut fill = vec![0.0f64; w * h];
        for (smb, &(x, y)) in self.smb_pos.iter().enumerate() {
            let peak = self
                .occupancy
                .per_slice
                .values()
                .map(|o| o.luts.get(smb).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            fill[usize::from(y) * w + usize::from(x)] =
                f64::from(peak) / f64::from(self.occupancy.lut_capacity.max(1));
        }
        out.push_str("\nplacement utilization (peak LUT fill per cell):\n");
        out.push_str(&ascii_heatmap(w, h, &fill, 1.0));

        // Per-stage NRAM occupancy.
        out.push_str("\nNRAM-set occupancy per folding stage:\n");
        for (slice, f) in self.occupancy.nram_stage_fill() {
            let filled = (f * 20.0).round() as usize;
            out.push_str(&format!(
                "  {} [{}{}] {:>5.1}%\n",
                slice_label(slice),
                "#".repeat(filled.min(20)),
                "-".repeat(20 - filled.min(20)),
                f * 100.0
            ));
        }

        // Top-K critical paths.
        out.push_str(&format!("\ntop-{top_k} critical paths:\n"));
        for (i, path) in self.paths.paths.iter().take(top_k).enumerate() {
            out.push_str(&format!(
                "  #{} {} delay={:.4}ns slack={:.4}ns\n",
                i + 1,
                slice_label(path.slice),
                path.path_delay_ns,
                path.slack_ns
            ));
            for hop in &path.hops {
                out.push_str(&format!("     {}\n", hop_line(hop)));
            }
        }
        out.push_str(&format!(
            "\nidentity: ({:.4} path + {:.4} overhead) ns x {} cycles = {:.4} ns routed delay\n",
            self.paths.max_slice_path_ns,
            self.paths.overhead_ns,
            self.paths.num_slices,
            self.paths.routed_delay_ns
        ));
        out
    }

    /// Chrome trace-event "flow" arrows for the design's worst path: one
    /// flow step per hop, timestamped by arrival (nanoseconds rendered on
    /// the microsecond axis, so the path is visible at trace start).
    pub fn chrome_flow_events(&self) -> Vec<JsonValue> {
        let Some(worst) = self.paths.paths.first() else {
            return Vec::new();
        };
        let last = worst.hops.len().saturating_sub(1);
        worst
            .hops
            .iter()
            .enumerate()
            .map(|(i, hop)| {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let mut event = JsonValue::object()
                    .with("name", "critical-path")
                    .with("cat", "explain")
                    .with("ph", ph)
                    .with("id", 1)
                    .with("pid", 1)
                    .with("tid", 0)
                    .with("ts", hop.arrival_ns);
                if ph == "f" {
                    event.set("bp", "e");
                }
                event.set(
                    "args",
                    JsonValue::object()
                        .with("lut", hop.lut.to_string())
                        .with("smb", hop.smb)
                        .with("arrival_ns", hop.arrival_ns)
                        .with("interconnect_ns", hop.interconnect_ns),
                );
                event
            })
            .collect()
    }
}

/// `pX.sY` label for a slice.
fn slice_label(slice: Slice) -> String {
    format!("p{}.s{}", slice.plane, slice.stage)
}

fn hop_line(hop: &nanomap_route::PathHop) -> String {
    let name = hop
        .name
        .as_deref()
        .map(|n| format!("({n})"))
        .unwrap_or_default();
    let src = match hop.source {
        EdgeSource::Primary => "primary".to_string(),
        EdgeSource::Lut { lut, smb } => format!("{lut}@smb{smb}"),
        EdgeSource::Stored { producer, smb } => format!("stored[{producer}]@smb{smb}"),
        EdgeSource::Ff { ff, smb } => format!("{ff}@smb{smb}"),
    };
    let wires = hop.wires.as_ref().map(wire_summary).unwrap_or_default();
    format!(
        "{src} -> {}{}@smb{} +{:.4}ns wire{} +{:.4}ns lut = {:.4}ns",
        hop.lut, name, hop.smb, hop.interconnect_ns, wires, hop.lut_ns, hop.arrival_ns
    )
}

fn wire_summary(b: &SegmentBreakdown) -> String {
    let mut parts = Vec::new();
    for tier in WireType::ALL {
        let (hops, _) = b.tier(tier);
        if hops > 0 {
            parts.push(format!("{}x{}", tier.as_str(), hops));
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("({})", parts.join("+"))
    }
}

/// Density ramp for heatmaps: space = empty, `@` = the hottest cell.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `cells` (row-major, `width * height`) as a bordered ASCII
/// heatmap scaled to `max`.
fn ascii_heatmap(width: usize, height: usize, cells: &[f64], max: f64) -> String {
    let mut out = String::new();
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push_str("+\n");
    for y in 0..height {
        out.push_str("  |");
        for x in 0..width {
            let v = cells.get(y * width + x).copied().unwrap_or(0.0);
            let glyph = if max <= 0.0 || v <= 0.0 {
                RAMP[0]
            } else {
                let idx = ((v / max) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.clamp(1, RAMP.len() - 1)]
            };
            out.push(glyph as char);
        }
        out.push_str("|\n");
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push_str("+\n");
    out
}

fn slice_json(slice: Slice) -> JsonValue {
    JsonValue::object()
        .with("plane", slice.plane as u64)
        .with("stage", slice.stage)
}

fn path_json(path: &TracedPath) -> JsonValue {
    JsonValue::object()
        .with("slice", slice_json(path.slice))
        .with("rank", path.rank)
        .with("path_delay_ns", path.path_delay_ns)
        .with("slack_ns", path.slack_ns)
        .with(
            "hops",
            JsonValue::Array(
                path.hops
                    .iter()
                    .map(|hop| {
                        let source = match hop.source {
                            EdgeSource::Primary => JsonValue::object().with("kind", "primary"),
                            EdgeSource::Lut { lut, smb } => JsonValue::object()
                                .with("kind", "lut")
                                .with("lut", lut.index() as u64)
                                .with("smb", smb),
                            EdgeSource::Stored { producer, smb } => JsonValue::object()
                                .with("kind", "stored")
                                .with("producer", producer.index() as u64)
                                .with("smb", smb),
                            EdgeSource::Ff { ff, smb } => JsonValue::object()
                                .with("kind", "ff")
                                .with("ff", ff.index() as u64)
                                .with("smb", smb),
                        };
                        JsonValue::object()
                            .with("lut", hop.lut.index() as u64)
                            .with("name", hop.name.as_deref())
                            .with("smb", hop.smb)
                            .with("source", source)
                            .with("interconnect_ns", hop.interconnect_ns)
                            .with("lut_ns", hop.lut_ns)
                            .with("arrival_ns", hop.arrival_ns)
                            .with("wires", hop.wires.as_ref().map(breakdown_json))
                    })
                    .collect(),
            ),
        )
}

fn breakdown_json(b: &SegmentBreakdown) -> JsonValue {
    let mut obj = JsonValue::object();
    for tier in WireType::ALL {
        let (hops, ns) = b.tier(tier);
        obj.set(&format!("{}_hops", tier.as_str()), hops);
        obj.set(&format!("{}_ns", tier.as_str()), ns);
    }
    obj.with("switch_hops", b.switch_hops)
        .with("total_ns", b.total_ns())
}

fn counts_json(cells: &[u64]) -> JsonValue {
    JsonValue::Array(cells.iter().map(|&c| JsonValue::from(c)).collect())
}

fn congestion_json(c: &CongestionGrid) -> JsonValue {
    let totals = c.totals();
    JsonValue::object()
        .with(
            "totals",
            JsonValue::object()
                .with("direct", totals.direct)
                .with("length1", totals.length1)
                .with("length4", totals.length4)
                .with("global", totals.global)
                .with("total", totals.total()),
        )
        .with(
            "per_slice",
            JsonValue::Array(
                c.per_slice
                    .iter()
                    .map(|(&slice, tier)| {
                        JsonValue::object()
                            .with("slice", slice_json(slice))
                            .with("direct", counts_json(&tier.direct))
                            .with("length1", counts_json(&tier.length1))
                            .with("length4", counts_json(&tier.length4))
                            .with("global", counts_json(&tier.global))
                    })
                    .collect(),
            ),
        )
        .with("combined_cells", counts_json(&c.combined_cells()))
}

fn occupancy_json(o: &OccupancyMap) -> JsonValue {
    JsonValue::object()
        .with("num_smbs", o.num_smbs)
        .with("lut_capacity", o.lut_capacity)
        .with("ff_capacity", o.ff_capacity)
        .with("nram_sets_used", o.nram_sets_used())
        .with(
            "per_slice",
            JsonValue::Array(
                o.per_slice
                    .iter()
                    .map(|(&slice, occ)| {
                        JsonValue::object()
                            .with("slice", slice_json(slice))
                            .with(
                                "luts",
                                JsonValue::Array(occ.luts.iter().map(|&c| c.into()).collect()),
                            )
                            .with(
                                "ffs",
                                JsonValue::Array(occ.ffs.iter().map(|&c| c.into()).collect()),
                            )
                    })
                    .collect(),
            ),
        )
        .with(
            "nram_stage_fill",
            JsonValue::Array(
                o.nram_stage_fill()
                    .into_iter()
                    .map(|(slice, f)| {
                        JsonValue::object()
                            .with("slice", slice_json(slice))
                            .with("fill", f)
                    })
                    .collect(),
            ),
        )
}

/// Validates an explain artifact as emitted — the [`ExplainReport::to_json`]
/// document a writer is about to write, or one parsed back from disk:
/// schema tag, the per-hop delay sums, the delay identity, zero slack on
/// the worst path, and the congestion/usage reconciliation.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_artifact(doc: &JsonValue) -> Result<(), String> {
    doc.check_schema(EXPLAIN_SCHEMA)?;
    let timing = doc.field("timing")?;
    let max_slice_path: f64 = timing.req("max_slice_path_ns")?;
    let overhead: f64 = timing.req("overhead_ns")?;
    let num_slices: f64 = timing.req("num_slices")?;
    let routed: f64 = timing.req("routed_delay_ns")?;
    let rebuilt = (max_slice_path + overhead) * num_slices;
    if (rebuilt - routed).abs() > 1e-9 {
        return Err(format!(
            "delay identity broken: ({max_slice_path} + {overhead}) * {num_slices} = \
             {rebuilt} != {routed}"
        ));
    }
    for (i, path) in doc
        .req::<&[JsonValue]>("critical_paths")?
        .iter()
        .enumerate()
    {
        let claimed: f64 = path.req("path_delay_ns")?;
        let mut sum = 0.0;
        for hop in path.req::<&[JsonValue]>("hops")? {
            sum += hop.req::<f64>("interconnect_ns")? + hop.req::<f64>("lut_ns")?;
        }
        if (sum - claimed).abs() > 1e-9 {
            return Err(format!("path {i} hops sum to {sum} but claim {claimed} ns"));
        }
        if i == 0 {
            if (claimed - max_slice_path).abs() > 1e-9 {
                return Err(format!(
                    "worst path {claimed} ns != max slice path {max_slice_path} ns"
                ));
            }
            let slack: f64 = path.req("slack_ns")?;
            if slack.abs() > 1e-9 {
                return Err(format!("worst path has nonzero slack {slack}"));
            }
        }
    }
    // Congestion reconciliation, on integers: per-slice cell sums must
    // equal the totals block, and the totals must equal the usage block.
    let congestion = doc.field("congestion")?;
    let totals = congestion.field("totals")?;
    let usage = doc.field("usage")?;
    for tier in WireType::ALL {
        let name = tier.as_str();
        let total: i64 = totals.req(name)?;
        let used: i64 = usage.req(name)?;
        if total != used {
            return Err(format!(
                "congestion total {name}={total} != usage {name}={used}"
            ));
        }
        let mut summed = 0i64;
        for slice in congestion.req::<&[JsonValue]>("per_slice")? {
            summed += slice.req::<Vec<i64>>(name)?.iter().sum::<i64>();
        }
        if summed != total {
            return Err(format!(
                "per-cell {name} cells sum to {summed}, totals claim {total}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shapes_and_ramp() {
        let cells = [0.0, 1.0, 2.0, 4.0];
        let art = ascii_heatmap(2, 2, &cells, 4.0);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "  +--+");
        // Zero renders empty, the max renders the hottest glyph.
        assert!(lines[1].contains(' '));
        assert!(lines[2].ends_with("@|"));
    }

    #[test]
    fn check_rejects_wrong_schema() {
        let doc = JsonValue::object().with("schema", "bogus");
        assert!(check_artifact(&doc).is_err());
    }

    #[test]
    fn check_rejects_broken_identity() {
        let doc = JsonValue::object().with("schema", EXPLAIN_SCHEMA).with(
            "timing",
            JsonValue::object()
                .with("max_slice_path_ns", 1.0)
                .with("overhead_ns", 0.17)
                .with("num_slices", 4)
                .with("routed_delay_ns", 99.0),
        );
        let err = check_artifact(&doc).unwrap_err();
        assert!(err.contains("delay identity"), "{err}");
    }

    #[test]
    fn check_rejects_slack_on_the_worst_path() {
        let hop = JsonValue::object()
            .with("interconnect_ns", 0.25)
            .with("lut_ns", 0.75);
        let path = |slack: f64| {
            JsonValue::object()
                .with("path_delay_ns", 1.0)
                .with("slack_ns", slack)
                .with("hops", JsonValue::Array(vec![hop.clone()]))
        };
        let doc = |slack: f64| {
            JsonValue::object()
                .with("schema", EXPLAIN_SCHEMA)
                .with(
                    "timing",
                    JsonValue::object()
                        .with("max_slice_path_ns", 1.0)
                        .with("overhead_ns", 0.5)
                        .with("num_slices", 2)
                        .with("routed_delay_ns", 3.0),
                )
                .with("critical_paths", JsonValue::Array(vec![path(slack)]))
        };
        // Zero slack gets past the path checks to the congestion block.
        let err = check_artifact(&doc(0.0)).unwrap_err();
        assert!(err.contains("congestion"), "{err}");
        let err = check_artifact(&doc(0.5)).unwrap_err();
        assert!(err.contains("nonzero slack"), "{err}");
    }
}
