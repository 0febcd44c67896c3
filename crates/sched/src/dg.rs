//! Distribution graphs (Eqs. 5–11) and storage operations.
//!
//! Two DGs drive force-directed scheduling: the **LUT computation DG**
//! (Eq. 5) aggregating the probability that LUT work lands in each folding
//! cycle, and the **register storage DG** (Eqs. 6–11) aggregating the
//! probability that a stored bit is live in each cycle.

use std::collections::BTreeSet;

use crate::asap::TimeFrames;
use crate::item::ItemGraph;

/// How the bit width of a storage operation is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageWeightMode {
    /// `weight_i` of the producing item, as written in the paper
    /// (Eqs. 9–10 reuse the LUT weight).
    #[default]
    ItemWeight,
    /// The number of member LUT outputs actually consumed outside the
    /// item — a refinement; exposed for the ablation study.
    BoundaryOutputs,
}

/// A storage operation: the output of `src` is transferred to the
/// `dests` (Section 4.2.1, Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageOp {
    /// Producing item.
    pub src: usize,
    /// Consuming items (deduplicated).
    pub dests: Vec<usize>,
    /// Bits stored.
    pub weight: u32,
}

/// Builds the storage operations of a plane's item graph.
pub fn storage_ops(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    mode: StorageWeightMode,
) -> Vec<StorageOp> {
    // The fanout table spans the whole network: build it once, and only
    // for the mode that reads it.
    let fanouts = (mode == StorageWeightMode::BoundaryOutputs).then(|| net.fanouts());
    let mut ops = Vec::new();
    for (src, item) in graph.items.iter().enumerate() {
        let dests: BTreeSet<usize> = graph.succs[src].iter().map(|&(d, _)| d).collect();
        if dests.is_empty() {
            continue;
        }
        let weight = match &fanouts {
            None => item.weight,
            Some(fanouts) => {
                // Count member LUTs with at least one consumer outside the
                // item (another plane item).
                let member: BTreeSet<_> = item.luts.iter().copied().collect();
                item.luts
                    .iter()
                    .filter(|&&l| {
                        fanouts.lut_to_luts[l.index()]
                            .iter()
                            .any(|c| !member.contains(c) && graph.item_of_lut.contains_key(c))
                    })
                    .count() as u32
            }
        };
        ops.push(StorageOp {
            src,
            dests: dests.into_iter().collect(),
            weight: weight.max(1),
        });
    }
    ops
}

/// The two distribution graphs over the folding cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionGraphs {
    /// `LUT_DG(j)` of Eq. (5).
    pub lut: Vec<f64>,
    /// `storage_DG(j)` of Eq. (11).
    pub storage: Vec<f64>,
}

impl DistributionGraphs {
    /// Builds both DGs from the current time frames.
    pub fn build(graph: &ItemGraph, frames: &TimeFrames, ops: &[StorageOp]) -> Self {
        let mut dgs = Self {
            lut: Vec::new(),
            storage: Vec::new(),
        };
        dgs.rebuild(graph, frames, &lifetimes(ops, frames));
        dgs
    }

    /// Rebuilds both DGs in place from scratch, summing in item and op
    /// order, so the result is bit-identical to [`Self::build`] over the
    /// same frames. `lives` holds every op's lifetime under `frames`.
    pub(crate) fn rebuild(&mut self, graph: &ItemGraph, frames: &TimeFrames, lives: &[Lifetime]) {
        let stages = frames.stages as usize;
        self.lut.clear();
        self.lut.resize(stages, 0.0);
        for (i, item) in graph.items.iter().enumerate() {
            let (a, b) = frames.frame(i);
            let p = f64::from(item.weight) / f64::from(frames.frame_len(i));
            for slot in self.lut.iter_mut().take(b as usize + 1).skip(a as usize) {
                *slot += p;
            }
        }
        self.storage.clear();
        self.storage.resize(stages, 0.0);
        for life in lives {
            life.add_to(&mut self.storage);
        }
    }

    /// The storage distribution contributed by a single op, optionally with
    /// one item tentatively pinned to a cycle.
    pub fn storage_distribution_of(
        frames: &TimeFrames,
        op: &StorageOp,
        tentative: Option<(usize, u32)>,
    ) -> Vec<f64> {
        let mut dist = vec![0.0; frames.stages as usize];
        Lifetime::of(op, |i| match tentative {
            Some((t, c)) if t == i => (c, c),
            _ => frames.frame(i),
        })
        .add_to(&mut dist);
        dist
    }
}

/// Every op's lifetime under `frames`, in op order.
pub(crate) fn lifetimes(ops: &[StorageOp], frames: &TimeFrames) -> Vec<Lifetime> {
    ops.iter()
        .map(|op| Lifetime::of(op, |i| frames.frame(i)))
        .collect()
}

/// The storage lifetime of one op under some time frames (Fig. 4), and
/// its expected live bits per cycle: Eqs. (6)–(10), the one copy shared
/// by the storage DG and the storage force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Lifetime {
    /// First cycle of the maximum lifetime (Eq. 6).
    pub(crate) begin: u32,
    /// Last cycle of the maximum lifetime (Eq. 6).
    pub(crate) end: u32,
    /// Overlap of the ASAP and ALAP lifetimes (Eq. 7); empty when
    /// `overlap.0 > overlap.1`.
    overlap: (u32, u32),
    /// Live bits inside the overlap (Eq. 10).
    certain: f64,
    /// Live bits elsewhere in the maximum lifetime (Eq. 9).
    likely: f64,
}

impl Lifetime {
    /// The lifetime of `op` with each member item's frame read from
    /// `frame`.
    pub(crate) fn of(op: &StorageOp, frame: impl Fn(usize) -> (u32, u32)) -> Self {
        let (src_asap, src_alap) = frame(op.src);
        // The last destination cycle; `storage_ops` never emits an op
        // without destinations.
        let (dest_end_asap, dest_end_alap) = op.dests.iter().fold((0, 0), |(asap, alap), &d| {
            let (a, b) = frame(d);
            (asap.max(a), alap.max(b))
        });

        // Lifetimes (Fig. 4): begin at the source cycle, end at the last
        // destination cycle.
        let asap_len = f64::from(dest_end_asap.saturating_sub(src_asap) + 1);
        let alap_len = f64::from(dest_end_alap.saturating_sub(src_alap) + 1);
        // Eq. (6).
        let begin = src_asap;
        let end = dest_end_alap.max(src_asap);
        let max_len = f64::from(end - begin + 1);
        // Eq. (7): overlap of ASAP_life and ALAP_life.
        let overlap = (src_alap, dest_end_asap);
        let overlap_len = if overlap.1 >= overlap.0 {
            f64::from(overlap.1 - overlap.0 + 1)
        } else {
            0.0
        };
        // Eq. (8).
        let avg_life = (asap_len + alap_len + max_len) / 3.0;

        let weight = f64::from(op.weight);
        // Eq. (9).
        let likely = if max_len > overlap_len {
            weight * (avg_life - overlap_len) / (max_len - overlap_len)
        } else {
            0.0
        };
        Self {
            begin,
            end,
            overlap,
            // Eq. (10): a bit is certainly live in the overlap.
            certain: weight,
            likely: likely.max(0.0),
        }
    }

    /// Expected live bits in cycle `j`; zero outside the lifetime.
    pub(crate) fn at(&self, j: u32) -> f64 {
        if j < self.begin || j > self.end {
            0.0
        } else if (self.overlap.0..=self.overlap.1).contains(&j) {
            self.certain
        } else {
            self.likely
        }
    }

    /// Adds the distribution to `acc`, cycle by cycle.
    fn add_to(&self, acc: &mut [f64]) {
        for j in self.begin..=self.end {
            acc[j as usize] += self.at(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::LutId;

    /// Builds the paper's Fig. 3 example: LUT1, LUT2, LUT3, LUT4 and
    /// clusters clus1..clus3 with dependencies chosen so LUT2's time frame
    /// is [1,3] (1-based), matching the text.
    ///
    /// Structure (1-based cycles, 3 stages):
    /// chain clus1 -> clus2 -> clus3 pins the critical path;
    /// LUT1 -> LUT3 (LUT3 feeds nothing); LUT2 free-ish feeding LUT4.
    fn fig3_graph() -> ItemGraph {
        let mk = |i: usize, w: u32, name: &str| Item {
            kind: ItemKind::Lut(LutId::new(i)),
            luts: vec![LutId::new(i)],
            weight: w,
            window: 1,
            name: name.into(),
        };
        // 0: LUT1, 1: LUT2, 2: LUT3, 3: LUT4, 4: clus1, 5: clus2, 6: clus3.
        let items = vec![
            mk(0, 1, "LUT1"),
            mk(1, 1, "LUT2"),
            mk(2, 1, "LUT3"),
            mk(3, 1, "LUT4"),
            mk(4, 10, "clus1"),
            mk(5, 10, "clus2"),
            mk(6, 10, "clus3"),
        ];
        let edges = vec![
            ItemEdge {
                from: 4,
                to: 5,
                latency: 1,
            },
            ItemEdge {
                from: 5,
                to: 6,
                latency: 1,
            },
            ItemEdge {
                from: 0,
                to: 2,
                latency: 1,
            },
            // LUT2 feeds LUT3 and LUT4 (storage example of Fig. 4).
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 3,
                latency: 1,
            },
        ];
        let mut succs = vec![Vec::new(); items.len()];
        let mut preds = vec![Vec::new(); items.len()];
        for e in &edges {
            succs[e.from].push((e.to, e.latency));
            preds[e.to].push((e.from, e.latency));
        }
        ItemGraph {
            items,
            edges,
            succs,
            preds,
            item_of_lut: Default::default(),
            folding_level: 1,
        }
    }

    #[test]
    fn lut_dg_sums_to_total_weight() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        let dgs = DistributionGraphs::build(&g, &tf, &[]);
        let total: f64 = dgs.lut.iter().sum();
        assert!((total - f64::from(g.total_weight())).abs() < 1e-9);
    }

    #[test]
    fn critical_chain_concentrates_dg() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        let dgs = DistributionGraphs::build(&g, &tf, &[]);
        // clus1..3 are pinned to cycles 0,1,2 with weight 10 each.
        for j in 0..3 {
            assert!(dgs.lut[j] >= 10.0);
        }
    }

    /// The Fig. 4 example: storage S from LUT2 to LUT3/LUT4.
    /// With 3 stages: LUT2 frame [0,1] (0-based; it must precede LUT3
    /// [1,2]... here LUT3 has no successors so frames are wide).
    #[test]
    fn storage_lifetime_math_matches_eq6_to_eq8() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        // LUT2 = item 1: frame [0, 1]; LUT3 = item 2: frame [1, 2];
        // LUT4 = item 3: frame [1, 2].
        assert_eq!(tf.frame(1), (0, 1));
        assert_eq!(tf.frame(2), (1, 2));
        assert_eq!(tf.frame(3), (1, 2));
        let ops = [StorageOp {
            src: 1,
            dests: vec![2, 3],
            weight: 1,
        }];
        // ASAP life = [0, 1] len 2; ALAP life = [1, 2] len 2;
        // max life = [0, 2] len 3; overlap = [1, 1] len 1;
        // avg = (2 + 2 + 3) / 3 = 7/3.
        let dist = DistributionGraphs::storage_distribution_of(&tf, &ops[0], None);
        // Overlap cycle 1 gets full weight.
        assert!((dist[1] - 1.0).abs() < 1e-9);
        // Cycles 0 and 2: (avg - ov)/(max - ov) = (7/3 - 1)/2 = 2/3.
        assert!((dist[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((dist[2] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fully_scheduled_storage_is_exact() {
        let g = fig3_graph();
        let mut pins = vec![None; g.len()];
        pins[1] = Some(0);
        pins[2] = Some(2);
        pins[3] = Some(1);
        let tf = TimeFrames::compute(&g, 3, &pins).unwrap();
        let op = StorageOp {
            src: 1,
            dests: vec![2, 3],
            weight: 4,
        };
        let dist = DistributionGraphs::storage_distribution_of(&tf, &op, None);
        // Live cycles 0..=2 (src 0, last dest 2), weight 4 each.
        assert_eq!(dist, vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn tentative_pin_changes_distribution() {
        let g = fig3_graph();
        let tf = TimeFrames::compute(&g, 3, &vec![None; g.len()]).unwrap();
        let op = StorageOp {
            src: 1,
            dests: vec![2, 3],
            weight: 1,
        };
        let free = DistributionGraphs::storage_distribution_of(&tf, &op, None);
        let pinned = DistributionGraphs::storage_distribution_of(&tf, &op, Some((1, 1)));
        assert_ne!(free, pinned);
        // Pinning the source to cycle 1 removes any cycle-0 storage.
        assert!(pinned[0].abs() < 1e-9);
    }

    /// The ops of c5315 (single-LUT items, where both weight modes agree)
    /// and FIR (module clusters, where they differ) at every candidate
    /// folding level, fingerprinted in both weight modes. The values are
    /// pinned from the implementation that rebuilt the fanout table once
    /// per item.
    #[test]
    fn storage_ops_are_pinned_in_both_modes() {
        let fingerprint = |net: &nanomap_netlist::LutNetwork, mode| {
            let planes = nanomap_netlist::PlaneSet::extract(net).unwrap();
            let mut hash = nanomap_observe::Fnv1a::new();
            for config in nanomap::candidate_configs(&planes, u32::MAX) {
                let Some(level) = config.level else {
                    continue;
                };
                for plane in planes.planes() {
                    let graph = ItemGraph::build(net, plane, level).unwrap();
                    for op in storage_ops(net, &graph, mode) {
                        hash.u64(op.src as u64).u64(u64::from(op.weight));
                        for d in op.dests {
                            hash.u64(d as u64);
                        }
                        hash.byte(0xFF);
                    }
                }
            }
            hash.finish()
        };
        let pinned = [
            ("FIR", 0x73e1_081d_2721_b004, 0xbc9a_28dd_c232_bed8),
            ("c5315", 0xc6aa_4fe8_64ad_bfef, 0xc6aa_4fe8_64ad_bfef),
        ];
        for bench in nanomap_bench::circuits::paper_benchmarks() {
            let Some(&(_, item_weight, boundary)) = pinned.iter().find(|p| p.0 == bench.name)
            else {
                continue;
            };
            let net = &bench.network;
            assert_eq!(
                fingerprint(net, StorageWeightMode::ItemWeight),
                item_weight,
                "{}",
                bench.name
            );
            assert_eq!(
                fingerprint(net, StorageWeightMode::BoundaryOutputs),
                boundary,
                "{}",
                bench.name
            );
        }
    }

    #[test]
    fn storage_ops_dedupe_destinations() {
        let g = fig3_graph();
        // Build a trivial net (storage_ops only uses fanouts for the
        // refined mode; ItemWeight mode ignores it).
        let net = nanomap_netlist::LutNetwork::new("t");
        let ops = storage_ops(&net, &g, StorageWeightMode::ItemWeight);
        let lut2_op = ops.iter().find(|o| o.src == 1).unwrap();
        assert_eq!(lut2_op.dests, vec![2, 3]);
        assert_eq!(lut2_op.weight, 1);
        // Sinks produce no ops.
        assert!(!ops.iter().any(|o| o.src == 6));
    }
}
