//! Per-SMB, per-folding-cycle occupancy maps.
//!
//! The packer's raw `HashMap<(smb, slice), count>` occupancy is awkward to
//! render; this module reorganizes it into dense per-slice vectors, adds
//! capacities so fills become fractions, and derives the per-stage NRAM
//! view: every folding cycle consumes one NRAM configuration set per
//! element, so "NRAM-set occupancy of stage `s`" is the fraction of the
//! fabric that actually holds a configuration in that set.

use std::collections::BTreeMap;

use nanomap_arch::ArchParams;

use crate::design::{Slice, TemporalDesign};
use crate::packer::Packing;

/// Dense per-SMB occupancy of one folding cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceOccupancy {
    /// LUTs packed into each SMB in this cycle (indexed by SMB id).
    pub luts: Vec<u32>,
    /// Flip-flop / stored-value bits held by each SMB in this cycle.
    pub ffs: Vec<u32>,
}

impl SliceOccupancy {
    /// LUTs across every SMB in this cycle.
    pub fn total_luts(&self) -> u32 {
        self.luts.iter().sum()
    }
}

/// Per-SMB, per-slice resource occupancy with capacities attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyMap {
    /// Number of physical SMBs.
    pub num_smbs: u32,
    /// LUT capacity of one SMB.
    pub lut_capacity: u32,
    /// Flip-flop bit capacity of one SMB.
    pub ff_capacity: u32,
    /// NRAM configuration sets per element (`u32::MAX` = unbounded).
    pub nram_sets: u32,
    /// Occupancy of every folding cycle, in slice order.
    pub per_slice: BTreeMap<Slice, SliceOccupancy>,
}

impl OccupancyMap {
    /// Builds the dense occupancy map from a packing.
    pub fn build(design: &TemporalDesign<'_>, packing: &Packing, arch: &ArchParams) -> Self {
        let n = packing.num_smbs as usize;
        let mut per_slice = BTreeMap::new();
        for slice in design.slices() {
            let mut occ = SliceOccupancy {
                luts: vec![0; n],
                ffs: vec![0; n],
            };
            for smb in 0..packing.num_smbs {
                occ.luts[smb as usize] = packing
                    .lut_occupancy
                    .get(&(smb, slice))
                    .copied()
                    .unwrap_or(0);
                occ.ffs[smb as usize] = packing
                    .ff_occupancy
                    .get(&(smb, slice))
                    .copied()
                    .unwrap_or(0);
            }
            per_slice.insert(slice, occ);
        }
        Self {
            num_smbs: packing.num_smbs,
            lut_capacity: arch.luts_per_smb(),
            ff_capacity: arch.ffs_per_smb(),
            nram_sets: arch.num_reconf,
            per_slice,
        }
    }

    /// Worst single-SMB LUT fill over all cycles (1.0 = an SMB is full).
    pub fn peak_lut_fill(&self) -> f64 {
        let peak = self
            .per_slice
            .values()
            .flat_map(|o| o.luts.iter())
            .copied()
            .max()
            .unwrap_or(0);
        f64::from(peak) / f64::from(self.lut_capacity.max(1))
    }

    /// Worst single-SMB flip-flop fill over all cycles.
    pub fn peak_ff_fill(&self) -> f64 {
        let peak = self
            .per_slice
            .values()
            .flat_map(|o| o.ffs.iter())
            .copied()
            .max()
            .unwrap_or(0);
        f64::from(peak) / f64::from(self.ff_capacity.max(1))
    }

    /// NRAM configuration sets the mapping actually consumes (one per
    /// folding cycle).
    pub fn nram_sets_used(&self) -> u32 {
        self.per_slice.len() as u32
    }

    /// Per-stage NRAM-set occupancy: for each folding cycle, the fraction
    /// of the fabric's LUT slots whose configuration set is programmed.
    /// Returned in slice order.
    pub fn nram_stage_fill(&self) -> Vec<(Slice, f64)> {
        let capacity = f64::from(self.num_smbs * self.lut_capacity);
        self.per_slice
            .iter()
            .map(|(&slice, occ)| {
                let fill = if capacity == 0.0 {
                    0.0
                } else {
                    f64::from(occ.total_luts()) / capacity
                };
                (slice, fill)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn slice(stage: u32) -> Slice {
        Slice { plane: 0, stage }
    }

    #[test]
    fn fills_and_nram_view() {
        // Hand-built packing: 2 SMBs, 2 slices.
        let mut lut_occupancy = HashMap::new();
        lut_occupancy.insert((0, slice(0)), 16);
        lut_occupancy.insert((1, slice(0)), 4);
        lut_occupancy.insert((0, slice(1)), 8);
        let mut ff_occupancy = HashMap::new();
        ff_occupancy.insert((1, slice(1)), 3);
        let arch = ArchParams::paper();
        let mut per_slice = BTreeMap::new();
        for s in [slice(0), slice(1)] {
            let occ = SliceOccupancy {
                luts: (0..2)
                    .map(|smb| lut_occupancy.get(&(smb, s)).copied().unwrap_or(0))
                    .collect(),
                ffs: (0..2)
                    .map(|smb| ff_occupancy.get(&(smb, s)).copied().unwrap_or(0))
                    .collect(),
            };
            per_slice.insert(s, occ);
        }
        let map = OccupancyMap {
            num_smbs: 2,
            lut_capacity: arch.luts_per_smb(),
            ff_capacity: arch.ffs_per_smb(),
            nram_sets: arch.num_reconf,
            per_slice,
        };
        assert!((map.peak_lut_fill() - 1.0).abs() < 1e-12);
        assert!(map.peak_ff_fill() > 0.0);
        assert_eq!(map.nram_sets_used(), 2);
        let stages = map.nram_stage_fill();
        assert_eq!(stages.len(), 2);
        // Stage 0 programs 20 of 32 LUT slots; stage 1 programs 8.
        assert!((stages[0].1 - 20.0 / 32.0).abs() < 1e-12);
        assert!((stages[1].1 - 8.0 / 32.0).abs() < 1e-12);
    }
}
