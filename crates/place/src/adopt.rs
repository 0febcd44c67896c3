//! Adoption of an externally computed slot assignment.
//!
//! The exact recovery rung solves slot assignment as a SAT instance and
//! hands back one slot index per SMB. This module is the trust
//! boundary between the solver and the flow: the assignment is
//! re-validated from scratch (shape, injectivity, per-cluster defect
//! legality against the *precise* active-set view) before it is turned
//! into a [`Placement`] — so a bug in the encoder or decoder, or a
//! checkpointed placement that does not fit the resumed run, surfaces
//! as a typed error here rather than as a corrupt placement deep inside
//! routing.

use nanomap_arch::{ChannelConfig, DefectMap, Grid, SlotClass, SmbPos, TimingModel};
use nanomap_pack::{Packing, SliceNets, TemporalDesign};

use crate::cost::CostWeights;
use crate::place::Placement;

/// Why an external slot assignment was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdoptError {
    /// The assignment does not give every SMB exactly one slot.
    WrongLength {
        /// SMBs in the packing.
        smbs: u32,
        /// Entries in the assignment.
        assigned: usize,
    },
    /// An assigned slot index is outside the grid.
    SlotOutOfRange {
        /// The SMB with the bad slot.
        smb: u32,
        /// The offending slot index.
        slot: u32,
        /// Slots on the grid.
        slots: u32,
    },
    /// Two SMBs were assigned the same slot.
    DuplicateSlot {
        /// First SMB.
        a: u32,
        /// Second SMB.
        b: u32,
        /// The shared slot index.
        slot: u32,
    },
    /// An SMB was assigned a slot its defects make illegal.
    IllegalSlot {
        /// The SMB.
        smb: u32,
        /// The slot's position.
        pos: SmbPos,
        /// What is wrong with the slot for this SMB.
        class: SlotClass,
    },
}

impl std::fmt::Display for AdoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongLength { smbs, assigned } => {
                write!(f, "assignment covers {assigned} SMBs, packing has {smbs}")
            }
            Self::SlotOutOfRange { smb, slot, slots } => {
                write!(f, "SMB {smb} assigned slot {slot} of a {slots}-slot grid")
            }
            Self::DuplicateSlot { a, b, slot } => {
                write!(f, "SMBs {a} and {b} both assigned slot {slot}")
            }
            Self::IllegalSlot { smb, pos, class } => {
                write!(
                    f,
                    "SMB {smb} assigned defective slot ({}, {}): {class}",
                    pos.x, pos.y
                )
            }
        }
    }
}

impl std::error::Error for AdoptError {}

/// Validates and adopts a per-SMB slot assignment, producing a
/// [`Placement`] whose cost, routability and delay are recomputed by
/// the exact same code paths the annealer's placements go through — so
/// downstream routing and timing cannot tell an adopted placement from
/// an annealed one, and same-seed runs stay byte-identical.
///
/// `required_sets[smb]` is the precise active-set list from
/// [`Packing::required_sets`]; legality is checked per SMB against it,
/// not against the conservative `num_slices` prefix.
///
/// # Errors
///
/// Returns the first shape, injectivity or legality violation as a
/// typed [`AdoptError`].
#[allow(clippy::too_many_arguments)]
pub fn adopt_assignment(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    nets: &SliceNets,
    channels: &ChannelConfig,
    timing: &TimingModel,
    weights: CostWeights,
    defects: &DefectMap,
    required_sets: &[Vec<u32>],
    grid: Grid,
    slot_of_smb: &[u32],
) -> Result<Placement, AdoptError> {
    if slot_of_smb.len() != packing.num_smbs as usize || required_sets.len() != slot_of_smb.len() {
        return Err(AdoptError::WrongLength {
            smbs: packing.num_smbs,
            assigned: slot_of_smb.len(),
        });
    }
    let slots = grid.num_slots();
    let mut owner: Vec<Option<u32>> = vec![None; slots as usize];
    let mut pos_of = Vec::with_capacity(slot_of_smb.len());
    for (smb, &slot) in slot_of_smb.iter().enumerate() {
        let smb = smb as u32;
        if slot >= slots {
            return Err(AdoptError::SlotOutOfRange { smb, slot, slots });
        }
        if let Some(a) = owner[slot as usize] {
            return Err(AdoptError::DuplicateSlot { a, b: smb, slot });
        }
        owner[slot as usize] = Some(smb);
        let pos = grid.pos(slot as usize);
        match defects.classify_slot(pos, &required_sets[smb as usize]) {
            SlotClass::Usable => pos_of.push(pos),
            class => return Err(AdoptError::IllegalSlot { smb, pos, class }),
        }
    }
    Ok(Placement::reconstruct(
        design, packing, nets, channels, timing, weights, grid, pos_of,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setup() -> (nanomap_netlist::LutNetwork, nanomap_netlist::PlaneSet) {
        use nanomap_netlist::rtl::{CombOp, RtlBuilder};
        use nanomap_techmap::{expand, ExpandOptions};
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let x = b.comb("x", CombOp::Xor { width: 4 });
        b.connect(a, 0, x, 0).unwrap();
        b.connect(c, 0, x, 1).unwrap();
        let y = b.output("y", 4);
        b.connect(x, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = nanomap_netlist::PlaneSet::extract(&net).unwrap();
        (net, planes)
    }

    #[test]
    fn adoption_validates_and_reconstructs() {
        use nanomap_arch::{ArchParams, TimingModel};
        use nanomap_pack::{extract_nets, pack, PackOptions, TemporalDesign};
        use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};

        let (net, planes) = tiny_setup();
        let plane0 = &planes.planes()[0];
        let graph = ItemGraph::build(&net, plane0, plane0.depth).unwrap();
        let schedule = schedule_fds(&net, &graph, 1, FdsOptions::default()).unwrap();
        let design = TemporalDesign::new(&net, &planes, vec![graph], vec![schedule]).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let nets = extract_nets(&design, &packing);
        let required = packing.required_sets(&design);
        let grid = Grid::new(2, 2);
        let channels = ChannelConfig::nature();
        let timing = TimingModel::nature_100nm();
        let n = packing.num_smbs as usize;
        assert!(n <= 4, "test design outgrew the 2x2 grid");

        let mut defects = DefectMap::none();
        defects.kill_slot(SmbPos::new(0, 0));

        // A legal assignment avoiding the dead slot 0 adopts cleanly.
        let good: Vec<u32> = (1..=n as u32).collect();
        let placed = adopt_assignment(
            &design,
            &packing,
            &nets,
            &channels,
            &timing,
            CostWeights::default(),
            &defects,
            &required,
            grid,
            &good,
        )
        .expect("legal assignment adopts");
        assert_eq!(placed.pos_of.len(), n);
        assert!(placed.pos_of.iter().all(|&p| p != SmbPos::new(0, 0)));

        // The dead slot is rejected with its classification.
        let bad: Vec<u32> = (0..n as u32).collect();
        let err = adopt_assignment(
            &design,
            &packing,
            &nets,
            &channels,
            &timing,
            CostWeights::default(),
            &defects,
            &required,
            grid,
            &bad,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AdoptError::IllegalSlot {
                smb: 0,
                class: SlotClass::DeadSlot,
                ..
            }
        ));

        // Duplicates and out-of-range slots are typed errors too.
        if n >= 2 {
            let dup = vec![1u32; n];
            assert!(matches!(
                adopt_assignment(
                    &design,
                    &packing,
                    &nets,
                    &channels,
                    &timing,
                    CostWeights::default(),
                    &defects,
                    &required,
                    grid,
                    &dup,
                ),
                Err(AdoptError::DuplicateSlot { slot: 1, .. })
            ));
        }
        let oob = vec![99u32; n];
        assert!(matches!(
            adopt_assignment(
                &design,
                &packing,
                &nets,
                &channels,
                &timing,
                CostWeights::default(),
                &defects,
                &required,
                grid,
                &oob,
            ),
            Err(AdoptError::SlotOutOfRange { slot: 99, .. })
        ));
        assert!(matches!(
            adopt_assignment(
                &design,
                &packing,
                &nets,
                &channels,
                &timing,
                CostWeights::default(),
                &defects,
                &required,
                grid,
                &good[..n - 1],
            ),
            Err(AdoptError::WrongLength { .. })
        ));
        // Too long reports the assignment's own length.
        let long: Vec<u32> = (1..=n as u32 + 1).collect();
        let err = adopt_assignment(
            &design,
            &packing,
            &nets,
            &channels,
            &timing,
            CostWeights::default(),
            &defects,
            &required,
            grid,
            &long,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AdoptError::WrongLength {
                smbs: n as u32,
                assigned: n + 1,
            }
        );
        assert_eq!(
            err.to_string(),
            format!("assignment covers {} SMBs, packing has {n}", n + 1)
        );
    }
}
