//! Inter-SMB nets per temporal slice.
//!
//! Placement and routing operate on the connections that leave an SMB.
//! Because hardware is time-shared, each net belongs to the slice in which
//! it is alive: combinational nets in the producer's slice, storage reads
//! in the consumer's slice, and storage/flip-flop writes in the producer's
//! slice.

use std::collections::{BTreeMap, BTreeSet};

use nanomap_netlist::SignalRef;

use crate::design::{Slice, TemporalDesign};
use crate::packer::Packing;

/// A net between SMBs in one slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceNet {
    /// Driving SMB.
    pub driver: u32,
    /// Sink SMBs (deduplicated, excluding the driver).
    pub sinks: Vec<u32>,
    /// `true` when the net is on a register-to-register critical path
    /// (used by timing-driven placement weighting).
    pub critical: bool,
}

/// All inter-SMB nets, grouped by slice.
#[derive(Debug, Clone, Default)]
pub struct SliceNets {
    /// Nets per slice.
    pub nets: BTreeMap<Slice, Vec<SliceNet>>,
}

impl SliceNets {
    /// Total number of inter-SMB nets.
    pub fn total(&self) -> usize {
        self.nets.values().map(Vec::len).sum()
    }

    /// Nets of one slice (empty slice ⇒ empty slice of nets).
    pub fn of(&self, slice: Slice) -> &[SliceNet] {
        self.nets.get(&slice).map_or(&[], Vec::as_slice)
    }
}

/// Extracts the inter-SMB nets of a packed design.
pub fn extract_nets(design: &TemporalDesign<'_>, packing: &Packing) -> SliceNets {
    // (slice, driver) -> sink set.
    let mut acc: BTreeMap<(Slice, u32), BTreeSet<u32>> = BTreeMap::new();
    let net = design.net;
    let mut add = |slice: Slice, driver: u32, sink: u32| {
        if driver != sink {
            acc.entry((slice, driver)).or_default().insert(sink);
        }
    };

    for (id, lut) in net.luts() {
        let slice = design.slice_of(id);
        let my_smb = packing.lut_smb[&id];
        for input in &lut.inputs {
            match *input {
                SignalRef::Lut(u) => {
                    let u_slice = design.slice_of(u);
                    if u_slice == slice {
                        // Combinational connection within the slice.
                        add(slice, packing.lut_smb[&u], my_smb);
                    } else {
                        // Read of a stored value: the bit lives in the
                        // storage SMB (falling back to the producer's).
                        let store = packing
                            .stored_smb
                            .get(&u)
                            .copied()
                            .unwrap_or_else(|| packing.lut_smb[&u]);
                        add(slice, store, my_smb);
                    }
                }
                SignalRef::Ff(f) => {
                    add(slice, packing.ff_smb[&f], my_smb);
                }
                SignalRef::Input(_) | SignalRef::Const(_) => {}
            }
        }
    }
    // Storage writes: producer SMB -> storage SMB in the producer's slice.
    for (&lut, &store) in &packing.stored_smb {
        let slice = design.slice_of(lut);
        add(slice, packing.lut_smb[&lut], store);
    }
    // Flip-flop writes: driver SMB -> FF SMB in the driver's slice.
    for (fid, ff) in net.ffs() {
        if let SignalRef::Lut(u) = ff.d {
            let slice = design.slice_of(u);
            add(slice, packing.lut_smb[&u], packing.ff_smb[&fid]);
        }
    }

    // Criticality: mark nets whose driver slice sits on the longest stage
    // (simple heuristic: last stage of each plane).
    let mut out = SliceNets::default();
    for ((slice, driver), sinks) in acc {
        let critical = slice.stage + 1 == design.stages;
        out.nets.entry(slice).or_default().push(SliceNet {
            driver,
            sinks: sinks.into_iter().collect(),
            critical,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::TemporalDesign;
    use crate::packer::{pack, PackOptions};
    use nanomap_arch::ArchParams;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::PlaneSet;
    use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
    use nanomap_techmap::{expand, ExpandOptions};

    #[test]
    fn nets_reference_valid_smbs_and_slices() {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let mul = b.comb("mul", CombOp::Mul { width: 8 });
        b.connect(a, 0, mul, 0).unwrap();
        b.connect(c, 0, mul, 1).unwrap();
        let r = b.register("r", 16);
        b.connect(mul, 0, r, 0).unwrap();
        let y = b.output("y", 16);
        b.connect(r, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane0 = &planes.planes()[0];
        let p = 3;
        let stages = plane0.depth.div_ceil(p);
        let graph = ItemGraph::build(&net, plane0, p).unwrap();
        let schedule = schedule_fds(&net, &graph, stages, FdsOptions::default()).unwrap();
        let design = TemporalDesign::new(&net, &planes, vec![graph], vec![schedule]).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let nets = extract_nets(&design, &packing);
        for (slice, slice_nets) in &nets.nets {
            assert!(slice.stage < design.stages);
            for n in slice_nets {
                assert!(n.driver < packing.num_smbs);
                for &s in &n.sinks {
                    assert!(s < packing.num_smbs);
                    assert_ne!(s, n.driver);
                }
            }
        }
        // A multi-SMB design must produce some nets (unless everything
        // landed in a single SMB).
        if packing.num_smbs > 1 {
            assert!(nets.total() > 0);
        }
    }
}
