//! The temporal design: all planes' schedules stitched together.

use nanomap_netlist::{LutId, LutNetwork, PlaneSet};
use nanomap_sched::{ItemGraph, Schedule};

use crate::error::PackError;

/// One temporal slice: a `(plane, folding stage)` pair. Slices execute in
/// lexicographic order and share the same physical hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slice {
    /// Plane index.
    pub plane: usize,
    /// Folding stage within the plane (0-based).
    pub stage: u32,
}

/// A fully scheduled multi-plane design, ready for temporal clustering.
#[derive(Debug)]
pub struct TemporalDesign<'a> {
    /// The mapped network.
    pub net: &'a LutNetwork,
    /// The plane decomposition.
    pub planes: &'a PlaneSet,
    /// Per-plane item graphs.
    pub graphs: Vec<ItemGraph>,
    /// Per-plane schedules (same stage count each).
    pub schedules: Vec<Schedule>,
    /// Folding stages per plane.
    pub stages: u32,
    /// Slice of every LUT, indexed by [`LutId::index`].
    slice_of_lut: Vec<Slice>,
}

impl<'a> TemporalDesign<'a> {
    /// Assembles and validates a temporal design.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of graphs/schedules does not match
    /// the planes, the stage counts disagree, a schedule violates its
    /// item graph, or the item graphs do not cover every LUT of `net`.
    pub fn new(
        net: &'a LutNetwork,
        planes: &'a PlaneSet,
        graphs: Vec<ItemGraph>,
        schedules: Vec<Schedule>,
    ) -> Result<Self, PackError> {
        if graphs.len() != planes.num_planes() || schedules.len() != planes.num_planes() {
            return Err(PackError::Inconsistent(format!(
                "{} planes but {} graphs / {} schedules",
                planes.num_planes(),
                graphs.len(),
                schedules.len()
            )));
        }
        let stages = schedules.first().map_or(1, |s| s.stages);
        for (p, (g, s)) in graphs.iter().zip(&schedules).enumerate() {
            if s.stages != stages {
                return Err(PackError::Inconsistent(format!(
                    "plane {p} has {} stages, expected {stages}",
                    s.stages
                )));
            }
            if !s.validate(g) {
                return Err(PackError::InvalidSchedule { plane: p });
            }
        }
        let mut slice_of_lut = vec![None; net.num_luts()];
        for (p, g) in graphs.iter().enumerate() {
            for (i, item) in g.items.iter().enumerate() {
                let stage = schedules[p].stage_of[i];
                for &lut in &item.luts {
                    let Some(slot) = slice_of_lut.get_mut(lut.index()) else {
                        return Err(PackError::Inconsistent(format!(
                            "plane {p} schedules {lut}, which is not in the network"
                        )));
                    };
                    *slot = Some(Slice { plane: p, stage });
                }
            }
        }
        let slice_of_lut = slice_of_lut
            .into_iter()
            .enumerate()
            .map(|(l, slice)| {
                slice.ok_or_else(|| {
                    PackError::Inconsistent(format!(
                        "{} is in no plane's item graph",
                        LutId::new(l)
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            net,
            planes,
            graphs,
            schedules,
            stages,
            slice_of_lut,
        })
    }

    /// The slice a LUT executes in.
    ///
    /// # Panics
    ///
    /// Panics if the LUT is not part of the network.
    pub fn slice_of(&self, lut: LutId) -> Slice {
        self.slice_of_lut[lut.index()]
    }

    /// All slices in execution order.
    pub fn slices(&self) -> Vec<Slice> {
        let mut out = Vec::new();
        for plane in 0..self.planes.num_planes() {
            for stage in 0..self.stages {
                out.push(Slice { plane, stage });
            }
        }
        out
    }

    /// Total number of temporal slices (`num_planes * stages`) — the
    /// number of NRAM configuration sets the mapping consumes.
    pub fn num_slices(&self) -> u32 {
        self.planes.num_planes() as u32 * self.stages
    }

    /// NRAM configuration-set index of a slice: its position in
    /// execution order. Slot assignment uses this to ask the defect map
    /// about exactly the sets an SMB's occupants exercise.
    pub fn set_index(&self, slice: Slice) -> u32 {
        slice.plane as u32 * self.stages + slice.stage
    }

    /// LUTs of one slice.
    pub fn luts_in(&self, slice: Slice) -> Vec<LutId> {
        let g = &self.graphs[slice.plane];
        let s = &self.schedules[slice.plane];
        let mut out = Vec::new();
        for (i, item) in g.items.iter().enumerate() {
            if s.stage_of[i] == slice.stage {
                out.extend(item.luts.iter().copied());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_sched::{schedule_fds, FdsOptions};
    use nanomap_techmap::{expand, ExpandOptions};

    pub(crate) fn adder_design() -> (LutNetwork, PlaneSet) {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: 4 });
        b.connect(a, 0, add, 0).unwrap();
        b.connect(c, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let y = b.output("y", 4);
        b.connect(add, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        (net, planes)
    }

    #[test]
    fn assembles_single_plane_design() {
        let (net, planes) = adder_design();
        let graph = ItemGraph::build(&net, &planes.planes()[0], 2).unwrap();
        let schedule = schedule_fds(&net, &graph, 2, FdsOptions::default()).unwrap();
        let design = TemporalDesign::new(&net, &planes, vec![graph], vec![schedule]).unwrap();
        assert_eq!(design.num_slices(), 2);
        let all: usize = design
            .slices()
            .iter()
            .map(|&s| design.luts_in(s).len())
            .sum();
        assert_eq!(all, net.num_luts());
        for (id, _) in net.luts() {
            let slice = design.slice_of(id);
            assert!(design.luts_in(slice).contains(&id));
        }
    }

    #[test]
    fn mismatched_counts_rejected() {
        let (net, planes) = adder_design();
        let err = TemporalDesign::new(&net, &planes, vec![], vec![]).unwrap_err();
        assert!(matches!(err, PackError::Inconsistent(_)));
    }

    #[test]
    fn uncovered_lut_rejected() {
        let (net, planes) = adder_design();
        let graph = ItemGraph::build(&net, &planes.planes()[0], 2).unwrap();
        let schedule = schedule_fds(&net, &graph, 2, FdsOptions::default()).unwrap();
        // A LUT the planes (and so the item graphs) never saw.
        let mut grown = net.clone();
        let x = grown.add_input("x");
        grown.add_lut(nanomap_netlist::TruthTable::buffer(), vec![x]);
        let err = TemporalDesign::new(&grown, &planes, vec![graph], vec![schedule]).unwrap_err();
        assert!(matches!(err, PackError::Inconsistent(_)), "{err}");
    }

    #[test]
    fn invalid_schedule_rejected() {
        let (net, planes) = adder_design();
        let graph = ItemGraph::build(&net, &planes.planes()[0], 1).unwrap();
        // Force an invalid schedule: everything in stage 0 despite chains.
        let bad = Schedule::new(vec![0; graph.len()], 4);
        let err = TemporalDesign::new(&net, &planes, vec![graph], vec![bad]).unwrap_err();
        assert_eq!(err, PackError::InvalidSchedule { plane: 0 });
    }
}
