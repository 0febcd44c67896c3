//! Force calculation (Eqs. 12–14).
//!
//! A force measures the change in expected resource concurrency caused by
//! a scheduling decision. The *self-force* of assigning item `i` to cycle
//! `j` collapses `i`'s probability distribution onto `j` (Eq. 13); NATURE
//! LEs hold both LUTs and flip-flops, so the self-force combines the LUT
//! and storage components as `max(LUT/h, storage/l)` (Eq. 14). Scheduling
//! `i` also clips the time frames of its predecessors and successors;
//! their induced forces are added to the total.

use crate::asap::TimeFrames;
use crate::dg::{DistributionGraphs, Lifetime, StorageOp};
use crate::item::ItemGraph;

/// Resource shape of an LE: `h` LUTs and `l` flip-flops (Eq. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeShape {
    /// LUTs per LE.
    pub luts: u32,
    /// Flip-flops per LE.
    pub ffs: u32,
}

impl Default for LeShape {
    fn default() -> Self {
        Self { luts: 1, ffs: 2 }
    }
}

/// The storage ops touching each item (as source or destination), in op
/// order. A run invariant of the FDS loop.
pub(crate) fn ops_of_item(graph: &ItemGraph, ops: &[StorageOp]) -> Vec<Vec<usize>> {
    let mut ops_of_item = vec![Vec::new(); graph.len()];
    for (k, op) in ops.iter().enumerate() {
        ops_of_item[op.src].push(k);
        for &d in &op.dests {
            ops_of_item[d].push(k);
        }
    }
    ops_of_item
}

/// Force evaluator over one snapshot of time frames and DGs. It borrows
/// everything and allocates nothing, so the FDS loop can rebuild it every
/// round for free.
#[derive(Debug)]
pub(crate) struct ForceModel<'a> {
    pub(crate) graph: &'a ItemGraph,
    pub(crate) frames: &'a TimeFrames,
    pub(crate) dgs: &'a DistributionGraphs,
    pub(crate) ops: &'a [StorageOp],
    /// [`ops_of_item`] of `graph` and `ops`.
    pub(crate) ops_of_item: &'a [Vec<usize>],
    /// Every op's lifetime under `frames`: the "before" side of each
    /// storage force.
    pub(crate) lives: &'a [Lifetime],
    pub(crate) shape: LeShape,
}

impl ForceModel<'_> {
    /// Force of changing an item's LUT distribution from frame `old` to
    /// frame `new` (Eq. 13 generalized: `Σ DG(k) · ΔDG_i(k)` with the
    /// item's weight folded into the distribution change).
    fn lut_frame_force(&self, item: usize, old: (u32, u32), new: (u32, u32)) -> f64 {
        let weight = f64::from(self.graph.items[item].weight);
        let old_p = weight / f64::from(old.1 - old.0 + 1);
        let new_p = weight / f64::from(new.1 - new.0 + 1);
        let mut force = 0.0;
        for k in new.0..=new.1 {
            force += self.dgs.lut[k as usize] * new_p;
        }
        for k in old.0..=old.1 {
            force -= self.dgs.lut[k as usize] * old_p;
        }
        force
    }

    /// LUT self-force of assigning `item` to cycle `j` (Eq. 13).
    fn lut_self_force(&self, item: usize, j: u32) -> f64 {
        self.lut_frame_force(item, self.frames.frame(item), (j, j))
    }

    /// Storage self-force of assigning `item` to cycle `j`: the change of
    /// the storage distributions of every op touching `item`, dotted with
    /// the storage DG.
    ///
    /// Only the cycles of the two lifetimes are summed: every other cycle
    /// adds an exact `+0.0` to a sum that is never `-0.0`, so the result
    /// is bit-identical to a sum over all cycles. For the ops of
    /// [`crate::storage_ops`] the tentative lifetime lies inside the
    /// current one (a pin stays inside the item's frame, and a source's
    /// ALAP never passes a destination's), so the force reads the storage
    /// DG only inside the op's current lifetime.
    fn storage_self_force(&self, item: usize, j: u32) -> f64 {
        let mut force = 0.0;
        for &k in &self.ops_of_item[item] {
            let before = &self.lives[k];
            let after = Lifetime::of(&self.ops[k], |i| {
                if i == item {
                    (j, j)
                } else {
                    self.frames.frame(i)
                }
            });
            for cycle in before.begin.min(after.begin)..=before.end.max(after.end) {
                force += self.dgs.storage[cycle as usize] * (after.at(cycle) - before.at(cycle));
            }
        }
        force
    }

    /// Combined self-force (Eq. 14): `max(LUT/h, storage/l)`.
    fn self_force(&self, item: usize, j: u32) -> f64 {
        let lut = self.lut_self_force(item, j) / f64::from(self.shape.luts);
        let storage = self.storage_self_force(item, j) / f64::from(self.shape.ffs);
        lut.max(storage)
    }

    /// Predecessor and successor forces: frame clippings induced by
    /// assigning `item` to `j`, evaluated with Eq. (13) on the LUT DG.
    fn neighbor_forces(&self, item: usize, j: u32) -> f64 {
        let mut force = 0.0;
        for &(p, lat) in &self.graph.preds[item] {
            let (a, b) = self.frames.frame(p);
            let clipped = b.min(j.saturating_sub(lat));
            if j < lat {
                // Infeasible; FDS never proposes this (j >= asap >= lat).
                continue;
            }
            if clipped < b {
                force += self.lut_frame_force(p, (a, b), (a, clipped.max(a)))
                    / f64::from(self.shape.luts);
            }
        }
        for &(s, lat) in &self.graph.succs[item] {
            let (a, b) = self.frames.frame(s);
            let clipped = a.max(j + lat);
            if clipped > a {
                force += self.lut_frame_force(s, (a, b), (clipped.min(b), b))
                    / f64::from(self.shape.luts);
            }
        }
        force
    }

    /// Total force of assigning `item` to cycle `j` (self + neighbors).
    pub(crate) fn total_force(&self, item: usize, j: u32) -> f64 {
        self.self_force(item, j) + self.neighbor_forces(item, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dg::{lifetimes, StorageWeightMode};
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::LutId;

    /// Runs `f` on a model over `frames` and the DGs they induce.
    fn with_model<R>(
        graph: &ItemGraph,
        frames: &TimeFrames,
        ops: &[StorageOp],
        shape: LeShape,
        f: impl FnOnce(&ForceModel) -> R,
    ) -> R {
        let dgs = DistributionGraphs::build(graph, frames, ops);
        let index = ops_of_item(graph, ops);
        let lives = lifetimes(ops, frames);
        f(&ForceModel {
            graph,
            frames,
            dgs: &dgs,
            ops,
            ops_of_item: &index,
            lives: &lives,
            shape,
        })
    }

    /// Two independent weight-1 items over 2 cycles plus one heavy pinned
    /// item in cycle 0: the force must push the mobile items to cycle 1.
    fn skewed_graph() -> ItemGraph {
        let mk = |i: usize, w: u32| Item {
            kind: ItemKind::Lut(LutId::new(i)),
            luts: vec![LutId::new(i)],
            weight: w,
            window: 1,
            name: format!("i{i}"),
        };
        let items = vec![mk(0, 10), mk(1, 1), mk(2, 1)];
        // Heavy item 0 is made immobile by an edge to a sink in cycle 1?
        // Simpler: no edges; we'll pin it through TimeFrames.
        ItemGraph {
            items,
            edges: vec![],
            succs: vec![Vec::new(); 3],
            preds: vec![Vec::new(); 3],
            item_of_lut: Default::default(),
            folding_level: 1,
        }
    }

    #[test]
    fn force_prefers_empty_cycle() {
        let g = skewed_graph();
        let mut pins = vec![None; 3];
        pins[0] = Some(0); // heavy item in cycle 0
        let tf = TimeFrames::compute(&g, 2, &pins).unwrap();
        let ops = crate::dg::storage_ops(
            &nanomap_netlist::LutNetwork::new("t"),
            &g,
            StorageWeightMode::ItemWeight,
        );
        // Item 1 should feel a lower force in cycle 1 than cycle 0.
        with_model(&g, &tf, &ops, LeShape::default(), |model| {
            assert!(model.total_force(1, 1) < model.total_force(1, 0));
        });
    }

    #[test]
    fn self_force_of_pinned_item_is_zero_delta() {
        let g = skewed_graph();
        let mut pins = vec![None; 3];
        pins[0] = Some(0);
        let tf = TimeFrames::compute(&g, 2, &pins).unwrap();
        // Item 0's frame is already (0,0): re-assigning it there changes
        // nothing.
        with_model(&g, &tf, &[], LeShape::default(), |model| {
            assert!(model.lut_self_force(0, 0).abs() < 1e-9);
        });
    }

    #[test]
    fn neighbor_forces_account_for_clipping() {
        // Chain 0 -> 1 (latency 1), both weight 1, 3 stages. Assigning
        // item 0 to cycle 1 clips item 1's frame [1,2] to [2,2].
        let mk = |i: usize| Item {
            kind: ItemKind::Lut(LutId::new(i)),
            luts: vec![LutId::new(i)],
            weight: 1,
            window: 1,
            name: format!("i{i}"),
        };
        let items = vec![mk(0), mk(1)];
        let edges = vec![ItemEdge {
            from: 0,
            to: 1,
            latency: 1,
        }];
        let mut succs = vec![Vec::new(); 2];
        let mut preds = vec![Vec::new(); 2];
        for e in &edges {
            succs[e.from].push((e.to, e.latency));
            preds[e.to].push((e.from, e.latency));
        }
        let g = ItemGraph {
            items,
            edges,
            succs,
            preds,
            item_of_lut: Default::default(),
            folding_level: 1,
        };
        let tf = TimeFrames::compute(&g, 3, &[None; 2]).unwrap();
        assert_eq!(tf.frame(0), (0, 1));
        assert_eq!(tf.frame(1), (1, 2));
        // Assigning 0 to cycle 1 must exert a successor force; to cycle 0
        // leaves the successor frame untouched.
        let (f_move, f_stay) = with_model(&g, &tf, &[], LeShape::default(), |model| {
            (model.neighbor_forces(0, 1), model.neighbor_forces(0, 0))
        });
        assert!(f_stay.abs() < 1e-9);
        assert!(f_move.abs() > 1e-9);
    }

    #[test]
    fn storage_component_uses_ff_capacity() {
        let g = skewed_graph();
        let tf = TimeFrames::compute(&g, 2, &[None; 3]).unwrap();
        let op = StorageOp {
            src: 1,
            dests: vec![2],
            weight: 8,
        };
        let ops = vec![op];
        // More FFs per LE shrink the storage force component.
        let storage = |ffs| {
            with_model(&g, &tf, &ops, LeShape { luts: 1, ffs }, |model| {
                model.storage_self_force(1, 0) / f64::from(ffs)
            })
        };
        let f_narrow = storage(1);
        let f_wide = storage(8);
        if f_narrow.abs() > 1e-12 {
            assert!(f_wide.abs() < f_narrow.abs());
        }
    }
}
