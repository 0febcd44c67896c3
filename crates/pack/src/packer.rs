//! Constructive temporal clustering (Section 4.3).
//!
//! Packs each temporal slice's LUTs into SMBs. Seeds are chosen as in
//! T-VPack (the LUT using the most inputs, preferring large clusters);
//! candidates join the SMB with the highest *attraction*, a mix of timing
//! criticality and pin sharing. Because folding makes several slices share
//! one physical SMB, attraction also counts connectivity in *other*
//! slices — the attraction of a LUT pair is the maximum over all cycles
//! (Fig. 6(a)).
//!
//! After LUT packing, stored LUT outputs (values crossing folding cycles)
//! and architectural flip-flops are placed into SMB flip-flop capacity,
//! preferring the producer's SMB so cross-cycle reads stay local.
//!
//! LUT packing works on dense state: every per-LUT table is a `Vec`
//! indexed by [`LutId::index`], and the neighbour lists are one CSR
//! table built once per pack. Slices are packed one after another, and
//! the member lists follow one invariant: while slice `s` is packed,
//! `members[smb]` holds exactly the LUTs of `s` assigned to `smb`, in
//! assignment order. That is the `(smb, s)` member list. A member's
//! position is its LE slot and the list's length is the `(smb, s)` LUT
//! occupancy. `assign` is the only writer, and the lists are cleared
//! before the next slice starts. Shared-input attraction therefore
//! scans one SMB's members in the live slice, not every LUT packed so
//! far. The [`Packing`] maps are filled from this state at the end.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use nanomap_arch::ArchParams;
use nanomap_netlist::{FfId, LutId, SignalRef};
use nanomap_observe::Extent;

use crate::design::{Slice, TemporalDesign};
use crate::error::PackError;

/// Tuning knobs for the packer.
#[derive(Debug, Clone, Copy)]
pub struct PackOptions {
    /// Weight of same-cycle direct connections.
    pub w_direct: f64,
    /// Weight of shared input signals.
    pub w_shared: f64,
    /// Weight of cross-cycle (temporal) connectivity.
    pub w_temporal: f64,
    /// Weight of timing criticality (inverse mobility).
    pub w_crit: f64,
    /// Disable the temporal term (for the ablation study).
    pub temporal_attraction: bool,
}

impl Default for PackOptions {
    fn default() -> Self {
        Self {
            w_direct: 2.0,
            w_shared: 1.0,
            w_temporal: 1.5,
            w_crit: 0.5,
            temporal_attraction: true,
        }
    }
}

/// The result of temporal clustering.
#[derive(Debug, Clone)]
pub struct Packing {
    /// Number of physical SMBs used.
    pub num_smbs: u32,
    /// Physical SMB of every LUT.
    pub lut_smb: HashMap<LutId, u32>,
    /// LE slot (within its SMB) of every LUT.
    pub lut_le: HashMap<LutId, u32>,
    /// SMB holding the stored output of a LUT whose value crosses folding
    /// cycles (key = producer LUT).
    pub stored_smb: HashMap<LutId, u32>,
    /// SMB of every architectural flip-flop.
    pub ff_smb: HashMap<FfId, u32>,
    /// LUT occupancy per SMB per slice.
    pub lut_occupancy: HashMap<(u32, Slice), u32>,
    /// Flip-flop bit occupancy per SMB per slice.
    pub ff_occupancy: HashMap<(u32, Slice), u32>,
}

impl Packing {
    /// Peak LE usage over slices: for each slice, every SMB needs
    /// `max(luts, ceil(ffs / ffs_per_le))` LEs.
    pub fn les_used(&self, arch: &ArchParams, design: &TemporalDesign<'_>) -> u32 {
        design
            .slices()
            .iter()
            .map(|&slice| {
                (0..self.num_smbs)
                    .map(|smb| {
                        let luts = self.lut_occupancy.get(&(smb, slice)).copied().unwrap_or(0);
                        let ffs = self.ff_occupancy.get(&(smb, slice)).copied().unwrap_or(0);
                        luts.max(ffs.div_ceil(arch.ffs_per_le))
                    })
                    .sum::<u32>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Per-SMB NRAM configuration sets the cluster actually exercises:
    /// the sorted [`TemporalDesign::set_index`] of every slice where the
    /// SMB holds a LUT, a stored value or a flip-flop bit. Stored values
    /// and architectural flip-flops are already expanded into
    /// [`Self::ff_occupancy`] over their full hold intervals, so the
    /// occupancy maps are a complete activity record.
    ///
    /// This is the *precise* legality view: the heuristic placer asks
    /// the defect map for the conservative prefix `0..num_slices`, while
    /// exact recovery asks only for these sets — a slot with a dead set
    /// outside an SMB's active list is still a legal home for it.
    pub fn required_sets(&self, design: &TemporalDesign<'_>) -> Vec<Vec<u32>> {
        let mut sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); self.num_smbs as usize];
        for (&(smb, slice), &occ) in self.lut_occupancy.iter().chain(self.ff_occupancy.iter()) {
            if occ > 0 {
                sets[smb as usize].insert(design.set_index(slice));
            }
        }
        sets.into_iter().map(|s| s.into_iter().collect()).collect()
    }
}

/// SMB of a LUT not packed yet.
const UNPACKED: u32 = u32::MAX;

/// Runs temporal clustering.
///
/// # Errors
///
/// Currently infallible for validated designs, but returns `Result` so
/// capacity policies can become strict later.
pub fn pack(
    design: &TemporalDesign<'_>,
    arch: &ArchParams,
    options: PackOptions,
) -> Result<Packing, PackError> {
    let attraction_ctr = nanomap_observe::counter("pack.attraction_evals");
    let smb_fill_hist = nanomap_observe::histogram("pack.smb_lut_fill");

    let cap_luts = arch.luts_per_smb() as usize;
    let has_room = |members: &Vec<LutId>| members.len() < cap_luts;
    let cap_ffs = arch.ffs_per_smb();
    let net = design.net;
    let fanouts = net.fanouts();
    let mut packer = Packer::new(design, &fanouts.lut_to_luts, options);
    let mut lut_occupancy = HashMap::new();

    // ---- Phase 1: LUT packing, slice by slice. ----
    let slices = design.slices();
    let total_slices = slices.len() as u64;
    for (slice_idx, &slice) in slices.iter().enumerate() {
        packer.members.iter_mut().for_each(Vec::clear);
        let mut unassigned: Vec<LutId> = design.luts_in(slice);
        unassigned.sort();
        // Seed: the LUT with the most inputs (T-VPack), ties by id.
        while let Some(seed_pos) = unassigned
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| (net.lut(l).inputs.len(), std::cmp::Reverse(l.index())))
            .map(|(pos, _)| pos)
        {
            let seed = unassigned.swap_remove(seed_pos);

            // Target SMB: highest temporal attraction with free capacity,
            // else a fresh SMB.
            let target = packer
                .members
                .iter()
                .enumerate()
                .filter(|(_, members)| has_room(members))
                .map(|(smb, _)| {
                    let affinity = if options.temporal_attraction {
                        packer.temporal_affinity(seed, smb)
                    } else {
                        0.0
                    };
                    (smb, affinity)
                })
                .filter(|&(_, a)| a > 0.0)
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(smb, _)| smb);
            // Without affinity, reuse the lowest-index SMB with free
            // capacity in this slice (temporal sharing is the point);
            // open a fresh SMB only when all are full.
            let smb = target
                .or_else(|| packer.members.iter().position(has_room))
                .unwrap_or_else(|| {
                    packer.members.push(Vec::new());
                    packer.members.len() - 1
                });
            packer.assign(seed, smb);

            // Grow the SMB greedily by attraction.
            while has_room(&packer.members[smb]) && !unassigned.is_empty() {
                let mut best: Option<(f64, usize)> = None;
                attraction_ctr.add(unassigned.len() as u64);
                for (pos, &cand) in unassigned.iter().enumerate() {
                    let a = packer.attraction(cand, smb, slice);
                    match best {
                        Some((b, _)) if b >= a => {}
                        _ => best = Some((a, pos)),
                    }
                }
                let Some((score, pos)) = best else { break };
                if score <= 0.0 {
                    break;
                }
                let cand = unassigned.swap_remove(pos);
                packer.assign(cand, smb);
            }
        }
        for (smb, members) in packer.members.iter().enumerate() {
            if !members.is_empty() {
                lut_occupancy.insert((smb as u32, slice), members.len() as u32);
            }
        }
        nanomap_observe::progress(
            "pack",
            slice_idx as u64,
            packer.members.len() as f64,
            Extent::Total(total_slices),
        );
    }

    let lut_smb = packer.lut_smb;
    let mut packing = Packing {
        num_smbs: packer.members.len() as u32,
        lut_smb: HashMap::with_capacity(lut_smb.len()),
        lut_le: HashMap::with_capacity(lut_smb.len()),
        stored_smb: HashMap::new(),
        ff_smb: HashMap::new(),
        lut_occupancy,
        ff_occupancy: HashMap::new(),
    };
    for (l, (&smb, &le)) in lut_smb.iter().zip(&packer.lut_le).enumerate() {
        if smb != UNPACKED {
            packing.lut_smb.insert(LutId::new(l), smb);
            packing.lut_le.insert(LutId::new(l), le);
        }
    }

    // Per-(SMB, slice) LUT fill levels feed the packing-density histogram.
    if nanomap_observe::enabled() {
        for &occ in packing.lut_occupancy.values() {
            smb_fill_hist.record(u64::from(occ));
        }
        nanomap_observe::incr("pack.smbs_opened", u64::from(packing.num_smbs));
    }

    // ---- Phase 2: stored LUT outputs. ----
    for (id, _) in net.luts() {
        let producer_slice = design.slice_of(id);
        let live_end = fanouts.lut_to_luts[id.index()]
            .iter()
            .filter_map(|&c| {
                let s = design.slice_of(c);
                (s.plane == producer_slice.plane && s.stage > producer_slice.stage)
                    .then_some(s.stage)
            })
            .max();
        let Some(end) = live_end else { continue };
        let live: Vec<Slice> = (producer_slice.stage..=end)
            .map(|stage| Slice {
                plane: producer_slice.plane,
                stage,
            })
            .collect();
        let home = lut_smb[id.index()];
        let smb = find_ff_home(&packing, home, &live, cap_ffs, &mut || packing.num_smbs);
        if smb == packing.num_smbs {
            packing.num_smbs += 1;
        }
        for &s in &live {
            *packing.ff_occupancy.entry((smb, s)).or_insert(0) += 1;
        }
        packing.stored_smb.insert(id, smb);
    }

    // ---- Phase 3: architectural flip-flops (live in every slice). ----
    for (fid, ff) in net.ffs() {
        let home = match ff.d {
            SignalRef::Lut(l) => lut_smb[l.index()],
            _ => 0,
        };
        let smb = find_ff_home(&packing, home, &slices, cap_ffs, &mut || packing.num_smbs);
        if smb == packing.num_smbs {
            packing.num_smbs += 1;
        }
        for &s in &slices {
            *packing.ff_occupancy.entry((smb, s)).or_insert(0) += 1;
        }
        packing.ff_smb.insert(fid, smb);
    }

    Ok(packing)
}

/// The LUT-packing phase's working state: per-LUT tables indexed by
/// [`LutId::index`], fixed for the pack, and the assignment so far (see
/// the module doc for the member-list invariant).
struct Packer<'d> {
    design: &'d TemporalDesign<'d>,
    options: PackOptions,
    /// Sorted, deduplicated input signals of every LUT.
    inputs: Vec<Vec<SignalRef>>,
    /// `adj[adj_at[l]..adj_at[l + 1]]` are LUT `l`'s LUT fanouts, then its
    /// LUT inputs, repeats kept.
    adj_at: Vec<usize>,
    adj: Vec<LutId>,
    /// Criticality `1 / (1 + mobility)` of every LUT.
    crit: Vec<f64>,
    /// SMB of every LUT, [`UNPACKED`] until assigned.
    lut_smb: Vec<u32>,
    /// LE slot of every packed LUT.
    lut_le: Vec<u32>,
    /// Members of every SMB in the slice being packed.
    members: Vec<Vec<LutId>>,
}

impl<'d> Packer<'d> {
    fn new(
        design: &'d TemporalDesign<'d>,
        lut_to_luts: &[Vec<LutId>],
        options: PackOptions,
    ) -> Self {
        let net = design.net;
        let n = net.num_luts();
        let mut inputs = Vec::with_capacity(n);
        let mut adj_at = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        adj_at.push(0);
        for (id, lut) in net.luts() {
            let mut sorted = lut.inputs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            inputs.push(sorted);
            adj.extend_from_slice(&lut_to_luts[id.index()]);
            adj.extend(lut.inputs.iter().filter_map(|input| match *input {
                SignalRef::Lut(u) => Some(u),
                _ => None,
            }));
            adj_at.push(adj.len());
        }

        // A LUT without time frames counts as mobility 0.
        let mut crit = vec![1.0; n];
        for (p, g) in design.graphs.iter().enumerate() {
            // Item frames in the final schedule are singletons, so use the
            // unpinned frames for criticality.
            if let Ok(tf) = nanomap_sched::TimeFrames::compute(
                g,
                design.schedules[p].stages,
                &vec![None; g.len()],
            ) {
                for (i, item) in g.items.iter().enumerate() {
                    for &l in &item.luts {
                        crit[l.index()] = 1.0 / (1.0 + f64::from(tf.mobility(i)));
                    }
                }
            }
        }

        Self {
            design,
            options,
            inputs,
            adj_at,
            adj,
            crit,
            lut_smb: vec![UNPACKED; n],
            lut_le: vec![0; n],
            members: Vec::new(),
        }
    }

    fn neighbors(&self, lut: LutId) -> &[LutId] {
        &self.adj[self.adj_at[lut.index()]..self.adj_at[lut.index() + 1]]
    }

    /// Packs `lut` into the next LE slot of `smb` in the live slice.
    fn assign(&mut self, lut: LutId, smb: usize) {
        let members = &mut self.members[smb];
        self.lut_le[lut.index()] = members.len() as u32;
        self.lut_smb[lut.index()] = smb as u32;
        members.push(lut);
    }

    /// Connectivity of `lut` to SMB members in *any* slice (the "max over
    /// all the cycles" rule of Section 4.3; any-cycle connectivity as 0/1
    /// per neighbour).
    fn temporal_affinity(&self, lut: LutId, smb: usize) -> f64 {
        self.neighbors(lut)
            .iter()
            .filter(|n| self.lut_smb[n.index()] == smb as u32)
            .count() as f64
    }

    /// Attraction of `cand` to `smb` while `slice` is packed.
    fn attraction(&self, cand: LutId, smb: usize, slice: Slice) -> f64 {
        let options = self.options;
        let mut direct = 0u32;
        let mut temporal = 0u32;
        for &n in self.neighbors(cand) {
            if self.lut_smb[n.index()] == smb as u32 {
                if self.design.slice_of(n) == slice {
                    direct += 1;
                } else {
                    temporal += 1;
                }
            }
        }
        // Shared inputs with same-slice members of the SMB.
        let mine = &self.inputs[cand.index()];
        let mut shared = 0u32;
        for &other in &self.members[smb] {
            if other != cand {
                shared += shared_signals(mine, &self.inputs[other.index()]);
            }
        }
        let crit = self.crit[cand.index()];
        let temporal_term = if options.temporal_attraction {
            options.w_temporal * f64::from(temporal)
        } else {
            0.0
        };
        let base = options.w_direct * f64::from(direct)
            + options.w_shared * f64::from(shared)
            + temporal_term;
        if base > 0.0 {
            base + options.w_crit * crit
        } else {
            0.0
        }
    }
}

/// Number of signals two sorted, deduplicated input lists share.
fn shared_signals(a: &[SignalRef], b: &[SignalRef]) -> u32 {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// Finds an SMB whose FF capacity admits a bit live in `live` slices:
/// prefer `home`, then the lowest-index SMB with room, else a fresh SMB
/// (returned as `next_fresh()`).
fn find_ff_home(
    packing: &Packing,
    home: u32,
    live: &[Slice],
    cap_ffs: u32,
    next_fresh: &mut impl FnMut() -> u32,
) -> u32 {
    let fits = |smb: u32| {
        live.iter()
            .all(|&s| packing.ff_occupancy.get(&(smb, s)).copied().unwrap_or(0) < cap_ffs)
    };
    if fits(home) {
        return home;
    }
    for smb in 0..packing.num_smbs {
        if fits(smb) {
            return smb;
        }
    }
    next_fresh()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::{LutNetwork, PlaneSet};
    use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
    use nanomap_techmap::{expand, ExpandOptions};

    /// Packs an 8-bit registered adder folded at level `p` and hands the
    /// network, the scheduled design and the packing to `inspect`.
    fn inspect_packed_adder<R>(
        p: u32,
        inspect: impl FnOnce(&LutNetwork, &TemporalDesign<'_>, Packing) -> R,
    ) -> R {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: 8 });
        b.connect(a, 0, add, 0).unwrap();
        b.connect(c, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let r = b.register("r", 8);
        b.connect(add, 0, r, 0).unwrap();
        let y = b.output("y", 8);
        b.connect(r, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane0 = &planes.planes()[0];
        let stages = plane0.depth.div_ceil(p);
        let graph = ItemGraph::build(&net, plane0, p).unwrap();
        let schedule = schedule_fds(&net, &graph, stages, FdsOptions::default()).unwrap();
        let design = TemporalDesign::new(&net, &planes, vec![graph], vec![schedule]).unwrap();
        let packing = pack(&design, &ArchParams::paper(), PackOptions::default()).unwrap();
        inspect(&net, &design, packing)
    }

    fn packed_adder(p: u32) -> (LutNetwork, u32, Packing, u32) {
        inspect_packed_adder(p, |net, design, packing| {
            let les = packing.les_used(&ArchParams::paper(), design);
            (net.clone(), design.num_slices(), packing, les)
        })
    }

    #[test]
    fn every_lut_assigned_within_capacity() {
        let (net, _, packing, _) = packed_adder(2);
        let arch = ArchParams::paper();
        assert_eq!(packing.lut_smb.len(), net.num_luts());
        for (&(_, _), &occ) in &packing.lut_occupancy {
            assert!(occ <= arch.luts_per_smb());
        }
        for (&(_, _), &occ) in &packing.ff_occupancy {
            assert!(occ <= arch.ffs_per_smb());
        }
    }

    #[test]
    fn le_slots_unique_within_slice() {
        inspect_packed_adder(2, |net, design, packing| {
            let luts_per_smb = ArchParams::paper().luts_per_smb();
            let mut seen = std::collections::HashSet::new();
            for slice in design.slices() {
                for lut in design.luts_in(slice) {
                    let (smb, le) = (packing.lut_smb[&lut], packing.lut_le[&lut]);
                    assert!(le < luts_per_smb, "{lut:?} in LE {le}");
                    assert!(
                        seen.insert((smb, slice, le)),
                        "SMB {smb} LE {le} holds two LUTs in {slice:?}"
                    );
                }
            }
            assert_eq!(seen.len(), net.num_luts());
        });
    }

    #[test]
    fn deep_folding_uses_fewer_smbs() {
        let (_, _, p1, _) = packed_adder(1);
        let (_, _, p8, _) = packed_adder(8);
        assert!(
            p1.num_smbs <= p8.num_smbs + 1,
            "level-1 used {} SMBs, level-8 used {}",
            p1.num_smbs,
            p8.num_smbs
        );
    }

    #[test]
    fn registers_all_placed() {
        let (net, _, packing, _) = packed_adder(2);
        assert_eq!(packing.ff_smb.len(), net.num_ffs());
    }

    #[test]
    fn cross_cycle_values_get_storage() {
        // Level-1 folding of a depth-8 adder: every carry crosses a cycle.
        let (_, slices, packing, _) = packed_adder(1);
        assert!(slices >= 8);
        assert!(!packing.stored_smb.is_empty());
    }

    #[test]
    fn les_used_reasonable() {
        let (net, _, _, les) = packed_adder(2);
        // Never more LEs than LUTs + FFs, never zero.
        assert!(les > 0);
        assert!(les <= (net.num_luts() + net.num_ffs()) as u32);
    }

    #[test]
    fn packing_is_deterministic() {
        let (_, _, a, _) = packed_adder(2);
        let (_, _, b, _) = packed_adder(2);
        assert_eq!(a.lut_smb, b.lut_smb);
        assert_eq!(a.num_smbs, b.num_smbs);
    }

    #[test]
    fn required_sets_are_precise_and_sorted() {
        // Two planes of very different widths: the wide comparator in
        // plane 0 opens several SMBs, the single-LUT plane 1 touches
        // one — the others are idle across plane 1's slices, which is
        // the precision this helper captures over the placer's
        // conservative `0..num_slices` prefix.
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 64);
        let c = b.input("b", 64);
        let en = b.input("en", 1);
        let eq = b.comb("eq", CombOp::Eq { width: 64 });
        b.connect(a, 0, eq, 0).unwrap();
        b.connect(c, 0, eq, 1).unwrap();
        let r = b.register("r", 1);
        b.connect(eq, 0, r, 0).unwrap();
        let gate = b.comb("gate", CombOp::And { width: 1 });
        b.connect(r, 0, gate, 0).unwrap();
        b.connect(en, 0, gate, 1).unwrap();
        let y = b.output("y", 1);
        b.connect(gate, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let depth = planes.planes().iter().map(|p| p.depth).max().unwrap();
        let (graphs, schedules): (Vec<_>, Vec<_>) = planes
            .planes()
            .iter()
            .map(|plane| {
                let graph = ItemGraph::build(&net, plane, 1).unwrap();
                let schedule = schedule_fds(&net, &graph, depth, FdsOptions::default()).unwrap();
                (graph, schedule)
            })
            .unzip();
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
        let packing = pack(&design, &ArchParams::paper(), PackOptions::default()).unwrap();

        let sets = packing.required_sets(&design);
        assert_eq!(sets.len(), packing.num_smbs as usize);
        let total = design.num_slices();
        for (smb, list) in sets.iter().enumerate() {
            assert!(!list.is_empty(), "SMB {smb} has no active sets");
            assert!(list.windows(2).all(|w| w[0] < w[1]), "SMB {smb} unsorted");
            assert!(*list.last().unwrap() < total);
        }
        // The precise view must agree with the occupancy maps exactly.
        for (&(smb, slice), &occ) in packing.lut_occupancy.iter().chain(&packing.ff_occupancy) {
            if occ > 0 {
                assert!(sets[smb as usize].contains(&design.set_index(slice)));
            }
        }
        // Under deep folding at least one SMB is idle in some slice —
        // that gap is what exact recovery exploits over the placer's
        // conservative `num_slices` prefix.
        assert!(
            sets.iter().any(|l| (l.len() as u32) < total),
            "every SMB active in all {total} slices: no precision gap"
        );
    }
}
