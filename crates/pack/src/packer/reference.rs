//! The reference packer: the attraction scan as it was before the
//! packer's working state went dense, kept as an oracle. Every shared
//! input is counted by walking all of `Packing::lut_smb`, with a
//! `BTreeSet` intersection per packed LUT.

use std::collections::{BTreeSet, HashMap};

use nanomap_arch::ArchParams;
use nanomap_netlist::{LutId, SignalRef};

use nanomap_netlist::{FfId, LutNetwork, PlaneSet, TruthTable};
use nanomap_observe::rng::XorShift64Star;
use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph, Schedule};
use nanomap_techmap::{expand, ExpandOptions};

use super::{find_ff_home, pack, PackOptions, Packer, Packing};
use crate::design::{Slice, TemporalDesign};

/// The packer as it was before its working state went dense, without
/// its telemetry.
fn reference_pack(design: &TemporalDesign<'_>, arch: &ArchParams, options: PackOptions) -> Packing {
    let cap_luts = arch.luts_per_smb();
    let cap_ffs = arch.ffs_per_smb();
    let net = design.net;
    let fanouts = net.fanouts();

    let (lut_inputs, mobility) = tables(design);
    let neighbors = |l: LutId| neighbors_of(design, &fanouts.lut_to_luts, l);

    let mut packing = Packing {
        num_smbs: 0,
        lut_smb: HashMap::new(),
        lut_le: HashMap::new(),
        stored_smb: HashMap::new(),
        ff_smb: HashMap::new(),
        lut_occupancy: HashMap::new(),
        ff_occupancy: HashMap::new(),
    };

    // ---- Phase 1: LUT packing, slice by slice. ----
    for slice in design.slices() {
        let mut unassigned: Vec<LutId> = design.luts_in(slice);
        unassigned.sort();
        while !unassigned.is_empty() {
            // Seed: the LUT with the most inputs (T-VPack), ties by id.
            let seed_pos = unassigned
                .iter()
                .enumerate()
                .max_by_key(|(_, &l)| (net.lut(l).inputs.len(), std::cmp::Reverse(l.index())))
                .map(|(pos, _)| pos)
                .unwrap();
            let seed = unassigned.swap_remove(seed_pos);

            // Target SMB: highest temporal attraction with free capacity,
            // else a fresh SMB.
            let target = (0..packing.num_smbs)
                .filter(|&smb| {
                    packing
                        .lut_occupancy
                        .get(&(smb, slice))
                        .copied()
                        .unwrap_or(0)
                        < cap_luts
                })
                .map(|smb| {
                    let affinity = if options.temporal_attraction {
                        temporal_affinity(&packing, &neighbors, seed, smb)
                    } else {
                        0.0
                    };
                    (smb, affinity)
                })
                .filter(|&(_, a)| a > 0.0)
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .map(|(smb, _)| smb);
            // Without affinity, reuse the lowest-index SMB with free
            // capacity in this slice (temporal sharing is the point);
            // open a fresh SMB only when all are full.
            let smb = target
                .or_else(|| {
                    (0..packing.num_smbs).find(|&smb| {
                        packing
                            .lut_occupancy
                            .get(&(smb, slice))
                            .copied()
                            .unwrap_or(0)
                            < cap_luts
                    })
                })
                .unwrap_or_else(|| {
                    packing.num_smbs += 1;
                    packing.num_smbs - 1
                });
            assign_lut(&mut packing, seed, smb, slice);

            // Grow the SMB greedily by attraction.
            while packing
                .lut_occupancy
                .get(&(smb, slice))
                .copied()
                .unwrap_or(0)
                < cap_luts
                && !unassigned.is_empty()
            {
                let mut best: Option<(f64, usize)> = None;
                for (pos, &cand) in unassigned.iter().enumerate() {
                    let a = attraction(
                        &packing,
                        design,
                        &lut_inputs,
                        &neighbors,
                        &mobility,
                        cand,
                        smb,
                        slice,
                        options,
                    );
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
                assign_lut(&mut packing, cand, smb, slice);
            }
        }
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
        let home = packing.lut_smb[&id];
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
    let all_slices = design.slices();
    for (fid, ff) in net.ffs() {
        let home = match ff.d {
            SignalRef::Lut(l) => packing.lut_smb.get(&l).copied().unwrap_or(0),
            _ => 0,
        };
        let smb = find_ff_home(&packing, home, &all_slices, cap_ffs, &mut || {
            packing.num_smbs
        });
        if smb == packing.num_smbs {
            packing.num_smbs += 1;
        }
        for &s in &all_slices {
            *packing.ff_occupancy.entry((smb, s)).or_insert(0) += 1;
        }
        packing.ff_smb.insert(fid, smb);
    }

    packing
}

/// Input sets (shared-input counting support) and mobility
/// (criticality = 1 / (1 + mobility)) of every LUT.
fn tables(design: &TemporalDesign<'_>) -> (Vec<BTreeSet<SignalRef>>, HashMap<LutId, u32>) {
    let lut_inputs = design
        .net
        .luts()
        .map(|(_, l)| l.inputs.iter().copied().collect())
        .collect();
    let mut mobility: HashMap<LutId, u32> = HashMap::new();
    for (p, g) in design.graphs.iter().enumerate() {
        // Item frames in the final schedule are singletons, so use the
        // unpinned frames for criticality.
        if let Ok(tf) =
            nanomap_sched::TimeFrames::compute(g, design.schedules[p].stages, &vec![None; g.len()])
        {
            for (i, item) in g.items.iter().enumerate() {
                for &l in &item.luts {
                    mobility.insert(l, tf.mobility(i));
                }
            }
        }
    }
    (lut_inputs, mobility)
}

/// LUT-level undirected adjacency, allocated per call.
fn neighbors_of(design: &TemporalDesign<'_>, lut_to_luts: &[Vec<LutId>], l: LutId) -> Vec<LutId> {
    let mut out: Vec<LutId> = lut_to_luts[l.index()].clone();
    for input in &design.net.lut(l).inputs {
        if let SignalRef::Lut(u) = input {
            out.push(*u);
        }
    }
    out
}

fn assign_lut(packing: &mut Packing, lut: LutId, smb: u32, slice: Slice) {
    let occupancy = packing.lut_occupancy.entry((smb, slice)).or_insert(0);
    packing.lut_le.insert(lut, *occupancy);
    *occupancy += 1;
    packing.lut_smb.insert(lut, smb);
}

/// Connectivity of `lut` to SMB members in *any* slice (the "max over all
/// the cycles" rule of Section 4.3; any-cycle connectivity as 0/1 per
/// neighbour).
fn temporal_affinity(
    packing: &Packing,
    neighbors: &impl Fn(LutId) -> Vec<LutId>,
    lut: LutId,
    smb: u32,
) -> f64 {
    neighbors(lut)
        .into_iter()
        .filter(|n| packing.lut_smb.get(n) == Some(&smb))
        .count() as f64
}

#[allow(clippy::too_many_arguments)]
fn attraction(
    packing: &Packing,
    design: &TemporalDesign<'_>,
    lut_inputs: &[BTreeSet<SignalRef>],
    neighbors: &impl Fn(LutId) -> Vec<LutId>,
    mobility: &HashMap<LutId, u32>,
    cand: LutId,
    smb: u32,
    slice: Slice,
    options: PackOptions,
) -> f64 {
    let mut direct = 0u32;
    let mut temporal = 0u32;
    for n in neighbors(cand) {
        if packing.lut_smb.get(&n) == Some(&smb) {
            if design.slice_of(n) == slice {
                direct += 1;
            } else {
                temporal += 1;
            }
        }
    }
    // Shared inputs with same-slice members of the SMB.
    let mut shared = 0u32;
    for (&other, &other_smb) in &packing.lut_smb {
        if other_smb == smb && design.slice_of(other) == slice && other != cand {
            shared += lut_inputs[cand.index()]
                .intersection(&lut_inputs[other.index()])
                .count() as u32;
        }
    }
    let crit = 1.0 / (1.0 + f64::from(mobility.get(&cand).copied().unwrap_or(0)));
    let temporal_term = if options.temporal_attraction {
        options.w_temporal * f64::from(temporal)
    } else {
        0.0
    };
    let base =
        options.w_direct * f64::from(direct) + options.w_shared * f64::from(shared) + temporal_term;
    if base > 0.0 {
        base + options.w_crit * crit
    } else {
        0.0
    }
}

/// Asserts the dense packer reproduces every field of the reference's
/// packing, and returns that packing.
fn assert_matches_reference(
    design: &TemporalDesign<'_>,
    arch: &ArchParams,
    options: PackOptions,
    what: &str,
) -> Packing {
    let dense = pack(design, arch, options).unwrap();
    let reference = reference_pack(design, arch, options);
    assert_eq!(dense.num_smbs, reference.num_smbs, "{what}: num_smbs");
    assert_eq!(dense.lut_smb, reference.lut_smb, "{what}: lut_smb");
    assert_eq!(dense.lut_le, reference.lut_le, "{what}: lut_le");
    assert_eq!(dense.stored_smb, reference.stored_smb, "{what}: stored_smb");
    assert_eq!(dense.ff_smb, reference.ff_smb, "{what}: ff_smb");
    assert_eq!(
        dense.lut_occupancy, reference.lut_occupancy,
        "{what}: lut_occupancy"
    );
    assert_eq!(
        dense.ff_occupancy, reference.ff_occupancy,
        "{what}: ff_occupancy"
    );
    reference
}

/// Kernel check on a finished packing, replayed slice by slice: the dense
/// attraction and affinity of every LUT, packed or not, to every SMB
/// equal the reference scan's, bit for bit. Packed candidates are where
/// the scan must skip the candidate itself.
fn assert_kernel_matches_reference(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    options: PackOptions,
    what: &str,
) {
    let fanouts = design.net.fanouts();
    let (lut_inputs, mobility) = tables(design);
    let neighbors = |l: LutId| neighbors_of(design, &fanouts.lut_to_luts, l);
    let mut packer = Packer::new(design, &fanouts.lut_to_luts, options);
    for (&l, &smb) in &packing.lut_smb {
        packer.lut_smb[l.index()] = smb;
    }
    packer.members = vec![Vec::new(); packing.num_smbs as usize];
    for slice in design.slices() {
        packer.members.iter_mut().for_each(Vec::clear);
        for l in design.luts_in(slice) {
            packer.members[packing.lut_smb[&l] as usize].push(l);
        }
        for (cand, _) in design.net.luts() {
            for smb in 0..packing.num_smbs {
                let reference = attraction(
                    packing,
                    design,
                    &lut_inputs,
                    &neighbors,
                    &mobility,
                    cand,
                    smb,
                    slice,
                    options,
                );
                assert_eq!(
                    packer.attraction(cand, smb as usize, slice).to_bits(),
                    reference.to_bits(),
                    "{what}: attraction of {cand} to SMB {smb} in {slice:?}"
                );
                assert_eq!(
                    packer.temporal_affinity(cand, smb as usize),
                    temporal_affinity(packing, &neighbors, cand, smb),
                    "{what}: affinity of {cand} to SMB {smb}"
                );
            }
        }
    }
}

/// Item graphs and FDS schedules of every plane at folding `level` over
/// `stages` stages.
fn scheduled(
    net: &LutNetwork,
    planes: &PlaneSet,
    level: u32,
    stages: u32,
    fds: FdsOptions,
) -> Option<(Vec<ItemGraph>, Vec<Schedule>)> {
    planes
        .planes()
        .iter()
        .map(|plane| {
            let graph = ItemGraph::build(net, plane, level).ok()?;
            let schedule = schedule_fds(net, &graph, stages, fds).ok()?;
            Some((graph, schedule))
        })
        .collect::<Option<Vec<_>>>()
        .map(|pairs| pairs.into_iter().unzip())
}

/// A seeded random sequential netlist: 1–6 inputs, 0–5 flip-flops and
/// 1–80 LUTs of 1–4 inputs each. LUT inputs lean towards recent LUTs so
/// the logic is deep, and may repeat a signal.
fn random_network(rng: &mut XorShift64Star) -> LutNetwork {
    let mut net = LutNetwork::new("random");
    let mut sources: Vec<SignalRef> = (0..1 + rng.below(6))
        .map(|i| net.add_input(format!("i{i}")))
        .collect();
    let ffs: Vec<FfId> = (0..rng.below(6))
        .map(|_| net.add_ff(SignalRef::Const(false), None))
        .collect();
    sources.extend(ffs.iter().map(|&f| SignalRef::Ff(f)));
    let mut luts = Vec::new();
    for _ in 0..1 + rng.below(80) {
        let k = 1 + rng.below(4) as usize;
        let inputs: Vec<SignalRef> = (0..k)
            .map(|_| {
                if !luts.is_empty() && rng.below(3) > 0 {
                    let back = 1 + rng.below(8.min(luts.len() as u64)) as usize;
                    luts[luts.len() - back]
                } else {
                    sources[rng.below(sources.len() as u64) as usize]
                }
            })
            .collect();
        luts.push(net.add_lut(TruthTable::constant_false(k as u32), inputs));
    }
    for &f in &ffs {
        net.set_ff_input(f, luts[rng.below(luts.len() as u64) as usize]);
    }
    for o in 0..1 + rng.below(3) {
        net.add_output(
            format!("o{o}"),
            luts[luts.len() - 1 - o as usize % luts.len()],
        );
    }
    net
}

/// 60 seeded random netlists, each at three folding levels and with the
/// temporal term on and off, on SMBs of four LEs so that they fill.
#[test]
fn dense_packer_matches_reference_on_random_netlists() {
    let arch = ArchParams {
        les_per_mb: 2,
        mbs_per_smb: 2,
        ..ArchParams::paper()
    };
    let mut rng = XorShift64Star::new(0x5EED_9AC4);
    let mut multi_smb = 0;
    for case in 0..60 {
        let net = random_network(&mut rng);
        let planes = PlaneSet::extract(&net).unwrap();
        for level in [1, 2, 3] {
            let stages = planes.depth_max().max(1).div_ceil(level);
            let (graphs, schedules) =
                scheduled(&net, &planes, level, stages, FdsOptions::default())
                    .unwrap_or_else(|| panic!("case {case} level {level} does not schedule"));
            let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
            for temporal_attraction in [true, false] {
                let options = PackOptions {
                    temporal_attraction,
                    ..PackOptions::default()
                };
                let what = format!(
                    "case {case} ({} LUTs, {} planes, {stages} stages, temporal {temporal_attraction})",
                    net.num_luts(),
                    planes.num_planes()
                );
                let packing = assert_matches_reference(&design, &arch, options, &what);
                assert_kernel_matches_reference(&design, &packing, options, &what);
                multi_smb += usize::from(packing.num_smbs > 1 && design.num_slices() > 1);
            }
        }
    }
    // Most cases must fold into several SMBs, or the check proves little.
    assert!(
        multi_smb >= 180,
        "only {multi_smb} of 360 packings fold into several SMBs"
    );
}

/// Every folding candidate of ex1, FIR and ex2 that schedules, scheduled
/// as the flow schedules it on the paper architecture.
#[test]
fn dense_packer_matches_reference_on_paper_designs() {
    let flow = nanomap::NanoMap::new(ArchParams::paper());
    for circuit in [
        nanomap_bench::circuits::ex1(16),
        nanomap_bench::circuits::fir(),
        nanomap_bench::circuits::ex2(),
    ] {
        let net = expand(&circuit, ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        for config in nanomap::candidate_configs(&planes, flow.arch.num_reconf) {
            let scheduled = match config.level {
                Some(level) => scheduled(&net, &planes, level, config.stages, flow.fds),
                None => Some(
                    planes
                        .planes()
                        .iter()
                        .map(|plane| {
                            let graph =
                                ItemGraph::build(&net, plane, planes.depth_max().max(1)).unwrap();
                            let schedule = Schedule::new(vec![0; graph.len()], 1);
                            (graph, schedule)
                        })
                        .unzip(),
                ),
            };
            let Some((graphs, schedules)) = scheduled else {
                continue;
            };
            let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
            for temporal_attraction in [true, false] {
                let options = PackOptions {
                    temporal_attraction,
                    ..PackOptions::default()
                };
                let what = format!(
                    "{} at {} stages, temporal {temporal_attraction}",
                    net.name(),
                    config.stages
                );
                assert_matches_reference(&design, &flow.arch, options, &what);
            }
        }
    }
}
