//! The two longest-path passes as they were before they became one,
//! kept as oracles: the placer's distance-based estimate and the
//! router's arrival pass, each with its own edge classifier and
//! `HashMap` arrivals. The shared pass must match both bit for bit.

use std::collections::HashMap;

use nanomap_arch::{ArchParams, Grid, SmbPos, TimingModel};
use nanomap_netlist::{LutId, LutNetwork, PlaneSet, SignalRef};
use nanomap_observe::rng::XorShift64Star;
use nanomap_pack::{extract_nets, pack, PackOptions, Packing, Slice, TemporalDesign};
use nanomap_place::{analyze_timing, estimate_delay, wire_delay_estimate};
use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
use nanomap_techmap::{expand, ExpandOptions};

use crate::timing::{routed_hop, NetDelays};

/// The pre-route estimate before the shared pass: worst slice path,
/// cycle period and circuit delay.
fn reference_estimate(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    pos_of: &[SmbPos],
    timing: &TimingModel,
) -> (f64, f64, f64) {
    let net = design.net;
    let pos_of_smb = |smb: u32| pos_of[smb as usize];
    let mut slice_paths: HashMap<Slice, f64> = HashMap::new();
    let order = net.topo_order().expect("validated network");
    let mut arrival: HashMap<LutId, f64> = HashMap::new();
    for id in order {
        let lut = net.lut(id);
        let slice = design.slice_of(id);
        let my_pos = pos_of_smb(packing.lut_smb[&id]);
        let mut input_arrival = 0.0f64;
        for input in &lut.inputs {
            let (src_pos, upstream) = match *input {
                SignalRef::Lut(u) => {
                    if design.slice_of(u) == slice {
                        (pos_of_smb(packing.lut_smb[&u]), arrival[&u])
                    } else {
                        let store = packing
                            .stored_smb
                            .get(&u)
                            .or_else(|| packing.lut_smb.get(&u))
                            .copied()
                            .expect("packed");
                        (pos_of_smb(store), 0.0)
                    }
                }
                SignalRef::Ff(f) => (pos_of_smb(packing.ff_smb[&f]), 0.0),
                SignalRef::Input(_) | SignalRef::Const(_) => {
                    arrival.insert(id, timing.lut_delay);
                    continue;
                }
            };
            let d = my_pos.manhattan(src_pos);
            input_arrival = input_arrival.max(upstream + wire_delay_estimate(timing, d));
        }
        let t = input_arrival + timing.lut_delay;
        arrival.insert(id, t);
        let slot = slice_paths.entry(slice).or_insert(0.0);
        *slot = slot.max(t);
    }
    let max_slice_path = slice_paths.values().copied().fold(0.0, f64::max);
    let cycle_period = max_slice_path + timing.reconfiguration + timing.clocking;
    let circuit_delay = cycle_period * f64::from(design.num_slices());
    (max_slice_path, cycle_period, circuit_delay)
}

/// The routed hop before the shared pass: same-SMB or missing
/// connections cost the local crossbar.
fn smb_hop(timing: &TimingModel, delays: &NetDelays, slice: Slice, from: u32, to: u32) -> f64 {
    if from == to {
        timing.local_interconnect
    } else {
        delays
            .get(&(slice, from, to))
            .copied()
            .unwrap_or(timing.local_interconnect)
    }
}

/// The routed arrival pass before the shared pass: per-LUT arrivals and
/// per-slice critical paths.
fn reference_arrivals(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    delays: &NetDelays,
    timing: &TimingModel,
    arch: &ArchParams,
) -> (HashMap<LutId, f64>, HashMap<Slice, f64>) {
    let net = design.net;
    let mut arrival: HashMap<LutId, f64> = HashMap::new();
    let mut slice_paths: HashMap<Slice, f64> = HashMap::new();
    for id in net.topo_order().expect("validated network") {
        let slice = design.slice_of(id);
        let my_smb = packing.lut_smb[&id];
        let mut input_arrival = 0.0f64;
        for input in &net.lut(id).inputs {
            let (upstream, hop) = match *input {
                SignalRef::Lut(u) if design.slice_of(u) == slice => {
                    let src_smb = packing.lut_smb[&u];
                    let hop = if src_smb == my_smb {
                        let mb = |l| packing.lut_le[l] / arch.les_per_mb;
                        if mb(&u) == mb(&id) {
                            timing.local_intra_mb
                        } else {
                            timing.local_interconnect
                        }
                    } else {
                        smb_hop(timing, delays, slice, src_smb, my_smb)
                    };
                    (arrival[&u], hop)
                }
                SignalRef::Lut(u) => {
                    let store = packing
                        .stored_smb
                        .get(&u)
                        .or_else(|| packing.lut_smb.get(&u))
                        .copied()
                        .expect("packed");
                    (0.0, smb_hop(timing, delays, slice, store, my_smb))
                }
                SignalRef::Ff(f) => (
                    0.0,
                    smb_hop(timing, delays, slice, packing.ff_smb[&f], my_smb),
                ),
                SignalRef::Input(_) | SignalRef::Const(_) => (0.0, 0.0),
            };
            input_arrival = input_arrival.max(upstream + hop);
        }
        let t = input_arrival + timing.lut_delay;
        arrival.insert(id, t);
        let slot = slice_paths.entry(slice).or_insert(0.0);
        *slot = slot.max(t);
    }
    (arrival, slice_paths)
}

/// A random placement of `num_smbs` SMBs on a grid with 20 % spare slots.
fn random_placement(num_smbs: u32, rng: &mut XorShift64Star) -> Vec<SmbPos> {
    let grid = Grid::with_capacity(num_smbs + num_smbs.div_ceil(5));
    let mut slots: Vec<usize> = (0..grid.num_slots() as usize).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    slots
        .into_iter()
        .take(num_smbs as usize)
        .map(|s| grid.pos(s))
        .collect()
}

/// Random routed delays for three in four inter-SMB connections; the
/// rest stay unrouted and exercise the local fallback.
fn random_delays(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    rng: &mut XorShift64Star,
) -> NetDelays {
    let nets = extract_nets(design, packing);
    let mut delays = NetDelays::new();
    for slice in design.slices() {
        for net in nets.of(slice) {
            for &sink in &net.sinks {
                if rng.below(4) > 0 {
                    delays.insert((slice, net.driver, sink), 0.25 + 3.0 * rng.next_f64());
                }
            }
        }
    }
    delays
}

/// Every plane of `net` folded at `level`, scheduled and packed.
fn folded<'a>(
    net: &'a LutNetwork,
    planes: &'a PlaneSet,
    level: u32,
    arch: &ArchParams,
) -> Option<(TemporalDesign<'a>, Packing)> {
    let stages = planes.depth_max().max(1).div_ceil(level);
    let (graphs, schedules) = planes
        .planes()
        .iter()
        .map(|plane| {
            let graph = ItemGraph::build(net, plane, level).ok()?;
            let schedule = schedule_fds(net, &graph, stages, FdsOptions::default()).ok()?;
            Some((graph, schedule))
        })
        .collect::<Option<Vec<_>>>()?
        .into_iter()
        .unzip();
    let design = TemporalDesign::new(net, planes, graphs, schedules).ok()?;
    let packing = pack(&design, arch, PackOptions::default()).ok()?;
    Some((design, packing))
}

/// ex1, FIR and ex2 at three folding levels, each under five seeded
/// random placements and five seeded random routed-delay tables.
#[test]
fn shared_pass_matches_both_reference_passes_on_paper_designs() {
    let arch = ArchParams::paper();
    let timing = TimingModel::nature_100nm();
    let mut rng = XorShift64Star::new(0x71_4E5);
    let (mut checked, mut stored_edges) = (0, 0);
    for circuit in [
        nanomap_bench::circuits::ex1(16),
        nanomap_bench::circuits::fir(),
        nanomap_bench::circuits::ex2(),
    ] {
        let net = expand(&circuit, ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        for level in [1, 2, 4] {
            let Some((design, packing)) = folded(&net, &planes, level, &arch) else {
                continue;
            };
            checked += 1;
            stored_edges += packing.stored_smb.len();
            let what = format!("{} at level {level}", net.name());
            for _ in 0..5 {
                let pos_of = random_placement(packing.num_smbs.max(1), &mut rng);
                let got = estimate_delay(&design, &packing, &pos_of, &timing);
                let (max_slice_path, cycle_period, circuit_delay) =
                    reference_estimate(&design, &packing, &pos_of, &timing);
                assert_eq!(
                    got.max_slice_path.to_bits(),
                    max_slice_path.to_bits(),
                    "{what}"
                );
                assert_eq!(got.cycle_period.to_bits(), cycle_period.to_bits(), "{what}");
                assert_eq!(
                    got.circuit_delay.to_bits(),
                    circuit_delay.to_bits(),
                    "{what}"
                );

                let delays = random_delays(&design, &packing, &mut rng);
                let hop = routed_hop(&design, &packing, &delays, &timing, &arch);
                let (routed, arrivals) = analyze_timing(&design, &packing, &timing, hop);
                let (want, slice_paths) =
                    reference_arrivals(&design, &packing, &delays, &timing, &arch);
                for (id, _) in net.luts() {
                    assert_eq!(
                        arrivals[id.index()].to_bits(),
                        want[&id].to_bits(),
                        "{what} {id}"
                    );
                }
                let worst = slice_paths.values().copied().fold(0.0, f64::max);
                assert_eq!(routed.max_slice_path.to_bits(), worst.to_bits(), "{what}");
            }
        }
    }
    // Every configuration folds, and folded designs read stored values,
    // or the stored-edge case goes unchecked.
    assert_eq!(checked, 9);
    assert!(stored_edges > 0);
}
