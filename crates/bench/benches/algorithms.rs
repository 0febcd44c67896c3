//! Benches for the flow's algorithmic kernels, backing the paper's
//! complexity discussion (Section 4.5: FDS is O(n²), placement O(n^4/3),
//! the whole flow O(mn²)) and its "CPU times were less than a minute for
//! all the benchmarks" claim.
//!
//! Zero-dependency harness: each bench runs a warmup pass then `SAMPLES`
//! timed iterations and reports min/median/max wall-clock per iteration.
//! Run with `cargo bench -p nanomap-bench`; pass a substring argument to
//! filter benches by name.

use std::time::Instant;

use nanomap::{NanoMap, Objective};
use nanomap_arch::{ArchParams, ChannelConfig, DefectMap, Grid, RrGraph, SmbPos, TimingModel};
use nanomap_bench::circuits::{c5315_gates, ex1};
use nanomap_netlist::PlaneSet;
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::CancelToken;
use nanomap_pack::{extract_nets, pack, PackOptions, SliceNet, TemporalDesign};
use nanomap_place::{anneal, flatten_nets, AnnealSchedule, CostWeights};
use nanomap_route::{route_slice, RouteOptions};
use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
use nanomap_techmap::{expand, map_network, ExpandOptions, FlowMapOptions};

const SAMPLES: usize = 10;

/// Times `f` over `SAMPLES` iterations (after one warmup) and prints a
/// `name: min/median/max` line. A `black_box`-style sink keeps the result
/// alive so the optimizer cannot elide the work.
fn bench<T>(filter: &str, name: &str, mut f: impl FnMut() -> T) {
    if !name.contains(filter) {
        return;
    }
    std::hint::black_box(f()); // warmup
    let mut samples_us: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    println!(
        "{name:<40} min {:>10.1} us  median {:>10.1} us  max {:>10.1} us",
        samples_us[0],
        samples_us[SAMPLES / 2],
        samples_us[SAMPLES - 1]
    );
}

/// FDS runtime scaling with circuit size (Section 4.5: O(n²)).
fn bench_fds(filter: &str) {
    for width in [4u32, 8, 12] {
        let net = expand(&ex1(width), ExpandOptions::default()).expect("expands");
        let planes = PlaneSet::extract(&net).expect("extracts");
        let plane = planes.planes()[0].clone();
        let level = 2;
        let stages = plane.depth.div_ceil(level);
        let graph = ItemGraph::build(&net, &plane, level).expect("builds");
        let name = format!("fds/ex1_level2/{}", net.num_luts());
        bench(filter, &name, || {
            schedule_fds(&net, &graph, stages, FdsOptions::default()).expect("schedules")
        });
    }
}

/// FlowMap on the c5315-class gate network.
fn bench_flowmap(filter: &str) {
    let gates = c5315_gates();
    let name = format!("flowmap/c5315_like/{}", gates.num_gates());
    bench(filter, &name, || {
        map_network(&gates, FlowMapOptions::default()).expect("maps")
    });
}

/// Simulated-annealing placement scaling (Section 4.5: O(n^4/3)).
fn bench_placement(filter: &str) {
    for n in [16usize, 36, 64] {
        let side = (n as f64).sqrt() as u16;
        let grid = Grid::new(side, side);
        let nets: Vec<nanomap_place::FlatNet> = (0..n as u32 * 2)
            .map(|i| nanomap_place::FlatNet {
                pins: vec![i % n as u32, (i * 7 + 3) % n as u32],
                weight: 1.0,
            })
            .collect();
        let legal = vec![true; grid.num_slots() as usize];
        let name = format!("placement/anneal/{n}");
        bench(filter, &name, || {
            let mut pos: Vec<SmbPos> = (0..n).map(|i| grid.pos(i)).collect();
            let mut rng = XorShift64Star::new(7);
            anneal(
                grid,
                &nets,
                &mut pos,
                AnnealSchedule::fast(),
                &mut rng,
                &legal,
                &CancelToken::unlimited(),
            )
        });
    }
}

/// PathFinder routing one congested slice.
fn bench_routing(filter: &str) {
    let grid = Grid::new(6, 6);
    let graph = RrGraph::build(grid, &ChannelConfig::nature(), &DefectMap::none());
    let pos: Vec<SmbPos> = grid.iter().collect();
    let nets: Vec<SliceNet> = (0..48u32)
        .map(|i| SliceNet {
            driver: i % 36,
            sinks: vec![(i * 5 + 7) % 36, (i * 11 + 1) % 36],
            critical: false,
        })
        .map(|mut n| {
            n.sinks.retain(|&s| s != n.driver);
            n
        })
        .collect();
    bench(filter, "routing/pathfinder_6x6_48nets", || {
        route_slice(
            &graph,
            &nets,
            &pos,
            RouteOptions::default(),
            &CancelToken::unlimited(),
        )
        .expect("routes")
    });
}

/// Temporal clustering.
fn bench_packing(filter: &str) {
    let net = expand(&ex1(8), ExpandOptions::default()).expect("expands");
    let planes = PlaneSet::extract(&net).expect("extracts");
    let plane = planes.planes()[0].clone();
    let level = 2;
    let stages = plane.depth.div_ceil(level);
    let graph = ItemGraph::build(&net, &plane, level).expect("builds");
    let schedule = schedule_fds(&net, &graph, stages, FdsOptions::default()).expect("schedules");
    let arch = ArchParams::paper_unbounded();
    bench(filter, "packing/ex1_8bit_level2", || {
        let design =
            TemporalDesign::new(&net, &planes, vec![graph.clone()], vec![schedule.clone()])
                .expect("valid");
        let packing = pack(&design, &arch, PackOptions::default()).expect("packs");
        let nets = extract_nets(&design, &packing);
        flatten_nets(&nets, CostWeights::default()).len()
    });
}

/// The whole flow (logic mapping only, and with physical design), backing
/// the paper's "< 1 minute" CPU-time claim.
fn bench_full_flow(filter: &str) {
    let net = expand(&ex1(8), ExpandOptions::default()).expect("expands");
    let logic_only = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
    bench(filter, "full_flow/ex1_8bit_logic_only", || {
        logic_only
            .map(&net, Objective::MinAreaDelayProduct)
            .expect("maps")
    });
    let physical = NanoMap::new(ArchParams::paper_unbounded());
    bench(filter, "full_flow/ex1_8bit_with_physical", || {
        physical
            .map(&net, Objective::MinAreaDelayProduct)
            .expect("maps")
    });
    let _ = TimingModel::nature_100nm();
}

fn main() {
    // `cargo bench -- <filter>` narrows to benches whose name contains
    // the substring; `--bench` style flags from cargo are ignored.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    bench_fds(&filter);
    bench_flowmap(&filter);
    bench_placement(&filter);
    bench_routing(&filter);
    bench_packing(&filter);
    bench_full_flow(&filter);
}
