//! Reproduces the **Section 5 interconnect claim**: "global interconnect
//! usage went down by more than 50% when using level-1 folding as opposed
//! to no-folding" — cycle-by-cycle reconfiguration keeps LE utilization
//! high, so each configuration needs far less interconnect.
//!
//! Runs the full physical flow (clustering, placement, routing) at
//! no-folding and at level-1 folding and compares the per-configuration
//! interconnect usage.
//!
//! Run: `cargo run -p nanomap-bench --release --bin interconnect [circuits...]`

use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error};
use nanomap_arch::{ArchParams, ChannelConfig, TimingModel};
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_bench::table::render;
use nanomap_netlist::{LutNetwork, PlaneSet};
use nanomap_pack::{extract_nets, pack, PackOptions, TemporalDesign};
use nanomap_place::{place, PlaceOptions};
use nanomap_route::{route_design, RouteOptions};
use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph, Schedule};

struct PhysicalRun {
    global_per_cfg: f64,
    total_per_cfg: f64,
    smbs: u32,
}

fn run_physical(net: &LutNetwork, level: Option<u32>) -> Result<PhysicalRun, String> {
    let planes = PlaneSet::extract(net).map_err(|e| e.to_string())?;
    let arch = ArchParams::paper_unbounded();
    let mut graphs = Vec::new();
    let mut schedules = Vec::new();
    for plane in planes.planes() {
        match level {
            None => {
                let graph = ItemGraph::build(net, plane, planes.depth_max().max(1))
                    .map_err(|e| e.to_string())?;
                let n = graph.len();
                graphs.push(graph);
                schedules.push(Schedule::new(vec![0; n], 1));
            }
            Some(p) => {
                let stages = planes.depth_max().div_ceil(p);
                let graph = ItemGraph::build(net, plane, p).map_err(|e| e.to_string())?;
                let schedule = schedule_fds(net, &graph, stages, FdsOptions::default())
                    .map_err(|e| e.to_string())?;
                graphs.push(graph);
                schedules.push(schedule);
            }
        }
    }
    let design = TemporalDesign::new(net, &planes, graphs, schedules).map_err(|e| e.to_string())?;
    let packing = pack(&design, &arch, PackOptions::default()).map_err(|e| e.to_string())?;
    let nets = extract_nets(&design, &packing);
    let channels = ChannelConfig::nature();
    let timing = TimingModel::nature_100nm();
    let placement = place(
        &design,
        &packing,
        &nets,
        &channels,
        &timing,
        PlaceOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let routed = route_design(
        &design,
        &packing,
        &nets,
        &placement,
        &channels,
        &timing,
        &arch,
        RouteOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let slices = f64::from(design.num_slices());
    Ok(PhysicalRun {
        global_per_cfg: routed.usage.global as f64 / slices,
        total_per_cfg: routed.usage.total() as f64 / slices,
        smbs: packing.num_smbs,
    })
}

static INTERCONNECT: Command = Command {
    name: "interconnect",
    operands: "[circuit...]",
    about: "Routes each circuit (default ex1 FIR ex2) at no folding and at level-1\nfolding and compares the per-configuration interconnect usage.",
    flags: &[],
};

fn main() -> ExitCode {
    INTERCONNECT.run(std::env::args().skip(1), compare)
}

fn compare(args: Args) -> Result<ExitCode, Error> {
    let default = ["ex1", "FIR", "ex2"].map(String::from);
    let names = match args.operands() {
        [] => &default[..],
        names => names,
    };
    println!("Section 5 interconnect experiment: per-configuration interconnect");
    println!("usage, no-folding vs level-1 temporal folding\n");

    let benches = paper_benchmarks();
    let mut rows = Vec::new();
    for name in names {
        let bench = benches
            .iter()
            .find(|b| b.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::usage(name, "unknown circuit"))?;
        eprintln!("routing {} (no-folding)...", bench.name);
        let nofold = match run_physical(&bench.network, None) {
            Ok(r) => r,
            Err(e) => {
                rows.push(vec![
                    bench.name.into(),
                    format!("no-fold failed: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
        };
        eprintln!("routing {} (level-1 folding)...", bench.name);
        let folded = match run_physical(&bench.network, Some(1)) {
            Ok(r) => r,
            Err(e) => {
                rows.push(vec![
                    bench.name.into(),
                    format!("level-1 failed: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
        };
        let reduction = |a: f64, b: f64| {
            if a == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.0}%", 100.0 * (1.0 - b / a))
            }
        };
        rows.push(vec![
            bench.name.into(),
            format!("{} -> {}", nofold.smbs, folded.smbs),
            format!("{:.1}", nofold.global_per_cfg),
            format!("{:.1}", folded.global_per_cfg),
            reduction(nofold.global_per_cfg, folded.global_per_cfg),
            format!("{:.1} -> {:.1}", nofold.total_per_cfg, folded.total_per_cfg),
            reduction(nofold.total_per_cfg, folded.total_per_cfg),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "Circuit",
                "SMBs (nf->l1)",
                "global/cfg nf",
                "global/cfg l1",
                "global reduction",
                "total/cfg",
                "total reduction",
            ],
            &rows
        )
    );
    println!("Paper: global interconnect usage down by more than 50% at level-1.");
    Ok(ExitCode::SUCCESS)
}
