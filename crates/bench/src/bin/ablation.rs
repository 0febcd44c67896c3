//! Ablation study of NanoMap's design choices (DESIGN.md §"Design choices
//! worth ablating"):
//!
//! 1. **FDS vs. ASAP vs. load-balancing list scheduling** — does force
//!    balancing reduce peak LE usage?
//! 2. **Storage-weight estimate** — the paper's `weight_i` vs. exact
//!    boundary outputs in the FDS distribution graphs.
//! 3. **Flip-flops per LE** — 1 vs. 2 (Section 5 argues registers become
//!    the bottleneck under deep folding).
//! 4. **Inter-folding-stage placement cost** — on vs. off (Fig. 6(b)).
//!
//! Run: `cargo run -p nanomap-bench --release --bin ablation`

use nanomap_arch::{ArchParams, ChannelConfig, DefectMap, TimingModel};
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_bench::results::write_results_json;
use nanomap_bench::table::render;
use nanomap_netlist::PlaneSet;
use nanomap_observe::JsonValue;
use nanomap_pack::{extract_nets, pack, PackOptions, TemporalDesign};
use nanomap_place::{place_with_defects, CostWeights, PlaceOptions};
use nanomap_sched::{
    schedule_asap, schedule_fds, schedule_list, FdsOptions, ItemGraph, LeShape, StorageWeightMode,
};

fn main() {
    let benches = paper_benchmarks();
    let level = 2u32;
    let mut json_schedulers = Vec::new();
    let mut json_ffs = Vec::new();
    let mut json_inter_stage = Vec::new();

    // ---- 1 & 2: scheduler and storage-mode comparison. ----
    println!("Ablation 1/2: peak LE usage per scheduler (level-{level} folding)\n");
    let mut rows = Vec::new();
    for bench in &benches {
        let net = &bench.network;
        let planes = PlaneSet::extract(net).expect("extracts");
        let shape = LeShape { luts: 1, ffs: 2 };
        let regs = net.num_ffs() as u32;
        let mut peaks = [0u32; 4]; // asap, list, fds(paper weights), fds(boundary)
        let mut ok = true;
        for plane in planes.planes() {
            let stages = planes.depth_max().div_ceil(level);
            let graph = match ItemGraph::build(net, plane, level) {
                Ok(g) => g,
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            #[allow(unused_mut)]
            let mut eval = |schedule: Result<nanomap_sched::Schedule, _>, slot: usize| {
                if let Ok(s) = schedule {
                    let usage = s.le_usage_exact(net, &graph, regs, shape);
                    peaks[slot] = peaks[slot].max(usage.peak);
                } else {
                    ok = false;
                }
            };
            eval(schedule_asap(&graph, stages), 0);
            eval(schedule_list(&graph, stages), 1);
            eval(
                schedule_fds(
                    net,
                    &graph,
                    stages,
                    FdsOptions {
                        shape,
                        storage_mode: StorageWeightMode::ItemWeight,
                    },
                ),
                2,
            );
            eval(
                schedule_fds(
                    net,
                    &graph,
                    stages,
                    FdsOptions {
                        shape,
                        storage_mode: StorageWeightMode::BoundaryOutputs,
                    },
                ),
                3,
            );
        }
        if !ok {
            continue;
        }
        rows.push(vec![
            bench.name.to_string(),
            peaks[0].to_string(),
            peaks[1].to_string(),
            peaks[2].to_string(),
            peaks[3].to_string(),
            format!("{:.2}x", f64::from(peaks[0]) / f64::from(peaks[2])),
        ]);
        json_schedulers.push(
            JsonValue::object()
                .with("circuit", bench.name)
                .with("asap_peak_les", peaks[0])
                .with("list_peak_les", peaks[1])
                .with("fds_paper_peak_les", peaks[2])
                .with("fds_boundary_peak_les", peaks[3]),
        );
    }
    println!(
        "{}",
        render(
            &[
                "Circuit",
                "ASAP",
                "List",
                "FDS (paper)",
                "FDS (boundary)",
                "ASAP/FDS"
            ],
            &rows
        )
    );

    // ---- 3: flip-flops per LE. ----
    println!("\nAblation 3: peak LEs at level-1 folding, 1 vs 2 flip-flops per LE\n");
    let mut rows = Vec::new();
    for bench in &benches {
        let net = &bench.network;
        let planes = PlaneSet::extract(net).expect("extracts");
        let regs = net.num_ffs() as u32;
        let mut peaks = [0u32; 2];
        let mut ok = true;
        for plane in planes.planes() {
            let stages = planes.depth_max();
            let graph = match ItemGraph::build(net, plane, 1) {
                Ok(g) => g,
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            for (slot, ffs) in [(0u32, 1u32), (1, 2)] {
                let shape = LeShape { luts: 1, ffs };
                match schedule_fds(
                    net,
                    &graph,
                    stages,
                    FdsOptions {
                        shape,
                        storage_mode: StorageWeightMode::ItemWeight,
                    },
                ) {
                    Ok(s) => {
                        let usage = s.le_usage_exact(net, &graph, regs, shape);
                        peaks[slot as usize] = peaks[slot as usize].max(usage.peak);
                    }
                    Err(_) => ok = false,
                }
            }
        }
        if !ok {
            continue;
        }
        rows.push(vec![
            bench.name.to_string(),
            peaks[0].to_string(),
            peaks[1].to_string(),
            format!("{:.2}x", f64::from(peaks[0]) / f64::from(peaks[1].max(1))),
        ]);
        json_ffs.push(
            JsonValue::object()
                .with("circuit", bench.name)
                .with("one_ff_peak_les", peaks[0])
                .with("two_ff_peak_les", peaks[1]),
        );
    }
    println!(
        "{}",
        render(&["Circuit", "1 FF/LE", "2 FF/LE", "reduction"], &rows)
    );
    println!("Section 5: the second flip-flop more than pays for its 1.5x SMB area.");

    // ---- 4: inter-folding-stage placement cost (Fig. 6(b)). ----
    println!("\nAblation 4: placement wirelength with/without the inter-stage cost");
    println!("(level-2 folding; cost = total weighted HPWL over all cycles)\n");
    let mut rows = Vec::new();
    for bench in benches.iter().take(3) {
        let net = &bench.network;
        let planes = PlaneSet::extract(net).expect("extracts");
        let arch = ArchParams::paper_unbounded();
        let stages = planes.depth_max().div_ceil(level);
        let mut graphs = Vec::new();
        let mut schedules = Vec::new();
        let mut ok = true;
        for plane in planes.planes() {
            match ItemGraph::build(net, plane, level)
                .and_then(|g| schedule_fds(net, &g, stages, FdsOptions::default()).map(|s| (g, s)))
            {
                Ok((g, s)) => {
                    graphs.push(g);
                    schedules.push(s);
                }
                Err(_) => ok = false,
            }
        }
        if !ok {
            continue;
        }
        let design = TemporalDesign::new(net, &planes, graphs, schedules).expect("valid");
        let packing = pack(&design, &arch, PackOptions::default()).expect("packs");
        let nets = extract_nets(&design, &packing);
        let channels = ChannelConfig::nature();
        let timing = TimingModel::nature_100nm();
        let run = |inter_stage: f64| {
            let options = PlaceOptions {
                weights: CostWeights {
                    inter_stage,
                    ..CostWeights::default()
                },
                ..PlaceOptions::default()
            };
            let placement = place_with_defects(
                &design,
                &packing,
                &nets,
                &channels,
                &timing,
                options,
                &DefectMap::none(),
            )
            .expect("places");
            // Evaluate the TRUE joint cost regardless of what was optimized.
            let full = nanomap_place::flatten_nets(&nets, CostWeights::default());
            nanomap_place::total_cost(&full, &placement.pos_of)
        };
        let with = run(1.0);
        let without = run(0.0);
        rows.push(vec![
            bench.name.to_string(),
            format!("{with:.0}"),
            format!("{without:.0}"),
            format!("{:.1}%", 100.0 * (without - with) / without.max(1.0)),
        ]);
        json_inter_stage.push(
            JsonValue::object()
                .with("circuit", bench.name)
                .with("joint_cost_on", with)
                .with("joint_cost_off", without),
        );
    }
    println!(
        "{}",
        render(
            &[
                "Circuit",
                "joint cost (on)",
                "joint cost (off)",
                "improvement"
            ],
            &rows
        )
    );

    let body = JsonValue::object()
        .with("folding_level", level)
        .with("schedulers", JsonValue::Array(json_schedulers))
        .with("ffs_per_le", JsonValue::Array(json_ffs))
        .with("inter_stage_cost", JsonValue::Array(json_inter_stage));
    write_results_json("ablation", body);
    println!("\njson: -> results/ablation.json");
}
