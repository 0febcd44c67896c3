//! Reproduces the **Section 2.2 area-delay tradeoff**: sweeping the
//! folding level changes the clock period, cycle count, LE usage and
//! area-delay product ("increasing the folding level leads to a higher
//! clock period, but smaller cycle count … and much higher resource
//! usage").
//!
//! Run: `cargo run -p nanomap-bench --release --bin tradeoff [circuit]`

use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error};
use nanomap_arch::{estimate_power, PowerModel, TimingModel};
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_bench::results::write_results_json;
use nanomap_bench::table::render;
use nanomap_netlist::PlaneSet;
use nanomap_observe::JsonValue;
use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph, LeShape};

static TRADEOFF: Command = Command {
    name: "tradeoff",
    operands: "[circuit]",
    about: "Sweeps the folding level of one paper benchmark (default ex1) and writes\nthe area-delay tradeoff to results/tradeoff.json.",
    flags: &[],
};

fn main() -> ExitCode {
    TRADEOFF.run(std::env::args().skip(1), sweep)
}

fn sweep(args: Args) -> Result<ExitCode, Error> {
    let which = match args.operands() {
        [] => "ex1",
        [name] => name.as_str(),
        _ => return Err(Error::usage(TRADEOFF.name, "takes at most one circuit")),
    };
    let benches = paper_benchmarks();
    let bench = benches
        .iter()
        .find(|b| b.name.eq_ignore_ascii_case(which))
        .ok_or_else(|| Error::usage(which, "unknown circuit"))?;
    let net = &bench.network;
    let planes = PlaneSet::extract(net).expect("extracts");
    let timing = TimingModel::nature_100nm();
    let shape = LeShape { luts: 1, ffs: 2 };

    println!(
        "Area-delay tradeoff for {} ({} LUTs, {} FFs, depth {}, {} plane(s))\n",
        bench.name,
        net.num_luts(),
        net.num_ffs(),
        planes.depth_max(),
        planes.num_planes()
    );

    let depth = planes.depth_max().max(1);
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for stages in 1..=depth {
        let level = depth.div_ceil(stages);
        if !seen.insert(level) {
            continue;
        }
        let stages = depth.div_ceil(level);
        // Peak LE usage over planes (shared-plane model).
        let mut peak = 0u32;
        let mut feasible = true;
        for plane in planes.planes() {
            let graph = match ItemGraph::build(net, plane, level) {
                Ok(g) => g,
                Err(_) => {
                    feasible = false;
                    break;
                }
            };
            match schedule_fds(net, &graph, stages, FdsOptions::default()) {
                Ok(s) => {
                    let usage = s.le_usage_exact(net, &graph, net.num_ffs() as u32, shape);
                    peak = peak.max(usage.peak);
                }
                Err(_) => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }
        let cycle = timing.folding_cycle(level);
        let delay = timing.circuit_delay(planes.num_planes() as u32, stages, level);
        let slices = planes.num_planes() as f64 * f64::from(stages);
        let power = estimate_power(
            &PowerModel::nature_100nm(),
            net.num_luts() as f64 / slices,
            f64::from(peak) * 39.0,
            peak,
            cycle,
        );
        rows.push(vec![
            level.to_string(),
            stages.to_string(),
            format!("{cycle:.2}"),
            format!("{delay:.2}"),
            peak.to_string(),
            format!("{:.0}", f64::from(peak) * delay),
            format!("{:.1}", power.total_mw()),
        ]);
        json_rows.push(
            JsonValue::object()
                .with("folding_level", level)
                .with("cycles_per_plane", stages)
                .with("cycle_ns", cycle)
                .with("delay_ns", delay)
                .with("num_les", peak)
                .with("at_product", f64::from(peak) * delay)
                .with("power_mw", power.total_mw()),
        );
    }
    // The no-folding end of the curve.
    let nf_delay = timing.circuit_delay_no_folding(planes.num_planes() as u32, depth);
    let nf_les = (net.num_luts() as u32).max((net.num_ffs() as u32).div_ceil(2));
    let nf_power = estimate_power(
        &PowerModel::nature_100nm(),
        net.num_luts() as f64 / planes.num_planes() as f64,
        0.0,
        nf_les,
        timing.plane_cycle_no_folding(depth),
    );
    rows.push(vec![
        "none".into(),
        "1".into(),
        format!("{:.2}", timing.plane_cycle_no_folding(depth)),
        format!("{nf_delay:.2}"),
        nf_les.to_string(),
        format!("{:.0}", f64::from(nf_les) * nf_delay),
        format!("{:.1}", nf_power.total_mw()),
    ]);
    json_rows.push(
        JsonValue::object()
            .with("folding_level", JsonValue::Null)
            .with("cycles_per_plane", 1u32)
            .with("cycle_ns", timing.plane_cycle_no_folding(depth))
            .with("delay_ns", nf_delay)
            .with("num_les", nf_les)
            .with("at_product", f64::from(nf_les) * nf_delay)
            .with("power_mw", nf_power.total_mw()),
    );

    println!(
        "{}",
        render(
            &[
                "level",
                "cycles/plane",
                "cycle (ns)",
                "delay (ns)",
                "#LEs",
                "AT",
                "power (mW)"
            ],
            &rows
        )
    );
    println!("Expected shape: delay falls and #LEs rises as the folding level");
    println!("increases; the AT product is minimized at deep folding.");

    write_results_json(
        "tradeoff",
        JsonValue::object()
            .with("circuit", bench.name)
            .with("levels", JsonValue::Array(json_rows)),
    );
    println!("\njson: -> results/tradeoff.json");
    Ok(ExitCode::SUCCESS)
}
