//! Reproduces **Table 1**: circuit mapping results for AT-product
//! optimization — no-folding baseline vs. folding with unbounded NRAM
//! sets vs. folding with k = 16.
//!
//! Run: `cargo run -p nanomap-bench --release --bin table1 [--physical]`

use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap::{MappingReport, NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_bench::results::write_results_json;
use nanomap_bench::table::render;
use nanomap_netlist::PlaneSet;
use nanomap_observe::JsonValue;

/// The numeric core of one mapping variant, for the JSON artifact.
fn variant_json(r: &MappingReport) -> JsonValue {
    JsonValue::object()
        .with("folding_level", r.folding_level)
        .with("num_les", r.num_les)
        .with("delay_ns", r.delay_ns)
        .with("at_product", r.area_delay_product())
}

static TABLE1: Command = Command {
    name: "table1",
    operands: "",
    about: "Reproduces Table 1 (AT-product optimization): no folding vs folding with
unbounded NRAM sets vs folding with k = 16, written to results/table1.json.",
    flags: &[&[Flag::switch(
        "--physical",
        "run clustering, placement and routing too",
    )]],
};

fn main() -> ExitCode {
    TABLE1.run(std::env::args().skip(1), reproduce)
}

fn reproduce(args: Args) -> Result<ExitCode, Error> {
    args.exactly::<0>()?;
    let physical = args.has("--physical");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut sums = [0.0f64; 6]; // [area_red_inf, at_inf, delay_inc_inf, area_red_16, at_16, delay_inc_16]
    let mut count = 0.0;

    println!("Table 1: circuit mapping results for AT product optimization");
    println!("(paper values in parentheses; area = #LEs)\n");

    for bench in paper_benchmarks() {
        let planes = PlaneSet::extract(&bench.network).expect("benchmarks validate");
        let base_flow = |arch: ArchParams| {
            let flow = NanoMap::new(arch);
            if physical {
                flow
            } else {
                flow.without_physical()
            }
        };

        // No-folding baseline: delay minimization without constraints.
        let flow_inf = base_flow(ArchParams::paper_unbounded());
        let nofold = flow_inf
            .map(&bench.network, Objective::MinDelay { max_les: None })
            .expect("no-folding always maps");
        // AT optimization, unbounded k.
        let at_inf = flow_inf
            .map(&bench.network, Objective::MinAreaDelayProduct)
            .expect("AT optimization always maps");
        // AT optimization, k = 16.
        let flow_16 = base_flow(ArchParams::paper());
        let at_16 = flow_16
            .map(&bench.network, Objective::MinAreaDelayProduct)
            .expect("AT optimization always maps");

        let at_improv = |n: &nanomap::MappingReport, f: &nanomap::MappingReport| -> f64 {
            n.area_delay_product() / f.area_delay_product()
        };
        let p = &bench.paper_at;
        rows.push(vec![
            bench.name.to_string(),
            format!("{} ({})", planes.num_planes(), bench.paper.planes),
            format!("{} ({})", planes.depth_max(), bench.paper.depth),
            format!("{} ({})", bench.network.num_luts(), bench.paper.luts),
            format!("{} ({})", bench.network.num_ffs(), bench.paper.ffs),
            format!("{} ({})", nofold.num_les, p.nofold_les),
            format!("{:.2} ({:.2})", nofold.delay_ns, p.nofold_delay),
            format!(
                "{} ({})",
                at_inf.folding_level.map_or("-".into(), |l| l.to_string()),
                p.kinf_level
            ),
            format!("{} ({})", at_inf.num_les, p.kinf_les),
            format!("{:.2} ({:.2})", at_inf.delay_ns, p.kinf_delay),
            format!(
                "{:.2}x ({:.2}x)",
                at_improv(&nofold, &at_inf),
                f64::from(p.nofold_les) * p.nofold_delay / (f64::from(p.kinf_les) * p.kinf_delay)
            ),
            format!(
                "{} ({})",
                at_16.folding_level.map_or("-".into(), |l| l.to_string()),
                p.k16_level
            ),
            format!("{} ({})", at_16.num_les, p.k16_les),
            format!("{:.2} ({:.2})", at_16.delay_ns, p.k16_delay),
            format!(
                "{:.2}x ({:.2}x)",
                at_improv(&nofold, &at_16),
                f64::from(p.nofold_les) * p.nofold_delay / (f64::from(p.k16_les) * p.k16_delay)
            ),
        ]);

        json_rows.push(
            JsonValue::object()
                .with("circuit", bench.name)
                .with("num_planes", planes.num_planes() as u64)
                .with("depth_max", planes.depth_max())
                .with("num_luts", bench.network.num_luts() as u64)
                .with("num_ffs", bench.network.num_ffs() as u64)
                .with("no_folding", variant_json(&nofold))
                .with("k_unbounded", variant_json(&at_inf))
                .with("k16", variant_json(&at_16)),
        );

        sums[0] += f64::from(nofold.num_les) / f64::from(at_inf.num_les);
        sums[1] += at_improv(&nofold, &at_inf);
        sums[2] += at_inf.delay_ns / nofold.delay_ns - 1.0;
        sums[3] += f64::from(nofold.num_les) / f64::from(at_16.num_les);
        sums[4] += at_improv(&nofold, &at_16);
        sums[5] += at_16.delay_ns / nofold.delay_ns - 1.0;
        count += 1.0;
    }

    let header = [
        "Circuit",
        "#Planes",
        "Depth",
        "#LUTs",
        "#FFs",
        "NF #LEs",
        "NF delay",
        "k∞ lvl",
        "k∞ #LEs",
        "k∞ delay",
        "k∞ AT impr",
        "k16 lvl",
        "k16 #LEs",
        "k16 delay",
        "k16 AT impr",
    ];
    println!("{}", render(&header, &rows));

    println!(
        "Average (k unbounded): LE reduction {:.1}x, AT improvement {:.1}x, delay increase {:.1}%",
        sums[0] / count,
        sums[1] / count,
        100.0 * sums[2] / count
    );
    println!(
        "Average (k = 16):      LE reduction {:.1}x, AT improvement {:.1}x, delay increase {:.1}%",
        sums[3] / count,
        sums[4] / count,
        100.0 * sums[5] / count
    );
    println!("\nPaper:  14.8x LE reduction / 11.0x AT / +31.8% delay (k unbounded);");
    println!("        9.2x / 7.8x / +19.4% (k = 16).");

    let body = JsonValue::object()
        .with("circuits", JsonValue::Array(json_rows))
        .with(
            "averages",
            JsonValue::object()
                .with("kinf_le_reduction", sums[0] / count)
                .with("kinf_at_improvement", sums[1] / count)
                .with("kinf_delay_increase", sums[2] / count)
                .with("k16_le_reduction", sums[3] / count)
                .with("k16_at_improvement", sums[4] / count)
                .with("k16_delay_increase", sums[5] / count),
        );
    write_results_json("table1", body);
    println!("\njson: -> results/table1.json");
    Ok(ExitCode::SUCCESS)
}
