//! Fault-injection **yield sweep**: maps every paper benchmark across a
//! range of uniform fabric-defect rates and reports, per (circuit, rate),
//! whether the mapping succeeded, how hard the recovery ladder had to
//! work (failed attempts, rung escalations, candidate fallbacks, the
//! winning remedy) and the QoR price paid relative to the defect-free
//! run. The exact SAT rung is enabled, so every outcome is attributed:
//! mapped by a heuristic rung, rescued by `exact-assign`, *proven*
//! unmappable (typed UNSAT), or failed otherwise. The aggregate
//! per-rate yield — fraction of benchmarks that still map — lands in
//! `results/yield.json` alongside the per-run detail.
//!
//! Run: `cargo run -p nanomap-bench --release --bin yield`
//!      `[-- --rates 0,0.05,0.1,0.2,0.3] [--seed 1] [--circuit NAME]`
//!      `[--no-exact] [--sat-conflict-budget N]`
//!
//! Each SAT solve is bounded by a conflict budget (default 200k,
//! `--sat-conflict-budget`, 0 = unbounded) so the sweep's wall time stays
//! finite even on adversarial near-pigeonhole instances; an interrupted
//! solve records a plain failure, never a fake UNSAT.

use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap::{MappingReport, NanoMap, Objective};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_bench::results::write_results_json;
use nanomap_bench::table::render;
use nanomap_observe::JsonValue;

const DEFAULT_RATES: [f64; 8] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];

/// Default per-solve SAT conflict budget. The sweep is a harness, not a
/// prover of last resort: a hard near-pigeonhole instance must cost
/// seconds, not hours. Interrupted solves count as plain failures — an
/// UNSAT row is still only ever a *completed* proof.
const DEFAULT_SAT_CONFLICTS: u64 = 200_000;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag::value("--rates", "F,F,...", "defect rates to sweep, each in 0..1\n(default 0,0.02,0.05,0.1,0.15,0.2,0.25,0.3)"),
    Flag::value("--seed", "N", "defect-injection seed (default 1)"),
    Flag::value("--circuit", "NAME", "sweep one benchmark only"),
    Flag::switch("--no-exact", "leave the exact SAT recovery rung off"),
    Flag::value("--sat-conflict-budget", "N", "conflict budget per SAT solve (default 200000; 0 = unbounded)"),
];

static YIELD: Command = Command {
    name: "yield",
    operands: "",
    about: "Maps every paper benchmark across uniform fabric-defect rates and writes
the per-rate yield and per-run recovery detail to results/yield.json.",
    flags: &[FLAGS],
};

/// One benchmark mapped at one defect rate.
fn map_at_rate(
    network: &nanomap_netlist::LutNetwork,
    rate: f64,
    seed: u64,
    exact: bool,
    sat_conflicts: u64,
) -> MappingResult {
    let mut flow = NanoMap::new(ArchParams::paper());
    if rate > 0.0 {
        flow = flow.with_defects(DefectMap::uniform(rate, seed));
    }
    if exact {
        flow = flow
            .with_exact_recovery()
            .with_sat_conflict_budget(sat_conflicts);
    }
    match flow.map(network, Objective::MinAreaDelayProduct) {
        Ok(report) => MappingResult::Mapped(Box::new(report)),
        Err(e) => {
            let attempts = e.recovery_log().map_or(0, |l| l.total_attempts());
            MappingResult::Failed {
                attempts,
                unsat: matches!(e, nanomap::FlowError::ExactAssignUnsat { .. }),
                error: e.to_string(),
            }
        }
    }
}

enum MappingResult {
    Mapped(Box<MappingReport>),
    Failed {
        attempts: u32,
        /// The exact rung *proved* the fabric unmappable.
        unsat: bool,
        error: String,
    },
}

/// Per-rate outcome attribution.
#[derive(Default)]
struct RateTally {
    /// Mapped via a heuristic ladder rung (or no recovery at all).
    heuristic: u32,
    /// Rescued by the exact SAT rung after every heuristic rung failed.
    exact: u32,
    /// Proven infeasible (typed UNSAT).
    unsat: u32,
    /// Benchmarks attempted.
    total: u32,
}

fn main() -> ExitCode {
    YIELD.run(std::env::args().skip(1), sweep)
}

fn sweep(args: Args) -> Result<ExitCode, Error> {
    args.exactly::<0>()?;
    let rates = match args.get("--rates") {
        None => DEFAULT_RATES.to_vec(),
        Some(list) => list
            .split(',')
            .map(|r| r.trim().parse::<f64>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| Error::usage("--rates", format!("{list:?}: {e}")))?,
    };
    if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        return Err(Error::usage("--rates", "every rate must be in 0..1"));
    }
    let seed = args.num("--seed")?.unwrap_or(1);
    let exact = !args.has("--no-exact");
    let sat_conflicts = args
        .num("--sat-conflict-budget")?
        .unwrap_or(DEFAULT_SAT_CONFLICTS);
    let circuit = args.get("--circuit");
    let benches: Vec<_> = paper_benchmarks()
        .into_iter()
        .filter(|b| circuit.is_none_or(|c| c == b.name))
        .collect();
    if benches.is_empty() {
        return Err(Error::usage("--circuit", "no benchmark matches"));
    }

    println!(
        "Yield sweep: {} benchmark(s) x defect rates {:?} (seed {})\n",
        benches.len(),
        rates,
        seed
    );

    let mut rows = Vec::new();
    let mut json_runs = Vec::new();
    // Outcome attribution per rate, in rate order.
    let mut per_rate: Vec<RateTally> = rates.iter().map(|_| RateTally::default()).collect();

    for bench in &benches {
        // The defect-free run anchors the QoR deltas.
        let clean = match map_at_rate(&bench.network, 0.0, seed, exact, sat_conflicts) {
            MappingResult::Mapped(r) => r,
            MappingResult::Failed { error, .. } => {
                panic!(
                    "{name} fails on a defect-free fabric: {error}",
                    name = bench.name
                )
            }
        };
        let clean_delay = clean.physical.as_ref().map_or(0.0, |p| p.routed_delay_ns);
        for (slot, &rate) in rates.iter().enumerate() {
            per_rate[slot].total += 1;
            let result = map_at_rate(&bench.network, rate, seed, exact, sat_conflicts);
            // Live progress on stderr: stdout is the (buffered) report.
            eprintln!(
                "  {} @ {:>4.1}%: {}",
                bench.name,
                rate * 100.0,
                match &result {
                    MappingResult::Mapped(r)
                        if r.recovery.succeeded_with == Some(nanomap::Remedy::ExactAssign) =>
                        "rescued by exact-assign",
                    MappingResult::Mapped(_) => "ok",
                    MappingResult::Failed { unsat: true, .. } => "proven UNSAT",
                    MappingResult::Failed { .. } => "failed",
                }
            );
            let mut json = JsonValue::object()
                .with("circuit", bench.name)
                .with("rate", rate)
                .with("seed", seed);
            match result {
                MappingResult::Mapped(r) => {
                    if r.recovery.succeeded_with == Some(nanomap::Remedy::ExactAssign) {
                        per_rate[slot].exact += 1;
                    } else {
                        per_rate[slot].heuristic += 1;
                    }
                    let delay = r.physical.as_ref().map_or(0.0, |p| p.routed_delay_ns);
                    let delay_overhead = if clean_delay > 0.0 {
                        delay / clean_delay - 1.0
                    } else {
                        0.0
                    };
                    let les_overhead = f64::from(r.num_les) / f64::from(clean.num_les.max(1)) - 1.0;
                    let remedy = r.recovery.succeeded_with.map_or("baseline", |m| m.as_str());
                    json = json
                        .with("success", true)
                        .with("attempts", r.recovery.total_attempts())
                        .with("escalations", r.recovery.escalations)
                        .with("candidate_fallbacks", r.recovery.candidate_fallbacks)
                        .with("succeeded_with", remedy)
                        .with("recovery_ms", r.recovery.wall_ms())
                        .with("num_les", r.num_les)
                        .with("routed_delay_ns", delay)
                        .with("delay_overhead", delay_overhead)
                        .with("les_overhead", les_overhead);
                    rows.push(vec![
                        bench.name.to_string(),
                        format!("{:.0}%", rate * 100.0),
                        "ok".into(),
                        r.recovery.total_attempts().to_string(),
                        r.recovery.escalations.to_string(),
                        r.recovery.candidate_fallbacks.to_string(),
                        remedy.to_string(),
                        r.num_les.to_string(),
                        format!("{delay:.2}"),
                        format!("{:+.1}%", delay_overhead * 100.0),
                    ]);
                }
                MappingResult::Failed {
                    attempts,
                    unsat,
                    error,
                } => {
                    if unsat {
                        per_rate[slot].unsat += 1;
                    }
                    json = json
                        .with("success", false)
                        .with("unsat", unsat)
                        .with("attempts", attempts)
                        .with("error", error.as_str());
                    rows.push(vec![
                        bench.name.to_string(),
                        format!("{:.0}%", rate * 100.0),
                        if unsat { "UNSAT" } else { "FAIL" }.into(),
                        attempts.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
            json_runs.push(json);
        }
    }

    let header = [
        "Circuit",
        "Defects",
        "Result",
        "Attempts",
        "Escal.",
        "Fallbacks",
        "Remedy",
        "#LEs",
        "Delay (ns)",
        "dDelay",
    ];
    println!("{}", render(&header, &rows));

    println!("Yield per defect rate (heuristic rungs / exact-assign rescues / proven UNSAT):");
    let json_rates: Vec<JsonValue> = rates
        .iter()
        .zip(&per_rate)
        .map(|(&rate, tally)| {
            let mapped = tally.heuristic + tally.exact;
            let y = f64::from(mapped) / f64::from(tally.total.max(1));
            println!(
                "  {:>5.1}%: {mapped}/{} mapped ({:.0}% yield) — {} heuristic, {} exact-assign, {} UNSAT",
                rate * 100.0,
                tally.total,
                y * 100.0,
                tally.heuristic,
                tally.exact,
                tally.unsat,
            );
            JsonValue::object()
                .with("rate", rate)
                .with("mapped", mapped)
                .with("heuristic", tally.heuristic)
                .with("exact_assign", tally.exact)
                .with("unsat", tally.unsat)
                .with("total", tally.total)
                .with("yield", y)
        })
        .collect();

    write_results_json(
        "yield",
        JsonValue::object()
            .with("seed", seed)
            .with("exact_recovery", exact)
            .with("rates", JsonValue::Array(json_rates))
            .with("runs", JsonValue::Array(json_runs)),
    );
    println!("\njson: -> results/yield.json");
    Ok(ExitCode::SUCCESS)
}
