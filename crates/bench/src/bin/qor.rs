//! QoR snapshot generator: runs the full physical flow (AT-product
//! optimization, k = 16) over every paper benchmark and emits one
//! `nanomap-qor-v1` document for the regression gate.
//!
//! Run: `cargo run -p nanomap-bench --release --bin qor -- [--out PATH]
//! [--explain-dir DIR] [--ledger PATH]`
//!
//! With `--explain-dir`, one `nanomap-explain-v1` attribution artifact
//! per benchmark lands in DIR as `<circuit>.explain.json`, next to the
//! QoR numbers it explains. With `--ledger`, every benchmark mapping
//! appends a flight-recorder line to the cross-run ledger at PATH
//! (query with `nanomap runs`).
//!
//! Compare against the committed baseline with
//! `nanomap qor-diff results/qor/bench.json <PATH>` (see `scripts/qor.sh`).

use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap::qor::{QorDocument, QorReport};
use nanomap::{NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag::value("--out", "PATH", "write the QoR document to PATH"),
    Flag::value("--explain-dir", "DIR", "also write DIR/<circuit>.explain.json per benchmark"),
    Flag::value("--ledger", "PATH", "append one flight-recorder line per benchmark"),
];

static QOR: Command = Command {
    name: "qor",
    operands: "",
    about: "Maps every paper benchmark (AT product, k = 16, full physical flow) and
writes one nanomap-qor-v1 document, to stdout unless --out is given.",
    flags: &[FLAGS],
};

fn main() -> ExitCode {
    QOR.run(std::env::args().skip(1), run_suite)
}

fn run_suite(args: Args) -> Result<ExitCode, Error> {
    args.exactly::<0>()?;
    let explain_dir = args.get("--explain-dir");
    if let Some(dir) = explain_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }

    let mut flow = NanoMap::new(ArchParams::paper());
    if explain_dir.is_some() {
        flow = flow.with_explain();
    }
    let mut reports = Vec::new();
    for bench in paper_benchmarks() {
        // Each circuit gets its own collector epoch so series and spans
        // don't bleed across benchmarks.
        nanomap_observe::reset();
        nanomap_observe::set_enabled(true);
        let report = flow
            .map(&bench.network, Objective::MinAreaDelayProduct)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        if let (Some(dir), Some(explain)) = (explain_dir, &report.explain) {
            explain
                .validate()
                .unwrap_or_else(|e| panic!("{}: explain invariant violated: {e}", bench.name));
            let path = format!("{dir}/{}.explain.json", bench.name);
            nanomap::atomic_write_text(
                std::path::Path::new(&path),
                &explain.to_json().to_pretty_string(),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
        let snapshot = nanomap_observe::snapshot();
        let mut qor = QorReport::from_mapping(&report, &flow.channels, &snapshot);
        // Key by the paper's circuit name, not the generator's netlist name.
        qor.circuit = bench.name.to_string();
        if let Some(path) = args.get("--ledger") {
            let run_id = flow.run_id(&bench.network, Objective::MinAreaDelayProduct);
            let mut record = nanomap::RunRecord::for_run(
                &report,
                &flow,
                Objective::MinAreaDelayProduct,
                run_id,
                0,
            );
            record.circuit = bench.name.to_string();
            nanomap::append_run(std::path::Path::new(path), &record)
                .unwrap_or_else(|e| panic!("{}: ledger: {e}", bench.name));
        }
        eprintln!(
            "{}: {} LEs, {} SMBs, {:.2} ns routed",
            bench.name,
            report.num_les,
            report.physical.as_ref().map_or(0, |p| p.num_smbs),
            report
                .physical
                .as_ref()
                .map_or(f64::NAN, |p| p.routed_delay_ns),
        );
        reports.push(qor);
    }
    let text = QorDocument::new(reports).to_json().to_pretty_string();
    match args.get("--out") {
        Some(path) => {
            nanomap::atomic_write_text(std::path::Path::new(path), &text)
                .map_err(|e| e.to_string())?;
            eprintln!("qor document -> {path}");
        }
        None => println!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}
