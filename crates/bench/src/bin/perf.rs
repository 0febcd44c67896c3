//! Perf snapshot generator: runs the full physical flow over every
//! paper benchmark N times and emits one `nanomap-perf-v1` document —
//! median/p95 wall-clock per phase plus peak memory — for the
//! `nanomap perf-diff` regression gate.
//!
//! Run: `cargo run -p nanomap-bench --release --bin perf --
//!   [--out PATH] [--runs N] [--circuit NAME] [--profile DIR]`
//!
//! Defaults: 5 runs per circuit, output to `BENCH_perf.json` at the repo
//! root (the committed perf trajectory point). `--circuit` restricts the
//! sweep (CI's perf-smoke leg measures one benchmark against the
//! full-suite baseline — `perf-diff` treats absent circuits as
//! informational).
//!
//! The N timed runs run with the collector and memory tracking off, so
//! the medians carry no telemetry cost. One further instrumented run
//! per circuit supplies `alloc_bytes`, `peak_live_bytes` and
//! `peak_rss_kb`, and with `--profile` its exact span profile:
//! `<circuit>.profile.json` + collapsed stacks.
//!
//! Every run is checked for `phase_times` self-consistency
//! ([`nanomap::PhaseTimes::reconcile`]): the per-phase microseconds may
//! undershoot the total (unitemized inter-phase work) but never exceed
//! it — a sum above the total means a phase was double-counted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap::perf::{write_profile_artifacts, PerfDocument, PerfReport};
use nanomap::{NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;

/// The allocation metrics need the counting wrapper installed in this
/// binary; it costs one relaxed load per heap call until tracking is on.
#[global_allocator]
static ALLOC: nanomap_observe::CountingAllocator = nanomap_observe::CountingAllocator::system();

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag::value("--out", "PATH", "the perf document (default BENCH_perf.json at the repo root)"),
    Flag::value("--runs", "N", "runs per circuit, at least 1 (default 5)"),
    Flag::value("--circuit", "NAME", "measure one benchmark only"),
    Flag::value("--profile", "DIR", "also write each circuit's instrumented-run span profile to DIR"),
];

static PERF: Command = Command {
    name: "perf",
    operands: "",
    about: "Runs the full physical flow over every paper benchmark N times and writes
one nanomap-perf-v1 document (per-phase median/p95 plus peak memory).",
    flags: &[FLAGS],
};

fn main() -> ExitCode {
    PERF.run(std::env::args().skip(1), measure)
}

fn measure(args: Args) -> Result<ExitCode, Error> {
    args.exactly::<0>()?;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json");
    let out = args.get("--out").map_or(default_out, PathBuf::from);
    let runs: u32 = args.num("--runs")?.unwrap_or(5);
    if runs == 0 {
        return Err(Error::usage("--runs", "must be at least 1"));
    }
    let only_circuit = args.get("--circuit");
    let profile_dir = args.get("--profile").map(Path::new);

    let flow = NanoMap::new(ArchParams::paper());
    let mut reports = Vec::new();
    let mut measured = 0usize;
    for bench in paper_benchmarks() {
        if only_circuit.is_some_and(|c| c != bench.name) {
            continue;
        }
        measured += 1;
        let map = |run: &str| {
            let report = flow
                .map(&bench.network, Objective::MinAreaDelayProduct)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            report
                .phase_times
                .reconcile()
                .unwrap_or_else(|e| panic!("{} run {run}: {e}", bench.name));
            report
        };
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in 0..runs {
            let t = map(&run.to_string()).phase_times;
            for (name, value) in t.keyed_ms() {
                samples.entry(name.to_string()).or_default().push(value);
            }
        }
        // The instrumented run, on a fresh collector epoch and memory
        // window, so its profile and memory cover exactly that run.
        nanomap_observe::reset();
        nanomap_observe::set_enabled(true);
        nanomap_observe::reset_memory();
        nanomap_observe::set_memory_tracking(true);
        let report = map("instrumented");
        nanomap_observe::set_memory_tracking(false);
        nanomap_observe::set_enabled(false);
        if let Some(dir) = profile_dir {
            let profile = nanomap_observe::snapshot().profile();
            let json_path = write_profile_artifacts(dir, bench.name, &profile)
                .map_err(|e| format!("--profile {e}"))?;
            eprintln!(
                "{}: profile {} paths, {:.1} ms exact -> {}",
                bench.name,
                profile.paths.len(),
                profile.total_us() as f64 / 1e3,
                json_path.display()
            );
        }
        let memory = report
            .memory
            .expect("memory tracking is on for the instrumented run");
        let mut perf = PerfReport::from_samples(bench.name, runs, &samples);
        perf.set("peak_live_bytes", memory.peak_live_bytes as f64);
        perf.set("alloc_bytes", memory.alloc_bytes as f64);
        if let Some(kb) = memory.peak_rss_kb {
            perf.set("peak_rss_kb", kb as f64);
        }
        eprintln!(
            "{}: median total {:.1} ms over {} runs, peak live {:.1} MiB",
            bench.name,
            perf.metrics.get("total.median_ms").copied().unwrap_or(0.0),
            runs,
            memory.peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
        reports.push(perf);
    }
    if measured == 0 {
        return Err(Error::usage("--circuit", "no benchmark matches"));
    }
    let text = PerfDocument::new(reports).to_json().to_pretty_string();
    nanomap::atomic_write_text(&out, &text).map_err(|e| e.to_string())?;
    eprintln!("perf document -> {}", out.display());
    Ok(ExitCode::SUCCESS)
}
