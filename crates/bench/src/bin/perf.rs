//! Perf snapshot generator: runs the full physical flow over every
//! paper benchmark N times and emits one `nanomap-perf-v1` document —
//! median/p95 wall-clock per phase plus peak memory — for the
//! `nanomap perf-diff` regression gate.
//!
//! Run: `cargo run -p nanomap-bench --release --bin perf --
//!   [--out PATH] [--runs N] [--circuit NAME] [--profile-dir DIR]`
//!
//! Defaults: 5 runs per circuit, output to `BENCH_perf.json` at the repo
//! root (the committed perf trajectory point). `--circuit` restricts the
//! sweep (CI's perf-smoke leg measures one benchmark against the
//! full-suite baseline — `perf-diff` treats absent circuits as
//! informational). `--profile-dir` additionally writes the exact span
//! profile of each circuit's final run: `<circuit>.profile.json` +
//! collapsed stacks.
//!
//! Every run is checked for `phase_times` self-consistency
//! ([`nanomap::PhaseTimes::reconcile`]): the per-phase sum may undershoot
//! the total (unitemized inter-phase work) but never overshoot it beyond
//! tolerance — a sum above the total means a phase was double-counted.

use std::collections::BTreeMap;
use std::path::Path;

use nanomap::perf::{PerfDocument, PerfReport};
use nanomap::{NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;

/// The allocation metrics need the counting wrapper installed in this
/// binary; it costs one relaxed load per heap call until tracking is on.
#[global_allocator]
static ALLOC: nanomap_observe::CountingAllocator = nanomap_observe::CountingAllocator::system();

/// Tolerance for the phase-times reconciliation: generous, because it
/// guards against double-counting, not against timer noise.
const RECONCILE_TOL_FRAC: f64 = 0.10;
const RECONCILE_SLACK_MS: f64 = 5.0;

fn repo_root_default_out() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_perf.json")
        .display()
        .to_string()
}

fn main() {
    let mut out = repo_root_default_out();
    let mut runs: u32 = 5;
    let mut only_circuit: Option<String> = None;
    let mut profile_dir: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = take("--out"),
            "--runs" => {
                runs = take("--runs")
                    .parse()
                    .unwrap_or_else(|e| panic!("--runs: {e}"));
                assert!(runs > 0, "--runs must be positive");
            }
            "--circuit" => only_circuit = Some(take("--circuit")),
            "--profile-dir" => profile_dir = Some(take("--profile-dir")),
            other => {
                eprintln!(
                    "usage: perf [--out PATH] [--runs N] [--circuit NAME] [--profile-dir DIR]  \
                     (unexpected `{other}`)"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = &profile_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    }

    let flow = NanoMap::new(ArchParams::paper());
    let mut reports = Vec::new();
    let mut measured = 0usize;
    for bench in paper_benchmarks() {
        if only_circuit.as_deref().is_some_and(|c| c != bench.name) {
            continue;
        }
        measured += 1;
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut peak_rss_kb: u64 = 0;
        let mut peak_live_bytes: u64 = 0;
        let mut alloc_bytes: u64 = 0;
        for run in 0..runs {
            // Fresh collector epoch and memory window per run, so the
            // final run's profile covers exactly that run.
            nanomap_observe::reset();
            nanomap_observe::set_enabled(true);
            nanomap_observe::reset_memory();
            nanomap_observe::set_memory_tracking(true);
            let report = flow
                .map(&bench.network, Objective::MinAreaDelayProduct)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            if let Some(dir) = profile_dir.as_ref().filter(|_| run + 1 == runs) {
                let profile = nanomap_observe::snapshot().profile();
                let json_path = format!("{dir}/{}.profile.json", bench.name);
                nanomap::atomic_write_text(
                    Path::new(&json_path),
                    &profile.to_json().to_pretty_string(),
                )
                .unwrap_or_else(|e| panic!("{e}"));
                nanomap::atomic_write_text(
                    Path::new(&format!("{dir}/{}.collapsed", bench.name)),
                    &profile.collapsed(),
                )
                .unwrap_or_else(|e| panic!("{e}"));
                eprintln!(
                    "{}: profile {} paths, {:.1} ms exact -> {json_path}",
                    bench.name,
                    profile.paths.len(),
                    profile.total_us() as f64 / 1e3
                );
            }
            nanomap_observe::set_memory_tracking(false);
            let t = report.phase_times;
            t.reconcile(RECONCILE_TOL_FRAC, RECONCILE_SLACK_MS)
                .unwrap_or_else(|e| panic!("{} run {run}: {e}", bench.name));
            for (name, value) in t.keyed_ms() {
                samples.entry(name.to_string()).or_default().push(value);
            }
            if let Some(memory) = &report.memory {
                peak_live_bytes = peak_live_bytes.max(memory.peak_live_bytes);
                alloc_bytes = alloc_bytes.max(memory.alloc_bytes);
                if let Some(kb) = memory.peak_rss_kb {
                    peak_rss_kb = peak_rss_kb.max(kb);
                }
            }
        }
        let mut perf = PerfReport::from_samples(bench.name, runs, &samples);
        perf.set("peak_live_bytes", peak_live_bytes as f64);
        perf.set("alloc_bytes", alloc_bytes as f64);
        if peak_rss_kb > 0 {
            perf.set("peak_rss_kb", peak_rss_kb as f64);
        }
        eprintln!(
            "{}: median total {:.1} ms over {} runs, peak live {:.1} MiB",
            bench.name,
            perf.metrics.get("total.median_ms").copied().unwrap_or(0.0),
            runs,
            peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
        reports.push(perf);
    }
    assert!(measured > 0, "no circuit matched the --circuit filter");
    let text = PerfDocument::new(reports).to_json().to_pretty_string();
    nanomap::atomic_write_text(Path::new(&out), &text).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("perf document -> {out}");
}
