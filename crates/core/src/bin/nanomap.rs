//! `nanomap` — command-line driver for the NanoMap flow.
//!
//! Every command's flags live in one table below ([`nanomap::cli`]):
//! `nanomap --help` and `nanomap <subcommand> --help` print them.
//!
//! ```text
//! nanomap <design.vhd | design.blif> [flow options] [output options]
//!   Maps the design and prints the summary. An output PATH may be `-`
//!   for stdout (at most one of --metrics/--chrome-trace/--qor/--explain/
//!   --live-status; the human-readable report then moves to stderr).
//!
//! Exit codes:
//!   0  mapping succeeded
//!   1  usage, I/O or parse error, or any other hard failure
//!   2  the recovery ladder was exhausted (attempt history on stderr)
//!   3  the time budget expired without --anytime (partial history on stderr)
//!   4  mapping succeeded but is budget-degraded (--anytime accepted it)
//!   5  --exact-recovery proved no defect-legal assignment exists (the
//!      fabric, not the heuristics, is the limit; summary on stderr)
//!
//! nanomap explain <design> [flow options] [--out PATH] [--top-k N]
//!   Runs the flow and prints the QoR attribution report: congestion and
//!   placement heatmaps, per-stage NRAM occupancy, and the top-K routed
//!   critical paths hop by hop. --out additionally writes the JSON
//!   artifact (deterministic: same seed, same bytes).
//!
//! nanomap explain --check <artifact.json>
//!   Re-validates an emitted artifact's internal invariants: the per-hop
//!   delay sums, the delay identity, and the congestion/usage
//!   reconciliation.
//!
//! nanomap profile <design> [flow options] [--top-k N] [--out DIR]
//!   Runs the flow with spans recorded and prints the top-K span paths
//!   by exact exclusive time, each with its share of its phase. --out DIR
//!   additionally writes the profile JSON + collapsed stacks.
//!
//! nanomap qor-diff [--exact] <baseline.json> <new.json>
//!   Compares two QoR documents metric-by-metric with per-metric
//!   tolerances; exits non-zero when any gated metric regresses.
//!   With --exact every gated metric must match bit for bit (the
//!   determinism gate for defect-free reruns).
//!
//! nanomap perf-diff [--rel F] [--abs-ms F] <baseline.json> <new.json>
//!   Compares two nanomap-perf-v1 documents (from the bench `perf` leg).
//!   One-sided gate: a phase median must slow down by more than BOTH the
//!   relative tolerance and the absolute guard band to fail. p95, memory
//!   metrics and circuits missing from the new document are informational.
//!
//! nanomap runs <list | show ID | trend | regress | check-stream FILE>
//!   Flight-recorder queries over the cross-run ledger. `list` tabulates
//!   run history, `show` prints one record by run-id prefix, `trend`
//!   renders per-circuit sparkline trends, `regress` flags
//!   rolling-median+MAD outliers (exit 1 when any), and `check-stream`
//!   validates a --live-status NDJSON capture. `show --trace ID` instead
//!   reconstructs one service request end to end: the `service` events in
//!   a `nanomapd --events` capture become a millisecond timeline, and the
//!   ledger record stamped with the same trace id is printed after it.
//!
//! nanomap submit <design> --addr HOST:PORT|SOCKET [options]
//!   Submits one mapping request to a running `nanomapd` with jittered
//!   exponential backoff across connect failures and retryable
//!   (`shed`/`shutdown`) rejections. Idempotent: the daemon's cache key
//!   is the netlist fingerprint + objective + seeds, so re-submission
//!   re-serves the same result byte for byte. The MappingReport JSON
//!   goes to stdout (or --report PATH); lifecycle lines and every
//!   attempt's trace id go to stderr.
//!   Exit codes: 0 served, 1 transport failure or retries exhausted,
//!   2 permanent rejection (invalid/panic/failed), 3 budget rejection.
//!
//! nanomap top --addr HOST:PORT|SOCKET [--interval-ms N] [--once]
//!   Live operator console for a running `nanomapd`: polls the `stats`
//!   op and redraws counters, gauges, shed/cache-hit rates, per-class
//!   latency percentiles, request-segment means and utilization
//!   sparklines. With --once (or stdout not a terminal) it prints one
//!   compact `nanomapd-stats-v1` JSON line and exits.
//! ```

// The CLI turns every failure into a diagnostic plus exit code; a panic
// anywhere on this path is a bug.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap::perf::{write_profile_artifacts, DEFAULT_ABS_GUARD_MS, DEFAULT_REL_TOLERANCE};
use nanomap::qor::{diff_documents, diff_documents_exact, QorDocument, QorReport};
use nanomap::runs::{self, Ledger, RunRecord, DEFAULT_LEDGER_PATH};
use nanomap::{
    atomic_write, atomic_write_text, check_artifact, diff_perf, has_regression, render_diff_table,
    Checkpoint, DesignSource, DiffEntry, DiffStatus, ExplainReport, FlowError, MappingReport,
    NanoMap, Objective, PerfDocument, DEFAULT_TOP_K,
};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_netlist::LutNetwork;
use nanomap_observe::{json, Echo, EventStream, JsonValue, MemoryReport};
use nanomap_techmap::{optimize, OptimizeStats};

/// Count every heap round-trip the flow makes. Tracking is off (one
/// relaxed load of overhead) until `--profile` turns it on.
#[global_allocator]
static ALLOC: nanomap_observe::CountingAllocator = nanomap_observe::CountingAllocator::system();

/// Default number of hot paths the profile subcommand prints.
const DEFAULT_PROFILE_TOP_K: usize = 15;

/// Exit code: the recovery ladder was exhausted.
const EXIT_RECOVERY_EXHAUSTED: u8 = 2;
/// Exit code: the time budget expired without `--anytime`.
const EXIT_BUDGET_EXHAUSTED: u8 = 3;
/// Exit code: success, but the mapping is budget-degraded.
const EXIT_DEGRADED: u8 = 4;
/// Exit code: the exact rung proved the fabric unmappable.
const EXIT_INFEASIBLE: u8 = 5;

const DESIGN: &str = "<design.vhd | design.blif>";

/// What to optimize under which budgets: the flow and `submit` both
/// take these.
#[rustfmt::skip]
const OBJECTIVE_FLAGS: &[Flag] = &[
    Flag::value("--objective", "delay|area|at", "optimization target (default: at)"),
    Flag::value("--max-les", "N", "area budget in logic elements"),
    Flag::value("--max-delay", "NS", "delay budget in nanoseconds"),
    Flag::value("--time-budget-ms", "N", "wall-clock budget for the whole mapping"),
];

/// The rest of the flow configuration. The main flow, `explain` and
/// `profile` apply it all, through [`setup`].
#[rustfmt::skip]
const FLOW_FLAGS: &[Flag] = &[
    Flag::value("--k", "N", "NRAM configuration sets (default 16; 0 = unbounded)"),
    Flag::value("--ffs-per-le", "N", "flip-flops per LE (default 2)"),
    Flag::switch("--optimize", "run the LUT-network cleanup passes first"),
    Flag::switch("--no-physical", "skip clustering/placement/routing"),
    Flag::switch("--verify", "check folded execution against simulation"),
    Flag::value("--defect-rate", "F", "inject uniform fabric defects at rate F (0..1)"),
    Flag::value("--defect-seed", "N", "seed for the defect injection (default 1)"),
    Flag::value("--defect-map", "PATH", "load an explicit defect map instead"),
    Flag::switch("--anytime", "accept a budget-degraded best-so-far mapping"),
    Flag::switch("--exact-recovery", "after the recovery ladder fails, run the\ncomplete SAT-based slot-assignment rung"),
    Flag::value("--sat-conflict-budget", "N", "cap the SAT solver at N conflicts (0 or\nomitted: unbounded; the time budget still applies)"),
    Flag::value("--checkpoint-dir", "PATH", "write a crash-safe checkpoint after each phase"),
];

/// The main flow's outputs and run modes.
#[rustfmt::skip]
const SINK_FLAGS: &[Flag] = &[
    Flag::value("--bitmap", "PATH", "write the packed binary bitstream to PATH"),
    Flag::value("--metrics", "PATH", "write spans/counters/report as JSON to PATH"),
    Flag::value("--chrome-trace", "PATH", "write a Perfetto-loadable trace to PATH"),
    Flag::value("--qor", "PATH", "write a QoR document to PATH"),
    Flag::value("--explain", "PATH", "write the QoR attribution artifact to PATH"),
    Flag::value("--resume", "PATH", "resume from a checkpoint file"),
    Flag::value("--profile", "DIR", "profile the run's spans + memory; write\nDIR/<circuit>.profile.json and DIR/<circuit>.collapsed"),
    Flag::value("--live-status", "PATH", "stream nanomap-events-v1 NDJSON (run/phase\nlifecycle + progress) to PATH as the flow runs"),
    Flag::value("--ledger", "PATH", "append a one-line flight-recorder summary of\nthis run to the ledger at PATH"),
    Flag::switch("--progress", "echo top-level phase timings to stderr"),
    Flag::switch("--trace", "echo every span to stderr as it closes"),
];

/// The flags that need the span collector recording.
const OBSERVED: [&str; 7] = [
    "--metrics",
    "--chrome-trace",
    "--qor",
    "--profile",
    "--live-status",
    "--progress",
    "--trace",
];

/// The sinks that may claim stdout with `-`.
const STDOUT_SINKS: [&str; 5] = [
    "--metrics",
    "--chrome-trace",
    "--qor",
    "--explain",
    "--live-status",
];

static FLOW: Command = Command {
    name: "nanomap",
    operands: DESIGN,
    about: "Maps a design and prints the summary. An output PATH may be `-` for stdout
(at most one output; the human-readable report then moves to stderr).
subcommands: explain, profile, qor-diff, perf-diff, runs, submit, top",
    flags: &[OBJECTIVE_FLAGS, FLOW_FLAGS, SINK_FLAGS],
};

#[rustfmt::skip]
const EXPLAIN_FLAGS: &[Flag] = &[
    Flag::value("--out", "PATH", "also write the nanomap-explain-v1 artifact"),
    Flag::value("--top-k", "N", "critical paths to print (default 5)"),
    Flag::value("--check", "ARTIFACT", "re-validate ARTIFACT's invariants instead"),
];

static EXPLAIN: Command = Command {
    name: "nanomap explain",
    operands: DESIGN,
    about: "Maps the design and prints the QoR attribution report.",
    flags: &[OBJECTIVE_FLAGS, FLOW_FLAGS, EXPLAIN_FLAGS],
};

#[rustfmt::skip]
const PROFILE_FLAGS: &[Flag] = &[
    Flag::value("--out", "DIR", "also write the profile JSON + collapsed stacks"),
    Flag::value("--top-k", "N", "hot paths to print (default 15)"),
];

static PROFILE: Command = Command {
    name: "nanomap profile",
    operands: DESIGN,
    about: "Maps the design and prints the hottest span paths by exclusive time.",
    flags: &[OBJECTIVE_FLAGS, FLOW_FLAGS, PROFILE_FLAGS],
};

#[rustfmt::skip]
const QOR_DIFF_FLAGS: &[Flag] = &[
    Flag::switch("--exact", "every gated metric must match bit for bit"),
];

static QOR_DIFF: Command = Command {
    name: "nanomap qor-diff",
    operands: "<baseline.json> <new.json>",
    about: "Gates a QoR document against a baseline; exit 1 on a regression.",
    flags: &[QOR_DIFF_FLAGS],
};

#[rustfmt::skip]
const PERF_DIFF_FLAGS: &[Flag] = &[
    Flag::value("--rel", "F", "relative tolerance (default 1.0 = 100%)"),
    Flag::value("--abs-ms", "F", "absolute guard band in ms (default 25)"),
];

static PERF_DIFF: Command = Command {
    name: "nanomap perf-diff",
    operands: "<baseline.json> <new.json>",
    about: "Gates phase medians against a baseline perf document: exit 1 when one
slows down by more than both tolerances.",
    flags: &[PERF_DIFF_FLAGS],
};

#[rustfmt::skip]
const RUNS_FLAGS: &[Flag] = &[
    Flag::value("--ledger", "PATH", "the ledger (default results/runs/ledger.jsonl)"),
    Flag::value("--benchmark", "B", "only runs of circuit B"),
    Flag::value("--field", "F", "metric to trend (repeatable) or regress on"),
    Flag::value("--window", "N", "regress: rolling-median window (default 8)"),
    Flag::value("--k", "F", "regress: MAD multiplier (default 4)"),
    Flag::value("--trace", "ID", "show: the service request with this trace id"),
    Flag::value("--events", "PATH", "show --trace: a nanomapd --events capture"),
];

static RUNS: Command = Command {
    name: "nanomap runs",
    operands: "<list | show ID | trend | regress | check-stream FILE>",
    about: "Queries the flight-recorder ledger, or validates a --live-status capture.",
    flags: &[RUNS_FLAGS],
};

#[rustfmt::skip]
const SUBMIT_FLAGS: &[Flag] = &[
    Flag::value("--addr", "HOST:PORT|SOCKET", "the daemon (required)"),
    Flag::value("--id", "STR", "request id (default cli-<pid>)"),
    Flag::value("--retries", "N", "attempts before giving up"),
    Flag::value("--backoff-ms", "MS", "base backoff between attempts"),
    Flag::value("--retry-seed", "N", "backoff jitter seed"),
    Flag::value("--report", "PATH|-", "where the report goes (default stdout)"),
    Flag::value("--trace-id", "STR", "propagate this trace id"),
];

static SUBMIT: Command = Command {
    name: "nanomap submit",
    operands: DESIGN,
    about: "Submits one mapping request to a running nanomapd, retrying with backoff.
exit codes: 0 served, 1 transport failure or retries exhausted,
2 permanent rejection (invalid/panic/failed), 3 budget rejection",
    flags: &[OBJECTIVE_FLAGS, SUBMIT_FLAGS],
};

#[rustfmt::skip]
const TOP_FLAGS: &[Flag] = &[
    Flag::value("--addr", "HOST:PORT|SOCKET", "the daemon (required)"),
    Flag::value("--interval-ms", "N", "poll interval (default 1000)"),
    Flag::switch("--once", "print one stats line and exit"),
];

static TOP: Command = Command {
    name: "nanomap top",
    operands: "",
    about: "Live console for a running nanomapd; one stats JSON line when piped.",
    flags: &[TOP_FLAGS],
};

/// Writes formatted text to stdout, tolerating a closed pipe: when the
/// reader goes away (`nanomap --qor - | head`), the write is silently
/// dropped and the process keeps going toward a clean exit instead of
/// panicking the way `println!` would. Other write errors surface on
/// stderr.
fn stdout_write(text: std::fmt::Arguments<'_>, newline: bool) {
    let mut out = std::io::stdout().lock();
    let result = out.write_fmt(text).and_then(|()| {
        if newline {
            out.write_all(b"\n")
        } else {
            Ok(())
        }
    });
    if let Err(e) = result {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
        }
    }
}

/// `println!`, minus the broken-pipe panic.
macro_rules! outln {
    ($($t:tt)*) => { stdout_write(format_args!($($t)*), true) };
}

/// `print!`, minus the broken-pipe panic.
macro_rules! out {
    ($($t:tt)*) => { stdout_write(format_args!($($t)*), false) };
}

/// Reads `path` and parses it, prefixing either failure with the path.
fn load_file<T, E: Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes `text` to `path`, or to stdout when `path` is `-`. File writes
/// are atomic (temp file + rename): a killed run leaves the previous
/// artifact intact, never a truncated one.
fn write_sink(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        outln!("{text}");
        Ok(())
    } else {
        atomic_write_text(Path::new(path), text).map_err(|e| e.to_string())
    }
}

/// Opens the `--live-status` sink: stdout for `-`, otherwise a fresh
/// file at PATH (the stream is line-oriented NDJSON, written live —
/// a crash leaves a valid prefix, so no atomic-rename dance applies).
fn open_live_sink(path: &str) -> Result<Box<dyn std::io::Write + Send>, String> {
    if path == "-" {
        Ok(Box::new(std::io::stdout()))
    } else {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("--live-status {path}: {e}"))?;
            }
        }
        let file = std::fs::File::create(path).map_err(|e| format!("--live-status {path}: {e}"))?;
        Ok(Box::new(file))
    }
}

/// What the flow-configuration flags build.
struct Setup {
    net: LutNetwork,
    objective: Objective,
    flow: NanoMap,
    /// The `--optimize` cleanup's statistics, when it ran.
    optimized: Option<OptimizeStats>,
}

/// Applies every flow-configuration flag ([`FLOW_FLAGS`]): checks them
/// all, then loads (and optionally cleans up) the design and builds the
/// flow for it.
fn setup(args: &Args) -> Result<Setup, Error> {
    let [input] = args.exactly()?;
    let k = args.num("--k")?.unwrap_or(16);
    let arch = ArchParams {
        num_reconf: if k == 0 { u32::MAX } else { k },
        ffs_per_le: args.num("--ffs-per-le")?.unwrap_or(2),
        ..ArchParams::paper()
    };
    let objective = Objective::from_goal(
        args.get("--objective").unwrap_or("at"),
        args.num("--max-les")?,
        args.num("--max-delay")?,
    )
    .map_err(|e| Error::usage("--objective", e))?;
    let defect_rate: Option<f64> = args.num("--defect-rate")?;
    if let Some(rate) = defect_rate.filter(|r| !(0.0..=1.0).contains(r)) {
        return Err(Error::usage(
            "--defect-rate",
            format!("{rate} is outside 0..1"),
        ));
    }
    if defect_rate.is_some() && args.has("--defect-map") {
        return Err(Error::usage(
            "--defect-rate",
            "cannot be combined with --defect-map (mutually exclusive)",
        ));
    }
    let defect_seed = args.num("--defect-seed")?.unwrap_or(1);
    let time_budget_ms = args.num("--time-budget-ms")?;
    let sat_conflict_budget = args.num("--sat-conflict-budget")?;

    let mut net = DesignSource::Path(input.to_string()).load(arch.lut_inputs)?;
    let optimized = args.has("--optimize").then(|| {
        let (cleaned, stats) = optimize(&net);
        net = cleaned;
        stats
    });
    let mut flow = NanoMap::new(arch);
    if let Some(path) = args.get("--defect-map") {
        flow = flow.with_defects(load_file(path, DefectMap::parse)?);
    } else if let Some(rate) = defect_rate.filter(|r| *r > 0.0) {
        flow = flow.with_defects(DefectMap::uniform(rate, defect_seed));
    }
    if args.has("--no-physical") {
        flow = flow.without_physical();
    }
    if args.has("--verify") {
        flow = flow.with_verification();
    }
    if let Some(budget) = time_budget_ms {
        flow = flow.with_budget_ms(budget);
    }
    if args.has("--anytime") {
        flow = flow.with_anytime();
    }
    if args.has("--exact-recovery") {
        flow = flow.with_exact_recovery();
    }
    if let Some(budget) = sat_conflict_budget {
        flow = flow.with_sat_conflict_budget(budget);
    }
    if let Some(dir) = args.get("--checkpoint-dir") {
        flow = flow.with_checkpoint_dir(dir);
    }
    Ok(Setup {
        net,
        objective,
        flow,
        optimized,
    })
}

/// `nanomap explain ...`: run the flow with QoR attribution enabled and
/// print the heatmaps plus top-K critical paths; `--check FILE` instead
/// re-validates an already-emitted artifact.
fn explain_main(args: Args) -> Result<ExitCode, Error> {
    if let Some(path) = args.get("--check") {
        if !args.operands().is_empty() || args.flags().count() > 1 {
            return Err(Error::usage("--check", "takes no design and no other flag"));
        }
        let doc = load_file(path, json::parse)?;
        check_artifact(&doc).map_err(|e| format!("{path}: {e}"))?;
        outln!("{path}: OK");
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--no-physical") {
        return Err(Error::usage(
            "--no-physical",
            "explain needs the physical flow (drop --no-physical)",
        ));
    }
    let top_k = args.num("--top-k")?.unwrap_or(DEFAULT_TOP_K);
    let out_path = args.get("--out");
    let setup = setup(&args)?;
    let mut flow = setup.flow.with_explain();
    flow.explain_top_k = top_k;
    let report = flow
        .map(&setup.net, setup.objective)
        .map_err(|e| e.to_string())?;
    let explain = report
        .explain
        .ok_or_else(|| "flow finished without attribution data".to_string())?;
    let doc = explain.to_json();
    check_artifact(&doc).map_err(|e| format!("artifact invariant violated: {e}"))?;
    // When `--out -` claims stdout for the JSON, the text report moves to
    // stderr (mirroring the main flow's sink convention).
    let text = explain.render_text(top_k);
    if out_path == Some("-") {
        eprint!("{text}");
    } else {
        out!("{text}");
    }
    if let Some(path) = out_path {
        write_sink(path, &doc.to_pretty_string())?;
        if path != "-" {
            outln!("\nartifact: -> {path}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `nanomap qor-diff [--exact] <baseline.json> <new.json>`: the
/// regression gate (with `--exact`, the determinism gate).
fn qor_diff_main(args: Args) -> Result<ExitCode, Error> {
    let [baseline_path, new_path] = args.exactly()?;
    let exact = args.has("--exact");
    let baseline = load_file(baseline_path, QorDocument::parse)?;
    let new = load_file(new_path, QorDocument::parse)?;
    let entries = if exact {
        diff_documents_exact(&baseline, &new)
    } else {
        diff_documents(&baseline, &new)
    };
    // Keep the table focused: silent on in-tolerance info metrics.
    let show = |e: &DiffEntry| {
        e.status.fails()
            || matches!(e.status, DiffStatus::MissingInBaseline)
            || e.tolerance.is_some()
    };
    let gate = if exact {
        "QoR gate (exact)"
    } else {
        "QoR gate"
    };
    Ok(print_gate(gate, "", &entries, show))
}

/// Prints the diff rows `show` keeps, then the verdict line of `gate`
/// (`detail` is appended inside its parentheses); exit 1 on a
/// regression.
fn print_gate(
    gate: &str,
    detail: &str,
    entries: &[DiffEntry],
    show: impl Fn(&DiffEntry) -> bool,
) -> ExitCode {
    let (lines, failures) = render_diff_table(entries, show);
    for line in lines {
        outln!("{line}");
    }
    if has_regression(entries) {
        outln!("{gate}: FAIL ({failures} regressed metrics{detail})");
        ExitCode::FAILURE
    } else {
        outln!("{gate}: PASS ({} metrics compared{detail})", entries.len());
        ExitCode::SUCCESS
    }
}

/// `nanomap perf-diff [--rel F] [--abs-ms F] <baseline.json> <new.json>`:
/// the performance regression gate over `nanomap-perf-v1` documents.
fn perf_diff_main(args: Args) -> Result<ExitCode, Error> {
    let [baseline_path, new_path] = args.exactly()?;
    let non_negative = |flag: &str, default: f64| match args.num::<f64>(flag)? {
        Some(v) if v.is_nan() || v < 0.0 => Err(Error::usage(flag, format!("{v} must be >= 0"))),
        v => Ok(v.unwrap_or(default)),
    };
    let rel = non_negative("--rel", DEFAULT_REL_TOLERANCE)?;
    let abs_ms = non_negative("--abs-ms", DEFAULT_ABS_GUARD_MS)?;
    let baseline = load_file(baseline_path, PerfDocument::parse)?;
    let new = load_file(new_path, PerfDocument::parse)?;
    let entries = diff_perf(&baseline, &new, rel, abs_ms);
    // Show gated medians plus anything that failed; skip the
    // info-only p95/memory rows unless they are new metrics.
    let show = |e: &DiffEntry| e.status.fails() || e.tolerance.is_some();
    let detail = format!(", rel {rel}, abs {abs_ms} ms");
    Ok(print_gate("perf gate", &detail, &entries, show))
}

/// One line of allocation counters (and peak RSS when measured).
fn memory_summary(memory: &MemoryReport) -> String {
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let rss = memory.peak_rss_kb.map_or(String::new(), |kb| {
        format!(", peak RSS {:.1} MiB", kb as f64 / 1024.0)
    });
    format!(
        "{} allocs, {:.1} MiB allocated, peak live {:.1} MiB{rss}",
        memory.alloc_count,
        mib(memory.alloc_bytes),
        mib(memory.peak_live_bytes)
    )
}

/// Opens the window a profile covers: clears the collector, so the
/// profile holds exactly the mapping run, and starts memory tracking.
/// Runs without `--profile` never call this, keeping their artifacts
/// byte-identical.
fn start_profiled_window() {
    nanomap_observe::reset();
    nanomap_observe::reset_memory();
    nanomap_observe::set_memory_tracking(true);
}

/// `nanomap profile ...`: run the flow with spans recorded and print the
/// top-K span paths by exact exclusive time.
fn profile_main(args: Args) -> Result<ExitCode, Error> {
    let top_k = args.num("--top-k")?.unwrap_or(DEFAULT_PROFILE_TOP_K);
    nanomap_observe::set_enabled(true);
    let setup = setup(&args)?;
    start_profiled_window();
    let report = setup
        .flow
        .map(&setup.net, setup.objective)
        .map_err(|e| e.to_string())?;
    let profile = nanomap_observe::snapshot().profile();
    outln!("{}", report.summary());
    out!("{}", profile.render_top(top_k));
    if let Some(dir) = args.get("--out") {
        match write_profile_artifacts(Path::new(dir), &report.circuit, &profile) {
            Ok(path) => outln!("profile: -> {}", path.display()),
            Err(e) => eprintln!("warning: --out {e}"),
        }
    }
    if let Some(memory) = &report.memory {
        outln!("memory: {}", memory_summary(memory));
    }
    Ok(ExitCode::SUCCESS)
}

/// `nanomap runs ...`: flight-recorder queries over the cross-run
/// ledger — `list`, `show <id>`, `trend`, `regress`, `check-stream`.
fn runs_main(args: Args) -> Result<ExitCode, Error> {
    let ledger_path = args.get("--ledger").unwrap_or(DEFAULT_LEDGER_PATH);
    let benchmark = args.get("--benchmark");
    let fields = args.all("--field");
    let window = args.num("--window")?.unwrap_or(runs::REGRESS_WINDOW);
    let k = args.num("--k")?.unwrap_or(runs::REGRESS_K);
    let wrong_operands = || Error::usage(RUNS.name, format!("expects {}", RUNS.operands));
    // The verb is the first operand, so flags may come first.
    let Some((verb, operands)) = args.operands().split_first() else {
        return Err(wrong_operands());
    };
    // check-stream reads an event capture, not the ledger.
    if verb == "check-stream" {
        let [path] = operands else {
            return Err(wrong_operands());
        };
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        let check = runs::check_stream(&text).map_err(|e| format!("{path}: {e}"))?;
        outln!(
            "{path}: OK ({} events, run {}, exit {}, total {:.1} ms)",
            check.events,
            check.run_id,
            check.exit_code,
            check.total_ms
        );
        return Ok(ExitCode::SUCCESS);
    }
    if !matches!(verb.as_str(), "list" | "show" | "trend" | "regress") {
        return Err(wrong_operands());
    }
    let ledger = Ledger::load(Path::new(ledger_path))?;
    if !ledger.skipped_lines.is_empty() {
        eprintln!(
            "warning: {ledger_path}: skipped {} malformed line(s): {:?}",
            ledger.skipped_lines.len(),
            ledger.skipped_lines
        );
    }
    match verb.as_str() {
        "list" => {
            outln!(
                "{:<18} {:<14} {:<10} {:>8} {:>10} {:>10} {:>9}",
                "run",
                "circuit",
                "status",
                "les",
                "delay_ns",
                "total_ms",
                "Δtotal"
            );
            // Remember each circuit's previous total to show the delta
            // against the run one line up in its own history.
            let mut last_total: std::collections::BTreeMap<&str, f64> =
                std::collections::BTreeMap::new();
            for r in &ledger.records {
                if benchmark.is_some_and(|b| b != r.circuit) {
                    continue;
                }
                let total = r.phase_ms.get("total_ms").copied().unwrap_or(f64::NAN);
                let delta = last_total
                    .insert(r.circuit.as_str(), total)
                    .map_or("-".to_string(), |prev| format!("{:+.1}", total - prev));
                let les = r
                    .metrics
                    .get("num_les")
                    .map_or("-".to_string(), |v| format!("{v:.0}"));
                let delay = r
                    .metrics
                    .get("delay_ns")
                    .map_or("-".to_string(), |v| format!("{v:.2}"));
                outln!(
                    "{:<18} {:<14} {:<10} {:>8} {:>10} {:>10.1} {:>9}",
                    &r.run_id[..r.run_id.len().min(16)],
                    r.circuit,
                    r.status(),
                    les,
                    delay,
                    total,
                    delta
                );
            }
            outln!("{} runs in {ledger_path}", ledger.records.len());
            Ok(ExitCode::SUCCESS)
        }
        // --trace flips show from run-id lookup to service-request
        // reconstruction: the event capture gives the timeline
        // (queue/slice/coalesce stages), the ledger the run record.
        "show" => match args.get("--trace") {
            Some(trace) => {
                let mut found = false;
                if let Some(path) = args.get("--events") {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    let timeline = runs::trace_timeline(&text, trace);
                    if timeline.is_empty() {
                        eprintln!("warning: no service events for trace {trace} in {path}");
                    } else {
                        found = true;
                        outln!("trace {trace} ({} events):", timeline.len());
                        for line in runs::render_trace_timeline(&timeline) {
                            outln!("{line}");
                        }
                    }
                }
                match ledger.find_by_trace(trace) {
                    Some(record) => outln!("{}", record.to_json().to_pretty_string()),
                    None if found => eprintln!(
                        "note: no ledger record stamped with trace {trace} in {ledger_path}"
                    ),
                    None => return Err(format!("trace {trace} not found in {ledger_path}").into()),
                }
                Ok(ExitCode::SUCCESS)
            }
            None => {
                let [prefix] = operands else {
                    return Err(wrong_operands());
                };
                let record = ledger
                    .find(prefix)
                    .ok_or_else(|| format!("no run matching `{prefix}` in {ledger_path}"))?;
                outln!("{}", record.to_json().to_pretty_string());
                Ok(ExitCode::SUCCESS)
            }
        },
        "trend" => {
            let names = if fields.is_empty() {
                vec!["num_les", "delay_ns", "total_ms"]
            } else {
                fields
            };
            let rows = runs::trend(&ledger, benchmark, &names);
            if rows.is_empty() {
                outln!("no matching runs in {ledger_path}");
                return Ok(ExitCode::SUCCESS);
            }
            outln!(
                "{:<14} {:<20} {:>4} {:>12} {:>12} {:>12}  trend",
                "circuit",
                "field",
                "runs",
                "min",
                "max",
                "last"
            );
            for row in rows {
                outln!("{}", row.render());
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let field = fields.first().copied().unwrap_or("total_ms");
            let outliers = runs::regress(&ledger, benchmark, field, window, k);
            if outliers.is_empty() {
                outln!("regress: OK (field {field}, window {window}, k {k})");
                return Ok(ExitCode::SUCCESS);
            }
            for o in &outliers {
                outln!("{}", o.render());
            }
            outln!(
                "regress: {} outlier(s) flagged (field {field}, window {window}, k {k})",
                outliers.len()
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `nanomap submit <design> --addr ADDR [...]`: the retry/backoff
/// client for a running `nanomapd`. Transport failures and retryable
/// rejections back off with jitter; permanent rejections map to the
/// same exit-code vocabulary the local flow uses.
fn submit_main(args: Args) -> Result<ExitCode, Error> {
    let [design] = args.exactly()?;
    let addr = args
        .get("--addr")
        .ok_or_else(|| Error::usage("--addr", "is required"))?;
    let mut policy = nanomap::RetryPolicy::default();
    policy.max_attempts = args.num("--retries")?.unwrap_or(policy.max_attempts);
    policy.base_backoff_ms = args.num("--backoff-ms")?.unwrap_or(policy.base_backoff_ms);
    policy.seed = args.num("--retry-seed")?.unwrap_or(policy.seed);
    let report_sink = args.get("--report");
    let request = nanomap::MapRequest {
        id: args
            .get("--id")
            .map_or_else(|| format!("cli-{}", std::process::id()), str::to_string),
        source: DesignSource::Path(design.to_string()),
        objective: args.get("--objective").unwrap_or("at").to_string(),
        max_les: args.num("--max-les")?,
        max_delay_ns: args.num("--max-delay")?,
        time_budget_ms: args.num("--time-budget-ms")?,
        trace_id: args.get("--trace-id").map(str::to_string),
    };
    let submission = nanomap::submit_with_retry(addr, &request, &policy)?;
    // Retryable rejections absorbed along the way each carry the
    // server-assigned trace, so shed attempts stay attributable.
    for rejection in &submission.rejections {
        eprintln!(
            "submit: retried after {} rejection (trace {})",
            rejection.code.as_deref().unwrap_or("?"),
            rejection.trace_id.as_deref().unwrap_or("-")
        );
    }
    for event in &submission.lifecycle {
        match event {
            nanomap::Response::Queued { depth } => eprintln!("submit: queued (depth {depth})"),
            nanomap::Response::Started => eprintln!("submit: started"),
            nanomap::Response::Preempted => eprintln!("submit: preempted (checkpoint held)"),
            nanomap::Response::Resumed => eprintln!("submit: resumed from checkpoint"),
            _ => {}
        }
    }
    let result = &submission.result;
    if result.ok {
        eprintln!(
            "submit: ok run {} (cache {}, attempt {}, trace {})",
            result.run_id.as_deref().unwrap_or("-"),
            result.cache.as_deref().unwrap_or("-"),
            submission.attempts,
            result.trace_id.as_deref().unwrap_or("-")
        );
        let report = result.report_text.as_deref().unwrap_or("{}");
        match report_sink {
            None | Some("-") => outln!("{report}"),
            Some(path) => {
                atomic_write_text(Path::new(path), report).map_err(|e| e.to_string())?;
                eprintln!("submit: report -> {path}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "error: request rejected ({}): {} (trace {})",
        result.code.as_deref().unwrap_or("?"),
        result.detail.as_deref().unwrap_or("no detail"),
        result.trace_id.as_deref().unwrap_or("-")
    );
    // A rejection with --report still writes a small typed document so
    // scripted callers get the trace id without scraping stderr.
    if let Some(path) = report_sink.filter(|p| *p != "-") {
        let mut doc = JsonValue::object()
            .with("schema", nanomap::SERVICE_SCHEMA)
            .with("status", "error")
            .with("request", result.request.as_str())
            .with("code", result.code.as_deref().unwrap_or("?"));
        if let Some(trace) = &result.trace_id {
            doc.set("trace_id", trace.as_str());
        }
        if let Some(detail) = &result.detail {
            doc.set("detail", detail.as_str());
        }
        if let Err(e) = atomic_write_text(Path::new(path), &doc.to_compact_string()) {
            eprintln!("error: {e}");
        }
    }
    Ok(match result.code.as_deref() {
        Some(nanomap::service::code::BUDGET) => ExitCode::from(EXIT_BUDGET_EXHAUSTED),
        Some(_) => ExitCode::from(EXIT_RECOVERY_EXHAUSTED),
        None => ExitCode::FAILURE,
    })
}

/// Latency classes `top` tabulates, in the daemon's fixed schema order.
const TOP_CLASSES: [&str; 7] = [
    "ok", "shed", "shutdown", "invalid", "panic", "budget", "failed",
];

/// How many poll samples each `top` sparkline keeps.
const TOP_HISTORY: usize = 60;

/// Reads an integer counter/gauge out of a nested stats object.
fn stat_int(doc: &JsonValue, group: &str, name: &str) -> i64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(JsonValue::as_int)
        .unwrap_or(0)
}

/// Renders one polled stats document as the live console frame.
fn render_top_frame(addr: &str, doc: &JsonValue, histories: &[(&str, &[f64])]) -> String {
    use std::fmt::Write as _;
    let mut frame = String::new();
    let uptime_s = doc
        .get("uptime_ms")
        .and_then(JsonValue::as_int)
        .unwrap_or(0) as f64
        / 1000.0;
    let version = doc
        .get("version")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let draining = doc
        .get("draining")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let _ = writeln!(
        frame,
        "{version} @ {addr} — up {uptime_s:.1} s{}",
        if draining { "  [DRAINING]" } else { "" }
    );
    let served = stat_int(doc, "counters", "served");
    let shed = stat_int(doc, "counters", "shed");
    let cache_hits = stat_int(doc, "counters", "cache_hits");
    let _ = writeln!(
        frame,
        "counters  served {served}  shed {shed}  panics {}  failures {}  cache_hits {cache_hits}  preemptions {}",
        stat_int(doc, "counters", "panics"),
        stat_int(doc, "counters", "failures"),
        stat_int(doc, "counters", "preemptions"),
    );
    let _ = writeln!(
        frame,
        "gauges    queue {}  inflight {}/{} workers  cache {} entries / {} bytes",
        stat_int(doc, "gauges", "queue_depth"),
        stat_int(doc, "gauges", "inflight"),
        stat_int(doc, "gauges", "workers"),
        stat_int(doc, "gauges", "cache_entries"),
        stat_int(doc, "gauges", "cache_bytes"),
    );
    let admitted = served + shed;
    let shed_pct = if admitted > 0 {
        100.0 * shed as f64 / admitted as f64
    } else {
        0.0
    };
    let hit_pct = if served > 0 {
        100.0 * cache_hits as f64 / served as f64
    } else {
        0.0
    };
    let _ = writeln!(
        frame,
        "rates     shed {shed_pct:.1}%  cache hit {hit_pct:.1}%"
    );
    let _ = writeln!(
        frame,
        "\n{:<10} {:>8} {:>10} {:>10} {:>10}  (latency, ms)",
        "class", "count", "p50", "p95", "p99"
    );
    for class in TOP_CLASSES {
        let Some(hist) = doc.get("latency_us").and_then(|l| l.get(class)) else {
            continue;
        };
        let count = hist.get("count").and_then(JsonValue::as_int).unwrap_or(0);
        if count == 0 {
            continue;
        }
        let ms = |name: &str| hist.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0) / 1000.0;
        let _ = writeln!(
            frame,
            "{class:<10} {count:>8} {:>10.3} {:>10.3} {:>10.3}",
            ms("p50"),
            ms("p95"),
            ms("p99")
        );
    }
    let seg_mean = |name: &str| {
        doc.get("segments_us")
            .and_then(|s| s.get(name))
            .and_then(|h| h.get("mean"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            / 1000.0
    };
    let _ = writeln!(
        frame,
        "\nsegments  queue {:.3} ms  compute {:.3} ms  cache {:.3} ms  serialize {:.3} ms  (mean)",
        seg_mean("queue"),
        seg_mean("compute"),
        seg_mean("cache"),
        seg_mean("serialize"),
    );
    for (label, history) in histories {
        if history.iter().any(|v| *v > 0.0) {
            let _ = writeln!(frame, "{:<10} {}", label, runs::sparkline(history));
        }
    }
    frame
}

/// `nanomap top --addr ADDR [...]`: the live operator console. Polls
/// the daemon's `stats` op and redraws; `--once` (or a non-terminal
/// stdout, so `nanomap top | head` just works) prints a single compact
/// `nanomapd-stats-v1` line instead.
fn top_main(args: Args) -> Result<ExitCode, Error> {
    args.exactly::<0>()?;
    let addr = args
        .get("--addr")
        .ok_or_else(|| Error::usage("--addr", "is required"))?;
    let interval_ms: u64 = args.num("--interval-ms")?.unwrap_or(1_000);
    // A pipe or file on stdout degrades to single-snapshot NDJSON: the
    // ANSI dashboard is for humans at a terminal only.
    let live = !args.has("--once") && std::io::IsTerminal::is_terminal(&std::io::stdout());
    if !live {
        let doc = nanomap::query_stats(addr, 5_000)?;
        outln!("{}", doc.to_compact_string());
        return Ok(ExitCode::SUCCESS);
    }
    let mut util_history: Vec<f64> = Vec::new();
    let mut queue_history: Vec<f64> = Vec::new();
    let mut served_history: Vec<f64> = Vec::new();
    let mut last_served: Option<i64> = None;
    let mut failures = 0u32;
    loop {
        match nanomap::query_stats(addr, 5_000) {
            Ok(doc) => {
                failures = 0;
                let workers = stat_int(&doc, "gauges", "workers").max(1);
                let push = |history: &mut Vec<f64>, v: f64| {
                    history.push(v);
                    if history.len() > TOP_HISTORY {
                        history.remove(0);
                    }
                };
                push(
                    &mut util_history,
                    stat_int(&doc, "gauges", "inflight") as f64 / workers as f64,
                );
                push(
                    &mut queue_history,
                    stat_int(&doc, "gauges", "queue_depth") as f64,
                );
                let served = stat_int(&doc, "counters", "served");
                push(
                    &mut served_history,
                    (served - last_served.unwrap_or(served)) as f64,
                );
                last_served = Some(served);
                let frame = render_top_frame(
                    addr,
                    &doc,
                    &[
                        ("util", &util_history),
                        ("queue", &queue_history),
                        ("served/s", &served_history),
                    ],
                );
                // Clear + home, then the frame in one write to keep
                // redraws flicker-free.
                out!("\u{1b}[2J\u{1b}[H{frame}");
            }
            Err(e) => {
                // One missed poll is a blip (daemon restarting, socket
                // backlog); three in a row means it is gone.
                failures += 1;
                eprintln!("top: {e} ({failures}/3)");
                if failures >= 3 {
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    type Main = fn(Args) -> Result<ExitCode, Error>;
    let (command, body): (&'static Command, Main) = match argv.first().map(String::as_str) {
        Some("explain") => (&EXPLAIN, explain_main),
        Some("profile") => (&PROFILE, profile_main),
        Some("qor-diff") => (&QOR_DIFF, qor_diff_main),
        Some("perf-diff") => (&PERF_DIFF, perf_diff_main),
        Some("runs") => (&RUNS, runs_main),
        Some("submit") => (&SUBMIT, submit_main),
        Some("top") => (&TOP, top_main),
        _ => return FLOW.run(argv, flow_main),
    };
    command.run(argv.into_iter().skip(1), body)
}

/// The main flow: map one design, print the summary, write the sinks.
fn flow_main(args: Args) -> Result<ExitCode, Error> {
    let claimed: Vec<&str> = STDOUT_SINKS
        .into_iter()
        .filter(|flag| args.get(flag) == Some("-"))
        .collect();
    if let [first, _, ..] = claimed[..] {
        let all = claimed.join(" and ");
        let reason = format!("only one output may write to stdout: {all} all say `-`");
        return Err(Error::usage(first, reason));
    }
    let explain_path = args.get("--explain");
    if explain_path.is_some() && args.has("--no-physical") {
        return Err(Error::usage(
            "--explain",
            "needs the physical flow (drop --no-physical)",
        ));
    }
    let (progress, trace) = (args.has("--progress"), args.has("--trace"));
    // The human-readable report moves to stderr when a JSON sink owns stdout.
    let stdout_claimed = !claimed.is_empty();
    macro_rules! report {
        ($($t:tt)*) => {
            if stdout_claimed {
                eprintln!($($t)*);
            } else {
                outln!($($t)*);
            }
        };
    }
    // Observability: the JSON sinks need the collector recording; --progress
    // and --trace additionally echo spans to stderr as they close.
    if OBSERVED.iter().any(|flag| args.has(flag)) {
        nanomap_observe::set_enabled(true);
    }
    if trace {
        nanomap_observe::set_echo(Echo::Trace);
    } else if progress {
        nanomap_observe::set_echo(Echo::Progress);
    }
    let Setup {
        net,
        objective,
        mut flow,
        optimized,
    } = setup(&args)?;
    if let Some(stats) = optimized {
        report!(
            "optimize: {} -> {} LUTs ({:.1}% removed, {} iterations)",
            stats.luts_before,
            stats.luts_after,
            100.0 * stats.reduction(),
            stats.iterations
        );
    }
    if explain_path.is_some() {
        flow = flow.with_explain();
    }
    if args.has("--bitmap") {
        flow = flow.with_bitstream();
    }
    let channels = flow.channels;
    // --live-status: start the event-bus streaming thread before the
    // flow so run-start is the first line out. The stream never blocks
    // or fails the mapping — a broken sink degrades to a warning.
    let mut live: Option<EventStream> = None;
    if let Some(path) = args.get("--live-status") {
        match open_live_sink(path) {
            Ok(sink) => live = Some(EventStream::spawn(sink)),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    let run_id =
        (args.has("--live-status") || args.has("--ledger")).then(|| flow.run_id(&net, objective));
    if args.has("--profile") {
        start_profiled_window();
    }
    let result = match args.get("--resume") {
        Some(path) => match Checkpoint::load(Path::new(path)) {
            Ok(checkpoint) => {
                report!(
                    "resume: {} from after {} (candidate {}, remedy {})",
                    path,
                    checkpoint.phase(),
                    checkpoint.candidate_rank,
                    checkpoint.remedy.as_str()
                );
                flow.map_resume(&net, objective, &checkpoint)
            }
            // A torn or corrupt checkpoint is a typed error, and under
            // --anytime it degrades to a fresh run: losing a snapshot
            // costs time, never the result.
            Err(err) if args.has("--anytime") => {
                eprintln!("warning: checkpoint {path} unusable ({err}); --anytime restarts fresh");
                flow.map(&net, objective)
            }
            Err(err) => Err(FlowError::from(err)),
        },
        None => flow.map(&net, objective),
    };
    // Terminal flight-recorder bookkeeping shared by every flow outcome:
    // publish the run-end event, shut the live stream down (reporting any
    // backpressure drops), and append the ledger line. None of it can
    // fail the run — a broken ledger or sink is a warning.
    let finish = |code: u8, report: Option<&MappingReport>| {
        let exit_code = i32::from(code);
        if let Some(run_id) = &run_id {
            runs::publish_run_end(run_id, exit_code, report);
        }
        if let Some(stats) = live.map(EventStream::finish) {
            if stats.dropped > 0 {
                eprintln!(
                    "warning: --live-status: {} events dropped under backpressure",
                    stats.dropped
                );
            }
        }
        if let (Some(path), Some(run_id), Some(report)) = (args.get("--ledger"), &run_id, report) {
            let record = RunRecord::for_run(report, &flow, objective, run_id.clone(), exit_code);
            if let Err(e) = runs::append_run(Path::new(path), &record) {
                eprintln!("warning: --ledger {path}: {e}");
            }
        }
        ExitCode::from(code)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            // A recovery-ladder failure carries its full attempt history;
            // spell it out so the user can see what was tried.
            if let Some(log) = e.recovery_log() {
                for a in &log.attempts {
                    eprintln!(
                        "  attempt {} [candidate {}, {}] {} failed after {:.1} ms: {}",
                        a.attempt,
                        a.candidate,
                        a.remedy.as_str(),
                        a.phase,
                        a.wall_us as f64 / 1e3,
                        a.error
                    );
                }
            }
            let code = match &e {
                FlowError::RecoveryExhausted { .. } => EXIT_RECOVERY_EXHAUSTED,
                FlowError::ExactAssignUnsat { summary, .. } => {
                    eprintln!(
                        "  infeasibility proof: {} open slot(s) for {} SMBs; dominant defect class: {}",
                        summary.open_slots, summary.smbs, summary.dominant_class
                    );
                    EXIT_INFEASIBLE
                }
                FlowError::BudgetExhausted { degradations, .. } => {
                    for d in degradations {
                        eprintln!("  degraded: {}", d.summary());
                    }
                    EXIT_BUDGET_EXHAUSTED
                }
                _ => 1,
            };
            return Ok(finish(code, None));
        }
    };
    report!("{}", report.summary());
    report!(
        "  sharing: {:?}, NRAM sets used: {}, AT product: {:.0}",
        report.sharing,
        report.nram_sets_used,
        report.area_delay_product()
    );
    report!(
        "  power: logic {:.2} mW + reconfiguration {:.2} mW + leakage {:.2} mW = {:.2} mW",
        report.power.logic_mw,
        report.power.reconfiguration_mw,
        report.power.leakage_mw,
        report.power.total_mw()
    );
    if let Some(p) = &report.physical {
        report!(
            "  physical: {} SMBs on {}x{}, routed delay {:.2} ns, {} config bits",
            p.num_smbs,
            p.grid.0,
            p.grid.1,
            p.routed_delay_ns,
            p.bitmap_bits
        );
        report!(
            "  interconnect: {} direct, {} len-1, {} len-4, {} global",
            p.usage.direct,
            p.usage.length1,
            p.usage.length4,
            p.usage.global
        );
    }
    if !report.recovery.attempts.is_empty() {
        report!("  recovery: {}", report.recovery.summary());
    }
    if report.degraded {
        report!("  DEGRADED: time budget expired; best-so-far mapping accepted");
        for d in &report.degradations {
            report!("    {}", d.summary());
        }
    }
    if args.has("--verify") {
        report!("  folded-execution verification: PASSED");
    }
    let t = &report.phase_times;
    report!(
        "  time: total {:.1} ms (select {:.1}, fds {:.1}, pack {:.1}, place {:.1}, route {:.1}, bitmap {:.1}, verify {:.1}, explain {:.1})",
        t.total_ms,
        t.folding_select_ms,
        t.fds_ms,
        t.pack_ms,
        t.place_ms,
        t.route_ms,
        t.bitmap_ms,
        t.verify_ms,
        t.explain_ms
    );
    if let Some(memory) = &report.memory {
        report!("  memory: {}", memory_summary(memory));
    }
    // All JSON sinks render from one snapshot of the finished flow.
    let snap = nanomap_observe::snapshot();
    if let Some(dir) = args.get("--profile") {
        let profile = snap.profile();
        // The mapping already succeeded: a broken profile sink is a warning.
        match write_profile_artifacts(Path::new(dir), &report.circuit, &profile) {
            Ok(path) => report!(
                "  profile: {} paths, {:.1} ms exact -> {}",
                profile.paths.len(),
                profile.total_us() as f64 / 1e3,
                path.display()
            ),
            Err(e) => eprintln!("warning: --profile {e}"),
        }
    }
    if let (Some(path), Some(physical)) = (args.get("--bitmap"), &report.physical) {
        if let Some(bytes) = &physical.bitstream {
            atomic_write(Path::new(path), bytes).map_err(|e| e.to_string())?;
            report!("  bitstream: {} bytes -> {path}", bytes.len());
        }
    }
    if progress || trace {
        eprint!("{}", snap.render_tree());
    }
    if let Some(path) = args.get("--metrics") {
        let doc = JsonValue::object()
            .with("report", report.to_json())
            .with("metrics", snap.to_json());
        write_sink(path, &doc.to_pretty_string())?;
        report!("  metrics: -> {path}");
    }
    if let Some(path) = args.get("--chrome-trace") {
        // With --explain active the worst routed path rides along
        // as flow ("s"/"t"/"f") arrows on the trace.
        let extra = report
            .explain
            .as_ref()
            .map(ExplainReport::chrome_flow_events)
            .unwrap_or_default();
        let doc = snap.to_chrome_trace_with_events(extra);
        write_sink(path, &doc.to_pretty_string())?;
        report!("  chrome trace: -> {path} (load at ui.perfetto.dev)");
    }
    if let Some(path) = args.get("--qor") {
        let qor = QorReport::from_mapping(&report, &channels, &snap);
        let doc = QorDocument::new(vec![qor]).to_json();
        write_sink(path, &doc.to_pretty_string())?;
        report!("  qor: -> {path}");
    }
    if let Some(path) = explain_path {
        let explain = report
            .explain
            .as_ref()
            .ok_or_else(|| "flow finished without attribution data".to_string())?;
        let doc = explain.to_json();
        check_artifact(&doc).map_err(|e| format!("artifact invariant violated: {e}"))?;
        write_sink(path, &doc.to_pretty_string())?;
        report!("  explain: -> {path}");
    }
    let code = if report.degraded { EXIT_DEGRADED } else { 0 };
    Ok(finish(code, Some(&report)))
}
