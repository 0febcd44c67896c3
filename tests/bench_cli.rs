//! The bench binaries share the `nanomap::cli` contract: a bad flag is
//! a usage error (exit 1, `error: <flag>: <reason>` on stderr), never a
//! panic and never a silently ignored flag.

use std::process::{Command, Output};

use nanomap::{NanoMap, Objective, Remedy};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_techmap::{expand, ExpandOptions};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("spawn bench binary")
}

fn assert_usage_error(out: &Output, prefix: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with(prefix), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn perf_rejects_bad_runs_without_panicking() {
    let perf = env!("CARGO_BIN_EXE_perf");
    assert_usage_error(&run(perf, &["--runs"]), "error: --runs: needs a value");
    assert_usage_error(&run(perf, &["--runs", "x"]), "error: --runs: \"x\"");
    assert_usage_error(
        &run(perf, &["--runs", "0"]),
        "error: --runs: must be at least 1",
    );
}

#[test]
fn qor_out_without_a_value_is_a_usage_error() {
    let qor = env!("CARGO_BIN_EXE_qor");
    assert_usage_error(&run(qor, &["--out"]), "error: --out: needs a value");
    assert_usage_error(&run(qor, &["--bogus"]), "error: --bogus: unknown option");
}

#[test]
fn retired_flag_names_are_usage_errors() {
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_perf"), &["--profile-dir", "prof"]),
        "error: --profile-dir: unknown option",
    );
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_yield"), &["--sat-conflicts", "0"]),
        "error: --sat-conflicts: unknown option",
    );
}

/// `--sat-conflict-budget 0` means unbounded in `nanomap` and `yield`
/// alike: both pass the number to `with_sat_conflict_budget`, where 0
/// leaves the solver unbounded. On ex2 at 20% defects (seed 4) every
/// heuristic rung fails and the SAT rung needs conflicts to find the
/// assignment, so a budget that gave up at the first conflict would
/// fail this mapping.
#[test]
fn zero_sat_conflict_budget_maps_like_no_budget() {
    let net = expand(&nanomap_bench::circuits::ex2(), ExpandOptions::default()).unwrap();
    let flow = || {
        NanoMap::new(ArchParams::paper())
            .with_defects(DefectMap::uniform(0.2, 4))
            .with_exact_recovery()
    };
    let zero = flow().with_sat_conflict_budget(0);
    assert_eq!(zero.sat_conflict_budget, None);
    let mapped = |flow: NanoMap| {
        let report = flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
        assert_eq!(report.recovery.succeeded_with, Some(Remedy::ExactAssign));
        format!("{} {:?}", report.num_les, report.physical)
    };
    assert_eq!(mapped(zero), mapped(flow()));
}

#[test]
fn bench_help_exits_zero_on_stdout() {
    for exe in [
        env!("CARGO_BIN_EXE_perf"),
        env!("CARGO_BIN_EXE_qor"),
        env!("CARGO_BIN_EXE_yield"),
        env!("CARGO_BIN_EXE_table1"),
    ] {
        let out = run(exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{exe}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: "));
    }
}
