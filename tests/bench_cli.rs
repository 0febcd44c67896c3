//! The bench binaries share the `nanomap::cli` contract: a bad flag is
//! a usage error (exit 1, `error: <flag>: <reason>` on stderr), never a
//! panic and never a silently ignored flag.

use std::process::{Command, Output};

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
