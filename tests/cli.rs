//! The shared argv parser (`nanomap::cli`) and the `nanomap` binary's
//! command-line contract: `--help` on stdout with exit 0, usage errors
//! on stderr with exit 1, and no subcommand silently ignoring a flag.

use std::path::PathBuf;
use std::process::{Command as Process, Output};

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap_observe::JsonValue;

const SHARED: &[Flag] = &[
    Flag::value("--k", "N", "a number\nsecond line"),
    Flag::switch("--fast", "go fast"),
];

static CMD: Command = Command {
    name: "tool sub",
    operands: "<a> <b>",
    about: "Does things.",
    flags: &[SHARED, &[Flag::value("--field", "F", "repeatable")]],
};

fn parse(argv: &[&str]) -> Result<Args, Error> {
    CMD.parse(argv.iter().map(|s| s.to_string()))
}

#[test]
fn parser_reads_values_switches_operands_and_repeats() {
    let args = parse(&[
        "x", "--k", "3", "--fast", "-", "--field", "a", "--field", "b",
    ])
    .unwrap();
    assert_eq!(args.num::<u32>("--k"), Ok(Some(3)));
    assert!(args.has("--fast"));
    assert_eq!(args.get("--field"), Some("b"));
    assert_eq!(args.all("--field"), ["a", "b"]);
    assert_eq!(args.exactly::<2>().unwrap(), ["x", "-"]);
    assert_eq!(parse(&[]).unwrap().num::<u32>("--k"), Ok(None));
    // A value is taken verbatim, even when it looks like a flag.
    assert_eq!(
        parse(&["--field", "--k"]).unwrap().get("--field"),
        Some("--k")
    );
}

#[test]
fn parser_errors_name_the_flag() {
    assert_eq!(parse(&["a", "--help", "--bogus"]).unwrap_err(), Error::Help);
    assert_eq!(parse(&["-h"]).unwrap_err(), Error::Help);
    let unknown = parse(&["--bogus"]).unwrap_err().to_string();
    assert!(unknown.starts_with("--bogus: unknown option"), "{unknown}");
    let missing = parse(&["--k"]).unwrap_err().to_string();
    assert!(missing.starts_with("--k: needs a value"), "{missing}");
    let bad = parse(&["--k", "x"]).unwrap().num::<u32>("--k").unwrap_err();
    assert!(bad.to_string().starts_with("--k: \"x\""), "{bad}");
    let missing = parse(&["a"]).unwrap().exactly::<2>().unwrap_err();
    assert_eq!(missing.to_string(), "tool sub: expects <a> <b>");
    let extra = parse(&["a", "b", "c"]).unwrap().exactly::<2>().unwrap_err();
    assert_eq!(extra.to_string(), "c: unexpected operand");
}

#[test]
fn help_and_usage_render_from_the_table() {
    let usage = CMD.usage();
    assert!(usage.starts_with("usage: tool sub [--k N] [--fast] [--field F] <a> <b>"));
    let help = CMD.help();
    assert!(help.contains("Does things."));
    for needle in ["--k N", "second line", "--fast", "--field F", "-h, --help"] {
        assert!(help.contains(needle), "{needle} missing from:\n{help}");
    }
}

fn nanomap(args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_nanomap"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn nanomap")
}

fn design() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../designs/accumulator.vhd");
    path.to_str().unwrap().to_string()
}

/// Exit 1 with `error: <flag>: <reason>` then the usage on stderr, and
/// nothing on stdout.
fn assert_usage_error(out: &Output, flag: &str, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {flag}: {reason}")),
        "{stderr}"
    );
    assert!(stderr.contains("\nusage: "), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn help_goes_to_stdout_with_exit_zero() {
    for argv in [
        &["--help"][..],
        &["-h"],
        &["explain", "--help"],
        &["runs", "-h"],
    ] {
        let out = nanomap(argv);
        assert_eq!(out.status.code(), Some(0), "{argv:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: nanomap"), "{argv:?}: {stdout}");
        assert!(stdout.contains("-h, --help"), "{stdout}");
        assert!(out.stderr.is_empty(), "{argv:?}");
    }
    let stdout = String::from_utf8(nanomap(&["--help"]).stdout).unwrap();
    for flag in [
        "--objective delay|area|at",
        "--defect-rate F",
        "--live-status PATH",
    ] {
        assert!(stdout.contains(flag), "{flag} missing from --help");
    }
}

#[test]
fn explain_and_profile_reject_output_sinks() {
    let design = design();
    let out = nanomap(&["explain", &design, "--qor", "/dev/null"]);
    assert_usage_error(&out, "--qor", "unknown option");
    let out = nanomap(&["profile", &design, "--ledger", "x", "--bitmap", "y"]);
    assert_usage_error(&out, "--ledger", "unknown option");
}

#[test]
fn subcommand_flag_errors_name_the_flag() {
    assert_usage_error(
        &nanomap(&["perf-diff", "--rel", "abc", "a", "b"]),
        "--rel",
        "\"abc\"",
    );
    assert_usage_error(
        &nanomap(&["perf-diff", "--abs-ms", "-1", "a", "b"]),
        "--abs-ms",
        "-1 must be >= 0",
    );
    assert_usage_error(
        &nanomap(&["qor-diff", "--bogus", "a", "b"]),
        "--bogus",
        "unknown option",
    );
    assert_usage_error(&nanomap(&["--bogus"]), "--bogus", "unknown option");
    assert_usage_error(&nanomap(&["runs"]), "nanomap runs", "expects <list");
    assert_usage_error(
        &nanomap(&["top", "--interval-ms", "soon", "--addr", "x"]),
        "--interval-ms",
        "\"soon\"",
    );
    assert_usage_error(&nanomap(&["submit", "d.vhd"]), "--addr", "is required");
}

#[test]
fn flow_flag_validation_is_kept() {
    let design = design();
    assert_usage_error(
        &nanomap(&[&design, "--defect-rate", "1.5"]),
        "--defect-rate",
        "1.5 is outside 0..1",
    );
    assert_usage_error(
        &nanomap(&[&design, "--defect-rate", "0.1", "--defect-map", "m"]),
        "--defect-rate",
        "cannot be combined with --defect-map",
    );
    assert_usage_error(
        &nanomap(&[&design, "--objective", "fast"]),
        "--objective",
        "unknown objective",
    );
    assert_usage_error(
        &nanomap(&[&design, "--explain", "e.json", "--no-physical"]),
        "--explain",
        "needs the physical flow",
    );
    assert_usage_error(
        &nanomap(&["explain", &design, "--no-physical"]),
        "--no-physical",
        "explain needs the physical flow",
    );
    assert_usage_error(
        &nanomap(&["explain", "--check", "a.json", &design]),
        "--check",
        "takes no design",
    );
}

#[test]
fn a_lut_wider_than_the_fabric_exits_one() {
    let path = std::env::temp_dir().join(format!("nanomap-wide-{}.blif", std::process::id()));
    std::fs::write(
        &path,
        ".model wide\n.inputs a b c d e\n.outputs y\n.names a b c d e y\n11111 1\n.end\n",
    )
    .unwrap();
    let out = nanomap(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("has a 5-input LUT, but the fabric's LUTs have 4 inputs"),
        "{stderr}"
    );
}

/// The explain artifact copies the router's routed delay, so it agrees
/// with the report bit for bit (this case used to differ in the last bit).
#[test]
fn explain_and_metrics_report_the_same_routed_delay_bits() {
    let dir = std::env::temp_dir().join(format!("nanomap-explain-bits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (explain, metrics) = (dir.join("e.json"), dir.join("m.json"));
    let out = nanomap(&[
        &design(),
        "--defect-rate",
        "0.3",
        "--defect-seed",
        "1",
        "--explain",
        explain.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |path: &PathBuf| {
        nanomap_observe::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let (explain, metrics) = (read(&explain), read(&metrics));
    std::fs::remove_dir_all(&dir).unwrap();
    let number = |doc: &JsonValue, path: &[&str]| {
        path.iter()
            .try_fold(doc, |v, key| v.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap()
    };
    let explained = number(&explain, &["timing", "routed_delay_ns"]);
    let period = number(&explain, &["timing", "cycle_period_ns"]);
    let reported = number(&metrics, &["report", "physical", "routed_delay_ns"]);
    assert_eq!(
        explained.to_bits(),
        reported.to_bits(),
        "{explained} vs {reported}"
    );
    assert_eq!((explained, period), (4.25, 2.125));
}
