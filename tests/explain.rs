//! Cross-crate checks for the QoR attribution artifact: the explain
//! report's numbers must reconcile exactly with the headline QoR it
//! explains, and the serialized artifact must be deterministic.

use nanomap::{check_artifact, MappingReport, NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::{ex1, fir, paper_benchmarks};
use nanomap_netlist::LutNetwork;
use nanomap_observe::json;
use nanomap_techmap::{expand, ExpandOptions};

fn lut4(circuit: &nanomap_netlist::rtl::RtlCircuit) -> LutNetwork {
    let opts = ExpandOptions {
        lut_inputs: 4,
        ..ExpandOptions::default()
    };
    expand(circuit, opts).expect("benchmark expands")
}

fn map_with_explain(net: &LutNetwork) -> MappingReport {
    NanoMap::new(ArchParams::paper())
        .with_explain()
        .map(net, Objective::MinAreaDelayProduct)
        .expect("flow maps")
}

/// The worst traced path's per-hop delays telescope to the headline
/// routed delay through the identity
/// `(worst_path + overhead) * num_slices = routed_delay_ns`.
#[test]
fn critical_path_hops_sum_to_routed_delay() {
    for net in [lut4(&ex1(16)), lut4(&fir())] {
        let report = map_with_explain(&net);
        let physical = report.physical.as_ref().expect("physical ran");
        let explain = report.explain.as_ref().expect("explain ran");
        check_artifact(&explain.to_json()).expect("artifact invariants hold");

        let paths = &explain.paths;
        let worst = paths.paths.first().expect("at least one traced path");
        let hop_sum: f64 = worst
            .hops
            .iter()
            .map(|h| h.interconnect_ns + h.lut_ns)
            .sum();
        assert!(
            (hop_sum - worst.path_delay_ns).abs() < 1e-9,
            "hops sum {hop_sum} != path delay {}",
            worst.path_delay_ns
        );
        assert!(worst.slack_ns.abs() < 1e-9, "worst path has slack");
        let rebuilt = (paths.max_slice_path_ns + paths.overhead_ns) * f64::from(paths.num_slices);
        assert!(
            (rebuilt - physical.routed_delay_ns).abs() < 1e-9,
            "identity rebuilt {rebuilt} != routed {}",
            physical.routed_delay_ns
        );
        // Every traced path fits inside the slice budget.
        for path in &paths.paths {
            assert!(path.path_delay_ns <= paths.max_slice_path_ns + 1e-9);
            assert!(path.slack_ns >= -1e-9);
        }
    }
}

/// The per-cell congestion grid attributes every routed wire node to
/// exactly one cell: its totals equal the interconnect usage counters.
#[test]
fn congestion_grid_reconciles_with_usage_counters() {
    let report = map_with_explain(&lut4(&ex1(16)));
    let physical = report.physical.as_ref().expect("physical ran");
    let explain = report.explain.as_ref().expect("explain ran");
    let totals = explain.congestion.totals();
    assert_eq!(totals.direct, physical.usage.direct);
    assert_eq!(totals.length1, physical.usage.length1);
    assert_eq!(totals.length4, physical.usage.length4);
    assert_eq!(totals.global, physical.usage.global);
    let combined: u64 = explain.congestion.combined_cells().iter().sum();
    assert_eq!(combined, totals.total());
}

/// Same seed, same bytes: the serialized artifact carries no wall-clock
/// or iteration-order noise, and the emitted JSON survives its own
/// round-trip through the parser and validator.
#[test]
fn artifact_is_deterministic_and_self_checking() {
    let net = lut4(&ex1(16));
    let first = map_with_explain(&net);
    let second = map_with_explain(&net);
    let a = first.explain.as_ref().unwrap().to_json().to_pretty_string();
    let b = second
        .explain
        .as_ref()
        .unwrap()
        .to_json()
        .to_pretty_string();
    assert_eq!(a, b, "explain artifact differs between same-seed runs");

    let doc = json::parse(&a).expect("artifact is valid JSON");
    check_artifact(&doc).expect("parsed artifact passes validation");
}

/// Explain holds across the full paper benchmark set (the same sweep the
/// QoR snapshot generator runs with `--explain-dir`).
#[test]
#[ignore = "slow: full benchmark sweep; run with --ignored"]
fn explain_validates_on_every_paper_benchmark() {
    let flow = NanoMap::new(ArchParams::paper()).with_explain();
    for bench in paper_benchmarks() {
        let report = flow
            .map(&bench.network, Objective::MinAreaDelayProduct)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let explain = report.explain.as_ref().expect("explain ran");
        check_artifact(&explain.to_json()).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    }
}
