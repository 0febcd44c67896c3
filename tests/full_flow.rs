//! Cross-crate integration tests: the complete NanoMap flow from RTL to
//! configuration bitmap, with folded-execution verification.

use nanomap::{FlowError, NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::{ex1, fir};
use nanomap_netlist::PlaneSet;
use nanomap_techmap::{expand, verify_equivalence, ExpandOptions};

/// The full physical flow — logic mapping, FDS, clustering, placement,
/// routing, bitmap — on the Fig. 1 circuit, with verification on.
#[test]
fn fig1_full_flow_with_verification() {
    let circuit = ex1(4);
    let flow = NanoMap::new(ArchParams::paper_unbounded()).with_verification();
    let report = flow
        .map_rtl(&circuit, Objective::MinAreaDelayProduct)
        .expect("fig1 maps");
    assert!(report.folding_level.is_some(), "AT optimization folds");
    let physical = report.physical.expect("physical design runs");
    assert!(physical.num_smbs >= 1);
    assert!(physical.bitmap_bits > 0);
    assert!(physical.routed_delay_ns > 0.0);
    // Area proxy sanity: folding beats one LE per LUT.
    assert!(report.num_les < report.num_luts);
}

/// Every objective produces a mapping that satisfies its own constraints.
#[test]
fn objectives_satisfy_their_constraints() {
    let circuit = ex1(8);
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();

    let fastest = flow
        .map(&net, Objective::MinDelay { max_les: None })
        .expect("maps");
    let smallest = flow
        .map(&net, Objective::MinArea { max_delay_ns: None })
        .expect("maps");
    assert!(fastest.delay_ns <= smallest.delay_ns + 1e-9);
    assert!(smallest.num_les <= fastest.num_les);

    // A midpoint area budget is honoured.
    let budget = (fastest.num_les + smallest.num_les) / 2;
    let constrained = flow
        .map(
            &net,
            Objective::MinDelay {
                max_les: Some(budget),
            },
        )
        .expect("maps");
    assert!(constrained.num_les <= budget);
    assert!(constrained.delay_ns >= fastest.delay_ns - 1e-9);

    // A midpoint delay budget is honoured.
    let delay_budget = (fastest.delay_ns + smallest.delay_ns) / 2.0;
    let constrained = flow
        .map(
            &net,
            Objective::MinArea {
                max_delay_ns: Some(delay_budget),
            },
        )
        .expect("maps");
    assert!(constrained.delay_ns <= delay_budget + 1e-9);
    assert!(constrained.num_les >= smallest.num_les);
}

/// The NRAM set budget k is never exceeded by the chosen folding.
#[test]
fn nram_budget_respected_across_k() {
    let circuit = ex1(8);
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    for k in [2u32, 4, 8, 16, 64] {
        let arch = ArchParams {
            num_reconf: k,
            ..ArchParams::paper()
        };
        let flow = NanoMap::new(arch).without_physical();
        let report = flow
            .map(&net, Objective::MinAreaDelayProduct)
            .expect("maps");
        assert!(
            report.nram_sets_used <= k,
            "k={k}: used {} sets",
            report.nram_sets_used
        );
    }
}

/// Folding level down => area down, delay up (the Section 2.2 tradeoff),
/// verified through the flow's own reports.
#[test]
fn folding_tradeoff_monotone_at_extremes() {
    let circuit = fir();
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
    let fastest = flow
        .map(&net, Objective::MinDelay { max_les: None })
        .expect("maps");
    let smallest = flow
        .map(&net, Objective::MinArea { max_delay_ns: None })
        .expect("maps");
    // No-folding at one extreme, deep folding at the other. (Level 2 can
    // tie level 1 in LEs when the flip-flop floor dominates; the tie goes
    // to the faster mapping.)
    assert_eq!(fastest.folding_level, None);
    assert!(smallest.folding_level.unwrap_or(u32::MAX) <= 2);
    assert!(smallest.num_les * 3 < fastest.num_les);
}

/// Expansion preserves RTL behaviour on a sequential datapath (the
/// techmap equivalence harness over many random cycles).
#[test]
fn rtl_to_lut_equivalence() {
    let circuit = ex1(6);
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let report = verify_equivalence(&circuit, &net, 300, 0xBEEF).expect("simulates");
    assert!(report.is_equivalent(), "{:?}", report.mismatch);
}

/// Impossible budgets fail with NoFeasibleFolding, not a panic.
#[test]
fn impossible_budgets_error_cleanly() {
    let circuit = ex1(4);
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
    let err = flow
        .map(&net, Objective::MinDelay { max_les: Some(2) })
        .unwrap_err();
    assert!(matches!(err, FlowError::NoFeasibleFolding { .. }));
    let err = flow
        .map(
            &net,
            Objective::MinArea {
                max_delay_ns: Some(0.001),
            },
        )
        .unwrap_err();
    assert!(matches!(err, FlowError::NoFeasibleFolding { .. }));
}

/// The plane decomposition is stable and matches the report.
#[test]
fn report_reflects_plane_structure() {
    let circuit = ex1(8);
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let planes = PlaneSet::extract(&net).expect("extracts");
    let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
    let report = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("maps");
    assert_eq!(report.num_planes as usize, planes.num_planes());
    assert_eq!(report.depth_max, planes.depth_max());
    assert_eq!(report.num_luts as usize, net.num_luts());
    assert_eq!(report.num_ffs as usize, net.num_ffs());
}

/// The whole flow is deterministic: identical inputs give identical
/// reports, including the physical design.
#[test]
fn flow_is_deterministic() {
    let circuit = ex1(6);
    let run = || {
        let flow = NanoMap::new(ArchParams::paper_unbounded());
        flow.map_rtl(&circuit, Objective::MinAreaDelayProduct)
            .expect("maps")
    };
    let a = run();
    let b = run();
    assert_eq!(a.folding_level, b.folding_level);
    assert_eq!(a.num_les, b.num_les);
    assert_eq!(a.delay_ns, b.delay_ns);
    let (pa, pb) = (a.physical.unwrap(), b.physical.unwrap());
    assert_eq!(pa.num_smbs, pb.num_smbs);
    assert_eq!(pa.placement_cost, pb.placement_cost);
    assert_eq!(pa.routed_delay_ns, pb.routed_delay_ns);
    assert_eq!(pa.bitmap_bits, pb.bitmap_bits);
}

/// A full physical run records a span for every flow phase in the
/// observability collector, and the JSON sink round-trips through the
/// crate's own parser.
///
/// Note: the collector is global and other tests in this binary run
/// concurrently, so this test only makes presence/shape assertions (no
/// `reset()`, no exact counts).
#[test]
fn flow_records_phase_spans_and_metrics_json() {
    nanomap_observe::set_enabled(true);
    let circuit = ex1(4);
    let flow = NanoMap::new(ArchParams::paper_unbounded()).with_verification();
    let report = flow
        .map_rtl(&circuit, Objective::MinAreaDelayProduct)
        .expect("maps");

    let snap = nanomap_observe::snapshot();
    for phase in [
        "flow",
        "folding-select",
        "fds",
        "pack",
        "place",
        "route",
        "bitmap",
        "verify",
    ] {
        assert!(
            !snap.spans_named(phase).is_empty(),
            "expected at least one `{phase}` span, got spans: {:?}",
            snap.spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    // Nesting: bitmap generation happens inside routing. Only this
    // thread's spans: a flow on another thread that opened `route` before
    // the collector was switched on records a parentless `bitmap`.
    let tid = nanomap_observe::thread_ordinal();
    let bitmap = snap
        .spans_named("bitmap")
        .into_iter()
        .find(|s| s.tid == tid)
        .expect("this thread's flow recorded a bitmap span");
    let parent_id = bitmap.parent.expect("bitmap has a parent span");
    let parent = snap
        .spans
        .iter()
        .find(|s| s.id == parent_id)
        .expect("parent span recorded");
    assert_eq!(parent.name, "route");
    // The flow's instrumented kernels counted work.
    assert!(snap.counter("fds.force_evals") > 0);
    assert!(snap.counter("flow.candidates_evaluated") > 0);

    // Wall-clock phase times are populated independently of the collector.
    let t = report.phase_times;
    assert!(t.total_ms > 0.0);
    assert!(t.folding_select_ms > 0.0);
    assert!(t.verify_ms > 0.0);

    // The JSON sink emits a document our own parser accepts, containing
    // the report and every phase name.
    let doc = nanomap_observe::JsonValue::object()
        .with("report", report.to_json())
        .with("metrics", snap.to_json());
    let text = doc.to_pretty_string();
    let parsed = nanomap_observe::json::parse(&text).expect("valid JSON");
    assert_eq!(
        parsed
            .get("report")
            .and_then(|r| r.get("circuit"))
            .and_then(|c| c.as_str()),
        Some("fig1")
    );
    for phase in [
        "folding-select",
        "fds",
        "pack",
        "place",
        "route",
        "bitmap",
        "verify",
    ] {
        assert!(text.contains(&format!("\"{phase}\"")), "JSON names {phase}");
    }
}

/// Under extreme congestion the router escalates to the global tier (the
/// hierarchical escalation of Section 4.4).
#[test]
fn router_escalates_to_global_under_congestion() {
    use nanomap_arch::{ChannelConfig, DefectMap, Grid, RrGraph, WireType};
    use nanomap_observe::CancelToken;
    use nanomap_pack::SliceNet;
    use nanomap_route::{route_slice, tally_usage, RouteOptions};
    use std::collections::HashMap;

    // A skinny fabric with almost no cheap wiring.
    let grid = Grid::new(5, 1);
    let channels = ChannelConfig {
        direct: 1,
        length1: 1,
        length4: 0,
        global: 8,
    };
    let graph = RrGraph::build(grid, &channels, &DefectMap::none());
    let pos: Vec<_> = grid.iter().collect();
    // Many parallel long nets exhaust the direct/length-1 tracks.
    let nets: Vec<SliceNet> = (0..6)
        .map(|_| SliceNet {
            driver: 0,
            sinks: vec![4],
            critical: false,
        })
        .collect();
    let routed = route_slice(
        &graph,
        &nets,
        &pos,
        RouteOptions::default(),
        &CancelToken::unlimited(),
    )
    .expect("routes")
    .into_value();
    let mut routes = HashMap::new();
    routes.insert(nanomap_pack::Slice { plane: 0, stage: 0 }, routed);
    let usage = tally_usage(&graph, &routes);
    assert!(
        usage.global > 0,
        "long congested nets must escalate to global lines: {usage:?}"
    );
    let _ = WireType::Global;
}
