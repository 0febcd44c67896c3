//! Integration tests for the performance-observability layer: the exact
//! span-path profile, allocation/RSS telemetry, and their contract with
//! the flow's own `phase_times`.
//!
//! The collector and the memory counters are process-global, so every
//! test that resets or toggles them serializes on [`obs_lock`].

use std::sync::Mutex;
use std::time::Duration;

use nanomap::{NanoMap, Objective, PhaseTimes};
use nanomap_arch::ArchParams;
use nanomap_bench::circuits::{ex1, paper_benchmarks};
use nanomap_observe as observe;
use nanomap_techmap::{expand, ExpandOptions};

/// The allocation counters only see heap traffic when the counting
/// wrapper is this binary's global allocator — same install as the
/// `nanomap` CLI and the bench `perf` bin.
#[global_allocator]
static ALLOC: observe::CountingAllocator = observe::CountingAllocator::system();

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The acceptance-criteria test: a profiled flow emits a valid
/// `nanomap-profile-v2` artifact whose exclusive times tile the `flow`
/// root exactly and whose per-phase inclusive times reconcile with the
/// flow's independently measured `phase_times`.
#[test]
fn profiled_flow_reconciles_with_phase_times() {
    let _guard = obs_lock();
    let net = paper_benchmarks()
        .into_iter()
        .find(|b| b.name == "FIR")
        .expect("FIR is a paper benchmark")
        .network;
    let flow = NanoMap::new(ArchParams::paper());
    observe::reset();
    observe::set_enabled(true);
    let report = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("FIR maps");
    let snap = observe::snapshot();
    let profile = snap.profile();

    // The artifact is schema-tagged, parseable, and deterministic in
    // shape (re-emitting the parsed JSON reproduces the text).
    let text = profile.to_json().to_pretty_string();
    let parsed = observe::json::parse(&text).expect("profile JSON parses");
    assert_eq!(
        parsed.get("schema").and_then(observe::JsonValue::as_str),
        Some(observe::PROFILE_SCHEMA)
    );
    assert_eq!(text, parsed.to_pretty_string());

    // Exclusive times tile the root exactly, in integer microseconds.
    let flow_root = profile.path("flow").expect("flow root");
    assert_eq!(flow_root.spans, 1);
    let flow_span = snap.spans_named("flow")[0];
    assert_eq!(flow_root.inclusive_us, flow_span.duration_us);
    let exclusive: u64 = profile.paths.iter().map(|p| p.exclusive_us).sum();
    assert_eq!(exclusive, flow_root.inclusive_us);
    assert_eq!(profile.total_us(), flow_root.inclusive_us);

    let t = report.phase_times;
    t.reconcile(0.10, 5.0).expect("phase_times self-consistent");

    // Every phase long enough for timer placement to be noise must
    // reconcile within 25%. Each candidate's FDS runs inside selection,
    // so the `folding-select` span covers `fds_ms` too; the `route`
    // span also encloses `bitmap`, which phase_times itemizes
    // separately.
    let phases = [
        ("folding-select", t.folding_select_ms + t.fds_ms),
        ("pack", t.pack_ms),
        ("place", t.place_ms),
        ("route", t.route_ms + t.bitmap_ms),
        ("verify", t.verify_ms),
    ];
    let mut checked = 0;
    for (phase, wall_ms) in phases {
        if wall_ms < 1.0 {
            continue;
        }
        let span_ms = profile.inclusive_us(&format!("flow;{phase}")) as f64 / 1e3;
        let err = (span_ms - wall_ms).abs() / wall_ms;
        assert!(
            err < 0.25,
            "{phase}: spans {span_ms:.3} ms vs wall {wall_ms:.3} ms ({:.0}% off)",
            err * 100.0
        );
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} phases ran for >= 1 ms");
    let flow_ms = flow_root.inclusive_us as f64 / 1e3;
    let err = (flow_ms - t.total_ms).abs() / t.total_ms;
    assert!(
        err < 0.15,
        "flow: spans {flow_ms:.3} ms vs wall {:.3} ms",
        t.total_ms
    );

    // Collapsed stacks render every path with exclusive time, weighted
    // by exclusive microseconds, and add up to the root.
    let collapsed = profile.collapsed();
    let mut collapsed_us = 0;
    for line in collapsed.lines() {
        let (path, us) = line.rsplit_once(' ').expect("`path µs` shape");
        assert!(path.starts_with("flow"), "{path}");
        collapsed_us += us.parse::<u64>().expect("µs parse");
    }
    assert_eq!(collapsed_us, flow_root.inclusive_us);
}

/// Ground truth: synthetic spans come back with exactly their own
/// recorded durations.
#[test]
fn profile_reports_synthetic_span_durations_exactly() {
    let _guard = obs_lock();
    observe::set_enabled(true);
    {
        let _outer = observe::span!("it-outer");
        {
            let _a = observe::span!("it-long");
            std::thread::sleep(Duration::from_millis(12));
        }
        {
            let _b = observe::span!("it-short");
            std::thread::sleep(Duration::from_millis(4));
        }
    }
    // Other tests may record spans concurrently; profile only ours.
    let snap = observe::snapshot();
    let ours: Vec<observe::SpanRecord> = snap
        .spans
        .iter()
        .filter(|s| s.name.starts_with("it-"))
        .cloned()
        .collect();
    let recorded = |name| snap.spans_named(name)[0].duration_us;
    let (outer_us, long_us, short_us) = (
        recorded("it-outer"),
        recorded("it-long"),
        recorded("it-short"),
    );
    let profile = observe::ProfileData::from_spans(&ours);
    assert_eq!(profile.inclusive_us("it-outer;it-long"), long_us);
    assert_eq!(profile.inclusive_us("it-outer;it-short"), short_us);
    assert_eq!(profile.inclusive_us("it-outer"), outer_us);
    let outer = profile.path("it-outer").expect("outer path");
    assert_eq!(outer.exclusive_us, outer_us - long_us - short_us);
    assert!(long_us >= 12_000 && short_us >= 4_000);
    // The longer span dominates the top-K ranking.
    let top = profile.top_paths(2);
    assert_eq!(
        top.first().map(|h| h.key.as_str()),
        Some("it-outer;it-long")
    );
}

/// Memory telemetry: with the counting allocator installed and tracking
/// on, the report carries allocation counts attributed to phases; with
/// tracking off it carries nothing at all.
#[test]
fn memory_telemetry_rides_the_report_only_when_tracked() {
    let _guard = obs_lock();
    let net = expand(&ex1(4), ExpandOptions::default()).expect("expands");
    let flow = NanoMap::new(ArchParams::paper());

    // Phase attribution rides on spans, which record only while the
    // collector is enabled (exactly how the CLI's --profile sets up).
    observe::reset();
    observe::set_enabled(true);

    // Untracked: the field is absent from struct and JSON alike.
    observe::set_memory_tracking(false);
    let plain = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    assert!(plain.memory.is_none());
    assert!(!plain.to_json().to_compact_string().contains("\"memory\""));

    // Tracked: counters are live and phase-attributed.
    observe::reset_memory();
    observe::set_memory_tracking(true);
    let tracked = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    observe::set_memory_tracking(false);
    let memory = tracked.memory.clone().expect("memory report present");
    assert!(memory.alloc_count > 0, "flow allocates");
    assert!(memory.peak_live_bytes > 0);
    assert!(memory.alloc_bytes >= memory.peak_live_bytes);
    let phases: Vec<&str> = memory.by_phase.iter().map(|&(p, _, _)| p).collect();
    assert!(
        phases.iter().any(|p| *p != "other"),
        "no phase attribution: {phases:?}"
    );
    if cfg!(target_os = "linux") {
        // The flow samples RSS at every phase boundary and at the end.
        assert!(memory.peak_rss_kb.expect("rss on linux") > 100);
    }
    // QoR artifacts remain identical either way: the tracked run's QoR
    // metrics contain no memory entries (info lives in the report only).
    let snap = observe::snapshot();
    let qor = nanomap::QorReport::from_mapping(&tracked, &flow.channels, &snap);
    assert!(
        qor.metrics.keys().all(|k| !k.contains("mem")),
        "memory must not leak into gated QoR metrics"
    );
}

/// The reconciliation helper itself, on a freshly measured flow (unit
/// tests cover synthetic numbers; this pins the real flow's contract).
#[test]
fn real_flow_phase_times_never_overshoot_total() {
    let net = expand(&ex1(4), ExpandOptions::default()).expect("expands");
    let report = NanoMap::new(ArchParams::paper())
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    let t = report.phase_times;
    assert!(t.total_ms > 0.0);
    assert!(t.phase_sum_ms() > 0.0);
    t.reconcile(0.10, 5.0).expect("self-consistent");
    // The serialized phase map carries exactly the documented keys.
    let json = t.to_json().to_compact_string();
    for key in [
        "folding_select_ms",
        "fds_ms",
        "pack_ms",
        "place_ms",
        "route_ms",
        "bitmap_ms",
        "verify_ms",
        "explain_ms",
        "total_ms",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    let _ = PhaseTimes::default();
}
