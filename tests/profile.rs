//! Integration tests for the performance-observability layer: the exact
//! span-path profile, allocation/RSS telemetry, and their contract with
//! the flow's own `phase_times`.
//!
//! The collector and the memory counters are process-global, so every
//! test that resets or toggles them serializes on [`obs_lock`].

use std::sync::Mutex;
use std::time::Duration;

use nanomap::{checkpoint_file_name, Checkpoint, NanoMap, Objective, PhaseTimes};
use nanomap_arch::{ArchParams, DefectMap};
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

/// Asserts that every phase time is its span's duration, to the
/// microsecond. A phase's span is the last one of its name to close:
/// failed ladder attempts close theirs before the winning attempt.
fn assert_phase_times_are_spans(t: PhaseTimes, snap: &observe::MetricsSnapshot) {
    t.reconcile().expect("phase_times self-consistent");
    let last = |name| snap.spans_named(name).last().map_or(0, |s| s.duration_us);
    assert_eq!(t.total_us, last("flow"));
    assert_eq!(t.us("folding-select") + t.us("fds"), last("folding-select"));
    let candidates = snap.spans_named("candidate");
    assert!(
        candidates.is_empty() && t.us("fds") == 0
            || candidates.iter().any(|s| s.duration_us == t.us("fds")),
        "fds {} µs is no candidate span",
        t.us("fds")
    );
    for phase in ["pack", "place", "bitmap", "verify", "explain"] {
        assert_eq!(t.us(phase), last(phase), "{phase}");
    }
    assert_eq!(t.us("route") + t.us("bitmap"), last("route"));
}

/// The acceptance-criteria test: a profiled flow emits a valid
/// `nanomap-profile-v2` artifact whose exclusive times tile the `flow`
/// root exactly and whose per-phase inclusive times are the flow's
/// `phase_times`, to the microsecond.
#[test]
fn profiled_flow_reconciles_with_phase_times() {
    let _guard = obs_lock();
    let net = paper_benchmarks()
        .into_iter()
        .find(|b| b.name == "FIR")
        .expect("FIR is a paper benchmark")
        .network;
    let flow = NanoMap::new(ArchParams::paper()).with_verification();
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

    // One clock: each phase's inclusive profile time is its phase
    // time. The `folding-select` span covers every candidate's FDS, so
    // `fds` too; the `route` span encloses `bitmap`, which phase_times
    // itemizes separately.
    let t = report.phase_times;
    assert_phase_times_are_spans(t, &snap);
    let inclusive = |phase: &str| profile.inclusive_us(&format!("flow;{phase}"));
    assert_eq!(
        inclusive("folding-select"),
        t.us("folding-select") + t.us("fds")
    );
    for phase in ["pack", "place", "verify"] {
        assert_eq!(inclusive(phase), t.us(phase), "{phase}");
    }
    assert_eq!(inclusive("route"), t.us("route") + t.us("bitmap"));
    assert_eq!(flow_root.inclusive_us, t.total_us);

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
    // Serialized: with the collector on, another test's profile would
    // record this flow's spans.
    let _guard = obs_lock();
    let net = expand(&ex1(4), ExpandOptions::default()).expect("expands");
    let report = NanoMap::new(ArchParams::paper())
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("ex1 maps");
    let t = report.phase_times;
    assert!(t.total_us > 0);
    assert!(t.phase_sum_us() > 0);
    t.reconcile().expect("self-consistent");
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

/// The clock holds where the ladder climbs: ex1 on a 10 % defect map
/// (seed 2) fails place/route attempts before the winner, whose spans
/// close last.
#[test]
fn phase_times_are_spans_on_a_defective_fabric() {
    let _guard = obs_lock();
    let net = expand(&ex1(16), ExpandOptions::default()).expect("expands");
    let flow = NanoMap::new(ArchParams::paper())
        .with_defects(DefectMap::uniform(0.10, 2))
        .with_verification()
        .with_explain();
    observe::reset();
    observe::set_enabled(true);
    let report = flow.map(&net, Objective::MinAreaDelayProduct);
    observe::set_enabled(false);
    let report = report.expect("ex1 maps at 10 % defects");
    assert!(
        !report.recovery.attempts.is_empty(),
        "the ladder never climbed"
    );
    let t = report.phase_times;
    assert!(t.us("explain") > 0);
    assert_phase_times_are_spans(t, &observe::snapshot());
}

/// The clock holds on resume: the accumulator mapped again from its
/// checkpoint restores the schedules and placement, so selection, FDS
/// and placement read zero, and no span of theirs exists.
#[test]
fn phase_times_are_spans_on_resume() {
    let _guard = obs_lock();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../designs/accumulator.vhd");
    let source = std::fs::read_to_string(path).expect("reads the sample design");
    let circuit = nanomap_netlist::vhdl::parse(&source).expect("parses");
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let dir = std::env::temp_dir().join(format!("nanomap-profile-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let flow = NanoMap::new(ArchParams::paper()).with_verification();
    flow.clone()
        .with_checkpoint_dir(&dir)
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("accumulator maps");
    let checkpoint =
        Checkpoint::load(&dir.join(checkpoint_file_name(net.name()))).expect("checkpoint loads");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        checkpoint.placement.is_some(),
        "the checkpoint holds a placement"
    );
    observe::reset();
    observe::set_enabled(true);
    let report = flow.map_resume(&net, Objective::MinAreaDelayProduct, &checkpoint);
    observe::set_enabled(false);
    let t = report.expect("the accumulator resumes").phase_times;
    for phase in ["folding-select", "fds", "place"] {
        assert_eq!(t.us(phase), 0, "{phase}");
    }
    assert!(t.us("pack") > 0 && t.us("route") > 0);
    assert_phase_times_are_spans(t, &observe::snapshot());
}
