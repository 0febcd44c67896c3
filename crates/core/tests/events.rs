//! End-to-end contracts of the structured event bus and the artifact
//! version registry.
//!
//! Under test: a full mapping run streamed through [`EventStream`]
//! produces a valid `nanomap-events-v1` NDJSON stream — run-start
//! first, run-end last, with phase totals that reconcile against the
//! report's own `phase_times` — and every persisted artifact embeds
//! the schema constant registered in `nanomap::artifact::versions`.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use nanomap::artifact::versions;
use nanomap::runs;
use nanomap::{NanoMap, Objective, PerfDocument, PerfReport, QorDocument, QorReport, RunRecord};
use nanomap_arch::ArchParams;
use nanomap_netlist::rtl::{CombOp, RtlBuilder, RtlCircuit};
use nanomap_netlist::LutNetwork;
use nanomap_observe::{json, EventStream, Fnv1a, JsonValue};
use nanomap_techmap::{expand, ExpandOptions};

/// A small multiplier-accumulator: big enough to fold, pack, place
/// (over more than one SMB, so the annealer runs) and route, small
/// enough to map in well under a second.
fn mac_circuit() -> RtlCircuit {
    let mut b = RtlBuilder::new("mac");
    let a = b.input("a", 6);
    let x = b.input("x", 6);
    let acc = b.register("acc", 12);
    let gnd = b.constant("gnd", 1, 0);
    let mul = b.comb("mul", CombOp::Mul { width: 6 });
    b.connect(a, 0, mul, 0).unwrap();
    b.connect(x, 0, mul, 1).unwrap();
    let add = b.comb("add", CombOp::Add { width: 12 });
    b.connect(mul, 0, add, 0).unwrap();
    b.connect(acc, 0, add, 1).unwrap();
    b.connect(gnd, 0, add, 2).unwrap();
    b.connect(add, 0, acc, 0).unwrap();
    let y = b.output("y", 12);
    b.connect(acc, 0, y, 0).unwrap();
    b.finish().unwrap()
}

fn mac_net() -> LutNetwork {
    expand(&mac_circuit(), ExpandOptions::default()).unwrap()
}

/// The event bus is process-global: tests that run any part of the
/// flow (which publishes when the bus is up) must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An in-memory NDJSON sink the stream thread and the test can share.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Maps the MAC with the event bus streaming, checks the capture and
/// returns it. `collector` mirrors the two bus configurations the binaries
/// use: `nanomap --live-status` also records spans (so phase and counter
/// events flow), `nanomapd --events` turns on the bus alone.
fn streamed_run(collector: bool) -> String {
    let net = mac_net();
    let flow = NanoMap::new(ArchParams::paper_unbounded());
    let run_id = flow.run_id(&net, Objective::MinAreaDelayProduct);

    nanomap_observe::reset_events();
    nanomap_observe::set_enabled(collector);
    let sink = SharedSink::default();
    let stream = EventStream::spawn(Box::new(sink.clone()));
    let report = flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
    runs::publish_run_end(&run_id, 0, Some(&report));
    let stats = stream.finish();
    nanomap_observe::set_enabled(false);

    assert!(!stats.sink_broken);
    assert_eq!(
        stats.dropped, 0,
        "a mac-sized run must not overflow the queue"
    );
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let check = runs::check_stream(&text).unwrap();
    assert_eq!(check.run_id, run_id);
    assert_eq!(check.exit_code, 0);
    assert!(check.events >= 10, "only {} events streamed", check.events);

    // run-end's totals are the report's own phase times, verbatim.
    let t = report.phase_times;
    assert_eq!(check.total_ms, t.total_ms());
    for (phase, expect) in t.by_phase() {
        assert_eq!(
            check.phase_ms.get(phase.key),
            Some(&expect),
            "{}",
            phase.key
        );
    }
    text
}

/// FNV-1a over every event of a capture, in order, with the fields
/// that vary run to run (sequence numbers, thread ordinals and
/// wall-clock figures) dropped.
fn fingerprint(text: &str) -> u64 {
    const VOLATILE: [&str; 7] = [
        "seq",
        "tid",
        "t_us",
        "duration_us",
        "wall_ms",
        "phase_ms",
        "total_ms",
    ];
    let mut hash = Fnv1a::new();
    for line in text.lines() {
        let Ok(JsonValue::Object(mut fields)) = json::parse(line) else {
            panic!("not an event object: {line}");
        };
        fields.retain(|(key, _)| !VOLATILE.contains(&key.as_str()));
        hash.field(JsonValue::Object(fields).to_compact_string().as_bytes());
    }
    hash.finish()
}

/// Phases that published at least one `phase-progress` event.
fn progress_phases(text: &str) -> Vec<String> {
    let mut phases: Vec<String> = text
        .lines()
        .map(|line| json::parse(line).unwrap())
        .filter(|e| e.get("kind").and_then(JsonValue::as_str) == Some("phase-progress"))
        .filter_map(|e| {
            e.get("phase")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect();
    phases.sort();
    phases.dedup();
    phases
}

#[test]
fn live_stream_validates_and_reconciles_with_the_report() {
    let _guard = serial();
    // Pinned fingerprints: any added, dropped or reordered event, or a
    // changed non-timing field, moves them.
    for (collector, pinned) in [
        (true, 0x7f50_9367_1c73_41ca),
        (false, 0x8f5d_d4ad_7ee3_c293),
    ] {
        let text = streamed_run(collector);
        assert_eq!(
            fingerprint(&text),
            pinned,
            "event stream changed (collector {collector}):\n{text}"
        );
        // Each kernel reports its iterations.
        assert_eq!(progress_phases(&text), ["fds", "pack", "place", "route"]);
    }
}

#[test]
fn run_ids_are_stable_and_seed_sensitive() {
    // Expanding the MAC opens spans too, which would interleave with a
    // streamed run's events.
    let _guard = serial();
    let net = mac_net();
    let flow = NanoMap::new(ArchParams::paper_unbounded());
    let id = flow.run_id(&net, Objective::MinAreaDelayProduct);
    assert_eq!(id, flow.run_id(&net, Objective::MinAreaDelayProduct));
    assert_ne!(id, flow.run_id(&net, Objective::MinDelay { max_les: None }));
    let mut reseeded = NanoMap::new(ArchParams::paper_unbounded());
    reseeded.place_options.seed ^= 1;
    assert_ne!(id, reseeded.run_id(&net, Objective::MinAreaDelayProduct));
}

#[test]
fn every_artifact_embeds_its_registered_version() {
    let _guard = serial();
    let net = mac_net();
    let dir = std::env::temp_dir().join(format!("nanomap-versions-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    nanomap_observe::reset();
    nanomap_observe::set_enabled(true);
    let flow = NanoMap::new(ArchParams::paper_unbounded())
        .with_checkpoint_dir(&dir)
        .with_explain();
    let report = flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
    let snapshot = nanomap_observe::snapshot();
    nanomap_observe::set_enabled(false);

    // QoR document.
    let qor = QorDocument::new(vec![QorReport::from_mapping(
        &report,
        &flow.channels,
        &snapshot,
    )])
    .to_json()
    .to_compact_string();
    assert!(qor.contains(versions::QOR), "qor document lost its schema");

    // Perf document.
    let samples = [("total_ms".to_string(), vec![1.0, 2.0, 3.0])]
        .into_iter()
        .collect();
    let perf = PerfDocument::new(vec![PerfReport::from_samples("mac", 3, &samples)])
        .to_json()
        .to_compact_string();
    assert!(
        perf.contains(versions::PERF),
        "perf document lost its schema"
    );

    // Checkpoint artifact, as written to disk by the flow.
    let ckpt = std::fs::read_to_string(dir.join("mac.ckpt.json")).unwrap();
    assert!(
        ckpt.contains(versions::CHECKPOINT),
        "checkpoint lost its schema"
    );

    // Explain attribution artifact.
    let explain = report.explain.as_ref().expect("with_explain report");
    let explain_json = explain.to_json().to_compact_string();
    assert!(
        explain_json.contains(versions::EXPLAIN),
        "explain lost its schema"
    );

    // Flight-recorder ledger line.
    let run_id = flow.run_id(&net, Objective::MinAreaDelayProduct);
    let line = RunRecord::for_run(&report, &flow, Objective::MinAreaDelayProduct, run_id, 0)
        .to_json()
        .to_compact_string();
    assert!(
        line.contains(versions::EVENTS),
        "ledger line lost its schema"
    );

    // Profile artifact, a view of the same run's spans (schema constant
    // shared with the observe crate).
    let profile_json = snapshot.profile().to_json().to_compact_string();
    assert!(
        profile_json.contains(versions::PROFILE),
        "profile lost its schema"
    );
    assert_eq!(versions::PROFILE, nanomap_observe::PROFILE_SCHEMA);
    assert_eq!(versions::EVENTS, nanomap_observe::EVENTS_SCHEMA);

    std::fs::remove_dir_all(&dir).ok();
}
