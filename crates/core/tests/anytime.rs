//! End-to-end budget, anytime and checkpoint/resume semantics.
//!
//! The contract under test: no budget leaves reports bit-identical to
//! the pre-budget flow; a tiny budget degrades gracefully (never panics
//! or hangs); a checkpointed run resumed from any post-phase snapshot
//! reproduces the uninterrupted run's report exactly, and a snapshot
//! that does not fit the resumed run fails with a typed error.

use nanomap::{
    Checkpoint, CheckpointError, FlowError, MappingReport, NanoMap, Objective, PhaseTimes, Remedy,
    CHECKPOINT_SCHEMA,
};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_netlist::rtl::{CombOp, RtlBuilder, RtlCircuit};
use nanomap_netlist::LutNetwork;
use nanomap_techmap::{expand, ExpandOptions};

/// A small multiplier-accumulator: big enough to fold, pack, place and
/// route, small enough to map in well under a second.
fn mac_circuit() -> RtlCircuit {
    let mut b = RtlBuilder::new("mac");
    let a = b.input("a", 4);
    let x = b.input("x", 4);
    let acc = b.register("acc", 8);
    let gnd = b.constant("gnd", 1, 0);
    let mul = b.comb("mul", CombOp::Mul { width: 4 });
    b.connect(a, 0, mul, 0).unwrap();
    b.connect(x, 0, mul, 1).unwrap();
    let add = b.comb("add", CombOp::Add { width: 8 });
    b.connect(mul, 0, add, 0).unwrap();
    b.connect(acc, 0, add, 1).unwrap();
    b.connect(gnd, 0, add, 2).unwrap();
    b.connect(add, 0, acc, 0).unwrap();
    let y = b.output("y", 8);
    b.connect(acc, 0, y, 0).unwrap();
    b.finish().unwrap()
}

fn mac_net() -> LutNetwork {
    expand(&mac_circuit(), ExpandOptions::default()).unwrap()
}

/// Reports minus wall-clock noise: phase timings differ run to run by
/// construction, everything else must match bit for bit.
fn normalized(report: &MappingReport) -> String {
    let mut r = report.clone();
    r.phase_times = PhaseTimes::default();
    r.to_json().to_compact_string()
}

#[test]
fn no_budget_report_matches_the_unbudgeted_flow() {
    let flow = NanoMap::new(ArchParams::paper_unbounded());
    let plain = flow
        .map(&mac_net(), Objective::MinAreaDelayProduct)
        .unwrap();
    // Anytime mode and a checkpoint directory must not perturb the
    // mapping itself when the budget never expires.
    let dir = std::env::temp_dir().join(format!("nanomap-anytime-{}", std::process::id()));
    let decorated = NanoMap::new(ArchParams::paper_unbounded())
        .with_anytime()
        .with_checkpoint_dir(&dir)
        .map(&mac_net(), Objective::MinAreaDelayProduct)
        .unwrap();
    assert!(!plain.degraded);
    assert!(plain.degradations.is_empty());
    assert_eq!(plain.phase_times.budget_ms_remaining, None);
    assert_eq!(normalized(&plain), normalized(&decorated));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generous_budget_completes_cleanly_and_reports_headroom() {
    let report = NanoMap::new(ArchParams::paper_unbounded())
        .with_budget_ms(600_000)
        .map(&mac_net(), Objective::MinAreaDelayProduct)
        .unwrap();
    assert!(!report.degraded);
    let remaining = report.phase_times.budget_ms_remaining.unwrap();
    assert!(remaining > 0.0 && remaining <= 600_000.0);
}

#[test]
fn zero_budget_strict_mode_fails_with_budget_exhausted() {
    let err = NanoMap::new(ArchParams::paper_unbounded())
        .with_budget_ms(0)
        .map(&mac_net(), Objective::MinAreaDelayProduct)
        .unwrap_err();
    match err {
        FlowError::BudgetExhausted { degradations, .. } => {
            assert!(!degradations.is_empty(), "expired run recorded no phase");
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
}

#[test]
fn zero_budget_anytime_yields_a_degraded_mapping() {
    let report = NanoMap::new(ArchParams::paper_unbounded())
        .with_budget_ms(0)
        .with_anytime()
        .map(&mac_net(), Objective::MinAreaDelayProduct)
        .unwrap();
    assert!(report.degraded);
    assert!(!report.degradations.is_empty());
    assert_eq!(report.recovery.succeeded_with, Some(Remedy::AcceptDegraded));
    // Degraded, not broken: the physical design still exists end to end.
    let physical = report.physical.expect("physical design still runs");
    assert!(physical.num_smbs >= 1);
    assert!(physical.bitmap_bits > 0);
    for d in &report.degradations {
        assert!(!d.phase.is_empty() && !d.reason.is_empty(), "{d:?}");
    }
}

#[test]
fn resume_from_each_checkpoint_phase_reproduces_the_report() {
    let net = mac_net();
    // A clean fabric maps on the first attempt; this defective one
    // climbs the ladder through four candidate fallbacks, so its final
    // checkpoint pins a fallback candidate on an escalated rung.
    for (tag, defects) in [
        ("clean", DefectMap::none()),
        ("defective", DefectMap::uniform(0.4, 4)),
    ] {
        let dir = std::env::temp_dir().join(format!("nanomap-resume-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(defects.clone())
            .with_checkpoint_dir(&dir);
        let baseline = flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
        let path = dir.join("mac.ckpt.json");
        let full = Checkpoint::load(&path).unwrap();
        assert_eq!(full.phase(), "place");
        if tag == "defective" {
            assert!(
                full.candidate_rank > 0,
                "{tag}: pins the preferred candidate"
            );
            assert!(
                !full.recovery.attempts.is_empty(),
                "{tag}: empty recovery log"
            );
        }

        // Resume from each phase prefix a crash could have left behind.
        let resumer = NanoMap::new(ArchParams::paper_unbounded()).with_defects(defects);
        let mut after_fds = full.clone();
        after_fds.placement = None;
        for ckpt in [after_fds, full] {
            let resumed = resumer
                .map_resume(&net, Objective::MinAreaDelayProduct, &ckpt)
                .unwrap();
            assert_eq!(
                normalized(&baseline),
                normalized(&resumed),
                "{tag}: resume from {} diverged",
                ckpt.phase()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_or_corrupt_checkpoints_load_as_typed_errors() {
    let net = mac_net();
    let dir = std::env::temp_dir().join(format!("nanomap-torn-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let flow = NanoMap::new(ArchParams::paper_unbounded()).with_checkpoint_dir(&dir);
    flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
    let path = dir.join("mac.ckpt.json");
    let full_text = std::fs::read_to_string(&path).unwrap();

    // A checkpoint truncated mid-write (torn tail), a file of garbage,
    // and pathological deep nesting (the shape a corrupt disk or hostile
    // client can produce) must all surface as typed errors — never a
    // parse panic or a stack overflow.
    let corruptions: Vec<String> = vec![
        full_text[..full_text.len() / 2].to_string(),
        "not json at all".to_string(),
        "[".repeat(100_000),
        String::new(),
    ];
    for (i, bad) in corruptions.iter().enumerate() {
        std::fs::write(&path, bad).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        let _typed: FlowError = err.into();
        assert!(
            matches!(_typed, FlowError::Checkpoint(_)),
            "corruption #{i} produced {_typed}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_reproduces_the_run_or_fails_typed() {
    let net = mac_net();
    let dir = std::env::temp_dir().join(format!("nanomap-adopt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("mac.ckpt.json");
    let objective = Objective::MinAreaDelayProduct;
    let fabric = |seed| DefectMap::uniform(0.3, seed);
    let on = |defects: DefectMap| NanoMap::new(ArchParams::paper_unbounded()).with_defects(defects);

    // The untouched checkpoint resumes to the run that wrote it.
    let baseline = on(fabric(1))
        .with_checkpoint_dir(&dir)
        .map(&net, objective)
        .unwrap();
    let full = Checkpoint::load(&path).unwrap();
    let placed = full
        .placement
        .clone()
        .expect("the final checkpoint is placed");
    assert!(placed.slots.len() >= 2, "the duplicate case needs 2 SMBs");
    let resumed = on(fabric(1)).map_resume(&net, objective, &full).unwrap();
    assert_eq!(normalized(&baseline), normalized(&resumed));

    let edited = |edit: &dyn Fn(&mut Vec<u32>)| {
        let mut ckpt = full.clone();
        if let Some(p) = ckpt.placement.as_mut() {
            edit(&mut p.slots);
        }
        ckpt
    };
    let num_slots = u32::from(placed.width) * u32::from(placed.height);
    let cases = [
        ("empty placement", edited(&|s| s.clear())),
        ("one slot too many", edited(&|s| s.push(num_slots - 1))),
        ("out-of-grid slot", edited(&|s| s[0] = num_slots)),
        ("duplicate slot", edited(&|s| s[1] = s[0])),
    ];
    for (what, ckpt) in &cases {
        match on(fabric(1)).map_resume(&net, objective, ckpt) {
            Err(FlowError::Checkpoint(_)) => {}
            Err(e) => panic!("{what}: expected a checkpoint error, got {e}"),
            Ok(_) => panic!("{what}: resumed without error"),
        }
    }

    // Another fabric: the seed-1 placement lands on slots seed 2 kills.
    match on(fabric(2)).map_resume(&net, objective, &full) {
        Err(FlowError::Checkpoint(_)) => {}
        Err(e) => panic!("another fabric: expected a checkpoint error, got {e}"),
        Ok(_) => panic!("another fabric: resumed without error"),
    }

    // A file with the previous schema tag fails to load.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        text.replace(CHECKPOINT_SCHEMA, "nanomap-checkpoint-v1"),
    )
    .unwrap();
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(
        matches!(FlowError::from(err), FlowError::Checkpoint(_)),
        "a v1 file must be a typed checkpoint error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_mismatched_netlist_or_objective() {
    let net = mac_net();
    let dir = std::env::temp_dir().join(format!("nanomap-mismatch-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let flow = NanoMap::new(ArchParams::paper_unbounded()).with_checkpoint_dir(&dir);
    flow.map(&net, Objective::MinAreaDelayProduct).unwrap();
    let ckpt = Checkpoint::load(&dir.join("mac.ckpt.json")).unwrap();

    // Different netlist, same name: the fingerprint must catch it.
    let mut b = RtlBuilder::new("mac");
    let a = b.input("a", 4);
    let y = b.output("y", 4);
    let inv = b.comb("inv", CombOp::Not { width: 4 });
    b.connect(a, 0, inv, 0).unwrap();
    b.connect(inv, 0, y, 0).unwrap();
    let other = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
    let err = flow
        .map_resume(&other, Objective::MinAreaDelayProduct, &ckpt)
        .unwrap_err();
    assert!(matches!(err, FlowError::Checkpoint(_)), "{err}");

    let err = flow
        .map_resume(&net, Objective::MinDelay { max_les: None }, &ckpt)
        .unwrap_err();
    assert!(matches!(err, FlowError::Checkpoint(_)), "{err}");

    // Internally inconsistent: the pinned stage count disagrees with
    // the schedules it carries, so resuming would misreport delay and
    // NRAM usage.
    let mut inconsistent = ckpt.clone();
    inconsistent.stages = ckpt.schedules[0].stages + 5;
    let err = flow
        .map_resume(&net, Objective::MinAreaDelayProduct, &inconsistent)
        .unwrap_err();
    assert!(
        matches!(
            err,
            FlowError::Checkpoint(CheckpointError::Malformed { .. })
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
