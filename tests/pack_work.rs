//! Work gate for temporal clustering.
//!
//! Neither a candidate's temporal design nor its packing depends on the
//! recovery rung, so each walk of the plan packs a folding candidate
//! once: every heuristic rung reuses the packing, and so does every grid
//! sizing of the exact rung. This binary counts `pack` spans on two of
//! nanobench's `defects` fabrics and pins their bitstream hashes, so a
//! return to packing per rung or per sizing, or a packer whose output
//! drifts, fails the tier-1 suite.
//!
//! The collector is process-global; this binary holds a single test so
//! nothing else runs beside it.

use std::collections::BTreeSet;

use nanomap::{NanoMap, Objective, Remedy};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_bench::circuits;
use nanomap_netlist::rtl::RtlCircuit;
use nanomap_observe::{self as observe, Fnv1a};
use nanomap_techmap::{expand, ExpandOptions};

/// What one mapping packed, and what it emitted.
struct PackWork {
    /// `pack` spans opened.
    packs: usize,
    /// Distinct `(folding level, stages)` candidates the heuristic
    /// ladder tried, the winning attempt included.
    heuristic: BTreeSet<(Option<u32>, u32)>,
    /// The same for the exact rung.
    exact: BTreeSet<(Option<u32>, u32)>,
    /// FNV-1a of the bitstream.
    bitstream_hash: u64,
}

/// Maps `circuit` as nanobench's `defects` workload does: the paper
/// architecture with a uniform defect map, the exact rung behind a
/// 50,000-conflict budget when `exact` is set.
fn pack_work(circuit: &RtlCircuit, rate: f64, seed: u64, exact: bool) -> PackWork {
    let net = expand(circuit, ExpandOptions::default()).expect("expands");
    let mut flow = NanoMap::new(ArchParams::paper())
        .with_bitstream()
        .with_defects(DefectMap::uniform(rate, seed));
    if exact {
        flow = flow.with_exact_recovery().with_sat_conflict_budget(50_000);
    }
    observe::reset();
    observe::set_enabled(true);
    let report = flow.map(&net, Objective::MinAreaDelayProduct);
    observe::set_enabled(false);
    let report = report.expect("maps");
    let packs = observe::snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "pack")
        .count();

    let (mut heuristic, mut exact) = (BTreeSet::new(), BTreeSet::new());
    let tried = report
        .recovery
        .attempts
        .iter()
        .map(|a| (a.remedy, (a.folding_level, a.stages)));
    let winner = report
        .recovery
        .succeeded_with
        .map(|remedy| (remedy, (report.folding_level, report.stages)));
    for (remedy, candidate) in tried.chain(winner) {
        if remedy == Remedy::ExactAssign {
            exact.insert(candidate);
        } else {
            heuristic.insert(candidate);
        }
    }
    let bitstream = report
        .physical
        .and_then(|p| p.bitstream)
        .expect("the flow emits a bitstream");
    PackWork {
        packs,
        heuristic,
        exact,
        bitstream_hash: Fnv1a::new().bytes(&bitstream).finish(),
    }
}

#[test]
fn each_candidate_is_packed_once_per_walk() {
    // ex1 at 10% defects on nanobench's fabric: every rung of the first
    // candidate fails, and the second wins on its third rung. Packing per
    // attempt opened 7 `pack` spans here.
    let ex1 = pack_work(&circuits::ex1(16), 0.10, 2, false);
    assert_eq!(
        ex1.heuristic.len(),
        2,
        "ex1 candidates: {:?}",
        ex1.heuristic
    );
    assert!(ex1.exact.is_empty());
    assert_eq!(ex1.packs, 2, "ex1 opened {} pack spans", ex1.packs);
    assert_eq!(
        ex1.bitstream_hash, 7_765_783_279_880_450_818,
        "ex1 bitstream"
    );

    // ex2 at 20%: the heuristic ladder exhausts and the exact rung
    // rescues. Each candidate of each walk is packed once, not once per
    // rung or per grid sizing.
    let ex2 = pack_work(&circuits::ex2(), 0.20, 2, true);
    assert!(
        !ex2.exact.is_empty(),
        "ex2 was not rescued by the exact rung"
    );
    assert_eq!(
        ex2.packs,
        ex2.heuristic.len() + ex2.exact.len(),
        "ex2 opened {} pack spans for {} heuristic and {} exact candidates",
        ex2.packs,
        ex2.heuristic.len(),
        ex2.exact.len()
    );
    assert_eq!(
        ex2.bitstream_hash, 15_230_994_473_752_676_935,
        "ex2 bitstream"
    );
}
