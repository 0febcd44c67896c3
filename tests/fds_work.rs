//! Work-counter gate for force-directed scheduling.
//!
//! FDS work is deterministic: the number of (item, cycle) force
//! evaluations and the bytes allocated inside the `fds` span repeat
//! exactly for a given item graph. This binary pins both on FIR (every
//! candidate folding level) and on one c5315 candidate, so a return to
//! re-evaluating every force each round, or to allocating per force
//! evaluation, fails the tier-1 suite.
//!
//! The collector and the allocation counters are process-global; this
//! binary holds a single test so nothing else runs beside it.

use nanomap_arch::ArchParams;
use nanomap_bench::circuits::paper_benchmarks;
use nanomap_netlist::PlaneSet;
use nanomap_observe as observe;
use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph, LeShape};

/// Phase attribution needs the counting wrapper as the global allocator.
#[global_allocator]
static ALLOC: observe::CountingAllocator = observe::CountingAllocator::system();

/// Force evaluations and `fds`-phase allocated bytes of scheduling every
/// plane of `circuit` at each candidate stage count in `stages` (all
/// candidates when `None`), with the paper architecture's LE shape.
fn fds_work(circuit: &str, stages: Option<u32>) -> (u64, u64) {
    let net = paper_benchmarks()
        .into_iter()
        .find(|b| b.name == circuit)
        .expect("paper benchmark")
        .network;
    let planes = PlaneSet::extract(&net).expect("planes");
    let arch = ArchParams::paper();
    let options = FdsOptions {
        shape: LeShape {
            luts: arch.luts_per_le,
            ffs: arch.ffs_per_le,
        },
        ..FdsOptions::default()
    };
    let mut runs = Vec::new();
    for config in nanomap::candidate_configs(&planes, u32::MAX) {
        let Some(level) = config.level else {
            continue;
        };
        if stages.is_some_and(|s| s != config.stages) {
            continue;
        }
        for plane in planes.planes() {
            let graph = ItemGraph::build(&net, plane, level).expect("item graph");
            runs.push((graph, config.stages));
        }
    }
    assert!(!runs.is_empty(), "{circuit} has no candidate at {stages:?}");

    observe::reset();
    observe::reset_memory();
    observe::set_enabled(true);
    observe::set_memory_tracking(true);
    for (graph, stages) in &runs {
        schedule_fds(&net, graph, *stages, options).expect("schedules");
    }
    let memory = observe::memory_report();
    observe::set_memory_tracking(false);
    observe::set_enabled(false);
    let evals = observe::snapshot().counter("fds.force_evals");
    let fds_bytes = memory
        .expect("tracking was on")
        .by_phase
        .iter()
        .find(|&&(phase, _, _)| phase == "fds")
        .map_or(0, |&(_, _, bytes)| bytes);
    (evals, fds_bytes)
}

/// Force evaluations of the from-scratch loop, which re-evaluated every
/// unpinned (item, cycle) pair each round, on the same workloads.
const FROM_SCRATCH_EVALS_FIR: u64 = 102_391;
const FROM_SCRATCH_EVALS_C5315_4: u64 = 713_838;

/// FDS-phase allocation bound for either workload. The from-scratch loop
/// allocated 86 MB on FIR and 115 MB on the c5315 candidate; one pair of
/// per-evaluation distribution vectors alone would add about 20 MB to
/// the latter.
const FDS_ALLOC_BOUND: u64 = 1_000_000;

#[test]
fn fds_work_stays_incremental_and_allocation_free() {
    for (circuit, stages, from_scratch) in [
        ("FIR", None, FROM_SCRATCH_EVALS_FIR),
        ("c5315", Some(4), FROM_SCRATCH_EVALS_C5315_4),
    ] {
        let (evals, bytes) = fds_work(circuit, stages);
        assert!(evals > 0, "{circuit}: no force evaluations counted");
        assert!(
            evals * 10 <= from_scratch * 6,
            "{circuit}: {evals} force evaluations, more than 0.6x the \
             from-scratch {from_scratch}"
        );
        assert!(
            bytes < FDS_ALLOC_BOUND,
            "{circuit}: FDS allocated {bytes} bytes (bound {FDS_ALLOC_BOUND})"
        );
    }
}
