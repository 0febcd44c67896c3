//! Work-counter gate for force-directed scheduling.
//!
//! FDS work is deterministic: the rounds, the (item, cycle) force
//! evaluations, the DG rebuilds and the bytes allocated inside the `fds`
//! span repeat exactly for a given item graph. This binary pins them on
//! FIR (every candidate folding level) and on c5315's 1-, 4- and
//! 10-stage candidates, so a return to re-evaluating every force each
//! round, to allocating per force evaluation, or to doing different work
//! at all fails the tier-1 suite.
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

/// The work of scheduling some FDS runs.
struct Work {
    rounds: u64,
    force_evals: u64,
    dg_rebuilds: u64,
    /// Bytes allocated inside the `fds` phase.
    fds_bytes: u64,
}

/// The work of scheduling every plane of `circuit` at each candidate
/// stage count in `stages` (all candidates when `None`), with the paper
/// architecture's LE shape.
fn fds_work(circuit: &str, stages: Option<u32>) -> Work {
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
    let counters = observe::snapshot();
    let fds_bytes = memory
        .expect("tracking was on")
        .by_phase
        .iter()
        .find(|&&(phase, _, _)| phase == "fds")
        .map_or(0, |&(_, _, bytes)| bytes);
    Work {
        rounds: counters.counter("fds.rounds"),
        force_evals: counters.counter("fds.force_evals"),
        dg_rebuilds: counters.counter("fds.dg_rebuilds"),
        fds_bytes,
    }
}

/// Force evaluations of the from-scratch loop, which re-evaluated every
/// unpinned (item, cycle) pair each round, on the same workloads.
const FROM_SCRATCH_EVALS_FIR: u64 = 102_391;
const FROM_SCRATCH_EVALS_C5315_4: u64 = 713_838;

/// Rounds, force evaluations and DG rebuilds of c5315's 10- and 1-stage
/// candidates, measured on the loop that recomputed every frame after
/// each pin and evaluated a stale item's forces one cycle at a time.
const C5315_EXACT: [(u32, u64, u64, u64); 2] = [(10, 828, 1_203_242, 585), (1, 828, 828, 1)];

/// FDS-phase allocation bound for any workload. The from-scratch loop
/// allocated 86 MB on FIR and 115 MB on c5315's 4-stage candidate; one
/// pair of per-evaluation distribution vectors alone would add about
/// 20 MB to the latter.
const FDS_ALLOC_BOUND: u64 = 1_000_000;

#[test]
fn fds_work_stays_incremental_and_allocation_free() {
    for (circuit, stages, from_scratch) in [
        ("FIR", None, FROM_SCRATCH_EVALS_FIR),
        ("c5315", Some(4), FROM_SCRATCH_EVALS_C5315_4),
    ] {
        let work = fds_work(circuit, stages);
        let evals = work.force_evals;
        assert!(evals > 0, "{circuit}: no force evaluations counted");
        assert!(
            evals * 10 <= from_scratch * 6,
            "{circuit}: {evals} force evaluations, more than 0.6x the \
             from-scratch {from_scratch}"
        );
        assert!(
            work.fds_bytes < FDS_ALLOC_BOUND,
            "{circuit}: FDS allocated {} bytes (bound {FDS_ALLOC_BOUND})",
            work.fds_bytes
        );
    }
    for (stages, rounds, force_evals, dg_rebuilds) in C5315_EXACT {
        let work = fds_work("c5315", Some(stages));
        assert_eq!(
            (work.rounds, work.force_evals, work.dg_rebuilds),
            (rounds, force_evals, dg_rebuilds),
            "c5315 at {stages} stages: (rounds, force evaluations, DG rebuilds)"
        );
        assert!(
            work.fds_bytes < FDS_ALLOC_BOUND,
            "c5315 at {stages} stages: FDS allocated {} bytes (bound {FDS_ALLOC_BOUND})",
            work.fds_bytes
        );
    }
}
