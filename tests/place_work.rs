//! Pins for the physical layer: placement, routing and the bitstream.
//!
//! Each design maps through the whole flow with a fixed seed; the
//! bitstream hash, the routed delay's bit pattern and the annealer's and
//! router's work counters were recorded before the placer, router and
//! RR-graph builder lost their defect-free and token-free twins. Any
//! drift in the anneal trajectory, the legality mask, PathFinder's
//! negotiation or the RR graph fails this binary.
//!
//! The collector is process-global; this binary holds a single test so
//! nothing else runs beside it.

use nanomap::{NanoMap, Objective};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_bench::circuits;
use nanomap_netlist::rtl::RtlCircuit;
use nanomap_observe::{self as observe, Fnv1a};
use nanomap_techmap::{expand, ExpandOptions};

/// What one mapping's physical layer did, and what it emitted.
#[derive(Debug, PartialEq, Eq)]
struct PlaceWork {
    /// FNV-1a of the bitstream.
    bitstream_hash: u64,
    /// `routed_delay_ns.to_bits()`.
    routed_delay_bits: u64,
    /// Annealing moves proposed over every placement attempt.
    moves_proposed: u64,
    /// PathFinder iterations over every slice of every routing attempt.
    route_iterations: u64,
}

/// Maps `circuit` on the paper architecture, on a uniform defect map
/// when `defects` is `Some((rate, seed))`.
fn place_work(circuit: &RtlCircuit, defects: Option<(f64, u64)>) -> PlaceWork {
    let net = expand(circuit, ExpandOptions::default()).expect("expands");
    let mut flow = NanoMap::new(ArchParams::paper()).with_bitstream();
    if let Some((rate, seed)) = defects {
        flow = flow.with_defects(DefectMap::uniform(rate, seed));
    }
    observe::reset();
    observe::set_enabled(true);
    let report = flow.map(&net, Objective::MinAreaDelayProduct);
    observe::set_enabled(false);
    let physical = report.expect("maps").physical.expect("physical ran");
    let snapshot = observe::snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let bitstream = physical.bitstream.expect("the flow emits a bitstream");
    PlaceWork {
        bitstream_hash: Fnv1a::new().bytes(&bitstream).finish(),
        routed_delay_bits: physical.routed_delay_ns.to_bits(),
        moves_proposed: counter("place.moves_proposed"),
        route_iterations: counter("route.iterations"),
    }
}

#[test]
fn physical_layer_output_is_pinned() {
    let cases = [
        (
            "ex1",
            place_work(&circuits::ex1(16), None),
            PlaceWork {
                bitstream_hash: 10_598_319_521_113_838_361,
                routed_delay_bits: 4_631_974_734_748_691_989,
                moves_proposed: 12_767,
                route_iterations: 17,
            },
        ),
        (
            "FIR",
            place_work(&circuits::fir(), None),
            PlaceWork {
                bitstream_hash: 12_203_386_395_153_534_462,
                routed_delay_bits: 4_629_165_614_481_119_642,
                moves_proposed: 13_440,
                route_iterations: 10,
            },
        ),
        (
            "ex2",
            place_work(&circuits::ex2(), None),
            PlaceWork {
                bitstream_hash: 17_728_389_549_346_783_238,
                routed_delay_bits: 4_636_442_622_238_392_321,
                moves_proposed: 16_712,
                route_iterations: 15,
            },
        ),
        // nanobench's `defects` fabric for ex1: failed place/route
        // attempts come before the winner.
        (
            "ex1@10%",
            place_work(&circuits::ex1(16), Some((0.10, 2))),
            PlaceWork {
                bitstream_hash: 7_765_783_279_880_450_818,
                routed_delay_bits: 4_632_287_171_972_840_818,
                moves_proposed: 16_376,
                route_iterations: 19,
            },
        ),
    ];
    for (name, got, pinned) in cases {
        assert_eq!(
            got,
            pinned,
            "{name}: routed delay {} ns, pinned {} ns",
            f64::from_bits(got.routed_delay_bits),
            f64::from_bits(pinned.routed_delay_bits)
        );
    }
}
