//! Pinned front end: FlowMap on c5315's gate network.
//!
//! nanobench's `fold` workload maps c5315 from its 2,106 two-input gates,
//! so FlowMap's output is the first thing its bitstream depends on. This
//! binary pins the fingerprint of the mapped network at every LUT size,
//! so a mapper whose labels, cuts, truth tables or LUT order drift fails
//! the tier-1 suite. It also checks that a traced mapping opens the
//! `techmap-flowmap` span with its attributes.
//!
//! The collector is process-global; this binary holds a single test so
//! nothing else runs beside it.

use nanomap::netlist_fingerprint;
use nanomap_bench::circuits::c5315_gates;
use nanomap_observe as observe;
use nanomap_techmap::{map_network, FlowMapOptions};

#[test]
fn c5315_maps_to_pinned_networks_under_a_flowmap_span() {
    let gates = c5315_gates();
    let pinned: [(u32, u64); 5] = [
        (2, 0xdc01_1575_42fb_ddbc),
        (3, 0x7524_542b_c678_5852),
        (4, 0xe711_1f8d_110a_47a4),
        (5, 0x5127_cc1b_b08e_f058),
        (6, 0x3a6c_dbf1_e631_a20d),
    ];
    for (k, fingerprint) in pinned {
        let mapped = map_network(&gates, FlowMapOptions { lut_inputs: k }).expect("c5315 maps");
        assert_eq!(
            netlist_fingerprint(&mapped.network),
            fingerprint,
            "c5315 at k = {k}: {} LUTs, depth {}",
            mapped.network.num_luts(),
            mapped.depth
        );
    }

    observe::reset();
    observe::set_enabled(true);
    let mapped = map_network(&gates, FlowMapOptions::default());
    observe::set_enabled(false);
    let mapped = mapped.expect("c5315 maps");
    let spans = observe::snapshot().spans;
    let flowmap: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "techmap-flowmap")
        .collect();
    assert_eq!(flowmap.len(), 1, "one techmap-flowmap span per call");
    let attr = |key: &str| {
        flowmap[0]
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("techmap-flowmap has no `{key}` attribute"))
    };
    // The two-input gates FlowMap labels, after decomposition.
    assert_eq!(attr("gates"), observe::JsonValue::from(mapped.labels.len()));
    assert_eq!(
        attr("luts"),
        observe::JsonValue::from(mapped.network.num_luts())
    );
    assert_eq!(attr("depth"), observe::JsonValue::from(mapped.depth));
}
