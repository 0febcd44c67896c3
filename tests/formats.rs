//! Front-end integration: VHDL and BLIF inputs through the whole flow.

use nanomap::{NanoMap, Objective};
use nanomap_arch::ArchParams;
use nanomap_netlist::rtl::RtlSimulator;
use nanomap_netlist::{blif, vhdl, LutSimulator};
use nanomap_techmap::{expand, ExpandOptions};

const COUNTER_VHDL: &str = r#"
entity counter is
  port ( step : in std_logic_vector(3 downto 0);
         q    : out std_logic_vector(3 downto 0) );
end counter;
architecture rtl of counter is
  signal state : std_logic_vector(3 downto 0);
  signal nxt   : std_logic_vector(3 downto 0);
  signal c     : std_logic;
begin
  u_add: add generic map (width => 4)
         port map (a => state, b => step, cin => '0', sum => nxt, cout => c);
  u_reg: reg generic map (width => 4) port map (d => nxt, q => state);
  q <= state;
end rtl;
"#;

/// VHDL -> RTL -> LUTs -> folded mapping, with simulation cross-checks at
/// each representation.
#[test]
fn vhdl_to_bitmap() {
    let circuit = vhdl::parse(COUNTER_VHDL).expect("parses");
    // RTL behaviour: accumulates step.
    let mut sim = RtlSimulator::new(&circuit).expect("simulates");
    sim.set_input("step", 3);
    sim.step();
    sim.step();
    sim.eval_comb();
    assert_eq!(sim.output("q"), Some(6));

    // Mapped behaviour matches.
    let net = expand(&circuit, ExpandOptions::default()).expect("expands");
    let report = nanomap_techmap::verify_equivalence(&circuit, &net, 200, 7).expect("runs");
    assert!(report.is_equivalent());

    // Full flow with verification.
    let flow = NanoMap::new(ArchParams::paper()).with_verification();
    let mapped = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("maps");
    assert!(mapped.physical.is_some());
}

/// BLIF -> LUT network -> folded mapping, and BLIF round-trip fidelity.
#[test]
fn blif_to_mapping_and_round_trip() {
    let text = "\
.model lfsr3
.inputs en
.outputs q0 q1 q2
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.latch d2 q2 re clk 0
.names q2 en q0 d0
0-0 1
-01 1
11- 1
.names q0 d1
1 1
.names q1 d2
1 1
.end
";
    let net = blif::parse(text).expect("parses");
    assert_eq!(net.num_ffs(), 3);

    // Round-trip through the writer.
    let net2 = blif::parse(&blif::write(&net)).expect("round-trips");
    let mut sim1 = LutSimulator::new(&net).expect("simulates");
    let mut sim2 = LutSimulator::new(&net2).expect("simulates");
    for cycle in 0..40 {
        let input = [cycle % 3 != 0];
        sim1.set_inputs(&input);
        sim2.set_inputs(&input);
        sim1.step();
        sim2.step();
        assert_eq!(sim1.outputs(), sim2.outputs(), "cycle {cycle}");
    }

    // The sequential BLIF design maps through the full flow.
    let flow = NanoMap::new(ArchParams::paper()).with_verification();
    let report = flow
        .map(&net, Objective::MinAreaDelayProduct)
        .expect("maps");
    assert!(report.num_les >= 1);
}

/// The benchmark c5315-class network survives a BLIF round trip (write,
/// re-parse, same LUT count) — exercises the writer on a real netlist.
#[test]
fn c5315_blif_round_trip() {
    let net = nanomap_bench::circuits::c5315_like();
    let text = blif::write(&net);
    let net2 = blif::parse(&text).expect("round-trips");
    // The writer adds buffer blocks for renamed outputs, so the LUT count
    // may only grow.
    assert!(net2.num_luts() >= net.num_luts());
    assert_eq!(net.num_inputs(), net2.num_inputs());
    assert_eq!(net.outputs().len(), net2.outputs().len());
    // Spot-check functional agreement on a few vectors.
    let mut sim1 = LutSimulator::new(&net).expect("simulates");
    let mut sim2 = LutSimulator::new(&net2).expect("simulates");
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..16 {
        let inputs: Vec<bool> = (0..net.num_inputs())
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> (i % 64)) & 1 == 1
            })
            .collect();
        sim1.set_inputs(&inputs);
        sim2.set_inputs(&inputs);
        sim1.eval_comb();
        sim2.eval_comb();
        assert_eq!(sim1.outputs(), sim2.outputs());
    }
}

/// Checkpoints and the flight-recorder ledger key on the netlist
/// fingerprint; a drifting hash would orphan every committed artifact.
#[test]
fn netlist_fingerprint_is_pinned() {
    let ex1 = nanomap_bench::circuits::paper_benchmarks()
        .into_iter()
        .find(|b| b.name == "ex1")
        .expect("ex1 is a paper benchmark")
        .network;
    assert_eq!(
        nanomap::checkpoint::netlist_fingerprint(&ex1),
        0xd570_2c35_561e_6dbd
    );
}
