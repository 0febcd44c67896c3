//! FlowMap: depth-optimal technology mapping for k-LUT architectures.
//!
//! Implements the algorithm of Cong and Ding (*FlowMap: an optimal
//! technology mapping algorithm for delay optimization in lookup-table
//! based FPGA designs*, IEEE TCAD 13(1), 1994 — reference \[14\] of the
//! NanoMap paper). The two phases are:
//!
//! 1. **Labeling** — in topological order, compute for every node `t` the
//!    minimum LUT depth `l(t)`. With `p` the maximum fanin label, `l(t)`
//!    is `p` iff the fanin cone of `t`, with all label-`p` nodes collapsed
//!    into `t`, has a K-feasible cut (max-flow ≤ k); otherwise `p + 1`.
//! 2. **Mapping** — walking from the outputs, realize each needed node as
//!    one LUT whose inputs are its stored cut, evaluating the cone between
//!    cut and node to derive the truth table.
//!
//! The input network must be k-bounded; [`decompose`] rewrites arbitrary
//! fanin gates into two-input form first.
//!
//! # Dense layout
//!
//! Every signal that can sit in a cone has a dense *signal index*:
//! primary inputs `0..num_inputs`, then gate `g` at `num_inputs + g`.
//! Both phases keep their working state in arrays over that index,
//! reused from gate to gate: a stamp array marks cone membership (a slot
//! belongs to the current cone iff its stamp equals the current mark, so
//! nothing is cleared between gates), one cone `Vec` and one
//! `FlowGraph` serve every labeling step, and mapping keeps one word
//! per signal.
//!
//! The flow network of gate `t` numbers its nodes by the cone sorted by
//! signal index, collapsed nodes skipped. Collapsed are `t` itself and
//! the gates labeled `p`; primary inputs never are. Edges go in a fixed
//! order (split and source edges in cone order, then fanin edges in cone
//! order × input order), and the breadth-first augmenting-path search
//! follows that adjacency order, so it is what decides *which* minimum
//! cut is found.
//!
//! # Cone evaluation
//!
//! A LUT's truth table comes from one bit-parallel pass over its cone:
//! cut entry `i` holds the projection word of variable `i` (`0xAAAA…`,
//! `0xCCCC…`, …), and each cone gate, in topological order, folds its
//! input words with `&`, `|` or `^`, inverted where its kind requires.
//! Bit `r` of the root's word is the LUT's output on row `r`. Every cut
//! entry is the variable at its position — a `Const` entry too, since
//! the `p == 0` and `p + 1` cuts copy the gate's own inputs — and when a
//! signal repeats in a cut, its last position is the one that counts.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod flow;
#[cfg(test)]
mod reference;

use nanomap_netlist::gate::{GateKind, GateNetwork, GateSignal};
use nanomap_netlist::{GateId, LutNetwork, NetlistError, SignalRef, TruthTable};

use crate::error::TechmapError;
use flow::{FlowGraph, INF};

/// Options for FlowMap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowMapOptions {
    /// LUT input count `k`.
    pub lut_inputs: u32,
}

impl Default for FlowMapOptions {
    fn default() -> Self {
        Self { lut_inputs: 4 }
    }
}

/// The result of mapping: the LUT network plus per-output depth labels.
#[derive(Debug)]
pub struct FlowMapResult {
    /// The mapped network.
    pub network: LutNetwork,
    /// The depth label of every original gate (LUT depth at that point).
    pub labels: Vec<u32>,
    /// The maximum label over all primary outputs (the mapped depth).
    pub depth: u32,
}

/// Rewrites a network so no gate has more than two inputs.
///
/// `And`/`Or`/`Xor` chains decompose associatively; `Nand`/`Nor`/`Xnor`
/// become a decomposed base tree whose last gate inverts.
///
/// # Errors
///
/// Returns an error if the network is malformed: cyclic, with an illegal
/// gate arity, or with a gate or output that names a missing signal.
///
/// # Examples
///
/// ```
/// use nanomap_netlist::gate::{GateKind, GateNetwork};
/// use nanomap_techmap::flowmap::decompose;
///
/// # fn main() -> Result<(), nanomap_techmap::TechmapError> {
/// let mut net = GateNetwork::new("wide");
/// let inputs: Vec<_> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
/// let g = net.add_gate(GateKind::And, inputs);
/// net.add_output("y", g);
/// let two = decompose(&net)?;
/// assert!(two.iter().all(|(_, g)| g.inputs.len() <= 2));
/// # Ok(())
/// # }
/// ```
pub fn decompose(net: &GateNetwork) -> Result<GateNetwork, TechmapError> {
    net.validate()?;
    for (name, sig) in net.outputs() {
        let dangling = match *sig {
            GateSignal::Input(i) => i >= net.num_inputs(),
            GateSignal::Gate(g) => g.index() >= net.num_gates(),
            GateSignal::Const(_) => false,
        };
        if dangling {
            return Err(NetlistError::Invalid(format!(
                "output `{name}` references unknown signal {sig:?}"
            ))
            .into());
        }
    }
    let mut out = GateNetwork::new(net.name());
    // Inputs keep their indices.
    for name in net.input_names() {
        out.add_input(name.clone());
    }
    // The rewritten signal of every gate, filled in topological order.
    let mut mapped = vec![GateSignal::Const(false); net.num_gates()];
    let resolve = |sig: GateSignal, mapped: &[GateSignal]| match sig {
        GateSignal::Gate(g) => mapped[g.index()],
        other => other,
    };
    for id in net.topo_order()? {
        let gate = net.gate(id);
        let mut level: Vec<GateSignal> = gate.inputs.iter().map(|&s| resolve(s, &mapped)).collect();
        if level.len() > 2 {
            // The tree's last gate keeps the original kind, so it is the
            // one that inverts.
            let base = match gate.kind {
                GateKind::And | GateKind::Nand => GateKind::And,
                GateKind::Or | GateKind::Nor => GateKind::Or,
                GateKind::Xor | GateKind::Xnor => GateKind::Xor,
                GateKind::Not | GateKind::Buf => {
                    unreachable!("validated unary gates have one input")
                }
            };
            while level.len() > 2 {
                level = level
                    .chunks(2)
                    .map(|chunk| match *chunk {
                        [a, b] => out.add_gate(base, vec![a, b]),
                        _ => chunk[0],
                    })
                    .collect();
            }
        }
        mapped[id.index()] = out.add_named_gate(gate.kind, level, gate.name.clone());
    }
    for (name, sig) in net.outputs() {
        out.add_output(name.clone(), resolve(*sig, &mapped));
    }
    Ok(out)
}

/// Maps a gate network onto k-input LUTs with optimal depth.
///
/// The network is two-input-decomposed internally, so arbitrary fanins are
/// accepted.
///
/// # Errors
///
/// Returns an error if the network is malformed or `k` is outside `2..=6`.
///
/// # Examples
///
/// ```
/// use nanomap_netlist::gate::{GateKind, GateNetwork};
/// use nanomap_techmap::flowmap::{map_network, FlowMapOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = GateNetwork::new("fa");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("cin");
/// let sum = net.add_gate(GateKind::Xor, vec![a, b, c]);
/// net.add_output("sum", sum);
/// let result = map_network(&net, FlowMapOptions::default())?;
/// // A 3-input function fits one 4-LUT.
/// assert_eq!(result.network.num_luts(), 1);
/// assert_eq!(result.depth, 1);
/// # Ok(())
/// # }
/// ```
pub fn map_network(
    net: &GateNetwork,
    options: FlowMapOptions,
) -> Result<FlowMapResult, TechmapError> {
    let mut span = nanomap_observe::span!("techmap-flowmap");
    let k = options.lut_inputs;
    if !(2..=6).contains(&k) {
        return Err(TechmapError::BadLutSize(k));
    }
    let net = decompose(net)?;
    let order = net.topo_order()?;
    let (labels, cuts) = label(&net, &order, k);

    // --- Mapping phase. ---
    let mut out = LutNetwork::new(net.name());
    let input_sigs: Vec<SignalRef> = net
        .input_names()
        .iter()
        .map(|name| out.add_input(name.clone()))
        .collect();
    let mut realized: Vec<Option<SignalRef>> = vec![None; net.num_gates()];
    let mut cones = ConeEvaluator::new(&net, &order);
    // Worklist of gates needing LUTs, from the outputs backwards: a gate
    // whose cut gates are not all realized goes back under them.
    let mut need: Vec<GateId> = net
        .outputs()
        .iter()
        .filter_map(|&(_, s)| match s {
            GateSignal::Gate(g) => Some(g),
            _ => None,
        })
        .collect();
    while let Some(t) = need.pop() {
        if realized[t.index()].is_some() {
            continue;
        }
        let cut = &cuts[t.index()];
        need.push(t);
        let waiting = need.len();
        need.extend(cut.iter().filter_map(|&s| match s {
            GateSignal::Gate(g) if realized[g.index()].is_none() => Some(g),
            _ => None,
        }));
        if need.len() > waiting {
            continue;
        }
        need.pop();
        let truth = cones.truth(&net, t, cut);
        let inputs = cut
            .iter()
            .map(|&s| mapped_signal(s, &input_sigs, &realized))
            .collect();
        let name = net.gate(t).name.clone();
        realized[t.index()] = Some(out.add_lut_full(truth, inputs, None, name));
    }
    for (name, sig) in net.outputs() {
        out.add_output(name.clone(), mapped_signal(*sig, &input_sigs, &realized));
    }
    let depth = net
        .outputs()
        .iter()
        .filter_map(|&(_, s)| match s {
            GateSignal::Gate(g) => Some(labels[g.index()]),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    span.attr("gates", net.num_gates());
    span.attr("luts", out.num_luts());
    span.attr("depth", depth);
    Ok(FlowMapResult {
        network: out,
        labels,
        depth,
    })
}

/// The LUT-network signal of a gate-network signal. Cut and output
/// gates are realized before they are read.
#[cfg_attr(not(test), allow(clippy::expect_used))]
fn mapped_signal(
    sig: GateSignal,
    input_sigs: &[SignalRef],
    realized: &[Option<SignalRef>],
) -> SignalRef {
    match sig {
        GateSignal::Input(i) => input_sigs[i],
        GateSignal::Gate(g) => realized[g.index()].expect("cut gates are realized first"),
        GateSignal::Const(c) => SignalRef::Const(c),
    }
}

/// Flow-node position of a collapsed cone entry.
const COLLAPSED: u32 = u32::MAX;

/// Labeling phase: the depth label and the LUT-input cut of every gate
/// of the two-input network `net`, visited in topological `order`.
fn label(net: &GateNetwork, order: &[GateId], k: u32) -> (Vec<u32>, Vec<Vec<GateSignal>>) {
    let num_inputs = net.num_inputs();
    let signals = num_inputs + net.num_gates();
    let index = |sig: GateSignal| match sig {
        GateSignal::Input(i) => Some(i),
        GateSignal::Gate(g) => Some(num_inputs + g.index()),
        GateSignal::Const(_) => None,
    };
    let signal = |idx: usize| {
        if idx < num_inputs {
            GateSignal::Input(idx)
        } else {
            GateSignal::Gate(GateId::new(idx - num_inputs))
        }
    };

    let mut labels = vec![0u32; net.num_gates()];
    let mut cuts: Vec<Vec<GateSignal>> = vec![Vec::new(); net.num_gates()];
    // Per signal index: the step whose cone holds it, and its flow-node
    // position in that cone (or `COLLAPSED`).
    let mut stamp = vec![0u32; signals];
    let mut node = vec![COLLAPSED; signals];
    let mut cone: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut graph = FlowGraph::default();

    for (step, &t) in order.iter().enumerate() {
        let inputs = &net.gate(t).inputs;
        let p = inputs
            .iter()
            .filter_map(|&s| match s {
                GateSignal::Gate(g) => Some(labels[g.index()]),
                GateSignal::Input(_) => Some(0),
                GateSignal::Const(_) => None,
            })
            .max()
            .unwrap_or(0);
        if p == 0 {
            // All fanins are PIs/constants; a single LUT always suffices
            // (two-input decomposed, k >= 2).
            labels[t.index()] = 1;
            cuts[t.index()] = inputs.clone();
            continue;
        }

        // The transitive fanin cone of `t`, PIs included, by signal index.
        let mark = step as u32 + 1;
        let root = num_inputs + t.index();
        cone.clear();
        stamp[root] = mark;
        stack.push(root);
        while let Some(idx) = stack.pop() {
            cone.push(idx);
            if idx >= num_inputs {
                let fanins = &net.gate(GateId::new(idx - num_inputs)).inputs;
                for fidx in fanins.iter().filter_map(|&f| index(f)) {
                    if stamp[fidx] != mark {
                        stamp[fidx] = mark;
                        stack.push(fidx);
                    }
                }
            }
        }
        cone.sort_unstable();

        // Flow nodes: 0 = source, 1 = sink (with every collapsed node
        // merged into it), then v_in = 2 + 2j and v_out = 3 + 2j for the
        // j-th uncollapsed cone entry.
        let mut j = 0;
        for &idx in &cone {
            let collapsed = idx == root || (idx >= num_inputs && labels[idx - num_inputs] == p);
            node[idx] = if collapsed {
                COLLAPSED
            } else {
                let position = j;
                j += 1;
                position
            };
        }
        let v_in = |idx: usize| 2 + 2 * node[idx] as usize;
        graph.reset(2 + 2 * j as usize);
        for &idx in &cone {
            if node[idx] != COLLAPSED {
                graph.add_edge(v_in(idx), v_in(idx) + 1, 1);
                if idx < num_inputs {
                    graph.add_edge(0, v_in(idx), INF);
                }
            }
        }
        for &idx in cone.iter().filter(|&&idx| idx >= num_inputs) {
            let to = if node[idx] == COLLAPSED { 1 } else { v_in(idx) };
            for &f in &net.gate(GateId::new(idx - num_inputs)).inputs {
                // Edges out of collapsed nodes stay inside the sink.
                if let Some(fidx) = index(f).filter(|&fidx| node[fidx] != COLLAPSED) {
                    graph.add_edge(v_in(fidx) + 1, to, INF);
                }
            }
        }
        if graph.max_flow_bounded(0, 1, i64::from(k)) <= i64::from(k) {
            labels[t.index()] = p;
            // Min cut: split edges from residual-reachable v_in to
            // unreachable v_out. An empty cut is legal for constant-fed
            // cones: the LUT becomes a constant generator.
            let reach = graph.residual_reachable(0);
            let cut: Vec<GateSignal> = cone
                .iter()
                .filter(|&&idx| node[idx] != COLLAPSED && reach[v_in(idx)] && !reach[v_in(idx) + 1])
                .map(|&idx| signal(idx))
                .collect();
            debug_assert!(cut.len() as u32 <= k);
            cuts[t.index()] = cut;
        } else {
            labels[t.index()] = p + 1;
            cuts[t.index()] = inputs.clone();
        }
    }
    (labels, cuts)
}

/// Projection words: bit `r` of `PROJECTION[i]` is bit `i` of row `r`.
const PROJECTION: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Mapping-phase truth-table evaluator, its buffers reused across LUTs.
///
/// Slots are signal indices, plus one slot for each constant so that a
/// constant can be a cut variable like any other entry.
struct ConeEvaluator {
    num_inputs: usize,
    /// Topological position of every gate.
    position: Vec<u32>,
    /// Slot belongs to the current cut or cone iff its stamp is `mark`.
    stamp: Vec<u32>,
    mark: u32,
    /// Truth word of every stamped slot.
    word: Vec<u64>,
    cone: Vec<GateId>,
    stack: Vec<GateId>,
}

impl ConeEvaluator {
    fn new(net: &GateNetwork, order: &[GateId]) -> Self {
        let mut position = vec![0u32; net.num_gates()];
        for (pos, g) in order.iter().enumerate() {
            position[g.index()] = pos as u32;
        }
        let slots = net.num_inputs() + net.num_gates() + 2;
        Self {
            num_inputs: net.num_inputs(),
            position,
            stamp: vec![0; slots],
            mark: 0,
            word: vec![0; slots],
            cone: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn slot(&self, sig: GateSignal) -> usize {
        match sig {
            GateSignal::Input(i) => i,
            GateSignal::Gate(g) => self.num_inputs + g.index(),
            GateSignal::Const(c) => self.num_inputs + self.position.len() + usize::from(c),
        }
    }

    /// Truth table of the cone rooted at `t` with the cut signals as
    /// inputs, variable `i` being `cut[i]`.
    fn truth(&mut self, net: &GateNetwork, t: GateId, cut: &[GateSignal]) -> TruthTable {
        self.mark += 1;
        // A repeated entry ends up with the word of its last position.
        for (&sig, &word) in cut.iter().zip(&PROJECTION) {
            let slot = self.slot(sig);
            self.stamp[slot] = self.mark;
            self.word[slot] = word;
        }
        // The gates between cut (exclusive) and `t` (inclusive).
        self.cone.clear();
        self.stack.push(t);
        while let Some(g) = self.stack.pop() {
            let slot = self.num_inputs + g.index();
            if self.stamp[slot] == self.mark {
                continue;
            }
            self.stamp[slot] = self.mark;
            self.cone.push(g);
            for &f in &net.gate(g).inputs {
                if let GateSignal::Gate(fg) = f {
                    if self.stamp[self.num_inputs + fg.index()] != self.mark {
                        self.stack.push(fg);
                    }
                }
            }
        }
        let position = &self.position;
        self.cone.sort_unstable_by_key(|g| position[g.index()]);
        for ci in 0..self.cone.len() {
            let g = self.cone[ci];
            let gate = net.gate(g);
            let word = gate_word(gate.kind, gate.inputs.iter().map(|&s| self.value(s)));
            self.word[self.num_inputs + g.index()] = word;
        }
        TruthTable::new(cut.len() as u32, self.word[self.num_inputs + t.index()])
    }

    /// The word of an input of a cone gate: a cut variable, an evaluated
    /// cone gate, or a constant outside the cut.
    fn value(&self, sig: GateSignal) -> u64 {
        let slot = self.slot(sig);
        if self.stamp[slot] == self.mark {
            return self.word[slot];
        }
        debug_assert!(
            matches!(sig, GateSignal::Const(_)),
            "cone inputs outside the cut must be constants, got {sig:?}"
        );
        if sig == GateSignal::Const(true) {
            !0
        } else {
            0
        }
    }
}

/// A gate's output word from its input words, row by row.
fn gate_word(kind: GateKind, inputs: impl Iterator<Item = u64>) -> u64 {
    match kind {
        GateKind::And | GateKind::Buf => inputs.fold(!0, |a, w| a & w),
        GateKind::Nand | GateKind::Not => !inputs.fold(!0, |a, w| a & w),
        GateKind::Or => inputs.fold(0, |a, w| a | w),
        GateKind::Nor => !inputs.fold(0, |a, w| a | w),
        GateKind::Xor => inputs.fold(0, |a, w| a ^ w),
        GateKind::Xnor => !inputs.fold(0, |a, w| a ^ w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_netlist::LutSimulator;

    fn check_equivalent(net: &GateNetwork, mapped: &LutNetwork) {
        let n = net.num_inputs();
        assert!(n <= 14, "exhaustive check limited to 14 inputs");
        let mut sim = LutSimulator::new(mapped).unwrap();
        for row in 0u64..(1 << n) {
            let ins: Vec<bool> = (0..n).map(|b| (row >> b) & 1 == 1).collect();
            sim.set_inputs(&ins);
            sim.eval_comb();
            assert_eq!(sim.outputs(), net.eval(&ins), "row {row}");
        }
    }

    fn ripple_adder_gates(width: usize) -> GateNetwork {
        let mut net = GateNetwork::new("rca");
        let a: Vec<_> = (0..width).map(|i| net.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..width).map(|i| net.add_input(format!("b{i}"))).collect();
        let mut carry = net.add_input("cin");
        for i in 0..width {
            let sum = net.add_gate(GateKind::Xor, vec![a[i], b[i], carry]);
            let g1 = net.add_gate(GateKind::And, vec![a[i], b[i]]);
            let g2 = net.add_gate(GateKind::And, vec![a[i], carry]);
            let g3 = net.add_gate(GateKind::And, vec![b[i], carry]);
            carry = net.add_gate(GateKind::Or, vec![g1, g2, g3]);
            net.add_output(format!("s{i}"), sum);
        }
        net.add_output("cout", carry);
        net
    }

    #[test]
    fn maps_full_adder_to_two_luts() {
        let net = ripple_adder_gates(1);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        // sum and carry each fit one 4-LUT (3 inputs).
        assert_eq!(result.network.num_luts(), 2);
        assert_eq!(result.depth, 1);
        check_equivalent(&net, &result.network);
    }

    #[test]
    fn maps_ripple_adder_equivalently() {
        let net = ripple_adder_gates(4);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        check_equivalent(&net, &result.network);
        // FlowMap should beat or match naive one-gate-per-LUT depth.
        assert!(result.depth <= net.depth());
    }

    #[test]
    fn depth_is_optimal_for_xor_tree() {
        // 8-input XOR tree of 2-input gates: depth 3 in gates; with 4-LUTs
        // an optimal mapping reaches depth 2 (two 4-input XORs, then one
        // 2-input XOR).
        let mut net = GateNetwork::new("xor8");
        let mut level: Vec<_> = (0..8).map(|i| net.add_input(format!("i{i}"))).collect();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                next.push(net.add_gate(GateKind::Xor, pair.to_vec()));
            }
            level = next;
        }
        net.add_output("y", level[0]);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        assert_eq!(result.depth, 2);
        check_equivalent(&net, &result.network);
    }

    #[test]
    fn wide_gate_decomposes_and_maps() {
        let mut net = GateNetwork::new("and9");
        let ins: Vec<_> = (0..9).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(GateKind::And, ins);
        net.add_output("y", g);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        check_equivalent(&net, &result.network);
        // 9-input AND with 4-LUTs: ceil(log4(9)) = 2 levels.
        assert_eq!(result.depth, 2);
    }

    #[test]
    fn nand_nor_xnor_decompose_correctly() {
        for kind in [GateKind::Nand, GateKind::Nor, GateKind::Xnor] {
            let mut net = GateNetwork::new("g");
            let ins: Vec<_> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
            let g = net.add_gate(kind, ins);
            net.add_output("y", g);
            let result = map_network(&net, FlowMapOptions::default()).unwrap();
            check_equivalent(&net, &result.network);
        }
    }

    #[test]
    fn output_driven_by_input_passes_through() {
        let mut net = GateNetwork::new("wire");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Not, vec![a]);
        net.add_output("y", g);
        net.add_output("a_copy", a);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        check_equivalent(&net, &result.network);
    }

    #[test]
    fn shared_logic_realized_once() {
        let mut net = GateNetwork::new("share");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let shared = net.add_gate(GateKind::Xor, vec![a, b]);
        // Two outputs depending on the same deep node.
        let o1 = net.add_gate(GateKind::Not, vec![shared]);
        let o2 = net.add_gate(GateKind::Buf, vec![shared]);
        net.add_output("y1", o1);
        net.add_output("y2", o2);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        check_equivalent(&net, &result.network);
    }

    #[test]
    fn labels_monotone_along_paths() {
        let net = ripple_adder_gates(6);
        let result = map_network(&net, FlowMapOptions::default()).unwrap();
        for (id, gate) in decompose(&net).unwrap().iter() {
            for &input in &gate.inputs {
                if let GateSignal::Gate(g) = input {
                    assert!(
                        result.labels[g.index()] <= result.labels[id.index()],
                        "labels must be monotone"
                    );
                }
            }
        }
    }

    #[test]
    fn k2_mapping_works() {
        let net = ripple_adder_gates(2);
        let result = map_network(&net, FlowMapOptions { lut_inputs: 2 }).unwrap();
        check_equivalent(&net, &result.network);
    }

    #[test]
    fn bad_lut_size_rejected() {
        let net = ripple_adder_gates(1);
        assert!(map_network(&net, FlowMapOptions { lut_inputs: 9 }).is_err());
    }

    #[test]
    fn malformed_networks_are_errors_not_panics() {
        // A two-gate combinational loop.
        let mut cyclic = GateNetwork::new("loop");
        let a = cyclic.add_input("a");
        let g0 = cyclic.add_gate(GateKind::And, vec![a, GateSignal::Gate(GateId::new(1))]);
        let g1 = cyclic.add_gate(GateKind::Or, vec![a, g0]);
        cyclic.add_output("y", g1);
        assert!(matches!(
            decompose(&cyclic),
            Err(TechmapError::Netlist(
                NetlistError::CombinationalCycle { .. }
            ))
        ));
        assert!(map_network(&cyclic, FlowMapOptions::default()).is_err());

        // Gate and output references past the end of the network.
        let mut dangling_gate = GateNetwork::new("dangling");
        let a = dangling_gate.add_input("a");
        let g = dangling_gate.add_gate(GateKind::And, vec![a, GateSignal::Gate(GateId::new(7))]);
        dangling_gate.add_output("y", g);
        assert!(decompose(&dangling_gate).is_err());

        let mut dangling_output = GateNetwork::new("dangling");
        let a = dangling_output.add_input("a");
        let g = dangling_output.add_gate(GateKind::Not, vec![a]);
        dangling_output.add_output("y", g);
        dangling_output.add_output("z", GateSignal::Gate(GateId::new(3)));
        dangling_output.add_output("w", GateSignal::Input(2));
        assert!(decompose(&dangling_output).is_err());
        assert!(map_network(&dangling_output, FlowMapOptions::default()).is_err());
    }
}
