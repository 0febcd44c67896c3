//! The reference mapper: FlowMap as it was before its working state went
//! dense, kept as an oracle. Every labeling step builds its cone, its
//! collapsed set and its node numbering in hash maps, and every LUT's
//! truth table comes from a full topological sort and one evaluation of
//! the cone per input assignment.

use std::collections::{HashMap, HashSet};

use nanomap_netlist::gate::{GateKind, GateNetwork, GateSignal};
use nanomap_netlist::{GateId, LutNetwork, SignalRef, TruthTable};
use nanomap_observe::rng::XorShift64Star;

use super::flow::{FlowGraph, INF};
use super::{decompose, map_network, FlowMapOptions, FlowMapResult};
use crate::error::TechmapError;

/// FlowMap as it was before its working state went dense, without its
/// telemetry.
fn reference_map(net: &GateNetwork, k: u32) -> Result<FlowMapResult, TechmapError> {
    if !(2..=6).contains(&k) {
        return Err(TechmapError::BadLutSize(k));
    }
    let net = decompose(net)?;
    let order = net.topo_order()?;
    let n = net.num_gates();
    let num_inputs = net.num_inputs();

    // Flow-network node ids: every "signal node" is a PI or a gate.
    // sig_index: PIs 0..num_inputs, gates num_inputs + gate_index.
    let sig_index = |sig: GateSignal| -> Option<usize> {
        match sig {
            GateSignal::Input(i) => Some(i),
            GateSignal::Gate(g) => Some(num_inputs + g.index()),
            GateSignal::Const(_) => None,
        }
    };

    let mut labels = vec![0u32; n];
    // Best K-feasible cut per gate: the LUT input signals.
    let mut cuts: Vec<Vec<GateSignal>> = vec![Vec::new(); n];

    for &t in &order {
        // Collect cone (gates + PIs) via DFS over fanins.
        let mut in_cone = HashMap::new(); // sig_index -> GateSignal
        let mut stack = vec![GateSignal::Gate(t)];
        while let Some(sig) = stack.pop() {
            let Some(idx) = sig_index(sig) else { continue };
            if in_cone.contains_key(&idx) {
                continue;
            }
            in_cone.insert(idx, sig);
            if let GateSignal::Gate(g) = sig {
                for &f in &net.gate(g).inputs {
                    stack.push(f);
                }
            }
        }
        let p = net
            .gate(t)
            .inputs
            .iter()
            .filter_map(|&s| match s {
                GateSignal::Gate(g) => Some(labels[g.index()]),
                GateSignal::Input(_) => Some(0),
                GateSignal::Const(_) => None,
            })
            .max()
            .unwrap_or(0);
        if p == 0 {
            labels[t.index()] = 1;
            cuts[t.index()] = net.gate(t).inputs.clone();
            continue;
        }

        // Build the flow network: source + 2 nodes per cone signal + sink.
        // Collapsed nodes (label == p gates, and t itself) merge into sink.
        let mut cone: Vec<(usize, GateSignal)> = in_cone.iter().map(|(&i, &s)| (i, s)).collect();
        cone.sort_unstable_by_key(|&(i, _)| i);
        let collapsed_set: HashSet<usize> = cone
            .iter()
            .filter_map(|&(idx, sig)| match sig {
                GateSignal::Gate(g) if g == t || labels[g.index()] == p => Some(idx),
                _ => None,
            })
            .collect();
        let collapsed = move |sig: GateSignal| -> bool {
            match sig_index(sig) {
                Some(idx) => collapsed_set.contains(&idx),
                None => false,
            }
        };
        // Flow node numbering: 0 = source, 1 = sink, then v_in = 2 + 2*j,
        // v_out = 3 + 2*j for cone position j (skipping collapsed nodes).
        let mut pos_of: HashMap<usize, usize> = HashMap::new();
        let mut j = 0;
        for &(idx, sig) in &cone {
            if !collapsed(sig) {
                pos_of.insert(idx, j);
                j += 1;
            }
        }
        let mut graph = FlowGraph::new(2 + 2 * j);
        let v_in = |idx: usize, pos_of: &HashMap<usize, usize>| 2 + 2 * pos_of[&idx];
        let v_out = |idx: usize, pos_of: &HashMap<usize, usize>| 3 + 2 * pos_of[&idx];
        for &(idx, sig) in &cone {
            if collapsed(sig) {
                continue;
            }
            graph.add_edge(v_in(idx, &pos_of), v_out(idx, &pos_of), 1);
            if matches!(sig, GateSignal::Input(_)) {
                graph.add_edge(0, v_in(idx, &pos_of), INF);
            }
        }
        // Wire fanin edges.
        for &(idx, sig) in &cone {
            let GateSignal::Gate(g) = sig else { continue };
            let dst_collapsed = collapsed(sig);
            for &f in &net.gate(g).inputs {
                let Some(fidx) = sig_index(f) else { continue };
                if collapsed(f) {
                    continue;
                }
                let from = v_out(fidx, &pos_of);
                let to = if dst_collapsed { 1 } else { v_in(idx, &pos_of) };
                graph.add_edge(from, to, INF);
            }
        }
        let flow = graph.max_flow_bounded(0, 1, i64::from(k));
        if flow <= i64::from(k) {
            labels[t.index()] = p;
            let reach = graph.residual_reachable(0);
            let mut cut = Vec::new();
            for &(idx, sig) in &cone {
                if collapsed(sig) {
                    continue;
                }
                if reach[v_in(idx, &pos_of)] && !reach[v_out(idx, &pos_of)] {
                    cut.push(sig);
                }
            }
            cuts[t.index()] = cut;
        } else {
            labels[t.index()] = p + 1;
            cuts[t.index()] = net.gate(t).inputs.clone();
        }
    }

    // --- Mapping phase. ---
    let mut out = LutNetwork::new(net.name());
    let input_sigs: Vec<SignalRef> = net
        .input_names()
        .iter()
        .map(|name| out.add_input(name.clone()))
        .collect();
    let mut realized: HashMap<GateId, SignalRef> = HashMap::new();
    let mut need: Vec<GateId> = net
        .outputs()
        .iter()
        .filter_map(|&(_, s)| match s {
            GateSignal::Gate(g) => Some(g),
            _ => None,
        })
        .collect();
    while let Some(t) = need.pop() {
        if realized.contains_key(&t) {
            continue;
        }
        // Ensure cut gates are realized first.
        let missing: Vec<GateId> = cuts[t.index()]
            .iter()
            .filter_map(|&s| match s {
                GateSignal::Gate(g) if !realized.contains_key(&g) => Some(g),
                _ => None,
            })
            .collect();
        if !missing.is_empty() {
            need.push(t);
            need.extend(missing);
            continue;
        }
        let cut = &cuts[t.index()];
        let truth = cone_truth(&net, t, cut);
        let inputs: Vec<SignalRef> = cut
            .iter()
            .map(|&s| match s {
                GateSignal::Input(i) => input_sigs[i],
                GateSignal::Gate(g) => realized[&g],
                GateSignal::Const(c) => SignalRef::Const(c),
            })
            .collect();
        let name = net.gate(t).name.clone();
        let sig = out.add_lut_full(truth, inputs, None, name);
        realized.insert(t, sig);
    }
    for (name, sig) in net.outputs() {
        let mapped = match *sig {
            GateSignal::Input(i) => input_sigs[i],
            GateSignal::Gate(g) => realized[&g],
            GateSignal::Const(c) => SignalRef::Const(c),
        };
        out.add_output(name.clone(), mapped);
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
    Ok(FlowMapResult {
        network: out,
        labels,
        depth,
    })
}

/// Truth table of the cone rooted at `t` with the cut signals as inputs.
fn cone_truth(net: &GateNetwork, t: GateId, cut: &[GateSignal]) -> TruthTable {
    // Gather cone gates between cut and t (t inclusive, cut exclusive).
    let cut_pos: HashMap<GateSignal, usize> =
        cut.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut cone: Vec<GateId> = Vec::new();
    let mut seen: HashMap<GateId, bool> = HashMap::new();
    let mut stack = vec![t];
    while let Some(g) = stack.pop() {
        if seen.contains_key(&g) || cut_pos.contains_key(&GateSignal::Gate(g)) {
            continue;
        }
        seen.insert(g, true);
        cone.push(g);
        for &f in &net.gate(g).inputs {
            if let GateSignal::Gate(fg) = f {
                if !cut_pos.contains_key(&f) {
                    stack.push(fg);
                }
            }
        }
    }
    // Topologically order the cone subset.
    let order = net.topo_order().expect("acyclic");
    let in_cone: HashMap<GateId, ()> = cone.iter().map(|&g| (g, ())).collect();
    let cone_order: Vec<GateId> = order
        .into_iter()
        .filter(|g| in_cone.contains_key(g))
        .collect();

    TruthTable::from_fn(cut.len() as u32, |assignment| {
        let mut values: HashMap<GateId, bool> = HashMap::new();
        let value = |sig: GateSignal, values: &HashMap<GateId, bool>| -> bool {
            if let Some(&pos) = cut_pos.get(&sig) {
                return assignment[pos];
            }
            match sig {
                GateSignal::Const(c) => c,
                GateSignal::Gate(g) => values[&g],
                GateSignal::Input(_) => {
                    unreachable!("PIs inside the cone must be cut inputs")
                }
            }
        };
        for &g in &cone_order {
            let ins: Vec<bool> = net
                .gate(g)
                .inputs
                .iter()
                .map(|&s| value(s, &values))
                .collect();
            values.insert(g, net.gate(g).kind.eval(&ins));
        }
        value(GateSignal::Gate(t), &values)
    })
}

/// Asserts the dense mapper reproduces every field of the reference's
/// result at every LUT size, and returns how many LUTs it compared.
fn assert_matches_reference(net: &GateNetwork, what: &str) -> usize {
    let mut luts = 0;
    for k in 2..=6 {
        let dense = map_network(net, FlowMapOptions { lut_inputs: k }).unwrap();
        let reference = reference_map(net, k).unwrap();
        let what = format!("{what}, k = {k}");
        assert_eq!(dense.labels, reference.labels, "{what}: labels");
        assert_eq!(dense.depth, reference.depth, "{what}: depth");
        let (dense, reference) = (&dense.network, &reference.network);
        assert_eq!(dense.name(), reference.name(), "{what}: name");
        assert_eq!(
            dense.input_names(),
            reference.input_names(),
            "{what}: inputs"
        );
        assert_eq!(dense.num_luts(), reference.num_luts(), "{what}: LUT count");
        for ((id, a), (_, b)) in dense.luts().zip(reference.luts()) {
            assert_eq!(a.truth, b.truth, "{what}: truth table of {id}");
            assert_eq!(a.inputs, b.inputs, "{what}: inputs of {id}");
            assert_eq!(a.name, b.name, "{what}: name of {id}");
            assert!(a.origin.is_none(), "{what}: origin of {id}");
        }
        assert_eq!(dense.num_ffs(), 0, "{what}: flip-flops");
        assert_eq!(dense.outputs(), reference.outputs(), "{what}: outputs");
        luts += dense.num_luts();
    }
    luts
}

/// A seeded random gate network: 1–8 inputs, 1–8 outputs and 1–80 gates of every
/// kind. Multi-input gates take 1–5 inputs, so some decompose; inputs
/// lean towards recent gates so the logic is deep, and may be constants
/// or repeat a signal. Outputs are mostly gates, sometimes an input or a
/// constant.
fn random_network(rng: &mut XorShift64Star) -> GateNetwork {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut net = GateNetwork::new("random");
    let inputs: Vec<GateSignal> = (0..1 + rng.below(8))
        .map(|i| net.add_input(format!("i{i}")))
        .collect();
    let mut gates: Vec<GateSignal> = Vec::new();
    for g in 0..1 + rng.below(80) {
        let kind = KINDS[rng.index(KINDS.len())];
        let width = if kind.is_unary() {
            1
        } else {
            1 + rng.below(5) as usize
        };
        let mut fanins: Vec<GateSignal> = Vec::with_capacity(width);
        for _ in 0..width {
            let sig = match rng.below(10) {
                0 => GateSignal::Const(rng.next_bool()),
                1 if !fanins.is_empty() => fanins[rng.index(fanins.len())],
                2..=6 if !gates.is_empty() => {
                    let back = 1 + rng.index(6.min(gates.len()));
                    gates[gates.len() - back]
                }
                _ => inputs[rng.index(inputs.len())],
            };
            fanins.push(sig);
        }
        let name = (rng.below(4) > 0).then(|| format!("g{g}"));
        gates.push(net.add_named_gate(kind, fanins, name));
    }
    for o in 0..1 + rng.below(8) {
        let sig = match rng.below(8) {
            0 => inputs[rng.index(inputs.len())],
            1 => GateSignal::Const(rng.next_bool()),
            _ => gates[gates.len() - 1 - rng.index(gates.len())],
        };
        net.add_output(format!("o{o}"), sig);
    }
    net
}

/// 400 seeded random gate networks at every LUT size.
#[test]
fn dense_mapper_matches_reference_on_random_networks() {
    let mut rng = XorShift64Star::new(0xF10E_3A9B);
    let mut luts = 0;
    for case in 0..400 {
        let net = random_network(&mut rng);
        let what = format!("case {case} ({} gates)", net.num_gates());
        luts += assert_matches_reference(&net, &what);
    }
    // The networks must map to real work, or the check proves little.
    assert!(luts >= 10_000, "only {luts} LUTs compared");
}

/// c5315's gate network, as nanobench's `fold` workload maps it.
#[test]
fn dense_mapper_matches_reference_on_c5315() {
    let net = nanomap_bench::circuits::c5315_gates();
    assert!(assert_matches_reference(&net, "c5315") > 2_000);
}
