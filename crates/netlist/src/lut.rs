//! Mapped LUT/flip-flop network.
//!
//! A [`LutNetwork`] is the output of technology mapping: a sequential
//! network of k-input LUTs and D flip-flops. It is the input of the NanoMap
//! flow proper — plane extraction, folding-level selection, scheduling,
//! clustering, placement and routing all operate on this structure (or
//! views of it).
//!
//! Each LUT optionally records its *origin*: the RTL module instance it was
//! expanded from and its logic depth inside that module. Origins drive the
//! LUT-cluster partitioning of Section 3 of the paper.

use crate::error::NetlistError;
use crate::ids::{FfId, InputId, LutId, ModuleId};
use crate::truth::TruthTable;

/// A single-bit signal source in a [`LutNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SignalRef {
    /// A primary input bit.
    Input(InputId),
    /// The output of a LUT.
    Lut(LutId),
    /// The Q output of a flip-flop.
    Ff(FfId),
    /// A constant.
    Const(bool),
}

/// Provenance of a LUT: which RTL module instance produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutOrigin {
    /// The originating module instance.
    pub module: ModuleId,
    /// 1-based logic depth of this LUT inside the module.
    pub depth_in_module: u32,
}

/// A configured look-up table.
#[derive(Debug, Clone)]
pub struct Lut {
    /// The Boolean function; arity equals `inputs.len()`.
    pub truth: TruthTable,
    /// Input connections, variable 0 first.
    pub inputs: Vec<SignalRef>,
    /// RTL provenance, if expanded from a module.
    pub origin: Option<LutOrigin>,
    /// Optional diagnostic name.
    pub name: Option<String>,
}

/// A D flip-flop.
#[derive(Debug, Clone)]
pub struct FlipFlop {
    /// The D input.
    pub d: SignalRef,
    /// Optional diagnostic name (e.g. `reg1[3]`).
    pub name: Option<String>,
    /// Register bank this bit belongs to. An RTL register levelizes as a
    /// unit (the paper levelizes word-level registers, Section 3);
    /// bank-less flip-flops levelize individually.
    pub bank: Option<u32>,
}

/// A mapped network of LUTs and flip-flops.
///
/// # Examples
///
/// ```
/// use nanomap_netlist::{LutNetwork, SignalRef, TruthTable};
///
/// let mut net = LutNetwork::new("toggle");
/// let ff = net.add_ff(SignalRef::Const(false), Some("t".into()));
/// let inv = net.add_lut(TruthTable::inverter(), vec![SignalRef::Ff(ff)]);
/// net.set_ff_input(ff, inv);
/// net.add_output("q", SignalRef::Ff(ff));
/// assert_eq!(net.num_luts(), 1);
/// assert_eq!(net.num_ffs(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LutNetwork {
    name: String,
    input_names: Vec<String>,
    outputs: Vec<(String, SignalRef)>,
    luts: Vec<Lut>,
    ffs: Vec<FlipFlop>,
    /// Names of module instances referenced by [`LutOrigin::module`].
    module_names: Vec<String>,
    /// Names of flip-flop banks referenced by [`FlipFlop::bank`].
    bank_names: Vec<String>,
}

impl LutNetwork {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input bit, returning its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalRef {
        let id = InputId::new(self.input_names.len());
        self.input_names.push(name.into());
        SignalRef::Input(id)
    }

    /// Adds a LUT with no provenance, returning its output signal.
    ///
    /// # Panics
    ///
    /// Panics if the truth-table arity differs from `inputs.len()`.
    pub fn add_lut(&mut self, truth: TruthTable, inputs: Vec<SignalRef>) -> SignalRef {
        self.add_lut_full(truth, inputs, None, None)
    }

    /// Adds a LUT with full metadata, returning its output signal.
    ///
    /// # Panics
    ///
    /// Panics if the truth-table arity differs from `inputs.len()`.
    pub fn add_lut_full(
        &mut self,
        truth: TruthTable,
        inputs: Vec<SignalRef>,
        origin: Option<LutOrigin>,
        name: Option<String>,
    ) -> SignalRef {
        assert_eq!(
            truth.num_inputs() as usize,
            inputs.len(),
            "LUT arity mismatch"
        );
        let id = LutId::new(self.luts.len());
        self.luts.push(Lut {
            truth,
            inputs,
            origin,
            name,
        });
        SignalRef::Lut(id)
    }

    /// Adds a flip-flop (D connection may be fixed later), returning its id.
    pub fn add_ff(&mut self, d: SignalRef, name: Option<String>) -> FfId {
        self.add_ff_in_bank(d, name, None)
    }

    /// Adds a flip-flop belonging to a register bank (see
    /// [`Self::add_bank`]), returning its id.
    pub fn add_ff_in_bank(
        &mut self,
        d: SignalRef,
        name: Option<String>,
        bank: Option<u32>,
    ) -> FfId {
        let id = FfId::new(self.ffs.len());
        self.ffs.push(FlipFlop { d, name, bank });
        id
    }

    /// Registers a named flip-flop bank (an RTL register), returning the
    /// bank id used by [`Self::add_ff_in_bank`].
    pub fn add_bank(&mut self, name: impl Into<String>) -> u32 {
        self.bank_names.push(name.into());
        (self.bank_names.len() - 1) as u32
    }

    /// Name of a registered flip-flop bank.
    pub fn bank_name(&self, bank: u32) -> &str {
        &self.bank_names[bank as usize]
    }

    /// Number of registered flip-flop banks.
    pub fn num_banks(&self) -> usize {
        self.bank_names.len()
    }

    /// Re-targets a flip-flop's D input (used when closing feedback loops).
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    pub fn set_ff_input(&mut self, ff: FfId, d: SignalRef) {
        self.ffs[ff.index()].d = d;
    }

    /// Updates the `depth_in_module` of a LUT's origin, if it has one.
    ///
    /// Technology mapping fixes up module depths in a final pass once the
    /// whole network exists; this is the only mutable access to origins.
    ///
    /// # Panics
    ///
    /// Panics if `lut` is out of range.
    pub fn set_lut_origin_depth(&mut self, lut: LutId, depth_in_module: u32) {
        if let Some(origin) = &mut self.luts[lut.index()].origin {
            origin.depth_in_module = depth_in_module;
        }
    }

    /// Declares a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, signal: SignalRef) {
        self.outputs.push((name.into(), signal));
    }

    /// Registers a module-instance name, returning the id used in [`LutOrigin`].
    pub fn add_module(&mut self, name: impl Into<String>) -> ModuleId {
        let id = ModuleId::new(self.module_names.len());
        self.module_names.push(name.into());
        id
    }

    /// Name of a registered module instance.
    pub fn module_name(&self, id: ModuleId) -> &str {
        &self.module_names[id.index()]
    }

    /// Number of registered module instances.
    pub fn num_modules(&self) -> usize {
        self.module_names.len()
    }

    /// Number of LUTs.
    pub fn num_luts(&self) -> usize {
        self.luts.len()
    }

    /// Number of flip-flops.
    pub fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Number of primary input bits.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Primary input names in index order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Primary outputs as `(name, signal)` pairs.
    pub fn outputs(&self) -> &[(String, SignalRef)] {
        &self.outputs
    }

    /// Returns a LUT by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn lut(&self, id: LutId) -> &Lut {
        &self.luts[id.index()]
    }

    /// Returns a flip-flop by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ff(&self, id: FfId) -> &FlipFlop {
        &self.ffs[id.index()]
    }

    /// Iterates over `(id, lut)` pairs.
    pub fn luts(&self) -> impl Iterator<Item = (LutId, &Lut)> {
        self.luts
            .iter()
            .enumerate()
            .map(|(i, l)| (LutId::new(i), l))
    }

    /// Iterates over `(id, ff)` pairs.
    pub fn ffs(&self) -> impl Iterator<Item = (FfId, &FlipFlop)> {
        self.ffs.iter().enumerate().map(|(i, f)| (FfId::new(i), f))
    }

    /// A topological order of the LUTs (flip-flop outputs are sources).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if LUT-to-LUT edges form
    /// a cycle.
    pub fn topo_order(&self) -> Result<Vec<LutId>, NetlistError> {
        let n = self.luts.len();
        let mut indegree = vec![0usize; n];
        let mut fanout: Vec<Vec<LutId>> = vec![Vec::new(); n];
        for (id, lut) in self.luts() {
            for input in &lut.inputs {
                if let SignalRef::Lut(src) = input {
                    indegree[id.index()] += 1;
                    fanout[src.index()].push(id);
                }
            }
        }
        let mut queue: Vec<LutId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(LutId::new)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop() {
            order.push(id);
            for &succ in &fanout[id.index()] {
                indegree[succ.index()] -= 1;
                if indegree[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .expect("cycle implies residual indegree");
            let name = self.luts[stuck]
                .name
                .clone()
                .unwrap_or_else(|| format!("lut{stuck}"));
            return Err(NetlistError::CombinationalCycle { node: name });
        }
        Ok(order)
    }

    /// Validates structural sanity: arities, reference ranges, acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let check = |sig: &SignalRef, who: String| -> Result<(), NetlistError> {
            match *sig {
                SignalRef::Input(i) if i.index() >= self.input_names.len() => Err(
                    NetlistError::Invalid(format!("{who} references unknown input {i}")),
                ),
                SignalRef::Lut(l) if l.index() >= self.luts.len() => Err(NetlistError::Invalid(
                    format!("{who} references unknown lut {l}"),
                )),
                SignalRef::Ff(f) if f.index() >= self.ffs.len() => Err(NetlistError::Invalid(
                    format!("{who} references unknown ff {f}"),
                )),
                _ => Ok(()),
            }
        };
        for (id, lut) in self.luts() {
            if lut.truth.num_inputs() as usize != lut.inputs.len() {
                return Err(NetlistError::Invalid(format!("lut {id} arity mismatch")));
            }
            for input in &lut.inputs {
                check(input, format!("lut {id}"))?;
            }
            if let Some(origin) = lut.origin {
                if origin.module.index() >= self.module_names.len() {
                    return Err(NetlistError::Invalid(format!(
                        "lut {id} references unknown module {}",
                        origin.module
                    )));
                }
            }
        }
        for (id, ff) in self.ffs() {
            check(&ff.d, format!("ff {id}"))?;
        }
        for (name, sig) in &self.outputs {
            check(sig, format!("output {name}"))?;
        }
        self.topo_order()?;
        Ok(())
    }

    /// Logic depth of every LUT (1-based; LUTs fed only by inputs/FFs have
    /// depth 1), plus the network's maximum depth.
    ///
    /// # Errors
    ///
    /// Returns an error if the network is cyclic.
    pub fn lut_depths(&self) -> Result<(Vec<u32>, u32), NetlistError> {
        let order = self.topo_order()?;
        let mut depth = vec![0u32; self.luts.len()];
        let mut max = 0;
        for id in order {
            let d = 1 + self
                .lut(id)
                .inputs
                .iter()
                .map(|s| match s {
                    SignalRef::Lut(l) => depth[l.index()],
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
            depth[id.index()] = d;
            max = max.max(d);
        }
        Ok((depth, max))
    }

    /// Fanout lists: for each LUT/FF/input, the LUTs, FFs and outputs it feeds.
    pub fn fanouts(&self) -> Fanouts {
        let mut f = Fanouts {
            lut_to_luts: vec![Vec::new(); self.luts.len()],
            ff_to_luts: vec![Vec::new(); self.ffs.len()],
            lut_to_ffs: vec![Vec::new(); self.luts.len()],
        };
        for (id, lut) in self.luts() {
            for input in &lut.inputs {
                match *input {
                    SignalRef::Lut(src) => f.lut_to_luts[src.index()].push(id),
                    SignalRef::Ff(src) => f.ff_to_luts[src.index()].push(id),
                    _ => {}
                }
            }
        }
        for (id, ff) in self.ffs() {
            if let SignalRef::Lut(src) = ff.d {
                f.lut_to_ffs[src.index()].push(id);
            }
        }
        f
    }
}

/// Pre-computed fanout adjacency of a [`LutNetwork`].
#[derive(Debug, Clone)]
pub struct Fanouts {
    /// LUTs fed by each LUT.
    pub lut_to_luts: Vec<Vec<LutId>>,
    /// LUTs fed by each flip-flop.
    pub ff_to_luts: Vec<Vec<LutId>>,
    /// Flip-flops fed by each LUT.
    pub lut_to_ffs: Vec<Vec<FfId>>,
}

/// Cycle-accurate simulator for a [`LutNetwork`].
///
/// This is the reference executor used to verify that temporal folding
/// preserves circuit behaviour.
#[derive(Debug)]
pub struct LutSimulator<'a> {
    net: &'a LutNetwork,
    topo: Vec<LutId>,
    lut_values: Vec<bool>,
    ff_state: Vec<bool>,
    inputs: Vec<bool>,
}

impl<'a> LutSimulator<'a> {
    /// Creates a simulator with all inputs and flip-flops at zero.
    ///
    /// # Errors
    ///
    /// Returns an error if the network fails validation.
    pub fn new(net: &'a LutNetwork) -> Result<Self, NetlistError> {
        net.validate()?;
        Ok(Self {
            net,
            topo: net.topo_order()?,
            lut_values: vec![false; net.num_luts()],
            ff_state: vec![false; net.num_ffs()],
            inputs: vec![false; net.num_inputs()],
        })
    }

    /// Sets all primary inputs at once (index order).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the input count.
    pub fn set_inputs(&mut self, values: &[bool]) {
        assert_eq!(values.len(), self.net.num_inputs());
        self.inputs.copy_from_slice(values);
    }

    /// Current flip-flop state (index order).
    pub fn ff_state(&self) -> &[bool] {
        &self.ff_state
    }

    fn value(&self, sig: SignalRef) -> bool {
        match sig {
            SignalRef::Input(i) => self.inputs[i.index()],
            SignalRef::Lut(l) => self.lut_values[l.index()],
            SignalRef::Ff(f) => self.ff_state[f.index()],
            SignalRef::Const(c) => c,
        }
    }

    /// Evaluates all combinational logic with current inputs and state.
    pub fn eval_comb(&mut self) {
        for &id in &self.topo {
            let lut = self.net.lut(id);
            let ins: Vec<bool> = lut.inputs.iter().map(|&s| self.value(s)).collect();
            self.lut_values[id.index()] = lut.truth.eval(&ins);
        }
    }

    /// Advances one clock cycle (evaluate, then latch all flip-flops).
    pub fn step(&mut self) {
        self.eval_comb();
        let next: Vec<bool> = self.net.ffs.iter().map(|ff| self.value(ff.d)).collect();
        self.ff_state = next;
    }

    /// Reads the primary outputs (valid after [`Self::eval_comb`] or [`Self::step`]).
    pub fn outputs(&self) -> Vec<bool> {
        self.net
            .outputs
            .iter()
            .map(|&(_, s)| self.value(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_ff_oscillates() {
        let mut net = LutNetwork::new("toggle");
        let ff = net.add_ff(SignalRef::Const(false), Some("t".into()));
        let inv = net.add_lut(TruthTable::inverter(), vec![SignalRef::Ff(ff)]);
        net.set_ff_input(ff, inv);
        net.add_output("q", SignalRef::Ff(ff));
        let mut sim = LutSimulator::new(&net).unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(sim.outputs()[0]);
            sim.step();
        }
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn depth_computation() {
        let mut net = LutNetwork::new("chain");
        let a = net.add_input("a");
        let l1 = net.add_lut(TruthTable::buffer(), vec![a]);
        let l2 = net.add_lut(TruthTable::buffer(), vec![l1]);
        let l3 = net.add_lut(TruthTable::and(2), vec![l2, a]);
        net.add_output("y", l3);
        let (depths, max) = net.lut_depths().unwrap();
        assert_eq!(depths, vec![1, 2, 3]);
        assert_eq!(max, 3);
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let mut net = LutNetwork::new("bad");
        let a = net.add_input("a");
        // Construct an inconsistent LUT by editing internals through the
        // public API: a 2-input table with one connection is impossible via
        // add_lut (it panics), so check the panic instead.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut n2 = net.clone();
            n2.add_lut(TruthTable::and(2), vec![a]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn validate_catches_cycles() {
        let mut net = LutNetwork::new("cyc");
        // lut0 <- lut1 <- lut0
        let l0 = net.add_lut(TruthTable::buffer(), vec![SignalRef::Lut(LutId::new(1))]);
        let _l1 = net.add_lut(TruthTable::buffer(), vec![l0]);
        net.add_output("y", l0);
        assert!(matches!(
            net.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn fanouts_are_complete() {
        let mut net = LutNetwork::new("f");
        let a = net.add_input("a");
        let l0 = net.add_lut(TruthTable::buffer(), vec![a]);
        let l1 = net.add_lut(TruthTable::buffer(), vec![l0]);
        let ff = net.add_ff(l0, None);
        net.add_output("y", l1);
        net.add_output("q", SignalRef::Ff(ff));
        let f = net.fanouts();
        assert_eq!(f.lut_to_luts[0], vec![LutId::new(1)]);
        assert_eq!(f.lut_to_ffs[0], vec![FfId::new(0)]);
        assert!(f.lut_to_luts[1].is_empty());
    }

    #[test]
    fn module_registry() {
        let mut net = LutNetwork::new("m");
        let m = net.add_module("mult0");
        assert_eq!(net.module_name(m), "mult0");
        assert_eq!(net.num_modules(), 1);
    }
}
