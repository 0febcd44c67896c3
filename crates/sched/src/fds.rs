//! Force-directed scheduling (Algorithm 1 of the paper).
//!
//! Assigns LUT/LUT-cluster items to folding cycles one pin per round:
//! each round evaluates the total force of every feasible (item, cycle)
//! assignment under the current time frames and distribution graphs, and
//! commits the lowest-force choice. The result balances LUT computation
//! and register storage across the folding cycles, minimizing the peak LE
//! usage.
//!
//! The loop is incremental but reproduces the from-scratch algorithm bit
//! for bit:
//!
//! * the topological order, the ops touching each item and every buffer
//!   are set up once per run;
//! * after a pin the frames are recomputed (exact integer propagation);
//!   if none moved, the DGs and every cached force stay valid as they
//!   are;
//! * otherwise the lifetimes of the ops with a moved member are
//!   recomputed, and both DGs are rebuilt from scratch in item and op
//!   order — never patched with deltas, whose rounding would differ;
//! * a cached (item, cycle) force is re-evaluated only when something it
//!   reads changed: its own frame or a neighbour's, a member frame of a
//!   storage op it touches, a LUT-DG cycle inside its own or a
//!   neighbour's frame, or a storage-DG cycle inside one of its ops'
//!   lifetimes (a bitwise comparison of the old and new column);
//! * the selection scan still visits every (item, cycle) in item then
//!   cycle order with the same `1e-12` tie-break, which is not transitive,
//!   so no per-item best can be cached.

use nanomap_observe::{Anytime, CancelToken, Degradation};

use crate::asap::{topo_order, TimeFrames};
use crate::dg::{
    lifetimes, storage_ops, DistributionGraphs, Lifetime, StorageOp, StorageWeightMode,
};
use crate::error::SchedError;
use crate::force::{ops_of_item, ForceModel, LeShape};
use crate::item::ItemGraph;
use crate::schedule::Schedule;

/// Options for the FDS run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FdsOptions {
    /// LE resource shape (`h` LUTs, `l` FFs).
    pub shape: LeShape,
    /// Storage weight estimation mode.
    pub storage_mode: StorageWeightMode,
}

/// Runs force-directed scheduling of `graph` onto `stages` folding cycles.
///
/// # Errors
///
/// Returns [`SchedError::Infeasible`] if the critical chain does not fit.
///
/// # Examples
///
/// ```
/// use nanomap_netlist::{PlaneSet};
/// use nanomap_netlist::rtl::{CombOp, RtlBuilder};
/// use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
/// use nanomap_techmap::{expand, ExpandOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = RtlBuilder::new("t");
/// let a = b.input("a", 4);
/// let c = b.input("b", 4);
/// let gnd = b.constant("gnd", 1, 0);
/// let add = b.comb("add", CombOp::Add { width: 4 });
/// b.connect(a, 0, add, 0)?;
/// b.connect(c, 0, add, 1)?;
/// b.connect(gnd, 0, add, 2)?;
/// let y = b.output("y", 4);
/// b.connect(add, 0, y, 0)?;
/// let net = expand(&b.finish()?, ExpandOptions::default())?;
/// let planes = PlaneSet::extract(&net)?;
/// // Level-2 folding of the depth-4 adder: 2 stages.
/// let graph = ItemGraph::build(&net, &planes.planes()[0], 2)?;
/// let schedule = schedule_fds(&net, &graph, 2, FdsOptions::default())?;
/// assert!(schedule.validate(&graph));
/// # Ok(())
/// # }
/// ```
pub fn schedule_fds(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    stages: u32,
    options: FdsOptions,
) -> Result<Schedule, SchedError> {
    schedule_fds_budgeted(net, graph, stages, options, &CancelToken::unlimited())
        .map(Anytime::into_value)
}

/// Budget-aware [`schedule_fds`]: polls `token` at the top of every FDS
/// round. On expiry, every still-unpinned item is committed to its ASAP
/// cycle under the current (partially pinned) time frames — always
/// precedence-feasible — and the schedule is returned as
/// [`Anytime::Degraded`] with the peak LUT count as the QoR estimate.
/// With an unlimited token this is byte-identical to [`schedule_fds`].
///
/// # Errors
///
/// Returns [`SchedError::Infeasible`] if the critical chain does not fit
/// (budgets never turn infeasibility into a degraded success).
pub fn schedule_fds_budgeted(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    stages: u32,
    options: FdsOptions,
    token: &CancelToken,
) -> Result<Anytime<Schedule>, SchedError> {
    let force_series = nanomap_observe::series("fds.best_force");
    let n = graph.len() as u64;
    schedule_with(net, graph, stages, options, token, |round, force| {
        // Convergence trajectory: the committed (lowest) force per round.
        force_series.record(round, force);
        nanomap_observe::events::progress("fds", round + 1, Some(n), None, force);
    })
}

/// [`schedule_fds_budgeted`] with every committed pin's round and force
/// reported to `on_pin`.
fn schedule_with(
    net: &nanomap_netlist::LutNetwork,
    graph: &ItemGraph,
    stages: u32,
    options: FdsOptions,
    token: &CancelToken,
    mut on_pin: impl FnMut(u64, f64),
) -> Result<Anytime<Schedule>, SchedError> {
    let mut fds_span = nanomap_observe::span!("fds", items = graph.len(), stages = stages);
    let rounds_ctr = nanomap_observe::counter("fds.rounds");
    let force_ctr = nanomap_observe::counter("fds.force_evals");
    let dg_ctr = nanomap_observe::counter("fds.dg_rebuilds");

    let n = graph.len();
    let ops: Vec<StorageOp> = storage_ops(net, graph, options.storage_mode);
    let ops_of_item = ops_of_item(graph, &ops);
    let order = topo_order(graph)?;
    let mut pins: Vec<Option<u32>> = vec![None; n];

    // Feasibility check up front (also computes initial frames).
    let mut frames = TimeFrames::with_order(graph, &order, stages, &pins)?;
    let mut lives = lifetimes(&ops, &frames);
    let mut dgs = DistributionGraphs::build(graph, &frames, &ops);
    dg_ctr.incr();

    // Buffers reused by every round's invalidation.
    let mut prev = frames.clone();
    let mut next_dgs = dgs.clone();
    let mut moved = vec![false; n];
    let mut op_moved = vec![false; ops.len()];
    let mut lut_changed = ChangedCycles::default();
    let mut storage_changed = ChangedCycles::default();

    // Force cache: one slot per (item, cycle) of the item's initial frame,
    // which only ever shrinks; `stale` items are re-evaluated in the scan.
    let mut slot_of = Vec::with_capacity(n);
    let mut slots = 0;
    for i in 0..n {
        slot_of.push(slots);
        slots += frames.frame_len(i) as usize;
    }
    let mut cache = vec![0.0; slots];
    let mut stale = vec![true; n];

    let mut force_evals = 0u64;
    let mut interrupted_at: Option<u64> = None;
    for round in 0..n {
        // Poll at the round boundary only: an unlimited token reads no
        // clock, so unbudgeted runs stay byte-identical.
        if token.expired() {
            interrupted_at = Some(round as u64);
            break;
        }
        rounds_ctr.incr();
        let model = ForceModel {
            graph,
            frames: &frames,
            dgs: &dgs,
            ops: &ops,
            ops_of_item: &ops_of_item,
            lives: &lives,
            shape: options.shape,
        };

        // Lowest-force (item, cycle) over all unscheduled items.
        let mut best: Option<(f64, usize, u32)> = None;
        for (i, pin) in pins.iter().enumerate() {
            if pin.is_some() {
                continue;
            }
            let (a, b) = frames.frame(i);
            let forces = &mut cache[slot_of[i]..][..(b - a + 1) as usize];
            if stale[i] {
                for (j, force) in (a..=b).zip(forces.iter_mut()) {
                    *force = model.total_force(i, j);
                }
                force_evals += u64::from(b - a + 1);
                stale[i] = false;
            }
            for (j, &force) in (a..=b).zip(forces.iter()) {
                let candidate = (force, i, j);
                best = Some(match best {
                    None => candidate,
                    Some(current) => {
                        // Deterministic tie-break: force, then item, cycle.
                        if candidate.0 < current.0 - 1e-12
                            || ((candidate.0 - current.0).abs() <= 1e-12
                                && (candidate.1, candidate.2) < (current.1, current.2))
                        {
                            candidate
                        } else {
                            current
                        }
                    }
                });
            }
        }
        let Some((force, item, cycle)) = best else {
            break;
        };
        on_pin(round as u64, force);
        pins[item] = Some(cycle);
        // Pinning inside a valid frame keeps the schedule feasible, so
        // this recompute cannot fail; propagate rather than panic anyway.
        prev.asap.copy_from_slice(&frames.asap);
        prev.alap.copy_from_slice(&frames.alap);
        frames.update(graph, &order, &pins)?;

        // Invalidate exactly what the pin changed. No frame moved (the
        // item's frame was already one cycle): nothing did.
        let mut any_moved = false;
        for (i, m) in moved.iter_mut().enumerate() {
            *m = frames.frame(i) != prev.frame(i);
            any_moved |= *m;
        }
        if !any_moved {
            continue;
        }
        for (k, op) in ops.iter().enumerate() {
            op_moved[k] = moved[op.src] || op.dests.iter().any(|&d| moved[d]);
            if op_moved[k] {
                lives[k] = Lifetime::of(op, |i| frames.frame(i));
            }
        }
        next_dgs.rebuild(graph, &frames, &lives);
        dg_ctr.incr();
        lut_changed.diff(&dgs.lut, &next_dgs.lut);
        storage_changed.diff(&dgs.storage, &next_dgs.storage);
        std::mem::swap(&mut dgs, &mut next_dgs);
        for (i, pin) in pins.iter().enumerate() {
            if pin.is_some() || stale[i] {
                continue;
            }
            let neighbor_moved = graph.preds[i]
                .iter()
                .chain(&graph.succs[i])
                .any(|&(p, _)| moved[p] || lut_changed.within(frames.frame(p)));
            stale[i] = moved[i]
                || neighbor_moved
                || lut_changed.within(frames.frame(i))
                || ops_of_item[i].iter().any(|&k| {
                    op_moved[k] || storage_changed.within((lives[k].begin, lives[k].end))
                });
        }
    }
    force_ctr.add(force_evals);
    fds_span.attr("force_evals", force_evals);

    // Final balance readout: the total expected LUT+storage load of every
    // folding cycle under the committed schedule (x = cycle index). The
    // DGs are in step with the final frames.
    if nanomap_observe::enabled() {
        let cycle_series = nanomap_observe::series("fds.cycle_load");
        for (j, (lut, storage)) in dgs.lut.iter().zip(&dgs.storage).enumerate() {
            cycle_series.record(j as u64, lut + storage);
        }
    }

    // A completed run has every item pinned; a budget-interrupted run
    // commits the rest to their ASAP cycle under the current frames,
    // which is always precedence-feasible.
    let stage_of: Vec<u32> = pins
        .iter()
        .enumerate()
        .map(|(i, pin)| pin.unwrap_or_else(|| frames.frame(i).0))
        .collect();
    let schedule = Schedule::new(stage_of, stages);
    match interrupted_at {
        None => Ok(Anytime::Complete(schedule)),
        Some(round) => {
            fds_span.attr("degraded", 1u64);
            let peak = schedule.lut_counts(graph).into_iter().max().unwrap_or(0);
            Ok(Anytime::Degraded(
                schedule,
                Degradation {
                    phase: "fds".into(),
                    reason: format!("time budget expired after {round} of {n} FDS rounds"),
                    completed_iterations: round,
                    qor_estimate: f64::from(peak),
                },
            ))
        }
    }
}

/// Which cycles of a DG changed bitwise in the last rebuild, as prefix
/// counts, so any frame or lifetime is checked in O(1).
#[derive(Debug, Default)]
struct ChangedCycles(Vec<u32>);

impl ChangedCycles {
    fn diff(&mut self, old: &[f64], new: &[f64]) {
        self.0.clear();
        self.0.push(0);
        let mut count = 0;
        for (o, n) in old.iter().zip(new) {
            count += u32::from(o.to_bits() != n.to_bits());
            self.0.push(count);
        }
    }

    /// Whether a cycle in `[a, b]` changed.
    fn within(&self, (a, b): (u32, u32)) -> bool {
        self.0[b as usize + 1] != self.0[a as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::{LutId, LutNetwork, PlaneSet, SignalRef, TruthTable};
    use nanomap_observe::rng::XorShift64Star;
    use nanomap_techmap::{expand, ExpandOptions};

    /// The from-scratch FDS loop the incremental one must reproduce bit
    /// for bit: every round recomputes the frames (topological order
    /// included), rebuilds both DGs and evaluates every (item, cycle)
    /// force with [`reference_force`]. Returns each item's cycle and the
    /// bits of every round's committed force.
    fn reference_fds(
        net: &LutNetwork,
        graph: &ItemGraph,
        stages: u32,
        options: FdsOptions,
    ) -> Result<(Vec<u32>, Vec<u64>), SchedError> {
        let n = graph.len();
        let ops = storage_ops(net, graph, options.storage_mode);
        let ops_of_item = ops_of_item(graph, &ops);
        let mut pins: Vec<Option<u32>> = vec![None; n];
        let mut frames = TimeFrames::compute(graph, stages, &pins)?;
        let mut forces = Vec::new();
        for _ in 0..n {
            let dgs = DistributionGraphs::build(graph, &frames, &ops);
            let mut best: Option<(f64, usize, u32)> = None;
            for (i, pin) in pins.iter().enumerate() {
                if pin.is_some() {
                    continue;
                }
                let (a, b) = frames.frame(i);
                for j in a..=b {
                    let force = reference_force(
                        graph,
                        &frames,
                        &dgs,
                        &ops,
                        &ops_of_item[i],
                        options.shape,
                        i,
                        j,
                    );
                    let candidate = (force, i, j);
                    best = Some(match best {
                        None => candidate,
                        Some(current) => {
                            if candidate.0 < current.0 - 1e-12
                                || ((candidate.0 - current.0).abs() <= 1e-12
                                    && (candidate.1, candidate.2) < (current.1, current.2))
                            {
                                candidate
                            } else {
                                current
                            }
                        }
                    });
                }
            }
            let Some((force, item, cycle)) = best else {
                break;
            };
            forces.push(force.to_bits());
            pins[item] = Some(cycle);
            frames = TimeFrames::compute(graph, stages, &pins)?;
        }
        let stage_of = pins
            .iter()
            .map(|pin| pin.expect("every item pinned"))
            .collect();
        Ok((stage_of, forces))
    }

    /// The total force of Eqs. 12–14 as the from-scratch loop computes it:
    /// both storage distributions of each op touching `item` allocated
    /// over every cycle and dotted with the storage DG.
    #[allow(clippy::too_many_arguments)]
    fn reference_force(
        graph: &ItemGraph,
        frames: &TimeFrames,
        dgs: &DistributionGraphs,
        ops: &[StorageOp],
        item_ops: &[usize],
        shape: LeShape,
        item: usize,
        j: u32,
    ) -> f64 {
        let lut_frame_force = |it: usize, old: (u32, u32), new: (u32, u32)| {
            let weight = f64::from(graph.items[it].weight);
            let old_p = weight / f64::from(old.1 - old.0 + 1);
            let new_p = weight / f64::from(new.1 - new.0 + 1);
            let mut force = 0.0;
            for k in new.0..=new.1 {
                force += dgs.lut[k as usize] * new_p;
            }
            for k in old.0..=old.1 {
                force -= dgs.lut[k as usize] * old_p;
            }
            force
        };
        let lut = lut_frame_force(item, frames.frame(item), (j, j));
        let mut storage = 0.0;
        for &k in item_ops {
            let before = DistributionGraphs::storage_distribution_of(frames, &ops[k], None);
            let after =
                DistributionGraphs::storage_distribution_of(frames, &ops[k], Some((item, j)));
            for (cycle, (&a, &b)) in after.iter().zip(&before).enumerate() {
                storage += dgs.storage[cycle] * (a - b);
            }
        }
        let self_force = (lut / f64::from(shape.luts)).max(storage / f64::from(shape.ffs));
        let mut neighbors = 0.0;
        for &(p, lat) in &graph.preds[item] {
            let (a, b) = frames.frame(p);
            let clipped = b.min(j.saturating_sub(lat));
            if j >= lat && clipped < b {
                neighbors +=
                    lut_frame_force(p, (a, b), (a, clipped.max(a))) / f64::from(shape.luts);
            }
        }
        for &(s, lat) in &graph.succs[item] {
            let (a, b) = frames.frame(s);
            let clipped = a.max(j + lat);
            if clipped > a {
                neighbors +=
                    lut_frame_force(s, (a, b), (clipped.min(b), b)) / f64::from(shape.luts);
            }
        }
        self_force + neighbors
    }

    /// Asserts the incremental loop commits the reference's pins with
    /// bit-identical forces (or fails the same way).
    fn assert_matches_reference(
        net: &LutNetwork,
        graph: &ItemGraph,
        stages: u32,
        options: FdsOptions,
        case: &str,
    ) {
        let reference = reference_fds(net, graph, stages, options);
        let mut forces = Vec::new();
        let incremental = schedule_with(
            net,
            graph,
            stages,
            options,
            &CancelToken::unlimited(),
            |_, force| forces.push(force.to_bits()),
        );
        match (reference, incremental) {
            (Ok((stage_of, reference_forces)), Ok(Anytime::Complete(schedule))) => {
                assert_eq!(schedule.stage_of, stage_of, "{case}: schedules differ");
                assert_eq!(forces, reference_forces, "{case}: best forces differ");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{case}: errors differ"),
            (reference, incremental) => {
                panic!("{case}: reference {reference:?}, incremental {incremental:?}")
            }
        }
    }

    /// Every plane of every paper benchmark at every folding level, under
    /// the paper's LE shape.
    #[test]
    fn incremental_fds_matches_reference_on_paper_benchmarks() {
        let arch = nanomap_arch::ArchParams::paper();
        let options = FdsOptions {
            shape: LeShape {
                luts: arch.luts_per_le,
                ffs: arch.ffs_per_le,
            },
            ..FdsOptions::default()
        };
        for bench in nanomap_bench::circuits::paper_benchmarks() {
            let net = &bench.network;
            let planes = PlaneSet::extract(net).unwrap();
            for config in nanomap::candidate_configs(&planes, u32::MAX) {
                let Some(level) = config.level else {
                    continue;
                };
                for (p, plane) in planes.planes().iter().enumerate() {
                    let graph = ItemGraph::build(net, plane, level).unwrap();
                    let case = format!("{} plane {p} stages {}", bench.name, config.stages);
                    assert_matches_reference(net, &graph, config.stages, options, &case);
                }
            }
        }
    }

    /// A seeded random item graph and the LUT network it stands for (so
    /// `BoundaryOutputs` has fanouts to count): 1–40 items of weight 1–8
    /// over 1–12 stages. Edges run from a lower random level to a higher
    /// one with latency 0 or 1, or within a level in index order with
    /// latency 0, so the levels are a feasible schedule.
    fn random_case(rng: &mut XorShift64Star) -> (LutNetwork, ItemGraph, u32) {
        let stages = 1 + rng.below(12) as u32;
        let n = 1 + rng.below(40) as usize;
        let level: Vec<u64> = (0..n).map(|_| rng.below(u64::from(stages))).collect();
        let weight: Vec<u32> = (0..n).map(|_| 1 + rng.below(8) as u32).collect();
        let density = 2 + rng.below(8);
        let mut edges = Vec::new();
        for from in 0..n {
            for to in 0..n {
                let ahead = level[from] < level[to];
                if (ahead || (level[from] == level[to] && from < to)) && rng.below(density) == 0 {
                    let latency = if ahead { rng.below(2) as u32 } else { 0 };
                    edges.push(ItemEdge { from, to, latency });
                }
            }
        }
        // Item i owns LUTs first[i]..first[i] + weight[i]; each edge wires
        // one LUT of its source into one LUT of its destination.
        let first: Vec<usize> = weight
            .iter()
            .scan(0, |next, &w| {
                let at = *next;
                *next += w as usize;
                Some(at)
            })
            .collect();
        let lut_of = |i: usize, m: u64| first[i] + m as usize;
        let mut inputs = vec![Vec::new(); first[n - 1] + weight[n - 1] as usize];
        for e in &edges {
            let src = lut_of(e.from, rng.below(u64::from(weight[e.from])));
            let dst = lut_of(e.to, rng.below(u64::from(weight[e.to])));
            if inputs[dst].len() < 6 {
                inputs[dst].push(SignalRef::Lut(LutId::new(src)));
            }
        }
        let mut net = LutNetwork::new("random");
        for lut_inputs in inputs {
            net.add_lut(
                TruthTable::constant_false(lut_inputs.len() as u32),
                lut_inputs,
            );
        }
        let items: Vec<Item> = (0..n)
            .map(|i| {
                let luts: Vec<LutId> = (0..u64::from(weight[i]))
                    .map(|m| LutId::new(lut_of(i, m)))
                    .collect();
                Item {
                    kind: ItemKind::Lut(luts[0]),
                    luts,
                    weight: weight[i],
                    window: 1,
                    name: format!("i{i}"),
                }
            })
            .collect();
        let item_of_lut = items
            .iter()
            .enumerate()
            .flat_map(|(i, item)| item.luts.iter().map(move |&l| (l, i)))
            .collect();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for e in &edges {
            succs[e.from].push((e.to, e.latency));
            preds[e.to].push((e.from, e.latency));
        }
        let graph = ItemGraph {
            items,
            edges,
            succs,
            preds,
            item_of_lut,
            folding_level: 1,
        };
        (net, graph, stages)
    }

    /// Seeded random item graphs under both storage modes and three LE
    /// shapes.
    #[test]
    fn incremental_fds_matches_reference_on_random_graphs() {
        let mut rng = XorShift64Star::new(0x5EED_F0D5);
        for case in 0..80 {
            let (net, graph, stages) = random_case(&mut rng);
            for storage_mode in [
                StorageWeightMode::ItemWeight,
                StorageWeightMode::BoundaryOutputs,
            ] {
                for (luts, ffs) in [(1, 1), (1, 2), (2, 2)] {
                    let options = FdsOptions {
                        shape: LeShape { luts, ffs },
                        storage_mode,
                    };
                    let what = format!(
                        "case {case} ({} items, {stages} stages, {storage_mode:?}, {luts}x{ffs})",
                        graph.len()
                    );
                    assert_matches_reference(&net, &graph, stages, options, &what);
                }
            }
        }
    }

    fn chain_free_graph(weights: &[u32]) -> ItemGraph {
        let items: Vec<Item> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Item {
                kind: ItemKind::Lut(LutId::new(i)),
                luts: vec![LutId::new(i)],
                weight: w,
                window: 1,
                name: format!("i{i}"),
            })
            .collect();
        let n = items.len();
        ItemGraph {
            items,
            edges: vec![],
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            item_of_lut: Default::default(),
            folding_level: 1,
        }
    }

    #[test]
    fn balances_independent_items() {
        // Six weight-1 items over 2 cycles: 3 + 3 is optimal.
        let g = chain_free_graph(&[1, 1, 1, 1, 1, 1]);
        let net = LutNetwork::new("t");
        let s = schedule_fds(&net, &g, 2, FdsOptions::default()).unwrap();
        let counts = s.lut_counts(&g);
        assert_eq!(counts.iter().sum::<u32>(), 6);
        assert_eq!(counts.iter().max(), Some(&3));
    }

    #[test]
    fn balances_mixed_weights() {
        // Weights 4,3,2,1 over 2 cycles: best peak is 5 (4+1 / 3+2).
        let g = chain_free_graph(&[4, 3, 2, 1]);
        let net = LutNetwork::new("t");
        let s = schedule_fds(&net, &g, 2, FdsOptions::default()).unwrap();
        let counts = s.lut_counts(&g);
        assert_eq!(counts.iter().sum::<u32>(), 10);
        assert!(*counts.iter().max().unwrap() <= 6, "counts {counts:?}");
    }

    #[test]
    fn respects_precedence() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        let s = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        assert!(s.validate(&g));
        assert_eq!(s.stage_of, vec![0, 1, 2]);
    }

    #[test]
    fn infeasible_stage_count_errors() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        assert!(matches!(
            schedule_fds(&net, &g, 2, FdsOptions::default()),
            Err(SchedError::Infeasible { .. })
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = chain_free_graph(&[2, 5, 1, 3, 3, 2, 4]);
        let net = LutNetwork::new("t");
        let a = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        let b = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        assert_eq!(a.stage_of, b.stage_of);
    }

    #[test]
    fn zero_budget_degrades_to_feasible_asap() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        let token = CancelToken::with_budget_ms(Some(0));
        let result = schedule_fds_budgeted(&net, &g, 3, FdsOptions::default(), &token).unwrap();
        let Anytime::Degraded(schedule, degradation) = result else {
            panic!("zero budget must degrade");
        };
        assert!(schedule.validate(&g), "best-so-far must stay feasible");
        assert_eq!(degradation.phase, "fds");
        assert_eq!(degradation.completed_iterations, 0);
    }

    #[test]
    fn cancelled_token_degrades_mid_run() {
        let g = chain_free_graph(&[2, 5, 1, 3, 3, 2, 4]);
        let net = LutNetwork::new("t");
        let token = CancelToken::cancellable();
        token.cancel();
        let result = schedule_fds_budgeted(&net, &g, 3, FdsOptions::default(), &token).unwrap();
        assert!(result.is_degraded());
        assert!(result.value().validate(&g));
    }

    #[test]
    fn unlimited_token_identical_to_plain_fds() {
        let g = chain_free_graph(&[2, 5, 1, 3, 3, 2, 4]);
        let net = LutNetwork::new("t");
        let plain = schedule_fds(&net, &g, 3, FdsOptions::default()).unwrap();
        let budgeted = schedule_fds_budgeted(
            &net,
            &g,
            3,
            FdsOptions::default(),
            &CancelToken::unlimited(),
        )
        .unwrap();
        let Anytime::Complete(schedule) = budgeted else {
            panic!("unlimited token must complete");
        };
        assert_eq!(plain.stage_of, schedule.stage_of);
    }

    #[test]
    fn zero_budget_infeasible_still_errors() {
        let mut g = chain_free_graph(&[1, 1, 1]);
        g.edges = vec![
            ItemEdge {
                from: 0,
                to: 1,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 2,
                latency: 1,
            },
        ];
        g.succs = vec![vec![(1, 1)], vec![(2, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)], vec![(1, 1)]];
        let net = LutNetwork::new("t");
        let token = CancelToken::with_budget_ms(Some(0));
        assert!(matches!(
            schedule_fds_budgeted(&net, &g, 2, FdsOptions::default(), &token),
            Err(SchedError::Infeasible { .. })
        ));
    }

    /// End-to-end: schedule a real mapped adder+multiplier plane and check
    /// that the peak LUT usage beats naive ASAP.
    #[test]
    fn beats_asap_on_real_plane() {
        let mut b = RtlBuilder::new("dp");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: 4 });
        b.connect(a, 0, add, 0).unwrap();
        b.connect(c, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let mul = b.comb("mul", CombOp::Mul { width: 4 });
        b.connect(a, 0, mul, 0).unwrap();
        b.connect(c, 0, mul, 1).unwrap();
        let y1 = b.output("y1", 4);
        b.connect(add, 0, y1, 0).unwrap();
        let y2 = b.output("y2", 8);
        b.connect(mul, 0, y2, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane = &planes.planes()[0];
        let stages = plane.depth.div_ceil(2);
        let graph = ItemGraph::build(&net, plane, 2).unwrap();
        let fds = schedule_fds(&net, &graph, stages, FdsOptions::default()).unwrap();
        assert!(fds.validate(&graph));
        let asap = crate::list::schedule_asap(&graph, stages).unwrap();
        let fds_peak = fds.lut_counts(&graph).into_iter().max().unwrap();
        let asap_peak = asap.lut_counts(&graph).into_iter().max().unwrap();
        assert!(
            fds_peak <= asap_peak,
            "FDS peak {fds_peak} must not exceed ASAP peak {asap_peak}"
        );
    }
}
