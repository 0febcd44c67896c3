//! The exact recovery rung: complete SAT-based defect assignment.
//!
//! Every heuristic rung of the recovery ladder ([`crate::Remedy`]) is
//! incomplete: annealing with defect-aware move rejection can fail on a
//! fabric where a legal assignment *does* exist. This module is the
//! terminal rung that closes that gap. It compiles the slot-assignment
//! problem — exactly one usable slot per packed SMB cluster, at most
//! one cluster per slot, congestion-guard capacity groups — into CNF
//! and hands it to the [`nanomap_sat`] CDCL solver:
//!
//! * **Complete**: if the instance is satisfiable within budget, a model
//!   is found. The flow walks *every* admitted folding candidate through
//!   the rung in preference order — shallow foldings use fewer NRAM
//!   sets, so their slots survive defects the preferred candidate
//!   cannot — and only when each candidate is unsatisfiable on the most
//!   generous grid the ladder ever grants (and with the heuristic
//!   capacity guards *removed*) does the flow fail with a typed
//!   [`crate::FlowError::ExactAssignUnsat`] carrying an
//!   [`ExactUnsatSummary`] naming the defect class that made the fabric
//!   infeasible — instead of the generic `RecoveryExhausted`.
//! * **Precise**: legality uses the per-cluster active-set view
//!   ([`nanomap_pack::Packing::required_sets`]), not the conservative
//!   `num_slices` prefix the annealer checks — a slot whose dead NRAM
//!   set is never active for a given cluster is usable for it.
//! * **Deterministic**: the solver branches by seeded phase saving and
//!   index-ordered VSIDS ties; the model is re-validated by
//!   [`nanomap_place::adopt_assignment`] and then re-routed/re-timed by
//!   the exact same code paths an annealed placement takes, so
//!   same-seed runs stay byte-identical under `qor-diff --exact`.
//! * **Anytime**: the solver polls the flow's [`CancelToken`](crate::CancelToken) at
//!   conflict boundaries (every 128 conflicts) and respects the
//!   `--sat-conflict-budget` cap; an interrupted solve surfaces as
//!   budget exhaustion, never a hang.
//!
//! Grid sizing is monotone: adding slots only adds models. The rung
//! therefore tries the ladder's widened grid first and, on
//! infeasibility, jumps straight to the largest grid it is willing to
//! route — a proof of unsatisfiability is only claimed there.

use std::time::Instant;

use nanomap_arch::{ChannelConfig, DefectMap, Grid};
use nanomap_observe::span;
use nanomap_place::adopt_assignment;
use nanomap_sat::{
    solve_assignment, AssignOutcome, AssignmentProblem, CapacityGroup, SolverOptions,
};

use crate::budget::Degradation;
use crate::error::FlowError;
use crate::flow::{physical_phase, Attempt, CandidateEval, NanoMap, Run, Shared};
use crate::recovery::{RecoveryLog, Remedy};
use crate::report::MappingReport;

/// Grid growth factor between exact-rung sizing attempts.
const GRID_GROWTH: f64 = 1.3;

/// Grid sizing attempts (the last one is the "most generous grid" on
/// which unsatisfiability may be claimed).
const MAX_GRID_ATTEMPTS: u32 = 3;

/// Seed perturbation separating the SAT branching stream from the
/// annealer's random stream (both derive from the place seed).
const SAT_SEED_SALT: u64 = 0x5EED_CDC1;

/// Why the exact rung proved the fabric unmappable, in terms a user can
/// act on: which defect class dominates the loss.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactUnsatSummary {
    /// SMB clusters that needed slots.
    pub smbs: u32,
    /// Grid the proof was carried out on (width, height) — the most
    /// generous grid the recovery ladder grants.
    pub grid: (u16, u16),
    /// Slots that are entirely dead.
    pub dead_slots: u32,
    /// Slots alive but unusable for *every* cluster because of dead
    /// NRAM configuration sets.
    pub nram_blocked_slots: u32,
    /// Slots usable by at least one cluster.
    pub open_slots: u32,
    /// The solver/precheck infeasibility cause (unsatisfiable-core
    /// summary), e.g. "item 3 has no usable slot".
    pub detail: String,
    /// The dominant defect class: `"dead slots"` or
    /// `"dead NRAM configuration sets"`.
    pub dominant_class: &'static str,
}

impl std::fmt::Display for ExactUnsatSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no legal assignment of {} SMBs on a {}x{} grid: {}; \
             {} slots dead, {} blocked by dead NRAM sets, {} open \
             (dominant defect class: {})",
            self.smbs,
            self.grid.0,
            self.grid.1,
            self.detail,
            self.dead_slots,
            self.nram_blocked_slots,
            self.open_slots,
            self.dominant_class
        )
    }
}

/// Outcome of one invocation of the exact rung.
pub(crate) enum ExactRungResult {
    /// A SAT model routed and timed cleanly.
    Success(Box<MappingReport>, Vec<Degradation>),
    /// Proven infeasible on the largest grid with guards relaxed.
    Infeasible(ExactUnsatSummary),
    /// No proof either way: solver interrupted (budget/cancel) or every
    /// SAT model failed routing. The caller falls back to the generic
    /// exhaustion errors.
    Exhausted,
    /// A non-recoverable flow error (I/O, verification, internal).
    Fatal(FlowError),
}

/// Congestion guards: when wire defects are heavy, cap how many
/// clusters the solver may pile into any single row or column, so the
/// model it returns is not a routing-hostile clump. The caps are
/// generous (never below 75 % of a line even on a dead fabric) and are
/// *relaxed before* unsatisfiability is claimed — they trade solver
/// completeness for routability only provisionally.
fn congestion_groups(
    defects: &DefectMap,
    grid: Grid,
    channels: &ChannelConfig,
) -> Vec<CapacityGroup> {
    let counts = defects.tally(grid, channels);
    let wire_live = if counts.total_wires == 0 {
        1.0
    } else {
        1.0 - f64::from(counts.dead_wires) / f64::from(counts.total_wires)
    };
    let mut groups = Vec::new();
    let row_cap = (f64::from(grid.width) * (0.5 + wire_live / 2.0)).ceil() as usize;
    if row_cap < grid.width as usize {
        for y in 0..grid.height {
            let slots = (0..grid.width)
                .map(|x| u32::from(y) * u32::from(grid.width) + u32::from(x))
                .collect();
            groups.push(CapacityGroup {
                label: format!("row {y}"),
                slots,
                cap: row_cap,
            });
        }
    }
    let col_cap = (f64::from(grid.height) * (0.5 + wire_live / 2.0)).ceil() as usize;
    if col_cap < grid.height as usize {
        for x in 0..grid.width {
            let slots = (0..grid.height)
                .map(|y| u32::from(y) * u32::from(grid.width) + u32::from(x))
                .collect();
            groups.push(CapacityGroup {
                label: format!("column {x}"),
                slots,
                cap: col_cap,
            });
        }
    }
    groups
}

impl NanoMap {
    /// Runs the exact SAT-based assignment rung for one folding
    /// candidate, after the whole heuristic ladder has failed. The flow
    /// walks every admitted candidate through this in preference order:
    /// a shallow folding with fewer NRAM sets is often solvable on a
    /// fabric where the deep preferred candidate is provably not.
    ///
    /// The candidate is packed once, on the first grid size. Per grid
    /// size the rung encodes per-cluster slot domains from the precise
    /// active-set view, solves, re-validates the model through
    /// [`adopt_assignment`], and re-runs routing/timing on the adopted
    /// placement. A routed model returns `Success`; a proof of
    /// unsatisfiability on the largest grid (guards relaxed) returns
    /// `Infeasible`; an interrupted solve or a model that will not route
    /// returns `Exhausted`.
    pub(crate) fn exact_assign_rung(
        &self,
        run: &Run,
        rank: usize,
        eval: &CandidateEval,
        base_degradations: &[Degradation],
        recovery: &mut RecoveryLog,
    ) -> ExactRungResult {
        let remedy = Remedy::ExactAssign;
        let attempt = Attempt {
            rank,
            eval,
            remedy,
            overrides: remedy.apply(self.place_options, self.route_options, self.channels),
        };
        let overrides = attempt.overrides;
        let base_slack = overrides.place.grid_slack;
        let last = MAX_GRID_ATTEMPTS - 1;
        let mut shared = match Shared::new(run, eval) {
            Ok(shared) => shared,
            Err(e) => return ExactRungResult::Fatal(e),
        };
        let mut sizing = 0u32;
        while sizing < MAX_GRID_ATTEMPTS {
            if run.token.expired() {
                return ExactRungResult::Exhausted;
            }
            let attempt_start = Instant::now();
            let slack = base_slack * GRID_GROWTH.powi(sizing as i32);

            // The temporal design and packing the encoder works from.
            let (design, packed) = match shared.packed(self) {
                Ok(products) => products,
                Err(e) => return ExactRungResult::Fatal(e),
            };
            let packing = &packed.packing;
            let n = packing.num_smbs;
            let grid = Grid::with_capacity(((f64::from(n) * slack).ceil() as u32).max(n));
            let required = packing.required_sets(design);

            // Per-cluster slot domains from the precise active-set
            // view; this is where the rung sees slots the heuristic
            // prefix check would waste.
            let allowed: Vec<Vec<u32>> = required
                .iter()
                .map(|sets| {
                    (0..grid.num_slots())
                        .filter(|&s| {
                            self.defects
                                .slot_usable_for_sets(grid.pos(s as usize), sets)
                        })
                        .collect()
                })
                .collect();
            let problem = AssignmentProblem {
                num_slots: grid.num_slots(),
                allowed,
                groups: congestion_groups(&self.defects, grid, &overrides.channels),
            };
            let options = SolverOptions {
                seed: overrides
                    .place
                    .seed
                    .wrapping_add(SAT_SEED_SALT)
                    .wrapping_add(u64::from(sizing)),
                conflict_budget: self.sat_conflict_budget,
                ..SolverOptions::default()
            };

            let mut sat_span = span!("exact-assign", smbs = n);
            sat_span.attr("slots", u64::from(grid.num_slots()));
            sat_span.attr("sizing", u64::from(sizing));
            let (mut outcome, mut stats, num_vars) =
                solve_assignment(&problem, options.clone(), run.token);
            // Capacity guards are heuristic; a completeness claim must
            // not rest on them. Relax and re-solve before believing an
            // UNSAT answer.
            if matches!(outcome, AssignOutcome::Infeasible(_)) && !problem.groups.is_empty() {
                sat_span.attr("relaxed_guards", 1u64);
                let bare = AssignmentProblem {
                    num_slots: problem.num_slots,
                    allowed: problem.allowed.clone(),
                    groups: Vec::new(),
                };
                let (o, s, _) = solve_assignment(&bare, options, run.token);
                stats.decisions += s.decisions;
                stats.conflicts += s.conflicts;
                stats.propagations += s.propagations;
                stats.restarts += s.restarts;
                outcome = o;
            }
            sat_span.attr("vars", u64::from(num_vars));
            sat_span.attr("decisions", stats.decisions);
            sat_span.attr("conflicts", stats.conflicts);
            sat_span.attr("learned", stats.learned);
            drop(sat_span);
            nanomap_observe::incr("sat.decisions", stats.decisions);
            nanomap_observe::incr("sat.conflicts", stats.conflicts);
            nanomap_observe::incr("sat.learned", stats.learned);
            nanomap_observe::incr("flow.exact_assign.solves", 1);

            match outcome {
                AssignOutcome::Assigned(slot_of_smb) => {
                    // Trust boundary: re-validate the model from
                    // scratch before adopting it.
                    let adopted = adopt_assignment(
                        design,
                        packing,
                        &packed.nets,
                        &overrides.channels,
                        &self.timing,
                        overrides.place.weights,
                        &self.defects,
                        &required,
                        grid,
                        &slot_of_smb,
                    );
                    let placement = match adopted {
                        Ok(placement) => placement,
                        Err(e) => {
                            // An encoder/decoder invariant broke; this
                            // is a bug, not a fabric property. Fail
                            // loudly rather than claim infeasibility.
                            return ExactRungResult::Fatal(FlowError::Internal {
                                detail: format!("SAT model failed adoption: {e}"),
                            });
                        }
                    };
                    // Inject the adopted placement; routing, timing,
                    // bitmaps and verification all run the normal path.
                    let mut degradations = base_degradations.to_vec();
                    degradations.extend(eval.degradation.clone());
                    match self.finish_candidate(
                        run,
                        &attempt,
                        None,
                        &mut shared,
                        Some(placement),
                        &mut degradations,
                    ) {
                        Ok(report) => {
                            nanomap_observe::incr("flow.exact_assign.rescues", 1);
                            return ExactRungResult::Success(Box::new(report), degradations);
                        }
                        Err(e) => match physical_phase(&e) {
                            // A legal assignment that will not route;
                            // try again with more room.
                            Some(phase) => {
                                attempt.record_failure(
                                    recovery,
                                    phase,
                                    e.to_string(),
                                    attempt_start,
                                );
                                sizing += 1;
                            }
                            None => return ExactRungResult::Fatal(e),
                        },
                    }
                }
                AssignOutcome::Infeasible(cause) => {
                    attempt.record_failure(
                        recovery,
                        "exact-assign",
                        format!("infeasible on {}x{} grid: {cause}", grid.width, grid.height),
                        attempt_start,
                    );
                    if sizing < last {
                        // Feasibility is monotone in grid size: skip
                        // the intermediate size, go straight to the
                        // largest grid for the proof.
                        sizing = last;
                        continue;
                    }
                    // Proven infeasible on the most generous grid with
                    // guards relaxed: summarize which defect class is
                    // to blame.
                    let mut dead = 0u32;
                    let mut blocked = 0u32;
                    let mut open = 0u32;
                    for s in 0..grid.num_slots() {
                        let pos = grid.pos(s as usize);
                        if self.defects.slot_defective(pos) {
                            dead += 1;
                        } else if required
                            .iter()
                            .any(|sets| self.defects.slot_usable_for_sets(pos, sets))
                        {
                            open += 1;
                        } else {
                            blocked += 1;
                        }
                    }
                    nanomap_observe::incr("flow.exact_assign.unsat", 1);
                    return ExactRungResult::Infeasible(ExactUnsatSummary {
                        smbs: n,
                        grid: (grid.width, grid.height),
                        dead_slots: dead,
                        nram_blocked_slots: blocked,
                        open_slots: open,
                        detail: cause.to_string(),
                        dominant_class: if dead >= blocked {
                            "dead slots"
                        } else {
                            "dead NRAM configuration sets"
                        },
                    });
                }
                AssignOutcome::Interrupted(reason) => {
                    attempt.record_failure(
                        recovery,
                        "exact-assign",
                        format!("solver interrupted: {reason}"),
                        attempt_start,
                    );
                    return ExactRungResult::Exhausted;
                }
            }
        }
        ExactRungResult::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::{ArchParams, SmbPos};
    use nanomap_netlist::rtl::{CombOp, RtlBuilder, RtlCircuit};
    use nanomap_netlist::{LutNetwork, PlaneSet};
    use nanomap_pack::{pack, TemporalDesign};
    use nanomap_techmap::{expand, ExpandOptions};

    use crate::budget::CancelToken;
    use crate::folding::candidate_configs;
    use crate::objective::Objective;

    /// A two-plane feed-forward pipeline: an adder plane feeding a
    /// multiplier plane through a register bank. Multi-plane designs
    /// pack clusters whose active NRAM sets are proper subsets of the
    /// full schedule — the precision gap the exact rung exploits.
    fn two_plane_circuit() -> RtlCircuit {
        let w = 8;
        let mut b = RtlBuilder::new("gap2");
        let x = b.input("x", w);
        let y = b.input("y", w);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: w });
        b.connect(x, 0, add, 0).unwrap();
        b.connect(y, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let reg = b.register("reg", w);
        b.connect(add, 0, reg, 0).unwrap();
        let mul = b.comb("mul", CombOp::Mul { width: w });
        b.connect(reg, 0, mul, 0).unwrap();
        b.connect(reg, 0, mul, 1).unwrap();
        let lo = b.comb(
            "lo",
            CombOp::Slice {
                width: 2 * w,
                lo: 0,
                out_width: w,
            },
        );
        b.connect(mul, 0, lo, 0).unwrap();
        let out = b.output("o", w);
        b.connect(lo, 0, out, 0).unwrap();
        b.finish().unwrap()
    }

    /// An unbalanced feed-forward pipeline: a wide adder-tree plane
    /// feeding progressively narrower planes. Under shared folding the
    /// narrow planes' clusters are active in a small fraction of the
    /// NRAM sets, widening the prefix-vs-precise legality gap on
    /// uniformly defective fabrics.
    fn unbalanced_pipeline(w: u32, terms: u32) -> RtlCircuit {
        let mut b = RtlBuilder::new("pipe");
        let gnd = b.constant("gnd", 1, 0);
        // Plane 0: a reduction tree over `terms` inputs.
        let mut stage: Vec<_> = (0..terms).map(|i| b.input(&format!("x{i}"), w)).collect();
        let mut level = 0u32;
        while stage.len() > 1 {
            let mut next = Vec::new();
            for (j, pair) in stage.chunks(2).enumerate() {
                if pair.len() == 2 {
                    let add = b.comb(&format!("a{level}_{j}"), CombOp::Add { width: w });
                    b.connect(pair[0], 0, add, 0).unwrap();
                    b.connect(pair[1], 0, add, 1).unwrap();
                    b.connect(gnd, 0, add, 2).unwrap();
                    next.push(add);
                } else {
                    next.push(pair[0]);
                }
            }
            stage = next;
            level += 1;
        }
        let r0 = b.register("r0", w);
        b.connect(stage[0], 0, r0, 0).unwrap();
        // Plane 1: a single increment.
        let one = b.constant("one", w, 1);
        let inc = b.comb("inc", CombOp::Add { width: w });
        b.connect(r0, 0, inc, 0).unwrap();
        b.connect(one, 0, inc, 1).unwrap();
        b.connect(gnd, 0, inc, 2).unwrap();
        let r1 = b.register("r1", w);
        b.connect(inc, 0, r1, 0).unwrap();
        // Plane 2: one more, keeping the tail planes tiny.
        let dec = b.comb("dec", CombOp::Add { width: w });
        b.connect(r1, 0, dec, 0).unwrap();
        b.connect(one, 0, dec, 1).unwrap();
        b.connect(gnd, 0, dec, 2).unwrap();
        let out = b.output("o", w);
        b.connect(dec, 0, out, 0).unwrap();
        b.finish().unwrap()
    }

    /// A shallow multi-plane relay: `planes` register-separated stages,
    /// each one level of wide bitwise logic. Every folding candidate of
    /// a multi-plane design (including no-folding) spreads its NRAM
    /// sets across the planes, so the heuristic prefix view decays as
    /// `(1-r)^(1+sets)` while each cluster only needs its own plane's
    /// sets alive — a wide natural window where heuristics starve but
    /// an exact assignment exists.
    fn relay_circuit(w: u32, planes: u32) -> RtlCircuit {
        let mut b = RtlBuilder::new("relay");
        let x = b.input("x", w);
        let k = b.input("k", w);
        let mut carry = x;
        for p in 0..planes {
            let fold = b.comb(&format!("fold{p}"), CombOp::Xor { width: w });
            b.connect(carry, 0, fold, 0).unwrap();
            b.connect(k, 0, fold, 1).unwrap();
            let gate = b.comb(&format!("gate{p}"), CombOp::Or { width: w });
            b.connect(fold, 0, gate, 0).unwrap();
            b.connect(x, 0, gate, 1).unwrap();
            if p + 1 < planes {
                let r = b.register(&format!("r{p}"), w);
                b.connect(gate, 0, r, 0).unwrap();
                carry = r;
            } else {
                let out = b.output("o", w);
                b.connect(gate, 0, out, 0).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    #[ignore = "diagnostic: scans the relay circuit for natural rescue windows"]
    fn diagnose_relay_window() {
        let net = expand(&relay_circuit(48, 4), ExpandOptions::default()).unwrap();
        for rate in [0.10, 0.15, 0.20, 0.25, 0.30] {
            for seed in 1..=4u64 {
                let exact = NanoMap::new(ArchParams::paper_unbounded())
                    .with_defects(DefectMap::uniform(rate, seed))
                    .with_exact_recovery()
                    .map(&net, Objective::MinAreaDelayProduct);
                match &exact {
                    Ok(r) if r.recovery.succeeded_with == Some(Remedy::ExactAssign) => {
                        println!("rate={rate} seed={seed} RESCUE");
                    }
                    Ok(r) => {
                        let p = r.physical.as_ref().unwrap();
                        println!(
                            "rate={rate} seed={seed} heur-ok level={:?} sets={} n={} grid={:?} [{}]",
                            r.folding_level,
                            r.nram_sets_used,
                            p.num_smbs,
                            p.grid,
                            r.recovery.summary()
                        );
                    }
                    Err(FlowError::ExactAssignUnsat { summary, .. }) => {
                        println!("rate={rate} seed={seed} unsat: {summary}");
                    }
                    Err(e) => println!("rate={rate} seed={seed} other: {e}"),
                }
            }
        }
    }

    #[test]
    #[ignore = "diagnostic: scans the unbalanced pipeline for natural rescue windows"]
    fn diagnose_pipeline_window() {
        let net = expand(&unbalanced_pipeline(8, 8), ExpandOptions::default()).unwrap();
        for rate in [0.10, 0.15, 0.20, 0.25, 0.30] {
            for seed in 1..=4u64 {
                let exact = NanoMap::new(ArchParams::paper_unbounded())
                    .with_defects(DefectMap::uniform(rate, seed))
                    .with_exact_recovery()
                    .map(&net, Objective::MinAreaDelayProduct);
                let tag = match &exact {
                    Ok(r) if r.recovery.succeeded_with == Some(Remedy::ExactAssign) => "RESCUE",
                    Ok(_) => "heur-ok",
                    Err(FlowError::ExactAssignUnsat { .. }) => "unsat",
                    Err(e) => {
                        println!("rate={rate} seed={seed} other: {e}");
                        continue;
                    }
                };
                println!("rate={rate} seed={seed} {tag}");
            }
        }
    }

    #[test]
    #[ignore = "diagnostic: prints per-candidate packing structure"]
    fn diagnose_gap() {
        let net = expand(&two_plane_circuit(), ExpandOptions::default()).unwrap();
        let flow = NanoMap::new(ArchParams::paper_unbounded());
        let planes = PlaneSet::extract(&net).unwrap();
        println!(
            "planes={} depth_max={}",
            planes.num_planes(),
            planes.depth_max()
        );
        let token = CancelToken::with_budget_ms(None);
        for config in candidate_configs(&planes, flow.arch.num_reconf) {
            let Ok(eval) = flow.evaluate_budgeted(&net, &planes, config, &token) else {
                println!("{config:?}: infeasible");
                continue;
            };
            let design = TemporalDesign::new(&net, &planes, eval.graphs, eval.schedules).unwrap();
            let packing = pack(&design, &flow.arch, flow.pack_options).unwrap();
            let required = packing.required_sets(&design);
            let num_sets = required
                .iter()
                .flat_map(|s| s.iter())
                .max()
                .map_or(0, |m| m + 1);
            let mut users = vec![0u32; num_sets as usize];
            for sets in &required {
                for &s in sets {
                    users[s as usize] += 1;
                }
            }
            println!(
                "{:?}: les={} delay={:.2} n={} sets={} users={:?}",
                config, eval.les, eval.delay_ns, packing.num_smbs, num_sets, users
            );
        }
    }

    /// A fabric that starves the heuristic prefix view while staying
    /// assignable under the precise per-cluster view: NRAM set 0 is
    /// dead at every coordinate except (0, 0). The prefix check
    /// `slot_usable(pos, num_slices)` sees exactly one usable slot, so
    /// every heuristic placement attempt of every folding candidate
    /// (all of which pack at least two clusters) fails with "too many
    /// defects". The exact encoder knows only one cluster is active in
    /// set 0 — that cluster takes (0, 0) and the rest spread over the
    /// otherwise healthy grid.
    fn prefix_starved_fabric() -> DefectMap {
        let mut map = DefectMap::none();
        for x in 0..32u16 {
            for y in 0..32u16 {
                if (x, y) != (0, 0) {
                    map.kill_nram_set(SmbPos { x, y }, 0);
                }
            }
        }
        map
    }

    fn gap_network() -> LutNetwork {
        expand(&two_plane_circuit(), ExpandOptions::default()).expect("expands")
    }

    /// The heuristic ladder alone must exhaust on the prefix-starved
    /// fabric — this is the premise of the rescue test below, asserted
    /// separately so a placer that learns the precise view shows up
    /// here first.
    #[test]
    fn heuristics_alone_exhaust_on_a_prefix_starved_fabric() {
        let err = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(prefix_starved_fabric())
            .map(&gap_network(), Objective::MinAreaDelayProduct)
            .expect_err("the prefix view sees a single usable slot");
        assert!(
            matches!(err, FlowError::RecoveryExhausted { .. }),
            "expected RecoveryExhausted, got: {err}"
        );
    }

    /// End-to-end rescue: the exact rung finds the assignment the
    /// annealer cannot, and the solver placement rides the normal
    /// route/timing path to a complete physical report.
    #[test]
    fn exact_rung_rescues_a_prefix_starved_fabric() {
        let report = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(prefix_starved_fabric())
            .with_exact_recovery()
            .map(&gap_network(), Objective::MinAreaDelayProduct)
            .expect("the per-cluster view has a legal assignment");
        assert_eq!(report.recovery.succeeded_with, Some(Remedy::ExactAssign));
        assert!(report.recovery.recovered());
        let physical = report.physical.expect("the rescue is a full mapping");
        assert!(physical.routed_delay_ns > 0.0);
        assert!(physical.num_smbs >= 2);
    }

    /// Every candidate is scheduled once, during selection: no ladder
    /// rung and no exact-rung grid sizing re-runs FDS, so every `fds`
    /// span sits under a `candidate` span. Checked on a clean mapping,
    /// on a heuristic ladder that climbs every rung of every candidate,
    /// and on an exact-rung rescue.
    #[test]
    fn fds_runs_once_per_candidate() {
        nanomap_observe::set_enabled(true);
        let clean = NanoMap::new(ArchParams::paper_unbounded());
        let ladder = clean.clone().with_defects(prefix_starved_fabric());
        let rescue = ladder.clone().with_exact_recovery();
        clean
            .map(&gap_network(), Objective::MinAreaDelayProduct)
            .expect("maps on a clean fabric");
        ladder
            .map(&gap_network(), Objective::MinAreaDelayProduct)
            .expect_err("the heuristic ladder exhausts");
        rescue
            .map(&gap_network(), Objective::MinAreaDelayProduct)
            .expect("the exact rung rescues");
        // Span nesting is per thread; other tests map concurrently.
        let snap = nanomap_observe::snapshot();
        let tid = nanomap_observe::thread_ordinal();
        let mine: Vec<_> = snap.spans.iter().filter(|s| s.tid == tid).collect();
        let fds: Vec<_> = mine.iter().filter(|s| s.name == "fds").collect();
        assert!(!fds.is_empty(), "no fds spans recorded");
        for span in fds {
            let parent = span
                .parent
                .and_then(|id| mine.iter().find(|s| s.id == id))
                .map(|s| s.name);
            assert_eq!(parent, Some("candidate"), "fds span {} re-ran", span.id);
        }
    }

    /// Same seed, same fabric: the rescue is byte-deterministic through
    /// placement, routing and timing.
    #[test]
    fn exact_rescue_is_deterministic() {
        let run = || {
            NanoMap::new(ArchParams::paper_unbounded())
                .with_defects(prefix_starved_fabric())
                .with_exact_recovery()
                .map(&gap_network(), Objective::MinAreaDelayProduct)
                .expect("maps via the exact rung")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.folding_level, b.folding_level);
        assert_eq!(a.num_les, b.num_les);
        let (pa, pb) = (a.physical.unwrap(), b.physical.unwrap());
        assert_eq!(pa.placement_cost, pb.placement_cost);
        assert_eq!(pa.routed_delay_ns, pb.routed_delay_ns);
        assert_eq!(pa.bitmap_bits, pb.bitmap_bits);
    }
}
