//! The NanoMap optimization flow (Fig. 2 of the paper).
//!
//! Given a mapped LUT network (or RTL that this crate expands first), the
//! flow: identifies planes, enumerates folding configurations, runs
//! force-directed scheduling per candidate to obtain LE usage and delay,
//! selects the best candidate under the user's [`Objective`], then runs
//! temporal clustering, two-step placement, PathFinder routing and
//! configuration-bitmap generation. If placement/routing fail, the flow
//! returns to logic mapping with the next folding configuration — the
//! iterative loop of steps 2–15.

// The flow sits directly behind the CLI: every failure on user input
// must surface as a `FlowError`, never a panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use nanomap_arch::{
    estimate_power, ArchParams, AreaModel, ChannelConfig, DefectMap, PowerModel, TimingModel,
};
use nanomap_netlist::rtl::RtlCircuit;
use nanomap_netlist::{LutNetwork, PlaneSet};
use nanomap_pack::{extract_nets, pack, PackOptions, Packing, SliceNets, TemporalDesign};
use nanomap_place::{adopt_assignment, place_with_defects_budgeted, PlaceOptions, Placement};
use nanomap_route::{route_design_budgeted, RouteOptions};
use nanomap_sched::{schedule_fds_budgeted, FdsOptions, ItemGraph, LeShape, Schedule};
use nanomap_techmap::{expand, ExpandOptions};

use std::path::PathBuf;
use std::time::Instant;

use nanomap_observe::{span, Fnv1a, SpanGuard};

use crate::budget::{CancelToken, Degradation};
use crate::checkpoint::{
    netlist_fingerprint, Checkpoint, CheckpointError, CheckpointWriter, PlaceSnapshot,
    ScheduleSnapshot,
};
use crate::error::FlowError;
use crate::exact::ExactRungResult;
use crate::folding::{candidate_configs, FoldingConfig, PlaneSharing};
use crate::objective::Objective;
use crate::recovery::{
    PhysicalOverrides, RecoveryAttempt, RecoveryLog, Remedy, LADDER, MAX_TOTAL_ATTEMPTS,
};
use crate::report::{MappingReport, PhaseTimes, PhysicalReport};
use crate::verify::check_folded_execution;

/// Macro cycles of the folded-execution verification run.
const VERIFY_CYCLES: usize = 64;

/// The NanoMap flow, configured for one NATURE instance.
///
/// # Examples
///
/// ```
/// use nanomap::{NanoMap, Objective};
/// use nanomap_arch::ArchParams;
/// use nanomap_netlist::rtl::{CombOp, RtlBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = RtlBuilder::new("demo");
/// let a = b.input("a", 4);
/// let c = b.input("b", 4);
/// let gnd = b.constant("gnd", 1, 0);
/// let add = b.comb("add", CombOp::Add { width: 4 });
/// b.connect(a, 0, add, 0)?;
/// b.connect(c, 0, add, 1)?;
/// b.connect(gnd, 0, add, 2)?;
/// let y = b.output("y", 4);
/// b.connect(add, 0, y, 0)?;
/// let circuit = b.finish()?;
///
/// let flow = NanoMap::new(ArchParams::paper_unbounded());
/// let report = flow.map_rtl(&circuit, Objective::MinAreaDelayProduct)?;
/// // Deep folding shrinks the 8-LUT adder to a couple of LEs.
/// assert!(report.num_les < 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NanoMap {
    /// Architecture instance.
    pub arch: ArchParams,
    /// Timing model.
    pub timing: TimingModel,
    /// Area model.
    pub area: AreaModel,
    /// Interconnect channel configuration.
    pub channels: ChannelConfig,
    /// FDS options.
    pub fds: FdsOptions,
    /// Temporal clustering options.
    pub pack_options: PackOptions,
    /// Placement options.
    pub place_options: PlaceOptions,
    /// Routing options.
    pub route_options: RouteOptions,
    /// Fabric defect map: dead slots, broken wires/switches, dead NRAM
    /// sets. Placement and routing work around these; the recovery
    /// ladder escalates when they cannot.
    pub defects: DefectMap,
    /// Run clustering + place + route for the chosen candidate.
    pub run_physical: bool,
    /// Emit the packed binary bitstream into the report.
    pub emit_bitstream: bool,
    /// Verify folded execution against the reference simulator.
    pub verify: bool,
    /// Build the QoR attribution artifact (critical paths, congestion,
    /// occupancy) into the report.
    pub explain: bool,
    /// Paths traced per folding cycle when `explain` is on.
    pub explain_top_k: usize,
    /// Wall-clock budget for the whole mapping, in milliseconds.
    /// `None` runs unbudgeted (no clock reads; artifacts stay
    /// byte-identical to a pre-budget flow).
    pub budget_ms: Option<u64>,
    /// Accept a budget-degraded best-so-far mapping instead of failing
    /// with [`FlowError::BudgetExhausted`] (anytime mode).
    pub anytime: bool,
    /// Directory for per-phase crash-safe checkpoints (`None` disables
    /// checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Run the exact SAT-based assignment rung when the heuristic
    /// ladder exhausts (`--exact-recovery`).
    pub exact_recovery: bool,
    /// Conflict budget per SAT solve of the exact rung
    /// (`--sat-conflict-budget`); `None` bounds it only by the
    /// wall-clock token.
    pub sat_conflict_budget: Option<u64>,
}

impl NanoMap {
    /// Creates a flow for an architecture instance with default options.
    pub fn new(arch: ArchParams) -> Self {
        let shape = LeShape {
            luts: arch.luts_per_le,
            ffs: arch.ffs_per_le,
        };
        Self {
            arch,
            timing: TimingModel::nature_100nm(),
            area: AreaModel::nature_100nm(),
            channels: ChannelConfig::nature(),
            fds: FdsOptions {
                shape,
                ..FdsOptions::default()
            },
            pack_options: PackOptions::default(),
            place_options: PlaceOptions::default(),
            route_options: RouteOptions::default(),
            defects: DefectMap::none(),
            run_physical: true,
            emit_bitstream: false,
            verify: false,
            explain: false,
            explain_top_k: crate::explain::DEFAULT_TOP_K,
            budget_ms: None,
            anytime: false,
            checkpoint_dir: None,
            exact_recovery: false,
            sat_conflict_budget: None,
        }
    }

    /// Bounds the whole mapping to a wall-clock budget in milliseconds.
    pub fn with_budget_ms(mut self, budget_ms: u64) -> Self {
        self.budget_ms = Some(budget_ms);
        self
    }

    /// Accepts budget-degraded best-so-far mappings (anytime mode).
    pub fn with_anytime(mut self) -> Self {
        self.anytime = true;
        self
    }

    /// Writes a crash-safe checkpoint into `dir` after each completed
    /// phase.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Disables place-and-route (fast logic-mapping-only evaluation).
    pub fn without_physical(mut self) -> Self {
        self.run_physical = false;
        self
    }

    /// Enables folded-execution verification.
    pub fn with_verification(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Emits the packed binary bitstream into the report.
    pub fn with_bitstream(mut self) -> Self {
        self.emit_bitstream = true;
        self
    }

    /// Maps onto a defective fabric described by `defects`.
    pub fn with_defects(mut self, defects: DefectMap) -> Self {
        self.defects = defects;
        self
    }

    /// Builds the QoR attribution artifact into the report.
    pub fn with_explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Enables the exact SAT-based assignment rung as the complete
    /// final fallback of the recovery ladder.
    pub fn with_exact_recovery(mut self) -> Self {
        self.exact_recovery = true;
        self
    }

    /// Bounds each SAT solve of the exact rung to a conflict budget;
    /// 0 leaves it unbounded (the time budget still applies).
    pub fn with_sat_conflict_budget(mut self, conflicts: u64) -> Self {
        self.sat_conflict_budget = (conflicts > 0).then_some(conflicts);
        self
    }

    /// Maps an RTL circuit: expand to LUTs, then [`Self::map`].
    ///
    /// # Errors
    ///
    /// Propagates expansion and mapping failures.
    pub fn map_rtl(
        &self,
        circuit: &RtlCircuit,
        objective: Objective,
    ) -> Result<MappingReport, FlowError> {
        let net = expand(
            circuit,
            ExpandOptions {
                lut_inputs: self.arch.lut_inputs,
                ..ExpandOptions::default()
            },
        )?;
        self.map(&net, objective)
    }

    /// Maps a LUT network onto NATURE under the given objective.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::LutTooWide`] when a LUT has more inputs
    /// than the fabric's, [`FlowError::NoFeasibleFolding`] when no
    /// folding level satisfies the constraints,
    /// [`FlowError::BudgetExhausted`] when the time budget expires
    /// mid-flow and anytime mode is off, or the first hard failure from
    /// a flow stage.
    pub fn map(&self, net: &LutNetwork, objective: Objective) -> Result<MappingReport, FlowError> {
        self.check_lut_width(net)?;
        let token = CancelToken::with_budget_ms(self.budget_ms);
        self.publish_run_start(net, objective);
        let flow_span = span!("flow", circuit = net.name());
        let planes = PlaneSet::extract(net)?;
        let (candidates, select_degradation, select_us) =
            self.select(net, &planes, objective, &token)?;
        let run = Run {
            net,
            planes: &planes,
            objective,
            token: &token,
        };
        let plan = Plan {
            candidates,
            select_us,
            first_rank: 0,
            start: Remedy::Baseline,
            restored: None,
            recovery: RecoveryLog::new(),
            degradations: select_degradation.into_iter().collect(),
        };
        self.climb(&run, plan, flow_span)
    }

    /// Resumes a mapping from a checkpoint written by a previous run with
    /// the same netlist, objective and architecture.
    ///
    /// The checkpoint pins the folding candidate and recovery-ladder
    /// rung. Restored schedules skip FDS, the candidate is packed again
    /// from them, and a restored placement is adopted through
    /// [`adopt_assignment`] instead of annealed; the remaining phases
    /// re-run deterministically, reproducing the uninterrupted run's
    /// report. Should the pinned rung still fail, the ladder climbs
    /// from there.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when the checkpoint does not match this
    /// netlist/objective/architecture or its placement does not fit this
    /// run's packing and fabric; otherwise the same errors as
    /// [`Self::map`].
    pub fn map_resume(
        &self,
        net: &LutNetwork,
        objective: Objective,
        checkpoint: &Checkpoint,
    ) -> Result<MappingReport, FlowError> {
        self.check_lut_width(net)?;
        checkpoint.validate(net, &objective.key(), &self.arch)?;
        let token = CancelToken::with_budget_ms(self.budget_ms);
        self.publish_run_start(net, objective);
        let mut flow_span = span!("flow", circuit = net.name());
        flow_span.attr("resumed", 1u64);
        let planes = PlaneSet::extract(net)?;
        // Rebuild the item graphs (cheap and deterministic) and restore
        // the checkpointed schedules onto them.
        let config = checkpoint.folding_config();
        let graphs = item_graphs(net, &planes, config)?;
        let schedules = checkpoint.restore_schedules(&graphs)?;
        let (les, delay_ns) = self.assess(net, &planes, config, &graphs, &schedules);
        let eval = CandidateEval {
            config,
            les,
            delay_ns,
            graphs,
            schedules,
            degradation: None,
            fds_us: 0,
        };
        let mut recovery = checkpoint.recovery.clone();
        recovery.succeeded_with = None;
        let run = Run {
            net,
            planes: &planes,
            objective,
            token: &token,
        };
        let plan = Plan {
            candidates: vec![eval],
            select_us: 0,
            first_rank: checkpoint.candidate_rank,
            start: checkpoint.remedy,
            restored: checkpoint.placement.clone(),
            recovery,
            degradations: Vec::new(),
        };
        self.climb(&run, plan, flow_span)
    }

    /// Rejects a network whose widest LUT does not fit the fabric's LUTs.
    fn check_lut_width(&self, net: &LutNetwork) -> Result<(), FlowError> {
        let widest = net.luts().map(|(_, lut)| lut.truth.num_inputs()).max();
        match widest {
            Some(widest) if widest > self.arch.lut_inputs => Err(FlowError::LutTooWide {
                widest,
                lut_inputs: self.arch.lut_inputs,
            }),
            _ => Ok(()),
        }
    }

    /// Logic mapping (steps 2-6): evaluates every folding candidate and
    /// returns the constraint-satisfying ones in objective preference
    /// order, a degradation when the budget cut enumeration short, and
    /// the microseconds of the `folding-select` span.
    fn select(
        &self,
        net: &LutNetwork,
        planes: &PlaneSet,
        objective: Objective,
        token: &CancelToken,
    ) -> Result<(Vec<CandidateEval>, Option<Degradation>, u64), FlowError> {
        let configs = candidate_configs(planes, self.arch.num_reconf);
        let mut evaluated: Vec<CandidateEval> = Vec::new();
        let mut degradation = None;
        let select_us = {
            let select_span = span!("folding-select", candidates = configs.len());
            for &config in &configs {
                // Budget gone: stop enumerating once at least one
                // feasible candidate exists — a truncated preference
                // order beats no mapping at all.
                if token.expired()
                    && evaluated
                        .iter()
                        .any(|e| objective.admits(e.les, e.delay_ns))
                {
                    degradation = Some(Degradation {
                        phase: "folding-select".into(),
                        reason: format!(
                            "time budget expired after {} of {} folding candidates",
                            evaluated.len(),
                            configs.len()
                        ),
                        completed_iterations: evaluated.len() as u64,
                        qor_estimate: (configs.len() - evaluated.len()) as f64,
                    });
                    break;
                }
                // Each candidate is scheduled exactly once: a budget-
                // truncated FDS keeps its degradation in the evaluation,
                // and every later attempt reuses the schedules.
                match self.evaluate_budgeted(net, planes, config, token) {
                    Ok(eval) => evaluated.push(eval),
                    Err(FlowError::Sched(_)) => {
                        // Infeasible stage count.
                        nanomap_observe::incr("flow.candidates_rejected_sched", 1);
                    }
                    Err(e) => return Err(e),
                }
            }
            select_span.finish()
        };
        // Constraint-violating candidates sort last: they stay only long
        // enough to name the best one when nothing is admitted.
        evaluated.sort_by(|a, b| {
            let fa = objective.admits(a.les, a.delay_ns);
            let fb = objective.admits(b.les, b.delay_ns);
            fb.cmp(&fa).then_with(|| {
                if objective.prefers(a.les, a.delay_ns, b.les, b.delay_ns) {
                    std::cmp::Ordering::Less
                } else if objective.prefers(b.les, b.delay_ns, a.les, a.delay_ns) {
                    std::cmp::Ordering::Greater
                } else {
                    a.config.stages.cmp(&b.config.stages)
                }
            })
        });
        let Some(best) = evaluated.first() else {
            return Err(FlowError::NoFeasibleFolding {
                reason: "no folding configuration schedules feasibly".into(),
            });
        };
        if !objective.admits(best.les, best.delay_ns) {
            return Err(FlowError::NoFeasibleFolding {
                reason: format!(
                    "best candidate needs {} LEs / {:.2} ns, outside the constraints",
                    best.les, best.delay_ns
                ),
            });
        }
        evaluated.retain(|e| objective.admits(e.les, e.delay_ns));
        Ok((evaluated, degradation, select_us))
    }

    /// Physical design (steps 7-15) under the recovery ladder: per
    /// candidate escalate baseline → reseed → widen grid → widen
    /// channels, then fall back to the next candidate of the plan. Once
    /// every heuristic rung has failed, the opt-in exact rung walks the
    /// plan again. Every failed attempt lands in the RecoveryLog.
    fn climb(
        &self,
        run: &Run,
        plan: Plan,
        mut flow_span: SpanGuard,
    ) -> Result<MappingReport, FlowError> {
        let Plan {
            candidates,
            select_us,
            first_rank,
            start,
            mut restored,
            mut recovery,
            degradations: base,
        } = plan;
        let start_rung = LADDER.iter().position(|&r| r == start).unwrap_or(0);
        let won = 'won: {
            'ladder: for (i, eval) in candidates.iter().enumerate() {
                if i > 0 {
                    recovery.record_candidate_fallback();
                }
                // Every rung reuses the candidate's design and packing.
                let mut shared = Shared::new(run, eval)?;
                let first_rung = if i == 0 { start_rung } else { 0 };
                for &remedy in &LADDER[first_rung..] {
                    if recovery.total_attempts() >= MAX_TOTAL_ATTEMPTS {
                        break 'ladder;
                    }
                    // Budget gone: stop climbing once one physical
                    // attempt exists; anytime callers keep the degraded
                    // best-so-far, strict callers get BudgetExhausted
                    // below.
                    if run.token.expired() && !recovery.attempts.is_empty() {
                        break 'ladder;
                    }
                    let attempt_start = Instant::now();
                    let attempt = Attempt {
                        rank: first_rank + i,
                        eval,
                        remedy,
                        overrides: remedy.apply(
                            self.place_options,
                            self.route_options,
                            self.channels,
                        ),
                    };
                    let mut writer = self.checkpoint_writer(run, &attempt, &recovery)?;
                    if let Some(w) = writer.as_mut() {
                        w.write_fds()?;
                    }
                    let mut degradations = base.clone();
                    degradations.extend(eval.degradation.clone());
                    // A restored placement belongs to the first attempt only.
                    let placement = restored
                        .take()
                        .map(|snapshot| self.adopt_restored(&mut shared, &attempt, &snapshot))
                        .transpose()?;
                    match self.finish_candidate(
                        run,
                        &attempt,
                        writer.as_mut(),
                        &mut shared,
                        placement,
                        &mut degradations,
                    ) {
                        Ok(report) => break 'won Some((report, eval, remedy, degradations)),
                        Err(e) => match physical_phase(&e) {
                            Some(phase) => {
                                attempt.record_failure(
                                    &mut recovery,
                                    phase,
                                    e.to_string(),
                                    attempt_start,
                                );
                            }
                            None => return Err(e),
                        },
                    }
                }
                // The whole ladder failed for this candidate.
                nanomap_observe::incr("flow.candidates_rejected_physical", 1);
            }
            // The complete final rung: exact SAT-based slot assignment,
            // opt-in, run only once every heuristic rung has failed and
            // time remains. It walks the *whole* plan in preference
            // order — a shallow folding with fewer NRAM sets may be
            // solvable where the best candidate is not — and claims
            // infeasibility only when every candidate is proven
            // unsatisfiable.
            if self.exact_recovery && !run.token.expired() && !recovery.attempts.is_empty() {
                let mut best_unsat = None;
                let mut all_proven = true;
                for (i, eval) in candidates.iter().enumerate() {
                    if run.token.expired() {
                        all_proven = false;
                        break;
                    }
                    match self.exact_assign_rung(run, first_rank + i, eval, &base, &mut recovery) {
                        ExactRungResult::Success(report, degradations) => {
                            break 'won Some((*report, eval, Remedy::ExactAssign, degradations));
                        }
                        // Keep the preferred candidate's proof for the
                        // error; later candidates still must be tried.
                        ExactRungResult::Infeasible(summary) => {
                            best_unsat.get_or_insert(summary);
                        }
                        ExactRungResult::Exhausted => all_proven = false,
                        ExactRungResult::Fatal(e) => return Err(e),
                    }
                }
                // An interrupted or routing-starved candidate means the
                // infeasibility claim would be unsound; fall through to
                // the generic exhaustion errors instead.
                if let (true, Some(summary)) = (all_proven, best_unsat) {
                    return Err(FlowError::ExactAssignUnsat {
                        log: recovery,
                        summary,
                    });
                }
            }
            None
        };
        let Some((mut report, eval, remedy, degradations)) = won else {
            return Err(if run.token.expired() {
                nanomap_observe::incr("flow.budget_expired", 1);
                FlowError::BudgetExhausted {
                    log: recovery,
                    degradations: base,
                }
            } else {
                FlowError::RecoveryExhausted { log: recovery }
            });
        };
        flow_span.attr("folding_level", report.folding_level);
        flow_span.attr("num_les", report.num_les);
        if !degradations.is_empty() {
            flow_span.attr("degraded", 1u64);
        }
        if remedy == Remedy::ExactAssign {
            flow_span.attr("exact_recovery", 1u64);
        }
        // The winning candidate's FDS ran once, inside selection: it is
        // its own phase, and the rest of selection is folding-select.
        let times = &mut report.phase_times;
        times.set("folding-select", select_us - eval.fds_us);
        times.set("fds", eval.fds_us);
        times.total_us = flow_span.finish();
        self.finalize(run, report, recovery, remedy, degradations)
    }

    /// Success bookkeeping: fold the degradation history into the
    /// report, route strict-mode expiry to
    /// [`FlowError::BudgetExhausted`], stamp the budget remainder.
    fn finalize(
        &self,
        run: &Run,
        mut report: MappingReport,
        mut recovery: RecoveryLog,
        remedy: Remedy,
        degradations: Vec<Degradation>,
    ) -> Result<MappingReport, FlowError> {
        let degraded = !degradations.is_empty();
        if degraded {
            nanomap_observe::incr("flow.budget_expired", 1);
            if !self.anytime {
                return Err(FlowError::BudgetExhausted {
                    log: recovery,
                    degradations,
                });
            }
            recovery.succeeded_with = Some(Remedy::AcceptDegraded);
        } else {
            recovery.succeeded_with = Some(remedy);
        }
        report.degraded = degraded;
        report.degradations = degradations;
        report.recovery = recovery;
        report.phase_times.budget_ms_remaining = run.token.remaining_ms();
        for d in &report.degradations {
            nanomap_observe::publish(|| nanomap_observe::EventKind::Degraded {
                phase: d.phase.clone(),
                reason: d.reason.clone(),
                completed_iterations: d.completed_iterations,
            });
        }
        Ok(report)
    }

    /// Stable flight-recorder id for mapping `net` under `objective`
    /// with this flow's seeds and fabric: the same inputs always produce
    /// the same id, so ledger history lines up across reruns. A
    /// defective fabric folds its map into the id; a clean one leaves
    /// the id as the netlist, objective and seeds alone define it.
    pub fn run_id(&self, net: &LutNetwork, objective: Objective) -> String {
        let mut fingerprint = netlist_fingerprint(net);
        if !self.defects.is_empty() {
            let fabric = Fnv1a::new()
                .field(self.defects.to_text().as_bytes())
                .finish();
            fingerprint = Fnv1a::new().u64(fingerprint).u64(fabric).finish();
        }
        crate::runs::run_id(
            fingerprint,
            &objective.key(),
            self.place_options.seed,
            self.route_options.seed,
        )
    }

    /// Announces the run on the event bus (first event of the stream).
    fn publish_run_start(&self, net: &LutNetwork, objective: Objective) {
        nanomap_observe::publish(|| nanomap_observe::EventKind::RunStart {
            run_id: self.run_id(net, objective),
            circuit: net.name().to_string(),
            objective: objective.key(),
            place_seed: self.place_options.seed,
            route_seed: self.route_options.seed,
        });
    }

    /// Admits a checkpointed placement into `attempt` through the SAT
    /// rung's validator, against the candidate's packing and this
    /// flow's defect map: a placement that does not fit is a typed
    /// checkpoint error, never a panic or a silently wrong bitstream.
    fn adopt_restored(
        &self,
        shared: &mut Shared<'_>,
        attempt: &Attempt,
        snapshot: &PlaceSnapshot,
    ) -> Result<Placement, FlowError> {
        let grid = snapshot.grid()?;
        let (design, packed) = shared.packed(self)?;
        let overrides = &attempt.overrides;
        adopt_assignment(
            design,
            &packed.packing,
            &packed.nets,
            &overrides.channels,
            &self.timing,
            overrides.place.weights,
            &self.defects,
            &packed.packing.required_sets(design),
            grid,
            &snapshot.slots,
        )
        .map_err(|e| {
            FlowError::from(CheckpointError::Malformed {
                detail: format!("restored placement rejected: {e}"),
            })
        })
    }

    /// Builds the checkpoint writer for one physical-design attempt,
    /// when a checkpoint directory is configured.
    fn checkpoint_writer(
        &self,
        run: &Run,
        attempt: &Attempt,
        recovery: &RecoveryLog,
    ) -> Result<Option<CheckpointWriter>, FlowError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(None);
        };
        let config = attempt.eval.config;
        let checkpoint = Checkpoint {
            circuit: run.net.name().to_string(),
            netlist_hash: netlist_fingerprint(run.net),
            objective: run.objective.key(),
            lut_inputs: self.arch.lut_inputs,
            luts_per_le: self.arch.luts_per_le,
            ffs_per_le: self.arch.ffs_per_le,
            num_reconf: self.arch.num_reconf,
            candidate_rank: attempt.rank,
            level: config.level,
            stages: config.stages,
            sharing: config.sharing,
            remedy: attempt.remedy,
            schedules: attempt
                .eval
                .schedules
                .iter()
                .map(ScheduleSnapshot::capture)
                .collect(),
            recovery: recovery.clone(),
            placement: None,
        };
        Ok(Some(CheckpointWriter::new(dir, checkpoint)?))
    }

    /// Logic-mapping evaluation of one folding configuration, inside
    /// one `candidate` span: schedules every plane (polling the cancel
    /// token at FDS round boundaries) and computes LE usage and
    /// analytical delay. A budget-truncated FDS run leaves its merged
    /// per-plane degradation in the result.
    pub(crate) fn evaluate_budgeted(
        &self,
        net: &LutNetwork,
        planes: &PlaneSet,
        config: FoldingConfig,
        token: &CancelToken,
    ) -> Result<CandidateEval, FlowError> {
        let mut cand_span = span!("candidate", stages = config.stages);
        cand_span.attr("level", config.level);
        nanomap_observe::incr("flow.candidates_evaluated", 1);
        let graphs = item_graphs(net, planes, config)?;
        let mut schedules = Vec::new();
        let mut degradation: Option<Degradation> = None;
        for graph in &graphs {
            let schedule = match config.level {
                // No folding: trivial single-stage schedules, nothing for
                // the budget to truncate.
                None => Schedule::new(vec![0; graph.len()], 1),
                Some(_) => {
                    let scheduled =
                        schedule_fds_budgeted(net, graph, config.stages, self.fds, token)?;
                    let (schedule, plane_degradation) = scheduled.into_parts();
                    if let Some(d) = plane_degradation {
                        // Merge per-plane degradations: first reason wins,
                        // iteration counts accumulate, worst estimate kept.
                        match degradation.as_mut() {
                            Some(merged) => {
                                merged.completed_iterations += d.completed_iterations;
                                merged.qor_estimate = merged.qor_estimate.max(d.qor_estimate);
                            }
                            None => degradation = Some(d),
                        }
                    }
                    schedule
                }
            };
            schedules.push(schedule);
        }
        let (les, delay_ns) = self.assess(net, planes, config, &graphs, &schedules);
        Ok(CandidateEval {
            config,
            les,
            delay_ns,
            graphs,
            schedules,
            degradation,
            fds_us: cand_span.finish(),
        })
    }

    /// LE usage and analytical delay of a scheduled candidate — shared
    /// by fresh evaluation and checkpoint resume, so a restored schedule
    /// reproduces the original estimates bit for bit.
    fn assess(
        &self,
        net: &LutNetwork,
        planes: &PlaneSet,
        config: FoldingConfig,
        graphs: &[ItemGraph],
        schedules: &[Schedule],
    ) -> (u32, f64) {
        let num_planes = planes.num_planes() as u32;
        let shape = self.fds.shape;
        let total_ff_bits = net.num_ffs() as u32;
        match config.level {
            None => {
                // No folding: every LUT owns an LE; registers live in the
                // LE flip-flops.
                let total_luts = net.num_luts() as u32;
                let les = total_luts.max(total_ff_bits.div_ceil(shape.ffs));
                let delay_ns = self
                    .timing
                    .circuit_delay_no_folding(num_planes, planes.depth_max());
                (les, delay_ns)
            }
            Some(p) => {
                let stages = config.stages;
                let les = match config.sharing {
                    PlaneSharing::Shared => {
                        // All planes reuse the same LEs: peak over planes,
                        // with every circuit register alive throughout.
                        let mut peak = 0;
                        for (plane_idx, _plane) in planes.planes().iter().enumerate() {
                            // The DGs inside FDS follow the paper's
                            // weight_i storage estimate; the final LE
                            // accounting counts, bit by bit, the values
                            // that truly cross folding cycles.
                            let usage = schedules[plane_idx].le_usage_exact(
                                net,
                                &graphs[plane_idx],
                                total_ff_bits,
                                shape,
                            );
                            peak = peak.max(usage.peak);
                        }
                        peak
                    }
                    PlaneSharing::PerPlane => {
                        // Each plane owns LEs sized by its own peak, with
                        // its adjacent registers resident.
                        let owner = ff_owners(planes, net.num_ffs());
                        let mut total = 0;
                        for (plane_idx, _) in planes.planes().iter().enumerate() {
                            let reg_bits = owner.iter().filter(|&&o| o == plane_idx).count() as u32;
                            let usage = schedules[plane_idx].le_usage_exact(
                                net,
                                &graphs[plane_idx],
                                reg_bits,
                                shape,
                            );
                            total += usage.peak;
                        }
                        total
                    }
                };
                let delay_ns = self.timing.circuit_delay(num_planes, stages, p);
                (les, delay_ns)
            }
        }
    }

    /// Clustering, placement, routing, bitmap and verification for one
    /// attempt: a candidate under the physical-design options of one
    /// recovery-ladder rung.
    ///
    /// Phases poll the run's token at iteration boundaries and append
    /// their [`Degradation`] to `degradations` when it expires. The
    /// candidate's design and packing come from `shared`, packed on the
    /// first physical attempt; a given `placement`, already validated by
    /// [`adopt_assignment`], skips placement. The placement lands in
    /// `ckpt` when checkpointing is on.
    pub(crate) fn finish_candidate(
        &self,
        run: &Run,
        attempt: &Attempt,
        ckpt: Option<&mut CheckpointWriter>,
        shared: &mut Shared<'_>,
        placement: Option<Placement>,
        degradations: &mut Vec<Degradation>,
    ) -> Result<MappingReport, FlowError> {
        let (net, planes, token) = (run.net, run.planes, run.token);
        let (eval, overrides) = (attempt.eval, &attempt.overrides);
        let config = eval.config;
        let mut times = PhaseTimes::default();
        {
            // The verify span is always emitted so the phase set is
            // complete; the attribute records whether it actually ran.
            let mut verify_span = span!("verify", skipped = !self.verify);
            if self.verify {
                let check = check_folded_execution(&shared.design, VERIFY_CYCLES, 0xFEED);
                verify_span.attr("cycles", VERIFY_CYCLES as u64);
                if let Some(detail) = check.failure {
                    return Err(FlowError::VerificationFailed { detail });
                }
                times.set("verify", verify_span.finish());
            }
        }
        let mut explain = None;
        let physical = if self.run_physical {
            let (design, packed) = shared.packed(self)?;
            let (packing, nets) = (&packed.packing, &packed.nets);
            times.set("pack", packed.us);
            let placement = match placement {
                Some(placement) => placement,
                None => {
                    let mut place_span = span!("place", smbs = packing.num_smbs);
                    place_span.attr("seed", overrides.place.seed);
                    let placed = place_with_defects_budgeted(
                        design,
                        packing,
                        nets,
                        &overrides.channels,
                        &self.timing,
                        overrides.place,
                        &self.defects,
                        token,
                    )?;
                    let (placement, degradation) = placed.into_parts();
                    if let Some(d) = degradation {
                        place_span.attr("degraded", 1u64);
                        degradations.push(d);
                    }
                    times.set("place", place_span.finish());
                    placement
                }
            };
            if let Some(w) = ckpt {
                w.write_place(placement.grid, &placement.pos_of)?;
            }
            let routed = {
                let mut route_span = span!("route", slices = design.num_slices());
                route_span.attr("seed", overrides.route.seed);
                let routed = route_design_budgeted(
                    design,
                    packing,
                    nets,
                    &placement,
                    &overrides.channels,
                    &self.timing,
                    &self.arch,
                    overrides.route,
                    &self.defects,
                    token,
                )?;
                let (routed, degradation) = routed.into_parts();
                if let Some(d) = degradation {
                    route_span.attr("degraded", 1u64);
                    degradations.push(d);
                }
                // The router's `bitmap_ms` holds the `bitmap` span's
                // whole microseconds, so this recovers them exactly.
                let bitmap_us = (routed.bitmap_ms * 1e3).round() as u64;
                times.set("bitmap", bitmap_us);
                times.set("route", route_span.finish() - bitmap_us);
                routed
            };
            if self.explain {
                let explain_span = span!("explain", top_k = self.explain_top_k as u64);
                explain = Some(crate::explain::ExplainReport::build(
                    net.name(),
                    design,
                    packing,
                    nets,
                    &placement,
                    &routed,
                    &overrides.channels,
                    &self.timing,
                    &self.arch,
                    self.explain_top_k,
                ));
                times.set("explain", explain_span.finish());
            }
            let bitstream = self
                .emit_bitstream
                .then(|| nanomap_arch::pack_bitstream(&routed.bitmap, self.arch.lut_inputs));
            Some(PhysicalReport {
                num_smbs: packing.num_smbs,
                grid: (placement.grid.width, placement.grid.height),
                placement_cost: placement.cost,
                peak_utilization: placement.routability.peak_utilization,
                routed_delay_ns: routed.timing.circuit_delay,
                usage: routed.usage.into(),
                bitmap_bits: routed.bitmap.total_bits(&self.arch),
                bitstream,
            })
        } else {
            None
        };
        // Power estimate: average LUT work per cycle, configuration bits
        // re-read per cycle (zero without folding), leakage from the LE
        // footprint.
        let num_slices = planes.num_planes() as f64 * f64::from(config.stages);
        let (luts_per_cycle, bits_per_cycle, cycle_ns) = match config.level {
            None => (
                net.num_luts() as f64 / planes.num_planes() as f64,
                0.0,
                self.timing.plane_cycle_no_folding(planes.depth_max()),
            ),
            Some(p) => (
                net.num_luts() as f64 / num_slices,
                f64::from(eval.les) * nanomap_arch::bits_per_le(&self.arch) as f64,
                self.timing.folding_cycle(p),
            ),
        };
        let power = estimate_power(
            &PowerModel::nature_100nm(),
            luts_per_cycle,
            bits_per_cycle,
            eval.les,
            cycle_ns,
        );
        let area_um2 = self.area.design_area(&self.arch, eval.les);
        Ok(MappingReport {
            circuit: net.name().to_string(),
            num_planes: planes.num_planes() as u32,
            depth_max: planes.depth_max(),
            num_luts: net.num_luts() as u32,
            num_ffs: net.num_ffs() as u32,
            folding_level: config.level,
            stages: config.stages,
            sharing: config.sharing.into(),
            nram_sets_used: config.nram_sets(planes.num_planes() as u32),
            num_les: eval.les,
            delay_ns: eval.delay_ns,
            area_um2,
            power,
            physical,
            explain,
            recovery: RecoveryLog::default(),
            degraded: false,
            degradations: Vec::new(),
            phase_times: times,
            // One RSS sample at flow end joins the per-phase samples
            // taken at span boundaries; `memory_report()` stays `None`
            // (and the artifact byte-identical) unless the driver
            // enabled tracking.
            memory: {
                if nanomap_observe::memory_tracking() {
                    nanomap_observe::sample_rss_kb();
                }
                nanomap_observe::memory_report()
            },
        })
    }
}

/// Per-candidate logic-mapping result, computed once during selection
/// and shared by every attempt on the candidate.
pub(crate) struct CandidateEval {
    pub(crate) config: FoldingConfig,
    pub(crate) les: u32,
    pub(crate) delay_ns: f64,
    pub(crate) graphs: Vec<ItemGraph>,
    pub(crate) schedules: Vec<Schedule>,
    /// Set when the budget truncated FDS.
    pub(crate) degradation: Option<Degradation>,
    /// Microseconds of the evaluation's `candidate` span (zero for a
    /// restored checkpoint).
    pub(crate) fds_us: u64,
}

/// What every attempt on one candidate shares: its temporal design and,
/// from the first physical attempt on, its packing and inter-SMB nets.
/// None of them depends on the recovery rung, so a walk of the plan
/// builds them once per candidate, every rung and every exact-rung grid
/// sizing reuses them, and the walk drops them when it moves on.
pub(crate) struct Shared<'a> {
    pub(crate) design: TemporalDesign<'a>,
    packed: Option<Packed>,
}

/// A candidate's packing with its inter-SMB nets.
pub(crate) struct Packed {
    pub(crate) packing: Packing,
    pub(crate) nets: SliceNets,
    /// Microseconds of the `pack` span around clustering and net
    /// extraction.
    us: u64,
}

impl<'a> Shared<'a> {
    /// The candidate's temporal design, not yet packed.
    pub(crate) fn new(run: &Run<'a>, eval: &CandidateEval) -> Result<Self, FlowError> {
        let design = TemporalDesign::new(
            run.net,
            run.planes,
            eval.graphs.clone(),
            eval.schedules.clone(),
        )?;
        Ok(Self {
            design,
            packed: None,
        })
    }

    /// The design with its packing and nets, clustered inside one `pack`
    /// span on first use.
    pub(crate) fn packed(
        &mut self,
        flow: &NanoMap,
    ) -> Result<(&TemporalDesign<'a>, &Packed), FlowError> {
        let packed = match self.packed.take() {
            Some(packed) => packed,
            None => {
                let pack_span = span!("pack", slices = self.design.num_slices());
                let packing = pack(&self.design, &flow.arch, flow.pack_options)?;
                let nets = extract_nets(&self.design, &packing);
                Packed {
                    packing,
                    nets,
                    us: pack_span.finish(),
                }
            }
        };
        Ok((&self.design, self.packed.insert(packed)))
    }
}

/// What every attempt of one mapping run shares.
pub(crate) struct Run<'a> {
    pub(crate) net: &'a LutNetwork,
    pub(crate) planes: &'a PlaneSet,
    objective: Objective,
    pub(crate) token: &'a CancelToken,
}

/// What the ladder driver climbs: candidates in preference order, the
/// rung to start on and what an interrupted run left behind.
struct Plan {
    candidates: Vec<CandidateEval>,
    /// Microseconds of the `folding-select` span (zero on resume).
    select_us: u64,
    /// Preference rank of the first candidate.
    first_rank: usize,
    /// The rung the first candidate starts on (a remedy outside
    /// [`LADDER`] starts at the baseline).
    start: Remedy,
    /// A checkpointed placement the first attempt adopts instead of
    /// annealing.
    restored: Option<PlaceSnapshot>,
    recovery: RecoveryLog,
    /// Degradations every attempt inherits (a truncated selection).
    degradations: Vec<Degradation>,
}

/// One physical-design attempt: a candidate under one rung's options.
pub(crate) struct Attempt<'a> {
    pub(crate) rank: usize,
    pub(crate) eval: &'a CandidateEval,
    pub(crate) remedy: Remedy,
    pub(crate) overrides: PhysicalOverrides,
}

impl Attempt<'_> {
    /// Records this attempt's failure in `recovery`.
    pub(crate) fn record_failure(
        &self,
        recovery: &mut RecoveryLog,
        phase: &'static str,
        error: String,
        start: Instant,
    ) {
        recovery.record(RecoveryAttempt {
            attempt: recovery.total_attempts(),
            candidate: self.rank,
            folding_level: self.eval.config.level,
            stages: self.eval.config.stages,
            remedy: self.remedy,
            phase,
            error,
            wall_us: start.elapsed().as_micros() as u64,
        });
    }
}

/// The phase of a failure the next ladder rung may cure (placement or
/// routing); `None` for failures no rung can fix.
pub(crate) fn physical_phase(e: &FlowError) -> Option<&'static str> {
    match e {
        FlowError::Place(_) => Some("place"),
        FlowError::Route(_) => Some("route"),
        _ => None,
    }
}

/// Item graphs of every plane at a configuration's folding level (no
/// folding builds them at the deepest plane's depth).
fn item_graphs(
    net: &LutNetwork,
    planes: &PlaneSet,
    config: FoldingConfig,
) -> Result<Vec<ItemGraph>, FlowError> {
    let level = config.level.unwrap_or_else(|| planes.depth_max().max(1));
    planes
        .planes()
        .iter()
        .map(|plane| Ok(ItemGraph::build(net, plane, level)?))
        .collect()
}

/// Assigns every flip-flop to one plane (the plane it feeds, else the
/// plane that writes it) for per-plane register accounting.
fn ff_owners(planes: &PlaneSet, num_ffs: usize) -> Vec<usize> {
    let mut owner = vec![0usize; num_ffs];
    let mut assigned = vec![false; num_ffs];
    for (idx, plane) in planes.planes().iter().enumerate() {
        for &f in &plane.input_ffs {
            if !assigned[f.index()] {
                owner[f.index()] = idx;
                assigned[f.index()] = true;
            }
        }
    }
    for (idx, plane) in planes.planes().iter().enumerate() {
        for &f in &plane.output_ffs {
            if !assigned[f.index()] {
                owner[f.index()] = idx;
                assigned[f.index()] = true;
            }
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};

    /// The paper's Fig. 1 circuit: controller (LUTs + 2 state bits) +
    /// datapath (3 registers, adder, multiplier) with status feedback.
    fn fig1_circuit() -> RtlCircuit {
        fig1_circuit_w(4)
    }

    fn fig1_circuit_w(w: u32) -> RtlCircuit {
        let mut b = RtlBuilder::new("fig1");
        let x = b.input("x", w);
        // Datapath registers with feedback through muxes.
        let reg1 = b.register("reg1", w);
        let reg2 = b.register("reg2", w);
        let reg3 = b.register("reg3", w);
        let gnd = b.constant("gnd", 1, 0);
        let add = b.comb("add", CombOp::Add { width: w });
        b.connect(reg1, 0, add, 0).unwrap();
        b.connect(reg2, 0, add, 1).unwrap();
        b.connect(gnd, 0, add, 2).unwrap();
        let mul = b.comb("mul", CombOp::Mul { width: w });
        b.connect(add, 0, mul, 0).unwrap();
        b.connect(reg3, 0, mul, 1).unwrap();
        let mul_lo = b.comb(
            "mul_lo",
            CombOp::Slice {
                width: 2 * w,
                lo: 0,
                out_width: w,
            },
        );
        b.connect(mul, 0, mul_lo, 0).unwrap();
        // Controller: two state bits + 4 LUTs.
        let s0 = b.register("s0", 1);
        let s1 = b.register("s1", 1);
        // Status feedback from the datapath into the controller (the
        // carry-out flag), making controller + datapath one plane.
        let flag = b.comb(
            "flag",
            CombOp::Slice {
                width: w,
                lo: w - 1,
                out_width: 1,
            },
        );
        b.connect(reg3, 0, flag, 0).unwrap();
        let lut1 = b.lut("lut1", nanomap_netlist::TruthTable::xor(2));
        b.connect(s0, 0, lut1, 0).unwrap();
        b.connect(s1, 0, lut1, 1).unwrap();
        let lut2 = b.lut("lut2", nanomap_netlist::TruthTable::and(2));
        b.connect(s0, 0, lut2, 0).unwrap();
        b.connect(flag, 0, lut2, 1).unwrap();
        b.connect(lut1, 0, s0, 0).unwrap();
        b.connect(lut2, 0, s1, 0).unwrap();
        // Muxed register updates.
        let mux1 = b.comb("mux1", CombOp::Mux2 { width: w });
        b.connect(x, 0, mux1, 0).unwrap();
        b.connect(mul_lo, 0, mux1, 1).unwrap();
        b.connect(lut1, 0, mux1, 2).unwrap();
        b.connect(mux1, 0, reg1, 0).unwrap();
        let mux2 = b.comb("mux2", CombOp::Mux2 { width: w });
        b.connect(x, 0, mux2, 0).unwrap();
        b.connect(add, 0, mux2, 1).unwrap();
        b.connect(lut2, 0, mux2, 2).unwrap();
        b.connect(mux2, 0, reg2, 0).unwrap();
        let mux3 = b.comb("mux3", CombOp::Mux2 { width: w });
        b.connect(x, 0, mux3, 0).unwrap();
        b.connect(add, 0, mux3, 1).unwrap();
        b.connect(lut1, 0, mux3, 2).unwrap();
        b.connect(mux3, 0, reg3, 0).unwrap();
        let y = b.output("y", w);
        b.connect(reg3, 0, y, 0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn a_lut_wider_than_the_fabric_is_a_typed_error() {
        let wide =
            ".model wide\n.inputs a b c d e\n.outputs y\n.names a b c d e y\n11111 1\n.end\n";
        let net = nanomap_netlist::blif::parse(wide).unwrap();
        let flow = NanoMap::new(ArchParams::paper_unbounded());
        let too_wide = |e: FlowError| {
            assert!(
                matches!(
                    e,
                    FlowError::LutTooWide {
                        widest: 5,
                        lut_inputs: 4
                    }
                ),
                "{e}"
            );
        };
        too_wide(flow.map(&net, Objective::MinAreaDelayProduct).unwrap_err());
        let checkpoint = Checkpoint {
            circuit: "wide".into(),
            netlist_hash: crate::checkpoint::netlist_fingerprint(&net),
            objective: Objective::MinAreaDelayProduct.key(),
            lut_inputs: 4,
            luts_per_le: flow.arch.luts_per_le,
            ffs_per_le: flow.arch.ffs_per_le,
            num_reconf: flow.arch.num_reconf,
            candidate_rank: 0,
            level: None,
            stages: 1,
            sharing: PlaneSharing::Shared,
            remedy: Remedy::Baseline,
            schedules: Vec::new(),
            recovery: RecoveryLog::new(),
            placement: None,
        };
        too_wide(
            flow.map_resume(&net, Objective::MinAreaDelayProduct, &checkpoint)
                .unwrap_err(),
        );
        // A fabric with 5-input LUTs takes it.
        let mut arch = ArchParams::paper_unbounded();
        arch.lut_inputs = 5;
        let report = NanoMap::new(arch)
            .without_physical()
            .map(&net, Objective::MinAreaDelayProduct)
            .unwrap();
        assert_eq!(report.num_luts, 1);
    }

    #[test]
    fn fig1_is_a_single_plane() {
        let circuit = fig1_circuit();
        let net = expand(&circuit, ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        assert_eq!(planes.num_planes(), 1);
    }

    #[test]
    fn at_product_prefers_folding() {
        // Table 1 scale matters: at realistic circuit sizes AT
        // optimization lands on deep folding (level 1 with unbounded k).
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let report = flow
            .map_rtl(&fig1_circuit_w(8), Objective::MinAreaDelayProduct)
            .unwrap();
        assert!(
            report.folding_level.unwrap_or(u32::MAX) <= 2,
            "chose level {:?}",
            report.folding_level
        );
        // Folding must use far fewer LEs than the LUT count.
        assert!(report.num_les < report.num_luts / 3);
    }

    #[test]
    fn delay_min_unconstrained_picks_no_folding() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinDelay { max_les: None })
            .unwrap();
        assert_eq!(report.folding_level, None);
        assert_eq!(
            report.num_les,
            report.num_luts.max(report.num_ffs.div_ceil(2))
        );
    }

    #[test]
    fn delay_min_with_area_constraint_folds_just_enough() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let unconstrained = flow
            .map_rtl(&fig1_circuit(), Objective::MinDelay { max_les: None })
            .unwrap();
        let budget = unconstrained.num_les / 2;
        let constrained = flow
            .map_rtl(
                &fig1_circuit(),
                Objective::MinDelay {
                    max_les: Some(budget),
                },
            )
            .unwrap();
        assert!(constrained.num_les <= budget);
        assert!(constrained.folding_level.is_some());
        assert!(constrained.delay_ns >= unconstrained.delay_ns);
    }

    #[test]
    fn impossible_constraint_errors() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).without_physical();
        let err = flow
            .map_rtl(&fig1_circuit(), Objective::MinDelay { max_les: Some(1) })
            .unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleFolding { .. }));
    }

    #[test]
    fn nram_limit_restricts_folding_level() {
        // k = 4 on a depth-~11 plane: level 1 needs ~11+ sets, so the
        // chosen level must satisfy stages <= 4.
        let arch = ArchParams {
            num_reconf: 4,
            ..ArchParams::paper()
        };
        let flow = NanoMap::new(arch).without_physical();
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        assert!(report.nram_sets_used <= 4 || report.folding_level.is_none());
    }

    #[test]
    fn full_physical_flow_completes() {
        let flow = NanoMap::new(ArchParams::paper_unbounded()).with_verification();
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        let physical = report.physical.expect("physical design ran");
        assert!(physical.num_smbs >= 1);
        assert!(physical.routed_delay_ns > 0.0);
        assert!(physical.bitmap_bits > 0);
    }

    #[test]
    fn clean_fabric_mapping_needs_no_recovery() {
        let flow = NanoMap::new(ArchParams::paper_unbounded());
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        assert!(report.recovery.attempts.is_empty());
        assert_eq!(report.recovery.escalations, 0);
        assert!(!report.recovery.recovered());
        assert_eq!(
            report.recovery.succeeded_with,
            Some(crate::Remedy::Baseline)
        );
    }

    #[test]
    fn moderate_defects_map_via_the_ladder() {
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(nanomap_arch::DefectMap::uniform(0.05, 42));
        let report = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
        // Succeeded — possibly after climbing rungs; whatever happened,
        // the log must be internally consistent.
        assert!(report.recovery.succeeded_with.is_some());
        assert!(report.recovery.total_attempts() <= MAX_TOTAL_ATTEMPTS);
        let physical = report.physical.expect("physical design ran");
        assert!(physical.num_smbs >= 1);
        assert!(physical.routed_delay_ns > 0.0);
    }

    #[test]
    fn dead_fabric_fails_cleanly_with_attempt_history() {
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .with_defects(nanomap_arch::DefectMap::uniform(1.0, 7));
        let err = flow
            .map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap_err();
        let log = err.recovery_log().expect("structured recovery history");
        assert!(!log.attempts.is_empty());
        assert!(log.escalations > 0, "ladder never escalated");
        assert!(log.total_attempts() <= MAX_TOTAL_ATTEMPTS);
        // Every attempt names its phase, remedy and error.
        for a in &log.attempts {
            assert!(a.phase == "place" || a.phase == "route");
            assert!(!a.error.is_empty());
        }
        // Display includes the history summary and the last failure.
        let msg = err.to_string();
        assert!(msg.contains("failed attempt"), "{msg}");
        assert!(msg.contains("last failure"), "{msg}");
    }

    #[test]
    fn verification_runs_clean_on_folded_mapping() {
        let flow = NanoMap::new(ArchParams::paper_unbounded())
            .without_physical()
            .with_verification();
        // Errors out if the folded execution diverges.
        flow.map_rtl(&fig1_circuit(), Objective::MinAreaDelayProduct)
            .unwrap();
    }
}
