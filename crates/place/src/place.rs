//! The two-step temporal placement driver (Section 4.4, steps 9–14).
//!
//! 1. A **fast placement** derives an initial solution with a short
//!    annealing schedule.
//! 2. **Routability analysis** (RISA) and **delay estimation** judge it.
//! 3. If the analysis passes, a **detailed placement** refines the
//!    solution; otherwise the driver retries with a larger grid a few
//!    times and reports failure so the flow can fall back to another
//!    folding level.

use nanomap_arch::{ChannelConfig, DefectMap, Grid, SmbPos, TimingModel};
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::span;
use nanomap_observe::{Anytime, CancelToken, Degradation};
use nanomap_pack::{Packing, SliceNets, TemporalDesign};

use crate::anneal::{anneal, AnnealSchedule};
use crate::cost::{flatten_nets, total_cost, CostWeights};
use crate::delay::{estimate_delay, DelayEstimate};
use crate::error::PlaceError;
use crate::routability::{estimate_routability, RoutabilityReport};

/// Placement options.
#[derive(Debug, Clone, Copy)]
pub struct PlaceOptions {
    /// RNG seed (placement is deterministic given the seed).
    pub seed: u64,
    /// Cost weights (inter-stage term, criticality bonus).
    pub weights: CostWeights,
    /// Fast-step schedule.
    pub fast: AnnealSchedule,
    /// Detailed-step schedule.
    pub detailed: AnnealSchedule,
    /// How many grid enlargements to attempt when routability fails.
    pub max_retries: u32,
    /// Grid slack factor over the minimum SMB count (1.2 = 20 % spare
    /// slots for the placer to breathe).
    pub grid_slack: f64,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            weights: CostWeights::default(),
            fast: AnnealSchedule::fast(),
            detailed: AnnealSchedule::detailed(),
            max_retries: 2,
            grid_slack: 1.2,
        }
    }
}

/// A finished placement.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The grid the design was placed on.
    pub grid: Grid,
    /// Position of every SMB.
    pub pos_of: Vec<SmbPos>,
    /// Final weighted wirelength.
    pub cost: f64,
    /// Routability verdict of the final placement.
    pub routability: RoutabilityReport,
    /// Delay estimate of the final placement.
    pub delay: DelayEstimate,
}

impl Placement {
    /// Rebuilds a full [`Placement`] from just the grid and positions.
    /// Cost, routability and delay are pure recomputations, so
    /// reconstructing a placement the annealer produced yields
    /// bit-identical analysis results. Outside placements reach it only
    /// through [`crate::adopt_assignment`], which validates them first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reconstruct(
        design: &TemporalDesign<'_>,
        packing: &Packing,
        nets: &SliceNets,
        channels: &ChannelConfig,
        timing: &TimingModel,
        weights: CostWeights,
        grid: Grid,
        pos_of: Vec<SmbPos>,
    ) -> Self {
        let flat = flatten_nets(nets, weights);
        let cost = total_cost(&flat, &pos_of);
        let routability = estimate_routability(grid, channels, nets, &pos_of);
        let delay = estimate_delay(design, packing, &pos_of, timing);
        Self {
            grid,
            pos_of,
            cost,
            routability,
            delay,
        }
    }
}

/// Places a packed design on a (possibly defective) fabric.
///
/// Slots that are dead — or whose NRAM cannot store the
/// `design.num_slices()` configuration sets temporal folding needs — are
/// illegal: the initial placement skips them and annealing moves reject
/// them. On a clean fabric ([`DefectMap::none`]) every slot is legal.
///
/// An un-routable outcome is reported in [`Placement::routability`]
/// rather than as an error, so the flow can decide to refold.
///
/// # Errors
///
/// [`PlaceError::GridTooSmall`] for impossible inputs, and
/// [`PlaceError::InsufficientUsableSlots`] when, even on the largest grid
/// the retry policy allows, fewer usable slots remain than SMBs to place.
pub fn place_with_defects(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    nets: &SliceNets,
    channels: &ChannelConfig,
    timing: &TimingModel,
    options: PlaceOptions,
    defects: &DefectMap,
) -> Result<Placement, PlaceError> {
    place_with_defects_budgeted(
        design,
        packing,
        nets,
        channels,
        timing,
        options,
        defects,
        &CancelToken::unlimited(),
    )
    .map(Anytime::into_value)
}

/// Budget-aware [`place_with_defects`]: the fast and detailed annealing
/// steps poll `token` at temperature-step boundaries, and grid-enlarging
/// retries stop once the budget is gone. On expiry the current placement
/// — always a valid permutation — is analyzed and returned as
/// [`Anytime::Degraded`].
///
/// # Errors
///
/// Same as [`place_with_defects`]: impossible inputs stay hard errors
/// regardless of the budget.
#[allow(clippy::too_many_arguments)]
pub fn place_with_defects_budgeted(
    design: &TemporalDesign<'_>,
    packing: &Packing,
    nets: &SliceNets,
    channels: &ChannelConfig,
    timing: &TimingModel,
    options: PlaceOptions,
    defects: &DefectMap,
    token: &CancelToken,
) -> Result<Anytime<Placement>, PlaceError> {
    let n = packing.num_smbs.max(1);
    let required_sets = design.num_slices();
    let flat = flatten_nets(nets, options.weights);
    let mut attempt = 0;
    let mut slack = options.grid_slack;
    loop {
        let slots = ((f64::from(n) * slack).ceil() as u32).max(n);
        let grid = Grid::with_capacity(slots);
        if grid.num_slots() < n {
            return Err(PlaceError::GridTooSmall {
                smbs: n,
                slots: grid.num_slots(),
            });
        }
        // Slot legality under the defect map (all true on a clean fabric).
        let legal: Vec<bool> = (0..grid.num_slots() as usize)
            .map(|i| defects.slot_usable(grid.pos(i), required_sets))
            .collect();
        let usable = legal.iter().filter(|&&ok| ok).count() as u32;
        if usable < n {
            if attempt >= options.max_retries {
                return Err(PlaceError::InsufficientUsableSlots {
                    smbs: n,
                    usable,
                    slots: grid.num_slots(),
                });
            }
            nanomap_observe::incr("place.grid_retries", 1);
            attempt += 1;
            slack *= 1.3;
            continue;
        }
        let seed = options.seed.wrapping_add(u64::from(attempt));
        let mut rng = XorShift64Star::new(seed);
        // Initial placement: row-major over usable slots.
        let mut pos_of: Vec<SmbPos> = legal
            .iter()
            .enumerate()
            .filter(|&(_, &ok)| ok)
            .map(|(i, _)| grid.pos(i))
            .take(n as usize)
            .collect();

        // Step 1: fast placement.
        let fast_degradation = {
            let mut fast_span = span!("anneal", step = "fast", seed = seed, attempt = attempt);
            let (_, degradation) = anneal(
                grid,
                &flat,
                &mut pos_of,
                options.fast,
                &mut rng,
                &legal,
                token,
            )
            .into_parts();
            if degradation.is_some() {
                fast_span.attr("degraded", 1u64);
            }
            degradation
        };
        // Step 2: low-precision analysis.
        let report = estimate_routability(grid, channels, nets, &pos_of);
        if !report.routable && attempt < options.max_retries && !token.expired() {
            nanomap_observe::incr("place.grid_retries", 1);
        }
        // An expired token also stops grid-enlarging retries: the current
        // placement is the best-so-far we can afford.
        if report.routable || attempt >= options.max_retries || token.expired() {
            // Step 3: detailed placement.
            let mut detailed_span =
                span!("anneal", step = "detailed", seed = seed, attempt = attempt);
            let (cost, detailed_degradation) = anneal(
                grid,
                &flat,
                &mut pos_of,
                options.detailed,
                &mut rng,
                &legal,
                token,
            )
            .into_parts();
            if detailed_degradation.is_some() {
                detailed_span.attr("degraded", 1u64);
            }
            drop(detailed_span);
            let routability = estimate_routability(grid, channels, nets, &pos_of);
            let delay = estimate_delay(design, packing, &pos_of, timing);
            let placement = Placement {
                grid,
                pos_of,
                cost,
                routability,
                delay,
            };
            // The earliest interruption names the step; the final cost is
            // always the detailed-step resync value.
            let degradation = match (fast_degradation, detailed_degradation) {
                (Some(d), _) => Some(Degradation {
                    reason: format!("fast annealing: {}", d.reason),
                    qor_estimate: cost,
                    ..d
                }),
                (None, Some(d)) => Some(Degradation {
                    reason: format!("detailed annealing: {}", d.reason),
                    ..d
                }),
                (None, None) => None,
            };
            return Ok(match degradation {
                Some(d) => Anytime::Degraded(placement, d),
                None => Anytime::Complete(placement),
            });
        }
        // Retry with a roomier grid.
        attempt += 1;
        slack *= 1.3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::ArchParams;
    use nanomap_netlist::rtl::{CombOp, RtlBuilder};
    use nanomap_netlist::PlaneSet;
    use nanomap_pack::{extract_nets, pack, PackOptions, TemporalDesign};
    use nanomap_sched::{schedule_fds, FdsOptions, ItemGraph};
    use nanomap_techmap::{expand, ExpandOptions};

    /// The multiplier's clean-fabric placement: grid, slots, cost bits.
    const PIN_GRID: (u16, u16) = (3, 2);
    const PIN_SLOTS: [usize; 4] = [2, 1, 0, 4];
    const PIN_COST: u64 = 0x4026_0000_0000_0000;

    fn placed_multiplier() -> (u32, Placement) {
        let (num_smbs, placed) = place_with(&DefectMap::none());
        (num_smbs, placed.unwrap())
    }

    #[test]
    fn placement_covers_all_smbs_uniquely() {
        let (num_smbs, placement) = placed_multiplier();
        assert_eq!(placement.pos_of.len(), num_smbs as usize);
        let mut slots: Vec<usize> = placement
            .pos_of
            .iter()
            .map(|&p| placement.grid.index(p))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), num_smbs as usize);
    }

    #[test]
    fn small_design_is_routable() {
        let (_, placement) = placed_multiplier();
        assert!(
            placement.routability.routable,
            "utilization {}",
            placement.routability.peak_utilization
        );
    }

    #[test]
    fn delay_estimate_is_positive_and_bounded() {
        let (_, placement) = placed_multiplier();
        assert!(placement.delay.cycle_period > 0.0);
        assert!(placement.delay.circuit_delay >= placement.delay.cycle_period);
        // The combinational path of a level-4 slice must exceed 4 LUT
        // delays but stay well under a microsecond.
        assert!(placement.delay.max_slice_path < 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = placed_multiplier();
        let (_, b) = placed_multiplier();
        assert_eq!(a.pos_of, b.pos_of);
        assert_eq!(a.cost, b.cost);
    }

    /// Everything `placed_multiplier` builds, for the defect-aware tests.
    fn multiplier_inputs() -> (
        nanomap_netlist::LutNetwork,
        nanomap_netlist::PlaneSet,
        Vec<nanomap_sched::ItemGraph>,
        Vec<nanomap_sched::Schedule>,
    ) {
        let mut b = RtlBuilder::new("t");
        let a = b.input("a", 6);
        let c = b.input("b", 6);
        let mul = b.comb("mul", CombOp::Mul { width: 6 });
        b.connect(a, 0, mul, 0).unwrap();
        b.connect(c, 0, mul, 1).unwrap();
        let r = b.register("r", 12);
        b.connect(mul, 0, r, 0).unwrap();
        let y = b.output("y", 12);
        b.connect(r, 0, y, 0).unwrap();
        let net = expand(&b.finish().unwrap(), ExpandOptions::default()).unwrap();
        let planes = PlaneSet::extract(&net).unwrap();
        let plane0 = planes.planes()[0].clone();
        let p = 4;
        let stages = plane0.depth.div_ceil(p);
        let graph = ItemGraph::build(&net, &plane0, p).unwrap();
        let schedule = schedule_fds(&net, &graph, stages, FdsOptions::default()).unwrap();
        (net, planes, vec![graph], vec![schedule])
    }

    /// Places the multiplier on `defects`; also returns the SMB count.
    fn place_with(defects: &DefectMap) -> (u32, Result<Placement, PlaceError>) {
        let (net, planes, graphs, schedules) = multiplier_inputs();
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let nets = extract_nets(&design, &packing);
        let placed = place_with_defects(
            &design,
            &packing,
            &nets,
            &ChannelConfig::nature(),
            &TimingModel::nature_100nm(),
            PlaceOptions::default(),
            defects,
        );
        (packing.num_smbs, placed)
    }

    /// The multiplier's placement on an empty defect map, pinned from
    /// the defect-free placer this one replaced: grid, row-major slot of
    /// every SMB and the cost's bit pattern.
    #[test]
    fn empty_defect_map_matches_defect_free_placement() {
        let (_, placement) = placed_multiplier();
        let grid = placement.grid;
        let slots: Vec<usize> = placement.pos_of.iter().map(|&p| grid.index(p)).collect();
        assert_eq!((grid.width, grid.height), PIN_GRID);
        assert_eq!(slots, PIN_SLOTS);
        assert_eq!(placement.cost.to_bits(), PIN_COST);
    }

    #[test]
    fn placement_avoids_defective_slots() {
        let mut defects = DefectMap::none();
        // Kill the first two row-major slots of any plausible grid.
        defects.kill_slot(SmbPos::new(0, 0));
        defects.kill_slot(SmbPos::new(1, 0));
        let placement = place_with(&defects).1.unwrap();
        for &pos in &placement.pos_of {
            assert!(
                !defects.slot_defective(pos),
                "SMB placed on defective slot {pos:?}"
            );
        }
    }

    #[test]
    fn placement_respects_nram_degradation() {
        let mut defects = DefectMap::none();
        // Kill NRAM set 0 of slot (0,0): unusable for any folded design.
        defects.kill_nram_set(SmbPos::new(0, 0), 0);
        let placement = place_with(&defects).1.unwrap();
        for &pos in &placement.pos_of {
            assert_ne!(pos, SmbPos::new(0, 0), "SMB placed on degraded slot");
        }
    }

    #[test]
    fn zero_budget_placement_is_valid_and_degraded() {
        let (net, planes, graphs, schedules) = multiplier_inputs();
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let nets = extract_nets(&design, &packing);
        let token = CancelToken::with_budget_ms(Some(0));
        let result = place_with_defects_budgeted(
            &design,
            &packing,
            &nets,
            &ChannelConfig::nature(),
            &TimingModel::nature_100nm(),
            PlaceOptions::default(),
            &DefectMap::none(),
            &token,
        )
        .unwrap();
        let Anytime::Degraded(placement, degradation) = result else {
            panic!("zero budget must degrade");
        };
        assert_eq!(degradation.phase, "place");
        // Still a valid permutation with all SMBs placed.
        assert_eq!(placement.pos_of.len(), packing.num_smbs as usize);
        let mut slots: Vec<usize> = placement
            .pos_of
            .iter()
            .map(|&p| placement.grid.index(p))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), packing.num_smbs as usize);
        assert!(placement.delay.cycle_period > 0.0);
    }

    #[test]
    fn reconstruct_matches_fresh_placement() {
        let (net, planes, graphs, schedules) = multiplier_inputs();
        let design = TemporalDesign::new(&net, &planes, graphs, schedules).unwrap();
        let arch = ArchParams::paper();
        let packing = pack(&design, &arch, PackOptions::default()).unwrap();
        let nets = extract_nets(&design, &packing);
        let options = PlaceOptions::default();
        let placement = place_with_defects(
            &design,
            &packing,
            &nets,
            &ChannelConfig::nature(),
            &TimingModel::nature_100nm(),
            options,
            &DefectMap::none(),
        )
        .unwrap();
        let rebuilt = Placement::reconstruct(
            &design,
            &packing,
            &nets,
            &ChannelConfig::nature(),
            &TimingModel::nature_100nm(),
            options.weights,
            placement.grid,
            placement.pos_of.clone(),
        );
        assert_eq!(rebuilt.pos_of, placement.pos_of);
        assert_eq!(rebuilt.cost, placement.cost);
        assert_eq!(
            rebuilt.routability.peak_utilization,
            placement.routability.peak_utilization
        );
        assert_eq!(rebuilt.delay.circuit_delay, placement.delay.circuit_delay);
    }

    #[test]
    fn hopeless_defect_density_reports_insufficient_slots() {
        // Everything is dead.
        let defects = DefectMap::uniform(1.0, 3);
        let err = place_with(&defects).1.unwrap_err();
        assert!(matches!(
            err,
            PlaceError::InsufficientUsableSlots { usable: 0, .. }
        ));
        assert!(err.to_string().contains("defect"));
    }
}
