//! Simulated-annealing engine (VPR-style adaptive schedule).

use nanomap_arch::{Grid, SmbPos};
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::{Anytime, CancelToken, Degradation, Extent};

use crate::cost::{net_hpwl, nets_of_smb, total_cost, FlatNet};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealSchedule {
    /// Moves per temperature = `inner_num * n^(4/3)`.
    pub inner_num: f64,
    /// Stop when the temperature drops below `t_min_factor * cost / nets`.
    pub t_min_factor: f64,
}

impl AnnealSchedule {
    /// The fast low-precision schedule of the two-step placement.
    pub fn fast() -> Self {
        Self {
            inner_num: 0.5,
            t_min_factor: 0.01,
        }
    }

    /// The detailed high-precision schedule.
    pub fn detailed() -> Self {
        Self {
            inner_num: 5.0,
            t_min_factor: 0.001,
        }
    }
}

/// Runs simulated annealing over SMB positions.
///
/// `pos_of` holds one grid position per SMB; unoccupied grid slots are
/// free move targets. `legal` marks which grid slots (row-major index)
/// may host an SMB: moves targeting an illegal slot are rejected
/// outright, so an all-true mask draws no extra random numbers.
///
/// `token` is polled at the top of every temperature step. On expiry the
/// current placement (a valid permutation — moves are atomic swaps) is
/// kept and returned as [`Anytime::Degraded`], with the current cost as
/// the QoR estimate. The value is the final cost.
///
/// # Panics
///
/// Panics if `legal` is shorter than the grid's slot count.
pub fn anneal(
    grid: Grid,
    nets: &[FlatNet],
    pos_of: &mut [SmbPos],
    schedule: AnnealSchedule,
    rng: &mut XorShift64Star,
    legal: &[bool],
    token: &CancelToken,
) -> Anytime<f64> {
    let n = pos_of.len();
    if n <= 1 || nets.is_empty() {
        // Nothing to move: the cost trajectory is a single point.
        let cost = total_cost(nets, pos_of);
        nanomap_observe::series("place.cost").record(0, cost);
        return Anytime::Complete(cost);
    }
    let net_index = nets_of_smb(nets, n as u32);
    // Occupancy map: grid slot -> SMB.
    let mut occupant: Vec<Option<usize>> = vec![None; grid.num_slots() as usize];
    for (smb, &pos) in pos_of.iter().enumerate() {
        occupant[grid.index(pos)] = Some(smb);
    }
    let mut cost = total_cost(nets, pos_of);

    // Initial temperature: 20 × stddev of random-move deltas (VPR).
    let mut deltas = Vec::new();
    for _ in 0..(n * 4).max(32) {
        let (a, slot_b) = random_move(n, grid, rng);
        let delta = move_delta(a, slot_b, grid, nets, &net_index, pos_of, &occupant);
        deltas.push(delta);
        // Trial moves are always applied then reverted implicitly by
        // recomputation — here we just sample without applying.
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
    let mut temperature = 20.0 * var.sqrt().max(1e-6);
    let t_initial = temperature;

    let moves_per_t = (schedule.inner_num * (n as f64).powf(4.0 / 3.0)).ceil() as usize;
    let moves_per_t = moves_per_t.max(8);
    let t_min = schedule.t_min_factor * (cost / nets.len() as f64).max(1e-9);

    // Range limiting (VPR): start with whole-chip moves, shrink with
    // acceptance rate.
    let mut range = u32::from(grid.width.max(grid.height));

    let proposed_ctr = nanomap_observe::counter("place.moves_proposed");
    let accepted_ctr = nanomap_observe::counter("place.moves_accepted");
    let steps_ctr = nanomap_observe::counter("place.temp_steps");
    let delta_hist = nanomap_observe::histogram("place.cost_delta_milli");
    let temp_series = nanomap_observe::series("place.temperature");
    let rate_series = nanomap_observe::series("place.accept_rate");

    let mut step = 0u64;
    let mut degradation = None;
    while temperature > t_min {
        // Poll at the temperature-step boundary only: the placement is a
        // valid permutation here (moves are atomic swaps), and an
        // unlimited token reads no clock.
        if token.expired() {
            degradation = Some(Degradation {
                phase: "place".into(),
                reason: format!(
                    "time budget expired at temperature {temperature:.4} (t_min {t_min:.4})"
                ),
                completed_iterations: step,
                qor_estimate: cost,
            });
            break;
        }
        let mut accepted = 0usize;
        for _ in 0..moves_per_t {
            let (a, slot_b) = random_move_ranged(n, grid, pos_of, range, rng);
            if !legal[slot_b] {
                continue;
            }
            let delta = move_delta(a, slot_b, grid, nets, &net_index, pos_of, &occupant);
            let accept = delta <= 0.0 || rng.next_f64() < (-delta / temperature).exp();
            if accept {
                apply_move(a, slot_b, grid, pos_of, &mut occupant);
                accepted += 1;
                cost += delta;
                delta_hist.record_scaled(delta, 1000.0);
            }
        }
        proposed_ctr.add(moves_per_t as u64);
        accepted_ctr.add(accepted as u64);
        steps_ctr.incr();
        let rate = accepted as f64 / moves_per_t as f64;
        // Convergence trajectory: one sample per temperature step. The
        // cooling schedule is geometric, so log-temperature is the
        // natural progress axis: 1 at t_min, 0 at the start.
        let fraction = if t_initial > t_min && temperature > t_min {
            1.0 - (temperature / t_min).ln() / (t_initial / t_min).ln()
        } else {
            1.0
        };
        nanomap_observe::progress("place.cost", step, cost, Extent::Fraction(fraction));
        temp_series.record(step, temperature);
        rate_series.record(step, rate);
        step += 1;
        // VPR temperature update.
        temperature *= if rate > 0.96 {
            0.5
        } else if rate > 0.8 {
            0.9
        } else if rate > 0.15 {
            0.95
        } else {
            0.8
        };
        // Shrink the move range toward local refinement.
        if rate < 0.44 && range > 1 {
            range -= 1;
        } else if rate > 0.44 {
            range = (range + 1).min(u32::from(grid.width.max(grid.height)));
        }
    }
    // Re-synchronize the cost (guards against fp drift).
    let final_cost = total_cost(nets, pos_of);
    match degradation {
        Some(mut d) => {
            d.qor_estimate = final_cost;
            Anytime::Degraded(final_cost, d)
        }
        None => Anytime::Complete(final_cost),
    }
}

fn random_move(n: usize, grid: Grid, rng: &mut XorShift64Star) -> (usize, usize) {
    let a = rng.index(n);
    let slot_b = rng.index(grid.num_slots() as usize);
    (a, slot_b)
}

fn random_move_ranged(
    n: usize,
    grid: Grid,
    pos_of: &[SmbPos],
    range: u32,
    rng: &mut XorShift64Star,
) -> (usize, usize) {
    let a = rng.index(n);
    let pos = pos_of[a];
    let r = i64::from(range);
    let dx = rng.range_i64(-r, r) as i32;
    let dy = rng.range_i64(-r, r) as i32;
    let x = (i32::from(pos.x) + dx).clamp(0, i32::from(grid.width) - 1) as u16;
    let y = (i32::from(pos.y) + dy).clamp(0, i32::from(grid.height) - 1) as u16;
    (a, grid.index(SmbPos::new(x, y)))
}

/// Cost change of moving SMB `a` to grid slot `slot_b` (swapping with any
/// occupant).
fn move_delta(
    a: usize,
    slot_b: usize,
    grid: Grid,
    nets: &[FlatNet],
    net_index: &[Vec<usize>],
    pos_of: &mut [SmbPos],
    occupant: &[Option<usize>],
) -> f64 {
    let pos_a = pos_of[a];
    let pos_b = grid.pos(slot_b);
    if pos_a == pos_b {
        return 0.0;
    }
    let b = occupant[slot_b];
    // Affected nets: those touching a (and b if swap). Nets touching both
    // must be counted once, so skip b's nets that also touch a.
    let before_after = |pos_of: &[SmbPos]| -> f64 {
        let mut total = 0.0;
        for &i in &net_index[a] {
            total += nets[i].weight * net_hpwl(&nets[i], pos_of);
        }
        if let Some(b) = b {
            for &i in &net_index[b] {
                if !net_index[a].contains(&i) {
                    total += nets[i].weight * net_hpwl(&nets[i], pos_of);
                }
            }
        }
        total
    };
    let before = before_after(pos_of);
    // Tentatively apply in place, evaluate, then revert — the annealer's
    // hot loop must not allocate.
    pos_of[a] = pos_b;
    if let Some(b) = b {
        pos_of[b] = pos_a;
    }
    let after = before_after(pos_of);
    pos_of[a] = pos_a;
    if let Some(b) = b {
        pos_of[b] = pos_b;
    }
    after - before
}

fn apply_move(
    a: usize,
    slot_b: usize,
    grid: Grid,
    pos_of: &mut [SmbPos],
    occupant: &mut [Option<usize>],
) {
    let pos_a = pos_of[a];
    let slot_a = grid.index(pos_a);
    let pos_b = grid.pos(slot_b);
    let b = occupant[slot_b];
    pos_of[a] = pos_b;
    occupant[slot_b] = Some(a);
    occupant[slot_a] = b;
    if let Some(b) = b {
        pos_of[b] = pos_a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Final slots, cost bits and next RNG draw of the 12-SMB chain pin.
    const PIN_CHAIN_SLOTS: [usize; 12] = [14, 15, 11, 10, 6, 7, 3, 2, 1, 0, 4, 8];
    const PIN_CHAIN_COST: u64 = 0x4026_0000_0000_0000;
    const PIN_CHAIN_NEXT: u64 = 11_144_120_589_186_691_258;
    /// The same for the 6-SMB ring pin.
    const PIN_RING_SLOTS: [usize; 6] = [1, 2, 5, 4, 7, 6];
    const PIN_RING_COST: u64 = 0x4014_0000_0000_0000;
    const PIN_RING_NEXT: u64 = 2_518_459_261_002_464_410;

    /// Anneals on a clean fabric (every slot legal) with no budget.
    fn anneal_clean(
        grid: Grid,
        nets: &[FlatNet],
        pos: &mut [SmbPos],
        schedule: AnnealSchedule,
        seed: u64,
    ) -> f64 {
        let legal = vec![true; grid.num_slots() as usize];
        let mut rng = XorShift64Star::new(seed);
        let result = anneal(
            grid,
            nets,
            pos,
            schedule,
            &mut rng,
            &legal,
            &CancelToken::unlimited(),
        );
        assert!(!result.is_degraded(), "an unlimited token never degrades");
        result.into_value()
    }

    fn ring(n: u32) -> Vec<FlatNet> {
        (0..n - 1)
            .map(|i| FlatNet {
                pins: vec![i, (i + 1) % n],
                weight: 1.0,
            })
            .collect()
    }

    fn chain(n: u32) -> Vec<FlatNet> {
        (0..n - 1)
            .map(|i| FlatNet {
                pins: vec![i, i + 1],
                weight: 1.0,
            })
            .collect()
    }

    fn slots(grid: Grid, pos: &[SmbPos]) -> Vec<usize> {
        pos.iter().map(|&p| grid.index(p)).collect()
    }

    /// A chain of SMBs placed adversarially must improve markedly.
    #[test]
    fn annealing_improves_chain_placement() {
        let grid = Grid::new(4, 4);
        let nets = chain(16);
        // Adversarial initial placement: a scrambled permutation.
        let mut pos: Vec<SmbPos> = (0..16).map(|i| grid.pos((i * 7) % 16)).collect();
        let mut sorted = slots(grid, &pos);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);

        let initial = total_cost(&nets, &pos);
        let final_cost = anneal_clean(grid, &nets, &mut pos, AnnealSchedule::detailed(), 1);
        assert!(final_cost < initial, "{final_cost} !< {initial}");
        // Optimal chain cost is 15; accept anything close.
        assert!(final_cost <= initial * 0.8);
    }

    #[test]
    fn placement_remains_a_permutation() {
        let grid = Grid::new(3, 3);
        let nets = vec![FlatNet {
            pins: vec![0, 4],
            weight: 1.0,
        }];
        let mut pos: Vec<SmbPos> = (0..5).map(|i| grid.pos(i)).collect();
        anneal_clean(grid, &nets, &mut pos, AnnealSchedule::fast(), 7);
        let mut sorted = slots(grid, &pos);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "two SMBs share a slot");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let grid = Grid::new(3, 3);
        let nets = ring(6);
        let run = || {
            let mut pos: Vec<SmbPos> = (0..6).map(|i| grid.pos(i)).collect();
            anneal_clean(grid, &nets, &mut pos, AnnealSchedule::fast(), 99);
            pos
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn legality_mask_confines_moves() {
        let grid = Grid::new(4, 4);
        // Only the left two columns are legal.
        let legal: Vec<bool> = (0..16).map(|i| i % 4 < 2).collect();
        let nets = chain(8);
        let mut pos: Vec<SmbPos> = (0..16).filter(|&i| legal[i]).map(|i| grid.pos(i)).collect();
        let mut rng = XorShift64Star::new(5);
        anneal(
            grid,
            &nets,
            &mut pos,
            AnnealSchedule::detailed(),
            &mut rng,
            &legal,
            &CancelToken::unlimited(),
        );
        for &p in &pos {
            assert!(legal[grid.index(p)], "SMB escaped to illegal slot {p:?}");
        }
    }

    /// Fixed-seed trajectory of a 12-SMB chain on a 16-slot grid,
    /// recorded from the maskless annealer this one replaced: an
    /// all-legal mask must reproduce its final slots, its cost bit for
    /// bit and the RNG state it leaves behind.
    #[test]
    fn no_mask_is_identical_to_plain_anneal() {
        let grid = Grid::new(4, 4);
        let nets = chain(12);
        let mut pos: Vec<SmbPos> = (0..12).map(|i| grid.pos((i * 7) % 16)).collect();
        let legal = vec![true; 16];
        let mut rng = XorShift64Star::new(3);
        let cost = anneal(
            grid,
            &nets,
            &mut pos,
            AnnealSchedule::detailed(),
            &mut rng,
            &legal,
            &CancelToken::unlimited(),
        )
        .into_value();
        assert_eq!(slots(grid, &pos), PIN_CHAIN_SLOTS);
        assert_eq!(cost.to_bits(), PIN_CHAIN_COST);
        assert_eq!(rng.next_u64(), PIN_CHAIN_NEXT);
    }

    #[test]
    fn zero_budget_keeps_initial_placement() {
        let grid = Grid::new(4, 4);
        let nets = chain(16);
        let mut pos: Vec<SmbPos> = (0..16).map(|i| grid.pos((i * 7) % 16)).collect();
        let before = pos.clone();
        let initial = total_cost(&nets, &pos);
        let mut rng = XorShift64Star::new(1);
        let token = CancelToken::with_budget_ms(Some(0));
        let result = anneal(
            grid,
            &nets,
            &mut pos,
            AnnealSchedule::detailed(),
            &mut rng,
            &[true; 16],
            &token,
        );
        // The poll fires before the first temperature step, so the
        // placement is untouched and still a permutation.
        assert_eq!(pos, before);
        let Anytime::Degraded(cost, d) = result else {
            panic!("zero budget must degrade");
        };
        assert_eq!(cost, initial);
        assert_eq!(d.phase, "place");
        assert_eq!(d.completed_iterations, 0);
        assert_eq!(d.qor_estimate, initial);
    }

    /// Fixed-seed trajectory of a 6-SMB ring, recorded from the token-free
    /// annealer this one replaced: an unlimited token must complete with
    /// the same slots, cost bits and RNG state.
    #[test]
    fn unlimited_token_identical_to_plain_anneal() {
        let grid = Grid::new(3, 3);
        let nets = ring(6);
        let mut pos: Vec<SmbPos> = (0..6).map(|i| grid.pos(i)).collect();
        let mut rng = XorShift64Star::new(42);
        let result = anneal(
            grid,
            &nets,
            &mut pos,
            AnnealSchedule::fast(),
            &mut rng,
            &[true; 9],
            &CancelToken::unlimited(),
        );
        let Anytime::Complete(cost) = result else {
            panic!("unlimited token must complete");
        };
        assert_eq!(slots(grid, &pos), PIN_RING_SLOTS);
        assert_eq!(cost.to_bits(), PIN_RING_COST);
        assert_eq!(rng.next_u64(), PIN_RING_NEXT);
    }

    #[test]
    fn empty_nets_are_noop() {
        let grid = Grid::new(2, 2);
        let mut pos = vec![SmbPos::new(0, 0), SmbPos::new(1, 0)];
        let before = pos.clone();
        let cost = anneal_clean(grid, &[], &mut pos, AnnealSchedule::fast(), 0);
        assert_eq!(cost, 0.0);
        assert_eq!(pos, before);
    }
}
