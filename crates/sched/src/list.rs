//! Baseline schedulers for the FDS ablation study.
//!
//! NanoMap's contribution is balancing resource usage with FDS; these
//! cheaper schedulers provide the comparison points: plain ASAP (no
//! balancing) and a greedy load-balancing list scheduler.

use crate::asap::TimeFrames;
use crate::error::SchedError;
use crate::item::ItemGraph;
use crate::schedule::Schedule;

/// Schedules every item at its ASAP cycle.
///
/// # Errors
///
/// Returns [`SchedError::Infeasible`] if the chains do not fit.
pub fn schedule_asap(graph: &ItemGraph, stages: u32) -> Result<Schedule, SchedError> {
    let frames = TimeFrames::compute(graph, stages, &vec![None; graph.len()])?;
    Ok(Schedule::new(frames.asap, stages))
}

/// Greedy list scheduling: items in topological order, each assigned to
/// the feasible cycle with the lowest accumulated LUT load.
///
/// # Errors
///
/// Returns [`SchedError::Infeasible`] if the chains do not fit.
pub fn schedule_list(graph: &ItemGraph, stages: u32) -> Result<Schedule, SchedError> {
    let frames = TimeFrames::compute(graph, stages, &vec![None; graph.len()])?;
    let order = crate::asap::topo_order(graph)?;
    let mut stage_of = vec![0u32; graph.len()];
    let mut load = vec![0u64; stages as usize];
    for &i in &order {
        // Earliest cycle honouring already-assigned predecessors.
        let earliest = graph.preds[i]
            .iter()
            .map(|&(p, lat)| stage_of[p] + lat)
            .max()
            .unwrap_or(0)
            .max(frames.asap[i]);
        let latest = frames.alap[i];
        let Some(best) = (earliest..=latest).min_by_key(|&j| (load[j as usize], j)) else {
            return Err(SchedError::Infeasible {
                stages,
                required: earliest.saturating_add(1),
            });
        };
        stage_of[i] = best;
        load[best as usize] += u64::from(graph.items[i].weight);
    }
    Ok(Schedule::new(stage_of, stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::LutId;

    fn free_items(weights: &[u32]) -> ItemGraph {
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
    fn asap_front_loads() {
        let g = free_items(&[1, 1, 1, 1]);
        let s = schedule_asap(&g, 2).unwrap();
        assert_eq!(s.lut_counts(&g), vec![4, 0]);
    }

    #[test]
    fn list_balances_load() {
        let g = free_items(&[1, 1, 1, 1]);
        let s = schedule_list(&g, 2).unwrap();
        assert_eq!(s.lut_counts(&g), vec![2, 2]);
    }

    #[test]
    fn list_respects_precedence() {
        let mut g = free_items(&[1, 1]);
        g.edges = vec![ItemEdge {
            from: 0,
            to: 1,
            latency: 1,
        }];
        g.succs = vec![vec![(1, 1)], vec![]];
        g.preds = vec![vec![], vec![(0, 1)]];
        let s = schedule_list(&g, 2).unwrap();
        assert!(s.validate(&g));
        assert_eq!(s.stage_of, vec![0, 1]);
    }

    #[test]
    fn both_reject_infeasible() {
        let mut g = free_items(&[1, 1, 1]);
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
        assert!(schedule_asap(&g, 2).is_err());
        assert!(schedule_list(&g, 2).is_err());
    }
}
