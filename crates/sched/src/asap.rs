//! ASAP/ALAP scheduling and time frames (Section 4.2.1, Fig. 3).

use crate::error::SchedError;
use crate::item::ItemGraph;

/// The feasible folding-cycle interval of every item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeFrames {
    /// Earliest feasible cycle per item (0-based).
    pub asap: Vec<u32>,
    /// Latest feasible cycle per item (0-based).
    pub alap: Vec<u32>,
    /// Number of folding cycles.
    pub stages: u32,
}

impl TimeFrames {
    /// Computes ASAP and ALAP schedules over `stages` folding cycles,
    /// honouring pinned items (already-scheduled FDS decisions).
    ///
    /// `pinned[i] = Some(c)` forces item `i` to cycle `c`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Infeasible`] if a chain cannot fit (or a pin
    /// contradicts the precedence constraints, or a non-empty graph gets
    /// zero stages), and [`SchedError::PinCount`] if `pinned` does not
    /// hold one slot per item.
    pub fn compute(
        graph: &ItemGraph,
        stages: u32,
        pinned: &[Option<u32>],
    ) -> Result<Self, SchedError> {
        Self::with_order(graph, &topo_order(graph)?, stages, pinned)
    }

    /// [`Self::compute`] over a precomputed topological order.
    pub(crate) fn with_order(
        graph: &ItemGraph,
        order: &[usize],
        stages: u32,
        pinned: &[Option<u32>],
    ) -> Result<Self, SchedError> {
        let n = graph.len();
        let mut frames = Self {
            asap: vec![0; n],
            alap: vec![0; n],
            stages,
        };
        frames.update(graph, order, pinned)?;
        Ok(frames)
    }

    /// Recomputes every frame in place after the pins changed, reusing
    /// the buffers. `order` is a topological order of `graph`.
    ///
    /// # Errors
    ///
    /// As [`Self::compute`], plus [`SchedError::PinCount`] when `pinned`
    /// has no slot per item; the frames are then unspecified.
    pub(crate) fn update(
        &mut self,
        graph: &ItemGraph,
        order: &[usize],
        pinned: &[Option<u32>],
    ) -> Result<(), SchedError> {
        let n = graph.len();
        if pinned.len() != n {
            return Err(SchedError::PinCount {
                items: n,
                pins: pinned.len(),
            });
        }
        let stages = self.stages;
        let infeasible = |required: u32| SchedError::Infeasible { stages, required };
        if stages == 0 && n > 0 {
            return Err(infeasible(1));
        }
        let Self { asap, alap, .. } = self;

        // ASAP: longest path from sources. A chain longer than `u32`
        // cycles needs more stages than any request can hold.
        for &i in order {
            let mut earliest = 0;
            for &(p, lat) in &graph.preds[i] {
                let after = asap[p].checked_add(lat).ok_or(infeasible(u32::MAX))?;
                earliest = earliest.max(after);
            }
            if let Some(pin) = pinned[i] {
                if pin < earliest {
                    return Err(infeasible(earliest.saturating_add(1)));
                }
                earliest = pin;
            }
            asap[i] = earliest;
        }
        // ALAP: longest path to sinks, anchored at stages - 1.
        for &i in order.iter().rev() {
            let mut latest = stages.saturating_sub(1);
            for &(s, lat) in &graph.succs[i] {
                latest = latest.min(alap[s].saturating_sub(lat));
                if alap[s] < lat {
                    return Err(infeasible(asap[i].saturating_add(lat).saturating_add(1)));
                }
            }
            if let Some(pin) = pinned[i] {
                if pin > latest {
                    return Err(infeasible(asap[i].max(pin).saturating_add(1)));
                }
                latest = pin;
            }
            alap[i] = latest;
        }
        for i in 0..n {
            if asap[i] > alap[i] {
                return Err(infeasible(asap[i].saturating_add(1)));
            }
        }
        Ok(())
    }

    /// Propagates the pin of `item`, which `pinned` now holds and which
    /// was unpinned when the frames were last computed: ASAP rises
    /// through the item's successor cone and ALAP falls through its
    /// predecessor cone, each with a worklist on `stack`, and every item
    /// whose frame changed is inserted into `moved`. Frames are integers
    /// and only tighten, so the fixpoint equals [`Self::update`] over the
    /// same pins, at a cost proportional to the cones.
    ///
    /// # Errors
    ///
    /// When the pin contradicts the constraints, the error
    /// [`Self::update`] reports: that pass names the first offending item
    /// in topological order, which the worklist does not know. The frames
    /// are then unspecified.
    pub(crate) fn pin(
        &mut self,
        graph: &ItemGraph,
        order: &[usize],
        pinned: &[Option<u32>],
        item: usize,
        moved: &mut Marks,
        stack: &mut Vec<usize>,
    ) -> Result<(), SchedError> {
        let Some(&Some(cycle)) = pinned.get(item) else {
            return Ok(());
        };
        if self
            .propagate(graph, pinned, item, cycle, moved, stack)
            .is_some()
        {
            return Ok(());
        }
        let stages = self.stages;
        Err(self
            .update(graph, order, pinned)
            .err()
            .unwrap_or(SchedError::Infeasible {
                stages,
                required: u32::MAX,
            }))
    }

    /// The worklists of [`Self::pin`]; `None` on a contradiction, with
    /// every sum and difference checked.
    fn propagate(
        &mut self,
        graph: &ItemGraph,
        pinned: &[Option<u32>],
        item: usize,
        cycle: u32,
        moved: &mut Marks,
        stack: &mut Vec<usize>,
    ) -> Option<()> {
        let (a, b) = self.frame(item);
        if cycle < a || cycle > b {
            return None;
        }
        if (a, b) != (cycle, cycle) {
            moved.insert(item);
        }
        self.asap[item] = cycle;
        self.alap[item] = cycle;
        // A risen ASAP must stay within the (old, hence no smaller) ALAP.
        stack.clear();
        stack.push(item);
        while let Some(u) = stack.pop() {
            for &(s, lat) in &graph.succs[u] {
                let earliest = self.asap[u].checked_add(lat)?;
                if earliest > self.asap[s] {
                    if pinned[s].is_some() || earliest > self.alap[s] {
                        return None;
                    }
                    self.asap[s] = earliest;
                    moved.insert(s);
                    stack.push(s);
                }
            }
        }
        // A fallen ALAP must stay within the final ASAP.
        stack.push(item);
        while let Some(u) = stack.pop() {
            for &(p, lat) in &graph.preds[u] {
                let latest = self.alap[u].checked_sub(lat)?;
                if latest < self.alap[p] {
                    if pinned[p].is_some() || latest < self.asap[p] {
                        return None;
                    }
                    self.alap[p] = latest;
                    moved.insert(p);
                    stack.push(p);
                }
            }
        }
        Some(())
    }

    /// The time frame `[asap, alap]` of an item.
    pub fn frame(&self, item: usize) -> (u32, u32) {
        (self.asap[item], self.alap[item])
    }

    /// `|time_frame_i|` of Eq. (5).
    pub fn frame_len(&self, item: usize) -> u32 {
        self.alap[item] - self.asap[item] + 1
    }

    /// Mobility (frame length − 1) of an item.
    pub fn mobility(&self, item: usize) -> u32 {
        self.alap[item] - self.asap[item]
    }
}

/// A set of indices below a fixed bound that lists its members in
/// insertion order and clears in time proportional to its size.
#[derive(Debug)]
pub(crate) struct Marks {
    members: Vec<usize>,
    marked: Vec<bool>,
}

impl Marks {
    /// An empty set over `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            members: Vec::new(),
            marked: vec![false; len],
        }
    }

    /// Adds `i` unless it is a member already.
    pub(crate) fn insert(&mut self, i: usize) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.members.push(i);
        }
    }

    /// Whether `i` is a member.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.marked[i]
    }

    /// The members, in insertion order.
    pub(crate) fn members(&self) -> &[usize] {
        &self.members
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        for &i in &self.members {
            self.marked[i] = false;
        }
        self.members.clear();
    }
}

/// Topological order of the item graph. In-degrees are counted over the
/// same successor lists the walk decrements, so a hand-built graph whose
/// `edges` and `succs` disagree cannot underflow a count.
///
/// # Errors
///
/// Returns an error if the item graph is cyclic (which would indicate a
/// malformed plane).
pub(crate) fn topo_order(graph: &ItemGraph) -> Result<Vec<usize>, SchedError> {
    let n = graph.len();
    let mut indeg = vec![0usize; n];
    for succs in &graph.succs {
        for &(s, _) in succs {
            indeg[s] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &(s, _) in &graph.succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() != n {
        return Err(SchedError::Netlist("cyclic item graph".into()));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{Item, ItemEdge, ItemKind};
    use nanomap_netlist::LutId;
    use nanomap_observe::rng::XorShift64Star;

    /// Hand-built graph mirroring Fig. 3 of the paper: a chain plus a
    /// mobile LUT.
    fn fig3_like() -> ItemGraph {
        // items: 0 = LUT1 (chain head), 1 = LUT2 (mobile), 2 = clus1,
        // 3 = clus2, 4 = clus3 (sink), edges 0->4? Simplified:
        // 0 -> 2 -> 3 -> 4 (chain, latency 1 each), 1 -> 4 (mobile).
        let items: Vec<Item> = (0..5)
            .map(|i| Item {
                kind: ItemKind::Lut(LutId::new(i)),
                luts: vec![LutId::new(i)],
                weight: 1,
                window: 1,
                name: format!("i{i}"),
            })
            .collect();
        let edges = vec![
            ItemEdge {
                from: 0,
                to: 2,
                latency: 1,
            },
            ItemEdge {
                from: 2,
                to: 3,
                latency: 1,
            },
            ItemEdge {
                from: 3,
                to: 4,
                latency: 1,
            },
            ItemEdge {
                from: 1,
                to: 4,
                latency: 1,
            },
        ];
        let mut succs = vec![Vec::new(); 5];
        let mut preds = vec![Vec::new(); 5];
        for e in &edges {
            succs[e.from].push((e.to, e.latency));
            preds[e.to].push((e.from, e.latency));
        }
        ItemGraph {
            items,
            edges,
            succs,
            preds,
            item_of_lut: Default::default(),
            folding_level: 1,
        }
    }

    #[test]
    fn frames_match_hand_computation() {
        let g = fig3_like();
        let tf = TimeFrames::compute(&g, 4, &[None; 5]).unwrap();
        // Chain 0->2->3->4 is critical: frames are singletons.
        assert_eq!(tf.frame(0), (0, 0));
        assert_eq!(tf.frame(2), (1, 1));
        assert_eq!(tf.frame(3), (2, 2));
        assert_eq!(tf.frame(4), (3, 3));
        // Item 1 only needs to precede item 4: frame [0, 2].
        assert_eq!(tf.frame(1), (0, 2));
        assert_eq!(tf.frame_len(1), 3);
        assert_eq!(tf.mobility(1), 2);
    }

    #[test]
    fn infeasible_when_chain_longer_than_stages() {
        let g = fig3_like();
        let err = TimeFrames::compute(&g, 3, &[None; 5]).unwrap_err();
        assert!(matches!(err, SchedError::Infeasible { .. }));
    }

    #[test]
    fn pinning_restricts_frames() {
        let g = fig3_like();
        let mut pins = vec![None; 5];
        pins[1] = Some(2);
        let tf = TimeFrames::compute(&g, 4, &pins).unwrap();
        assert_eq!(tf.frame(1), (2, 2));
        // Other frames unchanged.
        assert_eq!(tf.frame(0), (0, 0));
    }

    #[test]
    fn contradictory_pin_is_infeasible() {
        let g = fig3_like();
        let mut pins = vec![None; 5];
        pins[4] = Some(1); // chain needs cycle 3
        assert!(TimeFrames::compute(&g, 4, &pins).is_err());
    }

    /// `topo_order` walks `succs`, so it must count in-degrees there too:
    /// a successor missing from `edges` used to underflow its count.
    #[test]
    fn topo_order_counts_in_degrees_over_succs() {
        let items: Vec<Item> = (0..2)
            .map(|i| Item {
                kind: ItemKind::Lut(LutId::new(i)),
                luts: vec![LutId::new(i)],
                weight: 1,
                window: 1,
                name: format!("i{i}"),
            })
            .collect();
        let g = ItemGraph {
            items,
            edges: Vec::new(),
            succs: vec![vec![(1, 1)], Vec::new()],
            preds: vec![Vec::new(), vec![(0, 1)]],
            item_of_lut: Default::default(),
            folding_level: 1,
        };
        assert_eq!(topo_order(&g), Ok(vec![0, 1]));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let g = fig3_like();
        assert_eq!(
            TimeFrames::compute(&g, 4, &[None; 3]),
            Err(SchedError::PinCount { items: 5, pins: 3 })
        );
        assert_eq!(
            TimeFrames::compute(&g, 0, &[None; 5]),
            Err(SchedError::Infeasible {
                stages: 0,
                required: 1
            })
        );
    }

    /// Latencies near `u32::MAX` end in a typed error, never an overflow,
    /// in both the full recompute and the cone update.
    #[test]
    fn huge_latencies_are_infeasible_not_overflows() {
        let chain = |latency: u32| {
            let mut g = fig3_like();
            for e in &mut g.edges {
                e.latency = latency;
            }
            for adjacency in g.succs.iter_mut().chain(g.preds.iter_mut()) {
                for (_, lat) in adjacency {
                    *lat = latency;
                }
            }
            g
        };
        assert_eq!(
            TimeFrames::compute(&chain(u32::MAX), 4, &[None; 5]),
            Err(SchedError::Infeasible {
                stages: 4,
                required: u32::MAX
            })
        );
        // One hop of u32::MAX - 1 fits u32::MAX stages; pinning the chain
        // head later pushes its successor past the last cycle.
        let mut g = chain(u32::MAX - 1);
        g.edges.truncate(1);
        g.succs = vec![vec![(2, u32::MAX - 1)], vec![], vec![], vec![], vec![]];
        g.preds = vec![vec![], vec![], vec![(0, u32::MAX - 1)], vec![], vec![]];
        let order = topo_order(&g).unwrap();
        let mut pins = vec![None; 5];
        let mut frames = TimeFrames::compute(&g, u32::MAX, &pins).unwrap();
        assert_eq!(frames.frame(2), (u32::MAX - 1, u32::MAX - 1));
        pins[0] = Some(5);
        let expected = TimeFrames::compute(&g, u32::MAX, &pins).unwrap_err();
        assert_eq!(
            expected,
            SchedError::Infeasible {
                stages: u32::MAX,
                required: u32::MAX
            }
        );
        let mut moved = Marks::new(5);
        let got = frames.pin(&g, &order, &pins, 0, &mut moved, &mut Vec::new());
        assert_eq!(got, Err(expected));
    }

    /// Random valid pin sequences on seeded random item graphs with
    /// latency-0 and latency-1 edges: after every pin the cone-updated
    /// frames equal a from-scratch [`TimeFrames::compute`], and the moved
    /// set is exactly the items whose frame changed.
    #[test]
    fn cone_update_matches_compute_on_random_graphs() {
        let mut rng = XorShift64Star::new(0xC0DE_F4A3);
        for case in 0..200 {
            let stages = 1 + rng.below(12) as u32;
            let (_, g) = crate::fds::tests::random_case(&mut rng, stages);
            let n = g.len();
            let order = topo_order(&g).unwrap();
            let mut pins = vec![None; n];
            let mut frames = TimeFrames::compute(&g, stages, &pins).unwrap();
            let mut moved = Marks::new(n);
            let mut stack = Vec::new();
            let mut unpinned: Vec<usize> = (0..n).collect();
            while !unpinned.is_empty() {
                let item = unpinned.swap_remove(rng.below(unpinned.len() as u64) as usize);
                let (a, b) = frames.frame(item);
                pins[item] = Some(a + rng.below(u64::from(b - a + 1)) as u32);
                let before = frames.clone();
                moved.clear();
                frames
                    .pin(&g, &order, &pins, item, &mut moved, &mut stack)
                    .unwrap();
                assert_eq!(
                    frames,
                    TimeFrames::compute(&g, stages, &pins).unwrap(),
                    "case {case}: frames after pinning item {item}"
                );
                let changed: Vec<usize> = (0..n)
                    .filter(|&i| frames.frame(i) != before.frame(i))
                    .collect();
                let mut listed = moved.members().to_vec();
                listed.sort_unstable();
                assert_eq!(listed, changed, "case {case}: moved items");
            }
        }
    }

    /// A pin outside the item's frame, below or above it, after random
    /// valid pins: the cone update fails with the error of the full
    /// recompute.
    #[test]
    fn cone_update_reports_the_full_recompute_error() {
        let mut rng = XorShift64Star::new(0xBAD_F4A3);
        for case in 0..200 {
            let stages = 1 + rng.below(12) as u32;
            let (_, g) = crate::fds::tests::random_case(&mut rng, stages);
            let n = g.len();
            let order = topo_order(&g).unwrap();
            let mut pins = vec![None; n];
            let mut frames = TimeFrames::compute(&g, stages, &pins).unwrap();
            let mut moved = Marks::new(n);
            let mut stack = Vec::new();
            let valid = rng.below(n as u64) as usize;
            for item in 0..valid {
                let (a, b) = frames.frame(item);
                pins[item] = Some(a + rng.below(u64::from(b - a + 1)) as u32);
                frames
                    .pin(&g, &order, &pins, item, &mut moved, &mut stack)
                    .unwrap();
            }
            let item = valid;
            let (a, b) = frames.frame(item);
            let outside = rng.below(u64::from(a + stages - b)) as u32;
            pins[item] = Some(if outside < a {
                outside
            } else {
                b + 1 + outside - a
            });
            let expected = TimeFrames::compute(&g, stages, &pins).unwrap_err();
            let got = frames.pin(&g, &order, &pins, item, &mut moved, &mut stack);
            assert_eq!(got, Err(expected), "case {case}: pin {:?}", pins[item]);
        }
    }

    #[test]
    fn zero_latency_edges_allow_same_cycle() {
        let mut g = fig3_like();
        for e in &mut g.edges {
            e.latency = 0;
        }
        g.succs = vec![Vec::new(); 5];
        g.preds = vec![Vec::new(); 5];
        let edges = g.edges.clone();
        for e in &edges {
            g.succs[e.from].push((e.to, e.latency));
            g.preds[e.to].push((e.from, e.latency));
        }
        let tf = TimeFrames::compute(&g, 1, &[None; 5]).unwrap();
        for i in 0..5 {
            assert_eq!(tf.frame(i), (0, 0));
        }
    }
}
