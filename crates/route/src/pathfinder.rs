//! PathFinder negotiated-congestion routing.
//!
//! Each folding cycle routes independently (the interconnect is
//! reconfigured every cycle), so the router runs once per temporal slice
//! over the shared routing-resource graph. Within a slice the classic
//! PathFinder loop applies: route every net by Dijkstra over congestion-
//! aware node costs, then raise present/history penalties on overused
//! nodes and rip-up-and-reroute until no node exceeds its capacity.
//!
//! The NATURE hierarchy (direct → length-1 → length-4 → global) is
//! honoured through the tiers' base costs: cheap local resources win
//! unless congestion pushes a net upward.

use std::collections::BinaryHeap;

use nanomap_arch::{RrGraph, RrNodeId, SmbPos};
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::{Anytime, CancelToken, Degradation, Extent};
use nanomap_pack::SliceNet;

use crate::error::{describe_net, RouteError};

/// PathFinder parameters.
#[derive(Debug, Clone, Copy)]
pub struct RouteOptions {
    /// Maximum rip-up-and-reroute iterations per slice.
    pub max_iterations: u32,
    /// Initial present-congestion factor.
    pub pres_fac: f64,
    /// Present-factor multiplier per iteration.
    pub pres_mult: f64,
    /// History-cost increment per overused iteration.
    pub hist_fac: f64,
    /// Route timing-critical nets first, giving them first pick of the
    /// fast tiers.
    pub timing_driven: bool,
    /// Seed for the net-order tiebreak shuffle (routing is deterministic
    /// given the seed).
    pub seed: u64,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            pres_fac: 0.5,
            pres_mult: 1.8,
            hist_fac: 0.4,
            timing_driven: true,
            seed: 0x5EED_0001,
        }
    }
}

/// One routed net: the tree of RR nodes carrying the signal.
#[derive(Debug, Clone)]
pub struct RoutedNet {
    /// Driving SMB.
    pub driver: u32,
    /// Sink SMBs.
    pub sinks: Vec<u32>,
    /// All RR nodes of the routing tree (including source and sinks).
    pub nodes: Vec<RrNodeId>,
    /// Per-sink paths as node sequences from source to that sink.
    pub sink_paths: Vec<Vec<RrNodeId>>,
}

/// Routes the nets of one slice.
///
/// `pos_of` maps SMB index to its placed grid position.
///
/// # Errors
///
/// Returns [`RouteError::Unroutable`] when congestion cannot be resolved,
/// or [`RouteError::Unreachable`] for a disconnected fabric.
pub fn route_slice(
    graph: &RrGraph,
    nets: &[SliceNet],
    pos_of: &[SmbPos],
    options: RouteOptions,
) -> Result<Vec<RoutedNet>, RouteError> {
    route_slice_budgeted(graph, nets, pos_of, options, &CancelToken::unlimited())
        .map(Anytime::into_value)
}

/// Budget-aware [`route_slice`]: polls `token` after each full
/// rip-up-and-reroute iteration, so even a zero budget completes one
/// pass and every net has a routing tree. On expiry the current routes
/// are returned as [`Anytime::Degraded`] — they may overuse nodes; the
/// overused-node count is the QoR estimate. With an unlimited token this
/// is byte-identical to [`route_slice`].
///
/// # Errors
///
/// Same as [`route_slice`]; an expired budget is never reported as
/// [`RouteError::Unroutable`].
pub fn route_slice_budgeted(
    graph: &RrGraph,
    nets: &[SliceNet],
    pos_of: &[SmbPos],
    options: RouteOptions,
    token: &CancelToken,
) -> Result<Anytime<Vec<RoutedNet>>, RouteError> {
    let n = graph.num_nodes();
    let mut history = vec![0.0f64; n];
    let mut occupancy = vec![0u32; n];
    let mut routes: Vec<Option<RoutedNet>> = vec![None; nets.len()];
    let mut pres_fac = options.pres_fac;

    // Net order: a seeded shuffle breaks index ties, then critical nets
    // move to the front when timing-driven (stable sort keeps the shuffled
    // order within each criticality class).
    let mut rng = XorShift64Star::new(options.seed);
    let mut order: Vec<usize> = (0..nets.len()).collect();
    rng.shuffle(&mut order);
    if options.timing_driven {
        order.sort_by_key(|&i| !nets[i].critical);
    }

    let iter_ctr = nanomap_observe::counter("route.iterations");
    let ripup_ctr = nanomap_observe::counter("route.ripups");
    let overflow_hist = nanomap_observe::histogram("route.overused_nodes");
    let pres_series = nanomap_observe::series("route.present_cost");

    for iteration in 0..options.max_iterations {
        let mut ripups = 0u64;
        for &i in &order {
            let net = &nets[i];
            // Rip up.
            if let Some(old) = routes[i].take() {
                ripups += 1;
                for node in &old.nodes {
                    occupancy[node.index()] = occupancy[node.index()].saturating_sub(1);
                }
            }
            let routed = route_net(graph, net, pos_of, &history, &mut occupancy, pres_fac)?;
            routes[i] = Some(routed);
        }
        iter_ctr.incr();
        ripup_ctr.add(ripups);
        // Congestion check.
        let mut overused = 0usize;
        for (idx, &occ) in occupancy.iter().enumerate() {
            let cap = graph.node(RrNodeId(idx as u32)).capacity;
            if occ > cap {
                overused += 1;
                history[idx] += options.hist_fac;
            }
        }
        overflow_hist.record(overused as u64);
        // Negotiation trajectory: one sample per rip-up iteration.
        nanomap_observe::progress(
            "route.overuse",
            u64::from(iteration),
            overused as f64,
            Extent::Total(u64::from(options.max_iterations)),
        );
        pres_series.record(u64::from(iteration), pres_fac);
        if overused == 0 {
            return Ok(Anytime::Complete(routes.into_iter().flatten().collect()));
        }
        // Poll after a full pass: every net has a tree (possibly sharing
        // overused nodes), which is the best-so-far we can hand back.
        if token.expired() {
            return Ok(Anytime::Degraded(
                routes.into_iter().flatten().collect(),
                Degradation {
                    phase: "route".into(),
                    reason: format!(
                        "time budget expired with {overused} overused nodes after {} of {} iterations",
                        iteration + 1,
                        options.max_iterations
                    ),
                    completed_iterations: u64::from(iteration) + 1,
                    qor_estimate: overused as f64,
                },
            ));
        }
        if iteration + 1 == options.max_iterations {
            let mut err = RouteError::unroutable(overused, options.max_iterations);
            // Name the best single culprit: the net crossing the most
            // overused nodes.
            let overused_node = |id: &RrNodeId| occupancy[id.index()] > graph.node(*id).capacity;
            let culprit = routes
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    let r = r.as_ref()?;
                    let hits = r.nodes.iter().filter(|id| overused_node(id)).count();
                    (hits > 0).then_some((hits, i))
                })
                .max_by_key(|&(hits, _)| hits);
            if let Some((_, i)) = culprit {
                err = err.with_net(describe_net(&nets[i]));
            }
            return Err(err);
        }
        pres_fac *= options.pres_mult;
    }
    // max_iterations == 0: vacuous success only without nets.
    if nets.is_empty() {
        return Ok(Anytime::Complete(Vec::new()));
    }
    Err(RouteError::unroutable(0, 0))
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: RrNodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Routes one net as a Steiner-ish tree: Dijkstra from the growing tree to
/// the nearest unreached sink, repeated.
fn route_net(
    graph: &RrGraph,
    net: &SliceNet,
    pos_of: &[SmbPos],
    history: &[f64],
    occupancy: &mut [u32],
    pres_fac: f64,
) -> Result<RoutedNet, RouteError> {
    let node_cost = |id: RrNodeId, occupancy: &[u32]| -> f64 {
        let node = graph.node(id);
        let over = (occupancy[id.index()] + 1).saturating_sub(node.capacity);
        let pres = 1.0 + f64::from(over) * pres_fac;
        (node.base_cost + history[id.index()] + 0.05) * pres
    };

    let source = graph.source(pos_of[net.driver as usize]);
    let mut tree: Vec<RrNodeId> = vec![source];
    let mut sink_paths = Vec::with_capacity(net.sinks.len());

    for &sink_smb in &net.sinks {
        let target = graph.sink(pos_of[sink_smb as usize]);
        // Dijkstra from every tree node.
        let n = graph.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<RrNodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        for &t in &tree {
            dist[t.index()] = 0.0;
            heap.push(HeapEntry { cost: 0.0, node: t });
        }
        let mut found = false;
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if cost > dist[node.index()] {
                continue;
            }
            if node == target {
                found = true;
                break;
            }
            for &next in graph.neighbors(node) {
                let c = cost + node_cost(next, occupancy);
                if c < dist[next.index()] {
                    dist[next.index()] = c;
                    prev[next.index()] = Some(node);
                    heap.push(HeapEntry {
                        cost: c,
                        node: next,
                    });
                }
            }
        }
        if !found {
            return Err(RouteError::unreachable(net.driver, sink_smb).with_net(describe_net(net)));
        }
        // Walk back to the tree, occupying new nodes.
        let mut path = vec![target];
        let mut cursor = target;
        while let Some(p) = prev[cursor.index()] {
            path.push(p);
            cursor = p;
        }
        path.reverse();
        for &node in &path {
            if !tree.contains(&node) {
                tree.push(node);
                occupancy[node.index()] += 1;
            }
        }
        sink_paths.push(path);
    }
    // The source itself is occupied once per net.
    occupancy[source.index()] += 1;
    Ok(RoutedNet {
        driver: net.driver,
        sinks: net.sinks.clone(),
        nodes: tree,
        sink_paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_arch::{ChannelConfig, Grid, RrNodeKind, WireType};

    fn graph4() -> RrGraph {
        RrGraph::build(Grid::new(4, 4), &ChannelConfig::nature())
    }

    fn positions() -> Vec<SmbPos> {
        Grid::new(4, 4).iter().collect()
    }

    #[test]
    fn routes_adjacent_net_on_direct_link() {
        let g = graph4();
        let pos = positions();
        let nets = vec![SliceNet {
            driver: 0,
            sinks: vec![1],
            critical: false,
        }];
        let routed = route_slice(&g, &nets, &pos, RouteOptions::default()).unwrap();
        assert_eq!(routed.len(), 1);
        // The cheapest path uses a direct link.
        let uses_direct = routed[0]
            .nodes
            .iter()
            .any(|&n| matches!(g.node(n).kind, RrNodeKind::Direct { .. }));
        assert!(uses_direct);
        assert!(!routed[0]
            .nodes
            .iter()
            .any(|&n| g.node(n).wire == Some(WireType::Global)));
    }

    #[test]
    fn multi_sink_net_forms_tree() {
        let g = graph4();
        let pos = positions();
        let nets = vec![SliceNet {
            driver: 5,
            sinks: vec![0, 15, 3],
            critical: false,
        }];
        let routed = route_slice(&g, &nets, &pos, RouteOptions::default()).unwrap();
        assert_eq!(routed[0].sink_paths.len(), 3);
        for path in &routed[0].sink_paths {
            assert!(path.len() >= 2);
        }
    }

    #[test]
    fn congestion_forces_divergent_paths() {
        let g = graph4();
        let pos = positions();
        // Many parallel nets between the same pair exhaust direct tracks
        // (8) and must fan out to segments.
        let nets: Vec<SliceNet> = (0..16)
            .map(|_| SliceNet {
                driver: 0,
                sinks: vec![1],
                critical: false,
            })
            .collect();
        let routed = route_slice(&g, &nets, &pos, RouteOptions::default()).unwrap();
        // No wire node is used twice.
        let mut used = std::collections::HashMap::new();
        for r in &routed {
            for &n in &r.nodes {
                if g.node(n).wire.is_some() {
                    *used.entry(n).or_insert(0) += 1;
                }
            }
        }
        for (&node, &count) in &used {
            assert!(
                count <= g.node(node).capacity,
                "node {node:?} used {count} times"
            );
        }
    }

    #[test]
    fn impossible_congestion_reports_unroutable() {
        let g = RrGraph::build(
            Grid::new(2, 1),
            &ChannelConfig {
                direct: 1,
                length1: 1,
                length4: 0,
                global: 0,
            },
        );
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(1, 0)];
        let nets: Vec<SliceNet> = (0..40)
            .map(|_| SliceNet {
                driver: 0,
                sinks: vec![1],
                critical: false,
            })
            .collect();
        let err = route_slice(&g, &nets, &pos, RouteOptions::default()).unwrap_err();
        assert!(matches!(
            err.kind,
            crate::error::RouteErrorKind::Unroutable { .. }
        ));
        // Congestion failures name a culprit net.
        assert_eq!(err.net.as_deref(), Some("smb0->smb1"));
    }

    #[test]
    fn zero_budget_still_routes_every_net_once() {
        let g = graph4();
        let pos = positions();
        let nets: Vec<SliceNet> = (0..16)
            .map(|_| SliceNet {
                driver: 0,
                sinks: vec![1],
                critical: false,
            })
            .collect();
        let token = CancelToken::with_budget_ms(Some(0));
        let result =
            route_slice_budgeted(&g, &nets, &pos, RouteOptions::default(), &token).unwrap();
        // Zero budget still completes one full pass: every net has a tree
        // (possibly congested) or the slice happened to finish clean.
        let routed = result.value();
        assert_eq!(routed.len(), nets.len());
        for r in routed {
            assert!(!r.nodes.is_empty());
            assert_eq!(r.sink_paths.len(), 1);
        }
    }

    #[test]
    fn budget_turns_unroutable_into_degraded() {
        // The impossible-congestion fixture from above: with a budget it
        // must degrade (overuse reported) instead of erroring.
        let g = RrGraph::build(
            Grid::new(2, 1),
            &ChannelConfig {
                direct: 1,
                length1: 1,
                length4: 0,
                global: 0,
            },
        );
        let pos = vec![SmbPos::new(0, 0), SmbPos::new(1, 0)];
        let nets: Vec<SliceNet> = (0..40)
            .map(|_| SliceNet {
                driver: 0,
                sinks: vec![1],
                critical: false,
            })
            .collect();
        let token = CancelToken::with_budget_ms(Some(0));
        let result =
            route_slice_budgeted(&g, &nets, &pos, RouteOptions::default(), &token).unwrap();
        let Anytime::Degraded(routed, degradation) = result else {
            panic!("hopeless congestion under a zero budget must degrade");
        };
        assert_eq!(routed.len(), nets.len());
        assert_eq!(degradation.phase, "route");
        assert_eq!(degradation.completed_iterations, 1);
        assert!(degradation.qor_estimate > 0.0, "overuse must be reported");
    }

    #[test]
    fn unlimited_token_identical_to_plain_route() {
        let g = graph4();
        let pos = positions();
        let nets: Vec<SliceNet> = (0..16)
            .map(|_| SliceNet {
                driver: 0,
                sinks: vec![1],
                critical: false,
            })
            .collect();
        let plain = route_slice(&g, &nets, &pos, RouteOptions::default()).unwrap();
        let budgeted = route_slice_budgeted(
            &g,
            &nets,
            &pos,
            RouteOptions::default(),
            &CancelToken::unlimited(),
        )
        .unwrap();
        let Anytime::Complete(routed) = budgeted else {
            panic!("unlimited token must complete");
        };
        assert_eq!(plain.len(), routed.len());
        for (a, b) in plain.iter().zip(&routed) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.sink_paths, b.sink_paths);
        }
    }

    #[test]
    fn empty_slice_routes_trivially() {
        let g = graph4();
        let routed = route_slice(&g, &[], &positions(), RouteOptions::default()).unwrap();
        assert!(routed.is_empty());
    }
}
