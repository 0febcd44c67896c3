//! Minimal max-flow solver for FlowMap's K-feasible-cut computation.
//!
//! FlowMap only needs to distinguish "max-flow <= k" from "> k", so the
//! solver runs BFS augmenting paths (Edmonds–Karp over a residual graph
//! whose finite capacities are all 1) and stops as soon as the flow exceeds
//! the bound.

/// A directed edge's head and residual capacity. Edges come in pairs:
/// edge `e`'s reverse is `e ^ 1`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    residual: i64,
}

/// A unit-capacity flow network, reusable across cones via
/// [`Self::reset`]: every buffer keeps its capacity.
///
/// Adjacency is a compressed sparse row table, built when the search
/// starts, that lists each node's edges in insertion order: the
/// breadth-first search visits them in that order, so it decides which of
/// several minimum cuts is found.
#[derive(Debug, Default)]
pub(crate) struct FlowGraph {
    n: usize,
    edges: Vec<Edge>,
    /// The edges leaving node `u` are `adj[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    adj: Vec<usize>,
    /// Search state: the edge each node was reached by, whether it was
    /// reached, and the breadth-first queue (or depth-first stack).
    parent_edge: Vec<usize>,
    seen: Vec<bool>,
    queue: Vec<usize>,
}

/// Sentinel for "infinite" capacity.
pub(crate) const INF: i64 = i64::MAX / 4;

impl FlowGraph {
    /// Creates a graph with `n` nodes.
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Self {
        let mut graph = Self::default();
        graph.reset(n);
        graph
    }

    /// Empties the graph down to `n` nodes and no edges.
    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
    }

    /// Adds a directed edge with the given capacity.
    pub(crate) fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        self.edges.push(Edge { to, residual: cap });
        self.edges.push(Edge {
            to: from,
            residual: 0,
        });
    }

    /// The node edge `e` leaves.
    fn tail(&self, e: usize) -> usize {
        self.edges[e ^ 1].to
    }

    /// Builds the adjacency table: a counting sort of the edges by tail,
    /// stable, so each node's edges keep their insertion order.
    fn index(&mut self) {
        self.start.clear();
        self.start.resize(self.n + 1, 0);
        for e in 0..self.edges.len() {
            let u = self.tail(e);
            self.start[u + 1] += 1;
        }
        for u in 0..self.n {
            self.start[u + 1] += self.start[u];
        }
        // Fill by advancing each node's start to its end, then shift back.
        self.adj.resize(self.edges.len(), 0);
        for e in 0..self.edges.len() {
            let u = self.tail(e);
            self.adj[self.start[u]] = e;
            self.start[u] += 1;
        }
        self.start.copy_within(0..self.n, 1);
        self.start[0] = 0;
    }

    /// Marks only `s` as reached and queues it.
    fn begin_search(&mut self, s: usize) {
        self.seen.clear();
        self.seen.resize(self.n, false);
        self.seen[s] = true;
        self.queue.clear();
        self.queue.push(s);
    }

    /// Computes max flow from `s` to `t`, stopping early once the flow
    /// exceeds `bound`. Returns the achieved flow (which may be `bound + 1`
    /// when the true flow is larger).
    pub(crate) fn max_flow_bounded(&mut self, s: usize, t: usize, bound: i64) -> i64 {
        self.index();
        // Only nodes reached in the current search read their parent edge,
        // so it needs no clearing between searches.
        self.parent_edge.resize(self.n, usize::MAX);
        let mut flow = 0;
        while flow <= bound {
            // BFS for an augmenting path in the residual graph.
            self.begin_search(s);
            let mut head = 0;
            'bfs: while let Some(&u) = self.queue.get(head) {
                head += 1;
                for &ei in &self.adj[self.start[u]..self.start[u + 1]] {
                    let e = self.edges[ei];
                    if !self.seen[e.to] && e.residual > 0 {
                        self.seen[e.to] = true;
                        self.parent_edge[e.to] = ei;
                        if e.to == t {
                            break 'bfs;
                        }
                        self.queue.push(e.to);
                    }
                }
            }
            if !self.seen[t] {
                break;
            }
            // Augment by 1 (every finite capacity is 1).
            let mut v = t;
            while v != s {
                let ei = self.parent_edge[v];
                self.edges[ei].residual -= 1;
                self.edges[ei ^ 1].residual += 1;
                v = self.tail(ei);
            }
            flow += 1;
        }
        flow
    }

    /// Nodes reachable from `s` in the residual graph (valid after
    /// [`Self::max_flow_bounded`] completed without hitting the bound).
    pub(crate) fn residual_reachable(&mut self, s: usize) -> &[bool] {
        self.begin_search(s);
        while let Some(u) = self.queue.pop() {
            for &ei in &self.adj[self.start[u]..self.start[u + 1]] {
                let e = self.edges[ei];
                if e.residual > 0 && !self.seen[e.to] {
                    self.seen[e.to] = true;
                    self.queue.push(e.to);
                }
            }
        }
        &self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_unit_path() {
        // s -> a -> t
        let mut g = FlowGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        assert_eq!(g.max_flow_bounded(0, 2, 10), 1);
    }

    #[test]
    fn parallel_paths() {
        // s -> {a,b,c} -> t with unit caps: flow 3
        let mut g = FlowGraph::new(5);
        for node in 1..=3 {
            g.add_edge(0, node, 1);
            g.add_edge(node, 4, 1);
        }
        assert_eq!(g.max_flow_bounded(0, 4, 10), 3);
    }

    #[test]
    fn bound_stops_early() {
        let mut g = FlowGraph::new(6);
        for node in 1..=4 {
            g.add_edge(0, node, 1);
            g.add_edge(node, 5, 1);
        }
        // True flow 4; bound 2 means we stop at 3.
        assert_eq!(g.max_flow_bounded(0, 5, 2), 3);
    }

    #[test]
    fn bottleneck_respected() {
        // s -> a (inf), a -> b (1), b -> t (inf): flow 1.
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, INF);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, INF);
        assert_eq!(g.max_flow_bounded(0, 3, 10), 1);
    }

    #[test]
    fn min_cut_via_residual_reachability() {
        // Classic: cut should be the middle unit edge.
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, INF);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, INF);
        g.max_flow_bounded(0, 3, 10);
        let reach = g.residual_reachable(0);
        assert!(reach[0] && reach[1]);
        assert!(!reach[2] && !reach[3]);
    }

    #[test]
    fn residual_allows_flow_reversal() {
        // A graph where Edmonds-Karp must cancel flow: the famous
        // "cross edge" diamond.
        //      s(0)
        //     /    \
        //   a(1)   b(2)
        //    | \    |
        //    |  \   |
        //   c(3) \ d(4)
        //     \   X  /
        //      t(5)
        // Edges: s->a, s->b, a->c, a->d, b->d, c->t, d->t, all cap 1.
        // Max flow 2, and a greedy path s->a->d->t would block s->b->d->t
        // without residual reversal.
        let mut g = FlowGraph::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 4, 1); // a->d FIRST so BFS prefers it
        g.add_edge(1, 3, 1);
        g.add_edge(2, 4, 1);
        g.add_edge(3, 5, 1);
        g.add_edge(4, 5, 1);
        assert_eq!(g.max_flow_bounded(0, 5, 10), 2);
    }

    #[test]
    fn reset_graph_solves_like_a_fresh_one() {
        let build = |g: &mut FlowGraph| {
            g.add_edge(0, 1, INF);
            g.add_edge(0, 2, INF);
            g.add_edge(1, 3, 1);
            g.add_edge(2, 3, 1);
            g.add_edge(3, 4, 1);
            g.add_edge(4, 5, INF);
        };
        let mut fresh = FlowGraph::new(6);
        build(&mut fresh);
        // A larger, different graph solved first leaves its state behind.
        let mut reused = FlowGraph::new(9);
        for node in 1..=7 {
            reused.add_edge(0, node, 1);
            reused.add_edge(node, 8, 1);
        }
        assert_eq!(reused.max_flow_bounded(0, 8, 10), 7);
        reused.reset(6);
        build(&mut reused);
        assert_eq!(reused.max_flow_bounded(0, 5, 10), 1);
        assert_eq!(fresh.max_flow_bounded(0, 5, 10), 1);
        assert_eq!(
            fresh.residual_reachable(0).to_vec(),
            reused.residual_reachable(0)
        );
    }

    #[test]
    fn cut_after_reversal_is_consistent() {
        let mut g = FlowGraph::new(6);
        g.add_edge(0, 1, INF);
        g.add_edge(0, 2, INF);
        g.add_edge(1, 3, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(3, 4, 1);
        g.add_edge(3, 5, 0);
        g.add_edge(4, 5, INF);
        // 3->4 is the single bottleneck.
        assert_eq!(g.max_flow_bounded(0, 5, 10), 1);
        let reach = g.residual_reachable(0);
        assert!(reach[3]);
        assert!(!reach[4] && !reach[5]);
    }
}
