//! Index-served queries: bidirectional upward searches that answer both
//! query kinds byte-identically to the prep-backed tier.

use crate::structure::{RouteIndex, UpArc};
use mcn_alpha::{Preference, ScalarPath};
use mcn_graph::{CostVec, EdgeId, MultiCostGraph};
use mcn_mcpp::{pareto_insert, LabelId, ParetoLabel, ParetoSearch};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Search counters of one index-served query, comparable to the settled /
/// pushed / pruned counters of the prep-backed tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexQueryStats {
    /// Nodes (alpha) or labels (skyline) taken from the frontier.
    pub settled: u64,
    /// Heap pushes (alpha) or labels inserted (skyline).
    pub pushed: u64,
    /// Upward-arc bundle entries examined.
    pub relaxed: u64,
    /// Stale pops, non-improving relaxations and dominance rejections.
    pub pruned: u64,
}

/// Outcome of [`RouteIndex::alpha_path`]: the α-optimal path (None iff the
/// target is unreachable) plus the search counters.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexAlphaResult {
    /// The α-optimal path, byte-identical to
    /// [`mcn_alpha::scalarized_path`]'s.
    pub path: Option<ScalarPath>,
    /// Search counters.
    pub stats: IndexQueryStats,
}

/// Outcome of [`RouteIndex::skyline_paths`]: the full path skyline plus the
/// search counters.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexSkylineResult {
    /// The path skyline in lexicographic cost order, byte-identical to
    /// `mcn_mcpp::pareto_paths_prepped`'s.
    pub paths: Vec<ParetoLabel>,
    /// Search counters.
    pub stats: IndexQueryStats,
}

/// Heap entry of the scalarized upward Dijkstra — the same reversed
/// `total_cmp` ordering with node-id tie-break as `mcn-alpha`, so the pop
/// order (hence the surviving parent on ties) is deterministic.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    key: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// One direction of the bidirectional scalarized search.
struct Side {
    dist: Vec<f64>,
    parent_node: Vec<u32>,
    parent_frag: Vec<u32>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    stopped: bool,
}

impl Side {
    fn new(n: usize, start: u32) -> Self {
        let mut side = Self {
            dist: vec![f64::INFINITY; n],
            parent_node: vec![u32::MAX; n],
            parent_frag: vec![u32::MAX; n],
            settled: vec![false; n],
            heap: BinaryHeap::new(),
            stopped: false,
        };
        side.dist[start as usize] = 0.0;
        side.heap.push(HeapEntry {
            key: 0.0,
            node: start,
        });
        side
    }

    fn top_key(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }

    /// The fragments of the search-tree path from `node` back to the start.
    fn parents(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = node;
        std::iter::from_fn(move || {
            let frag = self.parent_frag[cur as usize];
            cur = self.parent_node[cur as usize];
            (frag != u32::MAX).then_some(frag)
        })
    }
}

/// The cheapest α-scalarized bundle entry as `(cost, fragment)`, the first
/// of equals in the bundle's lexicographic order.
fn cheapest(arc: &UpArc, pref: &Preference) -> (f64, u32) {
    let mut best = (f64::INFINITY, u32::MAX);
    for e in &arc.entries {
        let w = pref.cost_of(&e.costs);
        if w < best.0 {
            best = (w, e.frag);
        }
    }
    best
}

/// Settles one node of `side`, relaxing its upward arcs; updates the
/// tentative best meeting `(cost, node)` when the node is settled in both
/// directions.
///
/// `stall_arcs` is the *opposite* upward adjacency (`up_in` for the
/// forward search, `up_out` for the backward one): a strictly cheaper
/// arrival at the popped node through one of those downward arcs proves
/// the node cannot be the apex of an optimal up-down path, so its own
/// arcs are never relaxed (stall-on-demand). The popped distance is still
/// the exact upward-search distance, so marking the node settled keeps
/// every remaining meet candidate a real — merely non-optimal — path.
#[allow(clippy::too_many_arguments)]
fn alpha_step(
    side: &mut Side,
    other: &Side,
    arcs: &[Vec<UpArc>],
    stall_arcs: &[Vec<UpArc>],
    pref: &Preference,
    best: &mut f64,
    meet: &mut Option<u32>,
    stats: &mut IndexQueryStats,
) {
    let Some(top) = side.heap.peek().copied() else {
        side.stopped = true;
        return;
    };
    if top.key >= *best {
        // Upward keys only grow: nothing beyond the frontier can improve
        // the best meeting found so far.
        side.stopped = true;
        return;
    }
    side.heap.pop();
    let v = top.node as usize;
    if side.settled[v] {
        stats.pruned += 1;
        return;
    }
    side.settled[v] = true;
    for arc in &stall_arcs[v] {
        let head = arc.head as usize;
        if side.dist[head].is_finite() && side.dist[head] + cheapest(arc, pref).0 < side.dist[v] {
            // Stalled: a downward detour through `head` reaches this node
            // strictly cheaper, so no optimal up-down path peaks here.
            stats.pruned += 1;
            return;
        }
    }
    stats.settled += 1;
    if other.settled[v] {
        let through = side.dist[v] + other.dist[v];
        if through < *best {
            *best = through;
            *meet = Some(top.node);
        }
    }
    let dv = side.dist[v];
    for arc in &arcs[v] {
        let head = arc.head as usize;
        if side.settled[head] {
            stats.pruned += 1;
            continue;
        }
        stats.relaxed += arc.entries.len() as u64;
        let (best_w, best_frag) = cheapest(arc, pref);
        let cand = dv + best_w;
        if cand < side.dist[head] {
            side.dist[head] = cand;
            side.parent_node[head] = top.node;
            side.parent_frag[head] = best_frag;
            side.heap.push(HeapEntry {
                key: cand,
                node: arc.head,
            });
            stats.pushed += 1;
        } else {
            stats.pruned += 1;
        }
    }
}

impl RouteIndex {
    /// The α-optimal `source → target` path through the hierarchy: a
    /// bidirectional upward Dijkstra (forward over `up_out`, backward over
    /// `up_in`) meeting at the apex of the optimal up-down path. The
    /// returned totals and cost vectors are recomputed edge-by-edge in path
    /// order after unpacking, so the result is byte-identical to
    /// [`mcn_alpha::scalarized_path`] (up to the exact-ties caveat on the
    /// crate docs).
    ///
    /// # Panics
    /// Panics if the index shape does not match `graph`/`pref` or an
    /// endpoint is out of range.
    pub fn alpha_path(
        &self,
        graph: &MultiCostGraph,
        source: mcn_graph::NodeId,
        target: mcn_graph::NodeId,
        pref: &Preference,
    ) -> IndexAlphaResult {
        assert_eq!(self.num_nodes, graph.num_nodes(), "index/graph node count");
        assert_eq!(self.dims, graph.num_cost_types(), "index/graph dims");
        assert_eq!(pref.cost_types(), self.dims, "preference dims");
        assert!(source.index() < self.num_nodes && target.index() < self.num_nodes);
        let mut stats = IndexQueryStats::default();
        if source == target {
            stats.settled = 1;
            return IndexAlphaResult {
                path: Some(ScalarPath {
                    total: 0.0,
                    costs: CostVec::zeros(self.dims),
                    edges: Vec::new(),
                }),
                stats,
            };
        }

        let mut fwd = Side::new(self.num_nodes, source.raw());
        let mut bwd = Side::new(self.num_nodes, target.raw());
        let mut best = f64::INFINITY;
        let mut meet: Option<u32> = None;
        while !(fwd.stopped && bwd.stopped) {
            // Alternate by the smaller frontier key, forward on ties.
            let fwd_turn = match (fwd.stopped, bwd.stopped) {
                (true, _) => false,
                (_, true) => true,
                (false, false) => {
                    let fk = fwd.top_key().unwrap_or(f64::INFINITY);
                    let bk = bwd.top_key().unwrap_or(f64::INFINITY);
                    fk <= bk
                }
            };
            if fwd_turn {
                alpha_step(
                    &mut fwd,
                    &bwd,
                    &self.up_out,
                    &self.up_in,
                    pref,
                    &mut best,
                    &mut meet,
                    &mut stats,
                );
            } else {
                alpha_step(
                    &mut bwd,
                    &fwd,
                    &self.up_in,
                    &self.up_out,
                    pref,
                    &mut best,
                    &mut meet,
                    &mut stats,
                );
            }
        }

        let Some(m) = meet else {
            return IndexAlphaResult { path: None, stats };
        };

        let edges = self.unpack_path(fwd.parents(m), bwd.parents(m));
        // Recompute in path order: the same left fold as the prep-backed
        // A*, so the bits match — the shortcut-order sums never leak out.
        let mut total = 0.0;
        let mut costs = CostVec::zeros(self.dims);
        for &eid in &edges {
            let e = graph.edge(eid);
            total += pref.cost_of(&e.costs);
            costs += e.costs;
        }
        IndexAlphaResult {
            path: Some(ScalarPath {
                total,
                costs,
                edges,
            }),
            stats,
        }
    }

    /// The full `source → target` path skyline through the hierarchy:
    /// Pareto label-setting searches over both upward directions,
    /// dominance-merged at every meeting node. Costs are recomputed
    /// edge-by-edge in path order, so the result is byte-identical to
    /// `mcn_mcpp::pareto_paths_prepped` (same ties caveat as
    /// [`RouteIndex::alpha_path`]).
    ///
    /// # Panics
    /// Panics if the index shape does not match `graph` or an endpoint is
    /// out of range.
    pub fn skyline_paths(
        &self,
        graph: &MultiCostGraph,
        source: mcn_graph::NodeId,
        target: mcn_graph::NodeId,
    ) -> IndexSkylineResult {
        assert_eq!(self.num_nodes, graph.num_nodes(), "index/graph node count");
        assert_eq!(self.dims, graph.num_cost_types(), "index/graph dims");
        assert!(source.index() < self.num_nodes && target.index() < self.num_nodes);
        let mut stats = IndexQueryStats::default();
        if source == target {
            stats.settled = 1;
            return IndexSkylineResult {
                paths: vec![ParetoLabel {
                    node: target,
                    costs: CostVec::zeros(self.dims),
                    edges: Vec::new(),
                }],
                stats,
            };
        }

        let fwd = self.upward_labels(source.raw(), &self.up_out, &mut stats);
        let bwd = self.upward_labels(target.raw(), &self.up_in, &mut stats);

        // Dominance-merge the combinations at every node reached from both
        // sides. The pre-filter uses the label sums; survivors are
        // re-filtered on path-order costs below, so the final skyline is
        // decided by exactly the arithmetic the prep-backed tier uses.
        let mut combos: Vec<(CostVec, (LabelId, LabelId))> = Vec::new();
        for v in 0..self.num_nodes as u32 {
            for &(cf, i) in fwd.set(v) {
                for &(cb, j) in bwd.set(v) {
                    stats.pruned += pareto_insert(&mut combos, (cf + cb, (i, j))).is_none() as u64;
                }
            }
        }

        let mut skyline: Vec<(CostVec, ParetoLabel)> = Vec::new();
        for (_, (i, j)) in combos {
            let edges = self.unpack_path(fwd.steps(i), bwd.steps(j));
            let zero = CostVec::zeros(self.dims);
            let costs = edges.iter().fold(zero, |c, &e| c + graph.edge(e).costs);
            let label = ParetoLabel {
                node: target,
                costs,
                edges,
            };
            stats.pruned += pareto_insert(&mut skyline, (costs, label)).is_none() as u64;
        }
        // Already in lexicographic cost order: the merge keeps it sorted.
        let paths = skyline.into_iter().map(|(_, l)| l).collect();
        IndexSkylineResult { paths, stats }
    }

    /// The original edges of an up-down path: `up` walks the forward
    /// fragments from the meeting node back to the source, `down` the
    /// backward ones on to the target (backward arcs travel towards it).
    fn unpack_path(
        &self,
        up: impl Iterator<Item = u32>,
        down: impl Iterator<Item = u32>,
    ) -> Vec<EdgeId> {
        let mut frags: Vec<u32> = up.collect();
        frags.reverse();
        frags.extend(down);
        let mut edges = Vec::new();
        for f in frags {
            self.unpack_into(f, &mut edges);
        }
        edges
    }

    /// Label-setting Pareto search over one upward direction, keyed by cost;
    /// each label's step is the fragment of the arc it arrived over.
    fn upward_labels(
        &self,
        start: u32,
        arcs: &[Vec<UpArc>],
        stats: &mut IndexQueryStats,
    ) -> ParetoSearch {
        let mut search = ParetoSearch::new(self.num_nodes, start, self.dims);
        while let Some((id, node, at)) = search.pop() {
            stats.settled += 1;
            for arc in &arcs[node as usize] {
                for e in &arc.entries {
                    stats.relaxed += 1;
                    let costs = at + e.costs;
                    if search.push(arc.head, costs, costs, id, e.frag).is_some() {
                        stats.pushed += 1;
                    } else {
                        stats.pruned += 1;
                    }
                }
            }
        }
        stats.pruned += search.skipped;
        search
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use mcn_graph::{GraphBuilder, NodeId};

    fn diamond() -> (MultiCostGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new(2);
        let s = b.add_node(0.0, 0.0);
        let up = b.add_node(1.0, 1.0);
        let down = b.add_node(1.0, -1.0);
        let t = b.add_node(2.0, 0.0);
        b.add_edge(s, up, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(up, t, CostVec::from_slice(&[1.0, 10.0]))
            .unwrap();
        b.add_edge(s, down, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        b.add_edge(down, t, CostVec::from_slice(&[10.0, 1.0]))
            .unwrap();
        (b.build().unwrap(), s, t)
    }

    #[test]
    fn diamond_alpha_and_skyline_match_the_direct_algorithms() {
        let (g, s, t) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        for (w0, w1) in [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.1, 0.9)] {
            let pref = Preference::new(&[w0, w1]).unwrap();
            let direct = mcn_alpha::scalarized_path(&g, s, t, &pref);
            let via = idx.alpha_path(&g, s, t, &pref);
            assert_eq!(via.path, direct.path, "alpha ({w0}, {w1})");
        }
        let direct = mcn_mcpp::pareto_paths(&g, s, t);
        let via = idx.skyline_paths(&g, s, t);
        assert_eq!(via.paths, direct);
        assert_eq!(via.paths.len(), 2);
    }

    #[test]
    fn identical_endpoints_answer_immediately() {
        let (g, s, _) = diamond();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let pref = Preference::uniform(2);
        let via = idx.alpha_path(&g, s, s, &pref);
        assert_eq!(via.path.as_ref().unwrap().total, 0.0);
        assert!(via.path.unwrap().edges.is_empty());
        assert_eq!(via.stats.settled, 1);
        let sky = idx.skyline_paths(&g, s, s);
        assert_eq!(sky.paths.len(), 1);
        assert!(sky.paths[0].edges.is_empty());
    }

    #[test]
    fn unreachable_targets_return_empty_results() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let lone = b.add_node(9.0, 9.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let via = idx.alpha_path(&g, a, lone, &Preference::uniform(2));
        assert!(via.path.is_none());
        assert!(idx.skyline_paths(&g, a, lone).paths.is_empty());
    }

    #[test]
    fn directed_line_routes_one_way_only() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let m = b.add_node(1.0, 0.0);
        let c = b.add_node(2.0, 0.0);
        b.add_directed_edge(a, m, CostVec::from_slice(&[1.0, 2.0]))
            .unwrap();
        b.add_directed_edge(m, c, CostVec::from_slice(&[2.0, 1.0]))
            .unwrap();
        let g = b.build().unwrap();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let pref = Preference::uniform(2);
        let fwd = idx.alpha_path(&g, a, c, &pref);
        let direct = mcn_alpha::scalarized_path(&g, a, c, &pref);
        assert_eq!(fwd.path, direct.path);
        assert_eq!(fwd.path.unwrap().edges.len(), 2);
        assert!(idx.alpha_path(&g, c, a, &pref).path.is_none());
        assert!(idx.skyline_paths(&g, c, a).paths.is_empty());
    }
}
