//! Ground-truth oracle for every path-skyline tier. On small random
//! networks it enumerates every simple `source → target` path, takes the
//! skyline of their cost vectors, and requires `pareto_paths`,
//! `pareto_paths_exhaustive`, `pareto_paths_prepped` and
//! `RouteIndex::skyline_paths` to return exactly that set of cost vectors,
//! each through a real path of the network.
//!
//! The oracle shares no code with the label-setting kernel the four tiers
//! run on, so it checks the kernel itself, not one tier against another.
//! Costs are strictly positive, so every Pareto-optimal path is simple.
//! Every cost vector here is summed edge by edge in travel order from zero,
//! the left fold the tiers report, so the comparison is exact.

use mcn::graph::{dominates, CostVec, GraphBuilder, MultiCostGraph, NodeId};
use mcn::index::{IndexConfig, RouteIndex};
use mcn::mcpp::{pareto_paths, pareto_paths_exhaustive, pareto_paths_prepped, ParetoLabel};
use mcn::prep::PrepTable;
use proptest::prelude::*;

/// A network of `nodes` nodes with one edge per `(from, to, directed)`
/// triple (self-loops skipped) and strictly positive costs drawn from
/// `seed`. It may be disconnected, which exercises unreachable targets.
fn oracle_network(d: usize, nodes: usize, edges: &[(u8, u8, bool)], seed: u64) -> MultiCostGraph {
    let mut lcg = seed | 1;
    let mut next_cost = move || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((lcg >> 33) % 1000) as f64 / 100.0 + 0.1
    };
    let mut b = GraphBuilder::new(d);
    let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node(i as f64, 0.0)).collect();
    for &(from, to, directed) in edges {
        let (from, to) = (ids[from as usize % nodes], ids[to as usize % nodes]);
        if from == to {
            continue;
        }
        let costs: Vec<f64> = (0..d).map(|_| next_cost()).collect();
        let costs = CostVec::from_slice(&costs);
        if directed {
            b.add_directed_edge(from, to, costs).unwrap();
        } else {
            b.add_edge(from, to, costs).unwrap();
        }
    }
    b.build().unwrap()
}

/// The cost vectors of every simple path out of `source`, grouped by end
/// node (the empty path included), by depth-first enumeration.
fn simple_path_costs(graph: &MultiCostGraph, source: NodeId) -> Vec<Vec<CostVec>> {
    fn extend(
        graph: &MultiCostGraph,
        node: NodeId,
        costs: CostVec,
        on_path: &mut [bool],
        out: &mut [Vec<CostVec>],
    ) {
        out[node.index()].push(costs);
        on_path[node.index()] = true;
        for step in graph.neighbors(node) {
            if !on_path[step.node.index()] {
                extend(graph, step.node, costs + step.costs, on_path, out);
            }
        }
        on_path[node.index()] = false;
    }
    let mut out = vec![Vec::new(); graph.num_nodes()];
    let mut on_path = vec![false; graph.num_nodes()];
    let zero = CostVec::zeros(graph.num_cost_types());
    extend(graph, source, zero, &mut on_path, &mut out);
    out
}

/// The distinct cost vectors no other vector dominates, lexicographically
/// sorted.
fn skyline(costs: &[CostVec]) -> Vec<CostVec> {
    let mut sky: Vec<CostVec> = costs
        .iter()
        .filter(|c| !costs.iter().any(|o| dominates(o, c)))
        .copied()
        .collect();
    sky.sort_by(|a, b| a.lex_cmp(b));
    sky.dedup();
    sky
}

/// The cost vectors of `paths` in lexicographic order, after checking that
/// each label's edges walk from `source` to `target` and sum to its costs.
fn checked_costs(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    paths: &[ParetoLabel],
) -> Vec<CostVec> {
    let mut out = Vec::new();
    for path in paths {
        let mut at = source;
        let mut costs = CostVec::zeros(graph.num_cost_types());
        for &e in &path.edges {
            let edge = graph.edge(e);
            assert!(edge.traversable_from(at), "edge {e} cannot leave {at}");
            at = edge.opposite(at);
            costs += edge.costs;
        }
        assert_eq!(at, target, "path from {source} ends at {at}");
        assert_eq!(costs, path.costs, "reported costs differ from the edges'");
        out.push(costs);
    }
    out.sort_by(|a, b| a.lex_cmp(b));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_tier_matches_simple_path_enumeration(
        d in 2usize..=4,
        nodes in 2usize..=9,
        edges in proptest::collection::vec((0u8..9, 0u8..9, any::<bool>()), 0..18),
        seed in any::<u64>(),
    ) {
        let graph = oracle_network(d, nodes, &edges, seed);
        let index = RouteIndex::build(&graph, &IndexConfig::default());
        prop_assert!(index.exact(), "tiny networks never truncate a bundle");
        let preps: Vec<PrepTable> = (0..nodes)
            .map(|t| PrepTable::build(&graph, NodeId::from(t)))
            .collect();
        for source in (0..nodes).map(NodeId::from) {
            let enumerated = simple_path_costs(&graph, source);
            for target in (0..nodes).map(NodeId::from) {
                let oracle = skyline(&enumerated[target.index()]);
                let prep = &preps[target.index()];
                let tiers = [
                    ("pareto_paths", pareto_paths(&graph, source, target)),
                    (
                        "pareto_paths_exhaustive",
                        pareto_paths_exhaustive(&graph, source, target).paths,
                    ),
                    (
                        "pareto_paths_prepped",
                        pareto_paths_prepped(&graph, source, target, prep).paths,
                    ),
                    (
                        "RouteIndex::skyline_paths",
                        index.skyline_paths(&graph, source, target).paths,
                    ),
                ];
                for (tier, paths) in tiers {
                    prop_assert_eq!(
                        checked_costs(&graph, source, target, &paths),
                        oracle.clone(),
                        "{} diverged at {} → {} (d = {}, {} nodes)",
                        tier,
                        source,
                        target,
                        d,
                        nodes
                    );
                }
            }
        }
    }
}
