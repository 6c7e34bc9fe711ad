//! Label-setting multi-criteria Pareto path search.

use crate::kernel::{pareto_dominated, ParetoSearch};
use crate::stats::PathStats;
use mcn_graph::{dominates, CostVec, EdgeId, MultiCostGraph, NodeId};
use mcn_prep::PrepTable;

/// One Pareto-optimal label: a non-dominated way of reaching a node.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoLabel {
    /// The node the label belongs to.
    pub node: NodeId,
    /// Accumulated cost vector from the source.
    pub costs: CostVec,
    /// The edges of the path from the source, in order.
    pub edges: Vec<EdgeId>,
}

/// The result of one Pareto path search: the target's path skyline plus the
/// label accounting that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSkylineResult {
    /// The Pareto-optimal labels at the target, sorted lexicographically by
    /// cost vector.
    pub paths: Vec<ParetoLabel>,
    /// Deterministic label counters of the run.
    pub stats: PathStats,
}

/// Computes the Pareto-optimal (skyline) paths from `source` to `target` by
/// lexicographic label-setting on the [`ParetoSearch`] kernel (Section II-D).
///
/// Every node keeps a set of mutually non-dominated labels; labels are
/// expanded once each in lexicographic cost order, propagated over outgoing
/// edges and inserted only if not (weakly) dominated by an existing label at
/// the head node, evicting labels they dominate. In addition, a candidate
/// that is already weakly dominated by the **current target skyline** is
/// discarded wherever it surfaces: edge costs are non-negative, so every
/// completion of such a path is weakly dominated at the target too
/// (target-dominance early termination — same output, far fewer labels; see
/// [`pareto_paths_exhaustive`] for the unpruned baseline). The returned
/// labels at `target` are sorted lexicographically by cost vector.
///
/// **Exact ties caveat** (applies to every pruned variant in this module):
/// the returned *cost-vector* skyline always equals the exhaustive
/// baseline's. When two **distinct** paths share an exactly equal cost
/// vector, however, only one representative survives, and which one depends
/// on label arrival order — which pruning can change. On such graphs
/// (integer or otherwise discrete costs) the representative's *edge
/// sequence* may differ from the exhaustive run's. Workloads with
/// continuous float costs — everything seeded in this repository — have no
/// exact ties, which is what the byte-identical fingerprint assertions in
/// `tests/prep.rs` and the `prep` experiment rely on.
///
/// Complexity is output-sensitive and exponential in the worst case (the
/// Pareto set itself can be exponential); it is intended for moderate-size
/// networks and for validating the per-cost shortest paths of `mcn-expansion`.
pub fn pareto_paths(graph: &MultiCostGraph, source: NodeId, target: NodeId) -> Vec<ParetoLabel> {
    pareto_paths_with_stats(graph, source, target).paths
}

/// [`pareto_paths`] (target-dominance early termination on, no
/// precomputation) with its [`PathStats`].
pub fn pareto_paths_with_stats(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
) -> PathSkylineResult {
    search(graph, source, target, None, true)
}

/// The exhaustive label-setting baseline: **no** target or bound pruning
/// beyond node-level dominance (only the target's own labels are never
/// extended). Identical output to [`pareto_paths`]; exists as the
/// measurement baseline the `prep` experiment (and the early-termination
/// fix) quantify label reductions against.
pub fn pareto_paths_exhaustive(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
) -> PathSkylineResult {
    search(graph, source, target, None, false)
}

/// ParetoPrep-pruned path-skyline search: [`pareto_paths`] plus the
/// lower-bound machinery of a precomputed [`PrepTable`] for the same
/// `target`.
///
/// Three additional cuts apply to every candidate label with accumulated
/// cost `a` at node `v`:
///
/// * **Reachability** — if the target is unreachable from `v` (infinite
///   bound), the label can never complete and is dropped.
/// * **Bound dominance** — the *bound vector* `a + L(v)` (the best cost any
///   completion can achieve, since `L` is admissible) is checked against
///   the current target skyline; weak dominance kills the whole subtree,
///   not just the finished path.
/// * **Global upper-bound cuts** — before the search starts, the table
///   reconstructs up to `d` concrete `source → target` paths
///   ([`PrepTable::upper_bound_cuts`]); a bound vector *strictly* dominated
///   by one of those real path costs is cut even while the target skyline
///   is still empty. (Strict dominance keeps the cut paths' own prefixes —
///   and every eventual skyline member — alive, which is what makes the
///   output byte-identical to the exhaustive baseline — up to
///   representatives of exactly tied cost vectors; see the ties caveat on
///   [`pareto_paths`].)
///
/// # Panics
/// Panics if `prep` was built for a different target or a different graph
/// shape (node count / cost types).
pub fn pareto_paths_prepped(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    prep: &PrepTable,
) -> PathSkylineResult {
    assert!(
        (prep.target(), prep.num_nodes(), prep.cost_types())
            == (target, graph.num_nodes(), graph.num_cost_types()),
        "prep table (target {}, {} nodes, d = {}) does not fit the query \
         (target {target}, {} nodes, d = {})",
        prep.target(),
        prep.num_nodes(),
        prep.cost_types(),
        graph.num_nodes(),
        graph.num_cost_types()
    );
    search(graph, source, target, Some(prep), true)
}

/// Relative deflation applied to prep lower bounds before pruning.
///
/// `PrepTable` distances are accumulated **backwards** (target → node)
/// while search labels accumulate **forwards**, and float addition is not
/// associative: the same physical path can sum to values an ulp apart, so
/// the mathematically admissible bound can overshoot a label's real
/// completion cost by a few ulps — enough for a path's own upper-bound cut
/// to "dominate" its prefix and silently drop a skyline member. Shrinking
/// the lower bound by 1e-9 relative keeps it admissible for any summation
/// order (accumulated float error is ~1e-13 relative even across millions
/// of hops) while giving up a vanishing sliver of pruning power.
const BOUND_DEFLATION: f64 = 1.0 - 1e-9;

/// The shared search on the label-setting kernel. `prep` enables bound
/// pruning, upper-bound cuts and the bound vector as heap key;
/// `target_prune` enables target-dominance early termination (implied by
/// `prep`, since `L ≥ 0`). With both off this is the exhaustive baseline.
fn search(
    graph: &MultiCostGraph,
    source: NodeId,
    target: NodeId,
    prep: Option<&PrepTable>,
    target_prune: bool,
) -> PathSkylineResult {
    let d = graph.num_cost_types();
    let mut stats = PathStats::default();
    stats.labels_created += 1;
    stats.labels_inserted += 1;
    // Real source → target path costs reconstructed from the prep scan: cut
    // lines available before the first label reaches the target.
    let cuts = prep.map_or_else(Vec::new, |prep| prep.upper_bound_cuts(graph, source));
    let prune_at_target = target_prune || prep.is_some();
    let mut search = ParetoSearch::new(graph.num_nodes(), source.raw(), d);
    while let Some((id, node, at)) = search.pop() {
        stats.nodes_settled += 1;
        if node == target.raw() {
            // Final: with non-negative costs any extension that returns to
            // the target is weakly dominated by this label.
            continue;
        }
        for neighbor in graph.neighbors(NodeId::new(node)) {
            let costs = at + neighbor.costs;
            stats.labels_created += 1;

            // ParetoPrep cuts: reachability, then the bound vector
            // against the target skyline and the upper-bound cuts.
            let mut bound = costs;
            if let Some(prep) = prep {
                if !prep.reaches(neighbor.node) {
                    stats.labels_pruned += 1;
                    continue;
                }
                let lower = prep.bound(neighbor.node);
                for i in 0..d {
                    bound[i] += lower[i] * BOUND_DEFLATION;
                }
            }
            if (prune_at_target && pareto_dominated(search.set(target.raw()), &bound))
                || cuts.iter().any(|cut| dominates(cut, &bound))
            {
                stats.labels_pruned += 1;
                continue;
            }

            // Classic node-level dominance at the head node.
            match search.push(neighbor.node.raw(), costs, bound, id, neighbor.edge.raw()) {
                Some(evicted) => {
                    stats.labels_inserted += 1;
                    stats.labels_evicted += evicted as u64;
                }
                None => stats.labels_dominated += 1,
            }
        }
    }

    let paths = search
        .set(target.raw())
        .iter()
        .map(|&(costs, id)| {
            let mut edges: Vec<EdgeId> = search.steps(id).map(EdgeId::new).collect();
            edges.reverse();
            ParetoLabel {
                node: target,
                costs,
                edges,
            }
        })
        .collect();
    PathSkylineResult { paths, stats }
}

/// The component-wise minimum over the Pareto path set, i.e. the vector of
/// single-criterion shortest-path distances from `source` to `target`.
/// Returns `None` if the target is unreachable.
pub fn componentwise_minimum(paths: &[ParetoLabel]) -> Option<CostVec> {
    let first = paths.first()?;
    Some(
        paths
            .iter()
            .skip(1)
            .fold(first.costs, |acc, l| acc.element_min(&l.costs)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::GraphBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Diamond network with a cheap-slow and an expensive-fast side.
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

    /// A seeded random network of `n` nodes: a connected line plus random
    /// extra edges, `d` cost types drawn from `1.0..5.0`.
    fn seeded_network(n: usize, d: usize, seed: u64) -> (MultiCostGraph, Vec<NodeId>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(d);
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in nodes.windows(2) {
            let c: Vec<f64> = (0..d).map(|_| rng.gen_range(1.0..5.0)).collect();
            b.add_edge(w[0], w[1], CostVec::from_slice(&c)).unwrap();
        }
        for _ in 0..n {
            let a = nodes[rng.gen_range(0..n)];
            let c = nodes[rng.gen_range(0..n)];
            if a == c {
                continue;
            }
            let cv: Vec<f64> = (0..d).map(|_| rng.gen_range(1.0..5.0)).collect();
            b.add_edge(a, c, CostVec::from_slice(&cv)).unwrap();
        }
        (b.build().unwrap(), nodes)
    }

    #[test]
    fn diamond_has_two_pareto_paths() {
        let (g, s, t) = diamond();
        let paths = pareto_paths(&g, s, t);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].costs.as_slice(), &[2.0, 20.0]);
        assert_eq!(paths[1].costs.as_slice(), &[20.0, 2.0]);
        assert_eq!(paths[0].edges.len(), 2);
        assert_eq!(
            componentwise_minimum(&paths).unwrap().as_slice(),
            &[2.0, 2.0]
        );
    }

    #[test]
    fn source_equals_target_gives_trivial_label() {
        let (g, s, _) = diamond();
        let paths = pareto_paths(&g, s, s);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].edges.is_empty());
        assert_eq!(paths[0].costs.as_slice(), &[0.0, 0.0]);
        // The exhaustive baseline agrees even in this degenerate case.
        assert_eq!(pareto_paths_exhaustive(&g, s, s).paths, paths);
    }

    #[test]
    fn unreachable_target_has_no_paths() {
        let mut b = GraphBuilder::new(1);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_node(5.0, 5.0); // isolated
        b.add_edge(a, c, CostVec::from_slice(&[1.0])).unwrap();
        let g = b.build().unwrap();
        let paths = pareto_paths(&g, a, NodeId::new(2));
        assert!(paths.is_empty());
        assert!(componentwise_minimum(&paths).is_none());
    }

    #[test]
    fn labels_are_mutually_non_dominated() {
        let (g, nodes) = seeded_network(30, 3, 17);
        let paths = pareto_paths(&g, nodes[0], nodes[29]);
        assert!(!paths.is_empty());
        for a in &paths {
            assert!(a.costs.len() == 3);
            for b2 in &paths {
                if a.edges != b2.edges {
                    assert!(!dominates(&a.costs, &b2.costs) || !dominates(&b2.costs, &a.costs));
                }
            }
        }
    }

    #[test]
    fn componentwise_minimum_matches_single_cost_dijkstra() {
        let (g, s, t) = diamond();
        let paths = pareto_paths(&g, s, t);
        let mins = componentwise_minimum(&paths).unwrap();
        // Single-criterion shortest paths: cost0 via the upper branch = 2,
        // cost1 via the lower branch = 2.
        assert_eq!(mins.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn early_termination_creates_fewer_labels_and_identical_output() {
        // The satellite fix: target-dominance early termination must shrink
        // the label count on seeded networks without changing a single path.
        for seed in [3u64, 17, 99] {
            let (g, nodes) = seeded_network(60, 3, seed);
            let (s, t) = (nodes[0], nodes[59]);
            let exhaustive = pareto_paths_exhaustive(&g, s, t);
            let pruned = pareto_paths_with_stats(&g, s, t);
            assert_eq!(exhaustive.paths, pruned.paths, "seed {seed} diverged");
            assert!(
                pruned.stats.labels_created < exhaustive.stats.labels_created,
                "seed {seed}: early termination created {} labels, \
                 exhaustive {}",
                pruned.stats.labels_created,
                exhaustive.stats.labels_created
            );
            assert!(pruned.stats.labels_pruned > 0);
            assert_eq!(exhaustive.stats.labels_pruned, 0);
        }
    }

    #[test]
    fn prepped_search_matches_exhaustive_with_fewer_labels() {
        for seed in [5u64, 23] {
            let (g, nodes) = seeded_network(60, 3, seed);
            let (s, t) = (nodes[3], nodes[50]);
            let exhaustive = pareto_paths_exhaustive(&g, s, t);
            let prep = PrepTable::build(&g, t);
            let prepped = pareto_paths_prepped(&g, s, t, &prep);
            assert_eq!(exhaustive.paths, prepped.paths, "seed {seed} diverged");
            assert!(prepped.stats.labels_created < exhaustive.stats.labels_created);
            assert!(prepped.stats.prune_fraction() > 0.0);
        }
    }

    #[test]
    fn prepped_search_handles_unreachable_targets() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        let isolated = b.add_node(5.0, 5.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 2.0])).unwrap();
        let g = b.build().unwrap();
        let prep = PrepTable::build(&g, isolated);
        let result = pareto_paths_prepped(&g, a, isolated, &prep);
        assert!(result.paths.is_empty());
        // Every candidate out of the source dies on the reachability cut.
        assert_eq!(result.stats.labels_pruned + 1, result.stats.labels_created);
    }

    #[test]
    #[should_panic]
    fn prepped_search_rejects_mismatched_tables() {
        let (g, s, t) = diamond();
        let wrong = PrepTable::build(&g, s);
        let _ = pareto_paths_prepped(&g, s, t, &wrong);
    }

    #[test]
    fn bicriterion_fast_path_matches_exhaustive_output() {
        // d == 2 engages the sorted-sweep dominance test of the kernel's
        // label sets; the output must match the exhaustive baseline exactly.
        for seed in [7u64, 21, 63] {
            let (g, nodes) = seeded_network(60, 2, seed);
            let (s, t) = (nodes[1], nodes[55]);
            let exhaustive = pareto_paths_exhaustive(&g, s, t);
            let pruned = pareto_paths_with_stats(&g, s, t);
            assert_eq!(exhaustive.paths, pruned.paths, "seed {seed} diverged");
            assert!(pruned.stats.labels_created <= exhaustive.stats.labels_created);
            let prep = PrepTable::build(&g, t);
            let prepped = pareto_paths_prepped(&g, s, t, &prep);
            assert_eq!(
                exhaustive.paths, prepped.paths,
                "seed {seed} prepped diverged"
            );
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (g, nodes) = seeded_network(40, 2, 7);
        let run = pareto_paths_with_stats(&g, nodes[0], nodes[39]);
        let s = run.stats;
        assert_eq!(
            s.labels_created,
            s.labels_inserted + s.labels_pruned + s.labels_dominated
        );
        assert!(s.nodes_settled > 0);
        assert!(s.labels_inserted >= run.paths.len() as u64);
    }
}
