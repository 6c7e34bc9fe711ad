//! Reference answers for every request of a pool, computed untimed by
//! algorithms independent of the served tier.
//!
//! * Facility requests: the straightforward baseline of the paper's
//!   Section IV — `d` complete network expansions per location, then a
//!   main-memory skyline or a sort by aggregate cost. The expansions run
//!   as plain Dijkstra over the in-memory graph
//!   (`mcn_expansion::oracle::facility_cost_vectors`): it reads no paged
//!   store, does not use the `Expansion` type LSA and CEA run on, and is
//!   ~15× faster than `baseline_skyline`/`baseline_topk` over a store. The skyline is
//!   the block-nested-loops pass `baseline_skyline` runs, the top-k the
//!   ordering `baseline_topk` uses; the first skyline and the first top-k
//!   request are also answered by `baseline_skyline` and `baseline_topk`
//!   themselves as a cross-check. Answers compare as sets of
//!   (facility, cost bits).
//! * `routes-prep`: plain Dijkstra `scalarized_path` and the unprepped
//!   label-correcting `pareto_paths`.
//! * `routes-index`: the prep tier (`scalarized_path_astar`,
//!   `pareto_paths_prepped`), which the index must reproduce bit for bit.
//!
//! Route answers compare by [`QueryOutput::fingerprint`].

use mcn_alpha::{scalarized_path, scalarized_path_astar};
use mcn_core::{baseline_skyline, baseline_topk, AggregateCost, WeightedSum};
use mcn_engine::{QueryOutput, QueryRequest};
use mcn_expansion::oracle::facility_cost_vectors;
use mcn_graph::{CostVec, FacilityId, MultiCostGraph, NetworkLocation, NodeId};
use mcn_mcpp::{pareto_paths, pareto_paths_prepped};
use mcn_prep::PrepTable;
use mcn_storage::{BufferConfig, MCNStore};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One facility answer: (facility, raw bits of each cost).
pub type FacilitySet = BTreeSet<(u32, Vec<u64>)>;

pub enum Oracle {
    Facilities(Vec<FacilitySet>),
    Fingerprints(Vec<String>),
}

fn entry(facility: FacilityId, costs: &CostVec) -> (u32, Vec<u64>) {
    (facility.raw(), costs.iter().map(f64::to_bits).collect())
}

/// The answer set of a facility output; `None` for a route output.
fn facility_set(output: &QueryOutput) -> Option<FacilitySet> {
    match output {
        QueryOutput::Skyline(v) => Some(v.iter().map(|f| entry(f.facility, &f.costs)).collect()),
        QueryOutput::TopK(v) => Some(v.iter().map(|e| entry(e.facility, &e.costs)).collect()),
        QueryOutput::Paths(_) | QueryOutput::AlphaPath(_) => None,
    }
}

impl Oracle {
    /// Whether `output` is the reference answer of pool request `i`.
    pub fn matches(&self, i: usize, output: &QueryOutput) -> bool {
        match self {
            Oracle::Facilities(sets) => facility_set(output).as_ref() == Some(&sets[i]),
            Oracle::Fingerprints(prints) => output.fingerprint() == prints[i],
        }
    }
}

/// Runs `answer` over `items` on `threads` threads, keeping input order.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    answer: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let answer = &answer;
                scope.spawn(move || part.iter().map(answer).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Reference answers of a facility pool over `graph`.
pub fn facility_oracle(graph: &MultiCostGraph, pool: &[QueryRequest], threads: usize) -> Oracle {
    let mut locations: Vec<NetworkLocation> = Vec::new();
    for r in pool {
        if !locations.contains(&r.location()) {
            locations.push(r.location());
        }
    }
    let answered: Vec<Vec<(usize, FacilitySet)>> = parallel_map(&locations, threads, |&loc| {
        let items: Vec<(FacilityId, CostVec)> = facility_cost_vectors(graph, loc)
            .into_iter()
            .enumerate()
            .map(|(f, costs)| (FacilityId::from(f), costs))
            .collect();
        let skyline: FacilitySet = mcn_skyline::block_nested_loops(&items)
            .into_iter()
            .map(|i| entry(items[i].0, &items[i].1))
            .collect();
        pool.iter()
            .enumerate()
            .filter(|(_, r)| r.location() == loc)
            .map(|(i, r)| {
                let set = match r {
                    QueryRequest::Skyline { .. } => skyline.clone(),
                    QueryRequest::TopK { weights, k, .. }
                    | QueryRequest::TopKIncremental {
                        weights, take: k, ..
                    } => top_k(&items, &WeightedSum::new(weights.clone()), *k),
                    other => panic!("not a facility request: {other:?}"),
                };
                (i, set)
            })
            .collect()
    });
    let mut sets: BTreeMap<usize, FacilitySet> = BTreeMap::new();
    sets.extend(answered.into_iter().flatten());
    assert_eq!(sets.len(), pool.len(), "every pool request has an answer");
    cross_check(graph, pool, &sets);
    Oracle::Facilities(sets.into_values().collect())
}

/// Checks the oracle against the paged baselines on the first skyline and
/// the first top-k request of the pool.
fn cross_check(graph: &MultiCostGraph, pool: &[QueryRequest], sets: &BTreeMap<usize, FacilitySet>) {
    let store = Arc::new(
        MCNStore::build_in_memory(graph, BufferConfig::Fraction(1.0))
            .expect("build the baseline store"),
    );
    let first = |pick: fn(&QueryRequest) -> bool| {
        pool.iter()
            .position(pick)
            .expect("the pool holds every request kind")
    };
    let i = first(|r| matches!(r, QueryRequest::Skyline { .. }));
    let baseline: FacilitySet = baseline_skyline(&store, pool[i].location())
        .facilities
        .iter()
        .map(|f| entry(f.facility, &f.costs))
        .collect();
    assert_eq!(
        baseline, sets[&i],
        "oracle skyline disagrees with baseline_skyline"
    );
    let i = first(|r| matches!(r, QueryRequest::TopK { .. }));
    let QueryRequest::TopK { weights, k, .. } = &pool[i] else {
        unreachable!("position found a top-k request")
    };
    let aggregate = WeightedSum::new(weights.clone());
    let baseline: FacilitySet = baseline_topk(&store, pool[i].location(), aggregate, *k)
        .entries
        .iter()
        .map(|e| entry(e.facility, &e.costs))
        .collect();
    assert_eq!(
        baseline, sets[&i],
        "oracle top-k disagrees with baseline_topk"
    );
}

/// The `k` facilities of least aggregate cost, ties to the lower id — the
/// order `baseline_topk` ranks by.
fn top_k(items: &[(FacilityId, CostVec)], aggregate: &WeightedSum, k: usize) -> FacilitySet {
    let mut scored: Vec<(f64, FacilityId, &CostVec)> = items
        .iter()
        .map(|(f, c)| (aggregate.score(c), *f, c))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored
        .iter()
        .take(k)
        .map(|(_, f, c)| entry(*f, c))
        .collect()
}

/// Reference answers of a route pool: Dijkstra and unprepped label
/// setting, or — `via_prep` — the prep tier.
pub fn route_oracle(
    graph: &MultiCostGraph,
    pool: &[QueryRequest],
    via_prep: bool,
    threads: usize,
) -> Oracle {
    let mut targets: Vec<NodeId> = Vec::new();
    for r in pool {
        if let QueryRequest::PathSkyline { target, .. } | QueryRequest::AlphaPath { target, .. } = r
        {
            if !targets.contains(target) {
                targets.push(*target);
            }
        }
    }
    let tables: BTreeMap<NodeId, PrepTable> = if via_prep {
        targets
            .iter()
            .zip(parallel_map(&targets, threads, |&t| {
                PrepTable::build(graph, t)
            }))
            .map(|(t, table)| (*t, table))
            .collect()
    } else {
        BTreeMap::new()
    };
    let prints = parallel_map(pool, threads, |r| {
        let output = match r {
            QueryRequest::PathSkyline { source, target } => QueryOutput::Paths(if via_prep {
                pareto_paths_prepped(graph, *source, *target, &tables[target]).paths
            } else {
                pareto_paths(graph, *source, *target)
            }),
            QueryRequest::AlphaPath {
                source,
                target,
                alpha,
            } => QueryOutput::AlphaPath(if via_prep {
                scalarized_path_astar(graph, *source, *target, alpha, &tables[target]).path
            } else {
                scalarized_path(graph, *source, *target, alpha).path
            }),
            other => panic!("not a route request: {other:?}"),
        };
        output.fingerprint()
    });
    Oracle::Fingerprints(prints)
}
