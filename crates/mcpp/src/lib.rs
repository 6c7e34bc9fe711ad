//! # mcn-mcpp
//!
//! **Multi-criteria Pareto path computation** (MCPP): given a source and a
//! destination node in a multi-cost network, compute the *skyline of paths*
//! between them — every path whose cost vector is not dominated by the cost
//! vector of another path.
//!
//! This is the operations-research problem the paper contrasts with its MCN
//! skyline (Section II-D): MCPP produces a skyline of *paths* to a single,
//! given destination, whereas the MCN skyline is a skyline of *facilities*
//! reached via each cost type's own shortest path. The crate exists
//!
//! * as the classic related-work baseline (lexicographic label-setting in
//!   the style of Martins, on the [`ParetoSearch`] kernel `mcn-index` shares);
//! * to cross-validate the per-cost shortest path distances used elsewhere:
//!   the component-wise minimum over the Pareto path set equals the vector of
//!   single-criterion shortest-path distances;
//! * as the serving layer for **pruned** path-skyline queries:
//!   [`pareto_paths_prepped`] accelerates the search with the per-cost lower
//!   bounds of a `mcn-prep` [`PrepTable`](mcn_prep::PrepTable) (ParetoPrep,
//!   Shekelyan et al.), producing byte-identical skylines with a fraction of
//!   the labels; [`PathStats`] makes the reduction measurable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernel;
pub mod label;
pub mod stats;

pub use kernel::{pareto_dominated, pareto_insert, LabelId, ParetoMember, ParetoSearch};
pub use label::{
    componentwise_minimum, pareto_paths, pareto_paths_exhaustive, pareto_paths_prepped,
    pareto_paths_with_stats, ParetoLabel, PathSkylineResult,
};
pub use stats::PathStats;

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{CostVec, GraphBuilder, NodeId};

    #[test]
    fn crate_level_smoke_test() {
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 5.0])).unwrap();
        b.add_edge(a, c, CostVec::from_slice(&[5.0, 1.0])).unwrap();
        let g = b.build().unwrap();
        let paths = pareto_paths(&g, a, NodeId::new(1));
        assert_eq!(paths.len(), 2);
    }
}
