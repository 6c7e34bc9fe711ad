//! The lexicographic label-setting Pareto kernel behind this crate's path
//! skylines and `mcn-index`'s upward searches. Labels live in an arena of
//! `(node, costs, parent, step)` records; each node keeps its Pareto set as
//! sorted `(costs, label)` pairs. A heap pops labels in lexicographic order
//! of a caller-chosen key (the costs, or a NAMOA*-style bound `costs + L`),
//! label id breaking ties. Each label is expanded at most once; with
//! non-negative costs and a consistent key a dominating label pops first,
//! so an expanded label is never evicted (Martins), and a label evicted
//! before its turn is skipped. Paths are rebuilt from parent pointers
//! ([`ParetoSearch::steps`]) only where reported.

use mcn_graph::{dominates, dominates_weak, CostVec, MAX_COST_TYPES};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Arena id of a label.
pub type LabelId = u32;

#[derive(Clone, Copy)]
struct Label {
    node: u32,
    costs: CostVec,
    parent: LabelId,
    step: u32,
}

/// Heap key that orders like [`CostVec::lex_cmp`]: per component, the
/// integer image of the IEEE total order that `f64::total_cmp` compares.
fn lex_key(costs: &CostVec) -> [i64; MAX_COST_TYPES] {
    let mut key = [0; MAX_COST_TYPES];
    for (k, c) in key.iter_mut().zip(costs.iter()) {
        let bits = c.to_bits() as i64;
        *k = bits ^ (((bits >> 63) as u64) >> 1) as i64;
    }
    key
}

/// One label-setting search: the label arena, the per-node Pareto sets and
/// the min-heap. Callers drive it with [`pop`](Self::pop) and
/// [`push`](Self::push) and apply their own pruning in between.
pub struct ParetoSearch {
    labels: Vec<Label>,
    sets: Vec<Vec<(CostVec, LabelId)>>,
    heap: BinaryHeap<Reverse<([i64; MAX_COST_TYPES], LabelId)>>,
    /// Pops that found their label already evicted.
    pub skipped: u64,
}

impl ParetoSearch {
    /// A search over `num_nodes` nodes seeded with the zero-cost root label
    /// at `source`.
    pub fn new(num_nodes: usize, source: u32, dims: usize) -> Self {
        let mut search = Self {
            labels: Vec::new(),
            sets: vec![Vec::new(); num_nodes],
            heap: BinaryHeap::new(),
            skipped: 0,
        };
        let zero = CostVec::zeros(dims);
        search.push(source, zero, zero, LabelId::MAX, u32::MAX);
        search
    }

    /// The next label in key order as `(id, node, costs)`, skipping labels
    /// evicted since they were queued.
    pub fn pop(&mut self) -> Option<(LabelId, u32, CostVec)> {
        while let Some(Reverse((_, id))) = self.heap.pop() {
            let Label { node, costs, .. } = self.labels[id as usize];
            let set = &self.sets[node as usize];
            let pos = set.partition_point(|(c, _)| c.lex_cmp(&costs).is_lt());
            if set.get(pos).is_some_and(|&(_, member)| member == id) {
                return Some((id, node, costs));
            }
            self.skipped += 1;
        }
        None
    }

    /// Offers the label `costs` at `node`, extending `parent` over the
    /// caller's arc id `step`, queued under `key`. Returns `None` when a
    /// label at `node` weakly dominates it, else how many labels it evicted.
    pub fn push(
        &mut self,
        node: u32,
        costs: CostVec,
        key: CostVec,
        parent: LabelId,
        step: u32,
    ) -> Option<usize> {
        let id = self.labels.len() as LabelId;
        let evicted = pareto_insert(&mut self.sets[node as usize], (costs, id))?;
        self.labels.push(Label {
            node,
            costs,
            parent,
            step,
        });
        self.heap.push(Reverse((lex_key(&key), id)));
        Some(evicted)
    }

    /// The Pareto set of `node`, lexicographically sorted by cost vector.
    pub fn set(&self, node: u32) -> &[(CostVec, LabelId)] {
        &self.sets[node as usize]
    }

    /// The arc ids of label `id`'s path, from the label back to the source.
    pub fn steps(&self, id: LabelId) -> impl Iterator<Item = u32> + '_ {
        let mut cur = id;
        std::iter::from_fn(move || {
            let label = &self.labels[cur as usize];
            cur = label.parent;
            (label.parent != LabelId::MAX).then_some(label.step)
        })
    }
}

/// A member of a Pareto set kept lexicographically sorted by cost vector.
pub trait ParetoMember {
    /// The member's cost vector.
    fn costs(&self) -> &CostVec;
}

impl<T> ParetoMember for (CostVec, T) {
    fn costs(&self) -> &CostVec {
        &self.0
    }
}

/// True iff some member of the sorted Pareto `set` weakly dominates
/// `costs`. At `d == 2` the sorted order is the sorted-sweep front of
/// [`mcn_graph::Front2`], so one binary search decides; general `d` scans.
pub fn pareto_dominated<M: ParetoMember>(set: &[M], costs: &CostVec) -> bool {
    if costs.len() == 2 {
        let idx = set.partition_point(|m| m.costs()[0].total_cmp(&costs[0]).is_le());
        idx > 0 && set[idx - 1].costs()[1] <= costs[1]
    } else {
        set.iter().any(|m| dominates_weak(m.costs(), costs))
    }
}

/// Merges `member` into the sorted Pareto `set`: `None` when a member
/// weakly dominates it, else it evicts the members it strictly dominates,
/// joins in sorted position and the evicted count is returned.
pub fn pareto_insert<M: ParetoMember>(set: &mut Vec<M>, member: M) -> Option<usize> {
    let costs = *member.costs();
    if pareto_dominated(set, &costs) {
        return None;
    }
    let before = set.len();
    set.retain(|m| !dominates(&costs, m.costs()));
    let evicted = before - set.len();
    let pos = set.partition_point(|m| m.costs().lex_cmp(&costs).is_lt());
    set.insert(pos, member);
    Some(evicted)
}
