//! Dominators (Section 4).
//!
//! "A *dominator* `D` of a set of nodes `W` is a node such that every path
//! from the root to a node in `W` passes through `D`. Thus, in a rooted
//! graph, the root dominates all the nodes in the graph including itself."
//!
//! Lemma 3(a) — the key structural property of DDAG-locked transactions —
//! says every entity locked by a transaction is dominated (in the graph as
//! of the transaction's start) by the first entity it locked. The safety
//! proof, the policy validator, and the property tests all consult this
//! module.
//!
//! Two representations: [`dominator_sets`] spells out every node's full
//! dominator set (the definition, used by the `dominates*` helpers and the
//! tests), while [`immediate_dominators`] builds the [`DominatorTree`],
//! which answers the DDAG planner's one query — the lowest common
//! dominator of a transaction's targets — by walking parent links.

use crate::digraph::DiGraph;
use slp_core::EntityId;
use std::collections::{BTreeMap, BTreeSet};

/// The dominator sets of every node reachable from `root`: `dom(n)` is the
/// set of nodes through which *every* path from `root` to `n` passes
/// (including `n` and `root` themselves).
///
/// Classic iterative dataflow: `dom(root) = {root}`,
/// `dom(n) = {n} ∪ ⋂_{p ∈ preds(n)} dom(p)`, iterated to fixpoint.
pub fn dominator_sets(g: &DiGraph, root: EntityId) -> BTreeMap<EntityId, BTreeSet<EntityId>> {
    let reachable = crate::reach::reachable_from(g, root);
    let mut dom: BTreeMap<EntityId, BTreeSet<EntityId>> = BTreeMap::new();
    if reachable.is_empty() {
        return dom;
    }
    let all: BTreeSet<EntityId> = reachable.iter().copied().collect();
    for &n in &reachable {
        if n == root {
            dom.insert(n, BTreeSet::from([root]));
        } else {
            dom.insert(n, all.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &n in &reachable {
            if n == root {
                continue;
            }
            let mut new: Option<BTreeSet<EntityId>> = None;
            for p in g.predecessors(n) {
                if !reachable.contains(&p) {
                    continue;
                }
                let pd = &dom[&p];
                new = Some(match new {
                    None => pd.clone(),
                    Some(acc) => acc.intersection(pd).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(n);
            if dom[&n] != new {
                dom.insert(n, new);
                changed = true;
            }
        }
    }
    dom
}

/// The dominator tree of the nodes reachable from a root: each node's
/// immediate dominator (its closest strict dominator) and its depth below
/// the root. Built by [`immediate_dominators`].
#[derive(Clone, Debug)]
pub struct DominatorTree {
    /// Reverse-postorder number of each reachable node.
    index: BTreeMap<EntityId, usize>,
    /// The reachable nodes in reverse postorder; `nodes[0]` is the root.
    nodes: Vec<EntityId>,
    /// Immediate dominator by reverse-postorder number (`idom[0] == 0`).
    idom: Vec<usize>,
    /// Depth in the dominator tree (the root has depth 0).
    depth: Vec<usize>,
}

impl DominatorTree {
    /// The immediate dominator of `n`; `None` for the root and for nodes
    /// not reachable from it.
    pub fn idom(&self, n: EntityId) -> Option<EntityId> {
        let i = *self.index.get(&n)?;
        (i != 0).then(|| self.nodes[self.idom[i]])
    }

    /// The depth of `n` in the dominator tree — the number of its strict
    /// dominators; `None` for nodes not reachable from the root.
    pub fn depth(&self, n: EntityId) -> Option<usize> {
        self.index.get(&n).map(|&i| self.depth[i])
    }

    /// The lowest common dominator of `a` and `b`: the dominator of both
    /// that every other common dominator dominates. `None` if either is
    /// unreachable from the root.
    ///
    /// Lifts the deeper node to the other's depth, then walks both up in
    /// step until they meet.
    pub fn lowest_common_dominator(&self, a: EntityId, b: EntityId) -> Option<EntityId> {
        let (mut a, mut b) = (*self.index.get(&a)?, *self.index.get(&b)?);
        while self.depth[a] > self.depth[b] {
            a = self.idom[a];
        }
        while self.depth[b] > self.depth[a] {
            b = self.idom[b];
        }
        while a != b {
            a = self.idom[a];
            b = self.idom[b];
        }
        Some(self.nodes[a])
    }
}

/// The dominator tree of the nodes reachable from `root` (empty if `root`
/// is not a node).
///
/// Cooper, Harvey and Kennedy's iterative algorithm: number the reachable
/// nodes in reverse postorder, then set each node's idom to the
/// intersection (nearest common tree ancestor) of its processed
/// predecessors' idoms until nothing changes. On a DAG reverse postorder
/// is topological, so the second pass only confirms the first.
pub fn immediate_dominators(g: &DiGraph, root: EntityId) -> DominatorTree {
    let mut nodes = Vec::new();
    if g.has_node(root) {
        // Iterative DFS postorder, successors in id order.
        let mut seen = BTreeSet::from([root]);
        let mut stack = vec![(root, g.successors(root))];
        while let Some((n, succs)) = stack.last_mut() {
            let n = *n;
            match succs.next() {
                Some(s) => {
                    if seen.insert(s) {
                        stack.push((s, g.successors(s)));
                    }
                }
                None => {
                    nodes.push(n);
                    stack.pop();
                }
            }
        }
        nodes.reverse();
    }
    let index: BTreeMap<EntityId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    const UNSET: usize = usize::MAX;
    let mut idom = vec![UNSET; nodes.len()];
    if let Some(first) = idom.first_mut() {
        *first = 0;
    }
    let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while a > b {
                a = idom[a];
            }
            while b > a {
                b = idom[b];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..nodes.len() {
            let mut new = UNSET;
            for p in g.predecessors(nodes[i]) {
                // Unreachable predecessors have no index and are skipped.
                let Some(&j) = index.get(&p) else { continue };
                if idom[j] == UNSET {
                    continue;
                }
                new = if new == UNSET {
                    j
                } else {
                    intersect(&idom, j, new)
                };
            }
            if idom[i] != new {
                idom[i] = new;
                changed = true;
            }
        }
    }
    // An idom precedes its node in reverse postorder, so one forward pass
    // fills every depth.
    let mut depth = vec![0; nodes.len()];
    for i in 1..nodes.len() {
        depth[i] = depth[idom[i]] + 1;
    }
    DominatorTree {
        index,
        nodes,
        idom,
        depth,
    }
}

/// Whether `d` dominates node `w` with respect to `root`: every path from
/// `root` to `w` passes through `d`. If `w` is unreachable from `root`
/// there are no such paths and the condition holds vacuously — callers in
/// the DDAG policy only ask about reachable nodes of a rooted graph.
pub fn dominates(g: &DiGraph, root: EntityId, d: EntityId, w: EntityId) -> bool {
    let sets = dominator_sets(g, root);
    match sets.get(&w) {
        Some(set) => set.contains(&d),
        None => true, // unreachable: vacuous
    }
}

/// Whether `d` dominates *every* node in `ws`.
pub fn dominates_all<'a>(
    g: &DiGraph,
    root: EntityId,
    d: EntityId,
    ws: impl IntoIterator<Item = &'a EntityId>,
) -> bool {
    let sets = dominator_sets(g, root);
    ws.into_iter().all(|w| match sets.get(w) {
        Some(set) => set.contains(&d),
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Diamond: 1 -> {2, 3} -> 4, plus 4 -> 5.
    fn diamond_tail() -> DiGraph {
        DiGraph::from_parts(
            [e(1), e(2), e(3), e(4), e(5)],
            [
                (e(1), e(2)),
                (e(1), e(3)),
                (e(2), e(4)),
                (e(3), e(4)),
                (e(4), e(5)),
            ],
        )
    }

    #[test]
    fn root_dominates_everything_including_itself() {
        let g = diamond_tail();
        for n in [1, 2, 3, 4, 5] {
            assert!(dominates(&g, e(1), e(1), e(n)), "root should dominate e{n}");
        }
    }

    #[test]
    fn every_node_dominates_itself() {
        let g = diamond_tail();
        for n in [1, 2, 3, 4, 5] {
            assert!(dominates(&g, e(1), e(n), e(n)));
        }
    }

    #[test]
    fn diamond_arms_do_not_dominate_join() {
        let g = diamond_tail();
        assert!(!dominates(&g, e(1), e(2), e(4)));
        assert!(!dominates(&g, e(1), e(3), e(4)));
        // But the join dominates the tail.
        assert!(dominates(&g, e(1), e(4), e(5)));
    }

    #[test]
    fn dominator_sets_match_hand_computation() {
        let g = diamond_tail();
        let dom = dominator_sets(&g, e(1));
        assert_eq!(dom[&e(4)], BTreeSet::from([e(1), e(4)]));
        assert_eq!(dom[&e(5)], BTreeSet::from([e(1), e(4), e(5)]));
        assert_eq!(dom[&e(2)], BTreeSet::from([e(1), e(2)]));
    }

    #[test]
    fn dominates_all_over_a_set() {
        let g = diamond_tail();
        let ws = [e(4), e(5)];
        assert!(dominates_all(&g, e(1), e(4), ws.iter()));
        assert!(!dominates_all(&g, e(1), e(2), ws.iter()));
    }

    #[test]
    fn chain_dominators() {
        let g = DiGraph::from_parts([e(1), e(2), e(3)], [(e(1), e(2)), (e(2), e(3))]);
        assert!(dominates(&g, e(1), e(2), e(3)));
        assert!(!dominates(&g, e(1), e(3), e(2)));
    }

    #[test]
    fn dominator_tree_of_the_diamond_tail() {
        let t = immediate_dominators(&diamond_tail(), e(1));
        assert_eq!(t.idom(e(1)), None);
        assert_eq!(t.depth(e(1)), Some(0));
        assert_eq!(t.idom(e(2)), Some(e(1)));
        assert_eq!(t.idom(e(4)), Some(e(1)), "the join skips both arms");
        assert_eq!(t.idom(e(5)), Some(e(4)));
        assert_eq!(t.depth(e(5)), Some(2));
        assert_eq!(t.lowest_common_dominator(e(2), e(3)), Some(e(1)));
        assert_eq!(t.lowest_common_dominator(e(5), e(4)), Some(e(4)));
        assert_eq!(t.lowest_common_dominator(e(5), e(5)), Some(e(5)));
        assert_eq!(t.lowest_common_dominator(e(2), e(5)), Some(e(1)));
    }

    #[test]
    fn dominator_tree_skips_unreachable_nodes_and_absent_roots() {
        let g = DiGraph::from_parts([e(1), e(2), e(9)], [(e(9), e(2)), (e(1), e(2))]);
        let t = immediate_dominators(&g, e(1));
        assert_eq!(
            t.idom(e(2)),
            Some(e(1)),
            "the unreachable parent is ignored"
        );
        assert_eq!(t.depth(e(9)), None);
        assert_eq!(t.lowest_common_dominator(e(2), e(9)), None);
        let absent = immediate_dominators(&g, e(7));
        assert!(g.nodes().all(|n| absent.depth(n).is_none()));
    }

    #[test]
    fn unreachable_node_is_vacuously_dominated() {
        let g = DiGraph::from_parts([e(1), e(2), e(9)], [(e(1), e(2))]);
        assert!(dominates(&g, e(1), e(2), e(9)));
    }

    /// Brute-force check on a small fixed graph: enumerate all simple paths
    /// from the root and verify the dataflow answer agrees with the
    /// path-based definition.
    #[test]
    fn dataflow_agrees_with_path_enumeration() {
        let g = DiGraph::from_parts(
            [e(0), e(1), e(2), e(3), e(4)],
            [
                (e(0), e(1)),
                (e(0), e(2)),
                (e(1), e(3)),
                (e(2), e(3)),
                (e(1), e(4)),
                (e(3), e(4)),
            ],
        );
        fn all_paths(
            g: &DiGraph,
            from: EntityId,
            to: EntityId,
            path: &mut Vec<EntityId>,
            out: &mut Vec<Vec<EntityId>>,
        ) {
            path.push(from);
            if from == to {
                out.push(path.clone());
            } else {
                for s in g.successors(from) {
                    if !path.contains(&s) {
                        all_paths(g, s, to, path, out);
                    }
                }
            }
            path.pop();
        }
        let dom = dominator_sets(&g, e(0));
        for w in g.nodes() {
            let mut paths = Vec::new();
            all_paths(&g, e(0), w, &mut Vec::new(), &mut paths);
            for d in g.nodes() {
                let by_paths = !paths.is_empty() && paths.iter().all(|p| p.contains(&d));
                let by_dataflow = dom[&w].contains(&d);
                assert_eq!(by_paths, by_dataflow, "dominates({d}, {w}) mismatch");
            }
        }
    }
}
