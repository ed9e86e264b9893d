//! A mutable directed graph over entity ids.
//!
//! The DDAG policy's database is "a rooted DAG representation `G`" whose
//! nodes *and edges* are entities; transactions insert and delete both.
//! This type is the mutable structure the policy engines maintain; the
//! invariants (acyclicity, rootedness) are checked by the [`crate::dag`]
//! and [`crate::rooted`] modules rather than enforced here, because the
//! paper's transactions are themselves responsible for maintaining them.
//!
//! Every graph carries a [`DiGraph::version`] stamp so that derived
//! structures (dominator trees, topological orders) can be cached per
//! graph state and rebuilt only when the graph changes.

use slp_core::EntityId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of every graph's content stamp. One counter for the whole
/// process: a stamp is never minted twice, so two graphs share a stamp
/// only if one is an unmutated clone of the other.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Errors from graph mutations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// The node already exists.
    NodeExists(EntityId),
    /// The node does not exist.
    NoSuchNode(EntityId),
    /// The edge already exists.
    EdgeExists(EntityId, EntityId),
    /// The edge does not exist.
    NoSuchEdge(EntityId, EntityId),
    /// Removing this node would orphan incident edges.
    NodeHasEdges(EntityId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeExists(n) => write!(f, "node {n} already exists"),
            GraphError::NoSuchNode(n) => write!(f, "node {n} does not exist"),
            GraphError::EdgeExists(a, b) => write!(f, "edge ({a}, {b}) already exists"),
            GraphError::NoSuchEdge(a, b) => write!(f, "edge ({a}, {b}) does not exist"),
            GraphError::NodeHasEdges(n) => write!(f, "node {n} still has incident edges"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed graph with deterministic iteration order (BTree-backed).
///
/// Equality compares nodes and edges only, never the
/// [`version`](DiGraph::version) stamp.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    nodes: BTreeSet<EntityId>,
    succ: BTreeMap<EntityId, BTreeSet<EntityId>>,
    pred: BTreeMap<EntityId, BTreeSet<EntityId>>,
    version: u64,
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges().eq(other.edges())
    }
}

impl Eq for DiGraph {}

impl DiGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph from node and edge lists.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an undeclared node or duplicates occur.
    pub fn from_parts(
        nodes: impl IntoIterator<Item = EntityId>,
        edges: impl IntoIterator<Item = (EntityId, EntityId)>,
    ) -> Self {
        let mut g = Self::new();
        for n in nodes {
            g.add_node(n).expect("duplicate node");
        }
        for (a, b) in edges {
            g.add_edge(a, b).expect("bad edge");
        }
        g
    }

    /// The content stamp: changes on every successful mutation and is
    /// never reused, so two graphs with equal stamps have equal content.
    /// A clone keeps its original's stamp until its own first mutation.
    /// An empty graph from [`DiGraph::new`] has stamp 0.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump(&mut self) {
        // Relaxed: the stamp only has to be unique. It publishes no data;
        // whoever shares the graph across threads orders its content.
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a node.
    pub fn add_node(&mut self, n: EntityId) -> Result<(), GraphError> {
        if !self.nodes.insert(n) {
            return Err(GraphError::NodeExists(n));
        }
        self.bump();
        Ok(())
    }

    /// Removes a node; all incident edges must have been removed first.
    pub fn remove_node(&mut self, n: EntityId) -> Result<(), GraphError> {
        if !self.nodes.contains(&n) {
            return Err(GraphError::NoSuchNode(n));
        }
        let has_edges = self.succ.get(&n).is_some_and(|s| !s.is_empty())
            || self.pred.get(&n).is_some_and(|p| !p.is_empty());
        if has_edges {
            return Err(GraphError::NodeHasEdges(n));
        }
        self.nodes.remove(&n);
        self.succ.remove(&n);
        self.pred.remove(&n);
        self.bump();
        Ok(())
    }

    /// Adds the edge `(a, b)`.
    pub fn add_edge(&mut self, a: EntityId, b: EntityId) -> Result<(), GraphError> {
        if !self.nodes.contains(&a) {
            return Err(GraphError::NoSuchNode(a));
        }
        if !self.nodes.contains(&b) {
            return Err(GraphError::NoSuchNode(b));
        }
        if !self.succ.entry(a).or_default().insert(b) {
            return Err(GraphError::EdgeExists(a, b));
        }
        self.pred.entry(b).or_default().insert(a);
        self.bump();
        Ok(())
    }

    /// Removes the edge `(a, b)`.
    pub fn remove_edge(&mut self, a: EntityId, b: EntityId) -> Result<(), GraphError> {
        let present = self.succ.get_mut(&a).is_some_and(|s| s.remove(&b));
        if !present {
            return Err(GraphError::NoSuchEdge(a, b));
        }
        self.pred.get_mut(&b).expect("pred mirrors succ").remove(&a);
        self.bump();
        Ok(())
    }

    /// Whether node `n` exists.
    pub fn has_node(&self, n: EntityId) -> bool {
        self.nodes.contains(&n)
    }

    /// Whether edge `(a, b)` exists.
    pub fn has_edge(&self, a: EntityId, b: EntityId) -> bool {
        self.succ.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// The nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All edges, in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        self.succ
            .iter()
            .flat_map(|(&a, succs)| succs.iter().map(move |&b| (a, b)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.values().map(BTreeSet::len).sum()
    }

    /// Successors of `n` (empty if absent).
    pub fn successors(&self, n: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.succ
            .get(&n)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Predecessors of `n` (empty if absent).
    pub fn predecessors(&self, n: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.pred
            .get(&n)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: EntityId) -> usize {
        self.pred.get(&n).map_or(0, BTreeSet::len)
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: EntityId) -> usize {
        self.succ.get(&n).map_or(0, BTreeSet::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn add_and_query_nodes_and_edges() {
        let mut g = DiGraph::new();
        g.add_node(e(1)).unwrap();
        g.add_node(e(2)).unwrap();
        g.add_edge(e(1), e(2)).unwrap();
        assert!(g.has_node(e(1)));
        assert!(g.has_edge(e(1), e(2)));
        assert!(!g.has_edge(e(2), e(1)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(e(1)).collect::<Vec<_>>(), vec![e(2)]);
        assert_eq!(g.predecessors(e(2)).collect::<Vec<_>>(), vec![e(1)]);
    }

    #[test]
    fn duplicate_nodes_and_edges_are_rejected() {
        let mut g = DiGraph::new();
        g.add_node(e(1)).unwrap();
        assert_eq!(g.add_node(e(1)), Err(GraphError::NodeExists(e(1))));
        g.add_node(e(2)).unwrap();
        g.add_edge(e(1), e(2)).unwrap();
        assert_eq!(
            g.add_edge(e(1), e(2)),
            Err(GraphError::EdgeExists(e(1), e(2)))
        );
    }

    #[test]
    fn edges_require_existing_endpoints() {
        let mut g = DiGraph::new();
        g.add_node(e(1)).unwrap();
        assert_eq!(g.add_edge(e(1), e(9)), Err(GraphError::NoSuchNode(e(9))));
        assert_eq!(g.add_edge(e(9), e(1)), Err(GraphError::NoSuchNode(e(9))));
    }

    #[test]
    fn node_removal_requires_no_incident_edges() {
        let mut g = DiGraph::from_parts([e(1), e(2)], [(e(1), e(2))]);
        assert_eq!(g.remove_node(e(1)), Err(GraphError::NodeHasEdges(e(1))));
        assert_eq!(g.remove_node(e(2)), Err(GraphError::NodeHasEdges(e(2))));
        g.remove_edge(e(1), e(2)).unwrap();
        assert!(g.remove_node(e(1)).is_ok());
        assert!(g.remove_node(e(2)).is_ok());
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn remove_missing_edge_errors() {
        let mut g = DiGraph::from_parts([e(1), e(2)], []);
        assert_eq!(
            g.remove_edge(e(1), e(2)),
            Err(GraphError::NoSuchEdge(e(1), e(2)))
        );
    }

    #[test]
    fn degrees() {
        let g = DiGraph::from_parts(
            [e(1), e(2), e(3)],
            [(e(1), e(2)), (e(1), e(3)), (e(2), e(3))],
        );
        assert_eq!(g.out_degree(e(1)), 2);
        assert_eq!(g.in_degree(e(3)), 2);
        assert_eq!(g.in_degree(e(1)), 0);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn successful_mutations_mint_fresh_versions() {
        let mut g = DiGraph::new();
        assert_eq!(g.version(), 0);
        g.add_node(e(1)).unwrap();
        let v1 = g.version();
        assert_ne!(v1, 0);
        assert!(g.add_node(e(1)).is_err());
        assert!(g.add_edge(e(1), e(9)).is_err());
        assert!(g.remove_edge(e(1), e(1)).is_err());
        assert_eq!(g.version(), v1, "failed mutations keep the stamp");
        let mut c = g.clone();
        assert_eq!(c.version(), v1, "a clone carries the stamp");
        c.add_node(e(2)).unwrap();
        assert_ne!(c.version(), v1);
        assert_eq!(g.version(), v1);
        c.add_edge(e(1), e(2)).unwrap();
        let v2 = c.version();
        c.remove_edge(e(1), e(2)).unwrap();
        let v3 = c.version();
        c.remove_node(e(2)).unwrap();
        assert!(v1 < v2 && v2 < v3 && v3 < c.version());
    }

    #[test]
    fn equality_ignores_version_and_emptied_adjacency() {
        let a = DiGraph::from_parts([e(1), e(2)], [(e(1), e(2))]);
        let mut b = DiGraph::from_parts([e(2), e(1), e(3)], [(e(2), e(3))]);
        b.remove_edge(e(2), e(3)).unwrap();
        b.remove_node(e(3)).unwrap();
        b.add_edge(e(1), e(2)).unwrap();
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b);
        b.remove_edge(e(1), e(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn iteration_is_deterministic() {
        let g = DiGraph::from_parts([e(3), e(1), e(2)], [(e(3), e(1)), (e(2), e(1))]);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![e(1), e(2), e(3)]);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![(e(2), e(1)), (e(3), e(1))]
        );
    }
}
