//! One generic adapter over every policy: [`EngineAdapter`] drives any
//! [`PolicyEngine`] from per-transaction action plans produced by a
//! per-policy [`ActionPlanner`].
//!
//! The planner split is what distinguishes policies that share an engine:
//! strict 2PL and altruistic locking both run on a plain lock manager, but
//! the [`TwoPhasePlanner`] holds every lock to the end while the
//! [`AltruisticPlanner`] donates each target as soon as the next lock is
//! acquired. The [`DdagPlanner`] lays dominator-closed traversal regions
//! over the engine's *current* graph (so concurrent structural changes
//! surface later as policy violations — abort + replan, as in Fig. 3),
//! and the [`DtrPlanner`] defers entirely to the engine, which precomputes
//! tree-locked plans per rule DT2.
//!
//! Use [`build_adapter`] to construct the adapter for any
//! [`PolicyKind`] through a [`PolicyRegistry`]:
//!
//! ```
//! use slp_core::EntityId;
//! use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};
//! use slp_sim::{build_adapter, run_sim, uniform_jobs, SimConfig};
//!
//! let registry = PolicyRegistry::new();
//! let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
//! let jobs = uniform_jobs(&pool, 10, 2, 7);
//! let mut adapter =
//!     build_adapter(&registry, PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
//! let report = run_sim(&mut adapter, &jobs, &SimConfig::default());
//! assert_eq!(report.committed, 10);
//! ```

use crate::adapter::{Advance, PolicyAdapter};
use crate::job::Job;
use rustc_hash::FxHashMap;
use slp_core::{EntityId, Step, StructuralState, TxId};
use slp_graph::dominators::{self, DominatorTree};
use slp_graph::{dag, rooted, DiGraph};
use slp_policies::{
    AccessIntent, PlanViolation, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind,
    PolicyRegistry, PolicyResponse, PolicyViolation, RegistryError,
};
use std::collections::BTreeSet;

/// Translates [`Job`]s into [`PolicyAction`] plans for one policy.
///
/// A planner may lay the plan itself (against the engine's current shared
/// state) or return `Ok(None)` to defer to the engine's own plan from
/// [`PolicyEngine::begin`] (plan-precomputing policies, rule DT2).
pub trait ActionPlanner {
    /// The access set `job` declares at `begin` (plan-precomputing
    /// policies require it; on-demand policies ignore it).
    fn intent(&self, job: &Job) -> AccessIntent;

    /// Plans the actions realizing `job`, or `Ok(None)` to use the
    /// engine's own precomputed plan.
    ///
    /// The engine is borrowed shared: planners only *read* engine state
    /// (the DDAG planner lays regions over [`PolicyEngine::graph`]), which
    /// lets the threaded runtime plan under a read lock while other
    /// workers' grant decisions proceed.
    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation>;
}

// ---------------------------------------------------------------------
// Flat-pool planners: 2PL and altruistic
// ---------------------------------------------------------------------

/// Strict 2PL: lock each target on demand in job order, access it, release
/// everything only at commit (the adapter's implicit `finish`).
pub struct TwoPhasePlanner;

impl ActionPlanner for TwoPhasePlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        _engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let mut plan = Vec::with_capacity(job.targets.len() * 2);
        for &t in &job.targets {
            plan.push(PolicyAction::Lock(t));
            plan.push(PolicyAction::Access(t));
        }
        Ok(Some(plan))
    }
}

/// Altruistic locking with eager donation: target `i` is donated as soon
/// as target `i + 1`'s lock is acquired, so short transactions can run in
/// the long transaction's wake.
pub struct AltruisticPlanner;

impl ActionPlanner for AltruisticPlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        _engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let mut plan = Vec::new();
        for (i, &t) in job.targets.iter().enumerate() {
            plan.push(PolicyAction::Lock(t));
            if i == job.targets.len() - 1 {
                plan.push(PolicyAction::LockedPoint);
            }
            if i > 0 {
                // Donate the previous target now that the next lock is held.
                plan.push(PolicyAction::Unlock(job.targets[i - 1]));
            }
            plan.push(PolicyAction::Access(t));
        }
        Ok(Some(plan))
    }
}

// ---------------------------------------------------------------------
// DDAG planner
// ---------------------------------------------------------------------

/// DDAG traversals and structural inserts over the engine's shared rooted
/// DAG.
///
/// The planner caches what every traversal plan needs from the graph —
/// rootedness, the [`DominatorTree`] and each node's topological position
/// — keyed by the graph's [`DiGraph::version`] stamp, and rebuilds it only
/// when the stamp differs. A stale hit is impossible: stamps are minted
/// from one process-wide counter on every successful mutation, so two
/// graphs (even in different engines, or a graph and its clone after
/// either is mutated) share a stamp only if their content is equal. Keep
/// one planner per worker for the whole run; it rebuilds once per graph
/// mutation it observes.
#[derive(Default)]
pub struct DdagPlanner {
    cache: Option<Layout>,
}

/// The version-stamped graph facts a traversal plan reads.
struct Layout {
    version: u64,
    /// `None` if the graph is not rooted.
    dom: Option<DominatorTree>,
    /// Each node's index in [`dag::topological_sort`]; `None` if the graph
    /// is cyclic (or not rooted — never consulted then).
    topo_pos: Option<FxHashMap<EntityId, usize>>,
}

impl Layout {
    fn of(g: &DiGraph) -> Self {
        let dom = rooted::root(g).map(|root| dominators::immediate_dominators(g, root));
        let topo_pos = dom.as_ref().and_then(|_| {
            let topo = dag::topological_sort(g)?;
            Some(topo.into_iter().enumerate().map(|(i, n)| (n, i)).collect())
        });
        Layout {
            version: g.version(),
            dom,
            topo_pos,
        }
    }
}

impl DdagPlanner {
    /// Plans a traversal: the dominator-closed region covering `targets`,
    /// locked in topological order with crawling release. Planned against
    /// the *current* graph — concurrent structural changes surface later
    /// as policy violations (abort + replan), as in Fig. 3.
    ///
    /// Reads the cached [`Layout`] for `g`'s version (rebuilding it on a
    /// miss): the start node is the lowest common dominator of the targets
    /// by idom walk, and the region is ordered by cached topological
    /// position.
    fn plan_traversal(
        &mut self,
        g: &DiGraph,
        targets: &[EntityId],
    ) -> Result<Vec<PolicyAction>, PolicyViolation> {
        if targets.is_empty() {
            return Err(PlanViolation::EmptyJob.into());
        }
        if self.cache.as_ref().map(|c| c.version) != Some(g.version()) {
            self.cache = Some(Layout::of(g));
        }
        let layout = self.cache.as_ref().expect("filled above");
        let dom = layout.dom.as_ref().ok_or(PlanViolation::NotRooted)?;
        for &t in targets {
            if !g.has_node(t) {
                return Err(PlanViolation::TargetMissing(t).into());
            }
        }
        // Lowest common dominator of all targets (Lemma 3(a): the first
        // lock must dominate everything the transaction locks).
        let mut start = targets[0];
        for &t in &targets[1..] {
            start = dom
                .lowest_common_dominator(start, t)
                .ok_or(PlanViolation::UnreachableFromRoot(t))?;
        }
        let pos = layout.topo_pos.as_ref().ok_or(PlanViolation::CyclicGraph)?;
        // Region: predecessor closure from the targets up to `start`.
        let mut region: BTreeSet<EntityId> = targets.iter().copied().collect();
        region.insert(start);
        let mut frontier: Vec<EntityId> = targets.iter().copied().filter(|&t| t != start).collect();
        while let Some(n) = frontier.pop() {
            for p in g.predecessors(n) {
                if p != start && region.insert(p) {
                    frontier.push(p);
                }
            }
            // `start` dominates everything in the closure (see Lemma 3),
            // so the closure terminates at `start` without passing it.
        }
        // Lock order: global topological order restricted to the region.
        let mut order: Vec<EntityId> = region.iter().copied().collect();
        order.sort_unstable_by_key(|n| pos[n]);
        // Release point of n: after the last region-successor of n is
        // locked (so L5's "presently holding a predecessor" always holds).
        // Sorted by (release point, own position), keyed by topological
        // position, which orders the same way as the index in `order`.
        let mut releases: Vec<(usize, usize, EntityId)> = order
            .iter()
            .map(|&n| {
                let at = g
                    .successors(n)
                    .filter(|s| region.contains(s))
                    .map(|s| pos[&s])
                    .max()
                    .unwrap_or(pos[&n]);
                (at, pos[&n], n)
            })
            .collect();
        releases.sort_unstable();
        let mut releases = releases.into_iter().peekable();
        let mut plan = Vec::with_capacity(order.len() * 2 + targets.len());
        for &n in &order {
            plan.push(PolicyAction::Lock(n));
            if targets.contains(&n) {
                plan.push(PolicyAction::Access(n));
            }
            while let Some((_, _, m)) = releases.next_if(|&(at, _, _)| at == pos[&n]) {
                plan.push(PolicyAction::Unlock(m));
            }
        }
        Ok(plan)
    }
}

impl ActionPlanner for DdagPlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        if let Some(ins) = job.insert_under {
            // Insert a fresh node under an existing parent: lock both (the
            // fresh node per L2), mutate, release.
            return Ok(Some(vec![
                PolicyAction::Lock(ins.parent),
                PolicyAction::Lock(ins.node),
                PolicyAction::InsertNode(ins.node),
                PolicyAction::InsertEdge(ins.parent, ins.node),
                PolicyAction::Unlock(ins.parent),
                PolicyAction::Unlock(ins.node),
            ]));
        }
        let g = engine.graph().ok_or(PlanViolation::NoGraph)?;
        self.plan_traversal(g, &job.targets).map(Some)
    }
}

// ---------------------------------------------------------------------
// DTR planner
// ---------------------------------------------------------------------

/// Dynamic tree policy: declares the access set and defers planning to the
/// engine, which joins/extends the forest and precomputes the tree-locked
/// plan (rule DT2).
pub struct DtrPlanner;

impl ActionPlanner for DtrPlanner {
    fn intent(&self, job: &Job) -> AccessIntent {
        AccessIntent::access(job.targets.iter().copied())
    }

    fn plan(
        &mut self,
        _engine: &dyn PolicyEngine,
        _job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// The generic adapter
// ---------------------------------------------------------------------

/// The one simulator adapter: any [`PolicyEngine`] plus the matching
/// [`ActionPlanner`], with per-transaction plan cursors.
pub struct EngineAdapter<P: PolicyEngine + 'static> {
    engine: P,
    planner: Box<dyn ActionPlanner>,
    plans: FxHashMap<TxId, (Vec<PolicyAction>, usize)>,
    pool: Vec<EntityId>,
}

/// The adapter shape the [`PolicyRegistry`] produces: a boxed engine
/// behind the generic adapter.
pub type PolicyInstance = EngineAdapter<Box<dyn PolicyEngine>>;

/// The planner matching a [`PolicyKind`] (mutants share their base
/// policy's planner — the ablated *engine* is what differs).
pub fn planner_for(kind: PolicyKind) -> Box<dyn ActionPlanner> {
    match kind.base() {
        PolicyKind::TwoPhase => Box::new(TwoPhasePlanner),
        PolicyKind::Altruistic => Box::new(AltruisticPlanner),
        PolicyKind::Ddag => Box::new(DdagPlanner::default()),
        PolicyKind::Dtr => Box::new(DtrPlanner),
        mutant => unreachable!("PolicyKind::base returns safe kinds, got {mutant}"),
    }
}

/// Builds the simulator adapter for `kind` through `registry`: the engine
/// from the registry, the matching planner, and the initial pool from
/// `config` (for the initial structural state of flat-pool policies).
pub fn build_adapter(
    registry: &PolicyRegistry,
    kind: PolicyKind,
    config: &PolicyConfig,
) -> Result<PolicyInstance, RegistryError> {
    let engine = registry.build(kind, config)?;
    Ok(EngineAdapter::new(
        engine,
        planner_for(kind),
        config.pool.clone(),
    ))
}

impl<P: PolicyEngine + 'static> EngineAdapter<P> {
    /// An adapter over `engine` driven by `planner`. `pool` is the set of
    /// initially existing entities for policies that do not track
    /// existence themselves (see [`EngineAdapter::initial_state`]).
    pub fn new(engine: P, planner: Box<dyn ActionPlanner>, pool: Vec<EntityId>) -> Self {
        EngineAdapter {
            engine,
            planner,
            plans: FxHashMap::default(),
            pool,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &P {
        &self.engine
    }

    /// The wrapped engine, mutably (for policy-specific introspection).
    pub fn engine_mut(&mut self) -> &mut P {
        &mut self.engine
    }

    /// Interns a fresh entity name through the engine (DDAG insert
    /// workloads); `None` if the policy has no growing universe.
    pub fn intern(&mut self, name: &str) -> Option<EntityId> {
        self.engine.intern_entity(name)
    }

    /// The engine's shared graph, if it maintains one.
    pub fn graph(&self) -> Option<&DiGraph> {
        self.engine.graph()
    }

    /// The initial structural state for properness checks: the engine's
    /// own existence tracking when present (DDAG: nodes + edge entities),
    /// else the flat pool. Capture *before* running jobs.
    pub fn initial_state(&self) -> StructuralState {
        match self.engine.structural_entities() {
            Some(entities) => StructuralState::from_entities(entities),
            None => StructuralState::from_entities(self.pool.iter().copied()),
        }
    }
}

impl<P: PolicyEngine + 'static> PolicyAdapter for EngineAdapter<P> {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn begin(&mut self, tx: TxId, job: &Job) -> Result<(), PolicyViolation> {
        // Plan first: a malformed job must not leave begun-but-planless
        // transaction state in the engine.
        let planned = self.planner.plan(&self.engine, job)?;
        let intent = self.planner.intent(job);
        let engine_plan = self.engine.begin(tx, &intent)?;
        let plan = match planned.or(engine_plan) {
            Some(plan) => plan,
            None => {
                // Misconfigured pairing (neither planner nor engine
                // produced a plan): retire the just-begun transaction so
                // the engine holds no planless state.
                self.engine.abort(tx);
                return Err(PolicyViolation::NoPlan(tx));
            }
        };
        self.plans.insert(tx, (plan, 0));
        Ok(())
    }

    fn advance(&mut self, tx: TxId) -> Advance {
        let Some((plan, cursor)) = self.plans.get_mut(&tx) else {
            return Advance::Violation(PolicyViolation::NoPlan(tx));
        };
        let Some(&action) = plan.get(*cursor) else {
            self.plans.remove(&tx);
            return match self.engine.finish(tx) {
                Ok(steps) => Advance::Done(steps),
                Err(v) => Advance::Violation(v),
            };
        };
        match self.engine.request(tx, action) {
            PolicyResponse::Granted(steps) => {
                *cursor += 1;
                Advance::Progress(steps)
            }
            PolicyResponse::Conflict { entity, holder } => Advance::Blocked { entity, holder },
            PolicyResponse::Violation(v) => Advance::Violation(v),
        }
    }

    fn abort(&mut self, tx: TxId) -> Vec<Step> {
        self.plans.remove(&tx);
        self.engine.abort(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::Universe;
    use slp_policies::DtrEngine;

    fn pool(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn flat(kind: PolicyKind, n: u32) -> PolicyInstance {
        build_adapter(&PolicyRegistry::new(), kind, &PolicyConfig::flat(pool(n))).unwrap()
    }

    fn drain(adapter: &mut dyn PolicyAdapter, tx: TxId) -> Vec<Step> {
        let mut all = Vec::new();
        loop {
            match adapter.advance(tx) {
                Advance::Progress(s) => all.extend(s),
                Advance::Done(s) => {
                    all.extend(s);
                    return all;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn two_phase_adapter_runs_a_job() {
        let mut a = flat(PolicyKind::TwoPhase, 4);
        assert_eq!(a.name(), "2PL");
        a.begin(t(1), &Job::access(vec![EntityId(0), EntityId(2)]))
            .unwrap();
        let steps = drain(&mut a, t(1));
        // 2 locks + 2*(R+W) + 2 unlocks
        assert_eq!(steps.len(), 8);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
        assert!(lt.is_two_phase(), "strict 2PL output must be two-phase");
    }

    #[test]
    fn two_phase_adapter_blocks_on_conflict() {
        let mut a = flat(PolicyKind::TwoPhase, 2);
        a.begin(t(1), &Job::access(vec![EntityId(0)])).unwrap();
        a.begin(t(2), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(a.advance(t(1)), Advance::Progress(_))); // T1 locks 0
        assert_eq!(
            a.advance(t(2)),
            Advance::Blocked {
                entity: EntityId(0),
                holder: t(1)
            }
        );
        let _ = a.abort(t(2));
    }

    #[test]
    fn altruistic_adapter_donates_early() {
        let mut a = flat(PolicyKind::Altruistic, 4);
        a.begin(
            t(1),
            &Job::access(vec![EntityId(0), EntityId(1), EntityId(2)]),
        )
        .unwrap();
        let steps = drain(&mut a, t(1));
        let lt = slp_core::LockedTransaction::new(t(1), steps.clone());
        assert!(lt.validate().is_ok());
        assert!(
            !lt.is_two_phase(),
            "altruistic plans donate before the locked point"
        );
        // Unlock of entity 0 comes before the access of entity 2.
        let pos_unlock0 = steps
            .iter()
            .position(|s| *s == Step::unlock_exclusive(EntityId(0)))
            .unwrap();
        let pos_access2 = steps
            .iter()
            .position(|s| *s == Step::read(EntityId(2)))
            .unwrap();
        assert!(pos_unlock0 < pos_access2);
    }

    fn diamond_adapter() -> (PolicyInstance, Vec<EntityId>) {
        // Diamond r -> {a, b} -> j.
        let mut u = Universe::new();
        let ids = u.entities(["r", "a", "b", "j"]);
        let mut g = DiGraph::new();
        for &n in &ids {
            g.add_node(n).unwrap();
        }
        g.add_edge(ids[0], ids[1]).unwrap();
        g.add_edge(ids[0], ids[2]).unwrap();
        g.add_edge(ids[1], ids[3]).unwrap();
        g.add_edge(ids[2], ids[3]).unwrap();
        let adapter = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(u, g),
        )
        .unwrap();
        (adapter, ids)
    }

    #[test]
    fn ddag_single_target_locks_only_the_target() {
        // L4: a transaction may begin by locking any node, so a job that
        // only touches the join node needs exactly one lock.
        let (mut a, ids) = diamond_adapter();
        a.begin(t(1), &Job::access(vec![ids[3]])).unwrap();
        let steps = drain(&mut a, t(1));
        let locked: Vec<EntityId> = steps
            .iter()
            .filter(|s| s.is_lock())
            .map(|s| s.entity)
            .collect();
        assert_eq!(locked, vec![ids[3]]);
    }

    #[test]
    fn ddag_multi_target_closes_the_dominator_region() {
        // Accessing {a, j} forces start at the common dominator r, and the
        // predecessor closure pulls in b (all of j's predecessors must be
        // locked before j, per L5).
        let (mut a, ids) = diamond_adapter();
        a.begin(t(1), &Job::access(vec![ids[1], ids[3]])).unwrap();
        let steps = drain(&mut a, t(1));
        let mut locked: Vec<EntityId> = steps
            .iter()
            .filter(|s| s.is_lock())
            .map(|s| s.entity)
            .collect();
        assert_eq!(locked[0], ids[0], "start at the common dominator r");
        assert_eq!(
            *locked.last().unwrap(),
            ids[3],
            "join j locked after its preds"
        );
        locked.sort_unstable();
        assert_eq!(locked, vec![ids[0], ids[1], ids[2], ids[3]]);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
        // Crawling: r is released before the transaction ends.
        let pos_unlock_r = lt
            .steps
            .iter()
            .position(|s| *s == Step::unlock_exclusive(ids[0]))
            .expect("r released");
        assert!(pos_unlock_r < lt.steps.len() - 1);
    }

    #[test]
    fn ddag_adapter_insert_job() {
        let mut u = Universe::new();
        let ids = u.entities(["r", "a"]);
        let mut g = DiGraph::new();
        g.add_node(ids[0]).unwrap();
        g.add_node(ids[1]).unwrap();
        g.add_edge(ids[0], ids[1]).unwrap();
        let mut a = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(u, g),
        )
        .unwrap();
        let fresh = a.intern("new-node").expect("DDAG interns");
        a.begin(t(1), &Job::insert(ids[1], fresh)).unwrap();
        let steps = drain(&mut a, t(1));
        let g = a.graph().expect("DDAG has a graph");
        assert!(g.has_node(fresh));
        assert!(g.has_edge(ids[1], fresh));
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
    }

    #[test]
    fn ddag_malformed_jobs_surface_typed_plan_errors() {
        let (mut a, _) = diamond_adapter();
        let err = a
            .begin(t(1), &Job::access(vec![EntityId(999)]))
            .unwrap_err();
        assert_eq!(
            err,
            PolicyViolation::Plan(PlanViolation::TargetMissing(EntityId(999)))
        );
        assert!(
            !err.is_fatal(),
            "graph-shape plan failures are transient under churn"
        );
        let err = a.begin(t(1), &Job::access(vec![])).unwrap_err();
        assert_eq!(err, PolicyViolation::Plan(PlanViolation::EmptyJob));
        assert!(err.is_fatal(), "an empty job can never commit work");
    }

    /// The per-plan algorithm the cached planner replaced, kept verbatim
    /// as the oracle: recomputes rootedness, every dominator set and the
    /// topological sort on each call.
    fn oracle_plan(
        g: &DiGraph,
        targets: &[EntityId],
    ) -> Result<Vec<PolicyAction>, PolicyViolation> {
        use std::collections::BTreeMap;
        if targets.is_empty() {
            return Err(PlanViolation::EmptyJob.into());
        }
        let root = rooted::root(g).ok_or(PlanViolation::NotRooted)?;
        for &t in targets {
            if !g.has_node(t) {
                return Err(PlanViolation::TargetMissing(t).into());
            }
        }
        let sets = dominators::dominator_sets(g, root);
        let mut common: BTreeSet<EntityId> = sets
            .get(&targets[0])
            .ok_or(PlanViolation::UnreachableFromRoot(targets[0]))?
            .clone();
        for &t in &targets[1..] {
            let s = sets.get(&t).ok_or(PlanViolation::UnreachableFromRoot(t))?;
            common = common.intersection(s).copied().collect();
        }
        let start = common
            .iter()
            .copied()
            .max_by_key(|d| sets[d].len())
            .ok_or(PlanViolation::NoCommonDominator)?;
        let mut region: BTreeSet<EntityId> = targets.iter().copied().collect();
        region.insert(start);
        let mut frontier: Vec<EntityId> = targets.iter().copied().filter(|&t| t != start).collect();
        while let Some(n) = frontier.pop() {
            for p in g.predecessors(n) {
                if p != start && region.insert(p) {
                    frontier.push(p);
                }
            }
        }
        let topo = dag::topological_sort(g).ok_or(PlanViolation::CyclicGraph)?;
        let order: Vec<EntityId> = topo.into_iter().filter(|n| region.contains(n)).collect();
        let idx: BTreeMap<EntityId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut release_after: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
        for &n in &order {
            let last_succ = g
                .successors(n)
                .filter(|s| region.contains(s))
                .filter_map(|s| idx.get(&s).copied())
                .max();
            let at = last_succ.unwrap_or(idx[&n]);
            release_after.entry(at).or_default().push(n);
        }
        let target_set: BTreeSet<EntityId> = targets.iter().copied().collect();
        let mut plan = Vec::new();
        for (i, &n) in order.iter().enumerate() {
            plan.push(PolicyAction::Lock(n));
            if target_set.contains(&n) {
                plan.push(PolicyAction::Access(n));
            }
            if let Some(done) = release_after.get(&i) {
                for &m in done {
                    plan.push(PolicyAction::Unlock(m));
                }
            }
        }
        Ok(plan)
    }

    /// Plans `targets` with the long-lived `planner` and the oracle, and
    /// requires the same `Ok(plan)` or the same `Err`.
    fn same_plan(
        planner: &mut DdagPlanner,
        g: &DiGraph,
        targets: &[EntityId],
    ) -> Result<Vec<PolicyAction>, PolicyViolation> {
        let got = planner.plan_traversal(g, targets);
        assert_eq!(got, oracle_plan(g, targets), "targets {targets:?}");
        got
    }

    #[test]
    fn cached_plans_match_the_per_plan_oracle_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut ok, mut not_rooted, mut missing) = (0, 0, 0);
        for seed in 0..12u64 {
            let d = crate::layered_dag(4, 4, 3, seed);
            let mut g = d.graph;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut planner = DdagPlanner::default();
            let mut next_id = 10_000u32;
            for _ in 0..60 {
                match rng.random_range(0..4u32) {
                    0 => {
                        // A two-step insert: between the node and its edge
                        // the fresh node is a second root.
                        let nodes: Vec<EntityId> = g.nodes().collect();
                        let parent = nodes[rng.random_range(0..nodes.len())];
                        let fresh = EntityId(next_id);
                        next_id += 1;
                        g.add_node(fresh).unwrap();
                        let r = same_plan(&mut planner, &g, &[parent]);
                        assert_eq!(r, Err(PlanViolation::NotRooted.into()));
                        not_rooted += 1;
                        g.add_edge(parent, fresh).unwrap();
                    }
                    1 => {
                        // An edge forward in topological order keeps the
                        // graph acyclic and rooted.
                        let topo = dag::topological_sort(&g).unwrap();
                        let i = rng.random_range(0..topo.len() - 1);
                        let j = rng.random_range(i + 1..topo.len());
                        let _ = g.add_edge(topo[i], topo[j]);
                    }
                    2 => {
                        // Delete an edge whose head keeps another parent.
                        let edges: Vec<(EntityId, EntityId)> =
                            g.edges().filter(|&(_, b)| g.in_degree(b) > 1).collect();
                        if !edges.is_empty() {
                            let (a, b) = edges[rng.random_range(0..edges.len())];
                            g.remove_edge(a, b).unwrap();
                        }
                    }
                    _ => {}
                }
                for _ in 0..4 {
                    let nodes: Vec<EntityId> = g.nodes().collect();
                    let k = rng.random_range(1..=3usize);
                    let mut targets: Vec<EntityId> = (0..k)
                        .map(|_| nodes[rng.random_range(0..nodes.len())])
                        .collect();
                    if rng.random_range(0..10u32) == 0 {
                        targets.push(EntityId(99_999));
                    }
                    match same_plan(&mut planner, &g, &targets) {
                        Ok(_) => ok += 1,
                        Err(PolicyViolation::Plan(PlanViolation::TargetMissing(_))) => missing += 1,
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        assert!(
            ok > 1000 && not_rooted > 50 && missing > 50,
            "{ok} {not_rooted} {missing}"
        );
    }

    #[test]
    fn cached_plans_match_the_oracle_on_error_shapes() {
        let e = EntityId;
        let mut planner = DdagPlanner::default();
        // Rooted but cyclic: r -> a -> b -> a.
        let g = DiGraph::from_parts(
            [e(0), e(1), e(2)],
            [(e(0), e(1)), (e(1), e(2)), (e(2), e(1))],
        );
        let r = same_plan(&mut planner, &g, &[e(1)]);
        assert_eq!(r, Err(PlanViolation::CyclicGraph.into()));
        // NotRooted wins over a missing target, as in the oracle.
        let g = DiGraph::from_parts([e(0), e(1)], []);
        let r = same_plan(&mut planner, &g, &[e(9)]);
        assert_eq!(r, Err(PlanViolation::NotRooted.into()));
        let r = same_plan(&mut planner, &g, &[]);
        assert_eq!(r, Err(PlanViolation::EmptyJob.into()));
    }

    #[test]
    fn one_planner_serves_a_graph_and_its_mutated_clone() {
        // A: r -> y -> x -> {a, j}. Targets {a, j} start at x.
        let e = EntityId;
        let (r, y, x, a, j) = (e(0), e(1), e(2), e(3), e(4));
        let ga = DiGraph::from_parts([r, y, x, a, j], [(r, y), (y, x), (x, a), (x, j)]);
        let mut planner = DdagPlanner::default();
        let on_a = same_plan(&mut planner, &ga, &[a, j]).unwrap();
        assert_eq!(on_a[0], PolicyAction::Lock(x));
        // B = A + (y, j): the start moves up to y. A layout left over from
        // A would start at x and climb past y to r.
        let mut gb = ga.clone();
        assert_eq!(gb.version(), ga.version());
        assert_eq!(same_plan(&mut planner, &gb, &[a, j]).unwrap(), on_a);
        gb.add_edge(y, j).unwrap();
        let on_b = same_plan(&mut planner, &gb, &[a, j]).unwrap();
        assert_eq!(on_b[0], PolicyAction::Lock(y));
        assert!(!on_b.contains(&PolicyAction::Lock(r)));
        assert_eq!(same_plan(&mut planner, &ga, &[a, j]).unwrap(), on_a);
        assert_eq!(same_plan(&mut planner, &gb, &[a, j]).unwrap(), on_b);
    }

    #[test]
    fn dtr_adapter_runs_jobs_and_grows_forest() {
        let mut a = flat(PolicyKind::Dtr, 5);
        a.begin(t(1), &Job::access(vec![EntityId(0), EntityId(1)]))
            .unwrap();
        let steps = drain(&mut a, t(1));
        assert!(!steps.is_empty());
        let dtr: &DtrEngine = a
            .engine()
            .as_any()
            .downcast_ref()
            .expect("registry builds a DtrEngine for PolicyKind::Dtr");
        assert_eq!(dtr.forest().len(), 2);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
    }

    #[test]
    fn dtr_adapter_blocks_on_contention() {
        let mut a = flat(PolicyKind::Dtr, 3);
        a.begin(t(1), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(a.advance(t(1)), Advance::Progress(_))); // lock 0
        a.begin(t(2), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(a.advance(t(2)), Advance::Blocked { .. }));
        let _ = a.abort(t(2));
    }

    #[test]
    fn mutant_kinds_build_and_report_their_names() {
        for kind in PolicyKind::MUTANTS {
            let config = if kind.needs_graph() {
                let mut u = Universe::new();
                let ids = u.entities(["r", "x"]);
                let mut g = DiGraph::new();
                g.add_node(ids[0]).unwrap();
                g.add_node(ids[1]).unwrap();
                g.add_edge(ids[0], ids[1]).unwrap();
                PolicyConfig::dag(u, g)
            } else {
                PolicyConfig::flat(pool(4))
            };
            let a = build_adapter(&PolicyRegistry::new(), kind, &config).unwrap();
            assert_eq!(a.name(), kind.name());
        }
    }

    #[test]
    fn advancing_an_unknown_transaction_is_a_fatal_no_plan() {
        let mut a = flat(PolicyKind::TwoPhase, 2);
        match a.advance(t(9)) {
            Advance::Violation(v) => assert!(v.is_fatal()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
