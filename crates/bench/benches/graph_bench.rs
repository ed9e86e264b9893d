//! Microbenchmarks for the graph substrate: dominators (Lemma 3's engine),
//! the dominator tree, DDAG traversal planning, reachability, topological
//! sort, and forest operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slp_core::EntityId;
use slp_graph::{dag, dominators, reach, rooted, Forest};
use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};
use slp_sim::{layered_dag, ActionPlanner, DdagPlanner, Job};
use std::hint::black_box;

fn bench_dominators(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominator_sets");
    for (layers, width) in [(3usize, 4usize), (5, 6), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(dominators::dominator_sets(&d.graph, d.root)));
        });
    }
    group.finish();
}

fn bench_immediate_dominators(c: &mut Criterion) {
    let mut group = c.benchmark_group("immediate_dominators");
    for (layers, width) in [(3usize, 4usize), (5, 6), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| black_box(dominators::immediate_dominators(&d.graph, d.root)));
        });
    }
    group.finish();
}

/// One long-lived DDAG planner laying a two-target traversal: `cached`
/// plans against an unchanging graph (every call hits the planner's
/// per-version cache), `rebuild` alternates between the graph and a copy
/// with one inserted leaf, so every call rebuilds the cache first.
fn bench_ddag_plan(c: &mut Criterion) {
    let d = layered_dag(6, 8, 3, 7);
    let registry = PolicyRegistry::new();
    let mut universe = d.universe.clone();
    let mut grown = d.graph.clone();
    let leaf = universe.entity("fresh-leaf");
    grown.add_node(leaf).unwrap();
    grown.add_edge(d.nodes[5][0], leaf).unwrap();
    let engine = registry
        .build(PolicyKind::Ddag, &PolicyConfig::dag(d.universe, d.graph))
        .unwrap();
    let mutated = registry
        .build(PolicyKind::Ddag, &PolicyConfig::dag(universe, grown))
        .unwrap();
    let job = Job::access(vec![d.nodes[5][1], d.nodes[4][3]]);
    let mut group = c.benchmark_group("ddag_plan");
    let mut planner = DdagPlanner::default();
    group.bench_function("cached", |b| {
        b.iter(|| black_box(planner.plan(engine.as_ref(), &job).unwrap()));
    });
    let mut flip = false;
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            flip = !flip;
            let on = if flip { &engine } else { &mutated };
            black_box(planner.plan(on.as_ref(), &job).unwrap())
        });
    });
    group.finish();
}

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability");
    for (layers, width) in [(5usize, 6usize), (7, 8)] {
        let d = layered_dag(layers, width, 3, 42);
        let nodes = d.graph.node_count();
        group.bench_with_input(BenchmarkId::new("descendants", nodes), &nodes, |b, _| {
            b.iter(|| black_box(reach::descendants(&d.graph, d.root)));
        });
        let leaf = *d.nodes.last().unwrap().last().unwrap();
        group.bench_with_input(BenchmarkId::new("ancestors", nodes), &nodes, |b, _| {
            b.iter(|| black_box(reach::ancestors(&d.graph, leaf)));
        });
    }
    group.finish();
}

fn bench_topo_and_rooted(c: &mut Criterion) {
    let d = layered_dag(6, 8, 3, 7);
    c.bench_function("topological_sort", |b| {
        b.iter(|| black_box(dag::topological_sort(&d.graph)));
    });
    c.bench_function("rootedness_check", |b| {
        b.iter(|| black_box(rooted::is_rooted(&d.graph)));
    });
}

fn bench_forest_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.bench_function("grow_join_query_256", |b| {
        b.iter(|| {
            let mut f = Forest::new();
            for i in 0..256u32 {
                f.add_root(EntityId(i)).unwrap();
            }
            for i in 1..256u32 {
                f.join(EntityId(0), EntityId(i)).unwrap();
            }
            let mut depth = 0;
            for i in 0..256u32 {
                depth += f.path_from_root(EntityId(i)).map_or(0, |p| p.len());
            }
            black_box(depth)
        });
    });
    // LCA on a deep chain.
    let mut chain = Forest::new();
    chain.add_root(EntityId(0)).unwrap();
    for i in 1..512u32 {
        chain.add_child(EntityId(i - 1), EntityId(i)).unwrap();
    }
    group.bench_function("lca_deep_chain", |b| {
        b.iter(|| black_box(chain.lca(EntityId(500), EntityId(255))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dominators,
    bench_immediate_dominators,
    bench_ddag_plan,
    bench_reachability,
    bench_topo_and_rooted,
    bench_forest_ops
);
criterion_main!(benches);
