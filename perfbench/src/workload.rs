//! The three workloads: set-up, the timed run, and the single-layer probes
//! the traced run adds. Why each workload exists is in `README.md`.

use crate::check::Expect;
use crate::trace::Tracer;
use slp_core::EntityId;
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{
    recover, CertifyMode, Recovered, RecoveryMode, Runtime, RuntimeConfig, RuntimeReport,
    SharedMemStore, Wal, WalConfig,
};
use slp_sim::{dag_mixed_jobs, hot_cold_jobs, layered_dag, planner_for, read_heavy_jobs, Job};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Worker threads in every run: the host has two CPUs, and more workers
/// than CPUs measure preemption convoys instead of the runtime.
pub const WORKERS: usize = 2;

/// Entities in the flat 2PL pool, and the size of its hot set.
const POOL: u32 = 64;
const HOT: usize = 4;

/// The DAG the DDAG workload runs over is the database, not the input: it
/// is the same for every seed (the `load_service` shape), so the seed only
/// varies the job stream.
const DAG_SEED: u64 = 0xC4A2;

/// Jobs whose plans `sim.plan_us` times, at most.
const PLAN_SAMPLE: usize = 2_000;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 2PL hot/cold mix on the lock-word fast path, online certifier on.
    HotkeyCertified,
    /// 90% MVCC snapshot readers beside 2PL writers, logged to a WAL.
    ReadheavyDurable,
    /// DDAG traversals with 2% node inserts over a growing DAG.
    DdagChurn,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotkeyCertified,
        Workload::ReadheavyDurable,
        Workload::DdagChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotkeyCertified => "hotkey-certified",
            Workload::ReadheavyDurable => "readheavy-durable",
            Workload::DdagChurn => "ddag-churn",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job seed when none is given: the `load_service` scenario's.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::HotkeyCertified => 0xB0A7,
            Workload::ReadheavyDurable => 0x5EAD,
            Workload::DdagChurn => 0xC4A2,
        }
    }

    /// Jobs per run. Fixed, because DDAG inserts grow the graph and with
    /// it the cost per job; each count leaves at least 60 commits beyond
    /// p99.
    pub fn jobs(self) -> usize {
        match self {
            Workload::HotkeyCertified | Workload::ReadheavyDurable => 200_000,
            Workload::DdagChurn => 6_000,
        }
    }

    fn kind(self) -> PolicyKind {
        match self {
            Workload::HotkeyCertified | Workload::ReadheavyDurable => PolicyKind::TwoPhase,
            Workload::DdagChurn => PolicyKind::Ddag,
        }
    }

    /// The run configuration: the throughput configuration plus only the
    /// fields this workload names. The scheduler stays off and the
    /// environment is never consulted.
    pub fn config(self) -> RuntimeConfig {
        let base = RuntimeConfig {
            grant_batch: 8,
            step_yield: false,
            max_wall: Duration::from_secs(120),
            ..RuntimeConfig::with_workers(WORKERS)
        };
        match self {
            Workload::HotkeyCertified => RuntimeConfig {
                certify_online: CertifyMode::Monitor,
                ..base
            },
            Workload::ReadheavyDurable => RuntimeConfig {
                snapshot_reads: true,
                ..base
            },
            Workload::DdagChurn => base,
        }
    }
}

/// A workload set up and ready to run.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The runtime, engine built and (DDAG) fresh nodes interned.
    pub rt: Runtime,
    /// The job queue.
    pub jobs: Vec<Job>,
    /// What the checker must see.
    pub expect: Expect,
    /// Jobs that are not read-only (each logs one commit record).
    pub writers: usize,
    /// The DAG's root (DDAG only).
    pub dag_root: Option<EntityId>,
    log: Option<(SharedMemStore, Arc<Wal>)>,
}

/// Where set-up time went.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Everything before the run call.
    pub total: Duration,
    /// The generator calls, interning excluded.
    pub gen: Duration,
    /// `Runtime::new` plus every `intern` call.
    pub build: Duration,
}

/// Builds `workload`'s runtime and job queue from `seed`.
pub fn prepare(workload: Workload, seed: u64, tracer: &mut Tracer) -> (Prepared, SetupTimes) {
    let setup = tracer.begin("setup");
    let n = workload.jobs();
    let mut gen = Duration::ZERO;
    let mut build = Duration::ZERO;
    let mut dag_root = None;
    let mut log = None;
    let (rt, jobs) = match workload {
        Workload::HotkeyCertified | Workload::ReadheavyDurable => {
            let pool: Vec<EntityId> = (0..POOL).map(EntityId).collect();
            let span = tracer.begin("sim.gen");
            let jobs = if workload == Workload::HotkeyCertified {
                hot_cold_jobs(&pool, n, 3, HOT, 0.9, seed)
            } else {
                read_heavy_jobs(&pool, n, 3, HOT, 0.9, seed)
            };
            gen += tracer.end(span);
            let span = tracer.begin("policies.build");
            let rt = Runtime::new(workload.kind(), &PolicyConfig::flat(pool)).expect("2PL builds");
            build += tracer.end(span);
            (rt, jobs)
        }
        Workload::DdagChurn => {
            let span = tracer.begin("sim.gen");
            let dag = layered_dag(3, 24, 2, DAG_SEED);
            gen += tracer.end(span);
            let span = tracer.begin("policies.build");
            let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
            let mut rt = Runtime::new(workload.kind(), &config).expect("DDAG builds");
            build += tracer.end(span);
            let span = tracer.begin("sim.gen");
            let mut interning = Duration::ZERO;
            let jobs = {
                let mut intern = |name: &str| {
                    let span = tracer.begin("policies.intern");
                    let id = rt.intern(name).expect("DDAG interns");
                    interning += tracer.end(span);
                    id
                };
                dag_mixed_jobs(&dag, n, 2, 0.02, &mut intern, seed)
            };
            gen += tracer.end(span) - interning;
            build += interning;
            dag_root = Some(dag.root);
            (rt, jobs)
        }
    };
    if workload == Workload::ReadheavyDurable {
        let span = tracer.begin("durability.create_wal");
        let store = SharedMemStore::new();
        let wal = rt
            .create_wal(Box::new(store.clone()), WalConfig::default())
            .expect("an empty in-memory store takes a log");
        tracer.end(span);
        log = Some((store, Arc::new(wal)));
    }
    let writers = jobs.iter().filter(|j| !j.read_only).count();
    let snapshot_reads = workload.config().snapshot_reads.then(|| {
        jobs.iter()
            .filter(|j| j.read_only)
            .map(|j| j.targets.len() as u64)
            .sum()
    });
    let total = tracer.end(setup);
    let prepared = Prepared {
        workload,
        rt,
        expect: Expect {
            jobs: jobs.len(),
            snapshot_reads,
        },
        jobs,
        writers,
        dag_root,
        log,
    };
    (prepared, SetupTimes { total, gen, build })
}

/// Runs the prepared queue and returns the report with the wall time of
/// the `run` / `run_durable` call, on the benchmark's clock.
pub fn run(p: &mut Prepared, tracer: &mut Tracer) -> (RuntimeReport, Duration) {
    let config = p.workload.config();
    let span = tracer.begin("runtime.run");
    let report = match &p.log {
        Some((_, wal)) => p.rt.run_durable(&p.jobs, &config, Arc::clone(wal)),
        None => p.rt.run(&p.jobs, &config),
    };
    (report, tracer.end(span))
}

/// Recovers a durable run's log from its newest checkpoint, with the wall
/// time of `recover`; `None` for in-memory workloads.
pub fn recover_log(
    p: &Prepared,
    tracer: &mut Tracer,
) -> Option<Result<(Recovered, Duration), String>> {
    let (store, _) = p.log.as_ref()?;
    let bytes = store.snapshot();
    let span = tracer.begin("durability.recover");
    let recovered = recover(&bytes, RecoveryMode::Newest);
    let took = tracer.end(span);
    Some(
        recovered
            .map(|r| (r, took))
            .map_err(|e| format!("recovery failed: {e:?}")),
    )
}

/// Mean time of one `plan` call by the policy's own planner over the
/// first jobs of the queue, single-threaded, before the run. Plans a
/// fresh node's insert before the node exists may be refused; those
/// calls are timed too.
pub fn mean_plan_us(p: &Prepared, tracer: &mut Tracer) -> f64 {
    let span = tracer.begin("sim.plan");
    let mut planner = planner_for(p.workload.kind());
    let sample = &p.jobs[..p.jobs.len().min(PLAN_SAMPLE)];
    for job in sample {
        black_box(planner.plan(p.rt.engine(), black_box(job)).ok());
    }
    tracer.end(span).as_secs_f64() * 1e6 / sample.len() as f64
}

/// Median time of one `dominator_sets` over the engine's graph from the
/// DAG root; `None` for engines without a graph.
pub fn dominators_us(p: &Prepared, tracer: &mut Tracer) -> Option<f64> {
    let graph = p.rt.engine().graph()?;
    let root = p.dag_root?;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let span = tracer.begin("graph.dominators");
            black_box(slp_graph::dominators::dominator_sets(graph, root));
            tracer.end(span).as_secs_f64() * 1e6
        })
        .collect();
    Some(crate::stats::median(&times))
}

/// Median time of running an empty queue: the fixed cost of spawning the
/// workers and setting up the services.
pub fn empty_run_us(p: &mut Prepared, tracer: &mut Tracer) -> f64 {
    let config = p.workload.config();
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let span = tracer.begin("runtime.empty_run");
            black_box(p.rt.run(&[], &config));
            tracer.end(span).as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&times)
}
