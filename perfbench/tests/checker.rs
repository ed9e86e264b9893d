//! The output checker must pass correct runs and must be able to fail.
//! The negative control drives `AltruisticNoWake` (the altruistic policy
//! with its wake rule ablated) over a long scan among short jobs, the
//! shape of `load_service`'s mutant probe, until a run's trace is not
//! serializable, and asserts that the checker flags it.

use slp_core::EntityId;
use slp_perfbench::check::{check_recovery, check_run, Expect};
use slp_perfbench::trace::Tracer;
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{
    recover, CertifyMode, RecoveryMode, Runtime, RuntimeConfig, SharedMemStore, WalConfig,
};
use slp_sim::{hot_cold_jobs, long_short_jobs, read_heavy_jobs};
use std::sync::Arc;

fn pool(n: u32) -> Vec<EntityId> {
    (0..n).map(EntityId).collect()
}

#[test]
fn checker_flags_the_altruistic_no_wake_mutant() {
    let pool = pool(12);
    // Four workers, one grant per batch and a yield after each: the
    // mutant needs interleavings to misbehave.
    let config = RuntimeConfig {
        certify_online: CertifyMode::Monitor,
        ..RuntimeConfig::with_workers(4)
    };
    for seed in 0..80 {
        let jobs = long_short_jobs(&pool, 8, 30, 2, seed);
        let expect = Expect {
            jobs: jobs.len(),
            snapshot_reads: None,
        };
        for _ in 0..3 {
            let mut rt = Runtime::new(
                PolicyKind::AltruisticNoWake,
                &PolicyConfig::flat(pool.clone()),
            )
            .expect("the mutant builds");
            let report = rt.run(&jobs, &config);
            let checked = check_run(&report, &expect, &mut Tracer::new(false));
            if !checked.failures.is_empty() {
                assert!(
                    checked.failures.iter().any(|f| f.contains("cycle")),
                    "flagged, but not for the cycle: {:?}",
                    checked.failures
                );
                return;
            }
        }
    }
    panic!("the checker passed every AltruisticNoWake run of the sweep");
}

#[test]
fn checker_passes_a_certified_hot_cold_run() {
    let pool = pool(64);
    let jobs = hot_cold_jobs(&pool, 2_000, 3, 4, 0.9, 0xB0A7);
    let config = RuntimeConfig {
        grant_batch: 8,
        step_yield: false,
        certify_online: CertifyMode::Monitor,
        ..RuntimeConfig::with_workers(2)
    };
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).expect("2PL");
    let report = rt.run(&jobs, &config);
    let expect = Expect {
        jobs: jobs.len(),
        snapshot_reads: None,
    };
    let checked = check_run(&report, &expect, &mut Tracer::new(false));
    assert!(checked.failures.is_empty(), "{:?}", checked.failures);
}

#[test]
fn checker_passes_a_recovered_read_heavy_run_and_counts_writers() {
    let pool = pool(64);
    let jobs = read_heavy_jobs(&pool, 2_000, 3, 4, 0.9, 0x5EAD);
    let writers = jobs.iter().filter(|j| !j.read_only).count();
    let reads = jobs
        .iter()
        .filter(|j| j.read_only)
        .map(|j| j.targets.len() as u64)
        .sum();
    let config = RuntimeConfig {
        grant_batch: 8,
        step_yield: false,
        snapshot_reads: true,
        ..RuntimeConfig::with_workers(2)
    };
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).expect("2PL");
    let store = SharedMemStore::new();
    let wal = rt
        .create_wal(Box::new(store.clone()), WalConfig::default())
        .expect("empty store");
    let report = rt.run_durable(&jobs, &config, Arc::new(wal));
    let expect = Expect {
        jobs: jobs.len(),
        snapshot_reads: Some(reads),
    };
    let checked = check_run(&report, &expect, &mut Tracer::new(false));
    assert!(checked.failures.is_empty(), "{:?}", checked.failures);

    let recovered = recover(&store.snapshot(), RecoveryMode::Newest).expect("recovers");
    assert!(check_recovery(&recovered, &report, writers).is_empty());
    // Counting every job as a durable commit would be wrong: readers log
    // no commit record.
    assert!(!check_recovery(&recovered, &report, jobs.len()).is_empty());
}
