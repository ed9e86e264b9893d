//! The output checker: every run of every workload must pass it, outside
//! the timed region. A failure is a wrong result, not a slow one.

use crate::trace::Tracer;
use slp_core::IncrementalCertifier;
use slp_runtime::{Recovered, RuntimeReport};
use std::time::Duration;

/// What a correct run of a queue of jobs must show.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Jobs in the queue; every one must commit.
    pub jobs: usize,
    /// Targets of the read-only jobs, when the run serves them from MVCC
    /// snapshots: each one must be exactly one snapshot read.
    pub snapshot_reads: Option<u64>,
}

/// The checker's findings and what the two trace replays cost.
#[derive(Debug, Default)]
pub struct Checked {
    /// One line per failed check; empty on a correct run.
    pub failures: Vec<String>,
    /// Wall time of `is_legal` plus `is_proper`.
    pub legal_proper: Duration,
    /// Wall time of the offline certifier replay over the merged trace.
    pub replay: Duration,
}

/// Checks a finished run: balanced accounting, every job committed, a
/// legal and proper merged trace, an offline certifier replay that finds
/// no cycle and agrees with the online verdict when there is one, and the
/// exact snapshot-read count.
pub fn check_run(report: &RuntimeReport, expect: &Expect, tracer: &mut Tracer) -> Checked {
    let mut checked = Checked::default();
    let mut fail = |msg: String| checked.failures.push(msg);
    if report.timed_out {
        fail("run hit the wall-clock guard".into());
    }
    if !report.accounting_balances() {
        fail(format!(
            "accounting does not balance: {} attempts vs {} committed + {} policy + {} \
             deadlock + {} certification aborts + {} rejected + {} abandoned",
            report.attempts,
            report.committed,
            report.policy_aborts,
            report.deadlock_aborts,
            report.certification_aborts,
            report.rejected,
            report.abandoned
        ));
    }
    if report.committed != expect.jobs || report.rejected != 0 || report.abandoned != 0 {
        fail(format!(
            "{} of {} jobs committed ({} rejected, {} abandoned)",
            report.committed, expect.jobs, report.rejected, report.abandoned
        ));
    }
    if let Some(reads) = expect.snapshot_reads {
        if report.snapshot_reads != reads {
            fail(format!(
                "{} snapshot reads, expected one per read-only target ({reads})",
                report.snapshot_reads
            ));
        }
    }

    let span = tracer.begin("core.check");
    let legal = report.schedule.is_legal();
    let proper = report.schedule.is_proper(&report.initial);
    let legal_proper = tracer.end(span);
    if !legal {
        fail("merged trace is not legal".into());
    }
    if !proper {
        fail("merged trace is not proper for the initial state".into());
    }

    let span = tracer.begin("core.certify_replay");
    let offline =
        IncrementalCertifier::certify_schedule_with_aborts(&report.schedule, &report.aborted);
    let replay = tracer.end(span);
    if let Some(v) = &offline {
        fail(format!("offline certifier replay found a cycle: {v}"));
    }
    if let Some(online) = report.certified_serializable() {
        if online != offline.is_none() {
            fail(format!(
                "online verdict (serializable: {online}) disagrees with the offline replay"
            ));
        }
    }
    checked.legal_proper = legal_proper;
    checked.replay = replay;
    checked
}

/// Checks recovery from a cleanly finished durable run: the whole trace
/// is durable and every committed writer's commit record survived.
/// Snapshot-read jobs log no commit record, so the durable commit count is
/// the number of writer jobs, not of all jobs.
pub fn check_recovery(
    recovered: &Recovered,
    report: &RuntimeReport,
    writers: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    if recovered.watermark != report.schedule.len() as u64 {
        failures.push(format!(
            "recovered watermark {} != {} steps in the trace",
            recovered.watermark,
            report.schedule.len()
        ));
    }
    if recovered.committed_floor != writers as u64 {
        failures.push(format!(
            "recovered {} durable commits, expected {writers} writer jobs",
            recovered.committed_floor
        ));
    }
    if let Some(cut) = &recovered.truncation {
        failures.push(format!("a cleanly flushed log was truncated: {cut:?}"));
    }
    failures
}
