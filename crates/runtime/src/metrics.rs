//! Lock-free service metrics: a registry of atomic counters and
//! fixed-bucket latency histograms, fed by the runtime at the end of
//! every run and rendered as a plain-text snapshot.
//!
//! The registry is shared-reference friendly (every cell is an atomic
//! with relaxed ordering — counts are monotone statistics, not
//! synchronization), so a load generator can hold a [`Metrics`] across
//! thousands of runs and render a consolidated snapshot at any point
//! without stopping the world. [`Metrics::render`] emits one
//! `name value` line per counter plus cumulative `_bucket{le="..."}` /
//! `_sum` / `_count` lines per histogram — the text-exposition shape
//! scrapers already understand.

use crate::report::{Certification, RuntimeReport};
use slp_durability::WalSummary;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone atomic counter (relaxed ordering; a statistic, not a
/// synchronization point).
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (for high-water marks).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs, inclusive) of the histogram buckets: powers of 4
/// from 1 µs to ~1 s, followed by an implicit overflow bucket. Eleven
/// fixed buckets cover six decades at a quarter-decade resolution —
/// coarse, but allocation-free and mergeable across runs.
pub const LATENCY_BUCKETS_US: [u64; 11] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// A fixed-bucket latency histogram (microseconds). Recording is one
/// relaxed `fetch_add` per sample; buckets are cumulative only at
/// render time.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    fn render_into(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        cumulative += self.counts[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum_us());
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

/// How a counter folds one run's value into the registry.
enum Fold {
    /// Add the run's value (a count-if getter yields 0 or 1).
    Sum,
    /// Keep the high-water mark.
    Max,
}

/// One registry counter: its exposition name (rendered `slp_<name>`),
/// the value one run's report contributes, and how that value folds in.
struct CounterDef {
    name: &'static str,
    get: fn(&RuntimeReport) -> u64,
    fold: Fold,
}

const fn sum(name: &'static str, get: fn(&RuntimeReport) -> u64) -> CounterDef {
    CounterDef {
        name,
        get,
        fold: Fold::Sum,
    }
}

fn wal(r: &RuntimeReport, get: fn(&WalSummary) -> u64) -> u64 {
    r.wal.as_ref().map_or(0, get)
}

fn cert(r: &RuntimeReport, get: fn(&Certification) -> u64) -> u64 {
    r.certification.as_ref().map_or(0, get)
}

/// Every counter, in render order — the one place a counter is defined.
const COUNTERS: &[CounterDef] = &[
    // Completed runs recorded into this registry.
    sum("runs_total", |_| 1),
    sum("attempts_total", |r| r.attempts as u64),
    sum("committed_total", |r| r.committed as u64),
    sum("policy_aborts_total", |r| r.policy_aborts as u64),
    sum("deadlock_aborts_total", |r| r.deadlock_aborts as u64),
    sum("certification_aborts_total", |r| {
        r.certification_aborts as u64
    }),
    sum("rejected_total", |r| r.rejected as u64),
    sum("abandoned_total", |r| r.abandoned as u64),
    sum("grants_total", |r| r.grants),
    sum("fast_path_grants_total", |r| r.fast_path_grants),
    sum("slow_path_grants_total", |r| r.slow_path_grants),
    sum("fast_path_fallbacks_total", |r| r.fast_path_fallbacks),
    // Conflict observations (a request found its lock held).
    sum("conflicts_total", |r| r.lock_waits),
    sum("parks_total", |r| r.parks),
    sum("park_timeouts_total", |r| r.park_timeouts),
    sum("snapshot_reads_total", |r| r.snapshot_reads),
    sum("waves_total", |r| r.waves as u64),
    sum("sched_parks_avoided_total", |r| r.sched_parks_avoided),
    sum("wal_records_total", |r| wal(r, |w| w.records)),
    sum("wal_bytes_total", |r| wal(r, |w| w.bytes)),
    sum("wal_syncs_total", |r| wal(r, |w| w.syncs)),
    sum("cert_steps_total", |r| cert(r, |c| c.stats.steps)),
    sum("cert_edges_total", |r| cert(r, |c| c.stats.edges)),
    sum("cert_truncations_total", |r| {
        cert(r, |c| c.stats.truncations)
    }),
    // The bounded-memory witness: live certifier nodes at their peak.
    CounterDef {
        name: "cert_peak_nodes",
        get: |r| cert(r, |c| c.stats.peak_nodes as u64),
        fold: Fold::Max,
    },
    // Count-if: runs that latched a serialization-graph cycle.
    sum("cert_violations_total", |r| {
        cert(r, |c| u64::from(c.violation.is_some()))
    }),
];

/// The metrics registry: one [`Counter`] per entry of the counter table
/// (run accounting, contention, WAL and certifier counters, all folded
/// from each run's [`RuntimeReport`]) plus two histograms.
/// [`Metrics::render`] snapshots everything as text.
pub struct Metrics {
    counters: [Counter; COUNTERS.len()],
    /// Commit latency (job dispatch to commit, across retries).
    pub commit_latency: Histogram,
    /// Wave width (jobs per scheduler wave; the bucket bounds read as
    /// plain counts here, not microseconds).
    pub wave_width: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| Counter::default()),
            commit_latency: Histogram::default(),
            wave_width: Histogram::default(),
        }
    }
}

impl Metrics {
    /// A fresh, zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records raw per-job commit latencies into the histogram (the
    /// runtime calls this before the samples are folded into the
    /// report's [`crate::LatencySummary`]).
    pub fn observe_latencies(&self, us: &[u64]) {
        for &sample in us {
            self.commit_latency.record(sample);
        }
    }

    /// Folds one finished run's report into the registry: every counter
    /// of the table, plus the run's wave widths.
    pub fn record_run(&self, report: &RuntimeReport) {
        for (def, counter) in COUNTERS.iter().zip(&self.counters) {
            let v = (def.get)(report);
            match def.fold {
                Fold::Sum => counter.add(v),
                Fold::Max => counter.record_max(v),
            }
        }
        for &width in &report.wave_widths {
            self.wave_width.record(u64::from(width));
        }
    }

    /// Renders the registry as a text snapshot: `slp_<name> <value>`
    /// lines, histogram as cumulative buckets.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (def, counter) in COUNTERS.iter().zip(&self.counters) {
            let _ = writeln!(out, "slp_{} {}", def.name, counter.get());
        }
        self.commit_latency
            .render_into("slp_commit_latency_us", &mut out);
        self.wave_width.render_into("slp_wave_width", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_lossless() {
        let h = Histogram::default();
        for us in [0, 1, 2, 100, 5_000, u64::MAX] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        // 0 and 1 land in the first bucket; u64::MAX overflows past the
        // last bound but is still counted.
        let rendered = {
            let mut s = String::new();
            h.render_into("lat", &mut s);
            s
        };
        assert!(rendered.contains("lat_bucket{le=\"1\"} 2"));
        assert!(rendered.contains("lat_bucket{le=\"4\"} 3"));
        assert!(rendered.contains("lat_bucket{le=\"+Inf\"} 6"));
        assert!(rendered.contains("lat_count 6"));
    }

    /// A run report with the given counters and everything else zero.
    fn report(committed: usize, peak_nodes: usize, violation: bool) -> RuntimeReport {
        RuntimeReport {
            policy: "test",
            workers: 1,
            committed,
            policy_aborts: 0,
            deadlock_aborts: 0,
            certification_aborts: 0,
            rejected: 0,
            abandoned: 0,
            attempts: committed,
            lock_waits: 0,
            grants: 0,
            fast_path_grants: 0,
            slow_path_grants: 0,
            fast_path_fallbacks: 0,
            parks: 0,
            park_timeouts: 0,
            snapshot_reads: 0,
            waves: 2,
            wave_widths: vec![3, 5],
            sched_parks_avoided: 0,
            elapsed: std::time::Duration::ZERO,
            timed_out: false,
            schedule: slp_core::Schedule::empty(),
            initial: slp_core::StructuralState::default(),
            aborted: Vec::new(),
            latency: crate::LatencySummary::default(),
            wal: None,
            certification: Some(Certification {
                strict: false,
                violation: violation.then(|| slp_core::CertViolation {
                    cycle: Vec::new(),
                    stamp: 0,
                }),
                stats: slp_core::CertStats {
                    peak_nodes,
                    ..Default::default()
                },
            }),
        }
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.record_run(&report(7, 5, true));
        // Lower peak and no cycle: the high-water mark holds and the
        // count-if counter does not move.
        m.record_run(&report(3, 2, false));
        m.observe_latencies(&[10, 20, 30]);
        let text = m.render();
        assert!(text.contains("slp_runs_total 2"));
        assert!(text.contains("slp_committed_total 10"));
        assert!(text.contains("slp_attempts_total 10"));
        assert!(text.contains("slp_cert_peak_nodes 5"));
        assert!(text.contains("slp_cert_violations_total 1"));
        assert!(text.contains("slp_waves_total 4"));
        assert!(text.contains("slp_wal_records_total 0"));
        assert!(text.contains("slp_commit_latency_us_count 3"));
        assert!(text.contains("slp_commit_latency_us_sum 60"));
        assert!(text.contains("slp_wave_width_count 4"));
        assert!(text.contains("slp_wave_width_sum 16"));
    }
}
