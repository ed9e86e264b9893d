//! The runtime benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Repeats set-up, run, recovery and output check of one workload for
//! about `--seconds`: one warm-up repetition, then at least three measured
//! ones. Prints each metric's median over the measured repetitions as
//! `name value unit` lines and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced repetitions: the traced ones keep spans, count
//! allocations and run the single-layer probes, and give the per-layer
//! metrics; the pair gives the tracing overhead. The spans are written to
//! `out/spans-<workload>-<seed>.json` in this package's directory.
//!
//! A failed output check prints what failed to stderr, reports
//! `"correct": false` and exits with status 1; bad arguments exit with
//! status 2.

use slp_perfbench::check::{check_recovery, check_run};
use slp_perfbench::probes::{self, CountingAlloc};
use slp_perfbench::stats::Samples;
use slp_perfbench::trace::Tracer;
use slp_perfbench::workload::{self, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measured repetitions a run makes however long they take.
const MIN_REPS: u32 = 3;

/// The end-to-end metrics the result line carries, each gated by a bound
/// in `BENCHMARK.json`. The untraced run prints more (`commit_p99_us`,
/// `commit_count`, `recover_s`, `jobs_failed_frac`); `README.md` says why
/// those are not gated.
const GATED: [&str; 3] = ["jobs_per_s", "peak_rss_mb", "setup_s"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let mut tracer = Tracer::new(false);
    let mut e2e = Samples::default();
    let mut layers = Samples::default();
    let mut untraced_rate = Vec::new();
    let mut traced_rate = Vec::new();
    let mut peak_rss_mb = None;
    let (mut attempted, mut failed) = (0u64, 0u64);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // Repetition 0 warms up and is checked but not measured: this host
    // runs faster for about a second after idling and settles under
    // sustained load, so timing from a cold start would depend on what
    // ran before.
    let min_reps = 1 + if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut rep = 0u32;
    while rep < min_reps || started.elapsed() < budget {
        let warmup = rep == 0;
        let traced = args.trace && !warmup && rep.is_multiple_of(2);
        tracer.set_enabled(traced);
        tracer.set_rep(rep);
        let (mut discard_e2e, mut discard_layers) = (Samples::default(), Samples::default());
        let (e2e_into, layers_into) = if warmup {
            (&mut discard_e2e, &mut discard_layers)
        } else {
            (&mut e2e, &mut layers)
        };
        let outcome = repetition(
            w,
            rep_seed(args.seed, rep),
            traced,
            &mut tracer,
            e2e_into,
            layers_into,
        );
        let Rep {
            jobs,
            committed,
            jobs_per_s,
            failures,
        } = outcome;
        attempted += jobs as u64;
        failed += (jobs - committed) as u64;
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("{} seed {} rep {rep}: FAILED: {f}", w.name(), args.seed);
            }
            print_result(false, attempted, failed, &[]);
            std::process::exit(1);
        }
        if warmup {
            // The only work this process has done so far, so its
            // high-water mark is one run's peak.
            peak_rss_mb = probes::peak_rss_mb();
        } else if traced {
            traced_rate.push(jobs_per_s);
        } else {
            untraced_rate.push(jobs_per_s);
        }
        rep += 1;
    }

    println!(
        "# {} seed {} workers {} jobs {} reps {} ({:.1} s)",
        w.name(),
        args.seed,
        workload::WORKERS,
        w.jobs(),
        rep,
        started.elapsed().as_secs_f64()
    );
    let metrics = if args.trace {
        let untraced = slp_perfbench::stats::median(&untraced_rate);
        let traced = slp_perfbench::stats::median(&traced_rate);
        layers.push("trace.untraced_jobs_per_s", "jobs/s", untraced);
        layers.push("trace.traced_jobs_per_s", "jobs/s", traced);
        layers.push("trace.overhead", "fraction", untraced / traced - 1.0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", w.name(), args.seed));
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        let all = layers.medians();
        for (name, unit, value) in &all {
            println!("{name} {value} {unit}");
        }
        all
    } else {
        e2e.push(
            "peak_rss_mb",
            "MB",
            peak_rss_mb.expect("VmHWM is readable on Linux"),
        );
        let all = e2e.medians();
        for (name, unit, value) in &all {
            println!("{name} {value} {unit}");
        }
        all.into_iter()
            .filter(|(name, _, _)| GATED.contains(name))
            .collect()
    };
    print_result(true, attempted, failed, &metrics);
}

/// The job seed of repetition `rep`: each repetition runs its own job
/// stream, so a run's medians average over several inputs drawn from its
/// seed, and repetition 0 runs the seed itself.
fn rep_seed(seed: u64, rep: u32) -> u64 {
    seed.wrapping_add(u64::from(rep) << 32)
}

/// What one repetition hands back to the loop.
struct Rep {
    jobs: usize,
    committed: usize,
    jobs_per_s: f64,
    failures: Vec<String>,
}

/// Sets up, runs, recovers and checks `w` once, recording end-to-end
/// samples into `e2e` and, when `traced`, per-layer samples into
/// `layers`.
fn repetition(
    w: Workload,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
    e2e: &mut Samples,
    layers: &mut Samples,
) -> Rep {
    let root = tracer.begin("rep");
    let (mut p, setup) = workload::prepare(w, seed, tracer);

    // Single-layer probes, before the run so they see its start state.
    let probes_before = traced.then(|| {
        (
            workload::mean_plan_us(&p, tracer),
            workload::dominators_us(&p, tracer).unwrap_or(0.0),
            workload::empty_run_us(&mut p, tracer),
        )
    });

    let rss_before = probes::rss_mb();
    let cpu_before = probes::cpu_seconds();
    let switches_before = probes::voluntary_context_switches();
    if traced {
        CountingAlloc::start();
    }
    let (report, run) = workload::run(&mut p, tracer);
    let (allocs, alloc_bytes) = if traced {
        CountingAlloc::stop()
    } else {
        (0, 0)
    };
    let cpu = cpu_before.zip(probes::cpu_seconds()).map(|(a, b)| b - a);
    let switches = switches_before
        .zip(probes::voluntary_context_switches())
        .map(|(a, b)| b.saturating_sub(a));
    let rss_growth = rss_before.zip(probes::rss_mb()).map(|(a, b)| b - a);

    let mut failures = Vec::new();
    let recovery = match workload::recover_log(&p, tracer) {
        Some(Ok((recovered, took))) => {
            failures.extend(check_recovery(&recovered, &report, p.writers));
            Some((recovered.tail.len(), took))
        }
        Some(Err(e)) => {
            failures.push(e);
            None
        }
        None => None,
    };
    let checked = check_run(&report, &p.expect, tracer);
    failures.extend(checked.failures);
    tracer.end(root);

    let jobs = p.jobs.len();
    let n = jobs as f64;
    let run_s = run.as_secs_f64();
    let jobs_per_s = report.committed as f64 / run_s;
    // A wrong result is reported as such, not measured.
    if !failures.is_empty() {
        return Rep {
            jobs,
            committed: report.committed,
            jobs_per_s,
            failures,
        };
    }
    if !traced {
        e2e.push("jobs_per_s", "jobs/s", jobs_per_s);
        e2e.push("commit_p99_us", "us", report.latency.p99_us as f64);
        e2e.push("setup_s", "s", setup.total.as_secs_f64());
        e2e.push(
            "jobs_failed_frac",
            "fraction",
            (n - report.committed as f64) / n,
        );
        e2e.push("commit_count", "count", report.latency.count as f64);
        if let Some((_, took)) = recovery {
            e2e.push("recover_s", "s", took.as_secs_f64());
        }
    }

    if let Some((plan_us, dominators_us, empty_run_us)) = probes_before {
        let steps = report.schedule.len() as f64;
        let committed = report.committed as f64;
        layers.push("sim.gen_s", "s", setup.gen.as_secs_f64());
        layers.push("sim.plan_us", "us", plan_us);
        layers.push("graph.dominators_us", "us", dominators_us);
        layers.push("policies.build_s", "s", setup.build.as_secs_f64());
        layers.push("runtime.run_s", "s", run_s);
        layers.push("runtime.empty_run_us", "us", empty_run_us);
        layers.push(
            "runtime.fast_path_ratio",
            "fraction",
            report.fast_path_ratio(),
        );
        layers.push(
            "runtime.fallbacks_per_job",
            "count/job",
            report.fast_path_fallbacks as f64 / n,
        );
        layers.push("runtime.allocs_per_job", "count/job", allocs as f64 / n);
        layers.push(
            "runtime.alloc_bytes_per_job",
            "bytes/job",
            alloc_bytes as f64 / n,
        );
        layers.push(
            "runtime.lock_waits_per_job",
            "count/job",
            report.lock_waits as f64 / n,
        );
        layers.push(
            "runtime.parks_per_job",
            "count/job",
            report.parks as f64 / n,
        );
        layers.push(
            "runtime.park_timeouts",
            "count",
            report.park_timeouts as f64,
        );
        layers.push(
            "runtime.useful_attempt_ratio",
            "fraction",
            committed / report.attempts as f64,
        );
        layers.push(
            "runtime.deadlock_aborts_per_job",
            "count/job",
            report.deadlock_aborts as f64 / n,
        );
        layers.push("runtime.cpu_per_wall", "cpus", cpu.unwrap_or(0.0) / run_s);
        layers.push(
            "runtime.ctx_switches_per_job",
            "count/job",
            switches.unwrap_or(0) as f64 / n,
        );
        layers.push("runtime.commit_p50_us", "us", report.latency.p50_us as f64);
        layers.push("runtime.commit_p99_us", "us", report.latency.p99_us as f64);
        layers.push("runtime.commit_count", "count", report.latency.count as f64);
        layers.push("runtime.commit_max_us", "us", report.latency.max_us as f64);
        layers.push(
            "runtime.slowest_job_share",
            "fraction",
            report.latency.max_us as f64 / (run_s * 1e6),
        );
        layers.push("runtime.steps_per_job", "steps/job", steps / n);
        layers.push("runtime.rss_growth_mb", "MB", rss_growth.unwrap_or(0.0));
        let cert = report.certification.as_ref().map(|c| c.stats);
        layers.push(
            "core.cert_edges_per_step",
            "edges/step",
            cert.map_or(0.0, |s| s.edges as f64 / s.steps.max(1) as f64),
        );
        layers.push(
            "core.cert_peak_nodes",
            "count",
            cert.map_or(0.0, |s| s.peak_nodes as f64),
        );
        layers.push(
            "core.certify_replay_ns_per_step",
            "ns/step",
            checked.replay.as_secs_f64() * 1e9 / steps,
        );
        layers.push("core.check_s", "s", checked.legal_proper.as_secs_f64());
        let reads = report.snapshot_reads as f64;
        layers.push(
            "mvcc.snapshot_read_share",
            "fraction",
            reads / (reads + report.grants as f64),
        );
        let wal = report.wal.unwrap_or_default();
        layers.push(
            "durability.records_per_commit",
            "count/commit",
            wal.records as f64 / committed,
        );
        layers.push(
            "durability.bytes_per_step",
            "bytes/step",
            wal.bytes as f64 / steps,
        );
        layers.push(
            "durability.syncs_per_commit",
            "count/commit",
            wal.syncs as f64 / committed,
        );
        layers.push("durability.checkpoints", "count", wal.checkpoints as f64);
        let (replayed, recover_s) =
            recovery.map_or((0.0, 0.0), |(tail, took)| (tail as f64, took.as_secs_f64()));
        layers.push("durability.replayed_steps", "steps", replayed);
        layers.push("durability.recover_s", "s", recover_s);
    }

    Rep {
        jobs,
        committed: report.committed,
        jobs_per_s,
        failures,
    }
}

/// Prints the result line: one JSON object, the last line of standard
/// output.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes a u64")),
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| usage("--seconds takes a whole number ≥ 1"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    }
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    );
    std::process::exit(2);
}
