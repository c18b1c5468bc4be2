//! The compile workloads (`paper-sweep`, `utility-scale`): a closed loop
//! of one client thread calling `Compiler::compile` once per job on a
//! fresh caching session with 2 workers. A pass compiles every job of the
//! corpus once, on that pass's own instances (`Corpus::circuits_of_pass`);
//! a run makes as many whole passes as fit in its seconds. Reported times
//! are scaled to nominal host speed (see `calib`).

use crate::calib::{speed_factor, Calibration};
use crate::corpus::{decomposable, Corpus};
use crate::layers::{replay, ServeLegs};
use crate::quality::{canaries, check_canary, check_result};
use crate::report::{layer_metrics, peak_rss_mb, print_attribution, LayerCounts, Outcome};
use crate::stats::{geomean, mean, median, quantile};
use crate::trace::{attribute, Span, Tracer};
use crate::{catch_job, RunArgs};
use qompress::{CompilationResult, Compiler, CompilerConfig, Strategy};
use qompress_circuit::Circuit;
use qompress_service::result_fingerprint;
use qompress_workloads::Benchmark;
use std::sync::Arc;
use std::time::Instant;

/// Session workers, fixed: the reference box has 2 cores.
const WORKERS: usize = 2;
/// Session builds timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Kernel runs before each job (see `calib`).
const KERNEL_RUNS: usize = 3;
/// Passes `comm_ops` and `neg_log10_eps` average over, and so the fewest
/// passes an untraced run makes: each pass draws its own instances.
const QUALITY_PASSES: usize = 3;
/// Random canary circuits per run (each compiled with every strategy).
const CANARY_CIRCUITS: usize = 4;

/// Builds the measured session and its per-topology precomputation:
/// expanded graphs and centers of every device.
fn build_session(corpus: &Corpus) -> Arc<Compiler> {
    let session = Arc::new(Compiler::builder().workers(WORKERS).caching(true).build());
    for (_, topo) in &corpus.devices {
        std::hint::black_box(session.topology_cache(topo).center());
    }
    session
}

/// Timings of one untraced pass.
struct Pass {
    wall_s: f64,
    job_ms: Vec<f64>,
    /// Per job, the factor that scales its time to nominal host speed.
    speed: Vec<f64>,
}

type JobResult = Result<Arc<CompilationResult>, String>;

/// Compiles every job once on `circuits` on a fresh session; returns the
/// timings and the results (which the caller checks and drops, so memory
/// stays one pass).
fn untraced_pass(
    corpus: &Corpus,
    circuits: &[Circuit],
    calibration: &mut Calibration,
) -> (Pass, Vec<JobResult>) {
    let session = build_session(corpus);
    let mut job_ms = Vec::with_capacity(corpus.jobs.len());
    let mut kernel_ms = Vec::with_capacity((corpus.jobs.len() + 1) * KERNEL_RUNS);
    let mut results = Vec::with_capacity(corpus.jobs.len());
    let started = Instant::now();
    for job in &corpus.jobs {
        kernel_ms.extend((0..KERNEL_RUNS).map(|_| calibration.sample()));
        let circuit = &circuits[job.circuit];
        let topo = &corpus.devices[job.device].1;
        let t = Instant::now();
        let r = catch_job(|| session.compile(circuit, topo, job.strategy));
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        results.push(r);
    }
    kernel_ms.extend((0..KERNEL_RUNS).map(|_| calibration.sample()));
    let pass = Pass {
        // The traced pass runs no kernel; leave it out of the comparison.
        wall_s: started.elapsed().as_secs_f64() - kernel_ms.iter().sum::<f64>() / 1e3,
        job_ms,
        // Each job against the kernel runs just before and just after it:
        // the host's speed drifts within a pass, and one long job can
        // outweigh all the short ones.
        speed: kernel_ms
            .windows(2 * KERNEL_RUNS)
            .step_by(KERNEL_RUNS)
            .map(speed_factor)
            .collect(),
    };
    (pass, results)
}

fn is_parametric_leg(family: Benchmark, size: usize, strategy: Strategy) -> bool {
    matches!(family, Benchmark::QaoaRandom | Benchmark::QaoaTorus)
        && size <= 16
        && matches!(strategy, Strategy::QubitOnly | Strategy::Eqm)
}

/// One traced pass: each job compiled once, then replayed and driven
/// through the serving layers, all inside its `job` span. `untraced_fps`
/// holds each job's fingerprint from the untraced pass (`None` where it
/// failed); the traced compile must reproduce it.
fn traced_pass(
    corpus: &Corpus,
    args: &RunArgs,
    untraced: &Pass,
    untraced_fps: &[Option<u64>],
    out: &mut Outcome,
) -> (Tracer, LayerCounts, f64) {
    let session = build_session(corpus);
    let store_dir = args.out_dir.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut legs = ServeLegs::start(Arc::clone(&session), &store_dir);
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut search_ns = 0u64;
    let started = Instant::now();
    for (i, job) in corpus.jobs.iter().enumerate() {
        let jid = i as u32;
        let circuit = &corpus.circuits[job.circuit];
        let (spec, topo) = &corpus.devices[job.device];
        let root = tracer.begin("job", jid);
        let ec = matches!(job.strategy, Strategy::Exhaustive { .. });
        let before = session.cache_stats();
        let compile_span = tracer.begin("compile", jid);
        let r = catch_job(|| session.compile(circuit, topo, job.strategy));
        tracer.end(compile_span);
        if ec {
            let after = session.cache_stats();
            counts.ec_hits += after.hits - before.hits;
            counts.ec_misses += after.misses - before.misses;
        }
        if let Ok(result) = &r {
            let mut checked = Ok(());
            if decomposable(job.strategy) {
                let first = tracer.spans().len();
                checked = replay(
                    &mut tracer,
                    jid,
                    &session,
                    circuit,
                    topo,
                    job.strategy,
                    result,
                )
                .map(|ops| counts.routed_ops += ops);
                if matches!(
                    job.strategy,
                    Strategy::RingBased | Strategy::Awe | Strategy::ProgressivePairing
                ) {
                    let span_ns = |name: &str| -> u64 {
                        tracer.spans()[first..]
                            .iter()
                            .filter(|s| s.name == name)
                            .map(Span::duration)
                            .sum()
                    };
                    let pipeline = span_ns("pipeline") - span_ns("arch.center");
                    search_ns += tracer.duration(compile_span).saturating_sub(pipeline);
                }
            }
            let checked = checked.and_then(|()| {
                legs.run(
                    &mut tracer,
                    jid,
                    &job.label,
                    spec,
                    circuit,
                    topo,
                    job.strategy,
                    result,
                    is_parametric_leg(job.family, job.size, job.strategy),
                )
            });
            if let Err(reason) = checked {
                out.fail(&job.label, &format!("traced run: {reason}"), true);
            }
        }
        tracer.end(root);
        if let (Ok(result), Some(want)) = (&r, untraced_fps[i]) {
            if result_fingerprint(result) != want {
                out.fail(
                    &job.label,
                    "traced run: result differs from the untraced pass",
                    true,
                );
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    legs.finish();
    let oracle = session.oracle_stats();
    let tiers = session.tiered_cache_stats();
    counts.oracle_rows = oracle.rows_materialized as u64;
    counts.landmark_rows = oracle.landmark_rows as u64;
    counts.oracle_bytes = oracle.approx_bytes as u64;
    counts.mem_hits = tiers.memory_hits;
    counts.misses = tiers.misses;
    counts.search_ms = search_ns as f64 / 1e6;
    counts.overhead_pct = 100.0 * (wall_s - untraced.wall_s) / untraced.wall_s;
    (tracer, counts, wall_s)
}

/// Runs one compile workload and returns its outcome.
pub fn run(name: &str, corpus: &Corpus, args: &RunArgs) -> Outcome {
    println!(
        "workload {name}: closed loop, 1 client, 1 load thread, {WORKERS} session workers, \
         {} jobs per pass on {}, seed {}",
        corpus.jobs.len(),
        corpus
            .devices
            .iter()
            .map(|(s, _)| s.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        args.seed
    );
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let mut calibration = Calibration::new();
    let mut setup_kernel_ms = Vec::with_capacity(SETUP_REPEATS);
    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            setup_kernel_ms.push(calibration.sample());
            let t = Instant::now();
            let session = build_session(corpus);
            let s = t.elapsed().as_secs_f64();
            drop(session);
            s
        })
        .collect();

    // Canaries: semantic checks with the dense simulator, on their own
    // session so they leave the measured caches untouched.
    let canary_session = Compiler::builder().workers(WORKERS).build();
    for canary in canaries(args.seed, CANARY_CIRCUITS, &corpus.strategies) {
        out.attempted += 1;
        match catch_job(|| check_canary(&canary_session, &canary)) {
            Ok(Ok(())) => {}
            Ok(Err(reason)) => out.fail(&canary.label, &reason, true),
            Err(panic) => out.fail(&canary.label, &panic, false),
        }
    }
    drop(canary_session);

    let config = CompilerConfig::paper();
    let budget = args.seconds;
    let (mut jobs_attempted, mut jobs_failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Pass 0's result fingerprints, which the traced pass must reproduce.
    let mut fps: Vec<Option<u64>> = Vec::new();
    // Communication ops and quality of the succeeded jobs of the first
    // `QUALITY_PASSES` passes.
    let (mut comm_ops, mut qualities) = (0usize, Vec::new());
    loop {
        let index = passes.len();
        let circuits = corpus.circuits_of_pass(index);
        let (pass, results) = untraced_pass(corpus, &circuits, &mut calibration);
        out.attempted += results.len() as u64;
        jobs_attempted += results.len() as u64;
        let failed_before = out.failed;
        for (job, r) in corpus.jobs.iter().zip(&results) {
            let topo = &corpus.devices[job.device].1;
            let fp = match r {
                Err(panic) => {
                    out.fail(&job.label, panic, false);
                    None
                }
                Ok(result) => match check_result(result, topo, &config) {
                    Ok(quality) => {
                        if index < QUALITY_PASSES {
                            comm_ops += result.metrics.communication_ops;
                            qualities.push(quality);
                        }
                        Some(result_fingerprint(result))
                    }
                    Err(reason) => {
                        out.fail(&job.label, &reason, true);
                        None
                    }
                },
            };
            if index == 0 {
                fps.push(fp);
            }
        }
        drop(results);
        jobs_failed += out.failed - failed_before;
        let mean_pass = started.elapsed().as_secs_f64() / (passes.len() + 1) as f64;
        passes.push(pass);
        let out_of_time = started.elapsed().as_secs_f64() + mean_pass > budget;
        if args.trace || (passes.len() >= QUALITY_PASSES && out_of_time) {
            break;
        }
    }

    if args.trace {
        let untraced_wall = passes[0].wall_s;
        let (tracer, counts, traced_wall) = traced_pass(corpus, args, &passes[0], &fps, &mut out);
        println!(
            "tracing overhead, {name}: traced pass {traced_wall:.3} s, untraced pass \
             {untraced_wall:.3} s, difference {:.3} s",
            traced_wall - untraced_wall
        );
        let attribution = attribute(tracer.spans(), "job");
        print_attribution(name, &attribution);
        for &job in &attribution.unbalanced_jobs {
            out.fail(
                &corpus.jobs[job as usize].label,
                "stage self times do not sum to the job span",
                true,
            );
        }
        let path = args
            .out_dir
            .join(format!("trace-{name}-seed{}.jsonl", args.seed));
        tracer
            .write_jsonl(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("spans written to {}", path.display());
        out.metrics = layer_metrics(tracer.spans(), &attribution, &counts);
        return out;
    }

    let n = corpus.jobs.len();
    let per_job = |scaled: bool| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let ms: Vec<f64> = passes
                    .iter()
                    .map(|p| p.job_ms[i] * if scaled { p.speed[i] } else { 1.0 })
                    .collect();
                median(&ms)
            })
            .collect()
    };
    let per_job_ms = per_job(true);
    let raw_ms = per_job(false);
    // Jobs per second of a pass in which every job takes its median time
    // over the run's passes: one costly instance of a job that dominates
    // the pass (qaoa-random-64 on `heavyhex:21`) moves no job.
    let rate = |ms: &[f64]| n as f64 / (ms.iter().sum::<f64>() / 1e3);
    println!(
        "as measured, before scaling to nominal host speed: setup {:.6} s, \
         {:.4} compiles/s, geomean {:.4} ms, p50 {:.4} ms; pass speed factors {:?}",
        median(&setup),
        rate(&raw_ms),
        geomean(&raw_ms),
        quantile(&raw_ms, 0.5),
        passes
            .iter()
            .map(|p| (median(&p.speed) * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "{} passes of {n} jobs; pass walls {:?} s",
        passes.len(),
        passes
            .iter()
            .map(|p| (p.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    out.push(
        "setup_s",
        median(&setup) * speed_factor(&setup_kernel_ms),
        "s",
    );
    out.push("compiles_per_s", rate(&per_job_ms), "1/s");
    out.push("compile_ms_geomean", geomean(&per_job_ms), "ms");
    out.push("comm_ops", comm_ops as f64 / QUALITY_PASSES as f64, "count");
    out.push("neg_log10_eps", mean(&qualities), "-log10");
    out.push(
        "ok_frac",
        1.0 - jobs_failed as f64 / jobs_attempted.max(1) as f64,
        "ratio",
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push("job_p50_ms", quantile(&per_job_ms, 0.5), "ms");
    out
}
