//! Concurrent load generator for the compilation service: N clients,
//! each on its own loopback connection to one shared session, drive a
//! mixed submit / poll / cancel / sweep workload — plus deliberately
//! over-limit requests — and the run records submit round-trip and
//! completion latencies (p50/p99) and aggregate throughput to
//! `results/service_load.json`.
//!
//! The assertions are deterministic, so CI can run it as a gate: zero
//! protocol-level errors, every over-limit request rejected with the
//! expected structured error, and every accepted job reaching a
//! terminal event (none failed).
//!
//! ```text
//! cargo run --release --example service_load [clients] [jobs-per-client] [workers]
//! ```

use qompress::{Compiler, Strategy};
use qompress_qasm::to_qasm;
use qompress_service::{
    loopback, serve_duplex_with, ServeOptions, ServiceClient, ServiceError, ServiceEvent,
    ServiceLimits,
};
use qompress_workloads::{build, Benchmark};
use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What one client measured over its connection.
#[derive(Debug, Default)]
struct ClientReport {
    /// Submit/submit_sweep request round-trips, milliseconds.
    submit_rtt_ms: Vec<f64>,
    /// Submit-to-terminal-event latencies, milliseconds.
    completion_ms: Vec<f64>,
    accepted: usize,
    completed: usize,
    cancelled: usize,
    quota_rejections: usize,
    shape_rejections: usize,
    /// Transport or protocol failures — the run fails unless zero.
    protocol_errors: usize,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next =
        |default: usize| -> usize { args.next().and_then(|s| s.parse().ok()).unwrap_or(default) };
    let clients = next(4);
    let jobs_per_client = next(6);
    let workers = next(2);

    println!(
        "service load: {clients} clients x {jobs_per_client} jobs \
         (+1 sweep, +2 hostile requests each), {workers} workers\n"
    );

    // One shared session; every client connection gets its own loopback
    // transport and server thread, all with the same tightened limits so
    // the over-limit traffic is rejected deterministically.
    let session = Arc::new(Compiler::builder().workers(workers).build());
    let limits = ServiceLimits {
        max_sweep_bindings: 4,
        ..ServiceLimits::default()
    };

    let started = Instant::now();
    let mut threads = Vec::new();
    for c in 0..clients {
        let session = Arc::clone(&session);
        let limits = limits.clone();
        threads.push(std::thread::spawn(move || {
            run_client(c, jobs_per_client, session, limits)
        }));
    }
    let reports: Vec<ClientReport> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed();

    // The deterministic gates.
    let total = |f: fn(&ClientReport) -> usize| -> usize { reports.iter().map(f).sum() };
    let protocol_errors = total(|r| r.protocol_errors);
    let accepted = total(|r| r.accepted);
    let completed = total(|r| r.completed);
    let cancelled = total(|r| r.cancelled);
    let quota_rejections = total(|r| r.quota_rejections);
    let shape_rejections = total(|r| r.shape_rejections);
    assert_eq!(protocol_errors, 0, "no protocol-level errors allowed");
    assert_eq!(
        quota_rejections, clients,
        "every client's over-wide sweep must be quota-rejected"
    );
    assert_eq!(
        shape_rejections, clients,
        "every client's qubit bomb must be shape-rejected"
    );
    assert_eq!(
        completed + cancelled,
        accepted,
        "every accepted job must reach a terminal event"
    );

    let mut submit_rtts: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.submit_rtt_ms.iter().copied())
        .collect();
    let mut completions: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.completion_ms.iter().copied())
        .collect();
    submit_rtts.sort_by(|a, b| a.total_cmp(b));
    completions.sort_by(|a, b| a.total_cmp(b));
    let jobs_per_sec = completed as f64 / elapsed.as_secs_f64();

    println!(
        "accepted {accepted}  completed {completed}  cancelled {cancelled}  \
         quota-rejected {quota_rejections}  shape-rejected {shape_rejections}"
    );
    println!(
        "submit rtt   p50 {:.3} ms  p99 {:.3} ms",
        percentile(&submit_rtts, 50.0),
        percentile(&submit_rtts, 99.0)
    );
    println!(
        "completion   p50 {:.3} ms  p99 {:.3} ms",
        percentile(&completions, 50.0),
        percentile(&completions, 99.0)
    );
    println!(
        "throughput   {jobs_per_sec:.1} jobs/sec over {:.3} s",
        elapsed.as_secs_f64()
    );

    let path = write_json(
        clients,
        jobs_per_client,
        workers,
        &submit_rtts,
        &completions,
        jobs_per_sec,
        elapsed.as_secs_f64(),
        [
            accepted,
            completed,
            cancelled,
            quota_rejections,
            shape_rejections,
        ],
    );
    println!("\nwrote {}", path.display());
}

/// One client's full scripted conversation with the service.
fn run_client(
    c: usize,
    jobs: usize,
    session: Arc<Compiler>,
    limits: ServiceLimits,
) -> ClientReport {
    let (client_end, server_end) = loopback();
    let (server_reader, server_writer) = server_end.split();
    let server = std::thread::spawn(move || {
        serve_duplex_with(
            session,
            server_reader,
            server_writer,
            ServeOptions {
                limits,
                ..Default::default()
            },
        )
    });
    let (reader, writer) = client_end.split();
    let mut client = ServiceClient::new(BufReader::new(reader), writer);
    let mut report = ClientReport::default();
    let mut submit_instants: HashMap<u64, Instant> = HashMap::new();

    // The mixed legitimate workload: distinct small circuits (per-client
    // seeds keep the shared cache honest — some hits, some misses) with
    // strategies round-robined, polled right after submission.
    let strategies = [Strategy::Eqm, Strategy::QubitOnly, Strategy::RingBased];
    let mut last_id = None;
    for i in 0..jobs {
        let circuit = build(Benchmark::Bv, 5, (c * jobs + i) as u64);
        let t0 = Instant::now();
        match client.submit(
            &format!("c{c}-j{i}"),
            strategies[i % strategies.len()],
            "grid:5",
            &to_qasm(&circuit),
        ) {
            Ok(id) => {
                report.submit_rtt_ms.push(ms(t0));
                submit_instants.insert(id, t0);
                report.accepted += 1;
                last_id = Some(id);
                if client.poll(id).is_err() {
                    report.protocol_errors += 1;
                }
            }
            Err(_) => report.protocol_errors += 1,
        }
    }

    // A cancel race on the last submit: either answer is legal (the job
    // may already be done), but the response must be well-formed and a
    // successful cancel must stream a Cancelled event.
    if let Some(id) = last_id {
        if client.cancel(id).is_err() {
            report.protocol_errors += 1;
        }
    }

    // One parametric sweep within the binding quota…
    let skeleton = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nrz(theta0) q[0];\n\
                    cx q[0], q[1];\nrx(theta1) q[1];\ncx q[1], q[2];\n";
    let bindings: Vec<Vec<f64>> = (0..3)
        .map(|i| vec![0.1 + i as f64, 1.0 - 0.2 * i as f64])
        .collect();
    let t0 = Instant::now();
    match client.submit_sweep(
        &format!("c{c}-sweep"),
        Strategy::Eqm,
        "grid:3",
        skeleton,
        &bindings,
    ) {
        Ok(ids) => {
            report.submit_rtt_ms.push(ms(t0));
            report.accepted += ids.len();
            for id in ids {
                submit_instants.insert(id, t0);
            }
        }
        Err(_) => report.protocol_errors += 1,
    }

    // …and two hostile requests: a sweep past the binding quota and a
    // billion-qubit register. Both must be rejected structurally.
    let wide: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 0.0]).collect();
    match client.submit_sweep(
        &format!("c{c}-wide"),
        Strategy::Eqm,
        "grid:3",
        skeleton,
        &wide,
    ) {
        Err(ServiceError::Quota { .. }) => report.quota_rejections += 1,
        _ => report.protocol_errors += 1,
    }
    match client.submit(
        &format!("c{c}-bomb"),
        Strategy::Eqm,
        "grid:3",
        "OPENQASM 2.0;\nqreg q[1000000000];\nh q[0];\n",
    ) {
        Err(ServiceError::Remote(_)) => report.shape_rejections += 1,
        _ => report.protocol_errors += 1,
    }

    // Drain a terminal event for every accepted job.
    let mut terminal = 0;
    while terminal < report.accepted {
        match client.next_event() {
            Ok(ServiceEvent::Done { job, .. }) => {
                report.completed += 1;
                terminal += 1;
                if let Some(t) = submit_instants.get(&job) {
                    report.completion_ms.push(ms(*t));
                }
            }
            Ok(ServiceEvent::Cancelled { .. }) => {
                report.cancelled += 1;
                terminal += 1;
            }
            Ok(ServiceEvent::Failed { job, label, error }) => {
                panic!("job {job} `{label}` failed under load: {error}")
            }
            Err(_) => {
                report.protocol_errors += 1;
                break;
            }
        }
    }
    // Every tracked job observable as terminal via poll, too.
    for id in submit_instants.keys() {
        match client.poll(*id) {
            Ok(status) if status == "done" || status == "cancelled" => {}
            _ => report.protocol_errors += 1,
        }
    }

    drop(client);
    if server.join().expect("server thread").is_err() {
        report.protocol_errors += 1;
    }
    report
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Hand-rolled JSON emission (the offline build has no serde).
#[allow(clippy::too_many_arguments)]
fn write_json(
    clients: usize,
    jobs_per_client: usize,
    workers: usize,
    submit_rtts: &[f64],
    completions: &[f64],
    jobs_per_sec: f64,
    elapsed_s: f64,
    [accepted, completed, cancelled, quota_rejections, shape_rejections]: [usize; 5],
) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("service_load.json");
    let mut file = std::fs::File::create(&path).expect("create service_load.json");
    writeln!(
        file,
        "{{\n  \"clients\": {clients},\n  \"jobs_per_client\": {jobs_per_client},\n  \
         \"workers\": {workers},\n  \"accepted_jobs\": {accepted},\n  \
         \"completed\": {completed},\n  \"cancelled\": {cancelled},\n  \
         \"quota_rejections\": {quota_rejections},\n  \
         \"shape_rejections\": {shape_rejections},\n  \"protocol_errors\": 0,\n  \
         \"submit_rtt_ms\": {{\"p50\": {:.6}, \"p99\": {:.6}}},\n  \
         \"completion_ms\": {{\"p50\": {:.6}, \"p99\": {:.6}}},\n  \
         \"jobs_per_sec\": {jobs_per_sec:.3},\n  \"elapsed_s\": {elapsed_s:.6}\n}}",
        percentile(submit_rtts, 50.0),
        percentile(submit_rtts, 99.0),
        percentile(completions, 50.0),
        percentile(completions, 99.0),
    )
    .expect("write service_load.json");
    path
}
