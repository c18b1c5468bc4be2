//! CI gate for the resilience stack: runs one sweep of circuits through
//! a **clean** loopback server, then the same sweep through a **chaotic**
//! one — a flaky disk (every 3rd write-back fails with `ENOSPC`), a
//! hair-trigger circuit breaker, a 4-deep admission queue forcing `busy`
//! backpressure, and a retrying client riding over all of it. Asserts
//! zero lost jobs and fingerprint-identical results, that the breaker
//! tripped and then recovered through a half-open probe after the disk
//! healed, that an unopenable cache dir degrades (never aborts), and
//! that a drained server rejects new submits structurally. Writes the
//! observed fault/retry/breaker counters to
//! `results/chaos_resilience.json`.
//!
//! ```text
//! cargo run --release --example chaos_resilience
//! ```

use qompress::{BreakerState, Compiler, FaultKind, FaultOp, FaultPlan, Strategy};
use qompress_arch::Topology;
use qompress_qasm::to_qasm;
use qompress_service::{
    loopback, serve_duplex, serve_duplex_with, DrainHandle, RetryPolicy, ServeOptions,
    ServiceClient, ServiceError, ServiceEvent, ServiceLimits,
};
use qompress_workloads::random_circuit;
use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Sweep width of the chaos run (one more circuit rides along as the
/// post-heal recovery probe).
const N_CIRCUITS: usize = 24;

/// Every 3rd disk write-back fails: enough to trip a hair-trigger
/// breaker repeatedly without ever failing a compile.
const FAULT_PERIOD: u64 = 3;

/// Breaker cooldown in the chaos session; the recovery probe sleeps past
/// it after healing the disk.
const COOLDOWN: Duration = Duration::from_millis(100);

type LoopClient =
    ServiceClient<BufReader<qompress_service::LoopbackReader>, qompress_service::LoopbackWriter>;

fn strategy_from_index(i: usize) -> Strategy {
    [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
        Strategy::ProgressivePairing,
    ][i % 5]
}

fn spec_from_index(i: usize, n: usize) -> String {
    match i % 3 {
        0 => format!("grid:{n}"),
        1 => format!("line:{n}"),
        _ => format!("ring:{}", n.max(3)),
    }
}

/// One wire job: label, strategy, topology spec, QASM text.
struct WireJob {
    label: String,
    strategy: Strategy,
    spec: String,
    qasm: String,
}

/// Submits every job (retrying under the client's policy) and returns
/// label → result fingerprint once all completions have streamed back.
fn run_sweep(client: &mut LoopClient, jobs: &[WireJob]) -> HashMap<String, u64> {
    let mut pending: HashMap<u64, &str> = HashMap::new();
    for job in jobs {
        let id = client
            .submit(&job.label, job.strategy, &job.spec, &job.qasm)
            .unwrap_or_else(|err| panic!("submit {}: {err}", job.label));
        pending.insert(id, &job.label);
    }
    let mut fingerprints = HashMap::new();
    while !pending.is_empty() {
        match client.next_event().expect("completion event") {
            ServiceEvent::Done {
                job,
                label,
                result_fp,
                ..
            } => {
                assert_eq!(
                    pending.remove(&job).map(str::to_string),
                    Some(label.clone()),
                    "completion for an unknown job"
                );
                fingerprints.insert(label, result_fp);
            }
            other => panic!("job lost to chaos: {other:?}"),
        }
    }
    fingerprints
}

fn main() {
    let workload: Vec<WireJob> = (0..=N_CIRCUITS)
        .map(|i| {
            let n = 4 + i % 4;
            WireJob {
                label: format!("job-{i}"),
                strategy: strategy_from_index(i),
                spec: spec_from_index(i, n),
                qasm: to_qasm(&random_circuit(n, 20 + 3 * i, i as u64)),
            }
        })
        .collect();
    let (sweep, probe) = workload.split_at(N_CIRCUITS);
    println!("chaos resilience: {N_CIRCUITS} circuits + 1 recovery probe\n");

    // ── Clean pass: no faults, no backpressure — the reference run. ──
    let clean_fps: HashMap<String, u64> = {
        let session = Arc::new(Compiler::builder().workers(1).build());
        let (client_end, server_end) = loopback();
        let (sr, sw) = server_end.split();
        let server = std::thread::spawn(move || serve_duplex(session, sr, sw));
        let (reader, writer) = client_end.split();
        let mut client = ServiceClient::new(BufReader::new(reader), writer);
        let mut fps = run_sweep(&mut client, sweep);
        fps.extend(run_sweep(&mut client, probe));
        drop(client);
        server.join().expect("clean server").expect("clean exit");
        fps
    };

    // ── Chaos pass: flaky disk + hair-trigger breaker + tiny queue. ──
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("tmp")
        .join("chaos_resilience_example");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear persist dir");
    }
    let faults = FaultPlan::every_nth(FAULT_PERIOD, FaultKind::DiskFull).on_ops(&[FaultOp::Store]);
    let session = Arc::new(
        Compiler::builder()
            .workers(1)
            .persist_dir(&dir)
            .persist_faults(faults.clone())
            .persist_breaker(1, COOLDOWN)
            .build(),
    );
    assert!(session.persistence_enabled());

    let drain = DrainHandle::new();
    let limits = ServiceLimits {
        max_queue_depth: 4,
        ..ServiceLimits::default()
    };
    let (client_end, server_end) = loopback();
    let (sr, sw) = server_end.split();
    let server = {
        let session = Arc::clone(&session);
        let drain = drain.clone();
        std::thread::spawn(move || {
            serve_duplex_with(
                session,
                sr,
                sw,
                ServeOptions {
                    limits,
                    drain: Some(drain),
                },
            )
        })
    };
    let (reader, writer) = client_end.split();
    let mut client =
        ServiceClient::new(BufReader::new(reader), writer).with_retry_policy(RetryPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            deadline: Some(Duration::from_secs(30)),
            jitter: true,
            seed: 0xC4A05,
        });

    // Park the pool so the 4-deep queue fills and submits hit `busy`;
    // un-park from the side once the client is deep in its retry loop.
    session.pause_workers();
    let unpause = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            session.resume_workers();
        })
    };
    let chaos_fps = run_sweep(&mut client, sweep);
    unpause.join().expect("unpause thread");

    // Zero lost jobs, zero divergent results.
    let mismatches = sweep
        .iter()
        .filter(|job| chaos_fps.get(&job.label) != clean_fps.get(&job.label))
        .count();
    assert_eq!(chaos_fps.len(), N_CIRCUITS, "every job must complete");
    assert_eq!(mismatches, 0, "chaos must never change results");

    let retries = client.retry_stats();
    assert!(
        retries.busy_retries >= 1,
        "backpressure must have been retried: {retries:?}"
    );
    assert_eq!(retries.give_ups, 0, "no submit may be abandoned");

    let mid = client.stats().expect("stats").tiers;
    assert!(
        mid.disk_write_errors >= 1,
        "the flaky disk must have bitten"
    );
    assert!(mid.breaker_trips >= 1, "a hair-trigger breaker must trip");
    assert!(mid.disk_writes >= 1, "some write-backs still land");

    // ── Heal the disk; the breaker recovers through a probe. ──
    faults.heal();
    std::thread::sleep(COOLDOWN + Duration::from_millis(150));
    let recovery_fps = run_sweep(&mut client, probe);
    assert_eq!(
        recovery_fps.get(&probe[0].label),
        clean_fps.get(&probe[0].label),
        "the recovery probe result must match the clean run"
    );
    let healed = client.stats().expect("stats").tiers;
    assert!(
        healed.breaker_probes >= 1,
        "recovery goes through half-open"
    );
    assert_eq!(
        healed.breaker_state,
        BreakerState::Closed,
        "the breaker must close once the disk heals"
    );

    // ── Drain: new submits are rejected structurally, stats still work. ──
    drain.trigger();
    let err = client
        .submit("late", Strategy::Eqm, "grid:2", &sweep[0].qasm)
        .expect_err("a draining server accepts no new jobs");
    assert!(matches!(err, ServiceError::Draining { .. }), "{err}");
    let _ = client.stats().expect("stats during drain");
    drop(client);
    server.join().expect("chaos server").expect("chaos exit");

    // ── An unopenable cache dir degrades to memory-only, never aborts. ──
    let blocker = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("tmp")
        .join("chaos_resilience_blocker");
    let _ = std::fs::remove_dir_all(&blocker);
    let _ = std::fs::remove_file(&blocker);
    std::fs::write(&blocker, b"not a directory").expect("plant blocker");
    let degraded = Compiler::builder()
        .workers(1)
        .persist_dir(blocker.join("cache"))
        .build();
    assert!(!degraded.persistence_enabled(), "must degrade, not abort");
    assert!(
        !degraded.diagnostics().is_empty(),
        "degradation is reported"
    );
    let _ = degraded.compile(&random_circuit(3, 10, 1), &Topology::grid(3), Strategy::Eqm);

    println!("  clean == chaos on {N_CIRCUITS}/{N_CIRCUITS} fingerprints");
    println!(
        "  retries: {} busy, {} reconnects, {} give-ups",
        retries.busy_retries, retries.reconnects, retries.give_ups
    );
    println!(
        "  breaker: {} trip(s), {} probe(s), final state {}",
        healed.breaker_trips, healed.breaker_probes, healed.breaker_state
    );
    println!("  tiers: {healed}");

    let path = write_json(retries.busy_retries, &healed.to_json());
    println!("\nwrote {}", path.display());
}

/// Hand-rolled JSON emission (the offline build has no serde).
fn write_json(busy_retries: u64, tiers: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("chaos_resilience.json");
    let mut file = std::fs::File::create(&path).expect("create chaos_resilience.json");
    writeln!(
        file,
        "{{\n  \"circuits\": {N_CIRCUITS},\n  \"fault_period\": {FAULT_PERIOD},\n  \
         \"lost_jobs\": 0,\n  \"fingerprint_mismatches\": 0,\n  \
         \"busy_retries\": {busy_retries},\n  \"tiers\": {tiers}\n}}",
    )
    .expect("write chaos_resilience.json");
    path
}
