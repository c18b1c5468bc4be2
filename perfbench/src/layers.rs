//! The traced run's per-job work: the pipeline replayed stage by stage
//! through public calls, then one pass of each serving layer (wire,
//! job queue, memory tier, codec, disk store, skeleton tier) over the same
//! job. Every call sits in its own span, so each layer's time is measured
//! from outside the program.

use crate::corpus::decomposable;
use crate::trace::Tracer;
use qompress::persist::{decode_result, encode_result};
use qompress::{
    map_circuit, merge_singles, route_cached, schedule_ops, trace_coherence, BatchJob,
    CompilationResult, Compiler, JobOutcome, MappingOptions, Metrics, Strategy,
};
use qompress_arch::Topology;
use qompress_circuit::{
    Circuit, CircuitDag, Gate, ParametricCircuit, RotationAxis, SingleQubitKind,
};
use qompress_qasm::{parse_qasm, to_qasm};
use qompress_service::{
    loopback, result_fingerprint, serve_duplex, LoopbackReader, LoopbackWriter, Request,
    ServiceClient, ServiceEvent, WireMetrics,
};
use qompress_store::{DiskStore, LoadOutcome};
use std::io::BufReader;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Replays `result`'s pipeline stage by stage and checks that the replay
/// reproduces the session's `Metrics` and initial placements. Returns the
/// number of ops `route_cached` emitted.
///
/// `map_circuit` recomputes the topology center (the session pipeline uses
/// its cached one), so the center is timed in its own span just before,
/// and the mapping layer's time is the mapping span minus that span.
pub fn replay(
    tracer: &mut Tracer,
    job: u32,
    session: &Compiler,
    circuit: &Circuit,
    topo: &Topology,
    strategy: Strategy,
    result: &CompilationResult,
) -> Result<u64, String> {
    debug_assert!(decomposable(strategy));
    let config = session.config();
    let options = match strategy {
        Strategy::QubitOnly => MappingOptions::qubit_only(),
        Strategy::Eqm => MappingOptions::eqm(),
        _ => MappingOptions::with_pairs(result.pairs.clone()),
    };
    let tcache = session.topology_cache(topo);
    let pipeline = tracer.begin("pipeline", job);
    std::hint::black_box(tracer.leaf("arch.center", job, || topo.center()));
    let mut layout = tracer.leaf("mapping.map", job, || {
        map_circuit(circuit, topo, config, &options)
    });
    let initial = layout.placements();
    let encoded = layout.encoded_flags().to_vec();
    let dag = tracer.leaf("circuit.dag", job, || CircuitDag::build(circuit));
    let ops = tracer.leaf("routing.route", job, || {
        route_cached(circuit, &dag, &mut layout, &tcache, config)
    });
    let routed_ops = ops.len() as u64;
    let ops = tracer.leaf("scheduling.merge", job, || merge_singles(ops));
    let schedule = tracer.leaf("scheduling.schedule", job, || {
        schedule_ops(ops, topo.n_nodes(), &config.library)
    });
    let trace = tracer.leaf("scheduling.trace", job, || {
        trace_coherence(&schedule, &initial, &encoded)
    });
    let metrics = tracer.leaf("metrics.compute", job, || {
        Metrics::compute(&schedule, &trace, config)
    });
    tracer.end(pipeline);
    if metrics != result.metrics {
        return Err("replayed Metrics differ from the session's result".into());
    }
    if initial != result.initial_placements {
        return Err("replayed initial placements differ from the session's result".into());
    }
    Ok(routed_ops)
}

/// Turns every rotation and every `Z` of `circuit` into a parametric site
/// with its own parameter, returning the skeleton and one binding (the
/// rotation's own angle, `π` for a `Z`). `None` when there is no site.
pub fn parametrize(circuit: &Circuit) -> Option<(ParametricCircuit, Vec<f64>)> {
    let mut skeleton = ParametricCircuit::new(circuit.n_qubits());
    let mut angles = Vec::new();
    for &gate in circuit.gates() {
        let site = match gate {
            Gate::Single { kind, qubit } => match kind {
                SingleQubitKind::Rx(a) => Some((RotationAxis::Rx, a, qubit)),
                SingleQubitKind::Ry(a) => Some((RotationAxis::Ry, a, qubit)),
                SingleQubitKind::Rz(a) => Some((RotationAxis::Rz, a, qubit)),
                SingleQubitKind::Z => Some((RotationAxis::Rz, std::f64::consts::PI, qubit)),
                _ => None,
            },
            _ => None,
        };
        match site {
            Some((axis, angle, qubit)) => {
                skeleton.push_param(axis, angles.len(), qubit);
                angles.push(angle);
            }
            None => skeleton.push(gate),
        }
    }
    (!angles.is_empty()).then_some((skeleton, angles))
}

/// The serving layers one traced pass drives: a loopback wire server on
/// the pass's session and a disk store under the run's output directory.
pub struct ServeLegs {
    session: Arc<Compiler>,
    client: Option<ServiceClient<BufReader<LoopbackReader>, LoopbackWriter>>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    store: DiskStore,
}

impl ServeLegs {
    /// Starts a wire server on `session` and opens a store at `store_dir`.
    pub fn start(session: Arc<Compiler>, store_dir: &std::path::Path) -> Self {
        let (client_end, server_end) = loopback();
        let (sr, sw) = server_end.split();
        let served = Arc::clone(&session);
        let server = std::thread::spawn(move || serve_duplex(served, sr, sw));
        let (cr, cw) = client_end.split();
        let store = DiskStore::open(store_dir, 1 << 30).expect("benchmark store dir opens");
        ServeLegs {
            session,
            client: Some(ServiceClient::new(BufReader::new(cr), cw)),
            server: Some(server),
            store,
        }
    }

    /// Runs every serving layer once over a job the session has already
    /// compiled to `result`. `parametric` adds the skeleton tier.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        job: u32,
        label: &str,
        spec: &str,
        circuit: &Circuit,
        topo: &Topology,
        strategy: Strategy,
        result: &CompilationResult,
        parametric: bool,
    ) -> Result<(), String> {
        let fp = result_fingerprint(result);
        let qasm = to_qasm(circuit);
        let parsed = tracer.leaf("qasm.parse", job, || parse_qasm(&qasm));
        if parsed.map_err(|e| e.to_string())?.gates() != circuit.gates() {
            return Err("QASM round trip changed the circuit".into());
        }
        let line = Request::Submit {
            label: label.to_string(),
            strategy,
            topology: spec.to_string(),
            qasm: qasm.clone(),
        }
        .to_line();
        tracer.leaf("service.request_parse", job, || Request::parse(&line))?;
        let event = ServiceEvent::Done {
            job: u64::from(job),
            label: label.to_string(),
            strategy: result.strategy.clone(),
            result_fp: fp,
            metrics: WireMetrics::of(result),
        };
        std::hint::black_box(tracer.leaf("service.event_encode", job, || event.to_line()));

        let client = self.client.as_mut().expect("client open until finish");
        let id = tracer
            .leaf("service.submit", job, || {
                client.submit(label, strategy, spec, &qasm)
            })
            .map_err(|e| format!("wire submit: {e}"))?;
        match tracer.leaf("service.await_event", job, || client.next_event()) {
            Ok(ServiceEvent::Done {
                job: j, result_fp, ..
            }) if j == id && result_fp == fp => {}
            other => return Err(format!("wire event mismatch: {other:?}")),
        }

        let bytes = tracer.leaf("persist.encode", job, || encode_result(result));
        let decoded = tracer.leaf("persist.decode", job, || decode_result(&bytes));
        match decoded {
            Some(d) if d.metrics == result.metrics && d.schedule.len() == result.schedule.len() => {
            }
            _ => return Err("persist codec round trip failed".into()),
        }
        let key = format!("{fp:016x}");
        tracer
            .leaf("store.store", job, || self.store.store(&key, &bytes))
            .map_err(|e| format!("store: {e}"))?;
        match tracer.leaf("store.load", job, || self.store.load(&key)) {
            LoadOutcome::Payload(p) if p == bytes => {}
            other => return Err(format!("store load: {other:?}")),
        }

        let batch = BatchJob::new(label, circuit.clone(), strategy, topo.clone());
        let session = &self.session;
        match tracer.leaf("jobs.handoff", job, || session.submit(batch).wait()) {
            JobOutcome::Done(r) if r.metrics == result.metrics => {}
            _ => return Err("job-queue repeat did not return the result".into()),
        }
        let again = tracer.leaf("result_cache.mem_hit", job, || {
            session.compile(circuit, topo, strategy)
        });
        if again.metrics != result.metrics {
            return Err("memory-tier repeat returned another result".into());
        }

        if parametric {
            if let Some((skeleton, angles)) = parametrize(circuit) {
                let artifact = tracer.leaf("parametric.skeleton", job, || {
                    session.compile_skeleton(&skeleton, topo, strategy)
                });
                let stamped = tracer.leaf("parametric.stamp", job, || artifact.stamp(&angles));
                let bound = skeleton.bind(&angles);
                let direct = tracer.leaf("parametric.reference", job, || {
                    session.compile(&bound, topo, strategy)
                });
                if result_fingerprint(&stamped) != result_fingerprint(&direct) {
                    return Err("stamped skeleton differs from the direct compile".into());
                }
            }
        }
        Ok(())
    }

    /// Closes the wire connection and joins the server thread.
    pub fn finish(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server
                .join()
                .expect("wire server thread panicked")
                .expect("wire server failed");
        }
    }
}

impl Drop for ServeLegs {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}
