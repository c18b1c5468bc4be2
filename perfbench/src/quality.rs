//! Output checks and the underflow-safe quality figure.

use crate::corpus::mix;
use qompress::{
    gate_eps_from_counts, CompilationResult, Compiler, CompilerConfig, Metrics, PhysicalOp,
    Strategy,
};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_sim::{
    apply_internal, apply_merged, apply_single, apply_two_unit, physical_zero_state,
    simulate_logical, states_equivalent, State,
};
use std::collections::BTreeMap;

/// `−log10` of a job's total EPS, computed in log space from the gate
/// counts and residency times.
///
/// The stored `total_eps` is a plain product and underflows to `0.0` on
/// large FQ compiles (64 qubits on `grid:64` or `heavyhex:21`); summing
/// per-class logs keeps every job's figure finite. Each class's fidelity
/// comes from `gate_eps_from_counts` on a one-gate, one-class map, so the
/// figure uses exactly the library the session compiled with.
pub fn neg_log10_eps(metrics: &Metrics, config: &CompilerConfig) -> f64 {
    let gate: f64 = metrics
        .gate_counts
        .iter()
        .map(|(&class, &n)| {
            let one = BTreeMap::from([(class, 1usize)]);
            -gate_eps_from_counts(&one, &config.library).log10() * n as f64
        })
        .sum();
    let residency = metrics.qubit_state_ns / config.t1_qubit_ns()
        + metrics.ququart_state_ns / config.t1_ququart_ns();
    gate + residency / std::f64::consts::LN_10
}

/// Checks that apply to every result: the schedule is valid on its
/// topology and the quality figure is finite. Returns the failure reason.
pub fn check_result(
    result: &CompilationResult,
    topo: &Topology,
    config: &CompilerConfig,
) -> Result<f64, String> {
    let problems = result.schedule.validate(topo);
    if let Some(first) = problems.first() {
        return Err(format!(
            "invalid schedule ({} problems, first: {first})",
            problems.len()
        ));
    }
    let q = neg_log10_eps(&result.metrics, config);
    if !q.is_finite() || q < 0.0 {
        return Err(format!("non-finite quality figure {q}"));
    }
    Ok(q)
}

fn apply_physical(state: &mut State, op: &PhysicalOp) {
    match *op {
        PhysicalOp::Single { unit, kind, class } => apply_single(state, unit, kind, class),
        PhysicalOp::Merged { unit, kind0, kind1 } => apply_merged(state, unit, kind0, kind1),
        PhysicalOp::Internal { unit, class } => apply_internal(state, unit, class),
        PhysicalOp::TwoUnit { a, b, class } => apply_two_unit(state, a, b, class),
    }
}

/// One canary: a small circuit on a device of at most 8 units.
#[derive(Debug)]
pub struct Canary {
    /// `canary-i/strategy@device`.
    pub label: String,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The device.
    pub topo: Topology,
    /// The strategy to compile with.
    pub strategy: Strategy,
}

/// The seeded canary set: `count` random circuits of 3 to 4 qubits on
/// 6- and 8-unit devices, each compiled with every strategy in
/// `strategies`. Small enough for the dense four-level simulator.
pub fn canaries(seed: u64, count: usize, strategies: &[Strategy]) -> Vec<Canary> {
    let devices = [Topology::grid(6), Topology::line(6), Topology::ring(8)];
    let mut out = Vec::new();
    for i in 0..count {
        let s = mix(seed ^ 0xca7a_11e5 ^ (i as u64) << 8);
        let n = 3 + (s % 2) as usize;
        let circuit = qompress_qasm::random_circuit(n, 6 * n, s);
        let topo = &devices[i % devices.len()];
        for &strategy in strategies {
            out.push(Canary {
                label: format!("canary-{i}/{}@{}", strategy.name(), topo.name()),
                circuit: circuit.clone(),
                topo: topo.clone(),
                strategy,
            });
        }
    }
    out
}

/// Compiles a canary on `session` and compares the dense simulation of the
/// physical schedule against the independent logical simulator.
pub fn check_canary(session: &Compiler, canary: &Canary) -> Result<(), String> {
    let result = session.compile(&canary.circuit, &canary.topo, canary.strategy);
    let problems = result.schedule.validate(&canary.topo);
    if !problems.is_empty() {
        return Err(format!("invalid schedule: {}", problems[0]));
    }
    let logical = simulate_logical(&canary.circuit, &vec![0; canary.circuit.n_qubits()]);
    let mut phys = physical_zero_state(canary.topo.n_nodes());
    for sop in result.schedule.ops() {
        apply_physical(&mut phys, &sop.op);
    }
    if states_equivalent(
        &phys,
        &result.final_placements,
        &result.encoded_units,
        &logical,
        1e-6,
    ) {
        Ok(())
    } else {
        Err("compiled state differs from the logical simulation".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_service::parse_topology_spec;
    use qompress_workloads::{build, Benchmark};

    #[test]
    fn quality_matches_total_eps_when_it_does_not_underflow() {
        let config = CompilerConfig::paper();
        let session = Compiler::builder().workers(1).build();
        let c = build(Benchmark::Cuccaro, 8, 1);
        let r = session.compile(&c, &Topology::grid(8), Strategy::Eqm);
        let direct = -r.metrics.total_eps.log10();
        let safe = neg_log10_eps(&r.metrics, &config);
        assert!(
            (direct - safe).abs() < 1e-9 * direct.max(1.0),
            "{direct} vs {safe}"
        );
    }

    /// FQ at 64 qubits on `grid:64` stores a total EPS of exactly 0.0; the
    /// benchmark's figure for it must still be finite.
    #[test]
    fn underflowed_eps_yields_a_finite_quality_figure() {
        let config = CompilerConfig::paper();
        let session = Compiler::builder().workers(1).build();
        let c = build(Benchmark::Cuccaro, 64, 1);
        let topo = parse_topology_spec("grid:64").unwrap();
        let r = session.compile(&c, &topo, Strategy::FullQuquart);
        assert_eq!(
            r.metrics.total_eps, 0.0,
            "expected the stored EPS to underflow"
        );
        let q = check_result(&r, &topo, &config).expect("result passes the checks");
        assert!(
            q.is_finite() && q > 307.0,
            "figure {q} should exceed -log10 of the smallest normal f64"
        );
    }

    #[test]
    fn canaries_pass_for_every_strategy() {
        let strategies = [
            Strategy::QubitOnly,
            Strategy::FullQuquart,
            Strategy::Eqm,
            Strategy::RingBased,
            Strategy::Awe,
            Strategy::ProgressivePairing,
            Strategy::Exhaustive { ordered: true },
        ];
        let session = Compiler::builder().workers(1).build();
        for canary in canaries(3, 3, &strategies) {
            check_canary(&session, &canary).unwrap_or_else(|e| panic!("{}: {e}", canary.label));
        }
    }
}
