//! Compiler configuration.

use qompress_arch::Fingerprinter;
use qompress_pulse::GateLibrary;

/// Tunable parameters of the Qompress pipeline.
///
/// Defaults reproduce the paper's evaluation setup (§6.1.1): the Table 1
/// gate library, a 163.5 µs qubit T1, and the worst-case `T1/(d−1)` ququart
/// coherence ratio of 3.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerConfig {
    /// Gate durations and fidelities.
    pub library: GateLibrary,
    /// Bare-qubit T1 time in microseconds (paper: 163.5 µs, IBM-like).
    pub t1_qubit_us: f64,
    /// Ratio `T1_qubit / T1_ququart` (paper worst case: 3.0 for d = 4).
    pub t1_ratio: f64,
    /// Routing lookahead window (number of upcoming two-qubit gates
    /// considered beyond the front layer).
    pub lookahead: usize,
    /// Multiplicative weight of lookahead terms relative to front terms.
    pub lookahead_decay: f64,
    /// Additive score penalty for swaps that move occupants of encoded
    /// ququarts not involved in the front gates ("avoid swapping through
    /// ququarts", §4.2).
    pub ququart_route_penalty: f64,
    /// Deterministic seed for tie-breaking.
    pub seed: u64,
    /// Safety bound on router iterations per two-qubit gate before the
    /// fallback shortest-path routing engages.
    pub max_router_steps_per_gate: usize,
    /// Largest device (in physical units) for which the
    /// [`crate::DistanceOracle`] stays in exact mode (lazy full Dijkstra
    /// rows, byte-identity pinned). Bigger devices switch to landmark
    /// mode: O(K·V) memory, triangle-inequality estimates for lookahead
    /// scoring, exact rows only for front-layer precision.
    pub oracle_exact_threshold: usize,
    /// Number of landmarks K in landmark mode. `0` picks automatically
    /// (`2 * ceil(sqrt(slots))`, clamped to `16..=128`).
    pub oracle_landmarks: usize,
}

impl CompilerConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        CompilerConfig {
            library: GateLibrary::paper(),
            t1_qubit_us: 163.5,
            t1_ratio: 3.0,
            lookahead: 8,
            lookahead_decay: 0.5,
            // Comparable to one hop's −log-success cost (~0.01-0.05), so it
            // discourages but never forbids moving through ququarts.
            ququart_route_penalty: 0.02,
            seed: 2023,
            max_router_steps_per_gate: 24,
            // All the paper's devices (≤ 65 units) stay exact; landmark
            // mode is for the utility-scale (1000-unit) axis.
            oracle_exact_threshold: 256,
            oracle_landmarks: 0,
        }
    }

    /// Bare-qubit T1 in nanoseconds.
    pub fn t1_qubit_ns(&self) -> f64 {
        self.t1_qubit_us * 1000.0
    }

    /// Ququart T1 in nanoseconds.
    pub fn t1_ququart_ns(&self) -> f64 {
        self.t1_qubit_ns() / self.t1_ratio
    }

    /// Returns a copy with a different gate library.
    pub fn with_library(&self, library: GateLibrary) -> Self {
        CompilerConfig {
            library,
            ..self.clone()
        }
    }

    /// Returns a copy with a different T1 ratio (Figure 12 sweeps).
    pub fn with_t1_ratio(&self, t1_ratio: f64) -> Self {
        CompilerConfig {
            t1_ratio,
            ..self.clone()
        }
    }

    /// A stable 64-bit content fingerprint over **every** field that can
    /// influence a compilation: the full gate library (class names,
    /// durations, fidelities in Table 1 order) and all numeric knobs.
    /// Session caches key results on this value, so equal configurations
    /// share cache entries across [`crate::Compiler`] calls and different
    /// configurations can never collide into each other's results (up to
    /// 64-bit hash collisions).
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructuring (no `..`): adding a field to
        // `CompilerConfig` fails to compile here until the fingerprint
        // covers it, so the cache-key contract can never silently rot.
        let CompilerConfig {
            library,
            t1_qubit_us,
            t1_ratio,
            lookahead,
            lookahead_decay,
            ququart_route_penalty,
            seed,
            max_router_steps_per_gate,
            oracle_exact_threshold,
            oracle_landmarks,
        } = self;
        let mut h = Fingerprinter::new();
        for (class, spec) in library.iter() {
            h.write_str(&class.to_string())
                .write_f64(spec.duration_ns)
                .write_f64(spec.fidelity);
        }
        h.write_f64(*t1_qubit_us)
            .write_f64(*t1_ratio)
            .write_usize(*lookahead)
            .write_f64(*lookahead_decay)
            .write_f64(*ququart_route_penalty)
            .write_u64(*seed)
            .write_usize(*max_router_steps_per_gate)
            .write_usize(*oracle_exact_threshold)
            .write_usize(*oracle_landmarks);
        h.finish()
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_t1_values() {
        let c = CompilerConfig::paper();
        assert!((c.t1_qubit_ns() - 163_500.0).abs() < 1e-9);
        assert!((c.t1_ququart_ns() - 54_500.0).abs() < 1e-9);
    }

    #[test]
    fn with_t1_ratio_changes_only_ratio() {
        let base = CompilerConfig::paper();
        let swept = base.with_t1_ratio(1.5);
        assert_eq!(swept.t1_qubit_us, base.t1_qubit_us);
        assert!((swept.t1_ququart_ns() - 109_000.0).abs() < 1e-9);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(CompilerConfig::default(), CompilerConfig::paper());
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = CompilerConfig::paper();
        assert_eq!(base.fingerprint(), CompilerConfig::paper().fingerprint());

        let ratio = base.with_t1_ratio(1.5);
        assert_ne!(base.fingerprint(), ratio.fingerprint());

        let mut lookahead = base.clone();
        lookahead.lookahead += 1;
        assert_ne!(base.fingerprint(), lookahead.fingerprint());

        let library =
            base.with_library(qompress_pulse::GateLibrary::paper().with_qubit_error_improved(2.0));
        assert_ne!(base.fingerprint(), library.fingerprint());

        let mut threshold = base.clone();
        threshold.oracle_exact_threshold = 1;
        assert_ne!(base.fingerprint(), threshold.fingerprint());

        let mut landmarks = base.clone();
        landmarks.oracle_landmarks = 16;
        assert_ne!(base.fingerprint(), landmarks.fingerprint());
    }
}
