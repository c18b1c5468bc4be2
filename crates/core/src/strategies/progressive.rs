//! Progressive Pairing (PP) compression (paper §5.5).
//!
//! Maps the circuit once (qubit-only) to get a global view, then estimates
//! for every candidate pair — in both slot orders — how the interaction-
//! weighted path success changes if the pair co-locates, without re-routing.
//! The best positive pair is committed, the circuit is *re-mapped* with the
//! pairs fixed, and the process repeats until no pair helps.

use crate::config::CompilerConfig;
use crate::cost::DistanceOracle;
use crate::mapping::{map_circuit_with_center, MappingOptions};
use crate::pipeline::TopologyCache;
use qompress_arch::Slot;
use qompress_circuit::{Circuit, InteractionGraph};

/// Minimum estimated-fidelity gain to accept another pair.
const MIN_GAIN: f64 = 1e-9;

/// Selects compression pairs for `circuit` against a shared
/// [`TopologyCache`]. The first iteration (no pairs committed yet) maps an
/// all-bare layout, so it reuses the cache's bare oracle; later iterations
/// fetch the oracle for their encoded-unit signature from the cache's
/// per-signature map ([`TopologyCache::oracle_for`]), sharing it with any
/// other job that encodes the same units. Every iteration maps around the
/// cache's memoized center instead of searching for it again.
pub(crate) fn find_pairs(
    circuit: &Circuit,
    cache: &TopologyCache,
    config: &CompilerConfig,
) -> Vec<(usize, usize)> {
    let topo = cache.topology();
    let center = cache.center();
    let ig = InteractionGraph::build(circuit);
    let n = circuit.n_qubits();
    let mut pairs: Vec<(usize, usize)> = Vec::new();

    loop {
        let layout = map_circuit_with_center(
            circuit,
            topo,
            config,
            &MappingOptions::with_pairs(pairs.clone()),
            center,
        );
        let oracle = cache.oracle_for(&layout);
        let in_pair = |q: usize| pairs.iter().any(|&(a, b)| a == q || b == q);

        // Estimated score: Σ w(i,j) · S(path between current homes).
        let score_with = |positions: &dyn Fn(usize) -> Slot, oracle: &DistanceOracle| -> f64 {
            let mut total = 0.0;
            for ((i, j), w) in ig.weighted_edges() {
                let si = positions(i);
                let sj = positions(j);
                let s = if si.node == sj.node {
                    1.0
                } else {
                    oracle.path_success(si, sj)
                };
                total += w * s;
            }
            total
        };

        let home = |q: usize| layout.slot_of(q).expect("mapped");
        let base = score_with(&home, &oracle);

        let mut best: Option<((usize, usize), f64)> = None;
        for a in 0..n {
            if in_pair(a) {
                continue;
            }
            for b in 0..n {
                if a == b || in_pair(b) {
                    continue;
                }
                if ig.weight(a, b) == 0.0 && ig.shared_neighbors(a, b) == 0 {
                    continue; // hopeless candidates
                }
                // Order (a, b): b moves into a's unit (slot 1).
                let moved = |q: usize| -> Slot {
                    if q == b {
                        Slot::one(home(a).node)
                    } else {
                        home(q)
                    }
                };
                // The oracle does not know about the hypothetical encoding;
                // slot 1 of a bare unit has no edges, so approximate the
                // moved qubit's position by its partner's slot 0 (distance
                // within a unit is the cheap internal hop).
                let approx = |q: usize| -> Slot {
                    let s = moved(q);
                    if s == Slot::one(home(a).node) && !layout.is_encoded(home(a).node) {
                        home(a)
                    } else {
                        s
                    }
                };
                let est = score_with(&approx, &oracle);
                let gain = est - base;
                if gain <= MIN_GAIN {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((bk, bg)) => {
                        gain > *bg + 1e-12 || ((gain - bg).abs() <= 1e-12 && (a, b) < *bk)
                    }
                };
                if better {
                    best = Some(((a, b), gain));
                }
            }
        }

        match best {
            Some((pair, _)) => pairs.push(pair),
            None => break,
        }
        if pairs.len() >= n / 2 {
            break;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_arch::Topology;
    use qompress_circuit::Gate;

    fn pairs_on(c: &Circuit, topo: &Topology, config: &CompilerConfig) -> Vec<(usize, usize)> {
        find_pairs(c, &TopologyCache::new(topo.clone(), config), config)
    }

    #[test]
    fn hot_pair_gets_compressed() {
        // Strong 0-1 interaction with shared neighbours: PP should pair
        // them (or another beneficial pair) and terminate.
        let mut c = Circuit::new(6);
        for _ in 0..6 {
            c.push(Gate::cx(0, 1));
        }
        for (a, b) in [(0, 2), (1, 2), (3, 4), (4, 5)] {
            c.push(Gate::cx(a, b));
        }
        let topo = Topology::grid(6);
        let pairs = pairs_on(&c, &topo, &CompilerConfig::paper());
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
    }

    #[test]
    fn no_interactions_no_pairs() {
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        let topo = Topology::grid(4);
        assert!(pairs_on(&c, &topo, &CompilerConfig::paper()).is_empty());
    }

    #[test]
    fn deterministic() {
        let mut c = Circuit::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] {
            c.push(Gate::cx(a, b));
        }
        let topo = Topology::grid(5);
        let cfg = CompilerConfig::paper();
        assert_eq!(pairs_on(&c, &topo, &cfg), pairs_on(&c, &topo, &cfg));
    }

    #[test]
    fn pair_count_bounded_by_half() {
        let mut c = Circuit::new(6);
        for a in 0..6 {
            for b in (a + 1)..6 {
                c.push(Gate::cx(a, b));
            }
        }
        let topo = Topology::grid(6);
        let pairs = pairs_on(&c, &topo, &CompilerConfig::paper());
        assert!(pairs.len() <= 3);
    }
}
