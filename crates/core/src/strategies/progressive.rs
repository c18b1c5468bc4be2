//! Progressive Pairing (PP) compression (paper §5.5).
//!
//! Maps the circuit once (qubit-only) to get a global view, then estimates
//! for every candidate pair — in both slot orders — how the interaction-
//! weighted path success changes if the pair co-locates, without re-routing.
//! The best positive pair is committed, the circuit is *re-mapped* with the
//! pairs fixed, and the process repeats until no pair helps.
//!
//! The estimate is `Σ w(i,j) · S(path)` folded over the interaction edges
//! in order. Each iteration computes every edge's term under the current
//! layout once, with a running prefix of the fold. Moving `b` changes only
//! `b`'s edges, so a candidate's estimate starts from the prefix before
//! `b`'s first edge and replays the rest of the fold: recomputed terms on
//! `b`'s edges, cached terms elsewhere. That is the same sum in the same
//! order as re-evaluating every edge per candidate, so the pairs are
//! bit-identical to that formulation (pinned by
//! `tests/pair_search_determinism.rs`).

use crate::config::CompilerConfig;
use crate::mapping::{map_interactions, MappingOptions};
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
/// cache's memoized center distances instead of searching for them again.
pub(crate) fn find_pairs(
    circuit: &Circuit,
    cache: &TopologyCache,
    config: &CompilerConfig,
) -> Vec<(usize, usize)> {
    let topo = cache.topology();
    let ig = InteractionGraph::build(circuit);
    let n = ig.n_qubits();
    let edges: Vec<((usize, usize), f64)> = ig.weighted_edges().collect();
    // Indices into `edges` of each qubit's edges, ascending.
    let mut edges_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e, &((i, j), _)) in edges.iter().enumerate() {
        edges_of[i].push(e);
        edges_of[j].push(e);
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut in_pair = vec![false; n];
    // `terms[e]`: edge e's score term under the current layout;
    // `prefix[e]`: the score fold over the first `e` terms.
    let mut terms = vec![0.0; edges.len()];
    let mut prefix = vec![0.0; edges.len() + 1];

    loop {
        let layout = map_interactions(
            &ig,
            topo,
            config,
            &MappingOptions::with_pairs(pairs.clone()),
            cache.center_distances(),
        );
        let oracle = cache.oracle_for(&layout);
        let home: Vec<Slot> = (0..n).map(|q| layout.slot_of(q).expect("mapped")).collect();

        // One edge's score term: w(i,j) · S(path between the homes).
        let term = |w: f64, si: Slot, sj: Slot| -> f64 {
            let s = if si.node == sj.node {
                1.0
            } else {
                oracle.path_success(si, sj)
            };
            w * s
        };
        for (e, &((i, j), w)) in edges.iter().enumerate() {
            terms[e] = term(w, home[i], home[j]);
            prefix[e + 1] = prefix[e] + terms[e];
        }
        let base = prefix[edges.len()];

        let mut best: Option<((usize, usize), f64)> = None;
        for a in 0..n {
            if in_pair[a] {
                continue;
            }
            // Order (a, b): b moves into a's unit (slot 1). The oracle does
            // not know about the hypothetical encoding; slot 1 of a bare
            // unit has no edges, so approximate the moved qubit's position
            // by its partner's slot 0 (distance within a unit is the cheap
            // internal hop). No other qubit moves: only encoded units hold
            // a slot-1 qubit (`Layout::place` enforces it).
            let unit = home[a].node;
            let moved = if layout.is_encoded(unit) {
                Slot::one(unit)
            } else {
                home[a]
            };
            for b in 0..n {
                if a == b || in_pair[b] {
                    continue;
                }
                if ig.weight(a, b) == 0.0 && ig.shared_neighbors(a, b) == 0 {
                    continue; // hopeless candidates
                }
                // Only b's edges change: replay the fold from the first of
                // them, recomputing those terms and reusing the rest.
                let Some(&first) = edges_of[b].first() else {
                    continue; // nothing moves: zero gain
                };
                let mut changed = edges_of[b].iter().peekable();
                let mut est = prefix[first];
                for e in first..edges.len() {
                    est += if changed.next_if_eq(&&e).is_some() {
                        let ((i, j), w) = edges[e];
                        let at = |q: usize| if q == b { moved } else { home[q] };
                        term(w, at(i), at(j))
                    } else {
                        terms[e]
                    };
                }
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
            Some((pair, _)) => {
                pairs.push(pair);
                in_pair[pair.0] = true;
                in_pair[pair.1] = true;
            }
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
