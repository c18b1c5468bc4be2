//! Differential pin of the incremental pair searches and greedy mapper
//! against naive references.
//!
//! AWE scores a candidate contraction by walking the interaction graph's
//! sorted rows, PP replays its score fold with only the moved qubit's
//! terms recomputed, and the mapper keeps running weight-to-placed sums
//! and scores candidates over the pick's placed partners only. All of
//! that is *mechanical* speedup: each adds the same float terms in the
//! same order as the from-scratch formulation this file retains — AWE
//! building every contracted graph, PP re-evaluating every edge for
//! every candidate, and the mapper rescanning every placed qubit for
//! every candidate — so pairs, layouts and whole compilations must be
//! byte-identical.
//!
//! Any drift — a dropped term, a reordered sum, a flipped tie-break —
//! shows up here as a diverging pair list, layout or result.

use qompress::{
    gate_cost, map_circuit, Compiler, CompilerConfig, DistanceOracle, Layout, MappingOptions,
    OracleMode, Strategy, TopologyCache,
};
use qompress_arch::{Slot, SlotIndex, Topology};
use qompress_circuit::{graph::WGraph, Circuit, InteractionGraph};
use qompress_pulse::GateClass;
use qompress_workloads::{build, random_circuit, Benchmark};

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Naive references (the pre-incremental formulations, verbatim semantics).
// ---------------------------------------------------------------------------

/// AWE: contract every candidate pair and average the result.
fn reference_awe(circuit: &Circuit) -> Vec<(usize, usize)> {
    let mut ig = InteractionGraph::build(circuit);
    let n = circuit.n_qubits();
    let mut consumed = vec![false; n];
    let mut pairs = Vec::new();

    loop {
        let current = ig.average_weight_per_edge();
        let mut best: Option<((usize, usize), f64)> = None;
        for a in 0..n {
            if consumed[a] {
                continue;
            }
            for b in (a + 1)..n {
                if consumed[b] {
                    continue;
                }
                if ig.degree(a) == 0 && ig.degree(b) == 0 {
                    continue;
                }
                let awe = ig.contract(a, b).average_weight_per_edge();
                let better = match &best {
                    None => awe > current + 1e-12,
                    Some((bk, bv)) => {
                        awe > *bv + 1e-12 || ((awe - bv).abs() <= 1e-12 && (a, b) < *bk)
                    }
                };
                if better {
                    best = Some(((a, b), awe));
                }
            }
        }
        match best {
            Some(((a, b), _)) => {
                let pair = if ig.total_weight(a) >= ig.total_weight(b) {
                    (a, b)
                } else {
                    (b, a)
                };
                pairs.push(pair);
                consumed[a] = true;
                consumed[b] = true;
                ig = ig.contract(a, b);
            }
            None => break,
        }
    }
    pairs
}

/// PP: re-evaluate the whole weighted path-success score for every
/// ordered candidate.
fn reference_pp(
    circuit: &Circuit,
    cache: &TopologyCache,
    config: &CompilerConfig,
) -> Vec<(usize, usize)> {
    const MIN_GAIN: f64 = 1e-9;
    let topo = cache.topology();
    let ig = InteractionGraph::build(circuit);
    let n = circuit.n_qubits();
    let mut pairs: Vec<(usize, usize)> = Vec::new();

    loop {
        let layout = map_circuit(
            circuit,
            topo,
            config,
            &MappingOptions::with_pairs(pairs.clone()),
        );
        let oracle = cache.oracle_for(&layout);
        let in_pair = |q: usize| pairs.iter().any(|&(a, b)| a == q || b == q);

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
                    continue;
                }
                let moved = |q: usize| -> Slot {
                    if q == b {
                        Slot::one(home(a).node)
                    } else {
                        home(q)
                    }
                };
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

/// The mapper's unit-level metric: `−log` success of the best SWAP class
/// between units under the current encodings, in the same two-mode oracle.
struct ReferenceMetric<'a> {
    topo: &'a Topology,
    config: &'a CompilerConfig,
    oracle: DistanceOracle,
}

impl<'a> ReferenceMetric<'a> {
    fn new(topo: &'a Topology, config: &'a CompilerConfig, layout: &Layout) -> Self {
        let mut m = ReferenceMetric {
            topo,
            config,
            oracle: DistanceOracle::over_graph(WGraph::new(0), config),
        };
        m.rebuild(layout);
        m
    }

    fn rebuild(&mut self, layout: &Layout) {
        let mut graph = WGraph::new(self.topo.n_nodes());
        for &(u, v) in self.topo.edges() {
            let class = match (layout.is_encoded(u), layout.is_encoded(v)) {
                (false, false) => GateClass::Swap2,
                (true, true) => GateClass::Swap01,
                _ => GateClass::SwapBareE0,
            };
            let cost = gate_cost(self.config, layout, class, u, Some(v));
            graph.add_edge(u, v, cost.max(0.0));
        }
        self.oracle = DistanceOracle::over_graph(graph, self.config);
    }

    fn cost(&self, from: usize, to: usize) -> f64 {
        match self.oracle.mode() {
            OracleMode::Exact => self.oracle.distance_exact_idx(from, to),
            OracleMode::Landmark => self.oracle.distance_exact_idx(to, from),
        }
    }
}

/// The greedy mapper: every candidate rescans every placed qubit, and the
/// next pick re-sums its weight to all placed qubits.
fn reference_map(
    circuit: &Circuit,
    topo: &Topology,
    config: &CompilerConfig,
    options: &MappingOptions,
) -> Layout {
    let n = circuit.n_qubits();
    let mut partner = vec![None; n];
    for &(a, b) in &options.pairs {
        partner[a] = Some(b);
        partner[b] = Some(a);
    }

    let ig = InteractionGraph::build(circuit);
    let mut layout = Layout::new(n, topo.n_nodes());
    let mut metric = ReferenceMetric::new(topo, config, &layout);
    let mut placed: Vec<usize> = Vec::new();
    let mut unplaced: Vec<bool> = vec![true; n];

    let weight_to_placed = |q: usize, placed: &[usize], ig: &InteractionGraph| -> f64 {
        placed.iter().map(|&j| ig.weight(q, j)).sum()
    };

    let encode_premium = {
        let mut probe = Layout::new(0, 2);
        let bare = gate_cost(config, &probe, GateClass::Swap2, 0, Some(1));
        probe.set_encoded(0);
        let mixed = gate_cost(config, &probe, GateClass::SwapBareE0, 0, Some(1));
        (mixed - bare).max(0.0)
    };

    let center_dist: Vec<f64> = topo
        .to_ugraph()
        .bfs_distances(topo.center())
        .into_iter()
        .map(|d| {
            if d == usize::MAX {
                f64::INFINITY
            } else {
                d as f64
            }
        })
        .collect();

    while placed.len() < n {
        let pick = (0..n)
            .filter(|&q| unplaced[q])
            .map(|q| {
                let wp = weight_to_placed(q, &placed, &ig);
                (q, wp, ig.total_weight(q))
            })
            .max_by(|(qa, wpa, wta), (qb, wpb, wtb)| {
                wpa.partial_cmp(wpb)
                    .unwrap()
                    .then(wta.partial_cmp(wtb).unwrap())
                    .then(qb.cmp(qa))
            })
            .map(|(q, ..)| q)
            .expect("unplaced qubit exists");

        let cost_from_unit =
            |unit: usize, qs: &[usize], layout: &Layout, metric: &ReferenceMetric| -> f64 {
                let mut c = 0.0;
                for &q in qs {
                    for &j in &placed {
                        let w = ig.weight(q, j);
                        if w > 0.0 {
                            let ju = layout.slot_of(j).expect("placed").node;
                            c += w * metric.cost(unit, ju);
                        }
                    }
                }
                c
            };

        if let Some(p) = partner[pick] {
            let (q0, q1) = if options.pairs.iter().any(|&(a, _)| a == pick) {
                (pick, p)
            } else {
                (p, pick)
            };
            let best_unit = (0..topo.n_nodes())
                .filter(|&u| layout.occupancy(u) == (false, false))
                .map(|u| (u, cost_from_unit(u, &[q0, q1], &layout, &metric)))
                .min_by(|(ua, ca), (ub, cb)| {
                    ca.partial_cmp(cb)
                        .unwrap()
                        .then(center_dist[*ua].partial_cmp(&center_dist[*ub]).unwrap())
                        .then(ua.cmp(ub))
                })
                .map(|(u, _)| u)
                .expect("empty unit available for pair");
            layout.set_encoded(best_unit);
            layout.place(q0, Slot::zero(best_unit));
            layout.place(q1, Slot::one(best_unit));
            unplaced[q0] = false;
            unplaced[q1] = false;
            placed.push(q0);
            placed.push(q1);
            metric.rebuild(&layout);
        } else {
            let mut candidates: Vec<Slot> = (0..topo.n_nodes())
                .filter(|&u| layout.occupancy(u) == (false, false))
                .map(Slot::zero)
                .collect();
            if options.allow_slot1 {
                for u in 0..topo.n_nodes() {
                    let (s0, s1) = layout.occupancy(u);
                    if s0 && !s1 {
                        candidates.push(Slot::one(u));
                    }
                }
            }
            let best = candidates
                .into_iter()
                .map(|s| {
                    let mut cost = cost_from_unit(s.node, &[pick], &layout, &metric);
                    if s.slot == SlotIndex::One {
                        let sibling = layout.qubit_at(Slot::zero(s.node));
                        let ext: f64 = placed
                            .iter()
                            .filter(|&&j| Some(j) != sibling)
                            .map(|&j| ig.weight(pick, j))
                            .sum();
                        cost += encode_premium * ext;
                    }
                    (s, cost)
                })
                .min_by(|(sa, xa), (sb, xb)| {
                    xa.partial_cmp(xb)
                        .unwrap()
                        .then(sa.slot.cmp(&sb.slot))
                        .then(
                            center_dist[sa.node]
                                .partial_cmp(&center_dist[sb.node])
                                .unwrap(),
                        )
                        .then(sa.index().cmp(&sb.index()))
                })
                .map(|(s, _)| s)
                .expect("candidate exists");
            let newly_encoded = best.slot == SlotIndex::One && !layout.is_encoded(best.node);
            if newly_encoded {
                layout.set_encoded(best.node);
            }
            layout.place(pick, best);
            unplaced[pick] = false;
            placed.push(pick);
            if newly_encoded {
                metric.rebuild(&layout);
            }
        }
    }
    layout
}

// ---------------------------------------------------------------------------
// Differential harness.
// ---------------------------------------------------------------------------

/// Asserts that the session's AWE and PP compilations equal the options-
/// level compile of the reference pairs, and that every mapping mode —
/// through the public `map_circuit` and through the session pipeline —
/// lays out exactly like the reference mapper.
fn assert_searches_agree(circuit: &Circuit, topo: &Topology, config: &CompilerConfig, label: &str) {
    let session = Compiler::builder()
        .config(config.clone())
        .caching(false)
        .build();
    let cache = session.topology_cache(topo);
    let awe_pairs = reference_awe(circuit);
    let pp_pairs = reference_pp(circuit, &cache, config);
    for (strategy, pairs) in [
        (Strategy::Awe, &awe_pairs),
        (Strategy::ProgressivePairing, &pp_pairs),
    ] {
        let optimized = session.compile(circuit, topo, strategy);
        let mut reference = (*session.compile_with_options(
            circuit,
            topo,
            &MappingOptions::with_pairs(pairs.clone()),
        ))
        .clone();
        reference.strategy = strategy.name().to_string();
        assert_eq!(
            format!("{optimized:?}"),
            format!("{reference:?}"),
            "{strategy} diverged from the reference pairs {pairs:?} ({label})"
        );
    }
    for options in [
        MappingOptions::qubit_only(),
        MappingOptions::eqm(),
        MappingOptions::with_pairs(awe_pairs.clone()),
        MappingOptions::with_pairs(pp_pairs.clone()),
    ] {
        let capacity = if options.allow_slot1 || !options.pairs.is_empty() {
            2 * topo.n_nodes()
        } else {
            topo.n_nodes()
        };
        if circuit.n_qubits() > capacity {
            continue;
        }
        let reference = reference_map(circuit, topo, config, &options);
        let public = map_circuit(circuit, topo, config, &options);
        assert_eq!(
            format!("{public:?}"),
            format!("{reference:?}"),
            "map_circuit diverged from the reference mapper ({label}, {options:?})"
        );
        let compiled = session.compile_with_options(circuit, topo, &options);
        assert_eq!(
            compiled.initial_placements,
            reference.placements(),
            "pipeline mapping diverged from the reference mapper ({label}, {options:?})"
        );
        assert_eq!(compiled.encoded_units, reference.encoded_flags());
    }
}

fn topology_from_index(i: usize, n: usize) -> Topology {
    match i % 4 {
        0 => Topology::line(n),
        1 => Topology::grid(n),
        2 => Topology::ring(n.max(3)),
        _ => Topology::heavy_hex(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pair_searches_are_byte_identical_on_random_circuits(
        n in 3usize..12,
        gates in 6usize..48,
        seed in 0u64..1000,
        topo_idx in 0usize..4,
    ) {
        let circuit = random_circuit(n, gates, seed);
        let topo = topology_from_index(topo_idx, n);
        assert_searches_agree(
            &circuit,
            &topo,
            &CompilerConfig::paper(),
            &format!("random n={n} gates={gates} seed={seed} topo={topo_idx}"),
        );
    }
}

/// The paper-sweep families at 16 and 32 qubits on every topology family
/// of the evaluation.
#[test]
fn pair_searches_agree_on_benchmark_families() {
    let config = CompilerConfig::paper();
    for family in [
        Benchmark::Cuccaro,
        Benchmark::Cnu,
        Benchmark::Qram,
        Benchmark::Bv,
        Benchmark::QaoaRandom,
        Benchmark::QaoaTorus,
    ] {
        for size in [16, 32] {
            let circuit = build(family, size, 7);
            let n = circuit.n_qubits();
            for topo in [
                Topology::grid(n),
                Topology::line(n),
                Topology::ring(n),
                Topology::heavy_hex_65(),
            ] {
                assert_searches_agree(
                    &circuit,
                    &topo,
                    &config,
                    &format!("{family}-{size} on {}", topo.name()),
                );
            }
        }
    }
}

/// Landmark mode (forced by lowering the exact-oracle threshold): the
/// mapper keys its exact rows on placed units and PP scores with ALT
/// estimates, and both must still match the references.
#[test]
fn pair_searches_agree_in_landmark_mode() {
    let mut config = CompilerConfig::paper();
    config.oracle_exact_threshold = 8;
    for (name, circuit) in [
        ("cuccaro-16", build(Benchmark::Cuccaro, 16, 7)),
        ("qaoa-random-16", build(Benchmark::QaoaRandom, 16, 7)),
    ] {
        let topo = Topology::heavy_hex(3);
        let session = Compiler::builder().config(config.clone()).build();
        let oracle = session.topology_cache(&topo);
        assert_eq!(
            oracle.oracle_for(&Layout::new(0, topo.n_nodes())).mode(),
            OracleMode::Landmark
        );
        assert_searches_agree(&circuit, &topo, &config, &format!("{name} landmark"));
    }
}
