//! Greedy interaction-weight mapping onto the expanded architecture
//! (paper §4.2 and the EQM strategy of §5.2).
//!
//! The heaviest qubit (largest total interaction weight) is placed at the
//! architecture's center unit; remaining qubits are placed one at a time in
//! order of their total weight to already-placed qubits, each at the
//! candidate position maximizing `Σ_j w(q, j) · S(path to j)` — interaction
//! weight discounted by the success probability of the connecting path.
//! Slot 1 of a unit is only ever considered after slot 0 is taken, and
//! hard pairing constraints (from the compression strategies of §5) force
//! two qubits into one ququart.
//!
//! Scoring is incremental. Each qubit's total weight is computed once, and
//! its weight to the placed set is a running sum updated as qubits are
//! placed. Each step lists the pick's placed partners (nonzero weight, in
//! placement order) once, so a candidate's cost touches only those
//! partners instead of every placed qubit. The terms and their order are
//! those of the from-scratch formulation (rescan every placed qubit per
//! candidate), so layouts are bit-identical to it; the naive reference in
//! `tests/pair_search_determinism.rs` pins that.

use crate::config::CompilerConfig;
use crate::cost::{DistanceOracle, OracleMode};
use crate::layout::Layout;
use qompress_arch::{Slot, Topology};
use qompress_circuit::graph::WGraph;
use qompress_circuit::{Circuit, InteractionGraph};
use qompress_pulse::GateClass;

/// Mapping-time options.
#[derive(Debug, Clone, Default)]
pub struct MappingOptions {
    /// Pairs that must share a ququart: `(slot-0 qubit, slot-1 qubit)`.
    pub pairs: Vec<(usize, usize)>,
    /// Allow spontaneous use of slot-1 positions (the EQM strategy);
    /// explicit-pair strategies and qubit-only compilation disable this.
    pub allow_slot1: bool,
}

impl MappingOptions {
    /// Qubit-only mapping: no pairs, no slot-1 usage.
    pub fn qubit_only() -> Self {
        MappingOptions::default()
    }

    /// EQM: no explicit pairs, slot 1 allowed.
    pub fn eqm() -> Self {
        MappingOptions {
            pairs: Vec::new(),
            allow_slot1: true,
        }
    }

    /// Explicit pairs, no further spontaneous encoding.
    pub fn with_pairs(pairs: Vec<(usize, usize)>) -> Self {
        MappingOptions {
            pairs,
            allow_slot1: false,
        }
    }
}

/// Unit-level distance helper used for placement scoring: edge weight is
/// the `−log` success of the best SWAP class available between two units
/// under the current encodings. Row caching is delegated to the shared
/// [`DistanceOracle`] (the same two-mode machinery the router uses), so
/// mapping no longer maintains its own hand-rolled Dijkstra cache.
struct UnitMetric<'a> {
    topo: &'a Topology,
    config: &'a CompilerConfig,
    oracle: DistanceOracle,
}

impl<'a> UnitMetric<'a> {
    fn new(topo: &'a Topology, config: &'a CompilerConfig, layout: &Layout) -> Self {
        let mut m = UnitMetric {
            topo,
            config,
            oracle: DistanceOracle::over_graph(WGraph::new(0), config),
        };
        m.rebuild(layout);
        m
    }

    fn best_swap_class(layout: &Layout, u: usize, v: usize) -> GateClass {
        match (layout.is_encoded(u), layout.is_encoded(v)) {
            (false, false) => GateClass::Swap2,
            (true, true) => GateClass::Swap01, // cheapest encoded-encoded swap
            _ => GateClass::SwapBareE0,        // cheapest mixed swap
        }
    }

    fn rebuild(&mut self, layout: &Layout) {
        let mut graph = WGraph::new(self.topo.n_nodes());
        for &(u, v) in self.topo.edges() {
            let class = Self::best_swap_class(layout, u, v);
            let cost = crate::cost::gate_cost(self.config, layout, class, u, Some(v));
            graph.add_edge(u, v, cost.max(0.0));
        }
        self.oracle = DistanceOracle::over_graph(graph, self.config);
    }

    /// Path cost between units (sum of `−log` swap successes; 0 for the
    /// same unit). `from` is the candidate position, `to` an
    /// already-placed unit.
    fn cost(&self, from: usize, to: usize) -> f64 {
        match self.oracle.mode() {
            // Small device: rows keyed on the candidate, exactly the
            // orientation (and values) of the old hand-rolled cache —
            // byte identity preserved.
            OracleMode::Exact => self.oracle.distance_exact_idx(from, to),
            // Large device: key exact rows on the placed unit instead
            // (few of them) so memory stays O(placed · V) rather than
            // one row per scanned candidate.
            OracleMode::Landmark => self.oracle.distance_exact_idx(to, from),
        }
    }
}

/// Maps every qubit of `circuit` onto `topo`, returning the layout.
///
/// # Panics
///
/// Panics when the architecture cannot hold the circuit (more qubits than
/// available positions) or when pairing constraints are inconsistent.
pub fn map_circuit(
    circuit: &Circuit,
    topo: &Topology,
    config: &CompilerConfig,
    options: &MappingOptions,
) -> Layout {
    let graph = topo.to_ugraph();
    let center_dist = graph.bfs_distances(graph.center());
    let ig = InteractionGraph::build(circuit);
    map_interactions(&ig, topo, config, options, &center_dist)
}

/// One already-placed interaction partner of the qubit being placed.
struct Partner {
    qubit: usize,
    weight: f64,
    unit: usize,
}

/// Placement-order bookkeeping of the greedy mapper.
struct Placed {
    /// `weight_to[q]`: Σ w(q, j) over placed j, added in placement order.
    weight_to: Vec<f64>,
    /// Each qubit's position in placement order (`usize::MAX` while
    /// unplaced).
    rank: Vec<usize>,
    /// Number of placed qubits.
    count: usize,
}

impl Placed {
    fn new(n: usize) -> Self {
        Placed {
            weight_to: vec![0.0; n],
            rank: vec![usize::MAX; n],
            count: 0,
        }
    }

    fn contains(&self, q: usize) -> bool {
        self.rank[q] != usize::MAX
    }

    fn place(&mut self, ig: &InteractionGraph, layout: &mut Layout, q: usize, slot: Slot) {
        layout.place(q, slot);
        self.rank[q] = self.count;
        self.count += 1;
        for &(j, w) in ig.incident(q) {
            self.weight_to[j] += w;
        }
    }
}

/// [`map_circuit`] over a prebuilt interaction graph, with every unit's
/// BFS hop distance from the topology's center precomputed — finding the
/// center is an all-sources BFS (`O(V·E)`), so callers compiling many
/// circuits on one topology (the session pipeline, PP's re-maps, FQ)
/// read it from their `TopologyCache` instead of re-deriving it per job.
pub(crate) fn map_interactions(
    ig: &InteractionGraph,
    topo: &Topology,
    config: &CompilerConfig,
    options: &MappingOptions,
    center_dist: &[usize],
) -> Layout {
    let n = ig.n_qubits();
    let capacity = if options.allow_slot1 || !options.pairs.is_empty() {
        2 * topo.n_nodes()
    } else {
        topo.n_nodes()
    };
    assert!(
        n <= capacity,
        "circuit has {n} qubits but the architecture offers only {capacity} positions"
    );

    // Pairing table: each qubit's partner, and whether it takes slot 0.
    let mut partner = vec![None; n];
    let mut takes_slot0 = vec![false; n];
    for &(a, b) in &options.pairs {
        assert!(a != b && a < n && b < n, "bad pair ({a},{b})");
        assert!(
            partner[a].is_none() && partner[b].is_none(),
            "qubit in two pairs"
        );
        partner[a] = Some(b);
        partner[b] = Some(a);
        takes_slot0[a] = true;
    }

    let mut layout = Layout::new(n, topo.n_nodes());
    let mut metric = UnitMetric::new(topo, config, &layout);
    let total_weight: Vec<f64> = (0..n).map(|q| ig.total_weight(q)).collect();
    let mut placed = Placed::new(n);

    // Extra −log-success cost a partial SWAP pays over a bare SWAP across
    // one edge: the price of encoding a qubit whose partners live elsewhere.
    let encode_premium = {
        let mut probe = Layout::new(0, 2);
        let bare = crate::cost::gate_cost(config, &probe, GateClass::Swap2, 0, Some(1));
        probe.set_encoded(0);
        let mixed = crate::cost::gate_cost(config, &probe, GateClass::SwapBareE0, 0, Some(1));
        (mixed - bare).max(0.0)
    };

    // Placed partners of the qubits being placed, in placement order per
    // qubit: the only terms a candidate's cost can contain.
    let mut partners: Vec<Partner> = Vec::new();

    while placed.count < n {
        // Select the next qubit: max weight to placed; ties / cold start by
        // max total weight, then lowest index.
        let pick = (0..n)
            .filter(|&q| !placed.contains(q))
            .max_by(|&qa, &qb| {
                placed.weight_to[qa]
                    .partial_cmp(&placed.weight_to[qb])
                    .unwrap()
                    .then(total_weight[qa].partial_cmp(&total_weight[qb]).unwrap())
                    .then(qb.cmp(&qa))
            })
            .expect("unplaced qubit exists");

        let qs = match partner[pick] {
            Some(p) if takes_slot0[pick] => vec![pick, p],
            Some(p) => vec![p, pick],
            None => vec![pick],
        };
        partners.clear();
        for &q in &qs {
            let start = partners.len();
            partners.extend(
                ig.incident(q)
                    .iter()
                    .filter(|&&(j, _)| placed.contains(j))
                    .map(|&(j, weight)| Partner {
                        qubit: j,
                        weight,
                        unit: layout.slot_of(j).expect("placed").node,
                    }),
            );
            partners[start..].sort_unstable_by_key(|p| placed.rank[p.qubit]);
        }

        // Weighted path cost of placing the qubits at `unit` (lower is
        // better): co-location contributes zero, distant heavy partners
        // dominate.
        let cost_from_unit = |unit: usize, metric: &UnitMetric| -> f64 {
            let mut c = 0.0;
            for p in &partners {
                c += p.weight * metric.cost(unit, p.unit);
            }
            c
        };

        if let [q0, q1] = qs[..] {
            // Place the pair together in an empty unit.
            let best_unit = (0..topo.n_nodes())
                .filter(|&u| layout.occupancy(u) == (false, false))
                .map(|u| (u, cost_from_unit(u, &metric)))
                .min_by(|(ua, ca), (ub, cb)| {
                    ca.partial_cmp(cb)
                        .unwrap()
                        .then(center_dist[*ua].cmp(&center_dist[*ub]))
                        .then(ua.cmp(ub))
                })
                .map(|(u, _)| u)
                .expect("empty unit available for pair");
            layout.set_encoded(best_unit);
            placed.place(ig, &mut layout, q0, Slot::zero(best_unit));
            placed.place(ig, &mut layout, q1, Slot::one(best_unit));
            metric.rebuild(&layout);
        } else {
            // Single placement: slot 0 of empty units, plus slot 1 when the
            // EQM option allows it.
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
            assert!(!candidates.is_empty(), "no candidate position left");
            let best = candidates
                .into_iter()
                .map(|s| {
                    let mut cost = cost_from_unit(s.node, &metric);
                    if s.slot == qompress_arch::SlotIndex::One {
                        // Encoding makes this qubit's *external* interactions
                        // partial-gate priced; charge the premium so slot 1
                        // is taken only for genuine co-location benefits.
                        let sibling = layout.qubit_at(Slot::zero(s.node));
                        let ext: f64 = partners
                            .iter()
                            .filter(|p| Some(p.qubit) != sibling)
                            .map(|p| p.weight)
                            .sum();
                        cost += encode_premium * ext;
                    }
                    (s, cost)
                })
                .min_by(|(sa, xa), (sb, xb)| {
                    xa.partial_cmp(xb)
                        .unwrap()
                        .then(sa.slot.cmp(&sb.slot)) // prefer bare on ties
                        .then(center_dist[sa.node].cmp(&center_dist[sb.node]))
                        .then(sa.index().cmp(&sb.index()))
                })
                .map(|(s, _)| s)
                .expect("candidate exists");
            let newly_encoded =
                best.slot == qompress_arch::SlotIndex::One && !layout.is_encoded(best.node);
            if newly_encoded {
                layout.set_encoded(best.node);
            }
            placed.place(ig, &mut layout, pick, best);
            if newly_encoded {
                metric.rebuild(&layout);
            }
        }
    }

    debug_assert!(layout.check_invariants().is_ok());
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_circuit::Gate;

    fn chain_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.push(Gate::cx(i, i + 1));
        }
        c
    }

    #[test]
    fn qubit_only_uses_slot0_exclusively() {
        let c = chain_circuit(5);
        let topo = Topology::grid(5);
        let layout = map_circuit(
            &c,
            &topo,
            &CompilerConfig::paper(),
            &MappingOptions::qubit_only(),
        );
        for q in 0..5 {
            let s = layout.slot_of(q).unwrap();
            assert_eq!(s.slot, qompress_arch::SlotIndex::Zero);
        }
        assert_eq!(layout.active_units(), 5);
        assert!(!layout.encoded_flags().iter().any(|&e| e));
    }

    #[test]
    fn heaviest_qubit_lands_on_center() {
        // Star circuit: qubit 0 interacts with everyone.
        let mut c = Circuit::new(5);
        for i in 1..5 {
            c.push(Gate::cx(0, i));
        }
        let topo = Topology::grid(9); // center = 4
        let layout = map_circuit(
            &c,
            &topo,
            &CompilerConfig::paper(),
            &MappingOptions::qubit_only(),
        );
        assert_eq!(layout.slot_of(0).unwrap().node, topo.center());
    }

    #[test]
    fn pairs_share_a_unit() {
        let c = chain_circuit(6);
        let topo = Topology::grid(6);
        let opts = MappingOptions::with_pairs(vec![(0, 1), (4, 5)]);
        let layout = map_circuit(&c, &topo, &CompilerConfig::paper(), &opts);
        let s0 = layout.slot_of(0).unwrap();
        let s1 = layout.slot_of(1).unwrap();
        assert_eq!(s0.node, s1.node);
        assert_eq!(s0.slot, qompress_arch::SlotIndex::Zero);
        assert_eq!(s1.slot, qompress_arch::SlotIndex::One);
        assert!(layout.is_encoded(s0.node));
        // Unpaired qubits stay bare.
        let s2 = layout.slot_of(2).unwrap();
        assert!(!layout.is_encoded(s2.node));
        assert_eq!(layout.active_units(), 4);
    }

    #[test]
    fn eqm_can_exceed_unit_count() {
        // 8 qubits on 4 units requires slot-1 placements.
        let c = chain_circuit(8);
        let topo = Topology::grid(4);
        let layout = map_circuit(&c, &topo, &CompilerConfig::paper(), &MappingOptions::eqm());
        assert_eq!(layout.placements().len(), 8);
        assert_eq!(layout.active_units(), 4);
        assert!(layout.encoded_flags().iter().filter(|&&e| e).count() == 4);
        layout.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "architecture offers only")]
    fn qubit_only_rejects_oversubscription() {
        let c = chain_circuit(8);
        let topo = Topology::grid(4);
        map_circuit(
            &c,
            &topo,
            &CompilerConfig::paper(),
            &MappingOptions::qubit_only(),
        );
    }

    #[test]
    fn interacting_qubits_placed_close() {
        let c = chain_circuit(9);
        let topo = Topology::grid(9);
        let layout = map_circuit(
            &c,
            &topo,
            &CompilerConfig::paper(),
            &MappingOptions::qubit_only(),
        );
        // Adjacent chain qubits should sit at low BFS distance on the grid.
        let ug = topo.to_ugraph();
        let mut total = 0usize;
        for i in 0..8 {
            let a = layout.slot_of(i).unwrap().node;
            let b = layout.slot_of(i + 1).unwrap().node;
            total += ug.bfs_distances(a)[b];
        }
        // Perfect snake gives 8; anything <= 12 is acceptably local.
        assert!(total <= 12, "chain spread too far: {total}");
    }

    #[test]
    fn idle_qubits_still_get_positions() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(0, 1)); // qubits 2 and 3 idle
        let topo = Topology::grid(4);
        let layout = map_circuit(
            &c,
            &topo,
            &CompilerConfig::paper(),
            &MappingOptions::qubit_only(),
        );
        assert_eq!(layout.placements().len(), 4);
        layout.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "qubit in two pairs")]
    fn overlapping_pairs_rejected() {
        let c = chain_circuit(4);
        let topo = Topology::grid(4);
        let opts = MappingOptions::with_pairs(vec![(0, 1), (1, 2)]);
        map_circuit(&c, &topo, &CompilerConfig::paper(), &opts);
    }
}
