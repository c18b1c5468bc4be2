//! The circuit interaction graph and its compression-oriented analyses.
//!
//! The paper weighs each qubit pair by `w(i,j) = Σ_o 1(i,j ∈ o)/s(o)` where
//! `s(o)` is the (1-based) ASAP timestep of operation `o` (§4.2): early
//! interactions matter more than late ones. The Ring-Based and AWE
//! strategies operate on *contractions* of this graph, merging candidate
//! pairs into single nodes.

use crate::circuit::Circuit;
use crate::dag::CircuitDag;
use crate::graph::UGraph;
use std::collections::BTreeMap;

/// Weighted interaction graph between logical qubits.
///
/// Stored as per-qubit incidence rows sorted by neighbour, so every
/// neighbour query is a walk over one or two rows rather than a scan of
/// the whole edge set. The edge `(a, b)` appears in both rows with the
/// same weight; every stored weight is positive.
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    /// `rows[q]`: `(neighbour, w(q, neighbour))`, ascending by neighbour.
    rows: Vec<Vec<(usize, f64)>>,
    /// Number of edges, each counted once.
    edges: usize,
}

impl InteractionGraph {
    /// Builds the interaction graph of `circuit` using the paper's
    /// time-discounted weighting.
    pub fn build(circuit: &Circuit) -> Self {
        let dag = CircuitDag::build(circuit);
        Self::build_with_dag(circuit, &dag)
    }

    /// Builds the interaction graph reusing an existing DAG.
    pub fn build_with_dag(circuit: &Circuit, dag: &CircuitDag) -> Self {
        let mut weights = BTreeMap::new();
        for (idx, gate) in circuit.iter().enumerate() {
            if let Some((a, b)) = gate.qubit_pair() {
                let key = (a.min(b), a.max(b));
                let s = dag.layer_of(idx) as f64;
                *weights.entry(key).or_insert(0.0) += 1.0 / s;
            }
        }
        Self::from_weights(circuit.n_qubits(), &weights)
    }

    /// Lays `(min, max)`-keyed weights out as incidence rows. Key order
    /// visits `q`'s lower neighbours (rows before `q`) before its upper
    /// ones, each ascending, so pushing in key order leaves every row
    /// sorted.
    fn from_weights(n: usize, weights: &BTreeMap<(usize, usize), f64>) -> Self {
        let mut rows = vec![Vec::new(); n];
        for (&(a, b), &w) in weights {
            rows[a].push((b, w));
            rows[b].push((a, w));
        }
        InteractionGraph {
            rows,
            edges: weights.len(),
        }
    }

    /// Number of qubits (vertices).
    pub fn n_qubits(&self) -> usize {
        self.rows.len()
    }

    /// The edges incident to `i` as `(neighbour, weight)`, ascending by
    /// neighbour (empty for an out-of-range index).
    pub fn incident(&self, i: usize) -> &[(usize, f64)] {
        self.rows.get(i).map_or(&[], Vec::as_slice)
    }

    /// The weight `w(i,j)`; zero when the pair never interacts.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        let row = self.incident(i);
        match row.binary_search_by_key(&j, |&(q, _)| q) {
            Ok(k) => row[k].1,
            Err(_) => 0.0,
        }
    }

    /// Total weight `W(i) = Σ_j w(i,j)` of a qubit, summed in ascending
    /// neighbour order.
    pub fn total_weight(&self, i: usize) -> f64 {
        self.incident(i).iter().map(|&(_, w)| w).sum()
    }

    /// The qubit maximizing [`InteractionGraph::total_weight`]; ties break to
    /// the lowest index. Returns `None` for an edgeless graph.
    pub fn heaviest_qubit(&self) -> Option<usize> {
        (0..self.n_qubits())
            .map(|i| (i, self.total_weight(i)))
            .filter(|(_, w)| *w > 0.0)
            .max_by(|(ia, wa), (ib, wb)| {
                wa.partial_cmp(wb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i)
    }

    /// Pairs with nonzero weight, as `((a, b), w)` with `a < b`, in
    /// ascending `(a, b)` order.
    pub fn weighted_edges(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.rows.iter().enumerate().flat_map(|(a, row)| {
            let upper = row.partition_point(|&(q, _)| q < a);
            row[upper..].iter().map(move |&(b, w)| ((a, b), w))
        })
    }

    /// Number of edges with nonzero weight.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sum of all edge weights, in [`InteractionGraph::weighted_edges`]
    /// order.
    pub fn total_edge_weight(&self) -> f64 {
        self.weighted_edges().map(|(_, w)| w).sum()
    }

    /// Average weight per edge; zero for an edgeless graph.
    pub fn average_weight_per_edge(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.total_edge_weight() / self.edges as f64
        }
    }

    /// Unweighted view of the interaction structure.
    pub fn to_ugraph(&self) -> UGraph {
        let mut g = UGraph::new(self.n_qubits());
        for ((a, b), _) in self.weighted_edges() {
            g.add_edge(a, b);
        }
        g
    }

    /// Neighbors of `i` (qubits with nonzero interaction weight), ascending.
    pub fn neighbors(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.incident(i).iter().map(|&(q, _)| q)
    }

    /// Number of interaction partners shared by `i` and `j` (a sorted
    /// merge of their rows).
    pub fn shared_neighbors(&self, i: usize, j: usize) -> usize {
        let (ri, rj) = (self.incident(i), self.incident(j));
        let (mut x, mut y, mut shared) = (0, 0, 0);
        while x < ri.len() && y < rj.len() {
            match ri[x].0.cmp(&rj[y].0) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    x += 1;
                    y += 1;
                }
            }
        }
        shared
    }

    /// Degree (number of interaction partners) of `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.incident(i).len()
    }

    /// Number of interactions `i` has with qubits *outside* the given set.
    pub fn external_degree(&self, i: usize, inside: &[usize]) -> usize {
        self.neighbors(i).filter(|q| !inside.contains(q)).count()
    }

    /// Contracts `a` and `b` into a single node (keeping index `a`):
    /// weights to common neighbors add; the internal edge disappears.
    ///
    /// Node `b` keeps its index but becomes isolated, which keeps external
    /// indices stable across contractions.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn contract(&self, a: usize, b: usize) -> InteractionGraph {
        let n = self.n_qubits();
        assert!(a != b && a < n && b < n, "bad contraction");
        let mut weights: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for ((x, y), w) in self.weighted_edges() {
            let rx = if x == b { a } else { x };
            let ry = if y == b { a } else { y };
            if rx == ry {
                continue; // internal edge vanishes
            }
            let key = (rx.min(ry), rx.max(ry));
            *weights.entry(key).or_insert(0.0) += w;
        }
        Self::from_weights(n, &weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn sample() -> Circuit {
        // Layer structure:
        //   g0 cx(0,1)  layer 1
        //   g1 cx(1,2)  layer 2
        //   g2 cx(0,1)  layer 3 (after g1 via qubit 1, after g0 via 0)
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c.push(Gate::cx(0, 1));
        c
    }

    #[test]
    fn weights_use_layer_discount() {
        let g = InteractionGraph::build(&sample());
        // w(0,1) = 1/1 + 1/3 ; w(1,2) = 1/2.
        assert!((g.weight(0, 1) - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((g.weight(1, 2) - 0.5).abs() < 1e-12);
        assert_eq!(g.weight(0, 2), 0.0);
    }

    #[test]
    fn weight_is_symmetric() {
        let g = InteractionGraph::build(&sample());
        assert_eq!(g.weight(0, 1), g.weight(1, 0));
    }

    #[test]
    fn total_weight_sums_incident() {
        let g = InteractionGraph::build(&sample());
        assert!((g.total_weight(1) - (1.0 + 1.0 / 3.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn heaviest_qubit_is_hub() {
        let g = InteractionGraph::build(&sample());
        assert_eq!(g.heaviest_qubit(), Some(1));
    }

    #[test]
    fn single_qubit_gates_do_not_contribute() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        let g = InteractionGraph::build(&c);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.heaviest_qubit(), None);
    }

    #[test]
    fn contraction_merges_weights() {
        // Triangle 0-1-2; contract (0,1) -> single edge to 2 with summed weight.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c.push(Gate::cx(0, 2));
        let g = InteractionGraph::build(&c);
        let w02 = g.weight(0, 2);
        let w12 = g.weight(1, 2);
        let contracted = g.contract(0, 1);
        assert_eq!(contracted.edge_count(), 1);
        assert!((contracted.weight(0, 2) - (w02 + w12)).abs() < 1e-12);
        assert_eq!(contracted.weight(0, 1), 0.0);
    }

    #[test]
    fn shared_neighbors_in_triangle() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c.push(Gate::cx(0, 2));
        c.push(Gate::cx(2, 3));
        let g = InteractionGraph::build(&c);
        assert_eq!(g.shared_neighbors(0, 1), 1); // qubit 2
        assert_eq!(g.shared_neighbors(0, 3), 1); // qubit 2
        assert_eq!(g.external_degree(2, &[0, 1]), 1); // edge to 3
    }

    #[test]
    fn average_weight_per_edge() {
        let g = InteractionGraph::build(&sample());
        let expect = (1.0 + 1.0 / 3.0 + 0.5) / 2.0;
        assert!((g.average_weight_per_edge() - expect).abs() < 1e-12);
    }

    /// The edge-scan formulation every row query replaced: one
    /// `(min, max)`-keyed map, each query a filter over all of it.
    struct Scan(BTreeMap<(usize, usize), f64>);

    impl Scan {
        fn build(circuit: &Circuit) -> Self {
            let dag = CircuitDag::build(circuit);
            let mut weights = BTreeMap::new();
            for (idx, gate) in circuit.iter().enumerate() {
                if let Some((a, b)) = gate.qubit_pair() {
                    let s = dag.layer_of(idx) as f64;
                    *weights.entry((a.min(b), a.max(b))).or_insert(0.0) += 1.0 / s;
                }
            }
            Scan(weights)
        }

        fn contract(&self, a: usize, b: usize) -> Self {
            let mut weights = BTreeMap::new();
            for (&(x, y), &w) in &self.0 {
                let rx = if x == b { a } else { x };
                let ry = if y == b { a } else { y };
                if rx != ry {
                    *weights.entry((rx.min(ry), rx.max(ry))).or_insert(0.0) += w;
                }
            }
            Scan(weights)
        }

        fn total_weight(&self, i: usize) -> f64 {
            self.0
                .iter()
                .filter(|((a, b), _)| *a == i || *b == i)
                .map(|(_, w)| *w)
                .sum()
        }

        fn neighbors(&self, i: usize) -> Vec<usize> {
            let mut out: Vec<usize> = self
                .0
                .keys()
                .filter_map(|&(a, b)| (a == i).then_some(b).or((b == i).then_some(a)))
                .collect();
            out.sort_unstable();
            out
        }
    }

    /// Asserts every query of `g` answers bit-for-bit like the scan.
    fn assert_matches_scan(g: &InteractionGraph, scan: &Scan, n: usize) {
        let edges: Vec<_> = g.weighted_edges().map(|(k, w)| (k, w.to_bits())).collect();
        let want: Vec<_> = scan.0.iter().map(|(&k, w)| (k, w.to_bits())).collect();
        assert_eq!(edges, want);
        assert_eq!(g.edge_count(), scan.0.len());
        let total: f64 = scan.0.values().sum();
        assert_eq!(g.total_edge_weight().to_bits(), total.to_bits());
        let inside: Vec<usize> = (0..n).step_by(3).collect();
        for i in 0..n {
            let ni = scan.neighbors(i);
            assert_eq!(g.total_weight(i).to_bits(), scan.total_weight(i).to_bits());
            assert_eq!(g.neighbors(i).collect::<Vec<_>>(), ni);
            assert_eq!(g.degree(i), ni.len());
            let external = ni.iter().filter(|q| !inside.contains(q)).count();
            assert_eq!(g.external_degree(i, &inside), external);
            for j in 0..n {
                let w = if i == j {
                    0.0
                } else {
                    scan.0.get(&(i.min(j), i.max(j))).copied().unwrap_or(0.0)
                };
                assert_eq!(g.weight(i, j).to_bits(), w.to_bits());
                let nj = scan.neighbors(j);
                let shared = ni.iter().filter(|q| **q != j && nj.contains(q)).count();
                assert_eq!(g.shared_neighbors(i, j), shared, "({i},{j})");
            }
        }
    }

    #[test]
    fn row_queries_match_the_edge_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..40 {
            let n = 2 + next(11);
            let mut c = Circuit::new(n);
            for _ in 0..next(40) {
                let a = next(n);
                let b = next(n);
                if a == b {
                    c.push(Gate::h(a));
                } else {
                    c.push(Gate::cx(a, b));
                }
            }
            let mut g = InteractionGraph::build(&c);
            let mut scan = Scan::build(&c);
            assert_matches_scan(&g, &scan, n);
            for _ in 0..3 {
                let a = next(n);
                let b = (a + 1 + next(n - 1)) % n;
                g = g.contract(a, b);
                scan = scan.contract(a, b);
                assert_matches_scan(&g, &scan, n);
            }
        }
    }

    #[test]
    fn to_ugraph_mirrors_edges() {
        let g = InteractionGraph::build(&sample());
        let u = g.to_ugraph();
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(1, 2));
        assert!(!u.has_edge(0, 2));
    }
}
