//! Average Weight per Edge (AWE) compression (paper §5.4).
//!
//! Greedily contracts the qubit pair that maximizes the interaction
//! graph's average edge weight, exploiting shared interactions to increase
//! locality; stops when no contraction improves the average.
//!
//! A candidate `(a, b)` is scored without building its contraction: one
//! walk over the graph's sorted incidence rows emits the contracted edges
//! in contracted-key order (see [`Rows::contracted_average`]), and the
//! edge count follows from `a`'s and `b`'s rows. The fold adds the same
//! weights in the same order as averaging `ig.contract(a, b)`, so the
//! pairs are bit-identical to that formulation (pinned by
//! `tests/pair_search_determinism.rs`). Only the committed pair is
//! contracted.

use qompress_circuit::{Circuit, InteractionGraph};

/// Selects compression pairs for `circuit`.
pub fn find_pairs(circuit: &Circuit) -> Vec<(usize, usize)> {
    let mut ig = InteractionGraph::build(circuit);
    let n = circuit.n_qubits();
    let mut consumed = vec![false; n];
    let mut pairs = Vec::new();

    loop {
        let current = ig.average_weight_per_edge();
        let rows = Rows::new(&ig);
        let mut best: Option<((usize, usize), f64)> = None;
        for a in 0..n {
            if consumed[a] {
                continue;
            }
            for b in (a + 1)..n {
                if consumed[b] {
                    continue;
                }
                // Contracting isolated qubits together is pointless.
                if ig.degree(a) == 0 && ig.degree(b) == 0 {
                    continue;
                }
                let awe = rows.contracted_average(a, b);
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

/// The interaction graph's edges grouped by lower endpoint: row `p` holds
/// `(q, w(p, q))` for `q > p`, ascending — exactly the order in which
/// [`InteractionGraph::total_edge_weight`] folds them.
struct Rows<'g> {
    ig: &'g InteractionGraph,
    /// Upper part of each incidence row.
    upper: Vec<&'g [(usize, f64)]>,
    /// `prefix[p]`: the weight fold over every row before `p`.
    prefix: Vec<f64>,
}

impl<'g> Rows<'g> {
    fn new(ig: &'g InteractionGraph) -> Self {
        let upper: Vec<&[(usize, f64)]> = (0..ig.n_qubits())
            .map(|p| {
                let row = ig.incident(p);
                &row[row.partition_point(|&(q, _)| q < p)..]
            })
            .collect();
        let mut prefix = Vec::with_capacity(upper.len());
        let mut total = 0.0;
        for row in &upper {
            prefix.push(total);
            for &(_, w) in *row {
                total += w;
            }
        }
        Rows { ig, upper, prefix }
    }

    /// `ig.contract(a, b).average_weight_per_edge()` for `a < b`, without
    /// building the contraction: its edges are emitted in contracted-key
    /// order and folded in that order, so the value is bit-identical.
    ///
    /// Row `b` disappears and every other row loses its edge to `b`. A row
    /// `p < a` with that edge gains `w(p, a) + w(p, b)` at `a`'s position;
    /// for `a < p < b` the edge moves into row `a`, which becomes the
    /// sorted merge of the upper neighbours of `a` and `b`. Rows before
    /// the first one that changes fold to the cached prefix.
    fn contracted_average(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a < b);
        let row_b = self.ig.incident(b);
        let removed = usize::from(self.ig.weight(a, b) != 0.0) + self.ig.shared_neighbors(a, b);
        let edges = self.ig.edge_count() - removed;
        if edges == 0 {
            return 0.0;
        }
        let b_above_a = &row_b[row_b.partition_point(|&(q, _)| q <= a)..];
        let first = row_b.first().map_or(a, |&(p, _)| p.min(a));
        let mut total = self.prefix[first];
        // b's neighbours below a, each folding its edge into (p, a).
        let mut to_b = row_b.iter().take_while(|&&(q, _)| q < a).peekable();
        for p in first..self.upper.len() {
            if p == b {
                continue;
            }
            let folded;
            let merged: &[(usize, f64)] = if p == a {
                b_above_a
            } else if let Some(&(_, w)) = to_b.next_if(|&&(q, _)| q == p) {
                folded = [(a, w)];
                &folded
            } else {
                &[]
            };
            total = merge_fold(total, self.upper[p], merged, b);
        }
        total / edges as f64
    }
}

/// Continues `total` over the sorted merge of rows `x` and `y`, adding
/// both weights where they share a neighbour and skipping neighbour `skip`.
fn merge_fold(mut total: f64, x: &[(usize, f64)], y: &[(usize, f64)], skip: usize) -> f64 {
    if y.is_empty() {
        // Most rows: nothing merges in.
        for &(q, w) in x {
            if q != skip {
                total += w;
            }
        }
        return total;
    }
    let (mut i, mut j) = (0, 0);
    while i < x.len() || j < y.len() {
        let qx = x.get(i).map_or(usize::MAX, |e| e.0);
        let qy = y.get(j).map_or(usize::MAX, |e| e.0);
        let (q, w) = match qx.cmp(&qy) {
            std::cmp::Ordering::Less => {
                i += 1;
                (qx, x[i - 1].1)
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                (qy, y[j - 1].1)
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                (qx, x[i - 1].1 + y[j - 1].1)
            }
        };
        if q != skip {
            total += w;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_circuit::Gate;

    #[test]
    fn heavy_pair_is_contracted() {
        // One dominant edge and two light ones: contracting the heavy pair
        // removes a heavy-vs-light disparity... the heavy edge disappears,
        // so AWE prefers contracting light structure around it. Just check
        // determinism and disjointness here.
        let mut c = Circuit::new(4);
        for _ in 0..5 {
            c.push(Gate::cx(0, 1));
        }
        c.push(Gate::cx(1, 2));
        c.push(Gate::cx(2, 3));
        let pairs = find_pairs(&c);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(seen.insert(a), "{pairs:?}");
            assert!(seen.insert(b), "{pairs:?}");
        }
        assert_eq!(pairs, find_pairs(&c));
    }

    #[test]
    fn shared_neighbor_contraction_raises_average() {
        // Path 0-1-2 with equal weights: contracting (0,2) merges their
        // edges to 1 into one double-weight edge -> average doubles.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        let pairs = find_pairs(&c);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn empty_interaction_graph_yields_no_pairs() {
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        assert!(find_pairs(&c).is_empty());
    }

    #[test]
    fn single_edge_graph_stops() {
        // Contracting the only edge leaves zero edges (average zero), so
        // nothing beneficial exists.
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        assert!(find_pairs(&c).is_empty());
    }
}
