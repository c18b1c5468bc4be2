//! The success-probability cost model (paper Eq. 4) and slot-distance
//! oracle.
//!
//! A gate at a connection succeeds with
//! `S(i,j,g) = F(i,j,g) · e^{−T/T1_i} · e^{−T/T1_j}` where the `T1` of each
//! endpoint depends on whether its unit is encoded. Path quality is the sum
//! of `−log S` over the SWAP hops plus the final CX hop; distances are
//! Dijkstra over the expanded slot graph with `−log S(swap)` edge weights.

use crate::config::CompilerConfig;
use crate::layout::Layout;
use crate::result_cache::ResultCache;
use qompress_arch::{ExpandedGraph, Slot, SlotIndex};
use qompress_circuit::graph::WGraph;
use qompress_pulse::GateClass;
use std::sync::{Arc, OnceLock};

/// Selects the CX gate class and operand order for a control/target slot
/// pair under the current encodings.
///
/// Returns `(class, first_unit, second_unit)` with operands ordered per the
/// class convention (encoded unit first for mixed classes).
///
/// # Panics
///
/// Panics if both slots coincide.
pub fn cx_class(layout: &Layout, control: Slot, target: Slot) -> (GateClass, usize, usize) {
    assert_ne!(control, target, "CX needs two distinct slots");
    if control.node == target.node {
        let class = match control.slot {
            SlotIndex::Zero => GateClass::Cx0,
            SlotIndex::One => GateClass::Cx1,
        };
        return (class, control.node, control.node);
    }
    let c_enc = layout.is_encoded(control.node);
    let t_enc = layout.is_encoded(target.node);
    match (c_enc, t_enc) {
        (false, false) => (GateClass::Cx2, control.node, target.node),
        (true, false) => {
            let class = match control.slot {
                SlotIndex::Zero => GateClass::CxE0Bare,
                SlotIndex::One => GateClass::CxE1Bare,
            };
            (class, control.node, target.node)
        }
        (false, true) => {
            let class = match target.slot {
                SlotIndex::Zero => GateClass::CxBareE0,
                SlotIndex::One => GateClass::CxBareE1,
            };
            // Mixed classes put the encoded unit first.
            (class, target.node, control.node)
        }
        (true, true) => {
            let class = match (control.slot, target.slot) {
                (SlotIndex::Zero, SlotIndex::Zero) => GateClass::Cx00,
                (SlotIndex::Zero, SlotIndex::One) => GateClass::Cx01,
                (SlotIndex::One, SlotIndex::Zero) => GateClass::Cx10,
                (SlotIndex::One, SlotIndex::One) => GateClass::Cx11,
            };
            (class, control.node, target.node)
        }
    }
}

/// Selects the SWAP gate class and operand order for exchanging the
/// occupants of two slots.
///
/// # Panics
///
/// Panics if the slots coincide, or if a bare unit's slot 1 is referenced.
pub fn swap_class(layout: &Layout, a: Slot, b: Slot) -> (GateClass, usize, usize) {
    assert_ne!(a, b, "SWAP needs two distinct slots");
    if a.node == b.node {
        return (GateClass::SwapIn, a.node, a.node);
    }
    let a_enc = layout.is_encoded(a.node);
    let b_enc = layout.is_encoded(b.node);
    assert!(
        (a.slot == SlotIndex::Zero || a_enc) && (b.slot == SlotIndex::Zero || b_enc),
        "slot 1 referenced on a bare unit"
    );
    match (a_enc, b_enc) {
        (false, false) => (GateClass::Swap2, a.node, b.node),
        (true, false) => {
            let class = match a.slot {
                SlotIndex::Zero => GateClass::SwapBareE0,
                SlotIndex::One => GateClass::SwapBareE1,
            };
            (class, a.node, b.node)
        }
        (false, true) => {
            let class = match b.slot {
                SlotIndex::Zero => GateClass::SwapBareE0,
                SlotIndex::One => GateClass::SwapBareE1,
            };
            (class, b.node, a.node)
        }
        (true, true) => match (a.slot, b.slot) {
            (SlotIndex::Zero, SlotIndex::Zero) => (GateClass::Swap00, a.node, b.node),
            (SlotIndex::Zero, SlotIndex::One) => (GateClass::Swap01, a.node, b.node),
            (SlotIndex::One, SlotIndex::Zero) => (GateClass::Swap01, b.node, a.node),
            (SlotIndex::One, SlotIndex::One) => (GateClass::Swap11, a.node, b.node),
        },
    }
}

/// `S(i,j,g)`: success probability of one gate of `class` spanning
/// `units`, given per-unit encodings.
pub fn gate_success(
    config: &CompilerConfig,
    layout: &Layout,
    class: GateClass,
    unit_a: usize,
    unit_b: Option<usize>,
) -> f64 {
    let spec = config.library.spec(class);
    let t1 = |unit: usize| {
        if layout.is_encoded(unit) {
            config.t1_ququart_ns()
        } else {
            config.t1_qubit_ns()
        }
    };
    let mut s = spec.fidelity * (-spec.duration_ns / t1(unit_a)).exp();
    if let Some(b) = unit_b {
        s *= (-spec.duration_ns / t1(b)).exp();
    } else {
        // Single-unit gates still expose one unit for the gate duration.
    }
    s
}

/// Negative-log success of a gate (lower is better; additive along paths).
pub fn gate_cost(
    config: &CompilerConfig,
    layout: &Layout,
    class: GateClass,
    unit_a: usize,
    unit_b: Option<usize>,
) -> f64 {
    -gate_success(config, layout, class, unit_a, unit_b).ln()
}

/// Which answering strategy a [`DistanceOracle`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Lazy full Dijkstra rows per source (byte-identity pinned; up to
    /// O(V²) memory once every source is touched), plus the hot LRU for
    /// [`DistanceOracle::path`]. Selected for devices with at most
    /// [`CompilerConfig::oracle_exact_threshold`] units.
    Exact,
    /// K landmark rows (farthest-point sampling, O(K·V) memory) answer
    /// [`DistanceOracle::distance`] with the admissible ALT bound
    /// `max_L |d(L,a)−d(L,b)| ≤ d(a,b)`; a small LRU of exact hot
    /// rows serves [`DistanceOracle::distance_exact`] and
    /// [`DistanceOracle::path`] where the router needs tie-break-grade
    /// precision.
    Landmark,
}

/// Memory/row accounting for one or more [`DistanceOracle`]s, surfaced
/// through `Compiler::oracle_stats()` and the wire `stats` op alongside
/// the result-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Oracles currently in exact mode.
    pub exact_oracles: usize,
    /// Oracles currently in landmark mode.
    pub landmark_oracles: usize,
    /// Materialized exact rows: lazily filled exact-mode distance rows,
    /// plus the distance+predecessor pairs held by the hot LRU.
    pub rows_materialized: usize,
    /// Precomputed landmark distance rows across landmark-mode oracles.
    pub landmark_rows: usize,
    /// Estimated bytes held by all counted rows (8 bytes per entry).
    pub approx_bytes: usize,
}

impl OracleStats {
    /// Accumulates another oracle's counters into this aggregate.
    pub fn merge(&mut self, other: &OracleStats) {
        // Exhaustive destructuring: a new counter fails to compile here
        // until aggregation covers it.
        let OracleStats {
            exact_oracles,
            landmark_oracles,
            rows_materialized,
            landmark_rows,
            approx_bytes,
        } = other;
        self.exact_oracles += exact_oracles;
        self.landmark_oracles += landmark_oracles;
        self.rows_materialized += rows_materialized;
        self.landmark_rows += landmark_rows;
        self.approx_bytes += approx_bytes;
    }

    /// Serializes to a stable JSON object for the wire `stats` op.
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring: a new field fails to compile here
        // until the JSON shape covers it.
        let OracleStats {
            exact_oracles,
            landmark_oracles,
            rows_materialized,
            landmark_rows,
            approx_bytes,
        } = self;
        format!(
            "{{\"exact_oracles\":{exact_oracles},\"landmark_oracles\":{landmark_oracles},\
             \"rows_materialized\":{rows_materialized},\"landmark_rows\":{landmark_rows},\
             \"approx_bytes\":{approx_bytes}}}"
        )
    }
}

/// Precomputed landmark rows: `rows[k][v]` is the exact Dijkstra distance
/// from landmark `verts[k]` to vertex `v`.
#[derive(Debug)]
struct Landmarks {
    verts: Vec<usize>,
    rows: Vec<Vec<f64>>,
}

/// One exact Dijkstra result: per-target distances plus the predecessor
/// row that reconstructs shortest paths from the same run.
type ExactRow = Arc<(Vec<f64>, Vec<usize>)>;

/// LRU bound on the exact hot rows retained per slot oracle. Front layers
/// and fallback paths rarely involve more than a handful of distinct
/// source slots at once.
const HOT_ROW_BOUND: usize = 32;

/// Cached slot distances under the Eq. (4) SWAP-cost metric.
///
/// Edge weights depend only on the *encoding flags* of the endpoint units,
/// so the oracle stays valid while qubits move; a different encoding is a
/// different oracle (see [`crate::TopologyCache::oracle_for`]).
///
/// Two modes, selected at construction from the device size against
/// [`CompilerConfig::oracle_exact_threshold`]:
///
/// * **Exact** — per-source rows fill lazily through a [`OnceLock`], so
///   lookups take `&self` and a fully immutable oracle can be shared
///   across compilation threads behind an `Arc` (the batch engine reuses
///   one bare-encoding oracle per topology this way). Predecessor rows
///   for [`DistanceOracle::path`] come from the bounded hot LRU below,
///   and the Dijkstra run that fills one also seeds the matching
///   distance row. All exact-mode behavior is byte-identity pinned
///   against the naive reference (`tests/routing_determinism.rs`).
/// * **Landmark** — for utility-scale devices the all-pairs footprint is
///   prohibitive (a 1121-unit heavy-hex is 2242 slots ⇒ ~40 MB of
///   distance rows), so [`DistanceOracle::distance`] answers with the
///   admissible ALT landmark bound (never an overestimate)
///   from K farthest-point-sampled rows built once on first use, while
///   [`DistanceOracle::distance_exact`] / [`DistanceOracle::path`] fall
///   back to a bounded LRU of exact rows. Which entry point answers is a
///   static property of the call site — never of shared cache state — so
///   routing output stays deterministic under concurrency.
#[derive(Debug)]
pub struct DistanceOracle {
    graph: WGraph,
    mode: OracleMode,
    /// Exact-mode lazy rows (empty in landmark mode).
    cache: Vec<OnceLock<Vec<f64>>>,
    /// Landmark-mode state (unused in exact mode).
    landmark_count: usize,
    landmarks: OnceLock<Landmarks>,
    /// Exact `(distances, predecessors)` rows of hot sources: every
    /// [`DistanceOracle::path`], and landmark-mode
    /// [`DistanceOracle::distance_exact`]. Values are pure Dijkstra
    /// results, so this state (shared across jobs) can never change an
    /// answer — only whether it is recomputed.
    hot: ResultCache<usize, ExactRow>,
}

impl DistanceOracle {
    /// Builds the oracle for the current encodings. Mode follows the
    /// device's unit count against `config.oracle_exact_threshold`.
    pub fn new(expanded: &ExpandedGraph, layout: &Layout, config: &CompilerConfig) -> Self {
        let n = expanded.n_slots();
        let mut graph = WGraph::new(n);
        for s in expanded.slots() {
            for t in expanded.neighbors(s) {
                if t.index() <= s.index() {
                    continue;
                }
                if !Self::edge_usable(layout, s, t) {
                    continue;
                }
                let (class, ua, ub) = swap_class(layout, s, t);
                let ub = if ua == ub { None } else { Some(ub) };
                let cost = gate_cost(config, layout, class, ua, ub);
                graph.add_edge(s.index(), t.index(), cost.max(0.0));
            }
        }
        let exact = expanded.topology().n_nodes() <= config.oracle_exact_threshold;
        Self::from_graph(graph, exact, config.oracle_landmarks, HOT_ROW_BOUND)
    }

    /// The oracle for a topology with **no encoded units** — the encoding
    /// state every compilation starts from. Safe to share across jobs on
    /// the same topology and config.
    pub fn bare(expanded: &ExpandedGraph, config: &CompilerConfig) -> Self {
        let bare_layout = Layout::new(0, expanded.topology().n_nodes());
        DistanceOracle::new(expanded, &bare_layout, config)
    }

    /// Wraps an arbitrary prebuilt weighted graph (the mapping stage's
    /// unit-level metric graph) in the same two-mode cache. Mode follows
    /// the vertex count against `config.oracle_exact_threshold`; the hot
    /// LRU is unbounded (capacity = vertex count) because mapping only
    /// ever requests exact rows for the few already-placed units.
    pub fn over_graph(graph: WGraph, config: &CompilerConfig) -> Self {
        let exact = graph.len() <= config.oracle_exact_threshold;
        let cap = graph.len().max(1);
        Self::from_graph(graph, exact, config.oracle_landmarks, cap)
    }

    fn from_graph(graph: WGraph, exact: bool, landmarks: usize, hot_capacity: usize) -> Self {
        let n = graph.len();
        let (mode, rows) = if exact {
            (OracleMode::Exact, n)
        } else {
            (OracleMode::Landmark, 0)
        };
        DistanceOracle {
            graph,
            mode,
            cache: std::iter::repeat_with(OnceLock::new).take(rows).collect(),
            landmark_count: Self::landmark_budget(landmarks, n),
            landmarks: OnceLock::new(),
            hot: ResultCache::new(hot_capacity),
        }
    }

    /// K for landmark mode: the configured count, or `2 * ceil(sqrt(n))`
    /// clamped to `16..=128` when the config says "auto" (0). The doubled
    /// coefficient keeps mid-size (~100–300 unit) estimates within a few
    /// percent of exact communication while the footprint stays a small
    /// fraction of the all-pairs matrix at utility scale.
    fn landmark_budget(configured: usize, n: usize) -> usize {
        let k = if configured == 0 {
            (2 * ((n as f64).sqrt().ceil() as usize)).clamp(16, 128)
        } else {
            configured
        };
        k.min(n.max(1))
    }

    /// The answering strategy selected at construction.
    pub fn mode(&self) -> OracleMode {
        self.mode
    }

    /// An expanded-graph edge is traversable when neither endpoint is the
    /// unusable slot 1 of a bare unit.
    fn edge_usable(layout: &Layout, s: Slot, t: Slot) -> bool {
        let ok = |x: Slot| x.slot == SlotIndex::Zero || layout.is_encoded(x.node);
        ok(s) && ok(t)
    }

    /// Shortest-path cost (sum of `−log S(swap)`) between two slots: the
    /// exact Dijkstra value in exact mode, the admissible ALT landmark
    /// bound in landmark mode. Lookahead scoring uses this entry point.
    pub fn distance(&self, from: Slot, to: Slot) -> f64 {
        self.distance_idx(from.index(), to.index())
    }

    /// Exact shortest-path cost regardless of mode. In exact mode this is
    /// [`DistanceOracle::distance`] verbatim (same lazily filled row); in
    /// landmark mode it consults the bounded hot-row LRU. Front-layer
    /// scoring uses this entry point.
    pub fn distance_exact(&self, from: Slot, to: Slot) -> f64 {
        self.distance_exact_idx(from.index(), to.index())
    }

    /// [`DistanceOracle::distance`] over raw vertex indices (the mapping
    /// stage's unit-level oracle addresses units, not slots).
    pub fn distance_idx(&self, from: usize, to: usize) -> f64 {
        match self.mode {
            OracleMode::Exact => self.exact_row(from)[to],
            OracleMode::Landmark => self.estimate(from, to),
        }
    }

    /// [`DistanceOracle::distance_exact`] over raw vertex indices.
    pub fn distance_exact_idx(&self, from: usize, to: usize) -> f64 {
        match self.mode {
            OracleMode::Exact => self.exact_row(from)[to],
            OracleMode::Landmark => self.hot_row(from).0[to],
        }
    }

    fn exact_row(&self, from: usize) -> &[f64] {
        self.cache[from].get_or_init(|| self.graph.dijkstra(from))
    }

    /// Admissible triangle-inequality bound `max_L |d(L,a) - d(L,b)|`
    /// (the classic ALT heuristic): never more than the true distance,
    /// and exactly 0 for `a == b`. A landmark that reaches exactly one of
    /// the pair proves them disconnected; one that reaches neither says
    /// nothing and is skipped.
    fn estimate(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let lm = self.landmarks();
        let mut best = 0.0f64;
        for row in &lm.rows {
            let (da, db) = (row[a], row[b]);
            let bound = if da.is_finite() && db.is_finite() {
                (da - db).abs()
            } else if da.is_finite() != db.is_finite() {
                f64::INFINITY
            } else {
                continue;
            };
            if bound > best {
                best = bound;
            }
        }
        best
    }

    /// Lazily selects landmarks by farthest-point sampling and runs their
    /// K Dijkstras — paid once per oracle, and only if estimates are ever
    /// requested. Seeded at the lowest non-isolated vertex (slot 1 of a
    /// bare unit is isolated and can never be a landmark); each next
    /// landmark maximizes the finite distance to the chosen set, ties
    /// broken toward the smallest index, so selection is deterministic.
    fn landmarks(&self) -> &Landmarks {
        self.landmarks.get_or_init(|| {
            let n = self.graph.len();
            let seed = (0..n).find(|&v| self.graph.degree(v) > 0);
            let Some(seed) = seed else {
                return Landmarks {
                    verts: Vec::new(),
                    rows: Vec::new(),
                };
            };
            let first = self.graph.dijkstra(seed);
            let mut min_dist = first.clone();
            let mut verts = vec![seed];
            let mut rows = vec![first];
            while verts.len() < self.landmark_count {
                let mut best = None;
                let mut best_d = 0.0;
                for (v, &d) in min_dist.iter().enumerate() {
                    if d.is_finite() && d > best_d {
                        best_d = d;
                        best = Some(v);
                    }
                }
                let Some(v) = best else { break };
                let row = self.graph.dijkstra(v);
                for (m, &d) in min_dist.iter_mut().zip(&row) {
                    if d < *m {
                        *m = d;
                    }
                }
                verts.push(v);
                rows.push(row);
            }
            Landmarks { verts, rows }
        })
    }

    /// The landmark vertex set, if landmark rows have been built (empty
    /// otherwise, and always in exact mode). Diagnostics only — reading
    /// it never triggers the landmark build.
    pub fn landmark_vertices(&self) -> &[usize] {
        self.landmarks.get().map_or(&[], |lm| &lm.verts)
    }

    /// Returns the exact `(distances, predecessors)` row for `src` from
    /// the hot LRU, running Dijkstra (outside the LRU's lock) on a miss.
    /// Values are pure functions of the graph, so shared LRU state affects
    /// cost, never answers.
    fn hot_row(&self, src: usize) -> ExactRow {
        self.hot
            .get_or_insert_with(&src, || Arc::new(self.graph.dijkstra_with_prev(src)))
    }

    /// The equivalent *success probability* of the best SWAP path,
    /// `exp(−distance) ∈ (0, 1]` (estimate-grade in landmark mode).
    pub fn path_success(&self, from: Slot, to: Slot) -> f64 {
        (-self.distance(from, to)).exp()
    }

    /// Shortest path between two slots (vertex list), for fallback routing.
    ///
    /// Predecessor rows come from the hot LRU, so repeated calls from one
    /// source (successive fallback walks) cost one Dijkstra. In exact mode
    /// that run also seeds the source's distance row — the two entry
    /// points share one search.
    pub fn path(&self, from: Slot, to: Slot) -> Option<Vec<Slot>> {
        let row = self.hot_row(from.index());
        if self.mode == OracleMode::Exact {
            // Bit-identical to what `distance` would compute (shared
            // Dijkstra core).
            self.cache[from.index()].get_or_init(|| row.0.clone());
        }
        WGraph::path_from_prev(&row.1, from.index(), to.index())
            .map(|p| p.into_iter().map(Slot::from_index).collect())
    }

    /// Current row/memory accounting for this oracle. Computed on demand
    /// by scanning fill states — no counters on the hot path.
    pub fn stats(&self) -> OracleStats {
        let n = self.graph.len();
        let dist_rows = self.cache.iter().filter(|c| c.get().is_some()).count();
        let hot_entries = self.hot.len();
        let landmark_rows = self.landmarks.get().map_or(0, |lm| lm.rows.len());
        // Each hot entry holds one distance and one predecessor row.
        let rows_materialized = dist_rows + 2 * hot_entries;
        OracleStats {
            exact_oracles: usize::from(self.mode == OracleMode::Exact),
            landmark_oracles: usize::from(self.mode == OracleMode::Landmark),
            rows_materialized,
            landmark_rows,
            approx_bytes: (rows_materialized + landmark_rows) * n * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_arch::Topology;

    fn setup(encode: &[usize]) -> (ExpandedGraph, Layout, CompilerConfig) {
        let topo = Topology::line(4);
        let expanded = ExpandedGraph::new(topo);
        let mut layout = Layout::new(0, 4);
        for &u in encode {
            layout.set_encoded(u);
        }
        (expanded, layout, CompilerConfig::paper())
    }

    #[test]
    fn cx_class_bare_bare() {
        let (_, layout, _) = setup(&[]);
        let (class, a, b) = cx_class(&layout, Slot::zero(0), Slot::zero(1));
        assert_eq!(class, GateClass::Cx2);
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn cx_class_internal() {
        let (_, layout, _) = setup(&[1]);
        let (class, a, _) = cx_class(&layout, Slot::zero(1), Slot::one(1));
        assert_eq!(class, GateClass::Cx0);
        assert_eq!(a, 1);
        let (class, _, _) = cx_class(&layout, Slot::one(1), Slot::zero(1));
        assert_eq!(class, GateClass::Cx1);
    }

    #[test]
    fn cx_class_mixed_orders_encoded_first() {
        let (_, layout, _) = setup(&[0]);
        // Control encoded slot 1, target bare.
        let (class, a, b) = cx_class(&layout, Slot::one(0), Slot::zero(1));
        assert_eq!(class, GateClass::CxE1Bare);
        assert_eq!((a, b), (0, 1));
        // Control bare, target encoded slot 0: encoded unit still first.
        let (class, a, b) = cx_class(&layout, Slot::zero(1), Slot::zero(0));
        assert_eq!(class, GateClass::CxBareE0);
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn cx_class_ququart_ququart() {
        let (_, layout, _) = setup(&[0, 1]);
        let (class, a, b) = cx_class(&layout, Slot::one(0), Slot::zero(1));
        assert_eq!(class, GateClass::Cx10);
        assert_eq!((a, b), (0, 1));
        let (class, ..) = cx_class(&layout, Slot::zero(0), Slot::one(1));
        assert_eq!(class, GateClass::Cx01);
    }

    #[test]
    fn swap_class_variants() {
        let (_, layout, _) = setup(&[0, 2]);
        assert_eq!(
            swap_class(&layout, Slot::zero(1), Slot::zero(3)).0,
            GateClass::Swap2
        );
        assert_eq!(
            swap_class(&layout, Slot::zero(0), Slot::one(0)).0,
            GateClass::SwapIn
        );
        let (class, a, b) = swap_class(&layout, Slot::zero(1), Slot::one(0));
        assert_eq!(class, GateClass::SwapBareE1);
        assert_eq!((a, b), (0, 1)); // encoded unit first
        let (class, a, b) = swap_class(&layout, Slot::one(0), Slot::zero(2));
        assert_eq!(class, GateClass::Swap01);
        assert_eq!((a, b), (2, 0)); // slot-0 side first
    }

    #[test]
    fn gate_success_penalizes_encoded_endpoints() {
        let (_, mut layout, config) = setup(&[]);
        let bare = gate_success(&config, &layout, GateClass::Cx2, 0, Some(1));
        layout.set_encoded(0);
        let enc = gate_success(&config, &layout, GateClass::Cx2, 0, Some(1));
        assert!(enc < bare);
        assert!(bare < 0.99 && bare > 0.98);
    }

    #[test]
    fn distance_prefers_short_paths() {
        let (expanded, layout, config) = setup(&[]);
        let oracle = DistanceOracle::new(&expanded, &layout, &config);
        let d01 = oracle.distance(Slot::zero(0), Slot::zero(1));
        let d03 = oracle.distance(Slot::zero(0), Slot::zero(3));
        assert!(d01 < d03);
        assert!(oracle.path_success(Slot::zero(0), Slot::zero(1)) > 0.9);
    }

    #[test]
    fn internal_hop_is_cheap() {
        let (expanded, mut layout, config) = setup(&[]);
        layout.set_encoded(1);
        let oracle = DistanceOracle::new(&expanded, &layout, &config);
        let internal = oracle.distance(Slot::zero(1), Slot::one(1));
        let external = oracle.distance(Slot::zero(0), Slot::zero(1));
        assert!(internal < external);
    }

    #[test]
    fn bare_slot_one_unreachable() {
        let (expanded, layout, config) = setup(&[]);
        let oracle = DistanceOracle::new(&expanded, &layout, &config);
        // Slot 1 of a bare unit has no usable edges.
        let d = oracle.distance(Slot::zero(0), Slot::one(2));
        assert!(d.is_infinite());
    }

    #[test]
    fn path_recovery_matches_distance() {
        let (expanded, layout, config) = setup(&[]);
        let oracle = DistanceOracle::new(&expanded, &layout, &config);
        let p = oracle.path(Slot::zero(0), Slot::zero(3)).unwrap();
        assert_eq!(p.first(), Some(&Slot::zero(0)));
        assert_eq!(p.last(), Some(&Slot::zero(3)));
        assert_eq!(p.len(), 4); // line of 4 units, slot0 chain
    }

    #[test]
    fn repeated_path_calls_reuse_memoized_rows() {
        let (expanded, layout, config) = setup(&[]);
        let oracle = DistanceOracle::new(&expanded, &layout, &config);
        let first = oracle.path(Slot::zero(0), Slot::zero(3)).unwrap();
        for _ in 0..3 {
            assert_eq!(oracle.path(Slot::zero(0), Slot::zero(3)).unwrap(), first);
        }
        // Different destination, same memoized source row.
        let shorter = oracle.path(Slot::zero(0), Slot::zero(2)).unwrap();
        assert_eq!(shorter.len(), 3);
    }

    #[test]
    fn path_call_seeds_distance_row_bitwise() {
        let (expanded, layout, config) = setup(&[]);
        // Oracle A: path first (seeds the distance row from the shared
        // Dijkstra); oracle B: distance only. The rows must agree bitwise.
        let a = DistanceOracle::new(&expanded, &layout, &config);
        let b = DistanceOracle::new(&expanded, &layout, &config);
        let _ = a.path(Slot::zero(0), Slot::zero(3));
        for t in expanded.slots() {
            let da = a.distance(Slot::zero(0), t);
            let db = b.distance(Slot::zero(0), t);
            assert_eq!(da.to_bits(), db.to_bits(), "row drifted at {t}");
        }
    }

    /// Config that forces every oracle into landmark mode.
    fn landmark_config() -> CompilerConfig {
        let mut c = CompilerConfig::paper();
        c.oracle_exact_threshold = 1;
        c
    }

    fn exact_and_landmark_pair(topo: Topology) -> (DistanceOracle, DistanceOracle, ExpandedGraph) {
        let expanded = ExpandedGraph::new(topo);
        let exact = DistanceOracle::bare(&expanded, &CompilerConfig::paper());
        let landmark = DistanceOracle::bare(&expanded, &landmark_config());
        (exact, landmark, expanded)
    }

    #[test]
    fn mode_follows_threshold() {
        let (exact, landmark, _) = exact_and_landmark_pair(Topology::heavy_hex_65());
        assert_eq!(exact.mode(), OracleMode::Exact);
        assert_eq!(landmark.mode(), OracleMode::Landmark);
    }

    #[test]
    fn landmark_estimate_is_admissible() {
        for topo in [
            Topology::line(12),
            Topology::grid(16),
            Topology::ring(10),
            Topology::heavy_hex(3),
        ] {
            let (exact, landmark, expanded) = exact_and_landmark_pair(topo);
            for a in expanded.slots() {
                for b in expanded.slots() {
                    let est = landmark.distance(a, b);
                    let truth = exact.distance(a, b);
                    assert!(
                        est <= truth + 1e-9,
                        "overestimate {est} > {truth} for {a}->{b}"
                    );
                    if a == b {
                        assert_eq!(est, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn landmark_exact_entry_matches_exact_mode_bitwise() {
        let (exact, landmark, expanded) = exact_and_landmark_pair(Topology::grid(16));
        for a in expanded.slots() {
            for b in expanded.slots() {
                let via_hot = landmark.distance_exact(a, b);
                let truth = exact.distance(a, b);
                assert_eq!(via_hot.to_bits(), truth.to_bits(), "{a}->{b}");
            }
        }
    }

    #[test]
    fn landmark_selection_is_deterministic_and_distinct() {
        let expanded = ExpandedGraph::new(Topology::grid(25));
        let a = DistanceOracle::bare(&expanded, &landmark_config());
        let b = DistanceOracle::bare(&expanded, &landmark_config());
        assert!(a.landmark_vertices().is_empty(), "built before first use");
        let _ = a.distance(Slot::zero(0), Slot::zero(1));
        let _ = b.distance(Slot::zero(0), Slot::zero(1));
        let va = a.landmark_vertices().to_vec();
        let vb = b.landmark_vertices().to_vec();
        assert_eq!(va, vb);
        assert!(!va.is_empty());
        let mut dedup = va.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), va.len(), "duplicate landmark");
        // Every landmark is a usable vertex (never bare slot 1).
        for &v in &va {
            assert_eq!(Slot::from_index(v).slot, SlotIndex::Zero);
        }
    }

    #[test]
    fn hot_rows_evict_but_never_change_answers() {
        let expanded = ExpandedGraph::new(Topology::line(80));
        let oracle = DistanceOracle::bare(&expanded, &landmark_config());
        // Touch more sources than the hot bound, twice; answers agree.
        let probes: Vec<Slot> = (0..40).map(Slot::zero).collect();
        let first: Vec<f64> = probes
            .iter()
            .map(|&s| oracle.distance_exact(s, Slot::zero(79)))
            .collect();
        let second: Vec<f64> = probes
            .iter()
            .map(|&s| oracle.distance_exact(s, Slot::zero(79)))
            .collect();
        for (x, y) in first.iter().zip(&second) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let stats = oracle.stats();
        assert!(stats.rows_materialized <= 2 * HOT_ROW_BOUND);
    }

    #[test]
    fn landmark_path_matches_exact_route_cost() {
        let (exact, landmark, _) = exact_and_landmark_pair(Topology::grid(16));
        let p = landmark.path(Slot::zero(0), Slot::zero(15)).unwrap();
        let q = exact.path(Slot::zero(0), Slot::zero(15)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn stats_count_rows_and_bytes() {
        let expanded = ExpandedGraph::new(Topology::line(6));
        let n = expanded.n_slots();

        let exact = DistanceOracle::bare(&expanded, &CompilerConfig::paper());
        assert_eq!(
            exact.stats(),
            OracleStats {
                exact_oracles: 1,
                ..Default::default()
            }
        );
        let _ = exact.distance(Slot::zero(0), Slot::zero(1));
        let s = exact.stats();
        assert_eq!(s.rows_materialized, 1);
        assert_eq!(s.approx_bytes, n * 8);

        let lm = DistanceOracle::bare(&expanded, &landmark_config());
        let _ = lm.distance(Slot::zero(0), Slot::zero(5));
        let s = lm.stats();
        assert_eq!(s.landmark_oracles, 1);
        assert!(s.landmark_rows >= 1);
        assert_eq!(s.rows_materialized, 0);
        let _ = lm.distance_exact(Slot::zero(0), Slot::zero(5));
        let s2 = lm.stats();
        assert_eq!(s2.rows_materialized, 2); // one hot entry: dist + prev
        assert_eq!(s2.approx_bytes, (2 + s2.landmark_rows) * n * 8);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut total = OracleStats::default();
        total.merge(&OracleStats {
            exact_oracles: 1,
            landmark_oracles: 0,
            rows_materialized: 3,
            landmark_rows: 0,
            approx_bytes: 100,
        });
        total.merge(&OracleStats {
            exact_oracles: 0,
            landmark_oracles: 2,
            rows_materialized: 4,
            landmark_rows: 16,
            approx_bytes: 900,
        });
        assert_eq!(total.exact_oracles, 1);
        assert_eq!(total.landmark_oracles, 2);
        assert_eq!(total.rows_materialized, 7);
        assert_eq!(total.landmark_rows, 16);
        assert_eq!(total.approx_bytes, 1000);
        let json = total.to_json();
        assert!(json.contains("\"landmark_rows\":16"));
        assert!(json.contains("\"approx_bytes\":1000"));
    }
}
