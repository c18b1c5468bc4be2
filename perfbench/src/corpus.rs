//! The job lists of the two compile workloads, generated from the seed.
//!
//! The seed picks the circuit instances (Bernstein–Vazirani secrets, QAOA
//! graphs and angles); the families, sizes, devices and strategies are fixed,
//! so every seed measures the same mix of work. Each pass of a run compiles
//! its own instances, drawn from the seed and the pass number, so a run's
//! per-job medians average over instances as well as over repeats.

use qompress::Strategy;
use qompress_arch::Topology;
use qompress_circuit::graph::UGraph;
use qompress_circuit::Circuit;
use qompress_service::parse_topology_spec;
use qompress_workloads::{build, qaoa, Benchmark};

/// The six circuit families both compile workloads draw from.
pub const FAMILIES: [Benchmark; 6] = [
    Benchmark::Cuccaro,
    Benchmark::Cnu,
    Benchmark::Qram,
    Benchmark::Bv,
    Benchmark::QaoaRandom,
    Benchmark::QaoaTorus,
];

/// Circuit sizes (qubits) of both compile workloads.
pub const SIZES: [usize; 3] = [16, 32, 64];

/// Strategies whose pipeline the traced run can replay stage by stage
/// through public calls: their `MappingOptions` are recoverable from the
/// result. FQ and EC have no public stage decomposition.
pub fn decomposable(strategy: Strategy) -> bool {
    matches!(
        strategy,
        Strategy::QubitOnly
            | Strategy::Eqm
            | Strategy::RingBased
            | Strategy::Awe
            | Strategy::ProgressivePairing
    )
}

/// One compilation job of a compile workload.
#[derive(Debug)]
pub struct Job {
    /// `family-size/strategy@device`.
    pub label: String,
    /// Family the circuit came from.
    pub family: Benchmark,
    /// Logical qubits.
    pub size: usize,
    /// Index into [`Corpus::devices`].
    pub device: usize,
    /// Strategy to compile with.
    pub strategy: Strategy,
    /// Index into [`Corpus::circuits`].
    pub circuit: usize,
}

/// A compile workload's inputs: devices, circuits and the job list.
#[derive(Debug)]
pub struct Corpus {
    /// Seed the instances are drawn from.
    pub seed: u64,
    /// `(spec, topology)` per device.
    pub devices: Vec<(String, Topology)>,
    /// Distinct circuits of pass 0; jobs reference them by index.
    pub circuits: Vec<Circuit>,
    /// Every job of one pass, in execution order.
    pub jobs: Vec<Job>,
    /// Strategies the workload uses (the canary set compiles with each).
    pub strategies: Vec<Strategy>,
}

/// SplitMix64: a seed mixer, so nearby seeds give unrelated instances.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// QAOA on a random graph with exactly 30% of all vertex pairs as edges
/// (`G(n, m)`). The workloads crate's generator draws each edge on its own
/// (`G(n, p)`), so its edge count, and the compile cost that grows faster
/// than it, moves with the seed; fixing `m` keeps a pass's work the same on
/// every seed while the seed still picks the graph.
fn qaoa_random(n: usize, seed: u64) -> Circuit {
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    for i in (1..pairs.len()).rev() {
        let j = (mix(seed ^ mix(i as u64)) % (i as u64 + 1)) as usize;
        pairs.swap(i, j);
    }
    let m = (0.3 * pairs.len() as f64).round() as usize;
    let mut graph = UGraph::new(n);
    for &(a, b) in &pairs[..m] {
        graph.add_edge(a, b);
    }
    qaoa(&graph, seed)
}

/// The circuit of every family × size, in that order, for one pass.
fn circuits(seed: u64, pass: usize) -> Vec<Circuit> {
    let mut circuits = Vec::new();
    for (fi, &family) in FAMILIES.iter().enumerate() {
        for &size in &SIZES {
            let key = (pass as u64) << 40 | (fi as u64) << 32 | size as u64;
            let instance_seed = mix(seed ^ mix(key));
            circuits.push(match family {
                Benchmark::QaoaRandom => qaoa_random(size, instance_seed),
                _ => build(family, size, instance_seed),
            });
        }
    }
    circuits
}

impl Corpus {
    /// The circuits pass `pass` compiles, indexed like [`Corpus::circuits`]
    /// (which are pass 0's).
    pub fn circuits_of_pass(&self, pass: usize) -> Vec<Circuit> {
        circuits(self.seed, pass)
    }
}

/// Size of a maximum matching of a bipartite device (Kuhn's augmenting
/// paths over a BFS two-colouring).
///
/// # Panics
///
/// Panics if the device is not bipartite (grids and heavy-hex are).
fn max_matching(topo: &Topology) -> usize {
    let n = topo.n_nodes();
    let adj: Vec<Vec<usize>> = (0..n).map(|u| topo.neighbors(u)).collect();
    let mut colour = vec![None; n];
    for s in 0..n {
        if colour[s].is_some() {
            continue;
        }
        colour[s] = Some(false);
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            let c = colour[u].expect("queued units are coloured");
            for &v in &adj[u] {
                match colour[v] {
                    None => {
                        colour[v] = Some(!c);
                        queue.push_back(v);
                    }
                    Some(cv) => assert_ne!(cv, c, "device is not bipartite"),
                }
            }
        }
    }
    fn augment(
        u: usize,
        adj: &[Vec<usize>],
        seen: &mut [bool],
        mate: &mut [Option<usize>],
    ) -> bool {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                if mate[v].is_none_or(|w| augment(w, adj, seen, mate)) {
                    mate[v] = Some(u);
                    return true;
                }
            }
        }
        false
    }
    let mut mate = vec![None; n];
    (0..n)
        .filter(|&u| colour[u] == Some(false))
        .filter(|&u| augment(u, &adj, &mut vec![false; n], &mut mate))
        .count()
}

/// Whether `strategy` can place a `size`-qubit circuit on a device whose
/// maximum matching is `matching`: FQ reserves a disjoint pair of adjacent
/// units (home + ancilla) per qubit pair, so it needs `size / 2` of them.
fn fits(strategy: Strategy, size: usize, matching: usize) -> bool {
    !matches!(strategy, Strategy::FullQuquart) || size / 2 <= matching
}

/// Builds a corpus: every family × size × device × strategy from
/// `strategies`, plus the `small_only` strategies at `small_size` qubits,
/// less the jobs the device has no room for (see [`fits`]).
fn corpus(
    seed: u64,
    specs: &[&str],
    strategies: &[Strategy],
    small_only: &[Strategy],
    small_size: usize,
) -> Corpus {
    let devices: Vec<(String, Topology)> = specs
        .iter()
        .map(|s| {
            let topo = parse_topology_spec(s).expect("built-in topology spec parses");
            (s.to_string(), topo)
        })
        .collect();
    let matchings: Vec<usize> = devices.iter().map(|(_, t)| max_matching(t)).collect();
    let mut jobs = Vec::new();
    let family_sizes = FAMILIES
        .iter()
        .flat_map(|&family| SIZES.iter().map(move |&size| (family, size)));
    for (circuit, (family, size)) in family_sizes.enumerate() {
        for (device, (spec, _)) in devices.iter().enumerate() {
            let extra: &[Strategy] = if size == small_size { small_only } else { &[] };
            for &strategy in strategies.iter().chain(extra) {
                if !fits(strategy, size, matchings[device]) {
                    continue;
                }
                jobs.push(Job {
                    label: format!("{}-{size}/{}@{spec}", family.name(), strategy.name()),
                    family,
                    size,
                    device,
                    strategy,
                    circuit,
                });
            }
        }
    }
    let mut all: Vec<Strategy> = strategies.to_vec();
    all.extend_from_slice(small_only);
    Corpus {
        seed,
        devices,
        circuits: circuits(seed, 0),
        jobs,
        strategies: all,
    }
}

/// `paper-sweep`: the paper's evaluation corpus on devices of at most 65
/// units (exact distance oracle). 222 jobs per pass: fq at 64 qubits runs
/// on `grid:64` only, because `heavyhex:5` has at most 28 disjoint adjacent
/// unit pairs and FQ needs 32.
pub fn paper_sweep(seed: u64) -> Corpus {
    corpus(
        seed,
        &["grid:64", "heavyhex:5"],
        &[
            Strategy::QubitOnly,
            Strategy::FullQuquart,
            Strategy::Eqm,
            Strategy::RingBased,
            Strategy::Awe,
            Strategy::ProgressivePairing,
        ],
        &[Strategy::Exhaustive { ordered: true }],
        16,
    )
}

/// `utility-scale`: the same families on the 1121-unit heavy-hex device
/// (landmark distance oracle). 60 jobs per pass; PP only at 16 qubits,
/// because one PP job at 64 qubits takes about 20 s there.
pub fn utility_scale(seed: u64) -> Corpus {
    corpus(
        seed,
        &["heavyhex:21"],
        &[Strategy::QubitOnly, Strategy::Eqm, Strategy::FullQuquart],
        &[Strategy::ProgressivePairing],
        16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_sizes_match_the_workload_definitions() {
        assert_eq!(paper_sweep(1).jobs.len(), 222);
        assert_eq!(utility_scale(1).jobs.len(), 60);
    }

    #[test]
    fn max_matching_of_the_paper_devices() {
        let matching = |spec| max_matching(&parse_topology_spec(spec).unwrap());
        assert_eq!(matching("grid:64"), 32);
        assert_eq!(matching("heavyhex:5"), 28);
        assert_eq!(matching("heavyhex:21"), 460);
    }

    #[test]
    fn qaoa_random_has_a_fixed_edge_count() {
        for seed in [1, 2, 3] {
            let c = qaoa_random(16, seed);
            assert_eq!(c.n_qubits(), 16);
            assert_eq!(c.two_qubit_gate_count(), 2 * 36);
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = paper_sweep(7);
        let b = paper_sweep(7);
        for (x, y) in a.circuits.iter().zip(&b.circuits) {
            assert_eq!(x.gates(), y.gates());
        }
        for (x, y) in a.circuits_of_pass(3).iter().zip(&b.circuits_of_pass(3)) {
            assert_eq!(x.gates(), y.gates());
        }
    }

    #[test]
    fn passes_draw_their_own_instances() {
        let c = utility_scale(7);
        assert_eq!(c.circuits.len(), FAMILIES.len() * SIZES.len());
        for (a, b) in c.circuits.iter().zip(&c.circuits_of_pass(0)) {
            assert_eq!(a.gates(), b.gates());
        }
        let qaoa_random_64 = 4 * SIZES.len() + 2;
        assert_ne!(
            c.circuits[qaoa_random_64].gates(),
            c.circuits_of_pass(1)[qaoa_random_64].gates()
        );
    }
}
