//! Host-speed calibration.
//!
//! The reference box is a shared 2-vCPU virtual machine whose speed drifts
//! by up to 2x over minutes as other tenants load the host (no steal time
//! is reported, so CPU time drifts with wall time). A fixed kernel, built
//! from this file alone, is timed between the measured calls; every
//! reported time is scaled by `NOMINAL_MS` over the median kernel time of
//! the stretch it was measured in, so it reads as the time at the reference
//! box's nominal speed and a change in the host does not read as a change
//! in the program.

use crate::stats::median;
use std::time::Instant;

/// Kernel time in ms on the reference box at nominal speed.
pub const NOMINAL_MS: f64 = 0.8;

const NODES: usize = 1 << 14;
const DEGREE: usize = 4;
const SOURCES: [u32; 4] = [0, 4099, 8209, 12301];

/// The kernel: breadth-first searches over a fixed random graph whose
/// working set (about 330 KB) sits in the same cache levels as a routed
/// device's distance rows.
pub struct Calibration {
    /// Out-neighbours of node `u` at `edges[u * DEGREE..][..DEGREE]`.
    edges: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let edges = (0..NODES * DEGREE)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % NODES as u64) as u32
            })
            .collect();
        Calibration {
            edges,
            dist: vec![0; NODES],
            queue: Vec::with_capacity(NODES),
        }
    }

    /// Runs the kernel once; returns its wall time in ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut reached = 0;
        for &s in &SOURCES {
            self.dist.fill(u32::MAX);
            self.queue.clear();
            self.dist[s as usize] = 0;
            self.queue.push(s);
            let mut head = 0;
            while let Some(&u) = self.queue.get(head) {
                head += 1;
                let d = self.dist[u as usize] + 1;
                for &v in &self.edges[u as usize * DEGREE..][..DEGREE] {
                    if self.dist[v as usize] == u32::MAX {
                        self.dist[v as usize] = d;
                        self.queue.push(v);
                    }
                }
            }
            reached += self.queue.len();
        }
        std::hint::black_box(reached);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Factor that scales a time measured beside the kernel times `samples_ms`
/// to nominal speed.
pub fn speed_factor(samples_ms: &[f64]) -> f64 {
    NOMINAL_MS / median(samples_ms)
}
