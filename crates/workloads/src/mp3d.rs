//! MP3D: rarefied hypersonic flow simulation (paper Table 2: "Rarefied
//! air flow simulation, 20,000 particles, 5 iters").
//!
//! Particles move through a 3-D grid of space cells; each step a particle
//! advances along its (real, simulated) velocity, updates its cell's
//! population, and occasionally "collides" (a cell-local state update).
//! Particle accesses are owner-sequential; cell accesses are scattered
//! and write-shared — MP3D's notorious communication pattern.

use prism_mem::trace::Trace;
use prism_sim::SimRng;

use crate::common::{finish_trace, partition, BarrierIds, Lane, Layout, Workload};

/// The MP3D workload.
#[derive(Clone, Debug)]
pub struct Mp3d {
    /// Number of particles.
    pub particles: u64,
    /// Simulation steps.
    pub iterations: u32,
    /// Space-grid dimension (cells per axis).
    pub grid: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Mp3d {
    /// An MP3D run.
    ///
    /// # Panics
    ///
    /// Panics if the particle count or grid is zero.
    pub fn new(particles: u64, iterations: u32, grid: u64, seed: u64) -> Mp3d {
        assert!(particles > 0 && grid > 0);
        Mp3d {
            particles,
            iterations,
            grid,
            seed,
        }
    }
}

impl Workload for Mp3d {
    fn name(&self) -> String {
        "MP3D".into()
    }

    fn description(&self) -> String {
        format!(
            "Rarefied air flow simulation, {} particles, {} iters",
            self.particles, self.iterations
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let n = self.particles;
        let g = self.grid;
        let cells = g * g * g;
        let mut rng = SimRng::new(self.seed);

        // Real particle state: position in [0, g) per axis, velocity
        // biased along +x (the wind-tunnel free stream).
        let mut pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.next_f64() * g as f64,
                    rng.next_f64() * g as f64,
                    rng.next_f64() * g as f64,
                ]
            })
            .collect();
        let mut vel: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    0.8 + 0.4 * rng.next_f64(),
                    0.4 * (rng.next_f64() - 0.5),
                    0.4 * (rng.next_f64() - 0.5),
                ]
            })
            .collect();

        let mut layout = Layout::new();
        const PARTICLE_BYTES: u64 = 32;
        const CELL_BYTES: u64 = 32;
        let parts = layout.array("mp3d-particles", n, PARTICLE_BYTES);
        let space = layout.array("mp3d-cells", cells, CELL_BYTES);
        let reservoir = layout.array("mp3d-reservoir", 64, 64);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();

        let cell_of = |p: &[f64; 3]| -> u64 {
            let cx = (p[0] as u64).min(g - 1);
            let cy = (p[1] as u64).min(g - 1);
            let cz = (p[2] as u64).min(g - 1);
            (cz * g + cy) * g + cx
        };

        for _step in 0..self.iterations {
            // Move phase: advance each particle, update its cell.
            for (p, lane) in lanes.iter_mut().enumerate() {
                for i in partition(n, procs, p) {
                    let idx = i as usize;
                    lane.update(parts.at(i)).compute(10);
                    for (p, v) in pos[idx].iter_mut().zip(vel[idx].iter()) {
                        *p += v;
                    }
                    // Wrap at the tunnel boundary (re-entry from the
                    // reservoir, which is read when that happens).
                    let mut reentered = false;
                    let lim = g as f64;
                    for p in pos[idx].iter_mut() {
                        if *p < 0.0 || *p >= lim {
                            *p = p.rem_euclid(lim);
                            reentered = true;
                        }
                    }
                    if reentered {
                        lane.read(reservoir.at(i % 64)).compute(4);
                    }
                    let cell = cell_of(&pos[idx]);
                    lane.update(space.at(cell)).compute(4);
                    // Collision test: cell-state-dependent, modeled with
                    // the deterministic RNG (~1 in 4 collides).
                    if rng.gen_bool(0.25) {
                        lane.update(space.at(cell)).compute(12);
                        lane.update(parts.at(i));
                        // Collision perturbs the velocity.
                        for v in vel[idx].iter_mut() {
                            *v += 0.2 * (rng.next_f64() - 0.5);
                        }
                    }
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
        }
        finish_trace("MP3D", layout, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::Op;

    #[test]
    fn trace_validates() {
        let t = Mp3d::new(500, 2, 8, 9).generate(4);
        assert_eq!(t.lanes.len(), 4);
        assert!(t.total_refs() > 0);
    }

    #[test]
    fn one_barrier_per_step() {
        let t = Mp3d::new(100, 3, 4, 1).generate(2);
        let barriers = t.lanes[0]
            .iter()
            .filter(|op| matches!(op, Op::Barrier(_)))
            .count();
        assert_eq!(barriers, 3);
    }

    #[test]
    fn cell_accesses_are_scattered() {
        let t = Mp3d::new(400, 1, 8, 2).generate(1);
        let cells_base = t.segments[1].va_base;
        let cells_len = t.segments[1].bytes;
        let mut distinct = prism_sim::FastSet::default();
        for op in &t.lanes[0] {
            if let Op::Read(va) | Op::Write(va) = op {
                if va.0 >= cells_base && va.0 < cells_base + cells_len {
                    distinct.insert(va.0);
                }
            }
        }
        assert!(
            distinct.len() > 100,
            "particles spread over many cells: {}",
            distinct.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Mp3d::new(200, 1, 4, 7).generate(2);
        let b = Mp3d::new(200, 1, 4, 7).generate(2);
        assert_eq!(a.lanes, b.lanes);
    }
}
