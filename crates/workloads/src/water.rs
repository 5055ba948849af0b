//! Water: molecular dynamics of liquid water (paper Table 2:
//! "O(n²) / O(n) water molecule simulation, 512 molecules, 3 iters").
//!
//! Two variants, like SPLASH:
//!
//! * [`WaterNsq`] — all-pairs inter-molecular forces with per-molecule
//!   locks guarding the force accumulation (the classic N² kernel).
//! * [`WaterSpatial`] — a 3-D cell-list decomposition over real molecule
//!   positions: only molecules in neighboring cells interact, giving the
//!   O(n) version's sparser, locality-friendlier pattern.

use prism_mem::trace::Trace;
use prism_sim::SimRng;

use crate::common::{finish_trace, partition, BarrierIds, Lane, Layout, SharedArray, Workload};

/// Bytes per molecule record (positions, velocities, forces for 3 atoms —
/// SPLASH's molecule struct spans several cache lines).
const MOL_BYTES: u64 = 448;

fn gen_positions(n: u64, box_side: f64, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| {
            [
                rng.next_f64() * box_side,
                rng.next_f64() * box_side,
                rng.next_f64() * box_side,
            ]
        })
        .collect()
}

/// Emits the intra-molecular phase: each processor updates its own
/// molecules (bond forces, purely local).
fn intra_phase(lanes: &mut [Lane], mols: &SharedArray, n: u64, procs: usize) {
    for (p, lane) in lanes.iter_mut().enumerate() {
        for i in partition(n, procs, p) {
            // Touch several lines of the molecule record.
            for off in [0u64, 64, 128, 192] {
                lane.read(mols.field(i, off));
            }
            lane.compute(60);
            lane.write(mols.field(i, 256));
        }
    }
}

/// Emits one pairwise interaction: read both molecules, accumulate force
/// into both under their locks.
fn interact(lane: &mut Lane, mols: &SharedArray, i: u64, j: u64) {
    lane.read(mols.field(i, 0)).read(mols.field(j, 0));
    lane.compute(40);
    lane.lock(i as u32);
    lane.update(mols.field(i, 320));
    lane.unlock(i as u32);
    lane.lock(j as u32);
    lane.update(mols.field(j, 320));
    lane.unlock(j as u32);
}

/// The O(n²) all-pairs variant.
#[derive(Clone, Debug)]
pub struct WaterNsq {
    /// Number of molecules.
    pub molecules: u64,
    /// Time steps.
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl WaterNsq {
    /// An all-pairs water run.
    ///
    /// # Panics
    ///
    /// Panics if `molecules` is zero.
    pub fn new(molecules: u64, iterations: u32, seed: u64) -> WaterNsq {
        assert!(molecules > 0);
        WaterNsq {
            molecules,
            iterations,
            seed,
        }
    }
}

impl Workload for WaterNsq {
    fn name(&self) -> String {
        "Water-Nsq".into()
    }

    fn description(&self) -> String {
        format!(
            "O(n^2) water molecule simulation, {} molecules, {} iters",
            self.molecules, self.iterations
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let n = self.molecules;
        let mut layout = Layout::new();
        let mols = layout.array("water-molecules", n, MOL_BYTES);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();
        let pairs = n * (n - 1) / 2;

        for _step in 0..self.iterations {
            intra_phase(&mut lanes, &mols, n, procs);
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
            // Inter-molecular: pairs are distributed contiguously (the
            // SPLASH interleaving of half the pair triangle each).
            for (p, lane) in lanes.iter_mut().enumerate() {
                for k in partition(pairs, procs, p) {
                    // Unrank pair k from the upper triangle.
                    let (i, j) = unrank_pair(k, n);
                    interact(lane, &mols, i, j);
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
            // Integration: own molecules.
            for (p, lane) in lanes.iter_mut().enumerate() {
                for i in partition(n, procs, p) {
                    lane.update(mols.field(i, 384)).compute(30);
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
        }
        finish_trace("Water-Nsq", layout, lanes)
    }
}

/// Unranks index `k` into the pair `(i, j)` with `i < j < n` in
/// row-major upper-triangle order.
fn unrank_pair(k: u64, n: u64) -> (u64, u64) {
    // Row i holds (n - 1 - i) pairs.
    let mut i = 0;
    let mut remaining = k;
    loop {
        let row = n - 1 - i;
        if remaining < row {
            return (i, i + 1 + remaining);
        }
        remaining -= row;
        i += 1;
    }
}

/// The O(n) spatial cell-list variant.
#[derive(Clone, Debug)]
pub struct WaterSpatial {
    /// Number of molecules.
    pub molecules: u64,
    /// Time steps.
    pub iterations: u32,
    /// Cells per axis in the cell list.
    pub cells: u64,
    /// RNG seed for positions.
    pub seed: u64,
}

impl WaterSpatial {
    /// A spatial water run.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    pub fn new(molecules: u64, iterations: u32, cells: u64, seed: u64) -> WaterSpatial {
        assert!(molecules > 0 && cells > 0);
        WaterSpatial {
            molecules,
            iterations,
            cells,
            seed,
        }
    }
}

impl Workload for WaterSpatial {
    fn name(&self) -> String {
        "Water-Spa".into()
    }

    fn description(&self) -> String {
        format!(
            "O(n) water molecule simulation, {} molecules, {} iters",
            self.molecules, self.iterations
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let n = self.molecules;
        let g = self.cells;
        let positions = gen_positions(n, g as f64, self.seed);

        // Build the real cell lists.
        let mut cell_members: Vec<Vec<u64>> = vec![Vec::new(); (g * g * g) as usize];
        for (i, p) in positions.iter().enumerate() {
            let cx = (p[0] as u64).min(g - 1);
            let cy = (p[1] as u64).min(g - 1);
            let cz = (p[2] as u64).min(g - 1);
            cell_members[((cz * g + cy) * g + cx) as usize].push(i as u64);
        }

        let mut layout = Layout::new();
        let mols = layout.array("water-molecules", n, MOL_BYTES);
        let cell_arr = layout.array("water-cells", g * g * g, 64);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();
        let total_cells = g * g * g;

        for _step in 0..self.iterations {
            intra_phase(&mut lanes, &mols, n, procs);
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
            // Inter-molecular: each processor owns a slab of cells and
            // interacts its cells' molecules with molecules in the
            // half-shell of neighboring cells (Newton's third law).
            for (p, lane) in lanes.iter_mut().enumerate() {
                for c in partition(total_cells, procs, p) {
                    lane.read(cell_arr.at(c)).compute(2);
                    let cz = c / (g * g);
                    let cy = (c / g) % g;
                    let cx = c % g;
                    let members = &cell_members[c as usize];
                    // Intra-cell pairs.
                    for (a, &i) in members.iter().enumerate() {
                        for &j in &members[a + 1..] {
                            interact(lane, &mols, i, j);
                        }
                    }
                    // Half-shell of 13 neighbor cells.
                    for (dx, dy, dz) in HALF_SHELL {
                        let nx = cx as i64 + dx;
                        let ny = cy as i64 + dy;
                        let nz = cz as i64 + dz;
                        if nx < 0
                            || ny < 0
                            || nz < 0
                            || nx >= g as i64
                            || ny >= g as i64
                            || nz >= g as i64
                        {
                            continue;
                        }
                        let nc = ((nz as u64 * g + ny as u64) * g + nx as u64) as usize;
                        lane.read(cell_arr.at(nc as u64));
                        for &i in members {
                            for &j in &cell_members[nc] {
                                interact(lane, &mols, i, j);
                            }
                        }
                    }
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
            for (p, lane) in lanes.iter_mut().enumerate() {
                for i in partition(n, procs, p) {
                    lane.update(mols.field(i, 384)).compute(30);
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
        }
        finish_trace("Water-Spa", layout, lanes)
    }
}

/// The 13-cell half shell used so each unordered cell pair is visited
/// once.
const HALF_SHELL: [(i64, i64, i64); 13] = [
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (-1, -1, 1),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_pair_enumerates_upper_triangle() {
        let n = 6;
        let mut seen = prism_sim::FastSet::default();
        for k in 0..n * (n - 1) / 2 {
            let (i, j) = unrank_pair(k, n);
            assert!(i < j && j < n, "({i},{j})");
            assert!(seen.insert((i, j)));
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn nsq_trace_validates_with_locks() {
        let t = WaterNsq::new(24, 1, 3).generate(4);
        assert_eq!(t.lanes.len(), 4);
        let locks = t
            .lanes
            .iter()
            .flatten()
            .filter(|op| matches!(op, prism_mem::trace::Op::Lock(_)))
            .count();
        assert_eq!(locks as u64, 2 * 24 * 23 / 2, "two locks per pair");
    }

    #[test]
    fn spatial_trace_validates() {
        let t = WaterSpatial::new(64, 1, 3, 11).generate(4);
        assert_eq!(t.lanes.len(), 4);
        assert!(t.total_refs() > 0);
    }

    #[test]
    fn spatial_does_less_pair_work_than_nsq() {
        let nsq = WaterNsq::new(128, 1, 5).generate(1).total_refs();
        let spa = WaterSpatial::new(128, 1, 4, 5).generate(1).total_refs();
        assert!(spa < nsq, "cell lists prune pairs: {spa} < {nsq}");
    }

    #[test]
    fn half_shell_has_no_inverse_duplicates() {
        for (i, a) in HALF_SHELL.iter().enumerate() {
            for b in &HALF_SHELL[i + 1..] {
                assert_ne!((a.0, a.1, a.2), (-b.0, -b.1, -b.2), "{a:?} vs {b:?}");
            }
        }
    }
}
