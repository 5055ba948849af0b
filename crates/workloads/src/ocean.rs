//! Ocean: simulation of ocean currents (paper Table 2: "258×258 ocean
//! grid").
//!
//! Modeled as the dominant phase of SPLASH-2 Ocean: red-black
//! Gauss-Seidel relaxation over a 2-D grid with a row-block
//! decomposition. Interior points read their four neighbors and update
//! in place; block boundaries create nearest-neighbor communication
//! between processors on adjacent row blocks.

use prism_mem::trace::Trace;

use crate::common::{finish_trace, partition, BarrierIds, Lane, Layout, Workload};

/// The Ocean workload.
#[derive(Clone, Debug)]
pub struct Ocean {
    /// Grid dimension including the boundary (grid is `dim`×`dim`).
    pub dim: u64,
    /// Relaxation sweeps.
    pub iterations: u32,
}

impl Ocean {
    /// A `dim`×`dim` grid relaxed for `iterations` sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 3×3.
    pub fn new(dim: u64, iterations: u32) -> Ocean {
        assert!(dim >= 3, "grid too small");
        Ocean { dim, iterations }
    }
}

impl Workload for Ocean {
    fn name(&self) -> String {
        "Ocean".into()
    }

    fn description(&self) -> String {
        format!(
            "Simulation of ocean currents, {d}x{d} ocean grid",
            d = self.dim
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let d = self.dim;
        let mut layout = Layout::new();
        // Two grids, as in Ocean's multi-grid structure (q and psi).
        let grid = layout.array("ocean-grid", d * d, 8);
        let grid2 = layout.array("ocean-grid2", d * d, 8);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();
        let interior_rows = d - 2;

        for _iter in 0..self.iterations {
            for color in 0..2u64 {
                for (p, lane) in lanes.iter_mut().enumerate() {
                    for r in partition(interior_rows, procs, p) {
                        let row = r + 1;
                        // Red-black: points where (row + col) % 2 == color.
                        let mut col = 1 + ((row + color) % 2);
                        while col < d - 1 {
                            let idx = row * d + col;
                            lane.read(grid.at(idx - d)) // north
                                .read(grid.at(idx - 1)) // west
                                .read(grid.at(idx + 1)) // east
                                .read(grid.at(idx + d)) // south
                                .compute(6)
                                .update(grid.at(idx));
                            col += 2;
                        }
                    }
                }
                let b = barriers.fresh();
                for lane in &mut lanes {
                    lane.barrier(b);
                }
            }
            // A secondary grid pass (source-term update), touching the
            // second array with unit-stride reads and writes.
            for (p, lane) in lanes.iter_mut().enumerate() {
                for r in partition(interior_rows, procs, p) {
                    let row = r + 1;
                    for col in 1..d - 1 {
                        let idx = row * d + col;
                        lane.read(grid.at(idx)).compute(2).update(grid2.at(idx));
                    }
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
        }
        finish_trace("Ocean", layout, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::Op;

    #[test]
    fn trace_validates() {
        let t = Ocean::new(18, 2).generate(4);
        assert_eq!(t.lanes.len(), 4);
        assert!(t.total_refs() > 0);
    }

    #[test]
    fn three_barriers_per_iteration() {
        let t = Ocean::new(10, 3).generate(2);
        let barriers = t.lanes[0]
            .iter()
            .filter(|op| matches!(op, Op::Barrier(_)))
            .count();
        assert_eq!(barriers, 9);
    }

    #[test]
    fn red_black_covers_all_interior_points_per_iteration() {
        let t = Ocean::new(8, 1).generate(1);
        let mut writes = prism_sim::FastSet::default();
        for op in &t.lanes[0] {
            if let Op::Write(va) = op {
                writes.insert(va.0);
            }
        }
        // grid interior 6x6 = 36 points written in grid, plus 36 in grid2.
        assert_eq!(writes.len(), 72);
    }

    #[test]
    fn boundary_rows_are_read_not_written() {
        let t = Ocean::new(8, 1).generate(1);
        for op in &t.lanes[0] {
            if let Op::Write(va) = op {
                let off = va.0 - prism_mem::trace::SHARED_BASE;
                if off < 8 * 8 * 8 {
                    // first grid only
                    let idx = off / 8;
                    let (r, c) = (idx / 8, idx % 8);
                    assert!((1..7).contains(&r) && (1..7).contains(&c));
                }
            }
        }
    }
}
