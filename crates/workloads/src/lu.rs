//! LU: blocked dense LU decomposition (paper Table 2: "Blocked LU
//! decomposition, 512×512 matrix, 16×16 blocks").
//!
//! The SPLASH-2 kernel: for each step k, the owner of the diagonal block
//! factors it; owners of the perimeter blocks update them against the
//! diagonal; owners of interior blocks update them against their
//! perimeter pair. Blocks are assigned to processors in a 2-D scatter.

use prism_mem::trace::Trace;

use crate::common::{finish_trace, BarrierIds, Lane, Layout, SharedArray, Workload};

/// The blocked-LU workload.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Matrix dimension (multiple of `block`).
    pub n: u64,
    /// Block dimension.
    pub block: u64,
    /// SPLASH-2 ships two LU variants: the non-contiguous one stores the
    /// matrix row-major (a block spans many pages — poor page locality),
    /// the contiguous one allocates each block contiguously (a block
    /// spans few pages). The paper's Table 3 utilization is consistent
    /// with the non-contiguous variant, our default.
    pub contiguous: bool,
}

impl Lu {
    /// An `n`×`n` LU with `block`×`block` blocks (non-contiguous
    /// blocks, the SPLASH-2 default).
    ///
    /// # Panics
    ///
    /// Panics unless `block` divides `n`.
    pub fn new(n: u64, block: u64) -> Lu {
        assert!(block > 0 && n.is_multiple_of(block), "block must divide n");
        Lu {
            n,
            block,
            contiguous: false,
        }
    }

    /// The contiguous-blocks variant (each block occupies a contiguous
    /// address range, SPLASH-2's `LU-contig`).
    ///
    /// # Panics
    ///
    /// Panics unless `block` divides `n`.
    pub fn with_contiguous_blocks(n: u64, block: u64) -> Lu {
        assert!(block > 0 && n.is_multiple_of(block), "block must divide n");
        Lu {
            n,
            block,
            contiguous: true,
        }
    }

    /// Address index of element (row `r`, col `c`) of block (`bi`,`bj`).
    fn elem(&self, bi: u64, bj: u64, r: u64, c: u64) -> u64 {
        let b = self.block;
        if self.contiguous {
            let nb = self.n / b;
            (bi * nb + bj) * b * b + r * b + c
        } else {
            (bi * b + r) * self.n + bj * b + c
        }
    }

    fn owner(&self, bi: u64, bj: u64, procs: usize) -> usize {
        // 2-D scatter decomposition, as in SPLASH-2.
        let side = (procs as f64).sqrt() as u64;
        let (pr, pc) = if side * side == procs as u64 {
            (side, side)
        } else {
            (1, procs as u64)
        };
        ((bi % pr) * pc + (bj % pc)) as usize
    }
}

/// Emits the element references for reading a whole block (one read per
/// element with unit compute).
fn read_block(lu: &Lu, lane: &mut Lane, a: &SharedArray, bi: u64, bj: u64) {
    for r in 0..lu.block {
        for c in 0..lu.block {
            lane.read(a.at(lu.elem(bi, bj, r, c))).compute(1);
        }
    }
}

/// Emits an in-place block update: read + write each element.
fn update_block(lu: &Lu, lane: &mut Lane, a: &SharedArray, bi: u64, bj: u64, flops: u64) {
    for r in 0..lu.block {
        for c in 0..lu.block {
            let idx = lu.elem(bi, bj, r, c);
            lane.read(a.at(idx)).compute(flops).write(a.at(idx));
        }
    }
}

impl Workload for Lu {
    fn name(&self) -> String {
        "LU".into()
    }

    fn description(&self) -> String {
        format!(
            "Blocked LU decomposition, {n}x{n} matrix, {b}x{b} blocks",
            n = self.n,
            b = self.block
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let n = self.n;
        let b = self.block;
        let nb = n / b;
        let mut layout = Layout::new();
        let a = layout.array("lu-matrix", n * n, 8);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();
        let sync_all = |lanes: &mut Vec<Lane>, barriers: &mut BarrierIds| {
            let id = barriers.fresh();
            for lane in lanes.iter_mut() {
                lane.barrier(id);
            }
        };

        for k in 0..nb {
            // 1. Factor the diagonal block A[k][k].
            let owner = self.owner(k, k, procs);
            update_block(self, &mut lanes[owner], &a, k, k, 2);
            sync_all(&mut lanes, &mut barriers);

            // 2. Perimeter: row blocks A[k][j] and column blocks A[i][k]
            //    read the diagonal and update in place.
            for j in k + 1..nb {
                let o = self.owner(k, j, procs);
                read_block(self, &mut lanes[o], &a, k, k);
                update_block(self, &mut lanes[o], &a, k, j, 2);
            }
            for i in k + 1..nb {
                let o = self.owner(i, k, procs);
                read_block(self, &mut lanes[o], &a, k, k);
                update_block(self, &mut lanes[o], &a, i, k, 2);
            }
            sync_all(&mut lanes, &mut barriers);

            // 3. Interior: A[i][j] -= A[i][k] * A[k][j].
            for i in k + 1..nb {
                for j in k + 1..nb {
                    let o = self.owner(i, j, procs);
                    read_block(self, &mut lanes[o], &a, i, k);
                    read_block(self, &mut lanes[o], &a, k, j);
                    update_block(self, &mut lanes[o], &a, i, j, 2);
                }
            }
            sync_all(&mut lanes, &mut barriers);
        }
        finish_trace("LU", layout, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::Op;

    #[test]
    fn trace_validates_and_scales() {
        let t = Lu::new(32, 8).generate(4);
        assert_eq!(t.lanes.len(), 4);
        assert!(t.total_refs() > 0);
    }

    #[test]
    fn barrier_count_is_three_per_step() {
        let t = Lu::new(32, 8).generate(2);
        let barriers = t.lanes[0]
            .iter()
            .filter(|op| matches!(op, Op::Barrier(_)))
            .count();
        assert_eq!(barriers, 3 * 4, "3 barriers per step, nb=4 steps");
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        let lu = Lu::new(64, 16);
        for procs in [1, 4, 16, 32] {
            for bi in 0..4 {
                for bj in 0..4 {
                    let o = lu.owner(bi, bj, procs);
                    assert!(o < procs);
                    assert_eq!(o, lu.owner(bi, bj, procs));
                }
            }
        }
    }

    #[test]
    fn work_grows_with_matrix_size() {
        let small = Lu::new(16, 8).generate(1).total_refs();
        let large = Lu::new(32, 8).generate(1).total_refs();
        assert!(large > small * 3, "O(n^3) growth: {small} -> {large}");
    }

    #[test]
    #[should_panic(expected = "block must divide")]
    fn bad_block_rejected() {
        Lu::new(100, 16);
    }

    #[test]
    fn contiguous_blocks_touch_fewer_pages_per_block() {
        // The diagonal-block factorization in the contiguous variant
        // stays within ceil(B²·8/4096) pages; the row-major variant
        // spreads a 16×16 block over 16 rows ⇒ many pages.
        let count_pages = |lu: &Lu| {
            let t = lu.generate(1);
            let mut pages = prism_sim::FastSet::default();
            for op in t.lanes[0].iter().take(2 * 16 * 16) {
                if let Op::Read(va) | Op::Write(va) = op {
                    pages.insert(va.0 >> 12);
                }
            }
            pages.len()
        };
        let noncontig = count_pages(&Lu::new(128, 16));
        let contig = count_pages(&Lu::with_contiguous_blocks(128, 16));
        assert!(
            contig < noncontig,
            "contiguous {contig} pages vs non-contiguous {noncontig}"
        );
        assert!(contig <= 2, "a 2 KiB block spans at most 2 pages");
    }

    #[test]
    fn both_variants_address_every_element_once_per_sweep() {
        for lu in [Lu::new(32, 8), Lu::with_contiguous_blocks(32, 8)] {
            let mut seen = prism_sim::FastSet::default();
            for bi in 0..4 {
                for bj in 0..4 {
                    for r in 0..8 {
                        for c in 0..8 {
                            assert!(seen.insert(lu.elem(bi, bj, r, c)), "alias in {lu:?}");
                        }
                    }
                }
            }
            assert_eq!(seen.len(), 32 * 32);
            assert!(seen.iter().all(|&i| i < 32 * 32));
        }
    }
}
