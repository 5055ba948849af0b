//! Workload traces: per-processor streams of memory and synchronization
//! operations.
//!
//! The reproduction drives the PRISM machine with traces generated by real
//! implementations of the SPLASH-like kernels (see the `prism-workloads`
//! crate). A [`Trace`] declares the shared segments the program attaches
//! (the globalized `shmget`/`shmat` of paper §3.4) and one operation lane
//! per processor.

use std::fmt;

use crate::addr::{Geometry, VirtAddr};

/// Base virtual address at which shared (global) segments are attached.
pub const SHARED_BASE: u64 = 0x0001_0000_0000;

/// Base virtual address of per-processor private regions.
pub const PRIVATE_BASE: u64 = 0x7000_0000_0000;

/// Size of each processor's private region.
pub const PRIVATE_STRIDE: u64 = 0x1000_0000; // 256 MiB

/// The virtual address of byte `offset` in processor `proc`'s private
/// region.
///
/// # Panics
///
/// Panics if `offset` exceeds the private region size.
pub fn private_va(proc: usize, offset: u64) -> VirtAddr {
    assert!(offset < PRIVATE_STRIDE, "private offset out of range");
    VirtAddr(PRIVATE_BASE + proc as u64 * PRIVATE_STRIDE + offset)
}

/// One operation in a processor's trace lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load from a virtual address.
    Read(VirtAddr),
    /// Store to a virtual address.
    Write(VirtAddr),
    /// Execute for the given number of cycles without memory traffic
    /// (models computation between memory references).
    Compute(u32),
    /// Arrive at a barrier; resumes when every processor has arrived.
    Barrier(u32),
    /// Acquire a FIFO lock.
    Lock(u32),
    /// Release a FIFO lock.
    Unlock(u32),
}

/// A shared segment declared by a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentSpec {
    /// Human-readable name (for reports).
    pub name: String,
    /// Page-aligned virtual base address (usually offset from
    /// [`SHARED_BASE`]).
    pub va_base: u64,
    /// Segment length in bytes (rounded up to pages at attach time).
    pub bytes: u64,
}

/// Errors found by [`Trace::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A memory operation touches neither a declared shared segment nor
    /// the lane's own private region.
    StrayAccess {
        /// Lane (processor index).
        lane: usize,
        /// The offending address.
        va: VirtAddr,
    },
    /// Two lanes disagree on the sequence of barrier ids.
    BarrierMismatch {
        /// The lane that disagrees with lane 0.
        lane: usize,
    },
    /// A lane releases a lock it does not hold, or ends holding locks.
    LockImbalance {
        /// Lane (processor index).
        lane: usize,
        /// Lock id involved.
        lock: u32,
    },
    /// Declared shared segments overlap, are misaligned or empty, or run
    /// past the top of the address space.
    BadSegments,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::StrayAccess { lane, va } => {
                write!(
                    f,
                    "lane {lane} accesses {va} outside shared segments and its private region"
                )
            }
            TraceError::BarrierMismatch { lane } => {
                write!(
                    f,
                    "lane {lane} has a different barrier sequence from lane 0"
                )
            }
            TraceError::LockImbalance { lane, lock } => {
                write!(f, "lane {lane} has unbalanced lock {lock}")
            }
            TraceError::BadSegments => write!(
                f,
                "shared segments overlap, are misaligned or empty, or run past the address space"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete workload trace: shared segment declarations plus one
/// operation lane per processor.
///
/// # Example
///
/// ```
/// use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
/// use prism_mem::addr::{Geometry, VirtAddr};
///
/// let trace = Trace {
///     name: "demo".into(),
///     segments: vec![SegmentSpec { name: "data".into(), va_base: SHARED_BASE, bytes: 4096 }],
///     lanes: vec![vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)],
///                 vec![Op::Read(VirtAddr(SHARED_BASE)), Op::Barrier(0)]],
/// };
/// trace.validate(&Geometry::default()).expect("well-formed");
/// assert_eq!(trace.procs(), 2);
/// assert_eq!(trace.total_ops(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Trace {
    /// Workload name (for reports).
    pub name: String,
    /// Shared segments; global segment ids are assigned in order at
    /// machine setup.
    pub segments: Vec<SegmentSpec>,
    /// Per-processor operation streams.
    pub lanes: Vec<Vec<Op>>,
}

impl Trace {
    /// Number of processors the trace was generated for.
    pub fn procs(&self) -> usize {
        self.lanes.len()
    }

    /// Total operations across all lanes.
    pub fn total_ops(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Total memory references (reads + writes) across all lanes.
    pub fn total_refs(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Read(_) | Op::Write(_)))
            .count()
    }

    /// Checks structural well-formedness: every access falls in a shared
    /// segment or the lane's private region, barrier sequences agree
    /// across lanes, lock usage is balanced, and segments are disjoint,
    /// page-aligned, and end (rounded up to pages) below `2^64`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, geom: &Geometry) -> Result<(), TraceError> {
        let whole_machine = 0..self.lanes.len();
        self.validate_grouped(geom, std::slice::from_ref(&whole_machine))
    }

    /// Like [`Trace::validate`], but barrier-sequence agreement is
    /// checked within each lane group independently — the form composed
    /// multi-job traces take (see [`compose_jobs`]).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate_grouped(
        &self,
        geom: &Geometry,
        groups: &[std::ops::Range<usize>],
    ) -> Result<(), TraceError> {
        // Segments: aligned, non-empty, non-overlapping, and ending
        // inside the address space. Each is kept as `(base, end)` with
        // its page-rounded exclusive end computed once, so the
        // per-reference check below does no arithmetic.
        let mut segs: Vec<(u64, u64)> = Vec::with_capacity(self.segments.len());
        for s in &self.segments {
            if geom.page_offset(s.va_base) != 0 || s.bytes == 0 {
                return Err(TraceError::BadSegments);
            }
            let end = s
                .bytes
                .checked_next_multiple_of(geom.page_bytes())
                .and_then(|len| s.va_base.checked_add(len))
                .ok_or(TraceError::BadSegments)?;
            segs.push((s.va_base, end));
        }
        segs.sort_unstable();
        if segs.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err(TraceError::BadSegments);
        }

        let in_shared = |va: VirtAddr| segs.iter().any(|&(b, e)| va.0 >= b && va.0 < e);

        let barrier_seq = |lane: &[Op]| -> Vec<u32> {
            lane.iter()
                .filter_map(|op| match op {
                    Op::Barrier(b) => Some(*b),
                    _ => None,
                })
                .collect()
        };
        // Lane 0 of each group is that group's barrier reference.
        let group_of = |lane_idx: usize| groups.iter().find(|g| g.contains(&lane_idx));

        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            let priv_lo = PRIVATE_BASE + lane_idx as u64 * PRIVATE_STRIDE;
            let priv_hi = priv_lo + PRIVATE_STRIDE;
            let mut held: Vec<u32> = Vec::new();
            for op in lane {
                match *op {
                    Op::Read(va) | Op::Write(va) => {
                        let private = va.0 >= priv_lo && va.0 < priv_hi;
                        if !private && !in_shared(va) {
                            return Err(TraceError::StrayAccess { lane: lane_idx, va });
                        }
                    }
                    Op::Lock(l) => held.push(l),
                    Op::Unlock(l) => match held.iter().rposition(|&h| h == l) {
                        Some(pos) => {
                            held.remove(pos);
                        }
                        None => {
                            return Err(TraceError::LockImbalance {
                                lane: lane_idx,
                                lock: l,
                            })
                        }
                    },
                    Op::Barrier(_) | Op::Compute(_) => {}
                }
            }
            if let Some(&lock) = held.first() {
                return Err(TraceError::LockImbalance {
                    lane: lane_idx,
                    lock,
                });
            }
            if let Some(group) = group_of(lane_idx) {
                if lane_idx > group.start
                    && barrier_seq(lane) != barrier_seq(&self.lanes[group.start])
                {
                    return Err(TraceError::BarrierMismatch { lane: lane_idx });
                }
            }
        }
        Ok(())
    }
}

/// Relocates a trace so it can share a machine with other jobs:
/// shared addresses (and segment bases) shift by `shared_delta`, private
/// regions shift by `lane_offset` lanes, and barrier/lock ids move into
/// the `sync_tag` namespace.
///
/// # Panics
///
/// Panics if a barrier or lock id does not fit below 2^20 (the scoping
/// tag uses the high bits).
pub fn relocate(trace: &Trace, shared_delta: u64, lane_offset: usize, sync_tag: u32) -> Trace {
    let tag = sync_tag << 20;
    let move_va = |va: VirtAddr| {
        if va.0 >= PRIVATE_BASE {
            VirtAddr(va.0 + lane_offset as u64 * PRIVATE_STRIDE)
        } else {
            VirtAddr(va.0 + shared_delta)
        }
    };
    let scope = |id: u32| {
        assert!(id < 1 << 20, "sync id {id} too large to scope");
        tag | id
    };
    Trace {
        name: trace.name.clone(),
        segments: trace
            .segments
            .iter()
            .map(|s| SegmentSpec {
                name: s.name.clone(),
                va_base: s.va_base + shared_delta,
                bytes: s.bytes,
            })
            .collect(),
        lanes: trace
            .lanes
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|op| match *op {
                        Op::Read(va) => Op::Read(move_va(va)),
                        Op::Write(va) => Op::Write(move_va(va)),
                        Op::Compute(c) => Op::Compute(c),
                        Op::Barrier(b) => Op::Barrier(scope(b)),
                        Op::Lock(l) => Op::Lock(scope(l)),
                        Op::Unlock(l) => Op::Unlock(scope(l)),
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Composes independent jobs into one machine-wide trace for space
/// sharing (multiprogramming): job `k`'s lanes occupy a contiguous block
/// of processors, its shared segments are placed after the previous
/// job's, and its synchronization ids are scoped so jobs never interact.
/// Returns the composed trace and each job's lane range (the machine
/// scopes barriers to these groups).
///
/// # Panics
///
/// Panics if any job is structurally invalid for its own lane count.
pub fn compose_jobs(jobs: &[Trace], geom: &Geometry) -> (Trace, Vec<std::ops::Range<usize>>) {
    let mut lanes = Vec::new();
    let mut segments = Vec::new();
    let mut groups = Vec::new();
    let mut shared_cursor = 0u64;
    let mut names = Vec::new();
    for (k, job) in jobs.iter().enumerate() {
        job.validate(geom).expect("job trace is well-formed");
        let relocated = relocate(job, shared_cursor, lanes.len(), k as u32);
        let span: u64 = relocated
            .segments
            .iter()
            .map(|s| s.va_base + s.bytes.next_multiple_of(geom.page_bytes()))
            .max()
            .map(|end| end - SHARED_BASE)
            .unwrap_or(shared_cursor);
        shared_cursor = span.max(shared_cursor);
        groups.push(lanes.len()..lanes.len() + relocated.lanes.len());
        names.push(relocated.name.clone());
        segments.extend(relocated.segments);
        lanes.extend(relocated.lanes);
    }
    (
        Trace {
            name: names.join("+"),
            segments,
            lanes,
        },
        groups,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(base: u64, bytes: u64) -> SegmentSpec {
        SegmentSpec {
            name: "s".into(),
            va_base: base,
            bytes,
        }
    }

    fn geom() -> Geometry {
        Geometry::default()
    }

    #[test]
    fn valid_trace_passes() {
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, 8192)],
            lanes: vec![
                vec![
                    Op::Lock(1),
                    Op::Write(VirtAddr(SHARED_BASE + 100)),
                    Op::Unlock(1),
                    Op::Barrier(0),
                    Op::Read(private_va(0, 64)),
                ],
                vec![Op::Compute(10), Op::Barrier(0), Op::Read(private_va(1, 0))],
            ],
        };
        assert_eq!(t.validate(&geom()), Ok(()));
        assert_eq!(t.total_refs(), 3);
    }

    #[test]
    fn stray_access_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, 4096)],
            lanes: vec![vec![Op::Read(VirtAddr(SHARED_BASE + 5000))]],
        };
        assert!(matches!(
            t.validate(&geom()),
            Err(TraceError::StrayAccess { lane: 0, .. })
        ));
    }

    #[test]
    fn cross_private_access_detected() {
        // Lane 0 touching lane 1's private region is a stray access.
        let t = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: vec![vec![Op::Read(private_va(1, 0))], vec![]],
        };
        assert!(matches!(
            t.validate(&geom()),
            Err(TraceError::StrayAccess { .. })
        ));
    }

    #[test]
    fn barrier_mismatch_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: vec![vec![Op::Barrier(0), Op::Barrier(1)], vec![Op::Barrier(1)]],
        };
        assert_eq!(
            t.validate(&geom()),
            Err(TraceError::BarrierMismatch { lane: 1 })
        );
    }

    #[test]
    fn lock_imbalance_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: vec![vec![Op::Unlock(3)]],
        };
        assert_eq!(
            t.validate(&geom()),
            Err(TraceError::LockImbalance { lane: 0, lock: 3 })
        );
        let t2 = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: vec![vec![Op::Lock(3)]],
        };
        assert_eq!(
            t2.validate(&geom()),
            Err(TraceError::LockImbalance { lane: 0, lock: 3 })
        );
    }

    #[test]
    fn overlapping_segments_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, 8192), seg(SHARED_BASE + 4096, 4096)],
            lanes: vec![],
        };
        assert_eq!(t.validate(&geom()), Err(TraceError::BadSegments));
    }

    #[test]
    fn segment_past_the_address_space_is_rejected() {
        let page = geom().page_bytes();
        let last = u64::MAX - page + 1;
        for segments in [
            // Three pages from the last page.
            vec![seg(last, 3 * page)],
            // Rounded up to pages, this one ends at exactly 2^64.
            vec![seg(last - page, page + 1)],
            // A wrapping end must not let an overlapping neighbour through.
            vec![seg(last - page, 3 * page), seg(last, page - 1)],
            // A length that cannot even round up to a page.
            vec![seg(SHARED_BASE, u64::MAX)],
        ] {
            let t = Trace {
                name: "t".into(),
                segments,
                lanes: vec![vec![Op::Read(VirtAddr(last))]],
            };
            assert_eq!(t.validate(&geom()), Err(TraceError::BadSegments));
        }
        // One page lower it fits, and its rounded-up tail page is shared.
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(last - 2 * page, page + 1)],
            lanes: vec![vec![Op::Read(VirtAddr(last - 1))]],
        };
        assert_eq!(t.validate(&geom()), Ok(()));
    }

    #[test]
    fn private_va_is_per_proc() {
        assert_ne!(private_va(0, 0), private_va(1, 0));
        assert_eq!(private_va(2, 8).0, PRIVATE_BASE + 2 * PRIVATE_STRIDE + 8);
    }

    #[test]
    fn relocate_shifts_all_address_spaces() {
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, 4096)],
            lanes: vec![vec![
                Op::Read(VirtAddr(SHARED_BASE + 8)),
                Op::Read(private_va(0, 64)),
                Op::Barrier(3),
                Op::Lock(7),
                Op::Unlock(7),
            ]],
        };
        let r = relocate(&t, 8192, 2, 1);
        assert_eq!(r.segments[0].va_base, SHARED_BASE + 8192);
        assert_eq!(r.lanes[0][0], Op::Read(VirtAddr(SHARED_BASE + 8192 + 8)));
        assert_eq!(r.lanes[0][1], Op::Read(private_va(2, 64)));
        assert_eq!(r.lanes[0][2], Op::Barrier((1 << 20) | 3));
        assert_eq!(r.lanes[0][3], Op::Lock((1 << 20) | 7));
    }

    #[test]
    fn composed_jobs_validate_as_a_relocated_whole() {
        let job = |p: usize| Trace {
            name: format!("job{p}"),
            segments: vec![seg(SHARED_BASE, 8192)],
            lanes: vec![
                vec![
                    Op::Write(VirtAddr(SHARED_BASE)),
                    Op::Barrier(0),
                    Op::Read(private_va(0, 0)),
                ],
                vec![Op::Barrier(0), Op::Read(VirtAddr(SHARED_BASE + 4096))],
            ],
        };
        let (combined, groups) = compose_jobs(&[job(0), job(1)], &geom());
        assert_eq!(groups, vec![0..2, 2..4]);
        assert_eq!(combined.lanes.len(), 4);
        assert_eq!(combined.segments.len(), 2);
        // Segments are disjoint and the whole thing validates per group.
        combined
            .validate_grouped(&geom(), &groups)
            .expect("composed trace valid");
        // Barrier ids differ between jobs.
        let b0 = combined.lanes[0].iter().find_map(|op| match op {
            Op::Barrier(b) => Some(*b),
            _ => None,
        });
        let b1 = combined.lanes[2].iter().find_map(|op| match op {
            Op::Barrier(b) => Some(*b),
            _ => None,
        });
        assert_ne!(b0, b1);
    }

    #[test]
    fn errors_display() {
        let e = TraceError::StrayAccess {
            lane: 1,
            va: VirtAddr(0x10),
        };
        assert!(e.to_string().contains("lane 1"));
        assert!(TraceError::BadSegments.to_string().contains("segments"));
    }
}
