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

/// Bits of an [`OpLane`] word that carry the op's payload; the three
/// bits above them carry its kind.
const PAYLOAD_BITS: u32 = 29;

const PAYLOAD_MASK: u32 = (1 << PAYLOAD_BITS) - 1;

/// Bits of a read's or write's payload that carry its offset within an
/// address window; the bit above them picks one of the lane's two
/// windows.
const WINDOW_BITS: u32 = 28;

const OFFSET_MASK: u64 = (1 << WINDOW_BITS) - 1;

/// A window slot no address has claimed yet. Window bases have their
/// low [`WINDOW_BITS`] clear, so no address's base equals it.
const NO_WINDOW: u64 = u64::MAX;

/// Bits of a spilled op's 8-byte word that carry its payload (an
/// address or a 32-bit argument); the three bits above them carry its
/// kind.
const WIDE_PAYLOAD_BITS: u32 = 61;

/// One past the largest virtual address an [`OpLane`] can hold (2^61).
/// Every address the workloads generate lies far below it: shared
/// segments start at [`SHARED_BASE`] (2^32), and the private region of
/// processor 65,535 ends below 2^47.
pub const LANE_VA_LIMIT: u64 = 1 << WIDE_PAYLOAD_BITS;

const WIDE_PAYLOAD_MASK: u64 = LANE_VA_LIMIT - 1;

const KIND_READ: u32 = 0;
const KIND_WRITE: u32 = 1;
const KIND_COMPUTE: u32 = 2;
const KIND_BARRIER: u32 = 3;
const KIND_LOCK: u32 = 4;
const KIND_UNLOCK: u32 = 5;
/// The op sits in the lane's side table; the payload is its index.
const KIND_SPILLED: u32 = 7;

/// Packs `op` into one 8-byte side-table word: its kind in the top
/// three bits, its payload in the other 61.
///
/// # Panics
///
/// Panics if a `Read` or `Write` address is at or above
/// [`LANE_VA_LIMIT`].
fn pack_wide(op: Op) -> u64 {
    let addr = |va: VirtAddr| {
        assert!(
            va.0 < LANE_VA_LIMIT,
            "{va} does not fit an op lane (addresses must be below 2^61)"
        );
        va.0
    };
    let (kind, payload) = match op {
        Op::Read(va) => (KIND_READ, addr(va)),
        Op::Write(va) => (KIND_WRITE, addr(va)),
        Op::Compute(c) => (KIND_COMPUTE, c as u64),
        Op::Barrier(b) => (KIND_BARRIER, b as u64),
        Op::Lock(l) => (KIND_LOCK, l as u64),
        Op::Unlock(l) => (KIND_UNLOCK, l as u64),
    };
    ((kind as u64) << WIDE_PAYLOAD_BITS) | payload
}

/// Inverse of [`pack_wide`].
#[cold]
fn unpack_wide(word: u64) -> Op {
    let payload = word & WIDE_PAYLOAD_MASK;
    match (word >> WIDE_PAYLOAD_BITS) as u32 {
        KIND_READ => Op::Read(VirtAddr(payload)),
        KIND_WRITE => Op::Write(VirtAddr(payload)),
        KIND_COMPUTE => Op::Compute(payload as u32),
        KIND_BARRIER => Op::Barrier(payload as u32),
        KIND_LOCK => Op::Lock(payload as u32),
        KIND_UNLOCK => Op::Unlock(payload as u32),
        _ => unreachable!("side tables hold only packed ops"),
    }
}

/// Decodes one lane word against the lane's windows and side table.
#[inline]
fn unpack(word: u32, windows: &[u64; 2], spilled: &[u64]) -> Op {
    let payload = word & PAYLOAD_MASK;
    let addr = || {
        let base = windows[(word >> WINDOW_BITS) as usize & 1];
        VirtAddr(base | (word as u64 & OFFSET_MASK))
    };
    match word >> PAYLOAD_BITS {
        KIND_READ => Op::Read(addr()),
        KIND_WRITE => Op::Write(addr()),
        KIND_COMPUTE => Op::Compute(payload),
        KIND_BARRIER => Op::Barrier(payload),
        KIND_LOCK => Op::Lock(payload),
        KIND_UNLOCK => Op::Unlock(payload),
        _ => unpack_wide(spilled[payload as usize]),
    }
}

/// One processor's operation stream, stored as one 4-byte word per op
/// (an [`Op`] takes 16). A word holds a 3-bit kind and a 29-bit
/// payload:
///
/// - a read or write holds its offset within one of two 2^28-byte
///   address windows, which the lane records the first time an address
///   falls in each (a workload's shared segments take one, the lane's
///   private region the other);
/// - a `Compute`, `Barrier`, `Lock` or `Unlock` below 2^29 holds its
///   value;
/// - any other op (a third window, a larger value) goes to a side table
///   of 8-byte words, and its lane word holds the table index.
///
/// The encoding is a function of the op sequence, so two lanes are
/// equal exactly when they hold the same ops in order. Reads decode on
/// the fly: [`OpLane::get`] returns an [`Op`], and [`OpLane::iter`]
/// yields [`LaneOp`]s, which dereference to one.
///
/// ```
/// use prism_mem::addr::VirtAddr;
/// use prism_mem::trace::{Op, OpLane};
///
/// let lane = OpLane::from(vec![Op::Read(VirtAddr(64)), Op::Barrier(3)]);
/// assert_eq!(lane.get(1), Some(Op::Barrier(3)));
/// assert!(lane.iter().any(|op| matches!(*op, Op::Read(_))));
/// assert_eq!(lane.spilled(), 0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct OpLane {
    /// One word per op: kind in the top three bits, payload below.
    words: Vec<u32>,
    /// The two window bases, in order of first use ([`NO_WINDOW`] while
    /// unclaimed).
    windows: [u64; 2],
    /// The side table: ops no word can hold, packed by [`pack_wide`].
    spilled: Vec<u64>,
}

impl Default for OpLane {
    fn default() -> OpLane {
        OpLane {
            words: Vec::new(),
            windows: [NO_WINDOW; 2],
            spilled: Vec::new(),
        }
    }
}

impl OpLane {
    /// An empty lane.
    pub fn new() -> OpLane {
        OpLane::default()
    }

    /// Appends `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a `Read` or `Write` of an address at or above
    /// [`LANE_VA_LIMIT`].
    #[inline]
    pub fn push(&mut self, op: Op) {
        let (kind, payload) = match op {
            Op::Read(va) => (KIND_READ, self.window_payload(va)),
            Op::Write(va) => (KIND_WRITE, self.window_payload(va)),
            Op::Compute(c) => (KIND_COMPUTE, c),
            Op::Barrier(b) => (KIND_BARRIER, b),
            Op::Lock(l) => (KIND_LOCK, l),
            Op::Unlock(l) => (KIND_UNLOCK, l),
        };
        if payload <= PAYLOAD_MASK {
            self.words.push((kind << PAYLOAD_BITS) | payload);
        } else {
            self.push_cold(op);
        }
    }

    /// `va`'s window bit and offset, or `u32::MAX` (no payload) when
    /// `va` lies in neither window.
    #[inline]
    fn window_payload(&self, va: VirtAddr) -> u32 {
        let base = va.0 & !OFFSET_MASK;
        let offset = (va.0 & OFFSET_MASK) as u32;
        if base == self.windows[0] {
            offset
        } else if base == self.windows[1] {
            (1 << WINDOW_BITS) | offset
        } else {
            u32::MAX
        }
    }

    /// Appends an op whose payload does not fit a word: claims a free
    /// window for a new address, or else spills the op to the side
    /// table.
    #[cold]
    #[inline(never)]
    fn push_cold(&mut self, op: Op) {
        if let Op::Read(va) | Op::Write(va) = op {
            let free = self.windows.iter().position(|&w| w == NO_WINDOW);
            if let (Some(slot), true) = (free, va.0 < LANE_VA_LIMIT) {
                self.windows[slot] = va.0 & !OFFSET_MASK;
                return self.push(op);
            }
        }
        let index = self.spilled.len();
        assert!(
            index <= PAYLOAD_MASK as usize,
            "an op lane spills at most 2^29 ops"
        );
        self.spilled.push(pack_wide(op));
        self.words
            .push((KIND_SPILLED << PAYLOAD_BITS) | index as u32);
    }

    /// The op at `pc`, if the lane is that long.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<Op> {
        let &word = self.words.get(pc)?;
        Some(unpack(word, &self.windows, &self.spilled))
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the lane holds no op.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of ops held in the side table: each costs 8 bytes on top
    /// of its 4-byte word. Zero for every generated workload.
    pub fn spilled(&self) -> usize {
        self.spilled.len()
    }

    /// The ops in order.
    pub fn iter(&self) -> LaneOps<'_> {
        LaneOps {
            words: self.words.iter(),
            windows: self.windows,
            spilled: &self.spilled,
        }
    }

    /// Drops spare capacity, so the lane holds exactly its ops.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.spilled.shrink_to_fit();
    }
}

impl fmt::Debug for OpLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|op| *op)).finish()
    }
}

impl From<Vec<Op>> for OpLane {
    /// Packs every op of `ops`.
    ///
    /// # Panics
    ///
    /// Panics if an op is a `Read` or `Write` of an address at or above
    /// [`LANE_VA_LIMIT`].
    fn from(ops: Vec<Op>) -> OpLane {
        ops.into_iter().collect()
    }
}

impl FromIterator<Op> for OpLane {
    /// # Panics
    ///
    /// Panics as [`OpLane::push`] does.
    fn from_iter<I: IntoIterator<Item = Op>>(ops: I) -> OpLane {
        let ops = ops.into_iter();
        let mut lane = OpLane::new();
        lane.words.reserve(ops.size_hint().0);
        for op in ops {
            lane.push(op);
        }
        lane
    }
}

impl<'a> IntoIterator for &'a OpLane {
    type Item = LaneOp;
    type IntoIter = LaneOps<'a>;

    fn into_iter(self) -> LaneOps<'a> {
        self.iter()
    }
}

/// An op decoded from an [`OpLane`]; dereferences to the [`Op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneOp(Op);

impl std::ops::Deref for LaneOp {
    type Target = Op;

    fn deref(&self) -> &Op {
        &self.0
    }
}

/// Iterator over an [`OpLane`]'s ops (see [`OpLane::iter`]).
#[derive(Clone, Debug)]
pub struct LaneOps<'a> {
    words: std::slice::Iter<'a, u32>,
    windows: [u64; 2],
    spilled: &'a [u64],
}

impl Iterator for LaneOps<'_> {
    type Item = LaneOp;

    #[inline]
    fn next(&mut self) -> Option<LaneOp> {
        let &word = self.words.next()?;
        Some(LaneOp(unpack(word, &self.windows, self.spilled)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
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
    /// A lane acquires a lock it already holds. Locks are not
    /// re-entrant: the second acquire would wait on the lane itself.
    RecursiveLock {
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
            TraceError::RecursiveLock { lane, lock } => {
                write!(f, "lane {lane} acquires lock {lock} while holding it")
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
///     lanes: vec![vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)].into(),
///                 vec![Op::Read(VirtAddr(SHARED_BASE)), Op::Barrier(0)].into()],
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
    pub lanes: Vec<OpLane>,
}

impl Trace {
    /// Number of processors the trace was generated for.
    pub fn procs(&self) -> usize {
        self.lanes.len()
    }

    /// Total operations across all lanes.
    pub fn total_ops(&self) -> usize {
        self.lanes.iter().map(OpLane::len).sum()
    }

    /// Total memory references (reads + writes) across all lanes.
    pub fn total_refs(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter(|op| matches!(**op, Op::Read(_) | Op::Write(_)))
            .count()
    }

    /// Checks structural well-formedness: every access falls in a shared
    /// segment or the lane's private region, barrier sequences agree
    /// across lanes, lock usage is balanced and never re-acquires a held
    /// lock, and segments are disjoint, page-aligned, and end (rounded
    /// up to pages) below `2^64`.
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

        // Lane 0 of each group is that group's barrier reference; its
        // sequence is kept once, when that lane is scanned.
        let group_of = |lane_idx: usize| groups.iter().position(|g| g.contains(&lane_idx));
        let mut first_seqs: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
        let mut barriers: Vec<u32> = Vec::new();
        let mut held: Vec<u32> = Vec::new();

        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            let priv_lo = PRIVATE_BASE + lane_idx as u64 * PRIVATE_STRIDE;
            let priv_hi = priv_lo + PRIVATE_STRIDE;
            barriers.clear();
            held.clear();
            for op in lane {
                match *op {
                    Op::Read(va) | Op::Write(va) => {
                        let private = va.0 >= priv_lo && va.0 < priv_hi;
                        if !private && !in_shared(va) {
                            return Err(TraceError::StrayAccess { lane: lane_idx, va });
                        }
                    }
                    Op::Lock(l) => acquire(&mut held, lane_idx, l)?,
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
                    Op::Barrier(b) => barriers.push(b),
                    Op::Compute(_) => {}
                }
            }
            if let Some(&lock) = held.first() {
                return Err(TraceError::LockImbalance {
                    lane: lane_idx,
                    lock,
                });
            }
            for (g, group) in groups.iter().enumerate() {
                if group.start == lane_idx {
                    first_seqs[g].clone_from(&barriers);
                }
            }
            if let Some(g) = group_of(lane_idx) {
                if lane_idx > groups[g].start && barriers != first_seqs[g] {
                    return Err(TraceError::BarrierMismatch { lane: lane_idx });
                }
            }
        }
        Ok(())
    }
}

/// Records that `lane` takes `lock`, rejecting a lock it already holds.
/// Out of line: inlined, it slowed `Trace::validate`'s per-op loop by
/// about 10% on Ocean, a trace without a single lock.
#[inline(never)]
fn acquire(held: &mut Vec<u32>, lane: usize, lock: u32) -> Result<(), TraceError> {
    if held.contains(&lock) {
        return Err(TraceError::RecursiveLock { lane, lock });
    }
    held.push(lock);
    Ok(())
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

    fn lanes(ops: Vec<Vec<Op>>) -> Vec<OpLane> {
        ops.into_iter().map(OpLane::from).collect()
    }

    #[test]
    fn valid_trace_passes() {
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, 8192)],
            lanes: lanes(vec![
                vec![
                    Op::Lock(1),
                    Op::Write(VirtAddr(SHARED_BASE + 100)),
                    Op::Unlock(1),
                    Op::Barrier(0),
                    Op::Read(private_va(0, 64)),
                ],
                vec![Op::Compute(10), Op::Barrier(0), Op::Read(private_va(1, 0))],
            ]),
        };
        assert_eq!(t.validate(&geom()), Ok(()));
        assert_eq!(t.total_refs(), 3);
    }

    #[test]
    fn stray_access_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, 4096)],
            lanes: lanes(vec![vec![Op::Read(VirtAddr(SHARED_BASE + 5000))]]),
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
            lanes: lanes(vec![vec![Op::Read(private_va(1, 0))], vec![]]),
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
            lanes: lanes(vec![
                vec![Op::Barrier(0), Op::Barrier(1)],
                vec![Op::Barrier(1)],
            ]),
        };
        assert_eq!(
            t.validate(&geom()),
            Err(TraceError::BarrierMismatch { lane: 1 })
        );
    }

    #[test]
    fn barrier_sequences_are_checked_per_group() {
        let a = || OpLane::from(vec![Op::Barrier(0), Op::Barrier(1)]);
        let b = || OpLane::from(vec![Op::Barrier(7)]);
        let mut t = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: vec![a(), a(), a(), b(), b(), b(), b()],
        };
        let groups = [0..3, 3..7];
        assert_eq!(t.validate_grouped(&geom(), &groups), Ok(()));
        // As one group, lane 3 is the first to deviate from lane 0.
        assert_eq!(
            t.validate(&geom()),
            Err(TraceError::BarrierMismatch { lane: 3 })
        );
        for k in 4..7 {
            let mut bad = t.clone();
            bad.lanes[k] = vec![Op::Barrier(7), Op::Barrier(7)].into();
            assert_eq!(
                bad.validate_grouped(&geom(), &groups),
                Err(TraceError::BarrierMismatch { lane: k })
            );
        }
        // The second group's reference is its own first lane.
        t.lanes[3] = a();
        assert_eq!(
            t.validate_grouped(&geom(), &groups),
            Err(TraceError::BarrierMismatch { lane: 4 })
        );
    }

    #[test]
    fn lock_imbalance_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: lanes(vec![vec![Op::Unlock(3)]]),
        };
        assert_eq!(
            t.validate(&geom()),
            Err(TraceError::LockImbalance { lane: 0, lock: 3 })
        );
        let t2 = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: lanes(vec![vec![Op::Lock(3)]]),
        };
        assert_eq!(
            t2.validate(&geom()),
            Err(TraceError::LockImbalance { lane: 0, lock: 3 })
        );
    }

    #[test]
    fn recursive_lock_detected() {
        let t = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: lanes(vec![
                vec![Op::Lock(1), Op::Unlock(1)],
                vec![
                    Op::Lock(3),
                    Op::Lock(3),
                    Op::Read(VirtAddr(PRIVATE_BASE + PRIVATE_STRIDE)),
                    Op::Unlock(3),
                    Op::Unlock(3),
                ],
            ]),
        };
        let err = t.validate(&geom()).unwrap_err();
        assert_eq!(err, TraceError::RecursiveLock { lane: 1, lock: 3 });
        assert_eq!(err.to_string(), "lane 1 acquires lock 3 while holding it");
        // Nesting distinct locks, and re-taking a released one, are fine.
        let ok = Trace {
            name: "t".into(),
            segments: vec![],
            lanes: lanes(vec![vec![
                Op::Lock(3),
                Op::Lock(4),
                Op::Unlock(3),
                Op::Unlock(4),
                Op::Lock(3),
                Op::Unlock(3),
            ]]),
        };
        assert_eq!(ok.validate(&geom()), Ok(()));
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
                lanes: vec![OpLane::new()],
            };
            assert_eq!(t.validate(&geom()), Err(TraceError::BadSegments));
        }
        // One page lower it fits. (An op lane cannot hold an address
        // this high, so the lane stays empty.)
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(last - 2 * page, page + 1)],
            lanes: vec![OpLane::new()],
        };
        assert_eq!(t.validate(&geom()), Ok(()));
        // A segment's rounded-up tail page is shared.
        let t = Trace {
            name: "t".into(),
            segments: vec![seg(SHARED_BASE, page + 1)],
            lanes: lanes(vec![vec![Op::Read(VirtAddr(SHARED_BASE + 2 * page - 1))]]),
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
            lanes: lanes(vec![vec![
                Op::Read(VirtAddr(SHARED_BASE + 8)),
                Op::Read(private_va(0, 64)),
                Op::Barrier(3),
                Op::Lock(7),
                Op::Unlock(7),
            ]]),
        };
        let r = relocate(&t, 8192, 2, 1);
        assert_eq!(r.segments[0].va_base, SHARED_BASE + 8192);
        let op = |pc| r.lanes[0].get(pc).unwrap();
        assert_eq!(op(0), Op::Read(VirtAddr(SHARED_BASE + 8192 + 8)));
        assert_eq!(op(1), Op::Read(private_va(2, 64)));
        assert_eq!(op(2), Op::Barrier((1 << 20) | 3));
        assert_eq!(op(3), Op::Lock((1 << 20) | 7));
    }

    #[test]
    fn composed_jobs_validate_as_a_relocated_whole() {
        let job = |p: usize| Trace {
            name: format!("job{p}"),
            segments: vec![seg(SHARED_BASE, 8192)],
            lanes: lanes(vec![
                vec![
                    Op::Write(VirtAddr(SHARED_BASE)),
                    Op::Barrier(0),
                    Op::Read(private_va(0, 0)),
                ],
                vec![Op::Barrier(0), Op::Read(VirtAddr(SHARED_BASE + 4096))],
            ]),
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
        let b0 = combined.lanes[0].iter().find_map(|op| match *op {
            Op::Barrier(b) => Some(b),
            _ => None,
        });
        let b1 = combined.lanes[2].iter().find_map(|op| match *op {
            Op::Barrier(b) => Some(b),
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

    fn every_kind_of_op() -> Vec<Op> {
        let top = VirtAddr(LANE_VA_LIMIT - 1);
        vec![
            Op::Read(VirtAddr(0)),
            Op::Read(top),
            Op::Write(VirtAddr(SHARED_BASE + 64)),
            Op::Write(top),
            Op::Compute(0),
            Op::Compute(u32::MAX),
            Op::Barrier(0),
            Op::Barrier(u32::MAX),
            Op::Lock(1),
            Op::Lock(u32::MAX),
            Op::Unlock(1),
            Op::Unlock(u32::MAX),
        ]
    }

    #[test]
    fn op_lane_round_trips_every_op() {
        let ops = every_kind_of_op();
        let lane = OpLane::from(ops.clone());
        assert_eq!(lane.len(), ops.len());
        assert!(!lane.is_empty());
        for (pc, &op) in ops.iter().enumerate() {
            assert_eq!(lane.get(pc), Some(op));
        }
        assert_eq!(lane.get(ops.len()), None);
        assert_eq!(lane.iter().map(|op| *op).collect::<Vec<_>>(), ops);
        let mut pushed = OpLane::new();
        for &op in &ops {
            pushed.push(op);
        }
        assert_eq!(pushed, lane);
        assert_eq!(format!("{lane:?}"), format!("{ops:?}"));
    }

    #[test]
    fn an_in_window_op_costs_four_bytes() {
        // Shared and private addresses fill the two windows, and every
        // value fits a word: nothing spills.
        let ops = vec![
            Op::Read(VirtAddr(SHARED_BASE)),
            Op::Write(VirtAddr(SHARED_BASE + PRIVATE_STRIDE - 1)),
            Op::Read(private_va(3, 0)),
            Op::Write(private_va(3, PRIVATE_STRIDE - 1)),
            Op::Compute(0),
            Op::Compute((1 << 29) - 1),
            Op::Barrier((1 << 29) - 1),
            Op::Lock(1),
            Op::Unlock(1),
        ];
        let mut lane = OpLane::from(ops.clone());
        lane.shrink_to_fit();
        assert_eq!(lane.spilled(), 0);
        assert_eq!(lane.spilled.capacity(), 0);
        assert_eq!(
            lane.words.capacity() * std::mem::size_of_val(&lane.words[0]),
            4 * ops.len()
        );
        assert_eq!(lane.iter().map(|op| *op).collect::<Vec<_>>(), ops);
        assert_eq!(std::mem::size_of::<Op>(), 16);
        // A third window's address and the four `u32::MAX` values take
        // the side table.
        let every = OpLane::from(every_kind_of_op());
        assert_eq!(every.spilled(), 5);
    }

    #[test]
    #[should_panic(expected = "does not fit an op lane")]
    fn op_lane_rejects_an_address_at_2_pow_61() {
        OpLane::new().push(Op::Write(VirtAddr(LANE_VA_LIMIT)));
    }

    #[test]
    #[should_panic(expected = "does not fit an op lane")]
    fn op_lane_from_vec_rejects_an_address_at_2_pow_61() {
        let _ = OpLane::from(vec![Op::Compute(1), Op::Read(VirtAddr(LANE_VA_LIMIT))]);
    }
}
