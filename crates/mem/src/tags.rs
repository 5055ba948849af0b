//! Fine-grain access tags for S-COMA page frames (paper §3.2).
//!
//! The coherence controller maintains a two-bit tag for each cache line of
//! every S-COMA-mode frame. The tag decides what happens when a physical
//! address in the frame appears on the memory bus:
//!
//! * `T` (Transit) — a protocol action is in flight; retry.
//! * `E` (Exclusive) — the node holds the only copy; local bus prevails.
//! * `S` (Shared) — other nodes may hold copies; writes must upgrade.
//! * `I` (Invalid) — the local page-cache copy is stale; fetch from home.

use std::fmt;

use crate::addr::LineIdx;

/// The 2-bit per-line state kept for S-COMA frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LineTag {
    /// A coherence action for the line is in transit; bus accesses retry.
    Transit,
    /// This node holds the only copy of the line.
    Exclusive,
    /// Other nodes may hold copies; local writes require an upgrade.
    Shared,
    /// The local copy is invalid; accesses fetch data from the home node.
    #[default]
    Invalid,
}

impl fmt::Display for LineTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            LineTag::Transit => 'T',
            LineTag::Exclusive => 'E',
            LineTag::Shared => 'S',
            LineTag::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// Per-frame fine-grain tag storage for one node's real frames.
///
/// The frame table is filled on demand up to the highest frame allocated
/// so far (frames come low-first from the free list).
///
/// # Example
///
/// ```
/// use prism_mem::tags::{TagArray, LineTag};
/// use prism_mem::addr::{FrameNo, LineIdx};
///
/// let mut tags = TagArray::new(16, 64);
/// tags.allocate(FrameNo(3), LineTag::Invalid);
/// tags.set(FrameNo(3), LineIdx(0), LineTag::Exclusive);
/// assert_eq!(tags.get(FrameNo(3), LineIdx(0)), LineTag::Exclusive);
/// assert_eq!(tags.count(FrameNo(3), LineTag::Invalid), 63);
/// ```
#[derive(Clone, Debug)]
pub struct TagArray {
    lines_per_page: usize,
    real_frames: usize,
    frames: Vec<Option<Box<[LineTag]>>>,
}

use crate::addr::FrameNo;

impl TagArray {
    /// Creates tag storage for `real_frames` frames of
    /// `lines_per_page` lines each. No frame starts with tags allocated.
    pub fn new(real_frames: usize, lines_per_page: usize) -> TagArray {
        assert!(lines_per_page > 0, "lines_per_page must be positive");
        TagArray {
            lines_per_page,
            real_frames,
            // Reserved but untouched, so not resident until frames bind.
            frames: Vec::with_capacity(real_frames),
        }
    }

    /// Lines per page this array was created for.
    pub fn lines_per_page(&self) -> usize {
        self.lines_per_page
    }

    /// Allocates tags for a frame, initializing every line to `init`.
    ///
    /// # Panics
    ///
    /// Panics if the frame already has tags or is out of range.
    pub fn allocate(&mut self, frame: FrameNo, init: LineTag) {
        let i = self.index(frame);
        if i >= self.frames.len() {
            self.frames.resize(i + 1, None);
        }
        let slot = &mut self.frames[i];
        assert!(slot.is_none(), "tags already allocated for {frame}");
        *slot = Some(vec![init; self.lines_per_page].into_boxed_slice());
    }

    /// Frees a frame's tags. Returns whether tags were present.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range.
    pub fn deallocate(&mut self, frame: FrameNo) -> bool {
        let i = self.index(frame);
        self.frames.get_mut(i).and_then(Option::take).is_some()
    }

    /// The frame's slot index, checked against the node's memory.
    fn index(&self, frame: FrameNo) -> usize {
        let i = frame.real_index();
        assert!(i < self.real_frames, "{frame} is beyond the node's memory");
        i
    }

    /// True when the frame currently has tags (i.e. is an S-COMA frame).
    pub fn is_allocated(&self, frame: FrameNo) -> bool {
        self.frames
            .get(frame.0 as usize)
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    fn tags(&self, frame: FrameNo) -> &[LineTag] {
        self.frames
            .get(frame.real_index())
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("no tags allocated for {frame}"))
    }

    fn tags_mut(&mut self, frame: FrameNo) -> &mut [LineTag] {
        self.frames
            .get_mut(frame.real_index())
            .and_then(Option::as_deref_mut)
            .unwrap_or_else(|| panic!("no tags allocated for {frame}"))
    }

    /// Reads the tag of one line.
    ///
    /// # Panics
    ///
    /// Panics if the frame has no tags or the line is out of range.
    pub fn get(&self, frame: FrameNo, line: LineIdx) -> LineTag {
        self.tags(frame)[line.0 as usize]
    }

    /// Writes the tag of one line.
    ///
    /// # Panics
    ///
    /// Panics if the frame has no tags or the line is out of range.
    pub fn set(&mut self, frame: FrameNo, line: LineIdx, tag: LineTag) {
        self.tags_mut(frame)[line.0 as usize] = tag;
    }

    /// Sets every line of the frame to `tag`.
    pub fn fill(&mut self, frame: FrameNo, tag: LineTag) {
        self.tags_mut(frame).fill(tag);
    }

    /// Counts lines of the frame in state `tag`.
    pub fn count(&self, frame: FrameNo, tag: LineTag) -> usize {
        self.tags(frame).iter().filter(|&&t| t == tag).count()
    }

    /// True when any line of the frame is in Transit.
    pub fn has_transit(&self, frame: FrameNo) -> bool {
        self.tags(frame).contains(&LineTag::Transit)
    }

    /// Iterates the lines of a frame as `(LineIdx, LineTag)`.
    pub fn iter_frame(&self, frame: FrameNo) -> impl Iterator<Item = (LineIdx, LineTag)> + '_ {
        self.tags(frame)
            .iter()
            .enumerate()
            .map(|(i, &t)| (LineIdx(i as u16), t))
    }

    /// Number of frames with tags allocated.
    pub fn allocated_frames(&self) -> usize {
        self.frames.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_set_get() {
        let mut t = TagArray::new(4, 8);
        t.allocate(FrameNo(1), LineTag::Invalid);
        assert!(t.is_allocated(FrameNo(1)));
        assert!(!t.is_allocated(FrameNo(0)));
        t.set(FrameNo(1), LineIdx(3), LineTag::Shared);
        assert_eq!(t.get(FrameNo(1), LineIdx(3)), LineTag::Shared);
        assert_eq!(t.get(FrameNo(1), LineIdx(0)), LineTag::Invalid);
    }

    #[test]
    fn counts_and_transit() {
        let mut t = TagArray::new(2, 4);
        t.allocate(FrameNo(0), LineTag::Exclusive);
        assert_eq!(t.count(FrameNo(0), LineTag::Exclusive), 4);
        t.set(FrameNo(0), LineIdx(2), LineTag::Transit);
        assert!(t.has_transit(FrameNo(0)));
        assert_eq!(t.count(FrameNo(0), LineTag::Exclusive), 3);
        t.fill(FrameNo(0), LineTag::Invalid);
        assert!(!t.has_transit(FrameNo(0)));
        assert_eq!(t.count(FrameNo(0), LineTag::Invalid), 4);
    }

    #[test]
    fn deallocate_frees() {
        let mut t = TagArray::new(2, 4);
        t.allocate(FrameNo(0), LineTag::Invalid);
        assert_eq!(t.allocated_frames(), 1);
        assert!(t.deallocate(FrameNo(0)));
        assert!(!t.deallocate(FrameNo(0)));
        assert_eq!(t.allocated_frames(), 0);
        // Frame can be reused after deallocation.
        t.allocate(FrameNo(0), LineTag::Exclusive);
        assert_eq!(t.get(FrameNo(0), LineIdx(0)), LineTag::Exclusive);
    }

    #[test]
    fn iter_frame_yields_all_lines() {
        let mut t = TagArray::new(1, 3);
        t.allocate(FrameNo(0), LineTag::Invalid);
        t.set(FrameNo(0), LineIdx(1), LineTag::Exclusive);
        let v: Vec<_> = t.iter_frame(FrameNo(0)).collect();
        assert_eq!(
            v,
            vec![
                (LineIdx(0), LineTag::Invalid),
                (LineIdx(1), LineTag::Exclusive),
                (LineIdx(2), LineTag::Invalid),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocate_panics() {
        let mut t = TagArray::new(1, 2);
        t.allocate(FrameNo(0), LineTag::Invalid);
        t.allocate(FrameNo(0), LineTag::Invalid);
    }

    #[test]
    #[should_panic(expected = "no tags allocated")]
    fn get_without_allocate_panics() {
        TagArray::new(1, 2).get(FrameNo(0), LineIdx(0));
    }

    #[test]
    #[should_panic(expected = "beyond the node's memory")]
    fn allocating_a_frame_beyond_memory_panics() {
        TagArray::new(4, 2).allocate(FrameNo(4), LineTag::Invalid);
    }

    #[test]
    #[should_panic(expected = "beyond the node's memory")]
    fn deallocating_a_frame_beyond_memory_panics() {
        TagArray::new(4, 2).deallocate(FrameNo(4));
    }

    #[test]
    fn untouched_frames_read_as_unallocated() {
        let mut t = TagArray::new(64, 4);
        assert!(!t.is_allocated(FrameNo(63)));
        assert!(!t.deallocate(FrameNo(63)));
        t.allocate(FrameNo(5), LineTag::Shared);
        assert!(!t.is_allocated(FrameNo(6)));
        assert!(!t.is_allocated(FrameNo(63)));
        assert!(!t.deallocate(FrameNo(40)));
        assert_eq!(t.count(FrameNo(5), LineTag::Shared), 4);
        t.allocate(FrameNo(63), LineTag::Invalid);
        t.allocate(FrameNo(0), LineTag::Exclusive);
        assert_eq!(t.allocated_frames(), 3);
        assert_eq!(t.count(FrameNo(63), LineTag::Invalid), 4);
        assert_eq!(t.count(FrameNo(0), LineTag::Exclusive), 4);
    }

    #[test]
    #[should_panic(expected = "no tags allocated")]
    fn counting_an_untouched_frame_panics() {
        TagArray::new(64, 2).count(FrameNo(40), LineTag::Invalid);
    }

    #[test]
    fn display_tags() {
        assert_eq!(LineTag::Transit.to_string(), "T");
        assert_eq!(LineTag::Exclusive.to_string(), "E");
        assert_eq!(LineTag::Shared.to_string(), "S");
        assert_eq!(LineTag::Invalid.to_string(), "I");
        assert_eq!(LineTag::default(), LineTag::Invalid);
    }
}
