//! Run-time page-mode policies (paper §4.2).
//!
//! When a client node faults on a shared page, the kernel chooses between
//! an S-COMA frame (local page-cache backing) and an LA-NUMA frame
//! (imaginary, remote-backed). The six configurations evaluated in the
//! paper reduce to one of these policies plus a page-cache capacity:
//!
//! | Paper config | Policy | Capacity |
//! |--------------|--------|----------|
//! | `SCOMA`      | [`PagePolicy::Scoma`]   | unlimited |
//! | `SCOMA-70`   | [`PagePolicy::Scoma`]   | 70% of SCOMA's client frames |
//! | `LANUMA`     | [`PagePolicy::Lanuma`]  | — |
//! | `Dyn-FCFS`   | [`PagePolicy::DynFcfs`] | as SCOMA-70 |
//! | `Dyn-Util`   | [`PagePolicy::DynUtil`] | as SCOMA-70 |
//! | `Dyn-LRU`    | [`PagePolicy::DynLru`]  | as SCOMA-70 |

use prism_mem::addr::{FrameNo, GlobalPage};
use prism_mem::mode::FrameMode;

use crate::page_cache::PageCache;

/// The client-side page-mode policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Always allocate S-COMA client frames; when the page cache is full,
    /// page out the least-recently-used client page (it stays S-COMA and
    /// will fault back into an S-COMA frame).
    #[default]
    Scoma,
    /// Always allocate LA-NUMA frames at client nodes (CC-NUMA-like).
    Lanuma,
    /// First-come-first-served: S-COMA while the page cache has space,
    /// LA-NUMA afterwards. Implemented purely in the OS; never pages out.
    DynFcfs,
    /// When full, convert the resident client page whose frame has the
    /// most `Invalid` fine-grain tags to LA-NUMA mode (skipping frames
    /// with `Transit` lines) and reuse its frame. Requires controller
    /// support to read tag populations.
    DynUtil,
    /// When full, page out the LRU client page *and* convert it to
    /// LA-NUMA mode so future faults on it use LA-NUMA frames.
    DynLru,
    /// The two-directional policy the paper names as future work (§4.3:
    /// "we can combine the algorithms to implement an adaptive
    /// configuration that switches modes in both directions"), using
    /// Reactive-NUMA's refetch counting: behaves like [`PagePolicy::DynLru`]
    /// on page-cache overflow, and converts an LA-NUMA page *back* to
    /// S-COMA once its remote refetches exceed a threshold (a reuse page
    /// was mis-converted).
    DynBoth,
}

impl PagePolicy {
    /// True for the adaptive policies that blend page modes at run time.
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            PagePolicy::DynFcfs | PagePolicy::DynUtil | PagePolicy::DynLru | PagePolicy::DynBoth
        )
    }

    /// True for the two-directional policy that also converts LA-NUMA
    /// pages back to S-COMA on heavy reuse.
    pub fn reconverts(&self) -> bool {
        matches!(self, PagePolicy::DynBoth)
    }
}

/// Controller state a policy may consult (paper: Dyn-Util "queries the
/// local coherence controller").
pub trait ControllerQuery {
    /// Number of `Invalid` fine-grain tags in an S-COMA frame.
    fn invalid_count(&self, frame: FrameNo) -> usize;
    /// Whether any line of the frame is in `Transit`.
    fn has_transit(&self, frame: FrameNo) -> bool;
}

/// A victim the policy wants removed before the new page is mapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictDecision {
    /// The client page to page out.
    pub gpage: GlobalPage,
    /// Whether the victim's mode preference becomes LA-NUMA so its next
    /// fault allocates an imaginary frame.
    pub convert_to_lanuma: bool,
}

/// The policy's answer for one client page fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientModeDecision {
    /// Frame mode for the faulting page.
    pub mode: FrameMode,
    /// Optional victim to evict first (frees the frame the new page uses).
    pub evict: Option<EvictDecision>,
}

/// Decides the frame mode for a faulting client page.
///
/// The caller has already honored any per-page LA-NUMA preference set by
/// earlier conversions; this function only runs for pages that would
/// *like* an S-COMA frame.
pub fn decide_client_mode(
    policy: PagePolicy,
    page_cache: &PageCache,
    query: &dyn ControllerQuery,
) -> ClientModeDecision {
    let scoma = ClientModeDecision {
        mode: FrameMode::Scoma,
        evict: None,
    };
    let lanuma = ClientModeDecision {
        mode: FrameMode::LaNuma,
        evict: None,
    };
    match policy {
        PagePolicy::Lanuma => lanuma,
        PagePolicy::Scoma => {
            if !page_cache.is_full() {
                return scoma;
            }
            match page_cache.lru_victim() {
                Some(victim) => ClientModeDecision {
                    mode: FrameMode::Scoma,
                    evict: Some(EvictDecision {
                        gpage: victim,
                        convert_to_lanuma: false,
                    }),
                },
                // Capacity zero: nothing to evict, fall back to LA-NUMA.
                None => lanuma,
            }
        }
        PagePolicy::DynFcfs => {
            if page_cache.is_full() {
                lanuma
            } else {
                scoma
            }
        }
        PagePolicy::DynUtil => {
            if !page_cache.is_full() {
                return scoma;
            }
            // Most-Invalid client frame, skipping Transit frames;
            // deterministic tie-break on the page name.
            let victim = page_cache
                .iter()
                .filter(|(_, cp)| !query.has_transit(cp.frame))
                .map(|(gp, cp)| (query.invalid_count(cp.frame), gp))
                .max_by_key(|&(count, gp)| (count, std::cmp::Reverse((gp.gsid.0, gp.page))));
            match victim {
                Some((_, gpage)) => ClientModeDecision {
                    mode: FrameMode::Scoma,
                    evict: Some(EvictDecision {
                        gpage,
                        convert_to_lanuma: true,
                    }),
                },
                None => lanuma,
            }
        }
        PagePolicy::DynLru | PagePolicy::DynBoth => {
            if !page_cache.is_full() {
                return scoma;
            }
            match page_cache.lru_victim() {
                Some(victim) => ClientModeDecision {
                    mode: FrameMode::Scoma,
                    evict: Some(EvictDecision {
                        gpage: victim,
                        convert_to_lanuma: true,
                    }),
                },
                None => lanuma,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::addr::Gsid;
    use prism_sim::FastMap;

    struct StubQuery {
        invalid: FastMap<FrameNo, usize>,
        transit: Vec<FrameNo>,
    }

    impl ControllerQuery for StubQuery {
        fn invalid_count(&self, frame: FrameNo) -> usize {
            *self.invalid.get(&frame).unwrap_or(&0)
        }
        fn has_transit(&self, frame: FrameNo) -> bool {
            self.transit.contains(&frame)
        }
    }

    fn g(p: u32) -> GlobalPage {
        GlobalPage::new(Gsid(0), p)
    }

    fn full_cache() -> PageCache {
        let mut pc = PageCache::new(Some(2));
        pc.insert(g(0), FrameNo(10), 0);
        pc.insert(g(1), FrameNo(11), 1);
        pc
    }

    fn empty_query() -> StubQuery {
        StubQuery {
            invalid: FastMap::default(),
            transit: Vec::new(),
        }
    }

    #[test]
    fn lanuma_always_imaginary() {
        let pc = PageCache::new(None);
        let d = decide_client_mode(PagePolicy::Lanuma, &pc, &empty_query());
        assert_eq!(d.mode, FrameMode::LaNuma);
        assert!(d.evict.is_none());
    }

    #[test]
    fn scoma_with_space_takes_scoma() {
        let pc = PageCache::new(Some(2));
        for policy in [
            PagePolicy::Scoma,
            PagePolicy::DynFcfs,
            PagePolicy::DynUtil,
            PagePolicy::DynLru,
        ] {
            let d = decide_client_mode(policy, &pc, &empty_query());
            assert_eq!(d.mode, FrameMode::Scoma, "{policy:?}");
            assert!(d.evict.is_none(), "{policy:?}");
        }
    }

    #[test]
    fn scoma_full_evicts_lru_without_conversion() {
        let mut pc = full_cache();
        pc.note_use(FrameNo(10)); // g(1) becomes LRU
        let d = decide_client_mode(PagePolicy::Scoma, &pc, &empty_query());
        assert_eq!(d.mode, FrameMode::Scoma);
        assert_eq!(
            d.evict,
            Some(EvictDecision {
                gpage: g(1),
                convert_to_lanuma: false
            })
        );
    }

    #[test]
    fn dyn_fcfs_full_switches_to_lanuma() {
        let pc = full_cache();
        let d = decide_client_mode(PagePolicy::DynFcfs, &pc, &empty_query());
        assert_eq!(d.mode, FrameMode::LaNuma);
        assert!(d.evict.is_none());
    }

    #[test]
    fn dyn_util_picks_most_invalid_frame() {
        let pc = full_cache();
        let q = StubQuery {
            invalid: [(FrameNo(10), 5), (FrameNo(11), 60)].into_iter().collect(),
            transit: Vec::new(),
        };
        let d = decide_client_mode(PagePolicy::DynUtil, &pc, &q);
        assert_eq!(
            d.evict,
            Some(EvictDecision {
                gpage: g(1),
                convert_to_lanuma: true
            })
        );
    }

    #[test]
    fn dyn_util_skips_transit_frames() {
        let pc = full_cache();
        let q = StubQuery {
            invalid: [(FrameNo(10), 5), (FrameNo(11), 60)].into_iter().collect(),
            transit: vec![FrameNo(11)],
        };
        let d = decide_client_mode(PagePolicy::DynUtil, &pc, &q);
        assert_eq!(d.evict.unwrap().gpage, g(0));
    }

    #[test]
    fn dyn_util_all_transit_falls_back_to_lanuma() {
        let pc = full_cache();
        let q = StubQuery {
            invalid: FastMap::default(),
            transit: vec![FrameNo(10), FrameNo(11)],
        };
        let d = decide_client_mode(PagePolicy::DynUtil, &pc, &q);
        assert_eq!(d.mode, FrameMode::LaNuma);
    }

    #[test]
    fn dyn_lru_converts_its_victim() {
        let mut pc = full_cache();
        pc.note_use(FrameNo(11)); // g(0) is LRU
        let d = decide_client_mode(PagePolicy::DynLru, &pc, &empty_query());
        assert_eq!(
            d.evict,
            Some(EvictDecision {
                gpage: g(0),
                convert_to_lanuma: true
            })
        );
        assert_eq!(d.mode, FrameMode::Scoma);
    }

    #[test]
    fn zero_capacity_degrades_to_lanuma() {
        let pc = PageCache::new(Some(0));
        for policy in [PagePolicy::Scoma, PagePolicy::DynUtil, PagePolicy::DynLru] {
            let d = decide_client_mode(policy, &pc, &empty_query());
            assert_eq!(d.mode, FrameMode::LaNuma, "{policy:?}");
        }
    }

    #[test]
    fn adaptivity_predicate() {
        assert!(!PagePolicy::Scoma.is_adaptive());
        assert!(!PagePolicy::Lanuma.is_adaptive());
        assert!(PagePolicy::DynFcfs.is_adaptive());
        assert!(PagePolicy::DynUtil.is_adaptive());
        assert!(PagePolicy::DynLru.is_adaptive());
        assert!(PagePolicy::DynBoth.is_adaptive());
        assert!(PagePolicy::DynBoth.reconverts());
        assert!(!PagePolicy::DynLru.reconverts());
    }

    #[test]
    fn dyn_both_overflow_behaves_like_dyn_lru() {
        let mut pc = full_cache();
        pc.note_use(FrameNo(11));
        let a = decide_client_mode(PagePolicy::DynLru, &pc, &empty_query());
        let b = decide_client_mode(PagePolicy::DynBoth, &pc, &empty_query());
        assert_eq!(a, b);
    }
}
