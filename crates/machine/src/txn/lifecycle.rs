//! The page lifecycle's shared steps (paper §3.3, §3.5).
//!
//! Client page-out and mode change, home page-out, lazy home migration
//! and home failover all take a frame off one node and, for migration
//! and failover, hand the page's home to another. They differ in their
//! kernel-side unmapping and in what they do with the directory, but
//! share three steps, kept here once:
//!
//! * [`Machine::release_frame`] — purge a frame from a node's caches,
//!   folding dirty copies, and shoot down its TLB entries.
//! * [`Machine::retire_mapping`] — drop whatever client mapping (S-COMA
//!   page or LA-NUMA frame) a node holds for a page.
//! * [`Machine::adopt_home`] — install a page's directory at a new
//!   dynamic home and publish it there.
//!
//! Invariant: once a frame leaves a node, no cache line or TLB entry
//! on that node refers to it.

use prism_kernel::kernel::EvictOrder;
use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, NodeId};
use prism_mem::directory::{LineDir, PageDir};
use prism_mem::mode::FrameMode;
use prism_mem::pit::PitEntry;
use prism_mem::tags::LineTag;
use prism_sim::Cycle;

use crate::machine::Machine;

impl Machine {
    /// Takes `frame` off every processor of node `n`, in ascending
    /// order: its lines leave L2 and then L1, and each dirty copy (L2 or
    /// L1 dirty) is folded — into the node's memory for S-COMA and home
    /// frames, or posted to the page's home for LA-NUMA frames. The
    /// shadow forgets the processors' copies and `vpage`, if the node
    /// maps one, leaves the node's TLBs.
    pub(crate) fn release_frame(&mut self, n: usize, frame: FrameNo, vpage: Option<u64>) {
        let lpp = self.cfg.geometry.lines_per_page() as u64;
        let base_key = self.line_key(frame, LineIdx(0));
        let lanuma = frame.is_imaginary();
        for pi in 0..self.ppn() {
            let flat = self.flat(n, pi) as u16;
            let proc = &mut self.nodes[n].procs[pi];
            let mut purged = proc.l2.invalidate_range(base_key, lpp);
            for (key, dirty) in &mut purged {
                *dirty |= proc.l1.invalidate(*key).unwrap_or(false);
            }
            // Lines an L1 still holds after its L2 lost them.
            purged.extend(proc.l1.invalidate_range(base_key, lpp));
            for (key, dirty) in purged {
                let lid = self
                    .shadow
                    .as_ref()
                    .and_then(|sh| sh.lid_for(n as u16, key));
                if dirty && lanuma {
                    let t = self.nodes[n].procs[pi].clock;
                    self.lanuma_posted_writeback(n, key, lid.unwrap_or(0), flat, t);
                }
                if let (Some(sh), Some(lid)) = (self.shadow.as_mut(), lid) {
                    if dirty && !lanuma {
                        sh.writeback(flat, n as u16, lid);
                    }
                    sh.drop_proc(flat, lid);
                }
            }
            // Node-local TLB shootdown only (paper: no global TLB
            // invalidations).
            if let Some(vp) = vpage {
                self.nodes[n].procs[pi].tlb.invalidate(vp);
            }
        }
    }

    /// Retires node `n`'s client mapping of `gpage`: a client page-out if
    /// it holds an S-COMA page, the LA-NUMA drop if it maps an imaginary
    /// frame, nothing otherwise. Returns the completion time.
    pub(crate) fn retire_mapping(&mut self, n: usize, gpage: GlobalPage, t: Cycle) -> Cycle {
        if let Some(cp) = self.nodes[n].kernel.client_page(gpage) {
            let evict = EvictOrder {
                gpage,
                frame: cp.frame,
                vpage: cp.vpage,
                convert_to_lanuma: false,
            };
            return self.page_out_client(n, evict, t);
        }
        let lanuma = self.nodes[n].controller.pit.frame_of(gpage);
        if let Some(frame) = lanuma.filter(|f| f.is_imaginary()) {
            self.drop_lanuma_mapping(n, gpage, frame);
        }
        t
    }

    /// Drops an LA-NUMA client mapping at node `n`: dirty lines are
    /// posted to the home before the frame disappears, then the
    /// controller's LA-NUMA state, the PIT binding and the page-table
    /// entry go.
    pub(crate) fn drop_lanuma_mapping(&mut self, n: usize, gpage: GlobalPage, frame: FrameNo) {
        let vpage = self.vpage_of_shared(n, gpage);
        self.release_frame(n, frame, vpage);
        self.nodes[n].controller.clear_lanuma_frame(frame);
        self.nodes[n].controller.pit.remove(frame);
        if let Some(vp) = vpage {
            self.nodes[n].kernel.unmap_lanuma(vp);
        }
    }

    /// The PIT entry that binds `frame` as `gpage`'s home frame at node
    /// `home`.
    pub(crate) fn home_pit_entry(
        &self,
        gpage: GlobalPage,
        home: usize,
        frame: FrameNo,
    ) -> PitEntry {
        PitEntry {
            gpage,
            mode: FrameMode::Scoma,
            static_home: self.homes.static_home(gpage),
            dyn_home: NodeId(home as u16),
            home_frame_hint: Some(frame),
            caps: prism_mem::pit::Caps::AllNodes,
        }
    }

    /// Makes node `home` the dynamic home of `gpage`, whose directory
    /// `pd` was taken from the former home `from`: a fresh home frame,
    /// its PIT entry, fine-grain tags derived from the directory (lines
    /// owned elsewhere Invalid, shared lines Shared, uncached lines
    /// Exclusive), the directory itself, and the new location published
    /// at the static home, with `from` kept as a legal stale hint.
    /// Returns the new home frame.
    pub(crate) fn adopt_home(
        &mut self,
        home: usize,
        gpage: GlobalPage,
        mut pd: PageDir,
        from: usize,
    ) -> FrameNo {
        let (frame, newly) = self.nodes[home].kernel.ensure_home_resident(gpage);
        assert!(newly, "the adopting node cannot already be home-resident");
        pd.home_frame = frame;
        let entry = self.home_pit_entry(gpage, home, frame);
        let ctl = &mut self.nodes[home].controller;
        ctl.pit.insert(frame, entry);
        ctl.tags.allocate(frame, LineTag::Shared);
        for (l, line) in pd.lines.iter().enumerate() {
            let tag = match line {
                LineDir::Owned(_) => LineTag::Invalid,
                LineDir::Shared(_) => LineTag::Shared,
                LineDir::Uncached => LineTag::Exclusive,
            };
            ctl.tags.set(frame, LineIdx(l as u16), tag);
        }
        ctl.dir.adopt(gpage, pd);
        self.dyn_homes.insert(gpage, NodeId(home as u16));
        self.former_homes
            .entry(gpage)
            .or_default()
            .insert(NodeId(from as u16));
        frame
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use crate::machine::Machine;
    use crate::report::RunReport;
    use prism_kernel::kernel::EvictOrder;
    use prism_kernel::policy::PagePolicy;
    use prism_mem::addr::{FrameNo, GlobalPage, Gsid, LineIdx, VirtAddr};
    use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};

    const LINES: u64 = 64;

    /// The one shared page; its static home is node 0.
    fn gp() -> GlobalPage {
        GlobalPage::new(Gsid(0), 0)
    }

    fn machine(policy: PagePolicy) -> Machine {
        let mut cfg = MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            .check_coherence(true)
            .build();
        cfg.policy = policy;
        Machine::new(cfg)
    }

    /// Runs phases of `(lane, write)` sweeps over the whole page, with a
    /// barrier after each phase.
    fn run(m: &mut Machine, phases: &[&[(usize, bool)]]) -> RunReport {
        let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
        for (b, phase) in phases.iter().enumerate() {
            for &(lane, write) in *phase {
                for l in 0..LINES {
                    let va = VirtAddr(SHARED_BASE + l * 64);
                    lanes[lane].push(if write { Op::Write(va) } else { Op::Read(va) });
                }
            }
            for lane in &mut lanes {
                lane.push(Op::Barrier(b as u32));
            }
        }
        m.run(&Trace {
            name: "lifecycle".into(),
            segments: vec![SegmentSpec {
                name: "page".into(),
                va_base: SHARED_BASE,
                bytes: 4096,
            }],
            lanes: lanes.into_iter().map(Into::into).collect(),
        })
    }

    /// Every node reads the whole page back; the shadow checker panics
    /// on any stale copy.
    fn read_back(m: &mut Machine) {
        let r = run(m, &[&[(0, false), (2, false), (4, false), (6, false)]]);
        assert_eq!(r.dead_procs, 0);
        assert!(r.reads_checked >= 4 * LINES);
    }

    /// Whether any L1/L2 of node `n` holds a line of `frame`, or any of
    /// its TLBs maps `vpage`.
    fn refers_to(m: &mut Machine, n: usize, frame: FrameNo, vpage: u64) -> (bool, bool) {
        let base = m.line_key(frame, LineIdx(0));
        let lines = base..base + LINES;
        let mut cached = false;
        let mut mapped = false;
        for p in &mut m.nodes[n].procs {
            cached |=
                p.l1.iter()
                    .chain(p.l2.iter())
                    .any(|(k, _)| lines.contains(&k));
            mapped |= p.tlb.lookup(vpage).is_some();
        }
        (cached, mapped)
    }

    fn vpage(m: &Machine) -> u64 {
        m.shared_vpage_value(gp()).expect("the page is attached")
    }

    #[test]
    fn client_page_out_leaves_nothing_behind() {
        let mut m = machine(PagePolicy::Scoma);
        let r = run(&mut m, &[&[(2, true)], &[(3, false)]]);
        let cp = m.nodes[1]
            .kernel
            .client_page(gp())
            .expect("node 1 is a client");
        assert_eq!(refers_to(&mut m, 1, cp.frame, cp.vpage), (true, true));
        let evict = EvictOrder {
            gpage: gp(),
            frame: cp.frame,
            vpage: cp.vpage,
            convert_to_lanuma: false,
        };
        m.page_out_client(1, evict, r.exec_cycles);
        assert_eq!(refers_to(&mut m, 1, cp.frame, cp.vpage), (false, false));
        read_back(&mut m);
    }

    #[test]
    fn lanuma_drop_leaves_nothing_behind() {
        let mut m = machine(PagePolicy::Lanuma);
        run(&mut m, &[&[(2, true)], &[(3, false)]]);
        let frame = m.nodes[1]
            .controller
            .pit
            .frame_of(gp())
            .expect("node 1 maps the page");
        assert!(frame.is_imaginary());
        let vp = vpage(&m);
        assert_eq!(refers_to(&mut m, 1, frame, vp), (true, true));
        m.drop_lanuma_mapping(1, gp(), frame);
        assert_eq!(refers_to(&mut m, 1, frame, vp), (false, false));
        read_back(&mut m);
    }

    #[test]
    fn migration_leaves_nothing_behind_at_either_home() {
        let mut m = machine(PagePolicy::Scoma);
        // Node 1 maps the page as a client; then the home's own
        // processor dirties every line.
        let r = run(&mut m, &[&[(2, false)], &[(0, true)]]);
        let old_frame = m.nodes[0]
            .kernel
            .home_frame_of(gp())
            .expect("home-resident");
        let cp = m.nodes[1]
            .kernel
            .client_page(gp())
            .expect("node 1 is a client");
        let vp = vpage(&m);
        assert_eq!(refers_to(&mut m, 0, old_frame, vp), (true, true));
        assert!(refers_to(&mut m, 1, cp.frame, vp).1);
        m.migrate_page(gp(), 0, 1, r.exec_cycles);
        assert_eq!(m.resolve_dyn_home(gp()).0, 1);
        assert_eq!(refers_to(&mut m, 0, old_frame, vp), (false, false));
        assert_eq!(refers_to(&mut m, 1, cp.frame, vp), (false, false));
        read_back(&mut m);
    }

    #[test]
    fn home_page_out_leaves_nothing_behind_at_home_or_clients() {
        let mut m = machine(PagePolicy::Scoma);
        let r = run(&mut m, &[&[(2, true)], &[(0, true), (4, false)]]);
        let home_frame = m.nodes[0]
            .kernel
            .home_frame_of(gp())
            .expect("home-resident");
        let clients = [1, 2].map(|n| m.nodes[n].kernel.client_page(gp()).expect("a client"));
        let vp = vpage(&m);
        assert_eq!(refers_to(&mut m, 0, home_frame, vp), (true, true));
        m.home_page_out(gp(), r.exec_cycles)
            .expect("the page is resident at its home");
        assert_eq!(refers_to(&mut m, 0, home_frame, vp), (false, false));
        for (n, cp) in [1, 2].into_iter().zip(clients) {
            assert_eq!(refers_to(&mut m, n, cp.frame, cp.vpage), (false, false));
        }
        read_back(&mut m);
    }
}
