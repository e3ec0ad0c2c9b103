//! One simulated host: machine, VM, adapter, ledger and CPU clock.

use genie_machine::{CostLedger, CostModel, MachineSpec, Op, SimTime};
use genie_mem::{FrameId, IoDir, PhysMem};
use genie_net::{Adapter, InputBuffering};
use genie_trace::Tracer;
use genie_vm::{IoDescriptor, RegionHandle, RegionMark, SpaceId, Vm};

use crate::error::GenieError;

/// A simulated host: one machine running the Genie-augmented kernel,
/// with its network adapter.
#[derive(Debug)]
pub struct Host {
    /// The platform's cost accounting.
    pub ledger: CostLedger,
    /// The VM subsystem (owns physical memory).
    pub vm: Vm,
    /// The network adapter.
    pub adapter: Adapter,
    /// The host CPU clock (simulated time of the latency-critical
    /// path on this host).
    pub clock: SimTime,
    /// Structured event tracer (disabled by default; zero-cost when
    /// off).
    pub tracer: Tracer,
    /// Target overlay pool size in pages.
    pool_target: usize,
    /// Emptied frame lists of finished kernel buffers (system, aligned
    /// and overlay placements), reused by the next placement. Only
    /// lists that placements once held come back, so the pool never
    /// outgrows the most kernel buffers ever pending at once.
    pub(crate) spare_frame_lists: Vec<Vec<FrameId>>,
}

impl Host {
    /// Builds a host from a machine spec.
    pub fn new(
        machine: MachineSpec,
        frames: usize,
        rx_mode: InputBuffering,
        credit_limit: u32,
        pool_pages: usize,
    ) -> Self {
        let page_size = machine.page_size;
        let model = CostModel::new(machine);
        let ledger = CostLedger::new(model);
        let mut vm = Vm::new(PhysMem::new(page_size, frames));
        let mut adapter = Adapter::new(rx_mode, credit_limit);
        // Pre-fill the overlay pool (the I/O module's private pool of
        // pages in main memory, paper Section 6.2.2).
        let pool: Vec<FrameId> = (0..pool_pages)
            .map(|_| vm.phys.alloc(None).expect("pool allocation"))
            .collect();
        adapter.fill_pool(pool);
        Host {
            ledger,
            vm,
            adapter,
            clock: SimTime::ZERO,
            tracer: Tracer::new(),
            pool_target: pool_pages,
            spare_frame_lists: Vec::new(),
        }
    }

    /// The machine spec of this host.
    pub fn machine(&self) -> &MachineSpec {
        self.ledger.model().machine()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.vm.page_size()
    }

    /// Records the phase span `name` from `start` to the host clock,
    /// covering `bytes`; nothing while tracing is off.
    pub(crate) fn phase_span(&mut self, name: &'static str, start: SimTime, bytes: usize) {
        if self.tracer.enabled() {
            let dur = self.clock.saturating_sub(start);
            self.tracer
                .span(genie_trace::Track::Phase, name, start, dur, bytes, 0);
        }
    }

    /// Charges `op` on the latency-critical path: accumulates in the
    /// ledger and advances the CPU clock.
    pub fn charge_latency(&mut self, op: Op, bytes: usize, units: usize) -> SimTime {
        let c = self.ledger.charge(op, bytes, units);
        if self.tracer.enabled() {
            self.tracer.op_span(op, self.clock, c, bytes, units);
        }
        self.clock += c;
        c
    }

    /// Charges `op` off the critical path (dispose-time work that
    /// overlaps network latency; per-cell housekeeping): accumulates
    /// busy time without advancing the clock.
    pub fn charge_overlapped(&mut self, op: Op, bytes: usize, units: usize) -> SimTime {
        let c = self.ledger.charge(op, bytes, units);
        if self.tracer.enabled() {
            self.tracer.overlapped_op(op, self.clock, c, bytes, units);
        }
        c
    }

    /// Charges the faults of the host's latest application access
    /// ([`Vm::last_faults`]): one `Fault` each, plus a one-page
    /// `PageCopy` for each resolved by a TCOW or COW copy. Returns how
    /// many faults it charged.
    pub(crate) fn charge_faults(&mut self) -> usize {
        let page = self.page_size();
        let n = self.vm.last_faults().len();
        for i in 0..n {
            let copied = self.vm.last_faults()[i].copied();
            self.charge_latency(Op::Fault, 0, 0);
            if copied {
                self.charge_latency(Op::PageCopy, page, 1);
            }
        }
        n
    }

    /// Pages the `len` bytes at `vaddr` span.
    pub(crate) fn pages_at(&self, vaddr: u64, len: usize) -> usize {
        let page_off = (vaddr % self.page_size() as u64) as usize;
        self.machine().pages_spanned(page_off, len)
    }

    /// The "reference (and wire)" step of Tables 2 and 3: charges
    /// `Reference` and references the application pages; with `wire`,
    /// also charges `Wire` and wires their region, which it returns.
    pub(crate) fn reference_app(
        &mut self,
        space: SpaceId,
        vaddr: u64,
        len: usize,
        dir: IoDir,
        wire: bool,
    ) -> Result<(IoDescriptor, Option<RegionHandle>), GenieError> {
        let pages = self.pages_at(vaddr, len);
        self.charge_latency(Op::Reference, len, pages);
        let desc = self.vm.reference_pages(space, vaddr, len, dir)?;
        if !wire {
            return Ok((desc, None));
        }
        let region = self.vm.region_at(space, vaddr)?;
        self.charge_latency(Op::Wire, len, pages);
        self.vm.wire_region(region)?;
        Ok((desc, Some(region)))
    }

    /// The "(unwire,) unreference" step of Tables 2–4, the inverse of
    /// [`Host::reference_app`]: charges `Unwire` and unwires the region
    /// if one is `wired`, then charges `Unreference` and releases `desc`.
    pub(crate) fn release_app(
        &mut self,
        desc: IoDescriptor,
        wired: Option<RegionHandle>,
        len: usize,
        pages: usize,
    ) {
        if let Some(region) = wired {
            self.charge_latency(Op::Unwire, len, pages);
            let _ = self.vm.unwire_region(region);
        }
        self.charge_latency(Op::Unreference, len, pages);
        self.vm.unreference(desc).expect("unreference");
    }

    /// Creates a simulated process (an address space).
    pub fn create_process(&mut self) -> SpaceId {
        self.vm.create_space()
    }

    /// Allocates an unmovable application buffer of `len` bytes whose
    /// data starts `page_off` bytes into its first page, returning the
    /// data's virtual address. `page_off` is how experiments control
    /// application-buffer alignment (Figures 6 and 7).
    pub fn alloc_buffer(
        &mut self,
        space: SpaceId,
        len: usize,
        page_off: usize,
    ) -> Result<u64, GenieError> {
        let page = self.page_size();
        assert!(page_off < page, "page_off must be within one page");
        let npages = ((page_off + len).max(1) as u64).div_ceil(page as u64);
        let h = self.vm.alloc_region(space, npages, RegionMark::Unmovable)?;
        Ok(h.start_vpn * page as u64 + page_off as u64)
    }

    /// Frees an application buffer allocated by [`Host::alloc_buffer`],
    /// returning its region (and any frames faulted into it) to the
    /// system. Host-side bookkeeping only: no simulated time is
    /// charged, so experiment drivers can release measured buffers
    /// between points without perturbing the measurement.
    ///
    /// Freeing a moved-out buffer the region cache already reclaimed
    /// succeeds: its pages are free already.
    pub fn free_buffer(&mut self, space: SpaceId, vaddr: u64) -> Result<(), GenieError> {
        match self.vm.region_at(space, vaddr) {
            Ok(handle) => self.vm.remove_region(handle)?,
            Err(e) => {
                let vpn = vaddr / self.page_size() as u64;
                if !self.vm.space_mut(space).free_reclaimed(vpn) {
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Allocates a system-allocated (moved-in) I/O buffer region of at
    /// least `len` bytes, as the system-allocated API's explicit buffer
    /// allocation call. Returns the region handle and data address.
    pub fn alloc_io_buffer(
        &mut self,
        space: SpaceId,
        len: usize,
    ) -> Result<(RegionHandle, u64), GenieError> {
        let page = self.page_size() as u64;
        let npages = (len.max(1) as u64).div_ceil(page);
        let h = self.vm.alloc_region(space, npages, RegionMark::MovedIn)?;
        Ok((h, h.start_vpn * page))
    }

    /// Allocates `n` kernel frames (system/aligned buffers), listed in
    /// a recycled frame list, reclaiming cached regions if memory runs
    /// short ([`Vm::alloc_frame`]). If memory runs out part-way, the
    /// frames already taken stay allocated, as they always have.
    pub fn alloc_kernel_frames(&mut self, n: usize) -> Result<Vec<FrameId>, GenieError> {
        let mut frames = self.take_frame_list();
        for _ in 0..n {
            match self.vm.alloc_frame(None, false) {
                Ok(f) => frames.push(f),
                Err(e) => {
                    self.recycle_frame_list(frames);
                    return Err(e.into());
                }
            }
        }
        Ok(frames)
    }

    /// Frees kernel frames and keeps their list for the next placement.
    pub fn free_kernel_frames(&mut self, frames: Vec<FrameId>) {
        for &f in &frames {
            let _ = self.vm.phys.dealloc(f);
        }
        self.recycle_frame_list(frames);
    }

    /// An empty frame list, recycled when one is spare.
    pub(crate) fn take_frame_list(&mut self) -> Vec<FrameId> {
        self.spare_frame_lists.pop().unwrap_or_default()
    }

    /// Empties a frame list whose frames were freed or handed on, and
    /// keeps it for reuse.
    pub(crate) fn recycle_frame_list(&mut self, mut frames: Vec<FrameId>) {
        if frames.capacity() > 0 {
            frames.clear();
            self.spare_frame_lists.push(frames);
        }
    }

    /// Returns overlay frames to the adapter pool and replenishes it
    /// from the free list up to its target size (frames lost to page
    /// swaps are replaced, as an I/O module pool would).
    pub fn return_overlay(&mut self, frames: impl IntoIterator<Item = FrameId>) {
        self.adapter.fill_pool(frames);
        while self.adapter.pool_len() < self.pool_target {
            match self.vm.phys.alloc(None) {
                Ok(f) => self.adapter.fill_pool([f]),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(
            MachineSpec::micron_p166(),
            1024,
            InputBuffering::EarlyDemux,
            2048,
            16,
        )
    }

    #[test]
    fn charge_latency_advances_clock_but_overlapped_does_not() {
        let mut h = host();
        let before = h.clock;
        let c = h.charge_latency(Op::Reference, 4096, 1);
        assert_eq!(h.clock, before + c);
        let busy_before = h.ledger.busy();
        let c2 = h.charge_overlapped(Op::Unreference, 4096, 1);
        assert_eq!(h.clock, before + c);
        assert_eq!(h.ledger.busy(), busy_before + c2);
    }

    #[test]
    fn device_ops_do_not_count_as_busy() {
        let mut h = host();
        let busy = h.ledger.busy();
        h.charge_latency(Op::DeviceFixedSend, 0, 0);
        assert_eq!(h.ledger.busy(), busy);
        assert!(h.clock > SimTime::ZERO, "but they do take latency");
    }

    #[test]
    fn buffer_alignment_control() {
        let mut h = host();
        let s = h.create_process();
        let aligned = h.alloc_buffer(s, 4096, 0).unwrap();
        assert_eq!(aligned % 4096, 0);
        let off = h.alloc_buffer(s, 4096, 16).unwrap();
        assert_eq!(off % 4096, 16);
    }

    #[test]
    fn io_buffer_region_is_moved_in() {
        let mut h = host();
        let s = h.create_process();
        let (handle, va) = h.alloc_io_buffer(s, 10_000).unwrap();
        assert_eq!(va % 4096, 0);
        assert_eq!(h.vm.region(handle).unwrap().mark, RegionMark::MovedIn);
        assert_eq!(h.vm.region(handle).unwrap().npages, 3);
    }

    #[test]
    fn early_demux_host_backs_no_overlay_page() {
        // The overlay pool is allocated up front but only written by a
        // pooled receive, which early demultiplexing never does.
        let h = Host::new(
            MachineSpec::micron_p166(),
            6144,
            InputBuffering::EarlyDemux,
            2048,
            64,
        );
        assert_eq!(h.adapter.pool_len(), 64);
        assert_eq!(h.vm.phys.peak_in_use(), 64);
        assert_eq!(h.vm.phys.touched_frames(), 64);
        assert_eq!(h.vm.phys.backed_frames(), 0);
    }

    #[test]
    fn overlay_pool_replenishes_to_target() {
        let mut h = host();
        assert_eq!(h.adapter.pool_len(), 16);
        // Lose 2 pool frames to a pooled receive whose frames are never
        // returned (as page swaps do), then replenish.
        let payload = vec![1u8; 8000];
        let mut frames = Vec::new();
        let delivered = h
            .adapter
            .receive(&mut h.vm.phys, &payload, &mut frames)
            .unwrap();
        assert!(delivered);
        assert_eq!(frames.len(), 2);
        assert_eq!(h.adapter.pool_len(), 14);
        h.return_overlay([]);
        assert_eq!(h.adapter.pool_len(), 16);
    }
}
