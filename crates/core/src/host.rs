//! One simulated host: machine, VM, adapter, ledger and CPU clock.

use genie_machine::{CostLedger, CostModel, MachineSpec, Op, SimTime};
use genie_mem::{FrameId, PhysMem};
use genie_net::{Adapter, InputBuffering};
use genie_trace::Tracer;
use genie_vm::{RegionHandle, RegionMark, SpaceId, Vm};

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
    pub fn free_buffer(&mut self, space: SpaceId, vaddr: u64) -> Result<(), GenieError> {
        let handle = self.vm.region_at(space, vaddr)?;
        self.vm.remove_region(handle)?;
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

    /// Allocates `n` kernel frames (system/aligned buffers).
    pub fn alloc_kernel_frames(&mut self, n: usize) -> Result<Vec<FrameId>, GenieError> {
        (0..n)
            .map(|_| self.vm.phys.alloc(None).map_err(GenieError::from))
            .collect()
    }

    /// Frees kernel frames.
    pub fn free_kernel_frames(&mut self, frames: impl IntoIterator<Item = FrameId>) {
        for f in frames {
            let _ = self.vm.phys.dealloc(f);
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
        let c = h
            .adapter
            .receive(&mut h.vm.phys, genie_net::Vc(0), &payload)
            .unwrap();
        assert!(matches!(c, genie_net::RxCompletion::Overlay { .. }));
        assert_eq!(h.adapter.pool_len(), 14);
        h.return_overlay([]);
        assert_eq!(h.adapter.pool_len(), 16);
    }
}
