//! The VM subsystem: fault handling, page referencing, page swapping,
//! wiring, COW, and the region operations behind move emulation.

use genie_mem::{DenseMap, FrameId, IoDir, MemError, PhysMem, SlotMap};

use crate::error::VmError;
use crate::fault::{Access, FaultOutcome};
use crate::ids::{IoVec, ObjectId, SpaceId};
use crate::object::MemoryObject;
use crate::region::{Region, RegionMark};
use crate::space::{AddressSpace, Pte, RegionHandle};

/// A prepared I/O request: the scatter/gather list produced by page
/// referencing, plus its direction.
#[derive(Clone, Debug)]
pub struct IoDescriptor {
    /// Scatter/gather elements in buffer order.
    pub vecs: Vec<IoVec>,
    /// Direction of the pending I/O.
    pub dir: IoDir,
}

impl IoDescriptor {
    /// Total byte length covered by the descriptor.
    pub fn len(&self) -> usize {
        self.vecs.iter().map(|v| v.len).sum()
    }

    /// True if the descriptor covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where [`Vm::locate_page`] found a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageLoc {
    /// Resident in a frame.
    Resident(FrameId),
    /// Paged out to the owner's backing store.
    Paged,
}

/// What an application access to one virtual page would observe,
/// resolved by [`Vm::peek_page`] without side effects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagePeek<'a> {
    /// The page's current contents (resident frame or paged-out copy).
    Bytes(&'a [u8]),
    /// Never-touched page: an access would zero-fill.
    Zeros,
    /// Any access would fault unrecoverably (no region, or the region
    /// is hidden / moved out / in transit).
    Denied,
}

/// Structural counters for the VM subsystem: how often each fault
/// path ran and how the region machinery was exercised. Purely
/// observational — never consulted by the simulation itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Calls into the fault handler.
    pub faults_handled: u64,
    /// Write faults resolved by a transient-COW page copy.
    pub tcow_copies: u64,
    /// Write faults resolved by a conventional COW page copy.
    pub cow_copies: u64,
    /// First-touch zero-fill faults.
    pub zero_fills: u64,
    /// Faults that paged content back in from backing store.
    pub pages_paged_in: u64,
    /// Pages replaced by the input-alignment swap interface.
    pub page_swaps: u64,
    /// Region wire operations.
    pub region_wires: u64,
    /// Region unwire operations.
    pub region_unwires: u64,
    /// Region hides (invalidations).
    pub region_invalidations: u64,
    /// Region reinstatements.
    pub region_reinstates: u64,
    /// Cached regions evicted by the region cache, over its bound or
    /// to free frames for an allocation.
    pub regions_reclaimed: u64,
    /// Most regions cached at once, summed over the host's spaces.
    pub cached_regions_peak: u64,
}

/// The simulated VM subsystem of one host.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Physical memory (public: the device/adapter layer DMAs into it).
    pub phys: PhysMem,
    /// Memory objects in a generational arena: a destroyed object's
    /// slot serves the next one, so the table is sized by the most
    /// objects ever live at once, and a stale [`ObjectId`] resolves to
    /// nothing.
    objects: SlotMap<MemoryObject>,
    spaces: Vec<AddressSpace>,
    stats: VmStats,
    /// Faults taken by the latest fault-taking access or page
    /// reference, in order (see [`Vm::last_faults`]). One list reused
    /// by every call.
    faults: Vec<FaultOutcome>,
    /// Emptied scatter/gather lists of released descriptors; page
    /// referencing takes one instead of allocating. Only lists that
    /// descriptors once held come back, so the pool never outgrows the
    /// most descriptors ever live at once.
    spare_vecs: Vec<Vec<IoVec>>,
    /// Emptied resident-page tables of destroyed objects; object
    /// creation takes one. Bounded, like `spare_vecs`, by the most
    /// objects ever live at once.
    spare_page_tables: Vec<DenseMap<FrameId>>,
    /// Stamp of the next region queued on a region cache, so reclaim
    /// can find the host-wide oldest.
    cache_clock: u64,
}

impl Vm {
    /// Creates a VM over the given physical memory.
    pub fn new(phys: PhysMem) -> Self {
        Vm {
            phys,
            objects: SlotMap::new(),
            spaces: Vec::new(),
            stats: VmStats::default(),
            faults: Vec::new(),
            spare_vecs: Vec::new(),
            spare_page_tables: Vec::new(),
            cache_clock: 1,
        }
    }

    /// The faults taken by the most recent [`Vm::read_app`],
    /// [`Vm::write_app`], [`Vm::app_matches`], `copy_*` or
    /// `reference_*` call, in the order they were taken (a call that
    /// failed part-way leaves those taken before the failure). The list
    /// is scratch storage that the next such call overwrites. The
    /// policy layer reads it right after an application read, write or
    /// compare to charge each fault; it does not read it after page
    /// referencing, whose faults go uncharged (see
    /// [`Vm::reference_pages`]).
    pub fn last_faults(&self) -> &[FaultOutcome] {
        &self.faults
    }

    /// An empty scatter/gather list, recycled when one is spare.
    fn take_vecs(&mut self) -> Vec<IoVec> {
        self.spare_vecs.pop().unwrap_or_default()
    }

    /// Structural counters accumulated since creation.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.phys.page_size()
    }

    // ----- spaces and objects -------------------------------------------------

    /// Number of address spaces created so far (none is ever destroyed).
    pub fn space_count(&self) -> u32 {
        self.spaces.len() as u32
    }

    /// Creates a new (empty) address space.
    pub fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.spaces.len() as u32);
        self.spaces.push(AddressSpace::new(id));
        id
    }

    /// Shared access to a space.
    pub fn space(&self, id: SpaceId) -> &AddressSpace {
        &self.spaces[id.0 as usize]
    }

    /// Mutable access to a space.
    pub fn space_mut(&mut self, id: SpaceId) -> &mut AddressSpace {
        &mut self.spaces[id.0 as usize]
    }

    /// Creates a new, empty memory object.
    pub fn create_object(&mut self) -> ObjectId {
        let pages = self.spare_page_tables.pop().unwrap_or_default();
        ObjectId(self.objects.insert(MemoryObject::with_page_table(pages)))
    }

    /// Shared access to an object (panics on a dangling id — internal
    /// invariant).
    pub fn object(&self, id: ObjectId) -> &MemoryObject {
        self.objects.get(id.0).expect("dangling object id")
    }

    /// Mutable access to an object.
    pub fn object_mut(&mut self, id: ObjectId) -> &mut MemoryObject {
        self.objects.get_mut(id.0).expect("dangling object id")
    }

    /// True if the object still exists (false for a stale id whose
    /// slot now holds another object).
    pub fn object_live(&self, id: ObjectId) -> bool {
        self.objects.get(id.0).is_some()
    }

    /// Drops one reference to an object; destroys it (deallocating its
    /// frames with I/O-deferred semantics) when the count reaches zero.
    pub fn release_object(&mut self, id: ObjectId) {
        let Some(obj) = self.objects.get_mut(id.0) else {
            return;
        };
        if obj.drop_external_ref() > 0 {
            return;
        }
        let obj = self.objects.remove(id.0).expect("checked above");
        for (_, frame) in obj.pages() {
            // Deallocation is I/O-deferred inside PhysMem.
            let _ = self.phys.dealloc(frame);
        }
        let shadow = obj.shadow();
        let mut pages = obj.into_page_table();
        pages.clear();
        self.spare_page_tables.push(pages);
        if let Some(shadow) = shadow {
            self.release_object(shadow);
        }
    }

    // ----- region management --------------------------------------------------

    /// Allocates a region of `npages` fresh pages with the given mark,
    /// backed by a new empty object (pages are zero-filled on first
    /// touch).
    pub fn alloc_region(
        &mut self,
        space: SpaceId,
        npages: u64,
        mark: RegionMark,
    ) -> Result<RegionHandle, VmError> {
        let object = self.create_object();
        let start_vpn = self.space_mut(space).reserve(npages);
        let region = Region::new(start_vpn, npages, object, mark);
        self.space_mut(space).insert_region(region)?;
        Ok(RegionHandle { space, start_vpn })
    }

    /// Allocates an unmovable application buffer of `len` bytes and
    /// returns its starting virtual address.
    pub fn alloc_app_buffer(&mut self, space: SpaceId, len: usize) -> Result<u64, VmError> {
        let npages = (len.max(1) as u64).div_ceil(self.page_size() as u64);
        let h = self.alloc_region(space, npages, RegionMark::Unmovable)?;
        Ok(h.start_vpn * self.page_size() as u64)
    }

    /// Removes a region (application- or system-initiated), clearing
    /// its PTEs, releasing its object and dropping it from its region
    /// cache if it is cached. Frames with pending I/O are protected by
    /// I/O-deferred deallocation.
    pub fn remove_region(&mut self, handle: RegionHandle) -> Result<(), VmError> {
        let region = self.unmap_region(handle)?;
        if region.mark.cached() {
            self.space_mut(handle.space)
                .uncache_specific(handle.start_vpn);
        }
        Ok(())
    }

    /// Removes a region, with its PTEs, from its space and releases
    /// its object; returns the removed region.
    fn unmap_region(&mut self, handle: RegionHandle) -> Result<Region, VmError> {
        let region = self
            .space_mut(handle.space)
            .remove_region(handle.start_vpn)
            .ok_or(VmError::NoRegion(handle.start_vpn))?;
        self.release_object(region.object);
        Ok(region)
    }

    // ----- region cache ---------------------------------------------------------

    /// Marks a region moved out (`mark` is [`RegionMark::MovedOut`] or
    /// [`RegionMark::WeaklyMovedOut`]) and queues it on its space's
    /// region cache for reuse by a later system-allocated input (paper
    /// Section 2.2). Regions enter a cache only through here, so one
    /// that already carries a moved-out mark is queued already and
    /// stays queued once.
    ///
    /// The cache is bounded per mark by its space's own input demand
    /// ([`AddressSpace::cache_bound`]): the oldest regions beyond it
    /// are reclaimed — unmapped, their object released and their frames
    /// freed (I/O-deferred). Reclaim is host bookkeeping and charges no
    /// simulated time; the application can still free a reclaimed
    /// buffer, and touching it faults unrecoverably, as touching a
    /// hidden region does.
    pub fn cache_region(&mut self, handle: RegionHandle, mark: RegionMark) -> Result<(), VmError> {
        debug_assert!(mark.cached(), "only moved-out regions are cached");
        let region = self.region_mut(handle)?;
        let queued = region.mark.cached();
        region.mark = mark;
        if queued {
            return Ok(());
        }
        let stamp = self.cache_clock;
        self.cache_clock += 1;
        self.space_mut(handle.space)
            .enqueue(handle.start_vpn, mark, stamp);
        while let Some(start_vpn) = self.space_mut(handle.space).pop_over_bound(mark) {
            self.reclaim(RegionHandle {
                space: handle.space,
                start_vpn,
            });
        }
        let cached = self
            .spaces
            .iter()
            .map(|s| s.cached_region_count())
            .sum::<usize>() as u64;
        self.stats.cached_regions_peak = self.stats.cached_regions_peak.max(cached);
        Ok(())
    }

    /// Evicts a region already dequeued from its cache.
    fn reclaim(&mut self, handle: RegionHandle) {
        let region = self.unmap_region(handle).expect("cached region exists");
        self.space_mut(handle.space)
            .mark_reclaimed(region.start_vpn..region.end_vpn());
        self.stats.regions_reclaimed += 1;
    }

    /// Evicts the host-wide oldest cached region; false if no space
    /// caches any.
    fn reclaim_oldest(&mut self) -> bool {
        let oldest = (0..self.spaces.len())
            .filter_map(|i| Some((self.spaces[i].oldest_stamp()?, i)))
            .min();
        let Some((_, i)) = oldest else {
            return false;
        };
        let start_vpn = self.spaces[i].pop_oldest().expect("oldest exists");
        self.reclaim(RegionHandle {
            space: SpaceId(i as u32),
            start_vpn,
        });
        true
    }

    /// Allocates a frame for `owner`, zero-filled if `zeroed`. Every
    /// frame the VM and its host kernel take comes through here: when
    /// physical memory is exhausted, cached regions are reclaimed
    /// host-wide, oldest first, until a frame is free, and the
    /// allocation is retried once — the region cache is a reuse
    /// optimization and must never be why an allocation fails.
    pub fn alloc_frame(&mut self, owner: Option<u64>, zeroed: bool) -> Result<FrameId, VmError> {
        let alloc = |phys: &mut PhysMem| {
            if zeroed {
                phys.alloc_zeroed(owner)
            } else {
                phys.alloc(owner)
            }
        };
        match alloc(&mut self.phys) {
            Err(MemError::OutOfFrames) => {
                while self.phys.free_frames() == 0 && self.reclaim_oldest() {}
                Ok(alloc(&mut self.phys)?)
            }
            r => Ok(r?),
        }
    }

    /// The region named by `handle`.
    pub fn region(&self, handle: RegionHandle) -> Result<&Region, VmError> {
        self.space(handle.space)
            .region(handle.start_vpn)
            .ok_or(VmError::NoRegion(handle.start_vpn))
    }

    /// Mutable access to the region named by `handle`.
    pub fn region_mut(&mut self, handle: RegionHandle) -> Result<&mut Region, VmError> {
        self.space_mut(handle.space)
            .region_mut(handle.start_vpn)
            .ok_or(VmError::NoRegion(handle.start_vpn))
    }

    /// Sets a region's move-state mark.
    pub fn mark_region(&mut self, handle: RegionHandle, mark: RegionMark) -> Result<(), VmError> {
        self.region_mut(handle)?.mark = mark;
        Ok(())
    }

    /// Handle of the region covering virtual address `vaddr`.
    pub fn region_at(&self, space: SpaceId, vaddr: u64) -> Result<RegionHandle, VmError> {
        let vpn = vaddr / self.page_size() as u64;
        let r = self
            .space(space)
            .region_covering(vpn)
            .ok_or(VmError::NoRegion(vaddr))?;
        Ok(RegionHandle {
            space,
            start_vpn: r.start_vpn,
        })
    }

    // ----- fault handling (incl. TCOW and conventional COW) --------------------

    /// Locates object page `idx` along the shadow chain, checking each
    /// level for a resident frame *or paged-out contents* before
    /// descending: a paged-out page at one level shadows anything
    /// below it (losing this ordering would resurrect stale pre-COW
    /// data after pageout).
    fn locate_page(&self, top: ObjectId, idx: u64) -> Option<(ObjectId, PageLoc)> {
        let mut cur = Some(top);
        while let Some(oid) = cur {
            let obj = self.object(oid);
            if let Some(f) = obj.page(idx) {
                return Some((oid, PageLoc::Resident(f)));
            }
            if obj.paged(idx).is_some() {
                return Some((oid, PageLoc::Paged));
            }
            cur = obj.shadow();
        }
        None
    }

    /// Finds object page `idx` along `top`'s shadow chain and makes it
    /// resident at the level that owns it: a paged-out page is brought
    /// back into a fresh frame of its owner. Returns the owner, the
    /// frame and [`FaultOutcome::PagedIn`] or, for a page that was
    /// resident, [`FaultOutcome::Mapped`]; `None` for a page no level
    /// holds.
    fn fetch_page(
        &mut self,
        top: ObjectId,
        idx: u64,
    ) -> Result<Option<(ObjectId, FrameId, FaultOutcome)>, VmError> {
        Ok(match self.locate_page(top, idx) {
            None => None,
            Some((owner, PageLoc::Resident(f))) => Some((owner, f, FaultOutcome::Mapped)),
            Some((owner, PageLoc::Paged)) => {
                let data = self
                    .object_mut(owner)
                    .take_paged(idx)
                    .expect("located paged contents");
                let frame = self.alloc_frame(Some(owner.0), false)?;
                self.phys.write(frame, 0, &data)?;
                self.object_mut(owner).set_page(idx, frame);
                Some((owner, frame, FaultOutcome::PagedIn))
            }
        })
    }

    /// Resolves object page `idx` of `top` for an access, the one
    /// decision behind the fault path, kernel page referencing and
    /// wiring. The page is located along the shadow chain and paged in
    /// if needed; a page no level holds is zero-filled into `top` (the
    /// frame cleared only if `zero`: a caller about to overwrite the
    /// whole page skips the memset). For a `write` the page is then
    /// copied up into `top`: TCOW when it is `top`'s own and output
    /// still references it (Section 5.1), COW when it was found below
    /// `top`. A displaced frame keeps serving pending output and is
    /// freed by its last unreference (I/O-deferred deallocation).
    ///
    /// Touches no PTE and counts nothing; a page resolved in place
    /// reports [`FaultOutcome::Mapped`].
    fn resolve_page(
        &mut self,
        top: ObjectId,
        idx: u64,
        write: bool,
        zero: bool,
    ) -> Result<(FrameId, FaultOutcome), VmError> {
        let Some((owner, frame, found)) = self.fetch_page(top, idx)? else {
            let frame = self.alloc_frame(Some(top.0), zero)?;
            self.object_mut(top).set_page(idx, frame);
            return Ok((frame, FaultOutcome::ZeroFilled));
        };
        if !write {
            return Ok((frame, found));
        }
        let copy = if owner != top {
            FaultOutcome::CowCopied
        } else if self.phys.frame(frame)?.out_count() > 0 {
            FaultOutcome::TcowCopied
        } else {
            return Ok((frame, found));
        };
        let new = self.alloc_frame(Some(top.0), false)?;
        self.phys.copy(frame, 0, new, 0, self.page_size())?;
        if let Some(old) = self.object_mut(top).set_page(idx, new) {
            let _ = self.phys.dealloc(old);
        }
        Ok((new, copy))
    }

    /// Handles a fault at virtual page `vpn` in `space`.
    ///
    /// Implements the paper's modified fault processing: recovery is
    /// only attempted in unmovable or moved-in regions (Section 4,
    /// region hiding); write faults on pages found in the top object
    /// take the TCOW paths (Section 5.1); pages found below the top
    /// take the conventional COW path.
    pub fn handle_fault(
        &mut self,
        space: SpaceId,
        vpn: u64,
        access: Access,
    ) -> Result<FaultOutcome, VmError> {
        self.handle_fault_opts(space, vpn, access, false)
    }

    /// [`Vm::handle_fault`] with a hot-path hint: `full_write` promises
    /// the caller is about to overwrite every byte of the page before
    /// anything can observe it, so a first-touch fault may skip the
    /// zero-fill memset. Every outcome, statistic, and mapping is
    /// identical to the plain fault path — the page logically passes
    /// through the all-zero state, it just never has to be written
    /// twice.
    fn handle_fault_opts(
        &mut self,
        space: SpaceId,
        vpn: u64,
        access: Access,
        full_write: bool,
    ) -> Result<FaultOutcome, VmError> {
        let out = self.fault_inner(space, vpn, access, full_write)?;
        self.stats.faults_handled += 1;
        match out {
            FaultOutcome::TcowCopied => self.stats.tcow_copies += 1,
            FaultOutcome::CowCopied => self.stats.cow_copies += 1,
            FaultOutcome::ZeroFilled => self.stats.zero_fills += 1,
            FaultOutcome::PagedIn => self.stats.pages_paged_in += 1,
            _ => {}
        }
        Ok(out)
    }

    fn fault_inner(
        &mut self,
        space: SpaceId,
        vpn: u64,
        access: Access,
        full_write: bool,
    ) -> Result<FaultOutcome, VmError> {
        let vaddr = vpn * self.page_size() as u64;
        let Some((region, pte)) = self.space(space).mapping(vpn) else {
            return Err(VmError::UnrecoverableFault { vaddr, mark: None });
        };
        if !region.mark.recoverable() {
            return Err(VmError::UnrecoverableFault {
                vaddr,
                mark: Some(region.mark),
            });
        }
        let write = access == Access::Write;
        if write && !region.writable {
            return Err(VmError::ProtectionViolation(vaddr));
        }
        let (top, idx, writable) = (region.object, region.object_page(vpn), region.writable);
        if pte.is_some_and(|p| p.allows(access)) {
            return Ok(FaultOutcome::NoFault);
        }
        // A no-access PTE (e.g. left by an invalidation in a now
        // recoverable region) is rebuilt from the object like a missing
        // one.
        let (frame, out) = self.resolve_page(top, idx, write, !full_write)?;
        // After a write the resolver leaves `top`'s own page with no
        // output references, copying it up if need be.
        let private = write || self.private_page(top, idx, frame)?;
        self.space_mut(space).set_pte(
            vpn,
            Pte {
                frame,
                read: true,
                write: writable && private,
            },
        );
        // A write on a readable mapping of a page no output references
        // any more: the cheap TCOW path, writing simply re-enabled.
        Ok(match out {
            FaultOutcome::Mapped if pte.is_some_and(|p| p.read) => FaultOutcome::WriteEnabled,
            out => out,
        })
    }

    /// True if a PTE may map `frame` writable: `top`'s own page, unread by output.
    fn private_page(&self, top: ObjectId, idx: u64, frame: FrameId) -> Result<bool, VmError> {
        Ok(self.object(top).page(idx) == Some(frame) && self.phys.frame(frame)?.out_count() == 0)
    }

    // ----- application memory access -------------------------------------------

    /// Walks the application range `[vaddr, vaddr + len)` page by page
    /// as the MMU would: where a page's PTE does not allow `access`, the
    /// page is faulted in first and the outcome appended to
    /// [`Vm::last_faults`]. `store` says the caller writes every byte it
    /// is handed, so a fault on a page the range covers whole may skip
    /// the zero-fill. `f` gets the mapped frame, the offset within the
    /// page, the chunk length and the chunk's offset within the range,
    /// and returns whether to go on. Returns false if `f` stopped the
    /// walk.
    fn walk_app<F>(
        &mut self,
        space: SpaceId,
        vaddr: u64,
        len: usize,
        access: Access,
        store: bool,
        mut f: F,
    ) -> Result<bool, VmError>
    where
        F: FnMut(&mut Self, FrameId, usize, usize, usize) -> Result<bool, VmError>,
    {
        self.faults.clear();
        let page = self.page_size();
        let mut pos = 0;
        while pos < len {
            let addr = vaddr + pos as u64;
            let vpn = addr / page as u64;
            let off = (addr % page as u64) as usize;
            let chunk = (page - off).min(len - pos);
            let mut pte = self.space(space).pte(vpn).filter(|p| p.allows(access));
            if pte.is_none() {
                let out = self.handle_fault_opts(space, vpn, access, store && chunk == page)?;
                self.faults.push(out);
                pte = self.space(space).pte(vpn);
            }
            let frame = pte.expect("mapped after fault").frame;
            if !f(self, frame, off, chunk, pos)? {
                return Ok(false);
            }
            pos += chunk;
        }
        Ok(true)
    }

    /// Simulates the application reading `len` bytes at `vaddr`,
    /// faulting pages in as hardware would.
    pub fn read_app(&mut self, space: SpaceId, vaddr: u64, len: usize) -> Result<Vec<u8>, VmError> {
        let mut out = Vec::with_capacity(len);
        self.walk_app(
            space,
            vaddr,
            len,
            Access::Read,
            false,
            |vm, frame, off, n, _| {
                out.extend_from_slice(vm.phys.read(frame, off, n)?);
                Ok(true)
            },
        )?;
        Ok(out)
    }

    /// Simulates the application writing `data` at `vaddr`, faulting
    /// pages (and resolving TCOW/COW) as hardware would.
    pub fn write_app(&mut self, space: SpaceId, vaddr: u64, data: &[u8]) -> Result<(), VmError> {
        self.walk_app(
            space,
            vaddr,
            data.len(),
            Access::Write,
            true,
            |vm, frame, off, n, pos| {
                vm.phys.write(frame, off, &data[pos..pos + n])?;
                Ok(true)
            },
        )?;
        Ok(())
    }

    /// Copies `len` application bytes at `vaddr` straight into the
    /// given kernel frames (page-sized, data starting at offset 0 —
    /// the layout of a copy-semantics system buffer), faulting source
    /// pages in exactly as [`Vm::read_app`] would. One fused
    /// physical-to-physical pass per page: the intermediate `Vec` a
    /// read-then-write copyin materializes is pure overhead on the
    /// datapath.
    pub fn copy_app_into_frames(
        &mut self,
        space: SpaceId,
        vaddr: u64,
        len: usize,
        frames: &[FrameId],
    ) -> Result<(), VmError> {
        let page = self.page_size();
        self.walk_app(
            space,
            vaddr,
            len,
            Access::Read,
            false,
            |vm, frame, off, n, pos| {
                // `pos` is also the byte offset into the destination buffer.
                let (mut src, mut dst, end) = (off, pos, pos + n);
                while dst < end {
                    let k = (end - dst).min(page - dst % page);
                    vm.phys
                        .copy(frame, src, frames[dst / page], dst % page, k)?;
                    src += k;
                    dst += k;
                }
                Ok(true)
            },
        )?;
        Ok(())
    }

    /// Copies scattered physical source ranges (`(frame, offset, len)`
    /// triples, in order) into the application range at `vaddr`,
    /// faulting destination pages exactly as [`Vm::write_app`] would.
    /// The fused mirror of [`Vm::copy_app_into_frames`] for the
    /// receive-side copyout: no intermediate contiguous buffer, and the
    /// source list may be computed on the fly.
    pub fn copy_iovecs_into_app<I>(
        &mut self,
        space: SpaceId,
        vaddr: u64,
        srcs: I,
    ) -> Result<(), VmError>
    where
        I: IntoIterator<Item = (FrameId, usize, usize)>,
        I::IntoIter: Clone,
    {
        let mut it = srcs.into_iter();
        let len: usize = it.clone().map(|(_, _, n)| n).sum();
        let (mut sf, mut soff, mut srem) = (FrameId(0), 0usize, 0usize);
        self.walk_app(
            space,
            vaddr,
            len,
            Access::Write,
            true,
            |vm, frame, off, n, _| {
                let (mut dst, end) = (off, off + n);
                while dst < end {
                    if srem == 0 {
                        (sf, soff, srem) = it.next().expect("source iovecs cover the write");
                    }
                    let k = (end - dst).min(srem);
                    vm.phys.copy(sf, soff, frame, dst, k)?;
                    soff += k;
                    srem -= k;
                    dst += k;
                }
                Ok(true)
            },
        )?;
        Ok(())
    }

    /// Compares `expected` against the application bytes at `vaddr`
    /// in place (no materialized copy), faulting pages exactly as
    /// [`Vm::read_app`] would. Returns whether every byte matched;
    /// stops at the first differing chunk.
    pub fn app_matches(
        &mut self,
        space: SpaceId,
        vaddr: u64,
        expected: &[u8],
    ) -> Result<bool, VmError> {
        self.walk_app(
            space,
            vaddr,
            expected.len(),
            Access::Read,
            false,
            |vm, frame, off, n, pos| Ok(vm.phys.read(frame, off, n)? == &expected[pos..pos + n]),
        )
    }

    // ----- side-effect-free observation ------------------------------------------

    /// Resolves the bytes an application read of page `vpn` would
    /// observe, **without** mutating any VM state: no PTE is installed,
    /// no page is faulted in or zero-filled, no statistic moves.
    ///
    /// The rules mirror [`Vm::handle_fault`] for a read access:
    /// a readable PTE observes its frame; a missing or no-access PTE
    /// recovers from the object chain only in a recoverable region
    /// (unmovable or moved-in — Section 4 region hiding), observing a
    /// resident frame, the paged-out copy, or zeros for a never-touched
    /// page; everything else is a fault the application cannot recover
    /// from, reported as [`PagePeek::Denied`].
    ///
    /// This is the probe primitive of the model-differential harness:
    /// because it is side-effect free, probing after every operation
    /// cannot perturb the state it is checking.
    pub fn peek_page(&self, space: SpaceId, vpn: u64) -> PagePeek<'_> {
        let page = self.page_size();
        let Some((region, pte)) = self.space(space).mapping(vpn) else {
            return PagePeek::Denied;
        };
        if let Some(pte) = pte.filter(|p| p.read) {
            return PagePeek::Bytes(
                self.phys
                    .read(pte.frame, 0, page)
                    .expect("mapped frame exists"),
            );
        }
        // No usable mapping: a real access would fault, and recovery is
        // only attempted in unmovable or moved-in regions.
        if !region.mark.recoverable() {
            return PagePeek::Denied;
        }
        let idx = region.object_page(vpn);
        match self.locate_page(region.object, idx) {
            Some((_, PageLoc::Resident(f))) => {
                PagePeek::Bytes(self.phys.read(f, 0, page).expect("resident frame exists"))
            }
            Some((owner, PageLoc::Paged)) => {
                PagePeek::Bytes(self.object(owner).paged(idx).expect("paged contents exist"))
            }
            None => PagePeek::Zeros,
        }
    }

    /// Side-effect-free counterpart of [`Vm::read_app`]: the bytes an
    /// application read of `[vaddr, vaddr + len)` would observe, or
    /// `None` if any page of the range would fault unrecoverably.
    pub fn peek(&self, space: SpaceId, vaddr: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let page = self.page_size() as u64;
        let mut addr = vaddr;
        let end = vaddr + len as u64;
        while addr < end {
            let vpn = addr / page;
            let off = (addr % page) as usize;
            let chunk = ((page - addr % page) as usize).min((end - addr) as usize);
            match self.peek_page(space, vpn) {
                PagePeek::Bytes(b) => out.extend_from_slice(&b[off..off + chunk]),
                PagePeek::Zeros => out.resize(out.len() + chunk, 0),
                PagePeek::Denied => return None,
            }
            addr += chunk as u64;
        }
        Some(out)
    }

    // ----- page referencing (Section 3.1) ---------------------------------------

    /// Prepares an I/O descriptor over `[vaddr, vaddr+len)`: faults
    /// pages in with the access the device needs (write for input,
    /// read for output), verifies access rights, and bumps per-frame —
    /// and, for input, per-object — reference counts.
    ///
    /// The faults taken are left in [`Vm::last_faults`], but no caller
    /// charges them: the policy layer charges referencing per page
    /// (`Op::Reference`), whatever it faulted in, so a zero-fill or a
    /// COW copy forced by input referencing (paper Section 3.3) costs
    /// no simulated time of its own.
    pub fn reference_pages(
        &mut self,
        space: SpaceId,
        vaddr: u64,
        len: usize,
        dir: IoDir,
    ) -> Result<IoDescriptor, VmError> {
        let access = match dir {
            IoDir::Input => Access::Write,
            IoDir::Output => Access::Read,
        };
        let page = self.page_size() as u64;
        let mut vecs = self.take_vecs();
        self.walk_app(
            space,
            vaddr,
            len,
            access,
            false,
            |vm, frame, offset, n, pos| {
                let vpn = (vaddr + pos as u64) / page;
                let object = vm.space(space).region_covering(vpn).map(|r| r.object);
                vm.phys.ref_io(frame, dir)?;
                if dir == IoDir::Input {
                    if let Some(oid) = object {
                        vm.object_mut(oid).add_input_ref();
                    }
                }
                vecs.push(IoVec {
                    frame,
                    offset,
                    len: n,
                    object,
                });
                Ok(true)
            },
        )?;
        Ok(IoDescriptor { vecs, dir })
    }

    /// References the pages backing `[offset, offset+len)` of a
    /// region, at the object level (kernel privilege). Used for
    /// system-allocated buffers whose user mappings may be hidden or
    /// in transit (marks `MovingIn`/`MovedOut`), where PTE-based
    /// referencing would be refused.
    ///
    /// Stale PTEs left by earlier copy-ups are repointed (permission
    /// bits preserved) so weak-semantics applications keep observing
    /// the live page.
    pub fn reference_region_pages(
        &mut self,
        handle: RegionHandle,
        offset: usize,
        len: usize,
        dir: IoDir,
    ) -> Result<IoDescriptor, VmError> {
        let region = self.region(handle)?;
        let (start_vpn, npages, top, obj_off) = (
            region.start_vpn,
            region.npages,
            region.object,
            region.object_offset,
        );
        let page = self.page_size();
        if offset + len > npages as usize * page {
            return Err(VmError::BadRange);
        }
        let mut vecs = self.take_vecs();
        self.faults.clear();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let i = (pos / page) as u64;
            let off_in_page = pos % page;
            let chunk = (page - off_in_page).min(end - pos);
            let (frame, outcome) =
                self.resolve_page(top, obj_off + i, dir == IoDir::Input, true)?;
            if outcome != FaultOutcome::Mapped {
                self.faults.push(outcome);
            }
            if let Some(p) = self.space_mut(handle.space).pte_mut(start_vpn + i) {
                p.frame = frame;
            }
            self.phys.ref_io(frame, dir)?;
            if dir == IoDir::Input {
                self.object_mut(top).add_input_ref();
            }
            vecs.push(IoVec {
                frame,
                offset: off_in_page,
                len: chunk,
                object: Some(top),
            });
            pos += chunk;
        }
        Ok(IoDescriptor { vecs, dir })
    }

    /// References kernel-owned frames (system/overlay buffers) for I/O;
    /// `frames` yields `(frame, offset, len)` triples in buffer order.
    pub fn reference_frames(
        &mut self,
        frames: impl IntoIterator<Item = (FrameId, usize, usize)>,
        dir: IoDir,
    ) -> Result<IoDescriptor, VmError> {
        let mut vecs = self.take_vecs();
        for (frame, offset, len) in frames {
            self.phys.ref_io(frame, dir)?;
            vecs.push(IoVec {
                frame,
                offset,
                len,
                object: None,
            });
        }
        Ok(IoDescriptor { vecs, dir })
    }

    /// Releases an I/O descriptor: drops frame counts (freeing zombie
    /// frames) and per-object input counts. The descriptor's list is
    /// kept for the next page reference.
    pub fn unreference(&mut self, desc: IoDescriptor) -> Result<(), VmError> {
        let IoDescriptor { mut vecs, dir } = desc;
        for v in &vecs {
            self.phys.unref_io(v.frame, dir)?;
            if dir == IoDir::Input {
                if let Some(oid) = v.object {
                    // The object may have died mid-I/O (region removed
                    // by the application); that is fine — the frame
                    // counts already protected the pages.
                    if let Some(obj) = self.objects.get_mut(oid.0) {
                        obj.drop_input_ref();
                    }
                }
            }
        }
        vecs.clear();
        self.spare_vecs.push(vecs);
        Ok(())
    }

    // ----- protection changes (TCOW, region hiding) ------------------------------

    /// Removes write permission from the PTEs covering the range (the
    /// `read-only` operation of Table 2; the arming half of TCOW).
    pub fn write_protect(&mut self, space: SpaceId, vaddr: u64, len: usize) {
        let page = self.page_size() as u64;
        let first = vaddr / page;
        let last = (vaddr + len as u64).div_ceil(page);
        for vpn in first..last {
            if let Some(p) = self.space_mut(space).pte_mut(vpn) {
                p.write = false;
            }
        }
    }

    /// Removes all access permissions from a region's PTEs (the
    /// `invalidate` operation; region hiding keeps the PTEs present so
    /// reinstatement is cheap).
    pub fn invalidate_region(&mut self, handle: RegionHandle) -> Result<(), VmError> {
        let region = self.region(handle)?;
        let (start, end) = (region.start_vpn, region.end_vpn());
        for vpn in start..end {
            self.space_mut(handle.space).set_prot(vpn, false, false);
        }
        self.stats.region_invalidations += 1;
        Ok(())
    }

    /// Reinstates read/write access on a hidden region's PTEs
    /// (emulated move input dispose).
    pub fn reinstate_region(&mut self, handle: RegionHandle) -> Result<(), VmError> {
        let region = self.region(handle)?;
        let (start, end, writable) = (region.start_vpn, region.end_vpn(), region.writable);
        for vpn in start..end {
            self.space_mut(handle.space).set_prot(vpn, true, writable);
        }
        self.stats.region_reinstates += 1;
        Ok(())
    }

    // ----- wiring ----------------------------------------------------------------

    /// Wires a region: ensures every page is resident (kernel
    /// privilege — works on regions in transit too), installs missing
    /// PTEs (writable only where the fault path would make them so), and
    /// pins the region against pageout. Returns the number of pages
    /// that had to be made resident or mapped.
    pub fn wire_region(&mut self, handle: RegionHandle) -> Result<u64, VmError> {
        let region = self.region(handle)?;
        let (start, npages, top, obj_off, writable) = (
            region.start_vpn,
            region.npages,
            region.object,
            region.object_offset,
            region.writable,
        );
        let mut faulted = 0;
        for i in 0..npages {
            let vpn = start + i;
            let had_pte = self.space(handle.space).pte(vpn).is_some();
            let (frame, outcome) = self.resolve_page(top, obj_off + i, false, true)?;
            if !had_pte {
                let write = writable && self.private_page(top, obj_off + i, frame)?;
                self.space_mut(handle.space).set_pte(
                    vpn,
                    Pte {
                        frame,
                        read: true,
                        write,
                    },
                );
            }
            if !had_pte || outcome != FaultOutcome::Mapped {
                faulted += 1;
            }
        }
        self.region_mut(handle)?.wire_count += 1;
        self.stats.region_wires += 1;
        Ok(faulted)
    }

    /// Unwires a region.
    pub fn unwire_region(&mut self, handle: RegionHandle) -> Result<(), VmError> {
        let r = self.region_mut(handle)?;
        if r.wire_count == 0 {
            return Err(VmError::WireUnderflow);
        }
        r.wire_count -= 1;
        self.stats.region_unwires += 1;
        Ok(())
    }

    // ----- page swapping (input alignment, Section 5.2) ---------------------------

    /// Swaps system frame `new_frame` into the page backing `vpn`:
    /// replaces the object's frame, updates the PTE, and returns the
    /// displaced frame (deallocated here with I/O-deferred semantics),
    /// or `None` when the page had never been touched.
    pub fn swap_page(
        &mut self,
        space: SpaceId,
        vpn: u64,
        new_frame: FrameId,
    ) -> Result<Option<FrameId>, VmError> {
        let region = self
            .space(space)
            .region_covering(vpn)
            .ok_or(VmError::NoRegion(vpn * self.page_size() as u64))?;
        let top = region.object;
        let idx = region.object_page(vpn);
        let writable = region.writable;
        self.phys.frame_mut(new_frame)?.set_owner(Some(top.0));
        let old = self.object_mut(top).set_page(idx, new_frame);
        self.space_mut(space).set_pte(
            vpn,
            Pte {
                frame: new_frame,
                read: true,
                write: writable,
            },
        );
        // Swapping into a never-touched page simply installs the new
        // frame; otherwise the displaced frame is freed (I/O-deferred).
        if let Some(old) = old {
            let _ = self.phys.dealloc(old);
        }
        self.stats.page_swaps += 1;
        Ok(old)
    }

    // ----- region filling / mapping (move semantics) -------------------------------

    /// Installs `frames`, in page order, as the object pages of
    /// `handle`'s region (move-semantics input: "fill region").
    pub fn fill_region(
        &mut self,
        handle: RegionHandle,
        frames: impl IntoIterator<Item = FrameId>,
    ) -> Result<(), VmError> {
        let region = self.region(handle)?;
        let (object, offset, npages) = (region.object, region.object_offset, region.npages);
        for (i, f) in frames.into_iter().enumerate() {
            debug_assert!((i as u64) < npages, "more frames than region pages");
            self.phys.frame_mut(f)?.set_owner(Some(object.0));
            if let Some(old) = self.object_mut(object).set_page(offset + i as u64, f) {
                let _ = self.phys.dealloc(old);
            }
        }
        Ok(())
    }

    /// Maps every resident object page of the region into the page
    /// table (move-semantics input: "map region").
    pub fn map_region(&mut self, handle: RegionHandle) -> Result<u64, VmError> {
        let region = self.region(handle)?;
        let (start, npages, object, offset, writable) = (
            region.start_vpn,
            region.npages,
            region.object,
            region.object_offset,
            region.writable,
        );
        let mut mapped = 0;
        for i in 0..npages {
            if let Some(frame) = self.object(object).page(offset + i) {
                self.space_mut(handle.space).set_pte(
                    start + i,
                    Pte {
                        frame,
                        read: true,
                        write: writable,
                    },
                );
                mapped += 1;
            }
        }
        Ok(mapped)
    }

    /// Checks that a cached region prepared for input is still intact
    /// in the application address space (paper Section 6.2.1: the
    /// application may have removed it, advertently or not).
    pub fn check_region(&self, handle: RegionHandle, npages: u64) -> bool {
        self.space(handle.space)
            .region(handle.start_vpn)
            .is_some_and(|r| r.npages == npages && self.object_live(r.object))
    }

    // ----- COW cloning (input-disabled COW, Section 3.3) ----------------------------

    /// Clones `src` region into `dst_space` with copy semantics.
    ///
    /// Normally sets up conventional COW via fresh shadow objects; but
    /// if any object in the source chain has pending input references,
    /// COW would actually give share semantics (DMA writes bypass write
    /// faults), so the clone degrades to a physical copy. Returns the
    /// new region and whether the physical-copy path was taken.
    pub fn clone_region_cow(
        &mut self,
        src: RegionHandle,
        dst_space: SpaceId,
    ) -> Result<(RegionHandle, bool), VmError> {
        let src_region = self.region(src)?;
        let (npages, src_obj, src_off, start_vpn) = (
            src_region.npages,
            src_region.object,
            src_region.object_offset,
            src_region.start_vpn,
        );

        if self.chain_input_refs(src_obj) > 0 {
            // Input-disabled COW: physical copy.
            let new_handle = self.alloc_region(dst_space, npages, RegionMark::Unmovable)?;
            let new_obj = self.region(new_handle)?.object;
            let page = self.page_size();
            for i in 0..npages {
                // Paged-out pages must be copied too (paged in at their
                // owning level first).
                if let Some((_, frame, _)) = self.fetch_page(src_obj, src_off + i)? {
                    let copy = self.alloc_frame(Some(new_obj.0), false)?;
                    self.phys.copy(frame, 0, copy, 0, page)?;
                    self.object_mut(new_obj).set_page(i, copy);
                }
            }
            return Ok((new_handle, true));
        }

        // Conventional COW: both sides get fresh shadows over src_obj.
        let s_src = self.create_object();
        let s_dst = self.create_object();
        self.object_mut(s_src).set_shadow(Some(src_obj));
        self.object_mut(s_dst).set_shadow(Some(src_obj));
        // src_obj gains one reference (two shadows replace the region's
        // single direct reference).
        self.object_mut(src_obj).add_ref();
        self.region_mut(src)?.object = s_src;
        // Keep the original object offset visible through the shadow.
        self.region_mut(src)?.object_offset = src_off;

        let dst_start = self.space_mut(dst_space).reserve(npages);
        let mut dst_region = Region::new(dst_start, npages, s_dst, RegionMark::Unmovable);
        dst_region.object_offset = src_off;
        self.space_mut(dst_space).insert_region(dst_region)?;

        // Demote source write permissions so writes fault and copy up.
        for vpn in start_vpn..start_vpn + npages {
            if let Some(p) = self.space_mut(src.space).pte_mut(vpn) {
                p.write = false;
            }
        }
        Ok((
            RegionHandle {
                space: dst_space,
                start_vpn: dst_start,
            },
            false,
        ))
    }

    /// Sums pending input references along an object's shadow chain.
    pub fn chain_input_refs(&self, top: ObjectId) -> u32 {
        let mut total = 0;
        let mut cur = Some(top);
        while let Some(oid) = cur {
            let obj = self.object(oid);
            total += obj.input_refs();
            cur = obj.shadow();
        }
        total
    }

    /// Checks structural invariants of the whole VM; returns a list of
    /// violations (empty when consistent). Used by the property tests.
    ///
    /// Invariants:
    /// 1. every PTE maps a non-free frame;
    /// 2. every region's top object exists;
    /// 3. every resident object page is a non-free frame;
    /// 4. a PTE inside a region maps the frame its object chain
    ///    resolves to for that page.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (key, obj) in self.objects.iter() {
            let id = ObjectId(key);
            for (idx, frame) in obj.pages() {
                match self.phys.frame(frame) {
                    Ok(f) if f.state() == genie_mem::FrameState::Free => {
                        problems.push(format!("{id:?} page {idx} maps free frame {frame:?}"))
                    }
                    Ok(_) => {}
                    Err(e) => problems.push(format!("{id:?} page {idx}: {e}")),
                }
            }
        }
        for space in &self.spaces {
            for (region, mapped) in space.mappings() {
                if !self.object_live(region.object) {
                    problems.push(format!(
                        "region at vpn {} references dead {:?}",
                        region.start_vpn, region.object
                    ));
                    continue;
                }
                for (vpn, pte) in mapped {
                    match self.phys.frame(pte.frame) {
                        Ok(f) if f.state() == genie_mem::FrameState::Free => {
                            problems.push(format!("vpn {vpn} in {:?} maps free frame", space.id()))
                        }
                        Ok(_) => {}
                        Err(e) => problems.push(format!("vpn {vpn}: {e}")),
                    }
                    let idx = region.object_page(vpn);
                    match self.locate_page(region.object, idx) {
                        Some((_, PageLoc::Resident(f))) if f == pte.frame => {}
                        Some((_, PageLoc::Resident(f))) => problems.push(format!(
                            "vpn {vpn} in {:?}: PTE maps {:?} but object chain resolves {f:?}",
                            space.id(),
                            pte.frame
                        )),
                        _ => problems.push(format!(
                            "vpn {vpn} in {:?}: PTE present but no object page",
                            space.id()
                        )),
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> (Vm, SpaceId) {
        let mut v = Vm::new(PhysMem::new(4096, 128));
        let s = v.create_space();
        (v, s)
    }

    #[test]
    fn zero_fill_on_first_touch() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 8192).unwrap();
        let data = v.read_app(s, va, 8192).unwrap();
        let faults = v.last_faults();
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(faults, vec![FaultOutcome::ZeroFilled; 2]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 10_000).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        v.write_app(s, va + 100, &payload[..5000]).unwrap();
        let got = v.read_app(s, va + 100, 5000).unwrap();
        assert_eq!(got, &payload[..5000]);
    }

    #[test]
    fn access_outside_any_region_is_unrecoverable() {
        let (mut v, s) = vm();
        let err = v.read_app(s, 0, 1).unwrap_err();
        assert!(matches!(err, VmError::UnrecoverableFault { .. }));
    }

    #[test]
    fn moved_out_region_faults_unrecoverably() {
        let (mut v, s) = vm();
        let h = v.alloc_region(s, 2, RegionMark::MovedIn).unwrap();
        let va = h.start_vpn * 4096;
        v.write_app(s, va, b"x").unwrap();
        v.mark_region(h, RegionMark::MovedOut).unwrap();
        v.invalidate_region(h).unwrap();
        let err = v.read_app(s, va, 1).unwrap_err();
        assert_eq!(
            err,
            VmError::UnrecoverableFault {
                vaddr: va,
                mark: Some(RegionMark::MovedOut)
            }
        );
    }

    #[test]
    fn region_hiding_reinstates_without_refault() {
        let (mut v, s) = vm();
        let h = v.alloc_region(s, 2, RegionMark::MovedIn).unwrap();
        let va = h.start_vpn * 4096;
        v.write_app(s, va, b"persistent").unwrap();
        v.mark_region(h, RegionMark::MovedOut).unwrap();
        v.invalidate_region(h).unwrap();
        v.mark_region(h, RegionMark::MovedIn).unwrap();
        v.reinstate_region(h).unwrap();
        let got = v.read_app(s, va, 10).unwrap();
        let faults = v.last_faults();
        assert_eq!(&got, b"persistent");
        assert!(faults.is_empty(), "reinstated PTEs must not refault");
    }

    #[test]
    fn tcow_write_during_output_copies_page() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"original").unwrap();
        // Arm TCOW: reference for output + write-protect.
        let desc = v.reference_pages(s, va, 4096, IoDir::Output).unwrap();
        v.write_protect(s, va, 4096);
        let out_frame = desc.vecs[0].frame;
        // Application overwrites during output.
        v.write_app(s, va, b"modified").unwrap();
        let faults = v.last_faults();
        assert_eq!(faults, vec![FaultOutcome::TcowCopied]);
        // The in-flight frame still holds the original data.
        assert_eq!(v.phys.read(out_frame, 0, 8).unwrap(), b"original");
        // The application sees its own write.
        let got = v.read_app(s, va, 8).unwrap();
        assert_eq!(&got, b"modified");
        // Output completes: old frame (displaced, zombie) is freed.
        let free_before = v.phys.free_frames();
        v.unreference(desc).unwrap();
        assert_eq!(v.phys.free_frames(), free_before + 1);
    }

    #[test]
    fn tcow_write_after_output_just_reenables() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"original").unwrap();
        let desc = v.reference_pages(s, va, 4096, IoDir::Output).unwrap();
        v.write_protect(s, va, 4096);
        // Output completes before the application writes.
        v.unreference(desc).unwrap();
        v.write_app(s, va, b"modified").unwrap();
        let faults = v.last_faults();
        assert_eq!(faults, vec![FaultOutcome::WriteEnabled]);
        let got = v.read_app(s, va, 8).unwrap();
        assert_eq!(&got, b"modified");
    }

    #[test]
    fn conventional_cow_after_clone() {
        let (mut v, s1) = vm();
        let s2 = v.create_space();
        let va = v.alloc_app_buffer(s1, 8192).unwrap();
        v.write_app(s1, va, b"shared page contents").unwrap();
        let h1 = v.region_at(s1, va).unwrap();
        let (h2, physical) = v.clone_region_cow(h1, s2).unwrap();
        assert!(!physical, "no pending input: conventional COW expected");
        let va2 = h2.start_vpn * 4096;
        // Reader in s2 sees the shared contents without copying.
        let got = v.read_app(s2, va2, 20).unwrap();
        assert_eq!(&got, b"shared page contents");
        // Writer in s1 triggers a COW copy; s2 still sees old data.
        v.write_app(s1, va, b"CHANGED").unwrap();
        let faults = v.last_faults();
        assert!(faults.contains(&FaultOutcome::CowCopied), "{faults:?}");
        let got2 = v.read_app(s2, va2, 20).unwrap();
        assert_eq!(&got2, b"shared page contents");
        let got1 = v.read_app(s1, va, 7).unwrap();
        assert_eq!(&got1, b"CHANGED");
    }

    #[test]
    fn input_disabled_cow_degrades_to_physical_copy() {
        let (mut v, s1) = vm();
        let s2 = v.create_space();
        let va = v.alloc_app_buffer(s1, 4096).unwrap();
        v.write_app(s1, va, b"before dma").unwrap();
        // Pending DMA input into the source region.
        let desc = v.reference_pages(s1, va, 4096, IoDir::Input).unwrap();
        let h1 = v.region_at(s1, va).unwrap();
        let (h2, physical) = v.clone_region_cow(h1, s2).unwrap();
        assert!(physical, "pending input must force a physical copy");
        // Simulated DMA lands after the clone.
        v.phys.write(desc.vecs[0].frame, 0, b"after dma!").unwrap();
        v.unreference(desc).unwrap();
        // The clone must NOT observe the DMA (copy semantics).
        let got = v.read_app(s2, h2.start_vpn * 4096, 10).unwrap();
        assert_eq!(&got, b"before dma");
        // The original does observe it.
        let got1 = v.read_app(s1, va, 10).unwrap();
        assert_eq!(&got1, b"after dma!");
    }

    #[test]
    fn input_referencing_forces_private_copy_of_cow_page() {
        // Paper Section 3.3: COW before in-place input needs no special
        // handling because input referencing verifies write access,
        // faulting in a private writable copy.
        let (mut v, s1) = vm();
        let s2 = v.create_space();
        let va = v.alloc_app_buffer(s1, 4096).unwrap();
        v.write_app(s1, va, b"original").unwrap();
        let h1 = v.region_at(s1, va).unwrap();
        let (h2, _) = v.clone_region_cow(h1, s2).unwrap();
        // Input into the COW source region.
        let desc = v.reference_pages(s1, va, 4096, IoDir::Input).unwrap();
        let faults = v.last_faults();
        assert!(faults.contains(&FaultOutcome::CowCopied), "{faults:?}");
        v.phys.write(desc.vecs[0].frame, 0, b"dma data").unwrap();
        v.unreference(desc).unwrap();
        // The clone still sees the original data.
        let got = v.read_app(s2, h2.start_vpn * 4096, 8).unwrap();
        assert_eq!(&got, b"original");
        let got1 = v.read_app(s1, va, 8).unwrap();
        assert_eq!(&got1, b"dma data");
    }

    #[test]
    fn swap_page_replaces_frame_and_frees_old() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"old app page").unwrap();
        let sys = v.phys.alloc(None).unwrap();
        v.phys.write(sys, 0, b"system page!").unwrap();
        let free_before = v.phys.free_frames();
        let old = v.swap_page(s, va / 4096, sys).unwrap().expect("displaced");
        assert_eq!(v.phys.free_frames(), free_before + 1);
        let got = v.read_app(s, va, 12).unwrap();
        let faults = v.last_faults();
        assert_eq!(&got, b"system page!");
        assert!(faults.is_empty(), "swap must leave a valid mapping");
        assert_eq!(
            v.phys.frame(old).unwrap().state(),
            genie_mem::FrameState::Free
        );
    }

    #[test]
    fn remove_region_with_pending_output_defers_frames() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"in flight").unwrap();
        let desc = v.reference_pages(s, va, 4096, IoDir::Output).unwrap();
        let frame = desc.vecs[0].frame;
        let h = v.region_at(s, va).unwrap();
        // Malicious/unlucky app frees the buffer mid-I/O.
        v.remove_region(h).unwrap();
        assert_eq!(
            v.phys.frame(frame).unwrap().state(),
            genie_mem::FrameState::Zombie
        );
        // Data still intact for the device.
        assert_eq!(v.phys.read(frame, 0, 9).unwrap(), b"in flight");
        v.unreference(desc).unwrap();
        assert_eq!(
            v.phys.frame(frame).unwrap().state(),
            genie_mem::FrameState::Free
        );
    }

    #[test]
    fn wire_unwire_balance_enforced() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 8192).unwrap();
        let h = v.region_at(s, va).unwrap();
        assert_eq!(v.wire_region(h).unwrap(), 2);
        assert!(v.region(h).unwrap().is_wired());
        v.unwire_region(h).unwrap();
        assert_eq!(v.unwire_region(h), Err(VmError::WireUnderflow));
    }

    #[test]
    fn fill_and_map_region_exposes_frames() {
        let (mut v, s) = vm();
        let h = v.alloc_region(s, 2, RegionMark::MovingIn).unwrap();
        let f1 = v.phys.alloc(None).unwrap();
        let f2 = v.phys.alloc(None).unwrap();
        v.phys.write(f1, 0, b"page one").unwrap();
        v.phys.write(f2, 0, b"page two").unwrap();
        v.fill_region(h, [f1, f2]).unwrap();
        assert_eq!(v.map_region(h).unwrap(), 2);
        v.mark_region(h, RegionMark::MovedIn).unwrap();
        let got = v.read_app(s, h.start_vpn * 4096, 8).unwrap();
        let faults = v.last_faults();
        assert_eq!(&got, b"page one");
        assert!(faults.is_empty());
        let got2 = v.read_app(s, (h.start_vpn + 1) * 4096, 8).unwrap();
        assert_eq!(&got2, b"page two");
    }

    #[test]
    fn check_region_detects_removal() {
        let (mut v, s) = vm();
        let h = v.alloc_region(s, 3, RegionMark::MovingIn).unwrap();
        assert!(v.check_region(h, 3));
        assert!(!v.check_region(h, 2));
        v.remove_region(h).unwrap();
        assert!(!v.check_region(h, 3));
    }

    #[test]
    fn write_to_readonly_region_rejected() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        let h = v.region_at(s, va).unwrap();
        v.region_mut(h).unwrap().writable = false;
        let err = v.write_app(s, va, b"nope").unwrap_err();
        assert_eq!(err, VmError::ProtectionViolation(va));
    }

    #[test]
    fn last_faults_lists_only_the_latest_call() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 3 * 4096).unwrap();
        v.write_app(s, va + 4000, &[1; 200]).unwrap();
        assert_eq!(v.last_faults(), [FaultOutcome::ZeroFilled; 2]);
        // A fault-free call empties the list instead of appending.
        assert!(v.app_matches(s, va + 4000, &[1; 200]).unwrap());
        assert!(v.last_faults().is_empty());
        let desc = v.reference_pages(s, va, 3 * 4096, IoDir::Input).unwrap();
        assert_eq!(v.last_faults(), [FaultOutcome::ZeroFilled]);
        v.unreference(desc).unwrap();
    }

    #[test]
    fn released_descriptors_and_objects_feed_their_pools() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 2 * 4096).unwrap();
        v.write_app(s, va, &[7; 2 * 4096]).unwrap();
        let desc = v.reference_pages(s, va, 2 * 4096, IoDir::Output).unwrap();
        assert_eq!(v.spare_vecs.len(), 0);
        v.unreference(desc).unwrap();
        assert_eq!(v.spare_vecs.len(), 1);
        // The next reference reuses the list.
        let desc = v.reference_pages(s, va, 4096, IoDir::Output).unwrap();
        assert_eq!(v.spare_vecs.len(), 0);
        assert!(desc.vecs.capacity() >= 2, "recycled list keeps its storage");
        v.unreference(desc).unwrap();

        let h = v.region_at(s, va).unwrap();
        v.remove_region(h).unwrap();
        assert_eq!(v.spare_page_tables.len(), 1);
        let fresh = v.alloc_app_buffer(s, 4096).unwrap();
        assert_eq!(
            v.spare_page_tables.len(),
            0,
            "object creation reuses the table"
        );
        // The recycled table starts empty: the new buffer zero-fills.
        assert_eq!(v.read_app(s, fresh, 4).unwrap(), [0; 4]);
        assert_eq!(v.last_faults(), [FaultOutcome::ZeroFilled]);
        assert!(v.validate().is_empty(), "{:?}", v.validate());
    }

    #[test]
    fn object_arena_is_sized_by_peak_live_objects() {
        let (mut v, s) = vm();
        let mut live = std::collections::VecDeque::new();
        for i in 0..10_000u32 {
            if live.len() == 4 {
                let h = live.pop_front().unwrap();
                v.remove_region(h).unwrap();
            }
            let va = v.alloc_app_buffer(s, 4096).unwrap();
            v.write_app(s, va, &i.to_le_bytes()).unwrap();
            live.push_back(v.region_at(s, va).unwrap());
        }
        assert_eq!(
            v.objects.slot_count(),
            4,
            "slots of released objects are reused"
        );
        assert!(v.validate().is_empty(), "{:?}", v.validate());
    }

    #[test]
    fn a_stale_object_id_resolves_to_nothing_after_its_slot_is_reused() {
        let (mut v, s) = vm();
        let old_va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, old_va, b"old").unwrap();
        let old = v.region_at(s, old_va).unwrap();
        let old_id = v.region(old).unwrap().object;
        // Input pending on the old object when its region is removed.
        let stale = v.reference_pages(s, old_va, 4096, IoDir::Input).unwrap();
        assert_eq!(stale.vecs[0].object, Some(old_id));
        v.remove_region(old).unwrap();

        let new_va = v.alloc_app_buffer(s, 4096).unwrap();
        let new_id = v.region(v.region_at(s, new_va).unwrap()).unwrap().object;
        assert_eq!(
            v.objects.slot_count(),
            1,
            "the new object took the old slot"
        );
        assert_ne!(new_id, old_id);
        assert!(!v.object_live(old_id) && v.object_live(new_id));

        // The stale descriptor's input reference must not land on the
        // slot's new object.
        let fresh = v.reference_pages(s, new_va, 4096, IoDir::Input).unwrap();
        assert_eq!(v.object(new_id).input_refs(), 1);
        v.unreference(stale).unwrap();
        assert_eq!(v.object(new_id).input_refs(), 1);
        v.unreference(fresh).unwrap();
        assert_eq!(v.object(new_id).input_refs(), 0);
        assert!(v.validate().is_empty(), "{:?}", v.validate());
    }

    /// A one-page region of `space`, written so it holds a frame.
    fn touched_region(v: &mut Vm, space: SpaceId) -> RegionHandle {
        let h = v.alloc_region(space, 1, RegionMark::MovedIn).unwrap();
        v.write_app(space, h.start_vpn * 4096, b"cached").unwrap();
        h
    }

    #[test]
    fn cache_keeps_at_most_the_spaces_input_demand() {
        let (mut v, s) = vm();
        let regions: Vec<_> = (0..3).map(|_| touched_region(&mut v, s)).collect();
        // No input ever took a region back from this space: it keeps
        // only its latest.
        for &h in &regions {
            v.cache_region(h, RegionMark::MovedOut).unwrap();
        }
        assert_eq!(v.space(s).cached_region_count(), 1);
        assert!(v.region(regions[2]).is_ok());
        for &h in &regions[..2] {
            assert!(v.region(h).is_err(), "older regions are reclaimed");
            assert!(v.space_mut(s).free_reclaimed(h.start_vpn));
            assert!(!v.space_mut(s).free_reclaimed(h.start_vpn));
        }
        // Caching a cached region again queues it once.
        v.cache_region(regions[2], RegionMark::MovedOut).unwrap();
        assert_eq!(v.space(s).cached_region_count(), 1);
        assert_eq!(v.stats().regions_reclaimed, 2);
        assert_eq!(v.stats().cached_regions_peak, 1);

        // Two inputs held at once raise the bound to two.
        for _ in 0..2 {
            assert_eq!(v.space_mut(s).uncache_region(9, RegionMark::MovedOut), None);
        }
        let more: Vec<_> = (0..3).map(|_| touched_region(&mut v, s)).collect();
        for &h in &more {
            v.space_mut(s).input_region_released();
            v.cache_region(h, RegionMark::MovedOut).unwrap();
        }
        assert_eq!(v.space(s).cached_region_count(), 2);
        assert!(v.validate().is_empty(), "{:?}", v.validate());
    }

    #[test]
    fn out_of_frames_reclaims_the_host_wide_oldest_cached_region_first() {
        let mut v = Vm::new(PhysMem::new(4096, 4));
        let (a, b) = (v.create_space(), v.create_space());
        // Space `a` once held three input regions, so it caches three.
        for _ in 0..3 {
            v.space_mut(a).uncache_region(9, RegionMark::MovedOut);
        }
        let oldest = touched_region(&mut v, a);
        let middle = touched_region(&mut v, b);
        let newest = touched_region(&mut v, a);
        for h in [oldest, middle, newest] {
            v.cache_region(h, RegionMark::WeaklyMovedOut).unwrap();
        }
        let app = v.alloc_app_buffer(b, 2 * 4096).unwrap();
        v.write_app(b, app, &[7; 4096]).unwrap();
        // Physical memory is full: the next fault reclaims `oldest`...
        v.write_app(b, app + 4096, &[7; 4096]).unwrap();
        assert!(v.region(oldest).is_err());
        assert!(v.region(middle).is_ok() && v.region(newest).is_ok());
        assert_eq!(v.peek(a, oldest.start_vpn * 4096, 1), None);
        // ...and a kernel allocation the next oldest, across spaces.
        v.alloc_frame(None, false).unwrap();
        assert!(v.region(middle).is_err() && v.region(newest).is_ok());
        assert_eq!(v.stats().regions_reclaimed, 2);
        assert!(v.validate().is_empty(), "{:?}", v.validate());
    }

    // ----- the resolution matrix ----------------------------------------------------

    /// Where the one page of a [`staged`] region lives.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Loc {
        Untouched,
        Top,
        PagedTop,
        Below,
        PagedBelow,
    }

    /// The PTE a [`staged`] region's page starts with.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum StartPte {
        NoPte,
        Readable,
        NoAccess,
    }

    const LOCS: [Loc; 5] = [
        Loc::Untouched,
        Loc::Top,
        Loc::PagedTop,
        Loc::Below,
        Loc::PagedBelow,
    ];
    const PTES: [StartPte; 3] = [StartPte::NoPte, StartPte::Readable, StartPte::NoAccess];

    /// The frame the region's object chain resolves its first page to.
    fn resident_frame(v: &Vm, h: RegionHandle) -> Option<FrameId> {
        match v.locate_page(v.region(h).unwrap().object, 0) {
            Some((_, PageLoc::Resident(f))) => Some(f),
            _ => None,
        }
    }

    /// A one-page unmovable region whose page sits at `loc`, with one
    /// pending output reference on its frame if `out` (taken before any
    /// pageout or clone), and starting PTE `pte`; `None` for a state no
    /// sequence of VM calls reaches (an output reference or a PTE needs
    /// a resident page).
    fn staged(loc: Loc, out: bool, pte: StartPte) -> Option<(Vm, RegionHandle)> {
        let paged = matches!(loc, Loc::PagedTop | Loc::PagedBelow);
        if (loc == Loc::Untouched && out)
            || ((loc == Loc::Untouched || paged) && pte != StartPte::NoPte)
        {
            return None;
        }
        let (mut v, s) = vm();
        let h = v.alloc_region(s, 1, RegionMark::Unmovable).unwrap();
        let va = h.start_vpn * 4096;
        if loc != Loc::Untouched {
            v.write_app(s, va, b"staged").unwrap();
        }
        if out {
            v.reference_pages(s, va, 4096, IoDir::Output).unwrap();
        }
        if paged {
            let stats = v
                .pageout_scan(1, crate::pageout::PageoutPolicy::InputDisabled)
                .unwrap();
            assert_eq!(stats.paged_out, 1);
        }
        if matches!(loc, Loc::Below | Loc::PagedBelow) {
            let other = v.create_space();
            v.clone_region_cow(h, other).unwrap();
        }
        match pte {
            StartPte::NoPte => {
                v.space_mut(s).clear_pte(h.start_vpn);
            }
            StartPte::Readable | StartPte::NoAccess => {
                let frame = resident_frame(&v, h).unwrap();
                let read = pte == StartPte::Readable;
                v.space_mut(s).set_pte(
                    h.start_vpn,
                    Pte {
                        frame,
                        read,
                        write: false,
                    },
                );
            }
        }
        Some((v, h))
    }

    /// Runs `call` on every reachable [`staged`] state and renders one
    /// row per state: the call's result, whether the resolved frame
    /// changed, the PTE left behind and the `VmStats` counters that
    /// moved.
    fn matrix_rows(name: &str, call: impl Fn(&mut Vm, RegionHandle) -> String) -> Vec<String> {
        let mut rows = Vec::new();
        for loc in LOCS {
            for out in [false, true] {
                for pte in PTES {
                    let Some((mut v, h)) = staged(loc, out, pte) else {
                        continue;
                    };
                    let (frame, before) = (resident_frame(&v, h), v.stats());
                    let result = call(&mut v, h);
                    let after = v.stats();
                    let moved: Vec<String> = [
                        ("faults", before.faults_handled, after.faults_handled),
                        ("tcow", before.tcow_copies, after.tcow_copies),
                        ("cow", before.cow_copies, after.cow_copies),
                        ("zero", before.zero_fills, after.zero_fills),
                        ("pagein", before.pages_paged_in, after.pages_paged_in),
                        ("wires", before.region_wires, after.region_wires),
                    ]
                    .into_iter()
                    .filter(|&(_, a, b)| a != b)
                    .map(|(n, a, b)| format!("{n}+{}", b - a))
                    .collect();
                    let pte_after = match v.space(h.space).pte(h.start_vpn) {
                        None => "none".to_string(),
                        Some(p) => format!(
                            "{}{}",
                            if p.read { 'r' } else { '-' },
                            if p.write { 'w' } else { '-' }
                        ),
                    };
                    let same = if resident_frame(&v, h) == frame {
                        "same"
                    } else {
                        "new"
                    };
                    assert!(v.validate().is_empty(), "{:?}", v.validate());
                    rows.push(format!(
                        "{loc:?} out={} {pte:?} {name} -> {result} frame={same} pte={pte_after} stats=[{}]",
                        u8::from(out),
                        moved.join(" ")
                    ));
                }
            }
        }
        rows
    }

    /// Compares rendered rows with the pinned table, row by row.
    fn assert_rows(got: Vec<String>, want: &[&str]) {
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g, w);
        }
        assert_eq!(got.len(), want.len(), "{got:#?}");
    }

    /// `handle_fault`, one call: the outcome of every page location x
    /// output reference x access x starting PTE. The call records no
    /// `last_faults` of its own.
    fn fault_rows(access: Access) -> Vec<String> {
        matrix_rows(&format!("{access:?}"), |v, h| {
            let earlier = v.last_faults().to_vec();
            let out = v.handle_fault(h.space, h.start_vpn, access).unwrap();
            assert_eq!(v.last_faults(), earlier);
            format!("{out:?}")
        })
    }

    #[test]
    fn handle_fault_resolution_matrix() {
        assert_rows(
            fault_rows(Access::Read),
            &[
                "Untouched out=0 NoPte Read -> ZeroFilled frame=new pte=rw stats=[faults+1 zero+1]",
                "Top out=0 NoPte Read -> Mapped frame=same pte=rw stats=[faults+1]",
                "Top out=0 Readable Read -> NoFault frame=same pte=r- stats=[faults+1]",
                "Top out=0 NoAccess Read -> Mapped frame=same pte=rw stats=[faults+1]",
                "Top out=1 NoPte Read -> Mapped frame=same pte=r- stats=[faults+1]",
                "Top out=1 Readable Read -> NoFault frame=same pte=r- stats=[faults+1]",
                "Top out=1 NoAccess Read -> Mapped frame=same pte=r- stats=[faults+1]",
                "PagedTop out=0 NoPte Read -> PagedIn frame=new pte=rw stats=[faults+1 pagein+1]",
                "PagedTop out=1 NoPte Read -> PagedIn frame=new pte=rw stats=[faults+1 pagein+1]",
                "Below out=0 NoPte Read -> Mapped frame=same pte=r- stats=[faults+1]",
                "Below out=0 Readable Read -> NoFault frame=same pte=r- stats=[faults+1]",
                "Below out=0 NoAccess Read -> Mapped frame=same pte=r- stats=[faults+1]",
                "Below out=1 NoPte Read -> Mapped frame=same pte=r- stats=[faults+1]",
                "Below out=1 Readable Read -> NoFault frame=same pte=r- stats=[faults+1]",
                "Below out=1 NoAccess Read -> Mapped frame=same pte=r- stats=[faults+1]",
                "PagedBelow out=0 NoPte Read -> PagedIn frame=new pte=r- stats=[faults+1 pagein+1]",
                "PagedBelow out=1 NoPte Read -> PagedIn frame=new pte=r- stats=[faults+1 pagein+1]",
            ],
        );
        assert_rows(
            fault_rows(Access::Write),
            &[
                "Untouched out=0 NoPte Write -> ZeroFilled frame=new pte=rw stats=[faults+1 zero+1]",
                "Top out=0 NoPte Write -> Mapped frame=same pte=rw stats=[faults+1]",
                "Top out=0 Readable Write -> WriteEnabled frame=same pte=rw stats=[faults+1]",
                "Top out=0 NoAccess Write -> Mapped frame=same pte=rw stats=[faults+1]",
                "Top out=1 NoPte Write -> TcowCopied frame=new pte=rw stats=[faults+1 tcow+1]",
                "Top out=1 Readable Write -> TcowCopied frame=new pte=rw stats=[faults+1 tcow+1]",
                "Top out=1 NoAccess Write -> TcowCopied frame=new pte=rw stats=[faults+1 tcow+1]",
                "PagedTop out=0 NoPte Write -> PagedIn frame=new pte=rw stats=[faults+1 pagein+1]",
                "PagedTop out=1 NoPte Write -> PagedIn frame=new pte=rw stats=[faults+1 pagein+1]",
                "Below out=0 NoPte Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "Below out=0 Readable Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "Below out=0 NoAccess Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "Below out=1 NoPte Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "Below out=1 Readable Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "Below out=1 NoAccess Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "PagedBelow out=0 NoPte Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
                "PagedBelow out=1 NoPte Write -> CowCopied frame=new pte=rw stats=[faults+1 cow+1]",
            ],
        );
    }

    #[test]
    fn kernel_path_resolution_matrix() {
        let refs = |dir: IoDir| {
            matrix_rows(&format!("ref_{dir:?}"), |v, h| {
                v.reference_region_pages(h, 0, 4096, dir).unwrap();
                format!("{:?}", v.last_faults())
            })
        };
        assert_rows(
            refs(IoDir::Input),
            &[
                "Untouched out=0 NoPte ref_Input -> [ZeroFilled] frame=new pte=none stats=[]",
                "Top out=0 NoPte ref_Input -> [] frame=same pte=none stats=[]",
                "Top out=0 Readable ref_Input -> [] frame=same pte=r- stats=[]",
                "Top out=0 NoAccess ref_Input -> [] frame=same pte=-- stats=[]",
                "Top out=1 NoPte ref_Input -> [TcowCopied] frame=new pte=none stats=[]",
                "Top out=1 Readable ref_Input -> [TcowCopied] frame=new pte=r- stats=[]",
                "Top out=1 NoAccess ref_Input -> [TcowCopied] frame=new pte=-- stats=[]",
                "PagedTop out=0 NoPte ref_Input -> [PagedIn] frame=new pte=none stats=[]",
                "PagedTop out=1 NoPte ref_Input -> [PagedIn] frame=new pte=none stats=[]",
                "Below out=0 NoPte ref_Input -> [CowCopied] frame=new pte=none stats=[]",
                "Below out=0 Readable ref_Input -> [CowCopied] frame=new pte=r- stats=[]",
                "Below out=0 NoAccess ref_Input -> [CowCopied] frame=new pte=-- stats=[]",
                "Below out=1 NoPte ref_Input -> [CowCopied] frame=new pte=none stats=[]",
                "Below out=1 Readable ref_Input -> [CowCopied] frame=new pte=r- stats=[]",
                "Below out=1 NoAccess ref_Input -> [CowCopied] frame=new pte=-- stats=[]",
                "PagedBelow out=0 NoPte ref_Input -> [CowCopied] frame=new pte=none stats=[]",
                "PagedBelow out=1 NoPte ref_Input -> [CowCopied] frame=new pte=none stats=[]",
            ],
        );
        assert_rows(
            refs(IoDir::Output),
            &[
                "Untouched out=0 NoPte ref_Output -> [ZeroFilled] frame=new pte=none stats=[]",
                "Top out=0 NoPte ref_Output -> [] frame=same pte=none stats=[]",
                "Top out=0 Readable ref_Output -> [] frame=same pte=r- stats=[]",
                "Top out=0 NoAccess ref_Output -> [] frame=same pte=-- stats=[]",
                "Top out=1 NoPte ref_Output -> [] frame=same pte=none stats=[]",
                "Top out=1 Readable ref_Output -> [] frame=same pte=r- stats=[]",
                "Top out=1 NoAccess ref_Output -> [] frame=same pte=-- stats=[]",
                "PagedTop out=0 NoPte ref_Output -> [PagedIn] frame=new pte=none stats=[]",
                "PagedTop out=1 NoPte ref_Output -> [PagedIn] frame=new pte=none stats=[]",
                "Below out=0 NoPte ref_Output -> [] frame=same pte=none stats=[]",
                "Below out=0 Readable ref_Output -> [] frame=same pte=r- stats=[]",
                "Below out=0 NoAccess ref_Output -> [] frame=same pte=-- stats=[]",
                "Below out=1 NoPte ref_Output -> [] frame=same pte=none stats=[]",
                "Below out=1 Readable ref_Output -> [] frame=same pte=r- stats=[]",
                "Below out=1 NoAccess ref_Output -> [] frame=same pte=-- stats=[]",
                "PagedBelow out=0 NoPte ref_Output -> [PagedIn] frame=new pte=none stats=[]",
                "PagedBelow out=1 NoPte ref_Output -> [PagedIn] frame=new pte=none stats=[]",
            ],
        );
        let rows = matrix_rows("wire", |v, h| {
            let earlier = v.last_faults().to_vec();
            let n = v.wire_region(h).unwrap();
            assert_eq!(v.last_faults(), earlier);
            n.to_string()
        });
        assert_rows(
            rows,
            &[
                "Untouched out=0 NoPte wire -> 1 frame=new pte=rw stats=[wires+1]",
                "Top out=0 NoPte wire -> 1 frame=same pte=rw stats=[wires+1]",
                "Top out=0 Readable wire -> 0 frame=same pte=r- stats=[wires+1]",
                "Top out=0 NoAccess wire -> 0 frame=same pte=-- stats=[wires+1]",
                "Top out=1 NoPte wire -> 1 frame=same pte=r- stats=[wires+1]",
                "Top out=1 Readable wire -> 0 frame=same pte=r- stats=[wires+1]",
                "Top out=1 NoAccess wire -> 0 frame=same pte=-- stats=[wires+1]",
                "PagedTop out=0 NoPte wire -> 1 frame=new pte=rw stats=[wires+1]",
                "PagedTop out=1 NoPte wire -> 1 frame=new pte=rw stats=[wires+1]",
                "Below out=0 NoPte wire -> 1 frame=same pte=r- stats=[wires+1]",
                "Below out=0 Readable wire -> 0 frame=same pte=r- stats=[wires+1]",
                "Below out=0 NoAccess wire -> 0 frame=same pte=-- stats=[wires+1]",
                "Below out=1 NoPte wire -> 1 frame=same pte=r- stats=[wires+1]",
                "Below out=1 Readable wire -> 0 frame=same pte=r- stats=[wires+1]",
                "Below out=1 NoAccess wire -> 0 frame=same pte=-- stats=[wires+1]",
                "PagedBelow out=0 NoPte wire -> 1 frame=new pte=r- stats=[wires+1]",
                "PagedBelow out=1 NoPte wire -> 1 frame=new pte=r- stats=[wires+1]",
            ],
        );
    }
}
