//! The pageout daemon, with the paper's input-disabled pageout.
//!
//! Section 3.2: Genie modifies the pageout daemon to refrain from
//! paging out pages with a nonzero *input* reference count — pending
//! input would modify them after pageout, making the paged-out data
//! inconsistent — while pages with pending *output* may be paged out
//! normally (the frame itself is protected by I/O-deferred
//! deallocation). This is what makes wiring unnecessary in the
//! emulated semantics, without reserving special non-pageable buffer
//! areas.

use genie_mem::FrameId;

use crate::error::VmError;
use crate::vm::Vm;

/// Result of one pageout scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageoutStats {
    /// Pages written to the backing store and freed.
    pub paged_out: usize,
    /// Pages skipped because of a nonzero input reference count
    /// (input-disabled pageout).
    pub skipped_input_referenced: usize,
    /// Pages skipped because their region is wired.
    pub skipped_wired: usize,
}

/// Pageout policy knob: the paper's input-disabled daemon vs. a
/// classic daemon that only honors wiring (used by the ablation bench
/// and the corruption-demonstration tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageoutPolicy {
    /// Skip pages with pending input; page out pages with pending
    /// output normally (the paper's design).
    InputDisabled,
    /// Only wiring protects pages (a daemon unaware of I/O counts —
    /// unsafe for unwired in-place input, by design of the ablation).
    WiringOnly,
}

impl Vm {
    /// Scans mapped pages and pages out up to `max_pages` of them
    /// according to `policy`, saving contents to the owning object's
    /// backing store and freeing the frames.
    pub fn pageout_scan(
        &mut self,
        max_pages: usize,
        policy: PageoutPolicy,
    ) -> Result<PageoutStats, VmError> {
        let mut stats = PageoutStats::default();
        // Collect (space, vpn, frame, object, page) candidates first.
        let mut candidates = Vec::new();
        for si in 0..self.space_count() {
            for (region, mapped) in self.space(crate::ids::SpaceId(si)).mappings() {
                if region.is_wired() {
                    stats.skipped_wired += mapped.count();
                    continue;
                }
                candidates
                    .extend(mapped.map(|(vpn, p)| {
                        (si, vpn, p.frame, region.object, region.object_page(vpn))
                    }));
            }
        }
        for (si, vpn, frame, object, idx) in candidates {
            if stats.paged_out >= max_pages {
                break;
            }
            let space_id = crate::ids::SpaceId(si);
            // Re-check the PTE: earlier iterations may have unmapped it.
            let Some(pte) = self.space(space_id).pte(vpn) else {
                continue;
            };
            if pte.frame != frame {
                continue;
            }
            let f = self.phys.frame(frame)?;
            if policy == PageoutPolicy::InputDisabled && f.in_count() > 0 {
                stats.skipped_input_referenced += 1;
                continue;
            }
            // Only page out pages resident in the region's top object;
            // shadow-resident pages may be shared more widely.
            if self.object(object).page(idx) != Some(frame) {
                continue;
            }
            // Save the contents, detach the frame, clear every mapping
            // of it, and free it (deferred if output is pending).
            let data: Box<[u8]> = self.phys.frame(frame)?.data().to_vec().into_boxed_slice();
            self.object_mut(object).set_paged(idx, data);
            self.object_mut(object).take_page(idx);
            self.clear_mappings_of(frame);
            let _ = self.phys.dealloc(frame);
            stats.paged_out += 1;
        }
        Ok(stats)
    }

    /// Removes every PTE (in every space) that maps `frame`.
    fn clear_mappings_of(&mut self, frame: FrameId) {
        for si in 0..self.space_count() {
            self.space_mut(crate::ids::SpaceId(si)).unmap_frame(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use genie_mem::{IoDir, PhysMem};

    use super::*;
    use crate::ids::SpaceId;

    fn vm() -> (Vm, SpaceId) {
        let mut v = Vm::new(PhysMem::new(4096, 64));
        let s = v.create_space();
        (v, s)
    }

    #[test]
    fn pageout_and_pagein_round_trip() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 8192).unwrap();
        // Touch both pages so both are resident.
        let mut payload = vec![0xabu8; 8192];
        payload[..17].copy_from_slice(b"will be paged out");
        v.write_app(s, va, &payload).unwrap();
        let free_before = v.phys.free_frames();
        let stats = v.pageout_scan(64, PageoutPolicy::InputDisabled).unwrap();
        assert_eq!(stats.paged_out, 2);
        assert_eq!(v.phys.free_frames(), free_before + 2);
        // Touching the data pages it back in.
        let got = v.read_app(s, va, 17).unwrap();
        let faults = v.last_faults();
        assert_eq!(&got, b"will be paged out");
        assert!(faults.contains(&crate::fault::FaultOutcome::PagedIn));
    }

    #[test]
    fn input_referenced_pages_are_skipped() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"x").unwrap();
        let desc = v.reference_pages(s, va, 4096, IoDir::Input).unwrap();
        let stats = v.pageout_scan(64, PageoutPolicy::InputDisabled).unwrap();
        assert_eq!(stats.paged_out, 0);
        assert_eq!(stats.skipped_input_referenced, 1);
        v.unreference(desc).unwrap();
        let stats = v.pageout_scan(64, PageoutPolicy::InputDisabled).unwrap();
        assert_eq!(stats.paged_out, 1);
    }

    #[test]
    fn output_referenced_pages_may_be_paged_out() {
        // Section 3.2: pageout proceeds regardless of output count; the
        // frame itself survives via I/O-deferred deallocation.
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"outbound").unwrap();
        let desc = v.reference_pages(s, va, 4096, IoDir::Output).unwrap();
        let frame = desc.vecs[0].frame;
        let stats = v.pageout_scan(64, PageoutPolicy::InputDisabled).unwrap();
        assert_eq!(stats.paged_out, 1);
        // The device still sees consistent data.
        assert_eq!(v.phys.read(frame, 0, 8).unwrap(), b"outbound");
        assert_eq!(
            v.phys.frame(frame).unwrap().state(),
            genie_mem::FrameState::Zombie
        );
        v.unreference(desc).unwrap();
        assert_eq!(
            v.phys.frame(frame).unwrap().state(),
            genie_mem::FrameState::Free
        );
        // And the application can still read its buffer (page-in).
        let got = v.read_app(s, va, 8).unwrap();
        assert_eq!(&got, b"outbound");
    }

    #[test]
    fn wired_pages_are_never_paged_out() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"wired").unwrap();
        let h = v.region_at(s, va).unwrap();
        v.wire_region(h).unwrap();
        let stats = v.pageout_scan(64, PageoutPolicy::WiringOnly).unwrap();
        assert_eq!(stats.paged_out, 0);
        assert_eq!(stats.skipped_wired, 1);
    }

    #[test]
    fn wiring_only_daemon_would_corrupt_unwired_input() {
        // The ablation scenario: a classic daemon pages out a page with
        // pending (unwired) input; the paged-out copy then misses the
        // DMA data — the inconsistency input-disabled pageout prevents.
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4096).unwrap();
        v.write_app(s, va, b"stale....").unwrap();
        let desc = v.reference_pages(s, va, 4096, IoDir::Input).unwrap();
        let frame = desc.vecs[0].frame;
        let stats = v.pageout_scan(64, PageoutPolicy::WiringOnly).unwrap();
        assert_eq!(stats.paged_out, 1);
        // DMA lands in the (zombie) frame after pageout.
        v.phys.write(frame, 0, b"dma data!").unwrap();
        v.unreference(desc).unwrap();
        // The application reads back the paged-out STALE data: weak
        // semantics where copy semantics was promised.
        let got = v.read_app(s, va, 9).unwrap();
        assert_eq!(&got, b"stale....");
    }

    #[test]
    fn respects_max_pages_budget() {
        let (mut v, s) = vm();
        let va = v.alloc_app_buffer(s, 4 * 4096).unwrap();
        v.write_app(s, va, &[7u8; 4 * 4096]).unwrap();
        let stats = v.pageout_scan(2, PageoutPolicy::InputDisabled).unwrap();
        assert_eq!(stats.paged_out, 2);
    }
}
