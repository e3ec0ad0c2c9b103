//! VM-level tests for the exact observable rules the reference model
//! (`genie-model`) encodes: what region hiding does to application
//! visibility, how the region cache revives hidden regions, when a
//! weakly-moved-out range stays readable, and how TCOW behaves while
//! DMA is pending. Each test pins one rule the model-differential
//! harness relies on, at the layer where the rule is implemented.

use genie_mem::{IoDir, PhysMem};
use genie_vm::pageout::PageoutPolicy;
use genie_vm::{RegionMark, SpaceId, Vm};

const PAGE: usize = 4096;

fn vm() -> (Vm, SpaceId) {
    let mut v = Vm::new(PhysMem::new(PAGE, 256));
    let s = v.create_space();
    (v, s)
}

/// Region hiding (paper Section 4): hiding is the *combination* of
/// dropping access and marking the region moved out. Invalidation
/// alone leaves the region recoverable — an application access faults
/// and pages the data back — so observable visibility only changes
/// once the mark becomes unrecoverable. Reinstatement restores access
/// without a single fault.
#[test]
fn region_hiding_controls_observable_visibility() {
    let (mut v, s) = vm();
    let h = v.alloc_region(s, 2, RegionMark::MovedIn).unwrap();
    let va = h.start_vpn * PAGE as u64;
    v.write_app(s, va, b"hide me").unwrap();
    assert_eq!(v.peek(s, va, 7).as_deref(), Some(&b"hide me"[..]));

    // Access dropped, mark still recoverable: the application would
    // fault and recover, so the bytes stay observable.
    v.invalidate_region(h).unwrap();
    assert_eq!(v.peek(s, va, 7).as_deref(), Some(&b"hide me"[..]));

    // The moved-out mark makes the fault unrecoverable: hidden.
    v.mark_region(h, RegionMark::MovedOut).unwrap();
    assert_eq!(v.peek(s, va, 7), None);

    // Reinstatement (emulated-move dispose) is fault-free.
    v.mark_region(h, RegionMark::MovedIn).unwrap();
    v.reinstate_region(h).unwrap();
    let got = v.read_app(s, va, 7).unwrap();
    let faults = v.last_faults();
    assert_eq!(&got, b"hide me");
    assert!(faults.is_empty(), "reinstated PTEs must not refault");
}

/// Region caching (paper Section 2.2): a hidden region queued on the
/// cache is revived first-fit by span and mark — and only an exact
/// span match hits.
#[test]
fn region_cache_revives_hidden_regions_first_fit() {
    let (mut v, s) = vm();
    let h2 = v.alloc_region(s, 2, RegionMark::MovedIn).unwrap();
    let h3 = v.alloc_region(s, 3, RegionMark::MovedIn).unwrap();
    for h in [h2, h3] {
        v.write_app(s, h.start_vpn * PAGE as u64, b"cached")
            .unwrap();
        v.invalidate_region(h).unwrap();
        v.mark_region(h, RegionMark::MovedOut).unwrap();
        v.space_mut(s)
            .cache_region(h.start_vpn, RegionMark::MovedOut);
    }
    assert_eq!(v.space(s).cached_region_count(), 2);

    // Wrong span or wrong mark: miss, the queue is untouched.
    assert_eq!(v.space_mut(s).uncache_region(4, RegionMark::MovedOut), None);
    assert_eq!(
        v.space_mut(s).uncache_region(2, RegionMark::WeaklyMovedOut),
        None
    );
    assert_eq!(v.space(s).cached_region_count(), 2);

    // First-fit by span: the 3-page request skips past the older
    // 2-page entry and revives the matching region.
    assert_eq!(
        v.space_mut(s).uncache_region(3, RegionMark::MovedOut),
        Some(h3.start_vpn)
    );
    assert_eq!(
        v.space_mut(s).uncache_region(2, RegionMark::MovedOut),
        Some(h2.start_vpn)
    );
    assert_eq!(v.space(s).cached_region_count(), 0);

    // A revived region reinstates to full visibility.
    v.mark_region(h3, RegionMark::MovedIn).unwrap();
    v.reinstate_region(h3).unwrap();
    assert_eq!(
        v.peek(s, h3.start_vpn * PAGE as u64, 6).as_deref(),
        Some(&b"cached"[..])
    );
}

/// The weak-move leniency, precisely: a weakly-moved-out range is
/// unrecoverable, so it stays observable only *through* resident
/// mappings the application already holds. With mappings it reads
/// fine; a pageout storm then hides it for good. Without mappings
/// (evicted before the mark) it is hidden immediately.
#[test]
fn weakly_moved_out_readable_only_through_resident_mappings() {
    let (mut v, s) = vm();

    // Mapped, then weakly moved out: still readable...
    let h = v.alloc_region(s, 1, RegionMark::MovedIn).unwrap();
    let va = h.start_vpn * PAGE as u64;
    v.write_app(s, va, b"weak but present").unwrap();
    v.mark_region(h, RegionMark::WeaklyMovedOut).unwrap();
    assert_eq!(v.peek(s, va, 16).as_deref(), Some(&b"weak but present"[..]));
    // ...until eviction, which is unrecoverable for this mark.
    v.pageout_scan(1_000_000, PageoutPolicy::InputDisabled)
        .unwrap();
    assert_eq!(v.peek(s, va, 16), None);

    // Evicted first, weakly moved out second: recoverable right up to
    // the mark change, hidden immediately after.
    let h2 = v.alloc_region(s, 1, RegionMark::MovedIn).unwrap();
    let va2 = h2.start_vpn * PAGE as u64;
    v.write_app(s, va2, b"weak and absent").unwrap();
    v.pageout_scan(1_000_000, PageoutPolicy::InputDisabled)
        .unwrap();
    assert_eq!(v.peek(s, va2, 15).as_deref(), Some(&b"weak and absent"[..]));
    v.mark_region(h2, RegionMark::WeaklyMovedOut).unwrap();
    assert_eq!(v.peek(s, va2, 15), None);
}

/// TCOW while DMA pends in the same space: an application overwrite
/// of an output-referenced page is displaced into a private copy (the
/// in-flight frame keeps the original bytes), while a write racing a
/// pending *input* reference takes no fault at all — input DMA is
/// direct placement into the very frame the application maps.
#[test]
fn tcow_output_displacement_while_input_dma_pends() {
    let (mut v, s) = vm();

    // Output buffer, TCOW armed.
    let out_va = v.alloc_app_buffer(s, PAGE).unwrap();
    v.write_app(s, out_va, b"original").unwrap();
    let out_desc = v.reference_pages(s, out_va, PAGE, IoDir::Output).unwrap();
    v.write_protect(s, out_va, PAGE);
    let out_frame = out_desc.vecs[0].frame;

    // Concurrent pending input DMA on a second buffer.
    let in_va = v.alloc_app_buffer(s, PAGE).unwrap();
    let in_desc = v.reference_pages(s, in_va, PAGE, IoDir::Input).unwrap();
    let in_frame = in_desc.vecs[0].frame;

    // Overwrite during output: displaced, original preserved in flight.
    v.write_app(s, out_va, b"modified").unwrap();
    let faults = v.last_faults();
    assert_eq!(faults, vec![genie_vm::FaultOutcome::TcowCopied]);
    assert_eq!(v.phys.read(out_frame, 0, 8).unwrap(), b"original");
    assert_eq!(v.peek(s, out_va, 8).as_deref(), Some(&b"modified"[..]));

    // Write racing the pending input: no fault, no copy — it lands in
    // the frame the DMA engine targets.
    v.write_app(s, in_va, b"race").unwrap();
    let faults = v.last_faults();
    assert!(faults.is_empty(), "{faults:?}");
    assert_eq!(v.phys.read(in_frame, 0, 4).unwrap(), b"race");

    // Completion frees exactly the displaced zombie frame, and the
    // whole structure stays invariant-clean.
    let free_before = v.phys.free_frames();
    v.unreference(out_desc).unwrap();
    v.unreference(in_desc).unwrap();
    assert_eq!(v.phys.free_frames(), free_before + 1);
    assert!(v.validate().is_empty(), "{:?}", v.validate());
}
