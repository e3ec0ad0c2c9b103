//! Address spaces: region maps, page tables, and region caches.

use std::collections::VecDeque;

use genie_mem::{DenseMap, FrameId};

use crate::error::VmError;
use crate::fault::Access;
use crate::ids::SpaceId;
use crate::region::{Region, RegionMark};

/// A page-table entry: a mapped frame plus access permissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Mapped physical frame.
    pub frame: FrameId,
    /// Read permission.
    pub read: bool,
    /// Write permission.
    pub write: bool,
}

impl Pte {
    /// True if the entry permits `access` without a fault.
    pub(crate) fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
        }
    }
}

/// Handle naming a region inside a particular address space.
///
/// Regions are identified by their starting virtual page, which is
/// stable for the region's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionHandle {
    /// Owning address space.
    pub space: SpaceId,
    /// First virtual page number of the region.
    pub start_vpn: u64,
}

/// One region-cache queue entry.
#[derive(Clone, Copy, Debug)]
struct Cached {
    start_vpn: u64,
    /// Host-wide queueing order (lower is older), stamped by
    /// [`crate::Vm::cache_region`]; 0 for regions queued directly.
    stamp: u64,
}

/// The region-cache queue of regions marked `mark`: moved-out regions
/// (emulated move) and weakly-moved-out ones (weak move family) queue
/// apart. `None` for marks that are never cached.
fn cache_slot(mark: RegionMark) -> Option<usize> {
    match mark {
        RegionMark::MovedOut => Some(0),
        RegionMark::WeaklyMovedOut => Some(1),
        _ => None,
    }
}

/// One simulated address space.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    id: SpaceId,
    /// Live regions in a compact arena: removing a region vacates its
    /// slot and the next insert reuses it.
    regions: Vec<Option<Region>>,
    /// Vacant `regions` slots.
    free_slots: Vec<u32>,
    /// Region table: for every vpn, the arena slot + 1 of the region
    /// covering it, 0 where no region does. Grows to the highest
    /// region end vpn (4 bytes per reserved vpn), so every region
    /// lookup is one or two array loads.
    by_vpn: Vec<u32>,
    /// Page-table entries, flat-indexed by virtual page number. Vpns
    /// are handed out by a bump allocator from 1, so the table is
    /// dense over the space's lifetime.
    ptes: DenseMap<Pte>,
    /// Region cache, one queue per cached mark (see [`cache_slot`]),
    /// oldest first.
    cache: [VecDeque<Cached>; 2],
    /// Regions handed to system-allocated inputs (one per
    /// [`AddressSpace::uncache_region`] call, hit or miss) and not yet
    /// given back.
    inputs_out: u64,
    /// High-water mark of `inputs_out`: the space's own input demand,
    /// which sizes its region cache.
    inputs_hwm: u64,
    /// Pages of regions the region cache reclaimed that the
    /// application has not freed yet, one bit per vpn.
    reclaimed: Vec<u64>,
    /// Bump pointer for fresh region placement.
    next_vpn: u64,
}

impl AddressSpace {
    /// Creates an empty space. Virtual pages `[1, ...)` are available;
    /// page 0 is left unmapped as a null guard.
    pub fn new(id: SpaceId) -> Self {
        AddressSpace {
            id,
            regions: Vec::new(),
            free_slots: Vec::new(),
            by_vpn: Vec::new(),
            ptes: DenseMap::new(),
            cache: [VecDeque::new(), VecDeque::new()],
            inputs_out: 0,
            inputs_hwm: 0,
            reclaimed: Vec::new(),
            next_vpn: 1,
        }
    }

    /// This space's id.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// Reserves `npages` of fresh virtual address space and returns the
    /// starting vpn (with a one-page guard gap between regions).
    pub fn reserve(&mut self, npages: u64) -> u64 {
        let start = self.next_vpn;
        self.next_vpn = start + npages + 1;
        start
    }

    /// Inserts a region. Fails if it overlaps an existing region.
    pub fn insert_region(&mut self, region: Region) -> Result<(), VmError> {
        let start = region.start_vpn;
        let end = region.end_vpn();
        if end <= start {
            return Err(VmError::BadRange);
        }
        let pages = start as usize..usize::try_from(end).expect("vpn overflows usize");
        // Pages past the table's end are unmapped.
        let known = self
            .by_vpn
            .get(pages.start..pages.end.min(self.by_vpn.len()));
        if known.is_some_and(|entries| entries.iter().any(|&e| e != 0)) {
            return Err(VmError::BadRange);
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.regions[slot as usize] = Some(region);
                slot
            }
            None => {
                self.regions.push(Some(region));
                u32::try_from(self.regions.len() - 1).expect("region arena overflow")
            }
        };
        if self.by_vpn.len() < pages.end {
            self.by_vpn.resize(pages.end, 0);
        }
        self.by_vpn[pages].fill(slot + 1);
        self.next_vpn = self.next_vpn.max(end + 1);
        Ok(())
    }

    /// Arena slot of the region covering `vpn`.
    #[inline]
    fn slot_covering(&self, vpn: u64) -> Option<usize> {
        let entry = *self.by_vpn.get(vpn as usize)?;
        entry.checked_sub(1).map(|slot| slot as usize)
    }

    /// Arena slot of the region starting exactly at `start_vpn`.
    #[inline]
    fn slot_starting(&self, start_vpn: u64) -> Option<usize> {
        let slot = self.slot_covering(start_vpn)?;
        let r = self.regions[slot].as_ref()?;
        (r.start_vpn == start_vpn).then_some(slot)
    }

    /// Removes and returns the region starting at `start_vpn`.
    pub fn remove_region(&mut self, start_vpn: u64) -> Option<Region> {
        let slot = self.slot_starting(start_vpn)?;
        let region = self.regions[slot].take()?;
        self.by_vpn[region.start_vpn as usize..region.end_vpn() as usize].fill(0);
        self.free_slots.push(slot as u32);
        Some(region)
    }

    /// The region starting exactly at `start_vpn`.
    pub fn region(&self, start_vpn: u64) -> Option<&Region> {
        self.regions[self.slot_starting(start_vpn)?].as_ref()
    }

    /// Mutable access to the region starting exactly at `start_vpn`.
    pub fn region_mut(&mut self, start_vpn: u64) -> Option<&mut Region> {
        let slot = self.slot_starting(start_vpn)?;
        self.regions[slot].as_mut()
    }

    /// The region covering virtual page `vpn`, if any.
    pub fn region_covering(&self, vpn: u64) -> Option<&Region> {
        self.regions[self.slot_covering(vpn)?].as_ref()
    }

    /// Mutable access to the region covering `vpn`.
    pub fn region_covering_mut(&mut self, vpn: u64) -> Option<&mut Region> {
        let slot = self.slot_covering(vpn)?;
        self.regions[slot].as_mut()
    }

    /// Iterates over all regions in ascending start-vpn order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.by_vpn.iter().enumerate().filter_map(|(vpn, &entry)| {
            let r = self.regions[entry.checked_sub(1)? as usize].as_ref()?;
            (r.start_vpn == vpn as u64).then_some(r)
        })
    }

    /// The PTE for `vpn`, if mapped.
    pub fn pte(&self, vpn: u64) -> Option<Pte> {
        self.ptes.get(vpn).copied()
    }

    /// Installs a PTE.
    pub fn set_pte(&mut self, vpn: u64, pte: Pte) {
        self.ptes.insert(vpn, pte);
    }

    /// Removes the PTE for `vpn`, returning it.
    pub fn clear_pte(&mut self, vpn: u64) -> Option<Pte> {
        self.ptes.remove(vpn)
    }

    /// Updates permissions of an existing PTE; no-op if unmapped.
    pub fn set_prot(&mut self, vpn: u64, read: bool, write: bool) {
        if let Some(p) = self.ptes.get_mut(vpn) {
            p.read = read;
            p.write = write;
        }
    }

    /// Iterates over all PTEs (vpn, pte).
    pub fn ptes(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.ptes.iter().map(|(v, &p)| (v, p))
    }

    /// Enqueues a region on the appropriate cache queue for its mark,
    /// with no bound ([`crate::Vm::cache_region`] is the bounded path).
    pub fn cache_region(&mut self, start_vpn: u64, mark: RegionMark) {
        self.enqueue(start_vpn, mark, 0);
    }

    pub(crate) fn enqueue(&mut self, start_vpn: u64, mark: RegionMark, stamp: u64) {
        let slot = cache_slot(mark).expect("only moved-out regions are cached");
        self.cache[slot].push_back(Cached { start_vpn, stamp });
    }

    /// Dequeues a cached region of exactly `npages` pages with mark
    /// `mark`, scanning the queue first-fit (paper Section 2.2, region
    /// caching). Every call, hit or miss, hands one region to a
    /// system-allocated input and so counts towards the space's input
    /// demand ([`AddressSpace::cache_bound`]).
    pub fn uncache_region(&mut self, npages: u64, mark: RegionMark) -> Option<u64> {
        self.inputs_out += 1;
        self.inputs_hwm = self.inputs_hwm.max(self.inputs_out);
        let slot = cache_slot(mark)?;
        let pos = self.cache[slot].iter().position(|c| {
            self.region(c.start_vpn)
                .is_some_and(|r| r.npages == npages && r.mark == mark)
        })?;
        self.cache[slot].remove(pos).map(|c| c.start_vpn)
    }

    /// Records that the application gave back one region handed out by
    /// [`AddressSpace::uncache_region`].
    pub fn input_region_released(&mut self) {
        self.inputs_out = self.inputs_out.saturating_sub(1);
    }

    /// The most regions the cache keeps per mark: the high-water mark
    /// of regions this space's system-allocated inputs held at once,
    /// and at least one. A space that never asks for a region back
    /// (a pure sender) keeps only its latest.
    pub fn cache_bound(&self) -> usize {
        self.inputs_hwm.max(1) as usize
    }

    /// Dequeues the oldest region of `mark`'s queue if the queue holds
    /// more than [`AddressSpace::cache_bound`] regions.
    pub(crate) fn pop_over_bound(&mut self, mark: RegionMark) -> Option<u64> {
        let bound = self.cache_bound();
        let q = &mut self.cache[cache_slot(mark)?];
        if q.len() > bound {
            q.pop_front().map(|c| c.start_vpn)
        } else {
            None
        }
    }

    /// The queue holding the oldest cached region, and its stamp.
    fn oldest(&self) -> Option<(u64, usize)> {
        (0..self.cache.len())
            .filter_map(|slot| Some((self.cache[slot].front()?.stamp, slot)))
            .min()
    }

    /// Stamp of the oldest cached region in either queue.
    pub(crate) fn oldest_stamp(&self) -> Option<u64> {
        self.oldest().map(|(stamp, _)| stamp)
    }

    /// Dequeues the oldest cached region of either queue.
    pub(crate) fn pop_oldest(&mut self) -> Option<u64> {
        let (_, slot) = self.oldest()?;
        self.cache[slot].pop_front().map(|c| c.start_vpn)
    }

    /// Drops a region from the cache queues (used when an application
    /// removes a cached region out from under the system).
    pub fn uncache_specific(&mut self, start_vpn: u64) {
        for q in &mut self.cache {
            if let Some(pos) = q.iter().position(|c| c.start_vpn == start_vpn) {
                q.remove(pos);
                return;
            }
        }
    }

    /// Number of cached regions (both queues).
    pub fn cached_region_count(&self) -> usize {
        self.cache.iter().map(VecDeque::len).sum()
    }

    /// Records the pages `vpns` of a region the cache reclaimed: the
    /// range is unmapped, but the application may still free it.
    pub(crate) fn mark_reclaimed(&mut self, vpns: std::ops::Range<u64>) {
        let words = vpns.end.div_ceil(64) as usize;
        if self.reclaimed.len() < words {
            self.reclaimed.resize(words, 0);
        }
        for vpn in vpns {
            self.reclaimed[(vpn / 64) as usize] |= 1 << (vpn % 64);
        }
    }

    fn is_reclaimed(&self, vpn: u64) -> bool {
        self.reclaimed
            .get((vpn / 64) as usize)
            .is_some_and(|w| w & (1 << (vpn % 64)) != 0)
    }

    /// Frees a reclaimed range given any vpn inside it: the application
    /// freeing a buffer the region cache already took back. Returns
    /// false if `vpn` is not in a reclaimed range.
    pub fn free_reclaimed(&mut self, vpn: u64) -> bool {
        if !self.is_reclaimed(vpn) {
            return false;
        }
        // Guard gaps separate reserved regions, so the contiguous run
        // of reclaimed pages around `vpn` is exactly its region.
        let mut first = vpn;
        while first > 0 && self.is_reclaimed(first - 1) {
            first -= 1;
        }
        let mut v = first;
        while self.is_reclaimed(v) {
            self.reclaimed[(v / 64) as usize] &= !(1 << (v % 64));
            v += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    fn space() -> AddressSpace {
        AddressSpace::new(SpaceId(0))
    }

    fn region(start: u64, n: u64) -> Region {
        Region::new(start, n, ObjectId(0), RegionMark::Unmovable)
    }

    #[test]
    fn reserve_is_monotonic_with_guard_gaps() {
        let mut s = space();
        let a = s.reserve(4);
        let b = s.reserve(2);
        assert!(b >= a + 5, "guard gap expected: {a} {b}");
    }

    #[test]
    fn overlapping_regions_rejected() {
        let mut s = space();
        s.insert_region(region(10, 4)).unwrap();
        assert_eq!(s.insert_region(region(12, 1)), Err(VmError::BadRange));
        assert_eq!(s.insert_region(region(8, 3)), Err(VmError::BadRange));
        assert_eq!(s.insert_region(region(10, 4)), Err(VmError::BadRange));
        // Adjacent is fine.
        s.insert_region(region(14, 2)).unwrap();
        s.insert_region(region(5, 5)).unwrap();
    }

    #[test]
    fn empty_region_rejected() {
        let mut s = space();
        assert_eq!(s.insert_region(region(10, 0)), Err(VmError::BadRange));
    }

    #[test]
    fn region_covering_lookup() {
        let mut s = space();
        s.insert_region(region(10, 4)).unwrap();
        assert!(s.region_covering(9).is_none());
        assert_eq!(s.region_covering(10).unwrap().start_vpn, 10);
        assert_eq!(s.region_covering(13).unwrap().start_vpn, 10);
        assert!(s.region_covering(14).is_none());
    }

    #[test]
    fn pte_lifecycle() {
        let mut s = space();
        assert!(s.pte(5).is_none());
        s.set_pte(
            5,
            Pte {
                frame: FrameId(1),
                read: true,
                write: true,
            },
        );
        s.set_prot(5, true, false);
        let p = s.pte(5).unwrap();
        assert!(p.read && !p.write);
        assert!(s.clear_pte(5).is_some());
        assert!(s.pte(5).is_none());
    }

    #[test]
    fn region_cache_first_fit_by_size() {
        let mut s = space();
        let mut r1 = region(10, 2);
        r1.mark = RegionMark::MovedOut;
        let mut r2 = region(20, 4);
        r2.mark = RegionMark::MovedOut;
        s.insert_region(r1).unwrap();
        s.insert_region(r2).unwrap();
        s.cache_region(10, RegionMark::MovedOut);
        s.cache_region(20, RegionMark::MovedOut);
        // Request 4 pages: skips the 2-page region, takes the 4-page one.
        assert_eq!(s.uncache_region(4, RegionMark::MovedOut), Some(20));
        assert_eq!(s.uncache_region(4, RegionMark::MovedOut), None);
        assert_eq!(s.uncache_region(2, RegionMark::MovedOut), Some(10));
    }

    #[test]
    fn cache_queues_are_per_mark() {
        let mut s = space();
        let mut r1 = region(10, 2);
        r1.mark = RegionMark::WeaklyMovedOut;
        s.insert_region(r1).unwrap();
        s.cache_region(10, RegionMark::WeaklyMovedOut);
        assert_eq!(s.uncache_region(2, RegionMark::MovedOut), None);
        assert_eq!(s.uncache_region(2, RegionMark::WeaklyMovedOut), Some(10));
    }

    #[test]
    fn uncache_specific_removes_stale_entries() {
        let mut s = space();
        let mut r1 = region(10, 2);
        r1.mark = RegionMark::MovedOut;
        s.insert_region(r1).unwrap();
        s.cache_region(10, RegionMark::MovedOut);
        s.uncache_specific(10);
        assert_eq!(s.cached_region_count(), 0);
    }

    /// The `BTreeMap` region map the vpn-indexed table replaced, kept as
    /// the reference for the randomized equivalence test below.
    #[derive(Default)]
    struct ReferenceRegions(std::collections::BTreeMap<u64, Region>);

    impl ReferenceRegions {
        fn insert(&mut self, region: Region) -> Result<(), VmError> {
            let (start, end) = (region.start_vpn, region.end_vpn());
            if end <= start {
                return Err(VmError::BadRange);
            }
            if let Some((_, prev)) = self.0.range(..=start).next_back() {
                if prev.end_vpn() > start {
                    return Err(VmError::BadRange);
                }
            }
            if let Some((&next_start, _)) = self.0.range(start..).next() {
                if next_start < end {
                    return Err(VmError::BadRange);
                }
            }
            self.0.insert(start, region);
            Ok(())
        }

        fn covering(&self, vpn: u64) -> Option<&Region> {
            self.0
                .range(..=vpn)
                .next_back()
                .map(|(_, r)| r)
                .filter(|r| r.contains(vpn))
        }
    }

    /// The fields a lookup must reproduce.
    fn key(r: &Region) -> (u64, u64, ObjectId, u32) {
        (r.start_vpn, r.npages, r.object, r.wire_count)
    }

    fn xorshift64(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Random insert / remove / mutate sequences over a small vpn range
    /// (so overlaps, exact adjacency, and slot reuse are frequent) must
    /// give the same answer as the reference map at every step: insert
    /// results (`BadRange` included), removals, `region` and
    /// `region_covering` at every vpn, and `regions()` in ascending
    /// start order. The arena must never outgrow the peak live count.
    #[test]
    fn region_table_matches_btreemap_reference() {
        const SPAN: u64 = 300;
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut s = space();
            let mut reference = ReferenceRegions::default();
            let mut peak_live = 0;
            for step in 0..1500u32 {
                let r = xorshift64(&mut rng);
                let ctx = format!("seed {seed} step {step}");
                let live: Vec<u64> = reference.0.keys().copied().collect();
                let pick = |i: u64| live[(i % live.len() as u64) as usize];
                match r % 8 {
                    // Anywhere, zero to six pages.
                    0..=2 => {
                        let reg = Region::new(
                            1 + (r >> 8) % SPAN,
                            (r >> 24) % 7,
                            ObjectId(u64::from(step)),
                            RegionMark::Unmovable,
                        );
                        assert_eq!(s.insert_region(reg.clone()), reference.insert(reg), "{ctx}");
                    }
                    // Flush against a live region's end (fits unless
                    // the next region starts there), or one page into
                    // it (always overlaps).
                    3 if !live.is_empty() => {
                        let near = &reference.0[&pick(r >> 8)];
                        let start = near.end_vpn() - (r >> 40) % 2;
                        let reg = Region::new(
                            start,
                            1 + (r >> 24) % 3,
                            ObjectId(u64::from(step)),
                            RegionMark::Unmovable,
                        );
                        assert_eq!(s.insert_region(reg.clone()), reference.insert(reg), "{ctx}");
                    }
                    // Remove a live region by its start vpn, or try an
                    // arbitrary vpn (a non-start vpn removes nothing).
                    4 | 5 => {
                        let vpn = if live.is_empty() || r & (1 << 40) != 0 {
                            (r >> 8) % (SPAN + 8)
                        } else {
                            pick(r >> 8)
                        };
                        let got = s.remove_region(vpn);
                        let want = reference.0.remove(&vpn);
                        assert_eq!(got.as_ref().map(key), want.as_ref().map(key), "{ctx}");
                    }
                    // Mutate through both mutable accessors.
                    _ if !live.is_empty() => {
                        let start = pick(r >> 8);
                        let inner = start + (r >> 32) % reference.0[&start].npages;
                        s.region_mut(start).expect("live").wire_count += 1;
                        s.region_covering_mut(inner).expect("live").wire_count += 2;
                        reference.0.get_mut(&start).expect("live").wire_count += 3;
                    }
                    _ => {}
                }
                peak_live = peak_live.max(reference.0.len());
                assert_eq!(s.regions.len(), peak_live, "{ctx}: arena must reuse slots");
                for vpn in 0..SPAN + 10 {
                    assert_eq!(
                        s.region(vpn).map(key),
                        reference.0.get(&vpn).map(key),
                        "{ctx} region({vpn})"
                    );
                    assert_eq!(
                        s.region_covering(vpn).map(key),
                        reference.covering(vpn).map(key),
                        "{ctx} region_covering({vpn})"
                    );
                }
                assert!(
                    s.regions().map(key).eq(reference.0.values().map(key)),
                    "{ctx}: regions() order"
                );
            }
            assert!(peak_live > 20, "seed {seed}: too few live regions to test");
        }
    }
}
