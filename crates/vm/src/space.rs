//! Address spaces: region maps, page tables, and region caches.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;

use genie_mem::FrameId;

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

/// The arena slot of a vacant `index` entry: a removed region's entry,
/// left in place with its start vpn so that removal moves nothing.
const VACANT: usize = usize::MAX;

/// One arena slot: a region and its page table.
#[derive(Clone, Debug)]
struct Slot {
    region: Region,
    /// `ptes[i]` maps page `region.start_vpn + i`; a vacated slot has none but keeps the capacity.
    ptes: Vec<Option<Pte>>,
}

impl Slot {
    /// The PTE entry of `vpn`, if this slot's region covers it.
    #[inline]
    fn entry(&self, vpn: u64) -> Option<&Option<Pte>> {
        self.ptes
            .get(vpn.wrapping_sub(self.region.start_vpn) as usize)
    }
}

/// One simulated address space.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    id: SpaceId,
    /// Region arena: the next insert reuses a removed region's slot, so
    /// it holds no more slots than the most regions ever live at once.
    regions: Vec<Slot>,
    /// Vacant `regions` slots.
    free_slots: Vec<usize>,
    /// Regions as `(start vpn, arena slot)` in ascending start order:
    /// bump allocation appends at the back. A removal leaves its entry
    /// behind as a vacancy (slot [`VACANT`], start vpn kept), so a lookup
    /// that lands on it finds nothing; no live region spans a vacancy's
    /// start. Vacancies at either end are popped, and the interior ones
    /// are compacted away once they outnumber the live entries.
    index: VecDeque<(u64, usize)>,
    /// Vacant `index` entries.
    vacancies: usize,
    /// Each arena slot's `index` position plus `base` (wrapping); stale
    /// for a vacant slot.
    positions: Vec<usize>,
    /// Offset of `positions` from the index positions: a front pop, and
    /// an insert that shifts the front side of the index, move it
    /// instead of renumbering the slots behind.
    base: usize,
    /// Mach-style lookup hints, one per vpn bucket (twice as many as slots): the
    /// arena slot of the region last found or inserted there. Each use checks its hint.
    hints: Vec<Cell<usize>>,
    /// Binary searches of the index (hint and end-point checks all missed).
    #[cfg(test)]
    searches: Cell<u64>,
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
    /// Vpn ranges of regions the region cache reclaimed that the
    /// application has not freed yet.
    reclaimed: Vec<Range<u64>>,
    /// Bump pointer for fresh region placement. It never hands out a
    /// vpn twice, so a handle to a removed region stays stale.
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
            index: VecDeque::new(),
            vacancies: 0,
            positions: Vec::new(),
            base: 0,
            hints: vec![Cell::default()],
            #[cfg(test)]
            searches: Cell::new(0),
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
        let (start, end) = (region.start_vpn, region.end_vpn());
        let pos = self.rank(start);
        // A vacancy before `pos` ends every live region before it (no
        // live region spans a vacancy's start): `get(VACANT)` is `None`.
        let prev = pos
            .checked_sub(1)
            .and_then(|p| self.regions.get(self.index[p].1));
        let after_prev = prev.is_none_or(|e| e.region.end_vpn() <= start);
        // Vacancies that start inside the new region are stepped over.
        let inside = self.index.range(pos..);
        let inside = inside
            .take_while(|&&(s, slot)| slot == VACANT && s < end)
            .count();
        let before_next = self.index.get(pos + inside).is_none_or(|&(s, _)| end <= s);
        if end <= start || !(after_prev && before_next) {
            return Err(VmError::BadRange);
        }
        let npages = usize::try_from(region.npages).expect("region length overflows usize");
        let slot = self.free_slots.pop().unwrap_or(self.regions.len());
        if slot == self.regions.len() {
            let (region, ptes) = (region.clone(), Vec::new());
            self.regions.push(Slot { region, ptes });
            self.positions.push(0);
            let buckets = (2 * self.regions.len()).next_power_of_two();
            self.hints.resize(buckets, Cell::default());
        }
        self.regions[slot].ptes.resize(npages, None);
        self.regions[slot].region = region;
        // The stepped-over vacancies now start at the region's end: still
        // in order, and no longer inside a live region.
        for e in self.index.range_mut(pos..pos + inside) {
            e.0 = end;
        }
        self.index_insert(pos, start, slot);
        self.hint(start).set(slot);
        self.next_vpn = self.next_vpn.max(end + 1);
        Ok(())
    }

    /// Inserts `(start, slot)` at index position `pos`. Only the shorter
    /// side of `pos` renumbers; `base` carries the other side.
    fn index_insert(&mut self, pos: usize, start: u64, slot: usize) {
        let len = self.index.len();
        self.index.insert(pos, (start, slot));
        if pos < len - pos {
            self.base = self.base.wrapping_sub(1);
            self.renumber(0..pos, usize::MAX);
        } else {
            self.renumber(pos + 1..len + 1, 1);
        }
        self.positions[slot] = pos.wrapping_add(self.base);
    }

    /// Vacates the entry at index position `pos`, pops the vacancies at
    /// either end, and compacts the index once its vacancies outnumber
    /// its live entries.
    fn index_vacate(&mut self, pos: usize) {
        self.index[pos].1 = VACANT;
        self.vacancies += 1;
        while self.index.back().is_some_and(|e| e.1 == VACANT) {
            self.index.pop_back();
            self.vacancies -= 1;
        }
        while self.index.front().is_some_and(|e| e.1 == VACANT) {
            self.index.pop_front();
            self.vacancies -= 1;
            self.base = self.base.wrapping_add(1);
        }
        if 2 * self.vacancies > self.index.len() {
            self.compact();
        }
    }

    /// Drops every vacancy in one sequential pass, renumbering the live
    /// entries from position 0.
    fn compact(&mut self) {
        let mut live = 0;
        for pos in 0..self.index.len() {
            let entry = self.index[pos];
            if entry.1 != VACANT {
                self.index[live] = entry;
                self.positions[entry.1] = live;
                live += 1;
            }
        }
        self.index.truncate(live);
        self.vacancies = 0;
        self.base = 0;
    }

    /// Adds `by` (wrapping) to the positions of the live slots at index positions `range`.
    fn renumber(&mut self, range: Range<usize>, by: usize) {
        for &(_, slot) in self.index.range(range) {
            if slot != VACANT {
                self.positions[slot] = self.positions[slot].wrapping_add(by);
            }
        }
    }

    /// The hint of `vpn`'s bucket.
    fn hint(&self, vpn: u64) -> &Cell<usize> {
        &self.hints[vpn as usize & (self.hints.len() - 1)]
    }

    /// Live regions starting at or below `vpn`; tries the hint's position, its
    /// successor and both ends first.
    #[inline(never)]
    fn rank(&self, vpn: u64) -> usize {
        let start = |pos: usize| self.index.get(pos).map(|&(s, _)| s);
        let hint = self.positions.get(self.hint(vpn).get());
        let hint = hint.map_or(usize::MAX, |p| p.wrapping_sub(self.base));
        [
            hint,
            hint.wrapping_add(1),
            self.index.len().wrapping_sub(1),
            0,
        ]
        .into_iter()
        .find(|&pos| start(pos).is_some_and(|s| s <= vpn) && start(pos + 1).is_none_or(|s| vpn < s))
        .map_or_else(
            || {
                #[cfg(test)]
                self.searches.set(self.searches.get() + 1);
                self.index.partition_point(|&(s, _)| s <= vpn)
            },
            |pos| pos + 1,
        )
    }

    /// Arena slot of the region covering `vpn`, which becomes the hint.
    #[inline]
    fn slot_covering(&self, vpn: u64) -> Option<usize> {
        let hint = self.hint(vpn).get();
        if self.regions.get(hint).and_then(|e| e.entry(vpn)).is_some() {
            return Some(hint);
        }
        let pos = self.rank(vpn).checked_sub(1)?;
        let slot = self.index[pos].1;
        self.regions.get(slot)?.entry(vpn)?;
        self.hint(vpn).set(slot);
        Some(slot)
    }

    /// Removes and returns the region starting at `start_vpn`, PTEs and all.
    /// Its slot comes from the hint (checked by its start vpn) and gives its
    /// index position, so a removal searches only when the hint misses; the
    /// entry there becomes a vacancy, so nothing else moves.
    pub fn remove_region(&mut self, start_vpn: u64) -> Option<Region> {
        let slot = self.slot_covering(start_vpn)?;
        if self.regions[slot].region.start_vpn != start_vpn {
            return None;
        }
        let pos = self.positions[slot].wrapping_sub(self.base);
        debug_assert_eq!(self.index[pos], (start_vpn, slot), "stale index position");
        self.index_vacate(pos);
        self.free_slots.push(slot);
        self.regions[slot].ptes.clear();
        Some(self.regions[slot].region.clone())
    }

    /// The region starting exactly at `start_vpn`.
    pub fn region(&self, start_vpn: u64) -> Option<&Region> {
        self.region_covering(start_vpn)
            .filter(|r| r.start_vpn == start_vpn)
    }

    /// Mutable access to the region starting exactly at `start_vpn`.
    pub fn region_mut(&mut self, start_vpn: u64) -> Option<&mut Region> {
        let slot = self.slot_covering(start_vpn)?;
        Some(&mut self.regions[slot].region).filter(|r| r.start_vpn == start_vpn)
    }

    /// The region covering virtual page `vpn`, if any.
    pub fn region_covering(&self, vpn: u64) -> Option<&Region> {
        Some(&self.regions[self.slot_covering(vpn)?].region)
    }

    /// Iterates over all regions in ascending start-vpn order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.mappings().map(|(region, _)| region)
    }

    /// Iterates over all regions in ascending start-vpn order, each with its (vpn, pte)s.
    pub(crate) fn mappings(
        &self,
    ) -> impl Iterator<Item = (&Region, impl Iterator<Item = (u64, Pte)> + '_)> {
        let live = self.index.iter().filter(|&&(_, slot)| slot != VACANT);
        live.map(|&(start, slot)| {
            let Slot { region, ptes } = &self.regions[slot];
            let mapped = (start..)
                .zip(ptes)
                .filter_map(|(vpn, p)| Some((vpn, (*p)?)));
            (region, mapped)
        })
    }

    /// The region covering `vpn` and its PTE for `vpn`, in one lookup.
    pub(crate) fn mapping(&self, vpn: u64) -> Option<(&Region, Option<Pte>)> {
        let Slot { region, ptes } = &self.regions[self.slot_covering(vpn)?];
        Some((region, ptes[(vpn - region.start_vpn) as usize]))
    }

    /// The PTE entry of `vpn`, if a region covers it.
    fn pte_slot(&mut self, vpn: u64) -> Option<&mut Option<Pte>> {
        let slot = self.slot_covering(vpn)?;
        let Slot { region, ptes } = &mut self.regions[slot];
        ptes.get_mut((vpn - region.start_vpn) as usize)
    }

    /// Mutable access to the PTE for `vpn`, if mapped.
    pub(crate) fn pte_mut(&mut self, vpn: u64) -> Option<&mut Pte> {
        self.pte_slot(vpn)?.as_mut()
    }

    /// The PTE for `vpn`, if mapped.
    pub fn pte(&self, vpn: u64) -> Option<Pte> {
        *self.regions[self.slot_covering(vpn)?].entry(vpn)?
    }

    /// Installs a PTE. Panics if no region covers `vpn`: a page table
    /// maps only pages of its space's regions.
    pub fn set_pte(&mut self, vpn: u64, pte: Pte) {
        *self.pte_slot(vpn).expect("PTE outside every region") = Some(pte);
    }

    /// Removes the PTE for `vpn`, returning it.
    pub fn clear_pte(&mut self, vpn: u64) -> Option<Pte> {
        self.pte_slot(vpn)?.take()
    }

    /// Clears every PTE that maps `frame`.
    pub(crate) fn unmap_frame(&mut self, frame: FrameId) {
        for p in self.regions.iter_mut().flat_map(|e| &mut e.ptes) {
            p.take_if(|p| p.frame == frame);
        }
    }

    /// Updates permissions of an existing PTE; no-op if unmapped.
    pub fn set_prot(&mut self, vpn: u64, read: bool, write: bool) {
        if let Some(p) = self.pte_mut(vpn) {
            p.read = read;
            p.write = write;
        }
    }

    /// Iterates over all PTEs (vpn, pte) in ascending vpn order.
    pub fn ptes(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.mappings().flat_map(|(_, mapped)| mapped)
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
    pub(crate) fn mark_reclaimed(&mut self, vpns: Range<u64>) {
        self.reclaimed.push(vpns);
    }

    /// Frees a reclaimed range given any vpn inside it: the application
    /// freeing a buffer the region cache already took back. Returns
    /// false if `vpn` is not in a reclaimed range.
    pub fn free_reclaimed(&mut self, vpn: u64) -> bool {
        let Some(i) = self.reclaimed.iter().position(|r| r.contains(&vpn)) else {
            return false;
        };
        self.reclaimed.swap_remove(i);
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
        s.insert_region(region(4, 2)).unwrap();
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
        // A removed region takes its PTEs with it.
        s.set_pte(
            4,
            Pte {
                frame: FrameId(2),
                read: true,
                write: false,
            },
        );
        assert!(s.remove_region(4).is_some());
        assert!(s.pte(4).is_none());
        assert_eq!(s.ptes().count(), 0);
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
                    // Mutate by start vpn, and by a vpn inside the region.
                    _ if !live.is_empty() => {
                        let start = pick(r >> 8);
                        let inner = start + (r >> 32) % reference.0[&start].npages;
                        s.region_mut(start).expect("live").wire_count += 1;
                        let covering = s.region_covering(inner).expect("live").start_vpn;
                        s.region_mut(covering).expect("live").wire_count += 2;
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

    /// A space is sized by its live regions, not by every vpn it ever
    /// reserved: 100,000 alloc/fault/free cycles with at most four
    /// regions live (every eighth one cached, which reclaims the region
    /// cached before it; the application then frees that one) leave
    /// the index (live entries and no more vacancies than those), the
    /// arena, the hints, the page tables and the
    /// reclaimed list at a few entries. A removed region's handle stays stale after a
    /// thousand more regions have reused its slot.
    #[test]
    fn space_storage_is_bounded_by_live_regions() {
        use crate::{Access, Vm};
        use genie_mem::PhysMem;

        let mut vm = Vm::new(PhysMem::new(4096, 64));
        let s = vm.create_space();
        let bounded = |vm: &Vm, step: u64| {
            let space = vm.space(s);
            let pte_capacity: usize = space.regions.iter().map(|e| e.ptes.capacity()).sum();
            // Removals leave vacancies, at most one per live entry.
            let live = space.index.len() - space.vacancies;
            assert!(
                live <= 4 && space.index.len() <= 2 * live,
                "step {step}: index {} with {} vacancies",
                space.index.len(),
                space.vacancies
            );
            assert!(
                space.hints.len() <= 8,
                "step {step}: hints {}",
                space.hints.len()
            );
            assert!(
                space.regions.len() <= 4,
                "step {step}: arena {}",
                space.regions.len()
            );
            assert!(
                pte_capacity <= 32,
                "step {step}: PTE capacity {pte_capacity}"
            );
            assert!(
                space.reclaimed.is_empty(),
                "step {step}: reclaimed {:?}",
                space.reclaimed
            );
        };
        let mut live = VecDeque::new();
        let mut cached: Option<RegionHandle> = None;
        for i in 0..100_000u64 {
            if live.len() == 2 {
                vm.remove_region(live.pop_front().unwrap()).unwrap();
            }
            let h = vm
                .alloc_region(s, 1 + i % 3, RegionMark::Unmovable)
                .unwrap();
            vm.handle_fault(s, h.start_vpn + i % 3, Access::Write)
                .unwrap();
            if i % 8 == 0 {
                vm.cache_region(h, RegionMark::MovedOut).unwrap();
                if let Some(prev) = cached.replace(h) {
                    assert!(vm.space_mut(s).free_reclaimed(prev.start_vpn));
                    assert!(!vm.space_mut(s).free_reclaimed(prev.start_vpn));
                }
            } else {
                live.push_back(h);
            }
            bounded(&vm, i);
        }
        let stale = live.pop_front().unwrap();
        vm.remove_region(stale).unwrap();
        for _ in 0..1_000 {
            let h = vm.alloc_region(s, 1, RegionMark::Unmovable).unwrap();
            vm.remove_region(h).unwrap();
        }
        bounded(&vm, 100_000);
        let gone = Some(VmError::NoRegion(stale.start_vpn));
        assert_eq!(vm.region(stale).err(), gone);
        assert_eq!(vm.remove_region(stale).err(), gone);
    }

    /// Removals find their index position through the hinted slot, not
    /// by binary search, under the churn of a completion-queue server:
    /// about 64 buffers live, each allocated at the back and touched page
    /// by page, and freed mostly among the oldest few but one in four
    /// anywhere.
    #[test]
    fn removals_find_their_position_without_searching() {
        let mut s = space();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut live: Vec<u64> = Vec::new();
        let (mut removals, mut searches) = (0u64, 0u64);
        for step in 0..20_000u64 {
            let npages = 1 + step % 3;
            let start = s.reserve(npages);
            let reg = Region::new(start, npages, ObjectId(step), RegionMark::Unmovable);
            s.insert_region(reg).unwrap();
            for vpn in start..start + npages {
                assert_eq!(s.region_covering(vpn).map(|r| r.start_vpn), Some(start));
            }
            live.push(start);
            if live.len() > 64 {
                let r = xorshift64(&mut rng);
                let i = if r.is_multiple_of(4) {
                    (r >> 8) as usize % live.len()
                } else {
                    (r >> 8) as usize % 4
                };
                let gone = live.remove(i);
                let before = s.searches.get();
                assert_eq!(s.remove_region(gone).map(|r| r.start_vpn), Some(gone));
                searches += s.searches.get() - before;
                removals += 1;
            }
        }
        let per_removal = searches as f64 / removals as f64;
        assert!(
            per_removal <= 0.2,
            "{searches} searches in {removals} removals ({per_removal:.3} per removal)"
        );
        assert!(s.regions().map(|r| r.start_vpn).eq(live.iter().copied()));
    }
}
