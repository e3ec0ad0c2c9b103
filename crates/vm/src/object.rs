//! Memory objects with Mach-style shadow chains.
//!
//! A memory object holds the pages backing one or more regions. For
//! copy-on-write, a region's *top* object may shadow another object:
//! pages are looked up top-down along the shadow chain, and a write
//! fault on a page found below the top copies it up (the conventional
//! COW of Rashid et al., which the paper contrasts with TCOW).
//!
//! Each object also maintains the **total number of input references
//! to its pages in current input operations** — the count behind the
//! paper's *input-disabled COW* (Section 3.3).

use genie_mem::{DenseMap, FrameId};

use crate::ids::ObjectId;

/// A memory object: a flat map from object page index to physical
/// frame, plus paged-out contents and an optional shadow link. Page
/// indices are small and dense (they index into the object's backing
/// regions), so both tables are [`DenseMap`]s: one array load per
/// lookup, ascending-index iteration.
#[derive(Clone, Debug)]
pub struct MemoryObject {
    /// Resident pages.
    pages: DenseMap<FrameId>,
    /// Paged-out page contents (the simulated backing store).
    paged: DenseMap<Box<[u8]>>,
    /// Object this one shadows for COW, if any.
    shadow: Option<ObjectId>,
    /// Pending input references to pages of this object.
    input_refs: u32,
    /// Number of regions/shadows that reference this object.
    refs: u32,
}

impl MemoryObject {
    /// Creates an empty object whose resident-page table reuses the
    /// storage of `pages`, an emptied table of a destroyed object.
    pub(crate) fn with_page_table(pages: DenseMap<FrameId>) -> Self {
        debug_assert!(pages.is_empty(), "recycled page table not emptied");
        MemoryObject {
            pages,
            paged: DenseMap::new(),
            shadow: None,
            input_refs: 0,
            refs: 1,
        }
    }

    /// Consumes the object, returning its resident-page table (still
    /// filled) so its storage can serve a later object.
    pub(crate) fn into_page_table(self) -> DenseMap<FrameId> {
        self.pages
    }

    /// Resident frame for object page `idx`, if present.
    pub fn page(&self, idx: u64) -> Option<FrameId> {
        self.pages.get(idx).copied()
    }

    /// Installs (or replaces) the resident frame for page `idx`,
    /// returning the frame it replaced.
    pub fn set_page(&mut self, idx: u64, frame: FrameId) -> Option<FrameId> {
        self.pages.insert(idx, frame)
    }

    /// Removes the resident frame for page `idx`.
    pub fn take_page(&mut self, idx: u64) -> Option<FrameId> {
        self.pages.remove(idx)
    }

    /// Iterates over resident pages.
    pub fn pages(&self) -> impl Iterator<Item = (u64, FrameId)> + '_ {
        self.pages.iter().map(|(i, &f)| (i, f))
    }

    /// Paged-out contents of page `idx`, if any.
    pub fn paged(&self, idx: u64) -> Option<&[u8]> {
        self.paged.get(idx).map(|b| &b[..])
    }

    /// Stores paged-out contents for page `idx`.
    pub fn set_paged(&mut self, idx: u64, data: Box<[u8]>) {
        self.paged.insert(idx, data);
    }

    /// Removes and returns paged-out contents for page `idx`.
    pub fn take_paged(&mut self, idx: u64) -> Option<Box<[u8]>> {
        self.paged.remove(idx)
    }

    /// The object this one shadows, if any.
    pub fn shadow(&self) -> Option<ObjectId> {
        self.shadow
    }

    /// Sets the shadow link.
    pub fn set_shadow(&mut self, shadow: Option<ObjectId>) {
        self.shadow = shadow;
    }

    /// Pending input references to pages of this object.
    pub fn input_refs(&self) -> u32 {
        self.input_refs
    }

    /// Bumps the pending-input count (input page referencing).
    pub fn add_input_ref(&mut self) {
        self.input_refs += 1;
    }

    /// Drops one pending-input count (input unreferencing).
    pub fn drop_input_ref(&mut self) {
        debug_assert!(self.input_refs > 0, "object input_refs underflow");
        self.input_refs = self.input_refs.saturating_sub(1);
    }

    /// External reference count (regions + shadowing objects).
    pub fn refs(&self) -> u32 {
        self.refs
    }

    /// Adds an external reference.
    pub fn add_ref(&mut self) {
        self.refs += 1;
    }

    /// Drops an external reference, returning the new count.
    pub fn drop_external_ref(&mut self) -> u32 {
        debug_assert!(self.refs > 0, "object refs underflow");
        self.refs = self.refs.saturating_sub(1);
        self.refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_install_replace_remove() {
        let mut o = MemoryObject::with_page_table(DenseMap::new());
        assert_eq!(o.page(0), None);
        assert_eq!(o.set_page(0, FrameId(5)), None);
        assert_eq!(o.page(0), Some(FrameId(5)));
        assert_eq!(o.set_page(0, FrameId(6)), Some(FrameId(5)));
        assert_eq!(o.take_page(0), Some(FrameId(6)));
        assert_eq!(o.pages().count(), 0);
    }

    #[test]
    fn input_ref_accounting() {
        let mut o = MemoryObject::with_page_table(DenseMap::new());
        o.add_input_ref();
        o.add_input_ref();
        assert_eq!(o.input_refs(), 2);
        o.drop_input_ref();
        assert_eq!(o.input_refs(), 1);
    }

    #[test]
    fn paged_contents_round_trip() {
        let mut o = MemoryObject::with_page_table(DenseMap::new());
        o.set_paged(3, vec![9u8; 16].into_boxed_slice());
        assert_eq!(o.paged(3).unwrap(), &[9u8; 16][..]);
        assert_eq!(o.take_paged(3).unwrap().len(), 16);
        assert!(o.paged(3).is_none());
    }
}
