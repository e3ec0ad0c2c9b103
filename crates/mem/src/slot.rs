//! Flat storage primitives for hot-path simulator state.
//!
//! Two containers replace the `BTreeMap`s that used to back per-op and
//! per-page bookkeeping:
//!
//! - [`SlotMap`]: a generational arena. Values live in a dense `Vec`,
//!   freed slots go on a free list and are reused, and every key
//!   carries the slot's generation so a stale key (e.g. a retransmit
//!   timer for an op that already completed and whose slot was reused)
//!   fails to resolve instead of aliasing the new occupant.
//! - [`DenseMap`]: a `Vec<Option<T>>` keyed by a small non-negative
//!   index (virtual page number, object page index, VC number).
//!   Lookup is one bounds check and one array load; iteration is in
//!   ascending key order, matching the `BTreeMap` it replaces.
//!
//! Neither container ever hands out interior pointers; keys are plain
//! integers, so the structures stay `Clone` and deterministic.

/// Key into a [`SlotMap`]: generation in the high 32 bits, slot index
/// in the low 32. Generations start at 1, so every valid key is
/// `>= 1 << 32` and can share a `u64` namespace with small counters.
pub type SlotKey = u64;

const GEN_SHIFT: u32 = 32;

/// Packs a (generation, slot) pair into a [`SlotKey`].
#[inline]
pub fn slot_key(gen: u32, slot: u32) -> SlotKey {
    ((gen as u64) << GEN_SHIFT) | slot as u64
}

/// The slot index half of a [`SlotKey`].
#[inline]
pub fn key_slot(key: SlotKey) -> u32 {
    key as u32
}

/// The generation half of a [`SlotKey`].
#[inline]
pub fn key_gen(key: SlotKey) -> u32 {
    (key >> GEN_SHIFT) as u32
}

/// A generational arena with free-list slot reuse.
#[derive(Clone, Debug)]
pub struct SlotMap<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

#[derive(Clone, Debug)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

impl<T> SlotMap<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SlotMap {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing a freed slot if one is available, and
    /// returns its generational key.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none());
            s.value = Some(value);
            slot_key(s.gen, slot)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slot map overflow");
            self.slots.push(Slot {
                gen: 1,
                value: Some(value),
            });
            slot_key(1, slot)
        }
    }

    /// The value for `key`, unless the key is stale or was removed.
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        let s = self.slots.get(key_slot(key) as usize)?;
        if s.gen != key_gen(key) {
            return None;
        }
        s.value.as_ref()
    }

    /// Mutable access to the value for `key`.
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        let s = self.slots.get_mut(key_slot(key) as usize)?;
        if s.gen != key_gen(key) {
            return None;
        }
        s.value.as_mut()
    }

    /// Removes and returns the value for `key`. The slot's generation
    /// is bumped and the slot is recycled, so `key` (and any copies of
    /// it) can never resolve again.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = key_slot(key);
        let s = self.slots.get_mut(slot as usize)?;
        if s.gen != key_gen(key) {
            return None;
        }
        let v = s.value.take()?;
        s.gen = s.gen.wrapping_add(1).max(1);
        self.free.push(slot);
        self.len -= 1;
        Some(v)
    }

    /// Iterates over live `(key, &value)` pairs in slot-index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.value.as_ref().map(|v| (slot_key(s.gen, i as u32), v)))
    }
}

/// A map from small non-negative integer keys to values, stored flat.
///
/// Grows to the largest key ever inserted; `remove` leaves a hole that
/// later inserts refill. Iteration order is ascending key order, the
/// same contract as the `BTreeMap` this replaces.
#[derive(Clone, Debug)]
pub struct DenseMap<T> {
    entries: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for DenseMap<T> {
    fn default() -> Self {
        DenseMap::new()
    }
}

impl<T> DenseMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            entries: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, if occupied.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        self.entries.get(key as usize)?.as_ref()
    }

    /// Mutable access to the value at `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.entries.get_mut(key as usize)?.as_mut()
    }

    /// Inserts `value` at `key`, growing the table as needed, and
    /// returns the previous occupant.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let idx = usize::try_from(key).expect("dense map key overflow");
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, || None);
        }
        let prev = self.entries[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Mutable access to the value at `key`, inserting
    /// `default()` first if the key is vacant.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> T) -> &mut T {
        let idx = usize::try_from(key).expect("dense map key overflow");
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, || None);
        }
        let e = &mut self.entries[idx];
        if e.is_none() {
            *e = Some(default());
            self.len += 1;
        }
        e.as_mut().unwrap()
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let v = self.entries.get_mut(key as usize)?.take();
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Iterates over occupied `(key, &value)` pairs in ascending key
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|v| (i as u64, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_map_insert_get_remove() {
        let mut m = SlotMap::new();
        let a = m.insert("a");
        let b = m.insert("b");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a), Some(&"a"));
        assert_eq!(m.get_mut(b).map(|v| *v), Some("b"));
        assert_eq!(m.remove(a), Some("a"));
        assert_eq!(m.get(a), None);
        assert_eq!(m.remove(a), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slot_map_stale_key_fails_after_reuse() {
        let mut m = SlotMap::new();
        let a = m.insert(1u32);
        m.remove(a);
        let b = m.insert(2u32);
        // Slot reused, generation bumped: same slot, different key.
        assert_eq!(key_slot(a), key_slot(b));
        assert_ne!(a, b);
        assert_eq!(m.get(a), None);
        assert_eq!(m.get(b), Some(&2));
    }

    #[test]
    fn slot_keys_are_disjoint_from_small_counters() {
        let mut m = SlotMap::new();
        let k = m.insert(());
        assert!(k >= 1 << 32);
    }

    #[test]
    fn dense_map_insert_get_remove_iter() {
        let mut m = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(3, "c2"), Some("c"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(3), Some(&"c2"));
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(99), None);
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3]);
        assert_eq!(m.remove(1), Some("a"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dense_map_get_or_insert_with() {
        let mut m: DenseMap<Vec<u32>> = DenseMap::new();
        m.get_or_insert_with(2, Vec::new).push(7);
        m.get_or_insert_with(2, Vec::new).push(8);
        assert_eq!(m.get(2), Some(&vec![7, 8]));
        assert_eq!(m.len(), 1);
    }
}
