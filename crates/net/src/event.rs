//! Deterministic discrete-event queue.
//!
//! A binary min-heap of small `(time, tie-break, slot)` keys over a
//! slab of event payloads. Ordering is by `(time, seq)` where `seq` is
//! a monotonic push counter, so events pushed for the same instant pop
//! in push order (a strict requirement for reproducible experiments).
//!
//! Heap sifts move only the keys, each packed into one `u128` (time in
//! the high 64 bits, then a 40-bit `seq`, then a 24-bit slot) so one
//! integer comparison orders them: `seq` is unique, so the slot bits
//! never decide. Payloads stay put in the slab, whose vacated slots are
//! reused through a free list, so a steady-state queue allocates
//! nothing. Push and pop are O(log n) whatever the schedule's shape — a
//! burst of same-instant events costs the same per event as scattered
//! ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use genie_machine::SimTime;

/// Bits of a heap key below `seq`, holding the slab slot.
const SLOT_BITS: u32 = 24;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap of packed `time << 64 | seq << SLOT_BITS | slot` keys.
    heap: BinaryHeap<Reverse<u128>>,
    /// Event payloads, indexed by the heap key's slot.
    slab: Vec<Option<E>>,
    /// Vacant slab slots.
    free: Vec<u32>,
    /// Monotonic push counter breaking same-instant ties FIFO.
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        assert!(seq < 1 << (64 - SLOT_BITS), "event sequence overflow");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                let slot = self.slab.len() - 1;
                assert!(slot < 1 << SLOT_BITS, "event slab overflow");
                slot as u32
            }
        };
        let tie = seq << SLOT_BITS | u64::from(slot);
        self.heap
            .push(Reverse(u128::from(time.0) << 64 | u128::from(tie)));
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = (key as u32) & ((1 << SLOT_BITS) - 1);
        let event = self.slab[slot as usize]
            .take()
            .expect("heap key names a live slot");
        self.free.push(slot);
        Some((SimTime((key >> 64) as u64), event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|Reverse(key)| SimTime((key >> 64) as u64))
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(3.0), "c");
        q.push(SimTime::from_us(1.0), "a");
        q.push(SimTime::from_us(2.0), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_us(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// A queue with the same ordering contract built the obvious way —
    /// a heap of whole entries ordered by `(time, seq)` — kept as the
    /// ordering oracle for the equivalence tests below.
    mod reference {
        use super::SimTime;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        pub struct HeapQueue<E> {
            heap: BinaryHeap<Reverse<Entry<E>>>,
            seq: u64,
        }

        struct Entry<E> {
            time: SimTime,
            seq: u64,
            event: E,
        }

        impl<E> PartialEq for Entry<E> {
            fn eq(&self, other: &Self) -> bool {
                self.time == other.time && self.seq == other.seq
            }
        }
        impl<E> Eq for Entry<E> {}
        impl<E> PartialOrd for Entry<E> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<E> Ord for Entry<E> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.time, self.seq).cmp(&(other.time, other.seq))
            }
        }

        impl<E> HeapQueue<E> {
            pub fn new() -> Self {
                HeapQueue {
                    heap: BinaryHeap::new(),
                    seq: 0,
                }
            }
            pub fn push(&mut self, time: SimTime, event: E) {
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Reverse(Entry { time, seq, event }));
            }
            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                self.heap.pop().map(|Reverse(e)| (e.time, e.event))
            }
            pub fn peek_time(&self) -> Option<SimTime> {
                self.heap.peek().map(|Reverse(e)| e.time)
            }
        }
    }

    fn xorshift64(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A pseudo-random time: near-zero, microsecond-scale, or far
    /// future.
    fn scattered_time(r: u64) -> SimTime {
        match r % 3 {
            0 => SimTime(r % 1_000),
            1 => SimTime(r % 100_000_000),
            _ => SimTime(r % 10_000_000_000_000),
        }
    }

    /// Drives the reference heap and the queue with an identical
    /// schedule — bursts of same-instant events, scattered far-future
    /// times, interleaved pops — and demands identical pop order
    /// throughout (including the drain).
    #[test]
    fn equivalent_to_binary_heap_on_identical_schedules() {
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut heap = reference::HeapQueue::new();
            let mut q = EventQueue::new();
            let mut id = 0u32;
            for step in 0..4000 {
                let r = xorshift64(&mut rng);
                match r % 5 {
                    // Single push at a pseudo-random time.
                    0 | 1 => {
                        let t = scattered_time(r);
                        heap.push(t, id);
                        q.push(t, id);
                        id += 1;
                    }
                    // Same-instant burst: FIFO among ties must hold.
                    2 => {
                        let t = SimTime(r % 50_000_000);
                        for _ in 0..(r % 7 + 2) {
                            heap.push(t, id);
                            q.push(t, id);
                            id += 1;
                        }
                    }
                    // Pop from both, demand identical results.
                    _ => {
                        assert_eq!(heap.peek_time(), q.peek_time(), "seed {seed} step {step}");
                        assert_eq!(heap.pop(), q.pop(), "seed {seed} step {step}");
                    }
                }
            }
            loop {
                let (h, c) = (heap.pop(), q.pop());
                assert_eq!(h, c, "seed {seed} drain");
                if h.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn push_earlier_than_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(1_000_000), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(SimTime(10), "early");
        q.push(SimTime(2_000_000), "later");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// Slab slots are recycled: churn at a fixed pending count never
    /// grows the slab past that count.
    #[test]
    fn churn_reuses_slab_slots() {
        let mut q = EventQueue::new();
        let mut rng = 42u64;
        for i in 0..64u64 {
            q.push(SimTime(xorshift64(&mut rng) % 1_000_000), i);
        }
        for _ in 0..10_000 {
            let (t, e) = q.pop().unwrap();
            q.push(SimTime(t.0 + xorshift64(&mut rng) % 1_000 + 1), e);
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.slab.len(), 64);
    }

    #[test]
    fn bulk_fill_drains_sorted() {
        let mut q = EventQueue::new();
        let mut rng = 42u64;
        let mut times = Vec::new();
        for _ in 0..5000 {
            let t = SimTime(xorshift64(&mut rng) % 1_000_000_000);
            times.push(t);
            q.push(t, t.0);
        }
        times.sort();
        for t in times {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, t);
        }
        assert!(q.is_empty());
    }
}
