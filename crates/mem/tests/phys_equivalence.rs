//! Equivalence of the growing frame table with an eager reference.
//!
//! `PhysMem` builds frame table entries as ids are first handed out
//! and attaches page storage on a frame's first write. The reference
//! below is the eager design it replaced: the full frame array with a
//! real page per frame and a free stack prefilled `(0..n).rev()`.
//! Seeded random operation sequences must produce the same ids, errors,
//! counters and page bytes from both.
//!
//! The lazy side also zeroes in O(1) and reuses page storage without a
//! scrub, clearing only the dirty extent a new write does not cover.
//! So the sequences mix writes, copies and range zeroing of random
//! extents with zeroed allocations of just-written frames, and each case drops and
//! rebuilds both allocators partway, so storage recycled stale from
//! the dropped `PhysMem` meets every write shape. A stale byte would
//! show as a page-bytes mismatch.

use genie_mem::{FrameId, FrameState, IoDir, MemError, PhysMem};

const PAGE: usize = 256;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

#[derive(Clone)]
struct EagerFrame {
    page: Vec<u8>,
    state: FrameState,
    ins: u16,
    outs: u16,
    owner: Option<u64>,
}

/// The eager allocator: every frame and page exists from the start.
struct EagerMem {
    frames: Vec<EagerFrame>,
    free: Vec<FrameId>,
    deferred: u64,
    allocs: u64,
    deallocs: u64,
    peak: usize,
}

impl EagerMem {
    fn new(n: usize) -> Self {
        let frame = EagerFrame {
            page: vec![0; PAGE],
            state: FrameState::Free,
            ins: 0,
            outs: 0,
            owner: None,
        };
        EagerMem {
            frames: vec![frame; n],
            free: (0..n as u32).rev().map(FrameId).collect(),
            deferred: 0,
            allocs: 0,
            deallocs: 0,
            peak: 0,
        }
    }

    fn alloc(&mut self, owner: Option<u64>) -> Result<FrameId, MemError> {
        let id = self.free.pop().ok_or(MemError::OutOfFrames)?;
        let f = &mut self.frames[id.0 as usize];
        f.state = FrameState::Allocated;
        f.owner = owner;
        self.allocs += 1;
        self.peak = self.peak.max(self.frames.len() - self.free.len());
        Ok(id)
    }

    fn alloc_zeroed(&mut self, owner: Option<u64>) -> Result<FrameId, MemError> {
        let id = self.alloc(owner)?;
        self.frames[id.0 as usize].page.fill(0);
        Ok(id)
    }

    fn dealloc(&mut self, id: FrameId) -> Result<(), MemError> {
        let f = &mut self.frames[id.0 as usize];
        if f.state != FrameState::Allocated {
            return Err(MemError::DoubleFree(id));
        }
        f.owner = None;
        if f.ins + f.outs > 0 {
            f.state = FrameState::Zombie;
            self.deferred += 1;
        } else {
            f.state = FrameState::Free;
            self.free.push(id);
        }
        self.deallocs += 1;
        Ok(())
    }

    fn adopt(&mut self, id: FrameId, owner: Option<u64>) -> Result<(), MemError> {
        let f = &mut self.frames[id.0 as usize];
        if f.state == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        f.state = FrameState::Allocated;
        f.owner = owner;
        Ok(())
    }

    fn ref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = &mut self.frames[id.0 as usize];
        if f.state == FrameState::Free {
            return Err(MemError::NotAllocated(id));
        }
        match dir {
            IoDir::Input => f.ins += 1,
            IoDir::Output => f.outs += 1,
        }
        Ok(())
    }

    fn unref_io(&mut self, id: FrameId, dir: IoDir) -> Result<(), MemError> {
        let f = &mut self.frames[id.0 as usize];
        let c = match dir {
            IoDir::Input => &mut f.ins,
            IoDir::Output => &mut f.outs,
        };
        *c = c.checked_sub(1).ok_or(MemError::RefUnderflow(id))?;
        if f.state == FrameState::Zombie && f.ins + f.outs == 0 {
            f.state = FrameState::Free;
            self.free.push(id);
        }
        Ok(())
    }

    fn write(&mut self, id: FrameId, offset: usize, bytes: &[u8]) {
        self.frames[id.0 as usize].page[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    fn copy(&mut self, src: FrameId, src_off: usize, dst: FrameId, dst_off: usize, len: usize) {
        let bytes = self.frames[src.0 as usize].page[src_off..src_off + len].to_vec();
        self.write(dst, dst_off, &bytes);
    }
}

/// Random bytes over a random extent of a page: `(offset, bytes)`.
fn random_write(rng: &mut Rng) -> (usize, Vec<u8>) {
    let off = rng.range(0, PAGE);
    let len = rng.range(0, PAGE - off + 1);
    (off, (0..len).map(|_| rng.next_u64() as u8).collect())
}

/// Compares every observable of the two allocators.
fn assert_agree(case: u64, step: usize, lazy: &PhysMem, eager: &EagerMem, seen: &[FrameId]) {
    let at = format!("case {case} step {step}");
    assert_eq!(lazy.total_frames(), eager.frames.len(), "{at}");
    assert_eq!(lazy.free_frames(), eager.free.len(), "{at}");
    assert_eq!(lazy.peak_in_use(), eager.peak, "{at}");
    assert_eq!(lazy.deferred_free_count(), eager.deferred, "{at}");
    assert_eq!(lazy.alloc_count(), eager.allocs, "{at}");
    assert_eq!(lazy.dealloc_count(), eager.deallocs, "{at}");
    assert_eq!(lazy.touched_frames(), seen.len(), "{at}");
    assert!(lazy.backed_frames() <= lazy.touched_frames(), "{at}");
    for &id in seen {
        let (l, e) = (
            lazy.frame(id).expect("handed-out frame"),
            &eager.frames[id.0 as usize],
        );
        assert_eq!(l.state(), e.state, "{at} {id:?}");
        assert_eq!(
            (l.in_count(), l.out_count()),
            (e.ins, e.outs),
            "{at} {id:?}"
        );
        assert_eq!(l.owner(), e.owner, "{at} {id:?}");
        assert_eq!(l.data(), &e.page[..], "{at} {id:?} page bytes");
    }
    // Ids never handed out are free in the reference, untouched and
    // zero: exactly what the lazy table leaves unbuilt.
    for e in &eager.frames[seen.len()..] {
        assert_eq!(e.state, FrameState::Free, "{at}");
        assert!(e.page.iter().all(|&b| b == 0), "{at}");
    }
}

/// Runs one seeded case; returns (allocations refused, frees deferred)
/// so the sweep can check it exercised both edges.
fn run_case(case: u64) -> (u64, u64) {
    let mut rng = Rng::new(case);
    let n = rng.range(1, 40);
    let mut lazy = PhysMem::new(PAGE, n);
    let mut eager = EagerMem::new(n);
    // Every id handed out so far, in first-allocation order.
    let mut seen: Vec<FrameId> = Vec::new();
    // Bias the mix per case so some runs drain the allocator and others
    // churn a few frames.
    let alloc_weight = rng.range(2, 8);
    let rebuild_at = rng.range(50, 250);
    let (mut refused, mut deferred) = (0, 0);
    for step in 0..300 {
        if step == rebuild_at {
            // Drop both mid-case: the lazy side's storage goes to the
            // pool with its extents, and the new `PhysMem` draws it
            // back stale.
            deferred += eager.deferred;
            drop(lazy);
            lazy = PhysMem::new(PAGE, n);
            eager = EagerMem::new(n);
            seen.clear();
        }
        let op = rng.range(0, alloc_weight + 11);
        let pick = |rng: &mut Rng| (!seen.is_empty()).then(|| seen[rng.range(0, seen.len())]);
        let dir = if rng.next_u64() & 1 == 0 {
            IoDir::Input
        } else {
            IoDir::Output
        };
        let owner = Some(rng.range(0, 4) as u64).filter(|&o| o > 0);
        if op < alloc_weight {
            let zeroed = op % 2 == 1;
            if zeroed && op == 1 {
                // Dirty a random extent of the frame the zeroed
                // allocation will pop, so it zeroes a written page.
                if let Some(&top) = eager.free.last().filter(|id| seen.contains(id)) {
                    let (off, bytes) = random_write(&mut rng);
                    eager.write(top, off, &bytes);
                    lazy.write(top, off, &bytes).expect("handed-out frame");
                }
            }
            let (l, e) = if zeroed {
                (lazy.alloc_zeroed(owner), eager.alloc_zeroed(owner))
            } else {
                (lazy.alloc(owner), eager.alloc(owner))
            };
            assert_eq!(l, e, "case {case} step {step}: alloc id");
            match l {
                Ok(id) if !seen.contains(&id) => seen.push(id),
                Ok(_) => {}
                Err(_) => refused += 1,
            }
        } else if let Some(id) = pick(&mut rng) {
            let (l, e) = match op - alloc_weight {
                0 | 1 => (lazy.dealloc(id), eager.dealloc(id)),
                2 => (lazy.ref_io(id, dir), eager.ref_io(id, dir)),
                3 => (lazy.unref_io(id, dir), eager.unref_io(id, dir)),
                4 => (lazy.adopt(id, owner), eager.adopt(id, owner)),
                k @ (5 | 6) => {
                    // Copies within one frame, or between two (which
                    // may still pick the same one), free ones included.
                    let dst = if k == 5 {
                        id
                    } else {
                        pick(&mut rng).expect("seen")
                    };
                    let len = rng.range(0, PAGE + 1);
                    let (src_off, dst_off) =
                        (rng.range(0, PAGE - len + 1), rng.range(0, PAGE - len + 1));
                    eager.copy(id, src_off, dst, dst_off, len);
                    (lazy.copy(id, src_off, dst, dst_off, len), Ok(()))
                }
                7 => {
                    // Zero-complete a random range of any frame.
                    let end = rng.range(0, PAGE + 1);
                    let start = rng.range(0, end + 1);
                    eager.write(id, start, &vec![0; end - start]);
                    (lazy.zero_range(id, start..end), Ok(()))
                }
                _ => {
                    // Writes go to any handed-out frame, free ones too:
                    // the bytes a later plain `alloc` leaks must match.
                    let (off, bytes) = random_write(&mut rng);
                    eager.write(id, off, &bytes);
                    (lazy.write(id, off, &bytes), Ok(()))
                }
            };
            assert_eq!(l, e, "case {case} step {step}: op {op}");
        }
        assert_agree(case, step, &lazy, &eager, &seen);
    }
    (refused, deferred + eager.deferred)
}

#[test]
fn growing_table_matches_eager_reference() {
    let (mut refused, mut deferred) = (0, 0);
    for case in 0..200 {
        let (r, d) = run_case(case);
        refused += r;
        deferred += d;
    }
    assert!(refused > 0, "no case ran out of frames");
    assert!(deferred > 0, "no case deferred a free");
}
