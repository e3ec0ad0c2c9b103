//! Randomized tests for the VM substrate: random operation sequences
//! must preserve structural invariants (checked by `Vm::validate`),
//! data written by the application, and frame accounting. One sequence
//! family stays on the user path (the page walk); a second mixes in the
//! kernel path (`reference_region_pages` and wiring). Sequences
//! come from a deterministic xorshift PRNG (std-only, no external
//! dependencies) so failures are reproducible.

use genie_mem::{FrameId, IoDir, PhysMem};
use genie_vm::pageout::PageoutPolicy;
use genie_vm::{IoDescriptor, RegionHandle, RegionMark, SpaceId, Vm, VmError};

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

/// The operations the fuzzer may apply.
#[derive(Clone, Debug)]
enum VmOp {
    Write {
        buf: usize,
        off: usize,
        len: usize,
        byte: u8,
    },
    Read {
        buf: usize,
        off: usize,
        len: usize,
    },
    RefOutput {
        buf: usize,
    },
    RefInput {
        buf: usize,
    },
    UnrefOldest,
    WriteProtect {
        buf: usize,
    },
    Pageout {
        max: usize,
    },
    CloneCow {
        buf: usize,
    },
    /// Kernel-privilege referencing of part of a buffer's region; an
    /// input is filled with `byte` at once, as a device would.
    RefRegion {
        buf: usize,
        off: usize,
        len: usize,
        input: bool,
        byte: u8,
    },
    Wire {
        buf: usize,
    },
    Unwire {
        buf: usize,
    },
}

fn arb_op(rng: &mut Rng) -> VmOp {
    match rng.range(0, 8) {
        0 => VmOp::Write {
            buf: rng.range(0, 3),
            off: rng.range(0, 4000),
            len: rng.range(1, 4096),
            byte: rng.next_u64() as u8,
        },
        1 => VmOp::Read {
            buf: rng.range(0, 3),
            off: rng.range(0, 4000),
            len: rng.range(1, 4096),
        },
        2 => VmOp::RefOutput {
            buf: rng.range(0, 3),
        },
        3 => VmOp::RefInput {
            buf: rng.range(0, 3),
        },
        4 => VmOp::UnrefOldest,
        5 => VmOp::WriteProtect {
            buf: rng.range(0, 3),
        },
        6 => VmOp::Pageout {
            max: rng.range(1, 16),
        },
        _ => VmOp::CloneCow {
            buf: rng.range(0, 3),
        },
    }
}

/// [`arb_op`] or, one time in three, a kernel-path operation.
fn arb_kernel_op(rng: &mut Rng) -> VmOp {
    match rng.range(0, 12) {
        0 | 1 => VmOp::RefRegion {
            buf: rng.range(0, 3),
            off: rng.range(0, 8192),
            len: rng.range(1, 8192),
            input: rng.range(0, 2) == 0,
            byte: rng.next_u64() as u8,
        },
        2 => VmOp::Wire {
            buf: rng.range(0, 3),
        },
        3 => VmOp::Unwire {
            buf: rng.range(0, 3),
        },
        _ => arb_op(rng),
    }
}

/// Shadow model of one application buffer.
struct BufModel {
    vaddr: u64,
    len: usize,
    contents: Vec<u8>,
    /// Wires outstanding on the buffer's region.
    wires: usize,
}

/// Arbitrary interleavings of writes, reads, I/O referencing, pageout,
/// write-protection and COW cloning keep the VM structurally
/// consistent and never lose application data.
#[test]
fn random_op_sequences_preserve_invariants() {
    let mut rng = Rng::new(8);
    for case in 0..64 {
        let steps = rng.range(1, 60);
        let ops: Vec<VmOp> = (0..steps).map(|_| arb_op(&mut rng)).collect();
        run_case(case, ops);
    }
}

/// The kernel path mixed into the user-path operations: referencing a
/// region at object level (input and output) and wiring it resolve
/// pages without the walk, and must keep the same invariants, data and
/// frame accounting.
#[test]
fn random_kernel_path_sequences_preserve_invariants() {
    let mut rng = Rng::new(33);
    for case in 0..64 {
        let steps = rng.range(1, 60);
        let ops: Vec<VmOp> = (0..steps).map(|_| arb_kernel_op(&mut rng)).collect();
        run_case(case, ops);
    }
}

fn run_case(case: usize, ops: Vec<VmOp>) {
    let mut vm = Vm::new(PhysMem::new(4096, 512));
    let space = vm.create_space();
    let clone_space = vm.create_space();
    // Three app buffers of two pages each, pre-filled.
    let mut bufs: Vec<BufModel> = (0..3)
        .map(|i| {
            let len = 2 * 4096;
            let vaddr = vm.alloc_app_buffer(space, len).expect("buffer");
            let contents = vec![i as u8 + 1; len];
            vm.write_app(space, vaddr, &contents).expect("fill");
            BufModel {
                vaddr,
                len,
                contents,
                wires: 0,
            }
        })
        .collect();
    let mut pending: Vec<IoDescriptor> = Vec::new();
    // Each COW clone with the contents it was made with.
    let mut clones: Vec<(RegionHandle, Vec<u8>)> = Vec::new();
    let region = |vm: &Vm, b: &BufModel| vm.region_at(space, b.vaddr).expect("region");

    for op in ops {
        match op {
            VmOp::Write {
                buf,
                off,
                len,
                byte,
            } => {
                let b = &mut bufs[buf];
                let off = off.min(b.len - 1);
                let len = len.min(b.len - off);
                let data = vec![byte; len];
                vm.write_app(space, b.vaddr + off as u64, &data)
                    .expect("write");
                b.contents[off..off + len].fill(byte);
            }
            VmOp::Read { buf, off, len } => {
                let b = &bufs[buf];
                let off = off.min(b.len - 1);
                let len = len.min(b.len - off);
                let va = b.vaddr + off as u64;
                // Every way of reading the range sees the same bytes:
                // the side-effect-free peek before the read, then the
                // in-place compare and the fused copy into kernel
                // frames after it.
                let peeked = vm.peek(space, va, len).expect("peek");
                let got = vm.read_app(space, va, len).expect("read");
                assert_eq!(peeked, got, "case {case}: peek vs read_app");
                assert_eq!(&got[..], &b.contents[off..off + len], "case {case}");
                assert!(
                    vm.app_matches(space, va, &got).expect("match"),
                    "case {case}: app_matches on the bytes just read"
                );
                let mut wrong = got.clone();
                wrong[len - 1] ^= 0xff;
                assert!(
                    !vm.app_matches(space, va, &wrong).expect("mismatch"),
                    "case {case}: app_matches missed a flipped last byte"
                );
                let frames: Vec<FrameId> = (0..len.div_ceil(4096))
                    .map(|_| vm.alloc_frame(None, true).expect("kernel frame"))
                    .collect();
                vm.copy_app_into_frames(space, va, len, &frames)
                    .expect("copy into frames");
                let mut copied = Vec::with_capacity(len);
                for (i, &f) in frames.iter().enumerate() {
                    let n = (len - i * 4096).min(4096);
                    copied.extend_from_slice(vm.phys.read(f, 0, n).expect("frame"));
                }
                assert_eq!(copied, got, "case {case}: copy_app_into_frames");
                for f in frames {
                    vm.phys.dealloc(f).expect("free kernel frame");
                }
            }
            VmOp::RefOutput { buf } => {
                let b = &bufs[buf];
                let d = vm
                    .reference_pages(space, b.vaddr, b.len, IoDir::Output)
                    .expect("reference");
                pending.push(d);
            }
            VmOp::RefInput { buf } => {
                let b = &bufs[buf];
                let d = vm
                    .reference_pages(space, b.vaddr, b.len, IoDir::Input)
                    .expect("reference");
                pending.push(d);
            }
            VmOp::UnrefOldest => {
                if !pending.is_empty() {
                    let d = pending.remove(0);
                    vm.unreference(d).expect("unreference");
                }
            }
            VmOp::WriteProtect { buf } => {
                let b = &bufs[buf];
                vm.write_protect(space, b.vaddr, b.len);
            }
            VmOp::Pageout { max } => {
                vm.pageout_scan(max, PageoutPolicy::InputDisabled)
                    .expect("pageout");
            }
            VmOp::CloneCow { buf } => {
                let b = &bufs[buf];
                let h = vm.region_at(space, b.vaddr).expect("region");
                let (clone, _physical) = vm.clone_region_cow(h, clone_space).expect("clone");
                clones.push((clone, b.contents.clone()));
                // The clone must read identical contents.
                let got = vm
                    .read_app(clone_space, clone.start_vpn * 4096, b.len)
                    .expect("clone read");
                assert_eq!(&got[..], &b.contents[..], "case {case}");
            }
            VmOp::RefRegion {
                buf,
                off,
                len,
                input,
                byte,
            } => {
                let b = &mut bufs[buf];
                let off = off.min(b.len - 1);
                let len = len.min(b.len - off);
                let dir = if input { IoDir::Input } else { IoDir::Output };
                let d = vm
                    .reference_region_pages(region(&vm, b), off, len, dir)
                    .expect("reference region");
                // The descriptor covers the buffer's current bytes.
                let mut seen = Vec::with_capacity(len);
                for v in &d.vecs {
                    seen.extend_from_slice(vm.phys.read(v.frame, v.offset, v.len).expect("frame"));
                }
                assert_eq!(&seen[..], &b.contents[off..off + len], "case {case}");
                if input {
                    for v in &d.vecs {
                        vm.phys
                            .write(v.frame, v.offset, &vec![byte; v.len])
                            .expect("dma");
                    }
                    b.contents[off..off + len].fill(byte);
                }
                pending.push(d);
            }
            VmOp::Wire { buf } => {
                let h = region(&vm, &bufs[buf]);
                vm.wire_region(h).expect("wire");
                bufs[buf].wires += 1;
            }
            VmOp::Unwire { buf } => {
                let h = region(&vm, &bufs[buf]);
                if bufs[buf].wires == 0 {
                    assert_eq!(vm.unwire_region(h), Err(VmError::WireUnderflow));
                } else {
                    vm.unwire_region(h).expect("unwire");
                    bufs[buf].wires -= 1;
                }
            }
        }
        let problems = vm.validate();
        assert!(
            problems.is_empty(),
            "case {case}: invariants violated: {problems:?}"
        );
    }

    // Drain pending I/O and verify all data once more.
    for d in pending.drain(..) {
        vm.unreference(d).expect("unreference");
    }
    for b in &bufs {
        let got = vm.read_app(space, b.vaddr, b.len).expect("final read");
        assert_eq!(&got[..], &b.contents[..], "case {case}");
    }
    // No later write to a source, wired or not, reaches its clones.
    for (clone, contents) in &clones {
        let got = vm
            .read_app(clone_space, clone.start_vpn * 4096, contents.len())
            .expect("final clone read");
        assert_eq!(&got[..], &contents[..], "case {case}: clone contents");
    }
    let problems = vm.validate();
    assert!(
        problems.is_empty(),
        "case {case}: final invariants violated: {problems:?}"
    );

    // Every frame comes back once the regions are gone.
    for b in &bufs {
        let h = region(&vm, b);
        for _ in 0..b.wires {
            vm.unwire_region(h).expect("unwire");
        }
        vm.remove_region(h).expect("remove");
    }
    for (h, _) in clones {
        vm.remove_region(h).expect("remove clone");
    }
    assert_eq!(
        vm.phys.free_frames(),
        vm.phys.total_frames(),
        "case {case}: frames leaked"
    );
}

/// Alternating pageout and access across two spaces sharing COW pages
/// never mixes their data.
#[test]
fn cow_isolation_under_memory_pressure() {
    let mut rng = Rng::new(9);
    for case in 0..64 {
        let writes: Vec<(usize, u8)> = (0..rng.range(1, 20))
            .map(|_| (rng.range(0, 8192), rng.next_u64() as u8))
            .collect();

        let mut vm = Vm::new(PhysMem::new(4096, 256));
        let s1 = vm.create_space();
        let s2 = vm.create_space();
        let va = vm.alloc_app_buffer(s1, 8192).expect("buffer");
        let original = vec![0xeeu8; 8192];
        vm.write_app(s1, va, &original).expect("fill");
        let h = vm.region_at(s1, va).expect("region");
        let (clone, physical) = vm.clone_region_cow(h, s2).expect("clone");
        assert!(!physical);
        let clone_va = clone.start_vpn * 4096;

        let mut s1_model = original.clone();
        for (off, byte) in writes {
            vm.write_app(s1, va + off as u64, &[byte])
                .expect("cow write");
            s1_model[off] = byte;
            vm.pageout_scan(4, PageoutPolicy::InputDisabled)
                .expect("pressure");
            let problems = vm.validate();
            assert!(problems.is_empty(), "case {case}: {problems:?}");
        }
        let got1 = vm.read_app(s1, va, 8192).expect("s1");
        let got2 = vm.read_app(s2, clone_va, 8192).expect("s2");
        assert_eq!(got1, s1_model, "case {case}");
        assert_eq!(got2, original, "case {case}");
    }
}

#[test]
fn validate_reports_clean_fresh_vm() {
    let mut vm = Vm::new(PhysMem::new(4096, 16));
    let s = vm.create_space();
    let va = vm.alloc_app_buffer(s, 4096).expect("buffer");
    vm.write_app(s, va, b"x").expect("write");
    assert!(vm.validate().is_empty());
    let _ = SpaceId(0);
    let _ = RegionMark::MovedIn;
}
