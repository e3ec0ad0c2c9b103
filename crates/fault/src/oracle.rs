//! Invariant oracles for the paper's safety claims.
//!
//! The oracle is consulted by the `World` event loop after every
//! simulated event (structural sweeps over both hosts' memory) and at
//! the datapath's delivery points (end-to-end checks per datagram).
//! It never panics; it accumulates [`Violation`]s so a swarm test can
//! report every broken invariant together with the reproducer seed.
//!
//! The checked properties, from the paper:
//!
//! 1. **Strong-integrity delivery**: data delivered under copy/move
//!    semantics equals the bytes promised at output invocation — a
//!    producer scribbling its buffer after `output` returns must not
//!    show through (TCOW / system-buffer copies work), and recovery
//!    must not deliver damaged bytes (AAL5 CRC works).
//! 2. **I/O-deferred deallocation**: no frame with live I/O references
//!    is ever free, and no frame sits in the deferred (zombie) state
//!    without a pending reference to justify it.
//! 3. **Input-disabled pageout / COW**: a frame targeted by pending
//!    input still belongs to a live owner — the pageout daemon and
//!    copy-on-write never hand it to another owner mid-DMA.
//! 4. **Gapless sequencing**: per (host, VC), delivered sequence
//!    numbers are exactly 0, 1, 2, … even after loss and retransmit.
//! 5. **VM structural consistency**: `Vm::validate`'s page-table /
//!    object-chain invariants hold after every event.

use std::collections::BTreeMap;

use genie_mem::{FrameId, FrameState, PhysMem};
use genie_vm::{ObjectId, Vm};

/// One violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description, prefixed with the check site.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

/// The cross-cutting invariant oracle.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    /// Promised payload fingerprint per (VC, sequence number) —
    /// strong-integrity semantics only. Keyed by wire identity rather
    /// than token because the sender's output token and the receiver's
    /// input token are different namespaces.
    promised: BTreeMap<(u32, u32), u64>,
    /// Next expected delivered sequence number per (host index, VC).
    seq_next: BTreeMap<(usize, u32), u32>,
    violations: Vec<Violation>,
    checks: u64,
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    fn flag(&mut self, what: String) {
        self.violations.push(Violation { what });
    }

    /// Records the payload fingerprint an output promised at
    /// invocation (call only for strong-integrity semantics).
    pub fn record_promised(&mut self, vc: u32, seq: u32, hash: u64) {
        self.promised.insert((vc, seq), hash);
    }

    /// Checks one completed delivery: sequence gaplessness for every
    /// semantics, payload fingerprint when the sender promised one.
    pub fn on_delivery(&mut self, host: usize, vc: u32, seq: u32, delivered: u64) {
        self.checks += 1;
        let next = *self.seq_next.get(&(host, vc)).unwrap_or(&0);
        if seq != next {
            self.flag(format!(
                "delivery on host {host} vc {vc}: seq {seq} but expected {next} (gap or duplicate)"
            ));
        }
        self.seq_next.insert((host, vc), seq.max(next) + 1);
        if let Some(want) = self.promised.remove(&(vc, seq)) {
            if want != delivered {
                self.flag(format!(
                    "delivery on host {host} vc {vc} seq {seq}: strong-integrity payload \
                     fingerprint {delivered:#018x} != promised {want:#018x}"
                ));
            }
        }
    }

    /// Sweeps physical memory: I/O-deferred deallocation invariants.
    /// Only touched frames are visited: a frame never handed out is
    /// free with no I/O references, so it can violate neither rule.
    pub fn check_frames(&mut self, site: &str, phys: &PhysMem) {
        self.checks += 1;
        for i in 0..phys.touched_frames() {
            let id = FrameId(i as u32);
            let Ok(f) = phys.frame(id) else { continue };
            if f.state() == FrameState::Free && f.io_pending() {
                self.flag(format!(
                    "{site}: frame {i} is free with live I/O references \
                     (in={}, out={})",
                    f.in_count(),
                    f.out_count()
                ));
            }
            if f.state() == FrameState::Zombie && !f.io_pending() {
                self.flag(format!(
                    "{site}: frame {i} is deferred-free (zombie) with no pending I/O"
                ));
            }
        }
    }

    /// Sweeps one host's VM: structural invariants plus the
    /// input-disabled ownership rule for DMA-targeted frames.
    pub fn check_vm(&mut self, site: &str, vm: &Vm) {
        self.checks += 1;
        for problem in vm.validate() {
            self.flag(format!("{site}: {problem}"));
        }
        self.check_frames(site, &vm.phys);
        // A frame with pending *input* is a DMA target: its owner must
        // still be live, or it must be kernel-owned (owner None). A
        // dead owner means pageout/COW handed the page away mid-DMA.
        for i in 0..vm.phys.touched_frames() {
            let id = FrameId(i as u32);
            let Ok(f) = vm.phys.frame(id) else { continue };
            if f.in_count() > 0 && f.state() == FrameState::Allocated {
                if let Some(owner) = f.owner() {
                    let oid = ObjectId(owner);
                    if !vm.object_live(oid) {
                        self.flag(format!(
                            "{site}: input-referenced frame {i} owned by dead {oid:?} \
                             (DMA target handed away)"
                        ));
                    }
                }
            }
        }
    }

    /// All violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True if no invariant has been violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of oracle checks performed (swarm tests assert this is
    /// nonzero, so a misconfigured run can't pass vacuously).
    pub fn checks_run(&self) -> u64 {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_mem::{fnv64, IoDir};

    #[test]
    fn clean_memory_passes() {
        let mut phys = PhysMem::new(4096, 8);
        let _f = phys.alloc(None).unwrap();
        let mut o = Oracle::new();
        o.check_frames("test", &phys);
        assert!(o.ok(), "{:?}", o.violations());
        assert_eq!(o.checks_run(), 1);
    }

    #[test]
    fn zombie_with_pending_io_is_legal_but_freed_with_io_is_not() {
        let mut phys = PhysMem::new(4096, 8);
        let f = phys.alloc(None).unwrap();
        phys.ref_io(f, IoDir::Input).unwrap();
        phys.dealloc(f).unwrap(); // deferred: becomes zombie
        let mut o = Oracle::new();
        o.check_frames("test", &phys);
        assert!(o.ok(), "{:?}", o.violations());
        // Completing the I/O recycles the frame; a clean sweep again.
        phys.unref_io(f, IoDir::Input).unwrap();
        o.check_frames("test", &phys);
        assert!(o.ok(), "{:?}", o.violations());
    }

    #[test]
    fn sequence_gap_is_flagged() {
        let mut o = Oracle::new();
        o.on_delivery(1, 7, 0, 0);
        o.on_delivery(1, 7, 2, 0); // gap: seq 1 missing
        assert!(!o.ok());
        assert!(o.violations()[0].what.contains("expected 1"));
    }

    #[test]
    fn per_vc_sequences_are_independent() {
        let mut o = Oracle::new();
        o.on_delivery(0, 1, 0, 0);
        o.on_delivery(0, 2, 0, 0);
        o.on_delivery(1, 1, 0, 0);
        o.on_delivery(0, 1, 1, 0);
        assert!(o.ok(), "{:?}", o.violations());
    }

    #[test]
    fn promised_fingerprint_mismatch_is_flagged() {
        let mut o = Oracle::new();
        o.record_promised(1, 0, fnv64(b"original"));
        o.on_delivery(1, 1, 0, fnv64(b"scribbled"));
        assert!(!o.ok());
        assert!(o.violations()[0].what.contains("fingerprint"));
        // Weak-integrity deliveries (no promise recorded) don't check.
        let mut o2 = Oracle::new();
        o2.on_delivery(1, 1, 0, fnv64(b"whatever"));
        assert!(o2.ok());
    }

    #[test]
    fn a_dead_owner_is_flagged_even_after_its_slot_is_reused() {
        let mut vm = Vm::new(PhysMem::new(4096, 32));
        let s = vm.create_space();
        let old_va = vm.alloc_app_buffer(s, 4096).unwrap();
        let old = vm.region_at(s, old_va).unwrap();
        let dead = vm.region(old).unwrap().object;
        vm.remove_region(old).unwrap();
        // The next object takes the dead one's slot.
        let new_va = vm.alloc_app_buffer(s, 4096).unwrap();
        let live = vm.region(vm.region_at(s, new_va).unwrap()).unwrap().object;
        assert_eq!(genie_mem::key_slot(live.0), genie_mem::key_slot(dead.0));
        assert!(!vm.object_live(dead));
        // A DMA target still tagged with the dead owner.
        let f = vm.alloc_frame(Some(dead.0), false).unwrap();
        vm.phys.ref_io(f, IoDir::Input).unwrap();
        let mut o = Oracle::new();
        o.check_vm("test", &vm);
        assert_eq!(o.violations().len(), 1, "{:?}", o.violations());
        assert!(o.violations()[0].what.contains("owned by dead"));
        // Retagged to the live object, the frame passes.
        vm.phys.frame_mut(f).unwrap().set_owner(Some(live.0));
        let mut o = Oracle::new();
        o.check_vm("test", &vm);
        assert!(o.ok(), "{:?}", o.violations());
    }

    #[test]
    fn vm_sweep_is_clean_on_a_fresh_vm() {
        let mut vm = Vm::new(PhysMem::new(4096, 32));
        let s = vm.create_space();
        let va = vm.alloc_app_buffer(s, 8192).unwrap();
        vm.write_app(s, va, b"data").unwrap();
        let mut o = Oracle::new();
        o.check_vm("test", &vm);
        assert!(o.ok(), "{:?}", o.violations());
    }
}
