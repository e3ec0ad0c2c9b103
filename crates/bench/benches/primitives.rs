//! Micro-benches of the substrate itself: how fast the simulator's
//! data structures run on the host machine (distinct from the
//! *simulated* costs, which are the paper's subject).

use genie_bench::timing::bench;
use genie_machine::SimTime;
use genie_mem::{IoDir, PhysMem};
use genie_net::{aal5, checksum16, EventQueue};
use genie_vm::{Access, RegionMark, Vm};

fn frame_allocator() {
    let mut m = PhysMem::new(4096, 256);
    bench(
        "substrate/frame_allocator/alloc_dealloc_cycle",
        1000,
        || {
            let f = m.alloc(None).expect("alloc");
            m.dealloc(f).expect("dealloc");
        },
    );
    let mut m = PhysMem::new(4096, 4);
    let f = m.alloc(None).expect("alloc");
    bench("substrate/frame_allocator/ref_unref", 1000, || {
        m.ref_io(f, IoDir::Output).expect("ref");
        m.unref_io(f, IoDir::Output).expect("unref");
    });
}

fn vm_faults() {
    bench("substrate/vm/zero_fill_fault", 200, || {
        let mut v = Vm::new(PhysMem::new(4096, 64));
        let s = v.create_space();
        let h = v.alloc_region(s, 8, RegionMark::Unmovable).expect("region");
        for i in 0..8 {
            v.handle_fault(s, h.start_vpn + i, Access::Write)
                .expect("fault");
        }
    });
    bench("substrate/vm/tcow_write_fault", 200, || {
        let mut v = Vm::new(PhysMem::new(4096, 64));
        let s = v.create_space();
        let va = v.alloc_app_buffer(s, 4096).expect("buffer");
        v.write_app(s, va, b"x").expect("touch");
        let _d = v
            .reference_pages(s, va, 4096, IoDir::Output)
            .expect("reference");
        v.write_protect(s, va, 4096);
        v.write_app(s, va, b"y").expect("tcow");
    });
}

fn aal5_codec() {
    let payload = vec![0xa5u8; 61_440];
    let mut cells = Vec::new();
    bench("substrate/aal5/segment_60k", 100, || {
        aal5::segment_into(1, &payload, &mut cells);
        std::hint::black_box(&cells);
    });
    aal5::segment_into(1, &payload, &mut cells);
    let mut pdu = Vec::new();
    bench("substrate/aal5/reassemble_60k", 100, || {
        aal5::reassemble_into(&cells, &mut pdu).expect("reassemble");
        std::hint::black_box(&pdu);
    });
    bench("substrate/aal5/crc32_60k", 100, || {
        std::hint::black_box(aal5::crc32(&payload));
    });
    bench("substrate/aal5/checksum16_60k", 100, || {
        std::hint::black_box(checksum16(&payload));
    });
}

fn event_queue() {
    bench("substrate/event_queue/push_pop_1k", 200, || {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(SimTime::from_ps(i * 37 % 511), i);
        }
        while q.pop().is_some() {}
    });
}

fn main() {
    frame_allocator();
    vm_faults();
    aal5_codec();
    event_queue();
}
