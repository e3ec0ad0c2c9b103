//! Randomized end-to-end tests: arbitrary payloads, sizes, alignments
//! and semantics must always deliver byte-exact data, and the
//! reverse-copyout planner must always cover every byte exactly once
//! while staying under its copy bound. Cases come from a deterministic
//! xorshift PRNG (std-only, no external dependencies).

use genie::{plan_aligned_input, HostId, OutputRequest, PageAction, Semantics, World, WorldConfig};
use genie_net::Vc;

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

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.range(0, xs.len())]
    }
}

const RX_MODES: [genie_net::InputBuffering; 3] = [
    genie_net::InputBuffering::EarlyDemux,
    genie_net::InputBuffering::Pooled,
    genie_net::InputBuffering::Outboard,
];

/// Any (semantics, buffering, size, alignment, payload) delivers
/// byte-exact data at a valid location.
#[test]
fn delivery_is_byte_exact() {
    let mut rng = Rng::new(10);
    for case in 0..48 {
        let semantics = rng.pick(&Semantics::ALL);
        let rx_mode = rng.pick(&RX_MODES);
        let len = rng.range(1, 20_000);
        let page_off = rng.range(0, 4096);
        let seed = rng.next_u64() as u8;

        let cfg = WorldConfig {
            rx_buffering: rx_mode,
            frames_per_host: 512,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);
        let tx = world.create_process(HostId::A);
        let rx = world.create_process(HostId::B);
        let data: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
            .collect();

        let src = match semantics.allocation() {
            genie::Allocation::Application => world
                .alloc_buffer(HostId::A, tx, len, page_off)
                .expect("src"),
            genie::Allocation::System => {
                let (_r, s) = world
                    .host_mut(HostId::A)
                    .alloc_io_buffer(tx, len)
                    .expect("io buffer");
                s
            }
        };
        world.app_write(HostId::A, tx, src, &data).expect("fill");

        world
            .post_receive(HostId::B, rx, semantics, Vc(1), len, page_off)
            .expect("prepost");
        world
            .output(
                HostId::A,
                OutputRequest::new(semantics, Vc(1), tx, src, len),
            )
            .expect("output");
        world.run();
        let done = world.take_completed_inputs();
        assert_eq!(done.len(), 1, "case {case}");
        let c = done[0];
        assert_eq!(c.len, len, "case {case}");
        let got = world.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
        assert_eq!(got, data, "case {case}");
    }
}

/// The reverse-copyout plan covers every byte exactly once, never
/// copies more than the threshold per page, and its page count matches
/// the span.
#[test]
fn swap_plan_invariants() {
    let mut rng = Rng::new(11);
    for case in 0..256 {
        let page_off = rng.range(0, 4096);
        let len = rng.range(1, 65_000);
        let threshold = rng.range(0, 4097);

        let plans: Vec<_> = plan_aligned_input(4096, page_off, len, threshold).collect();
        let covered: usize = plans.iter().map(|p| p.data_len).sum();
        assert_eq!(covered, len, "case {case}");
        assert_eq!(plans.len(), (page_off + len).div_ceil(4096), "case {case}");
        let mut expected_start = page_off;
        for p in &plans {
            assert_eq!(p.data_start, expected_start, "case {case}");
            assert!(p.data_start + p.data_len <= 4096, "case {case}");
            match p.action {
                PageAction::CopyOut => {
                    assert!(p.data_len <= threshold || p.data_len == 0, "case {case}")
                }
                PageAction::SwapWhole => {
                    assert_eq!(p.data_len, 4096, "case {case}");
                    assert_eq!(p.data_start, 0, "case {case}");
                }
                PageAction::FillAndSwap {
                    fill_prefix,
                    fill_suffix,
                } => {
                    assert!(p.data_len > threshold, "case {case}");
                    assert_eq!(fill_prefix, p.data_start, "case {case}");
                    assert_eq!(fill_prefix + p.data_len + fill_suffix, 4096, "case {case}");
                }
            }
            expected_start = 0;
        }
    }
}

/// Back-to-back datagrams on one VC arrive in order with consecutive
/// sequence numbers, whatever the semantics.
#[test]
fn pipelined_datagrams_stay_ordered() {
    let mut rng = Rng::new(12);
    for case in 0..48 {
        let semantics = rng.pick(&Semantics::ALL);
        let count = rng.range(2, 6);
        let len = rng.range(100, 8000);

        let cfg = WorldConfig {
            frames_per_host: 1024,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);
        let tx = world.create_process(HostId::A);
        let rx = world.create_process(HostId::B);

        // Prepost all inputs, then fire all outputs back to back.
        for _ in 0..count {
            world
                .post_receive(HostId::B, rx, semantics, Vc(1), len, 0)
                .expect("prepost");
        }
        for i in 0..count {
            let src = world
                .alloc_source(HostId::A, tx, semantics, &vec![i as u8 + 1; len])
                .expect("src");
            world
                .output(
                    HostId::A,
                    OutputRequest::new(semantics, Vc(1), tx, src, len),
                )
                .expect("output");
        }
        world.run();
        let done = world.take_completed_inputs();
        assert_eq!(done.len(), count, "case {case}");
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.seq as usize, i, "case {case}");
            let got = world.read_app(HostId::B, rx, c.vaddr, c.len).expect("read");
            assert!(
                got.iter().all(|&b| b == i as u8 + 1),
                "case {case}: datagram {i} corrupted"
            );
        }
    }
}
