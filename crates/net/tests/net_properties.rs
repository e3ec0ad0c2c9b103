//! Randomized property tests for the network substrate: AAL5 framing,
//! corruption detection, header codec, checksums and credit accounting.
//!
//! Cases are generated by a deterministic xorshift PRNG (std-only, no
//! external dependencies) so every run exercises the same inputs and a
//! failure is reproducible from the case index alone.

use genie_net::{aal5, checksum16, CreditState, DatagramHeader, HEADER_LEN};

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

    fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

/// Segmentation/reassembly round-trips any payload.
#[test]
fn aal5_round_trips() {
    let mut rng = Rng::new(1);
    for case in 0..256 {
        let len = rng.range(0, 20_000);
        let payload = rng.bytes(len);
        let vc = rng.next_u64() as u32;
        let cells = aal5::segment(vc, &payload);
        assert!(cells.iter().all(|c| c.vc == vc), "case {case}: vc mangled");
        assert_eq!(
            aal5::reassemble(&cells).expect("reassemble"),
            payload,
            "case {case}: round trip"
        );
    }
}

/// Any single-bit corruption anywhere in any cell is detected.
#[test]
fn aal5_detects_any_single_bit_flip() {
    let mut rng = Rng::new(2);
    for case in 0..256 {
        let len = rng.range(1, 2000);
        let payload = rng.bytes(len);
        let mut cells = aal5::segment(0, &payload);
        let ci = rng.range(0, cells.len());
        let byte = rng.range(0, 48);
        let bit = rng.range(0, 8);
        cells[ci].payload[byte] ^= 1 << bit;
        assert!(
            aal5::reassemble(&cells).is_err(),
            "case {case}: corruption undetected (cell {ci}, byte {byte}, bit {bit})"
        );
    }
}

/// Dropping any one cell is detected.
#[test]
fn aal5_detects_any_dropped_cell() {
    let mut rng = Rng::new(3);
    let mut done = 0;
    while done < 256 {
        let len = rng.range(60, 4000);
        let payload = rng.bytes(len);
        let mut cells = aal5::segment(0, &payload);
        if cells.len() < 2 {
            continue;
        }
        let di = rng.range(0, cells.len());
        cells.remove(di);
        assert!(
            aal5::reassemble(&cells).is_err(),
            "case {done}: dropped cell {di} undetected"
        );
        done += 1;
    }
}

/// Header encode/decode is the identity.
#[test]
fn header_round_trips() {
    let mut rng = Rng::new(4);
    for case in 0..256 {
        let h = DatagramHeader {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            len: rng.next_u64() as u32,
            checksum: rng.next_u64() as u16,
            flags: rng.next_u64() as u16,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), HEADER_LEN);
        assert_eq!(DatagramHeader::decode(&enc), Some(h), "case {case}");
    }
}

/// The Internet checksum verifies: folding the data with its own
/// checksum (padded to even length) yields zero.
#[test]
fn checksum_self_verifies() {
    let mut rng = Rng::new(5);
    for case in 0..256 {
        let len = rng.range(0, 5000);
        let data = rng.bytes(len);
        let c = checksum16(&data);
        let mut with = data.clone();
        if with.len() % 2 == 1 {
            with.push(0);
        }
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(checksum16(&with), 0, "case {case}");
    }
}

/// Credit accounting: available never exceeds the limit.
#[test]
fn credits_never_exceed_limit() {
    let mut rng = Rng::new(6);
    for case in 0..256 {
        let limit = rng.range(1, 1000) as u32;
        let mut c = CreditState::new(limit);
        for _ in 0..rng.range(1, 100) {
            let n = rng.range(1, 64) as u32;
            if rng.flip() {
                c.try_consume(n);
            } else {
                c.replenish(n);
            }
            assert!(c.available() <= c.limit(), "case {case}: over limit");
        }
    }
}
