//! The Credit Net host interface, with the paper's three input
//! buffering architectures (Section 6.2).
//!
//! - **Early demultiplexed**: incoming data is DMAed straight into the
//!   buffer the pending input posted on its VC (scatter/gather of host
//!   frames). The per-VC posted lists are the world's pending inputs,
//!   which scatter through [`Adapter::dma_scatter`]; a PDU that arrives
//!   with no input pending falls back to the overlay pool, counted in
//!   [`AdapterStats::pooled_fallbacks`].
//! - **Pooled in-host**: the adapter allocates input buffers from a
//!   pool of fixed-size overlay pages in host memory, without regard
//!   to the request or connection.
//! - **Outboard**: the adapter buffers incoming PDUs in its own
//!   memory; the host later DMAs the data to its final destination
//!   (a store-and-forward architecture). The arriving wire image is
//!   kept as is, so storing it copies nothing.
//!
//! The transmit side gathers host frames by simulated DMA into a wire
//! image of page shares ([`WirePdu`]): the bytes the frames hold at
//! transmit, with no copy made unless the sender writes a shared page
//! later. Like real DMA this is **not** subject to page-table
//! protections; only the page-referencing discipline keeps it safe.
//! The receive side copies the image's bytes into host frames, except
//! that a whole destination page takes a whole-page segment over.

use std::collections::VecDeque;

use genie_mem::{DenseMap, FrameId, MemError, PageSlice, PhysMem};
use genie_vm::IoVec;

use crate::aal5::WirePdu;
use crate::credit::CreditState;

/// Virtual-circuit identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vc(pub u32);

/// Input buffering architecture of the receive path (paper
/// Section 6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputBuffering {
    /// Early demultiplexed: data lands in the buffer of the input
    /// pending on its VC.
    EarlyDemux,
    /// Pooled in-host overlay pages.
    Pooled,
    /// Outboard adapter memory.
    Outboard,
}

/// Receive-path counters, by buffering outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// PDUs delivered by the adapter, any architecture.
    pub pdus_received: u64,
    /// Early-demux PDUs that found nothing posted and fell back to the
    /// overlay pool.
    pub pooled_fallbacks: u64,
    /// Overlay frames taken from the pool.
    pub pool_takes: u64,
    /// PDUs dropped because the pool could not cover them.
    pub pool_exhausted_drops: u64,
    /// PDUs stored in outboard adapter memory.
    pub outboard_stores: u64,
}

/// The simulated network adapter of one host.
#[derive(Debug)]
pub struct Adapter {
    mode: InputBuffering,
    pool: VecDeque<FrameId>,
    /// Outboard adapter memory: each slot holds a stored wire PDU
    /// (header, page shares and cell metadata), not loose bytes.
    outboard: Vec<Option<WirePdu>>,
    /// Per-VC credit state, flat-indexed by VC number.
    credits: DenseMap<CreditState>,
    credit_limit: u32,
    stats: AdapterStats,
}

impl Adapter {
    /// Creates an adapter with the given receive architecture and
    /// per-VC credit limit.
    pub fn new(mode: InputBuffering, credit_limit: u32) -> Self {
        Adapter {
            mode,
            pool: VecDeque::new(),
            outboard: Vec::new(),
            credits: DenseMap::new(),
            credit_limit,
            stats: AdapterStats::default(),
        }
    }

    /// The receive architecture.
    pub fn mode(&self) -> InputBuffering {
        self.mode
    }

    /// Receive-path counters.
    pub fn stats(&self) -> AdapterStats {
        self.stats
    }

    // ----- credits (transmit side) --------------------------------------------

    /// Credit state for `vc`, created at the limit on first use.
    pub fn credits_mut(&mut self, vc: Vc) -> &mut CreditState {
        let limit = self.credit_limit;
        self.credits
            .get_or_insert_with(u64::from(vc.0), || CreditState::new(limit))
    }

    /// The per-VC credit limit in cells: no PDU larger than this can
    /// ever be sent.
    pub fn credit_limit(&self) -> u32 {
        self.credit_limit
    }

    /// Attempts to reserve transmit credits for `cells` cells on `vc`.
    pub fn try_send_credits(&mut self, vc: Vc, cells: u32) -> bool {
        self.credits_mut(vc).try_consume(cells)
    }

    /// Returns credits to `vc` (receiver drained buffers).
    pub fn return_credits(&mut self, vc: Vc, cells: u32) {
        self.credits_mut(vc).replenish(cells);
    }

    // ----- overlay pool (pooled in-host buffering) -------------------------------

    /// Adds frames to the overlay pool.
    pub fn fill_pool(&mut self, frames: impl IntoIterator<Item = FrameId>) {
        self.pool.extend(frames);
    }

    /// Frames currently in the overlay pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    // ----- datapath ---------------------------------------------------------------

    /// Transmit-side DMA: appends a share of each descriptor entry's
    /// bytes to `out`, so the wire image holds the frames' bytes as of
    /// now without copying them. Like real DMA this ignores page-table
    /// protections; the page-referencing discipline is what keeps it
    /// safe.
    pub fn dma_gather_into(
        phys: &mut PhysMem,
        vecs: &[IoVec],
        out: &mut Vec<PageSlice>,
    ) -> Result<(), MemError> {
        out.reserve(vecs.len());
        for v in vecs {
            out.push(phys.share(v.frame, v.offset, v.len)?);
        }
        Ok(())
    }

    /// Receive-side DMA: stores `pdu`'s bytes from byte `from` on into
    /// the destination list of `(frame, offset, len)` ranges, in order,
    /// and returns the number of bytes stored. A segment that is one
    /// whole page and meets a whole destination page is taken over
    /// instead of copied ([`PhysMem::share_into`]).
    pub fn dma_scatter(
        phys: &mut PhysMem,
        dsts: impl IntoIterator<Item = (FrameId, usize, usize)>,
        pdu: &WirePdu,
        from: usize,
    ) -> Result<usize, MemError> {
        let page = phys.page_size();
        // The source, piece by piece: the header, then each segment. A
        // piece's slice is kept only while none of it is consumed.
        let mut pieces = core::iter::once((pdu.header(), None))
            .chain(pdu.segments().iter().map(|s| (s.bytes(), Some(s))));
        let mut cur: (&[u8], Option<&PageSlice>) = (&[], None);
        let mut skip = from;
        let mut stored = 0;
        for (frame, offset, len) in dsts {
            let (mut at, end) = (offset, offset + len);
            while at < end {
                while cur.0.is_empty() {
                    let Some(next) = pieces.next() else {
                        return Ok(stored);
                    };
                    cur = next;
                    let n = skip.min(cur.0.len());
                    if n > 0 {
                        cur = (&cur.0[n..], None);
                        skip -= n;
                    }
                }
                if (at, end) == (0, page) {
                    if let Some(slice) = cur.1.filter(|_| cur.0.len() == page) {
                        if phys.share_into(frame, slice)? {
                            cur = (&[], None);
                            at = end;
                            stored += page;
                            continue;
                        }
                    }
                }
                let n = (end - at).min(cur.0.len());
                phys.write(frame, at, &cur.0[..n])?;
                cur = (&cur.0[n..], None);
                at += n;
                stored += n;
            }
        }
        Ok(stored)
    }

    /// Delivers a received PDU into overlay frames from the pool,
    /// appending the frames it filled to `overlay` (every frame full but
    /// the last), and returns true; returns false, counting
    /// [`AdapterStats::pool_exhausted_drops`], if the pool could not
    /// cover the PDU and it was dropped. An early-demux adapter gets
    /// here only when no input is pending on the PDU's VC, and counts
    /// the fallback (paper Section 6.2.2).
    ///
    /// # Panics
    ///
    /// On an outboard adapter, which keeps the wire image instead (see
    /// [`Adapter::store_outboard`]).
    pub fn receive(
        &mut self,
        phys: &mut PhysMem,
        pdu: &WirePdu,
        overlay: &mut Vec<FrameId>,
    ) -> Result<bool, MemError> {
        self.stats.pdus_received += 1;
        match self.mode {
            InputBuffering::EarlyDemux => self.stats.pooled_fallbacks += 1,
            InputBuffering::Pooled => {}
            InputBuffering::Outboard => {
                unreachable!("an outboard adapter keeps the wire image: use store_outboard")
            }
        }
        let page = phys.page_size();
        let need = pdu.len().div_ceil(page).max(1);
        if self.pool.len() < need {
            self.stats.pool_exhausted_drops += 1;
            return Ok(false);
        }
        self.stats.pool_takes += need as u64;
        let first = overlay.len();
        overlay.extend(self.pool.drain(..need));
        let dsts = overlay[first..].iter().map(|&f| (f, 0, page));
        Self::dma_scatter(phys, dsts, pdu, 0)?;
        Ok(true)
    }

    // ----- outboard memory -----------------------------------------------------

    /// Stores an arriving PDU in outboard adapter memory and returns
    /// its slot. The wire image itself is kept (taken over, not
    /// copied); [`Adapter::outboard_free`] hands it back.
    pub fn store_outboard(&mut self, pdu: WirePdu) -> usize {
        self.stats.pdus_received += 1;
        self.stats.outboard_stores += 1;
        match self.outboard.iter().position(Option::is_none) {
            Some(i) => {
                self.outboard[i] = Some(pdu);
                i
            }
            None => {
                self.outboard.push(Some(pdu));
                self.outboard.len() - 1
            }
        }
    }

    /// The header bytes of the PDU in an outboard buffer.
    pub fn outboard_header(&self, buf: usize) -> Option<&[u8]> {
        Some(self.outboard.get(buf)?.as_ref()?.header())
    }

    /// Frees an outboard buffer, handing its PDU to the caller.
    pub fn outboard_free(&mut self, buf: usize) -> Option<WirePdu> {
        self.outboard.get_mut(buf)?.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::HEADER_LEN;

    fn phys() -> PhysMem {
        PhysMem::new(4096, 64)
    }

    fn vec_for(phys: &mut PhysMem, len: usize) -> Vec<IoVec> {
        let page = phys.page_size();
        let mut vecs = Vec::new();
        let mut left = len;
        while left > 0 {
            let f = phys.alloc(None).unwrap();
            let n = left.min(page);
            vecs.push(IoVec {
                frame: f,
                offset: 0,
                len: n,
                object: None,
            });
            left -= n;
        }
        vecs
    }

    /// `payload`'s bytes as a wire PDU: a header's worth inline, the
    /// rest gathered from frames written with them.
    fn gathered(p: &mut PhysMem, payload: &[u8]) -> (WirePdu, Vec<IoVec>) {
        let src = vec_for(p, payload.len() - HEADER_LEN);
        let dsts = src.iter().map(|v| (v.frame, v.offset, v.len));
        let bytes = WirePdu::from_bytes(0, payload, Vec::new());
        Adapter::dma_scatter(p, dsts, &bytes, HEADER_LEN).unwrap();
        let mut segs = Vec::new();
        Adapter::dma_gather_into(p, &src, &mut segs).unwrap();
        let header = payload[..HEADER_LEN].try_into().unwrap();
        (WirePdu::from_parts(0, header, segs), src)
    }

    #[test]
    fn gather_shares_and_scatter_copies_or_adopts() {
        let mut p = phys();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let (pdu, src) = gathered(&mut p, &payload);
        assert!(pdu.matches(&payload));
        let counts = p.copy_counts();
        assert_eq!(counts.shares_taken, 3, "one share per source page");
        // The sender's later write leaves the image as gathered.
        p.write(src[0].frame, 0, b"late").unwrap();
        assert!(pdu.matches(&payload));
        assert_eq!(p.copy_counts().cow_copies, 1);
        // Scattering past the header into whole pages adopts the two
        // whole-page segments and copies the partial tail.
        let dst = vec_for(&mut p, payload.len() - HEADER_LEN);
        let before = p.copy_counts();
        let dsts = dst.iter().map(|v| (v.frame, v.offset, v.len));
        let n = Adapter::dma_scatter(&mut p, dsts, &pdu, HEADER_LEN).unwrap();
        assert_eq!(n, payload.len() - HEADER_LEN);
        let after = p.copy_counts();
        assert_eq!(after.shares_adopted - before.shares_adopted, 2);
        assert_eq!(
            after.bytes_copied - before.bytes_copied,
            10_000 - 16 - 2 * 4096
        );
        let mut got = Vec::new();
        for v in &dst {
            got.extend_from_slice(p.read(v.frame, v.offset, v.len).unwrap());
        }
        assert_eq!(got, payload[HEADER_LEN..]);
    }

    #[test]
    fn scatter_stops_at_either_end() {
        let mut p = phys();
        let pdu = WirePdu::from_bytes(0, &[5u8; 100], Vec::new());
        let f = p.alloc(None).unwrap();
        // Destination shorter than the PDU.
        let n = Adapter::dma_scatter(&mut p, [(f, 10, 30)], &pdu, 0).unwrap();
        assert_eq!(n, 30);
        // PDU shorter than the destination.
        let n = Adapter::dma_scatter(&mut p, [(f, 0, 4096)], &pdu, 90).unwrap();
        assert_eq!(n, 10);
        assert_eq!(
            p.read(f, 0, 12).unwrap(),
            &[5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]
        );
    }

    #[test]
    fn early_demux_falls_back_to_pool_when_unposted() {
        let mut p = phys();
        let mut a = Adapter::new(InputBuffering::EarlyDemux, 256);
        let pool: Vec<FrameId> = (0..4).map(|_| p.alloc(None).unwrap()).collect();
        a.fill_pool(pool);
        let payload = vec![0x11u8; 6000];
        let mut frames = Vec::new();
        assert!(a
            .receive(
                &mut p,
                &WirePdu::from_bytes(0, &payload, Vec::new()),
                &mut frames
            )
            .unwrap());
        assert_eq!(frames.len(), 2);
        assert_eq!(p.read(frames[0], 0, 4096).unwrap(), &payload[..4096]);
        assert_eq!(p.read(frames[1], 0, 6000 - 4096).unwrap(), &payload[4096..]);
        assert_eq!(a.pool_len(), 2);
    }

    #[test]
    fn pooled_drops_when_pool_exhausted() {
        let mut p = phys();
        let mut a = Adapter::new(InputBuffering::Pooled, 256);
        let f = p.alloc(None).unwrap();
        a.fill_pool([f]);
        let mut frames = Vec::new();
        let big = WirePdu::from_bytes(0, &[1u8; 8000], Vec::new());
        assert!(!a.receive(&mut p, &big, &mut frames).unwrap());
        assert_eq!(a.stats().pool_exhausted_drops, 1);
        assert!(frames.is_empty());
        // The single-frame PDU still goes through.
        let small = WirePdu::from_bytes(0, &[2u8; 100], Vec::new());
        assert!(a.receive(&mut p, &small, &mut frames).unwrap());
        assert_eq!(frames, [f]);
    }

    #[test]
    fn outboard_takes_over_the_wire_image() {
        let mut a = Adapter::new(InputBuffering::Outboard, 256);
        let pdu = WirePdu::from_bytes(4, b"outboard payload, second page", Vec::new());
        let at = pdu.segments()[0].bytes().as_ptr();
        let buf = a.store_outboard(pdu);
        assert_eq!(a.outboard_header(buf).unwrap(), b"outboard payload");
        // The stored PDU is the arriving one: same storage, same vc
        // and cell metadata, no copy.
        let stored = a.outboard_free(buf).unwrap();
        assert_eq!(stored.segments()[0].bytes().as_ptr(), at);
        assert_eq!((stored.vc(), stored.n_cells()), (4, 1));
        assert_eq!(a.outboard_free(buf), None);
        // The slot is reused.
        assert_eq!(
            a.store_outboard(WirePdu::from_bytes(0, b"again", Vec::new())),
            buf
        );
        let s = a.stats();
        assert_eq!((s.pdus_received, s.outboard_stores), (2, 2));
    }

    #[test]
    fn credits_flow() {
        let mut a = Adapter::new(InputBuffering::EarlyDemux, 4);
        assert!(a.try_send_credits(Vc(9), 3));
        assert!(!a.try_send_credits(Vc(9), 2));
        a.return_credits(Vc(9), 3);
        assert!(a.try_send_credits(Vc(9), 2));
        // Other VCs are independent.
        assert!(a.try_send_credits(Vc(10), 4));
    }

    #[test]
    fn dma_ignores_page_protections() {
        // DMA reads data regardless of PTE permissions; this is why
        // referencing/TCOW (not protections) guard in-flight pages.
        let mut p = phys();
        let f = p.alloc(None).unwrap();
        p.write(f, 0, b"protected?").unwrap();
        let vecs = [IoVec {
            frame: f,
            offset: 0,
            len: 10,
            object: None,
        }];
        // No page table involved at all at this layer.
        let mut segs = Vec::new();
        Adapter::dma_gather_into(&mut p, &vecs, &mut segs).unwrap();
        assert_eq!(segs[0].bytes(), b"protected?");
    }

    #[test]
    fn stats_track_receive_outcomes() {
        let mut p = phys();
        let mut a = Adapter::new(InputBuffering::EarlyDemux, 256);
        a.fill_pool([p.alloc(None).unwrap()]);
        let mut frames = Vec::new();
        let pdu = WirePdu::from_bytes(0, &[7u8; 100], Vec::new());
        a.receive(&mut p, &pdu, &mut frames).unwrap();
        // The pool is empty now: the next fallback drops.
        a.receive(&mut p, &pdu, &mut frames).unwrap();
        let s = a.stats();
        assert_eq!(s.pdus_received, 2);
        assert_eq!(s.pooled_fallbacks, 2);
        assert_eq!(s.pool_takes, 1);
        assert_eq!(s.pool_exhausted_drops, 1);
        // A pooled adapter has no fallback to count.
        let mut b = Adapter::new(InputBuffering::Pooled, 256);
        b.receive(&mut p, &pdu, &mut frames).unwrap();
        assert_eq!(b.stats().pooled_fallbacks, 0);
    }
}
