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
//! The transmit side gathers real bytes from host frames by simulated
//! DMA — which, like real DMA, is **not** subject to page-table
//! protections; only the page-referencing discipline keeps it safe.

use std::collections::VecDeque;

use genie_mem::{DenseMap, FrameId, MemError, PhysMem};
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

/// How a received PDU was buffered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RxCompletion {
    /// The payload sits in overlay frames, appended in order to the
    /// caller's frame list. Every frame is full but the last.
    Overlay {
        /// Total bytes delivered.
        len: usize,
    },
    /// No buffer was available; the PDU was dropped.
    Dropped,
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
    /// (contiguous payload plus cell metadata), not loose bytes.
    outboard: Vec<Option<WirePdu>>,
    /// Per-VC credit state, flat-indexed by VC number.
    credits: DenseMap<CreditState>,
    credit_limit: u32,
    drops: u64,
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
            drops: 0,
            stats: AdapterStats::default(),
        }
    }

    /// The receive architecture.
    pub fn mode(&self) -> InputBuffering {
        self.mode
    }

    /// PDUs dropped for lack of buffering.
    pub fn drops(&self) -> u64 {
        self.drops
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

    /// Transmit-side DMA: gathers the descriptor's bytes from host
    /// frames. Like real DMA this ignores page-table protections; the
    /// page-referencing discipline is what keeps it safe.
    pub fn dma_gather(phys: &PhysMem, vecs: &[IoVec]) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::with_capacity(vecs.iter().map(|v| v.len).sum());
        Self::dma_gather_into(phys, vecs, &mut out)?;
        Ok(out)
    }

    /// Like [`Adapter::dma_gather`], but appends into a caller-provided
    /// buffer so hot paths can reuse one allocation per connection
    /// instead of allocating per datagram.
    pub fn dma_gather_into(
        phys: &PhysMem,
        vecs: &[IoVec],
        out: &mut Vec<u8>,
    ) -> Result<(), MemError> {
        out.reserve(vecs.iter().map(|v| v.len).sum());
        for v in vecs {
            out.extend_from_slice(phys.read(v.frame, v.offset, v.len)?);
        }
        Ok(())
    }

    /// Receive-side DMA: scatters `bytes` into host frames per the
    /// destination list; returns the number of bytes stored.
    pub fn dma_scatter(
        phys: &mut PhysMem,
        vecs: &[IoVec],
        bytes: &[u8],
    ) -> Result<usize, MemError> {
        let mut src = 0usize;
        for v in vecs {
            if src >= bytes.len() {
                break;
            }
            let n = v.len.min(bytes.len() - src);
            phys.write(v.frame, v.offset, &bytes[src..src + n])?;
            src += n;
        }
        Ok(src)
    }

    /// Delivers a received PDU into overlay frames from the pool,
    /// appending the frames it filled to `overlay`. An early-demux
    /// adapter gets here only when no input is pending on the PDU's VC,
    /// and counts the fallback (paper Section 6.2.2).
    ///
    /// # Panics
    ///
    /// On an outboard adapter, which keeps the wire image instead (see
    /// [`Adapter::store_outboard`]).
    pub fn receive(
        &mut self,
        phys: &mut PhysMem,
        payload: &[u8],
        overlay: &mut Vec<FrameId>,
    ) -> Result<RxCompletion, MemError> {
        self.stats.pdus_received += 1;
        match self.mode {
            InputBuffering::EarlyDemux => self.stats.pooled_fallbacks += 1,
            InputBuffering::Pooled => {}
            InputBuffering::Outboard => {
                unreachable!("an outboard adapter keeps the wire image: use store_outboard")
            }
        }
        let page = phys.page_size();
        let need = payload.len().div_ceil(page).max(1);
        if self.pool.len() < need {
            self.drops += 1;
            self.stats.pool_exhausted_drops += 1;
            return Ok(RxCompletion::Dropped);
        }
        self.stats.pool_takes += need as u64;
        let mut src = 0usize;
        for _ in 0..need {
            let f = self.pool.pop_front().expect("pool size checked");
            let n = (payload.len() - src).min(page);
            phys.write(f, 0, &payload[src..src + n])?;
            src += n;
            overlay.push(f);
        }
        Ok(RxCompletion::Overlay { len: payload.len() })
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

    /// Reads an outboard buffer's payload bytes.
    pub fn outboard_data(&self, buf: usize) -> Option<&[u8]> {
        Some(self.outboard.get(buf)?.as_ref()?.payload())
    }

    /// The stored wire PDU in an outboard buffer.
    pub fn outboard_pdu(&self, buf: usize) -> Option<&WirePdu> {
        self.outboard.get(buf)?.as_ref()
    }

    /// Frees an outboard buffer, handing its PDU to the caller.
    pub fn outboard_free(&mut self, buf: usize) -> Option<WirePdu> {
        self.outboard.get_mut(buf)?.take()
    }

    /// Outboard buffers currently held.
    pub fn outboard_in_use(&self) -> usize {
        self.outboard.iter().filter(|b| b.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn gather_scatter_round_trip() {
        let mut p = phys();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let dst = vec_for(&mut p, payload.len());
        let n = Adapter::dma_scatter(&mut p, &dst, &payload).unwrap();
        assert_eq!(n, payload.len());
        let got = Adapter::dma_gather(&p, &dst).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn early_demux_falls_back_to_pool_when_unposted() {
        let mut p = phys();
        let mut a = Adapter::new(InputBuffering::EarlyDemux, 256);
        let pool: Vec<FrameId> = (0..4).map(|_| p.alloc(None).unwrap()).collect();
        a.fill_pool(pool);
        let payload = vec![0x11u8; 6000];
        let mut frames = Vec::new();
        match a.receive(&mut p, &payload, &mut frames).unwrap() {
            RxCompletion::Overlay { len } => {
                assert_eq!(len, 6000);
                assert_eq!(frames.len(), 2);
                assert_eq!(p.read(frames[0], 0, 4096).unwrap(), &payload[..4096]);
                assert_eq!(p.read(frames[1], 0, 6000 - 4096).unwrap(), &payload[4096..]);
            }
            other => panic!("expected overlay, got {other:?}"),
        }
        assert_eq!(a.pool_len(), 2);
    }

    #[test]
    fn pooled_drops_when_pool_exhausted() {
        let mut p = phys();
        let mut a = Adapter::new(InputBuffering::Pooled, 256);
        let f = p.alloc(None).unwrap();
        a.fill_pool([f]);
        let mut frames = Vec::new();
        let c = a.receive(&mut p, &vec![1u8; 8000], &mut frames).unwrap();
        assert_eq!(c, RxCompletion::Dropped);
        assert_eq!(a.drops(), 1);
        assert!(frames.is_empty());
        // The single-frame PDU still goes through.
        let c = a.receive(&mut p, &[2u8; 100], &mut frames).unwrap();
        assert!(matches!(c, RxCompletion::Overlay { len: 100 }));
        assert_eq!(frames, [f]);
    }

    #[test]
    fn outboard_stores_and_frees() {
        let mut a = Adapter::new(InputBuffering::Outboard, 256);
        let buf = a.store_outboard(WirePdu::new(0, b"outboard payload".to_vec()));
        assert_eq!(a.outboard_data(buf).unwrap(), b"outboard payload");
        assert_eq!(a.outboard_in_use(), 1);
        let pdu = a.outboard_free(buf).unwrap();
        assert_eq!(pdu.payload(), b"outboard payload");
        assert_eq!(pdu.n_cells(), 1);
        assert_eq!(a.outboard_in_use(), 0);
        // Slot is reused.
        assert_eq!(a.store_outboard(WirePdu::new(0, b"again".to_vec())), buf);
        let s = a.stats();
        assert_eq!((s.pdus_received, s.outboard_stores), (2, 2));
    }

    #[test]
    fn outboard_takes_over_the_wire_image() {
        let mut a = Adapter::new(InputBuffering::Outboard, 256);
        let pdu = WirePdu::new(4, b"second payload".to_vec());
        let at = pdu.payload().as_ptr();
        let buf = a.store_outboard(pdu);
        // The stored PDU is the arriving one: same storage, same vc
        // and cell metadata, no copy.
        let stored = a.outboard_pdu(buf).unwrap();
        assert_eq!(stored.payload().as_ptr(), at);
        assert_eq!(stored.vc(), 4);
        assert_eq!(a.outboard_free(buf).unwrap().payload().as_ptr(), at);
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
        assert_eq!(Adapter::dma_gather(&p, &vecs).unwrap(), b"protected?");
    }

    #[test]
    fn stats_track_receive_outcomes() {
        let mut p = phys();
        let mut a = Adapter::new(InputBuffering::EarlyDemux, 256);
        a.fill_pool([p.alloc(None).unwrap()]);
        let mut frames = Vec::new();
        a.receive(&mut p, &[7u8; 100], &mut frames).unwrap();
        // The pool is empty now: the next fallback drops.
        a.receive(&mut p, &[7u8; 100], &mut frames).unwrap();
        let s = a.stats();
        assert_eq!(s.pdus_received, 2);
        assert_eq!(s.pooled_fallbacks, 2);
        assert_eq!(s.pool_takes, 1);
        assert_eq!(s.pool_exhausted_drops, 1);
        // A pooled adapter has no fallback to count.
        let mut b = Adapter::new(InputBuffering::Pooled, 256);
        b.receive(&mut p, &[7u8; 100], &mut frames).unwrap();
        assert_eq!(b.stats().pooled_fallbacks, 0);
    }
}
