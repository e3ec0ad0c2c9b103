//! AAL5 segmentation and reassembly.
//!
//! An AAL5 PDU is the user payload padded so that payload + 8-byte
//! trailer fills a whole number of 48-byte cells; the trailer carries
//! the payload length and a CRC-32 over the whole PDU. The last cell
//! of a PDU is flagged (in real ATM via the PTI bit of the cell
//! header).

use genie_machine::link::{cells_for_payload, AAL5_MAX_PAYLOAD, AAL5_TRAILER, CELL_PAYLOAD};
use genie_machine::SimTime;
use genie_mem::PageSlice;

use crate::proto::HEADER_LEN;

/// One ATM cell as the simulation carries it: VC id, 48-byte payload,
/// and the end-of-PDU flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Virtual-circuit identifier.
    pub vc: u32,
    /// Cell payload.
    pub payload: [u8; CELL_PAYLOAD],
    /// True on the final cell of a PDU.
    pub last: bool,
}

/// Errors detected during reassembly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aal5Error {
    /// No cells were provided.
    Empty,
    /// The trailer length field is inconsistent with the cell count.
    BadLength,
    /// CRC-32 mismatch.
    BadCrc,
    /// The payload exceeds the AAL5 maximum.
    TooLong,
    /// A non-final cell carried the `last` flag, or vice versa.
    BadFraming,
}

/// CRC-32 (IEEE 802.3 polynomial, bit-reversed 0xEDB88320), as AAL5
/// uses.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xffff_ffff, data)
}

/// Slice-by-8 lookup tables: `CRC_TABLES[k][b]` advances the CRC by
/// byte `b` followed by `k` zero bytes, so eight bytes fold into the
/// state with eight table reads instead of 64 shift/xor steps.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Feeds `data` into a running (pre-inversion) CRC-32 state, so the
/// CRC can be computed across scattered cell payloads.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// Segments `payload` into AAL5 cells on virtual circuit `vc`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`AAL5_MAX_PAYLOAD`] (the caller — the
/// protocol layer — fragments above that).
pub fn segment(vc: u32, payload: &[u8]) -> Vec<Cell> {
    let mut cells = Vec::new();
    segment_into(vc, payload, &mut cells);
    cells
}

/// Like [`segment`], but reuses `cells` (cleared first) so repeated
/// segmentation on a connection allocates no per-PDU cell vector.
///
/// # Panics
///
/// Panics if `payload` exceeds [`AAL5_MAX_PAYLOAD`].
pub fn segment_into(vc: u32, payload: &[u8], cells: &mut Vec<Cell>) {
    segment_chunks_into(vc, payload.len(), [payload], cells);
}

/// Segments the PDU whose `len` payload bytes are the concatenation of
/// `chunks` into `cells` (cleared first), so a PDU held in pieces needs
/// no contiguous copy of itself.
fn segment_chunks_into<'a>(
    vc: u32,
    len: usize,
    chunks: impl IntoIterator<Item = &'a [u8]>,
    cells: &mut Vec<Cell>,
) {
    assert!(len <= AAL5_MAX_PAYLOAD, "PDU too long for AAL5");
    let n_cells = (len + AAL5_TRAILER).div_ceil(CELL_PAYLOAD);
    cells.clear();
    // Build the padded PDU (payload | zero padding | trailer) straight
    // into the cell array: trailer bytes land in the last cell.
    cells.resize(
        n_cells,
        Cell {
            vc,
            payload: [0u8; CELL_PAYLOAD],
            last: false,
        },
    );
    cells[n_cells - 1].last = true;
    let mut at = 0;
    for mut chunk in chunks {
        while !chunk.is_empty() {
            let (i, o) = (at / CELL_PAYLOAD, at % CELL_PAYLOAD);
            let n = chunk.len().min(CELL_PAYLOAD - o);
            cells[i].payload[o..o + n].copy_from_slice(&chunk[..n]);
            chunk = &chunk[n..];
            at += n;
        }
    }
    debug_assert_eq!(at, len, "chunks disagree with the PDU length");
    // Trailer: ... | length (2 bytes) | CRC-32 (4 bytes), preceded by
    // 2 bytes of UU/CPI which we leave zero.
    let tail = &mut cells[n_cells - 1].payload;
    tail[CELL_PAYLOAD - 6..CELL_PAYLOAD - 4].copy_from_slice(&(len as u16).to_be_bytes());
    // CRC covers everything up to the CRC field itself; feed it
    // incrementally per cell to avoid materializing the flat PDU.
    let mut crc = 0xffff_ffffu32;
    for (i, c) in cells.iter().enumerate() {
        let end = if i + 1 == n_cells {
            CELL_PAYLOAD - 4
        } else {
            CELL_PAYLOAD
        };
        crc = crc32_update(crc, &c.payload[..end]);
    }
    let crc = !crc;
    cells[n_cells - 1].payload[CELL_PAYLOAD - 4..].copy_from_slice(&crc.to_be_bytes());
}

/// Reassembles one PDU from its cells, verifying framing, length and
/// CRC.
pub fn reassemble(cells: &[Cell]) -> Result<Vec<u8>, Aal5Error> {
    let mut pdu = Vec::new();
    reassemble_into(cells, &mut pdu)?;
    Ok(pdu)
}

/// Like [`reassemble`], but reuses `pdu` (cleared first) for the
/// payload, so repeated reassembly on a connection allocates no
/// per-PDU buffer.
pub fn reassemble_into(cells: &[Cell], pdu: &mut Vec<u8>) -> Result<(), Aal5Error> {
    pdu.clear();
    if cells.is_empty() {
        return Err(Aal5Error::Empty);
    }
    for (i, c) in cells.iter().enumerate() {
        let should_be_last = i == cells.len() - 1;
        if c.last != should_be_last {
            return Err(Aal5Error::BadFraming);
        }
    }
    pdu.reserve(cells.len() * CELL_PAYLOAD);
    for c in cells {
        pdu.extend_from_slice(&c.payload);
    }
    let total = pdu.len();
    let want_crc = u32::from_be_bytes(pdu[total - 4..].try_into().expect("4 bytes"));
    if crc32(&pdu[..total - 4]) != want_crc {
        return Err(Aal5Error::BadCrc);
    }
    let len = usize::from(u16::from_be_bytes(
        pdu[total - 6..total - 4].try_into().expect("2 bytes"),
    ));
    if len > AAL5_MAX_PAYLOAD {
        return Err(Aal5Error::TooLong);
    }
    // The payload + trailer must fit the cell count exactly.
    if (len + AAL5_TRAILER).div_ceil(CELL_PAYLOAD) != cells.len() {
        return Err(Aal5Error::BadLength);
    }
    pdu.truncate(len);
    Ok(())
}

/// Trailer metadata of one AAL5 PDU: the length field and the CRC-32
/// that the segmenter would write into the final cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aal5Trailer {
    /// Payload length in bytes (the trailer's 16-bit length field).
    pub len: u16,
    /// CRC-32 over payload, padding, and the first four trailer bytes.
    pub crc: u32,
}

/// A PDU as it travels host-to-host: the datagram header bytes plus
/// [`PageSlice`] segments of the sender's page storage, and the cell
/// metadata the cost model needs.
///
/// Transmit DMA takes the segments as shares of the frames it reads
/// (`Adapter::dma_gather_into`), so sending copies no payload byte: the
/// sender's later writes copy the page first, and the image keeps the
/// bytes its frames held at transmit. Replicating a PDU (a retransmit
/// copy, switch fan-out) clones the shares. Receive DMA copies out of
/// the segments, or has a whole destination page take a whole-page
/// segment over.
///
/// The cell codec ([`segment_into`] / [`reassemble_into`]) remains the
/// slow path and the ground truth: a `WirePdu` materializes real
/// [`Cell`]s only when something needs to touch individual cells (the
/// fault plan damaging a specific cell, or a test checking
/// equivalence). The trailer is computed on demand because the
/// fault-free path never looks at it — transferring a PDU costs zero
/// CRC passes unless a cell-level consumer asks for one.
#[derive(Clone, Debug)]
pub struct WirePdu {
    segs: Vec<PageSlice>,
    /// The first `min(len, HEADER_LEN)` bytes: the datagram header.
    head: [u8; HEADER_LEN],
    vc: u32,
    len: u32,
}

/// Page size of the storage [`WirePdu::from_bytes`] copies bytes into.
const BYTES_PAGE: usize = 4096;

impl WirePdu {
    /// A wire PDU on circuit `vc`: the datagram `header`, then the
    /// payload `segs` (shares of the sender's pages).
    ///
    /// # Panics
    ///
    /// If the PDU exceeds [`AAL5_MAX_PAYLOAD`].
    pub fn from_parts(vc: u32, header: [u8; HEADER_LEN], segs: Vec<PageSlice>) -> WirePdu {
        let len = HEADER_LEN + segs.iter().map(PageSlice::len).sum::<usize>();
        assert!(len <= AAL5_MAX_PAYLOAD, "PDU too long for AAL5");
        WirePdu {
            segs,
            head: header,
            vc,
            len: len as u32,
        }
    }

    /// A wire PDU on circuit `vc` holding a copy of `bytes` (the header
    /// bytes inline, the rest in pooled pages), built in `segs`, which
    /// is cleared first: how reassembled cells become a PDU again.
    ///
    /// # Panics
    ///
    /// If `bytes` exceeds [`AAL5_MAX_PAYLOAD`].
    pub fn from_bytes(vc: u32, bytes: &[u8], mut segs: Vec<PageSlice>) -> WirePdu {
        assert!(bytes.len() <= AAL5_MAX_PAYLOAD, "PDU too long for AAL5");
        let split = bytes.len().min(HEADER_LEN);
        let mut head = [0u8; HEADER_LEN];
        head[..split].copy_from_slice(&bytes[..split]);
        segs.clear();
        segs.extend(
            bytes[split..]
                .chunks(BYTES_PAGE)
                .map(|c| PageSlice::copy_of(BYTES_PAGE, c)),
        );
        WirePdu {
            segs,
            head,
            vc,
            len: bytes.len() as u32,
        }
    }

    /// A copy of this PDU built in `segs` (cleared first): the payload
    /// pages are shared, not copied.
    pub fn replicate(&self, mut segs: Vec<PageSlice>) -> WirePdu {
        segs.clear();
        segs.extend_from_slice(&self.segs);
        WirePdu {
            segs,
            head: self.head,
            vc: self.vc,
            len: self.len,
        }
    }

    /// Virtual circuit this PDU travels on.
    pub fn vc(&self) -> u32 {
        self.vc
    }

    /// The header bytes: the PDU's first `min(len, HEADER_LEN)` bytes.
    pub fn header(&self) -> &[u8] {
        &self.head[..self.len().min(HEADER_LEN)]
    }

    /// The payload segments that follow the header.
    pub(crate) fn segments(&self) -> &[PageSlice] {
        &self.segs
    }

    /// The PDU's bytes in order, as the header and then each segment
    /// (padding and trailer are implicit).
    fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        core::iter::once(self.header()).chain(self.segs.iter().map(PageSlice::bytes))
    }

    /// True if the PDU's bytes are exactly `bytes`.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        let mut rest = bytes;
        self.len() == bytes.len()
            && self.chunks().all(|c| {
                let (head, tail) = rest.split_at(c.len());
                rest = tail;
                head == c
            })
    }

    /// Payload length in bytes (header included).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the payload is empty (a lone trailer cell).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 48-byte cells this PDU occupies on the wire; always
    /// equal to [`cells_for_payload`], which the cost model charges.
    pub fn n_cells(&self) -> usize {
        cells_for_payload(self.len())
    }

    /// The AAL5 trailer the segmenter would write.
    pub fn trailer(&self) -> Aal5Trailer {
        // CRC covers payload | zero padding | 2 zero UU/CPI bytes |
        // 2 length bytes. Padding never exceeds one cell, so one zero
        // block covers padding and UU/CPI together.
        const ZEROS: [u8; CELL_PAYLOAD + 2] = [0; CELL_PAYLOAD + 2];
        let len = self.len();
        let zeros = self.n_cells() * CELL_PAYLOAD - len - AAL5_TRAILER + 2;
        let mut crc = self.chunks().fold(0xffff_ffff, crc32_update);
        crc = crc32_update(crc, &ZEROS[..zeros]);
        crc = crc32_update(crc, &(len as u16).to_be_bytes());
        Aal5Trailer {
            len: len as u16,
            crc: !crc,
        }
    }

    /// Materializes the PDU into real cells via the segmenter (the
    /// slow path; bit-identical to segmenting the payload directly).
    pub fn materialize_into(&self, cells: &mut Vec<Cell>) {
        segment_chunks_into(self.vc, self.len(), self.chunks(), cells);
    }

    /// Like [`WirePdu::materialize_into`] with a fresh vector.
    pub fn materialize(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        self.materialize_into(&mut cells);
        cells
    }

    /// Unwraps the segment list (shares and all) so the caller can
    /// recycle it.
    pub fn into_segments(self) -> Vec<PageSlice> {
        self.segs
    }
}

impl PartialEq for WirePdu {
    fn eq(&self, other: &WirePdu) -> bool {
        let bytes: Vec<u8> = self.chunks().flatten().copied().collect();
        self.vc == other.vc && other.matches(&bytes)
    }
}

impl Eq for WirePdu {}

/// One PDU between the sender's uplink and its delivery: the identity
/// every hop, the switch's output FIFO and the receiver's reorder hold
/// carry, plus the wire image itself.
#[derive(Debug)]
pub struct InflightPdu {
    /// Virtual circuit.
    pub vc: u32,
    /// Originating output token.
    pub token: u64,
    /// Output invocation time at the original sender.
    pub sent_at: SimTime,
    /// End-to-end per-VC sequence number (flow identity for trace
    /// sampling and per-hop span correlation).
    pub seq: u32,
    /// Cells on the wire.
    pub cells: u32,
    /// Wire bytes (header + payload).
    pub bytes: u32,
    /// The intact wire image, or `None` for a PDU the wire damaged
    /// (AAL5 reassembly fails at the destination adapter).
    pub wire: Option<WirePdu>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segment_reassemble_round_trip() {
        for len in [0usize, 1, 39, 40, 41, 48, 100, 4096, 61_440] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let cells = segment(7, &payload);
            assert!(cells.iter().all(|c| c.vc == 7));
            let got = reassemble(&cells).expect("reassembly");
            assert_eq!(got, payload, "len {len}");
        }
    }

    #[test]
    fn cell_count_matches_link_model() {
        use genie_machine::link::cells_for_payload;
        for len in [0usize, 40, 41, 4096, 61_440] {
            assert_eq!(segment(0, &vec![0u8; len]).len(), cells_for_payload(len));
        }
    }

    #[test]
    fn corrupted_cell_fails_crc() {
        let cells = {
            let mut c = segment(0, b"hello, credit net atm");
            c[0].payload[3] ^= 0x40;
            c
        };
        assert_eq!(reassemble(&cells), Err(Aal5Error::BadCrc));
    }

    #[test]
    fn dropped_last_cell_fails_framing() {
        let mut cells = segment(0, &[1u8; 100]);
        cells.pop();
        assert_eq!(reassemble(&cells), Err(Aal5Error::BadFraming));
    }

    #[test]
    fn dropped_middle_cell_fails() {
        let mut cells = segment(0, &[2u8; 200]);
        cells.remove(1);
        let err = reassemble(&cells).unwrap_err();
        assert!(matches!(err, Aal5Error::BadCrc | Aal5Error::BadLength));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(reassemble(&[]), Err(Aal5Error::Empty));
    }

    #[test]
    fn into_variants_reuse_buffers_and_match() {
        let mut cells = Vec::new();
        let mut pdu = Vec::new();
        for len in [0usize, 1, 47, 48, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            segment_into(9, &payload, &mut cells);
            assert_eq!(cells, segment(9, &payload));
            reassemble_into(&cells, &mut pdu).expect("reassembly");
            assert_eq!(pdu, payload);
        }
    }

    #[test]
    #[should_panic(expected = "PDU too long")]
    fn oversized_pdu_panics() {
        let _ = segment(0, &vec![0u8; AAL5_MAX_PAYLOAD + 1]);
    }

    /// The original one-bit-at-a-time loop, kept as the reference the
    /// table-driven implementation must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_bitwise_reference() {
        let data: Vec<u8> = (0..1500u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 100, 1500] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn streaming_crc_is_split_invariant() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 + 5) as u8).collect();
        let whole = crc32_update(0xffff_ffff, &data);
        for split in [0usize, 1, 7, 8, 9, 48, 100, 256, 257] {
            let (a, b) = data.split_at(split);
            let st = crc32_update(crc32_update(0xffff_ffff, a), b);
            assert_eq!(st, whole, "split {split}");
        }
    }

    #[test]
    fn wire_pdu_trailer_matches_segmenter() {
        for len in [0usize, 1, 39, 40, 41, 48, 100, 4096, 61_440] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let pdu = WirePdu::from_bytes(3, &payload, Vec::new());
            let cells = segment(3, &payload);
            assert_eq!(pdu.n_cells(), cells.len(), "len {len}");
            let tail = &cells.last().unwrap().payload;
            let want_len =
                u16::from_be_bytes(tail[CELL_PAYLOAD - 6..CELL_PAYLOAD - 4].try_into().unwrap());
            let want_crc = u32::from_be_bytes(tail[CELL_PAYLOAD - 4..].try_into().unwrap());
            let t = pdu.trailer();
            assert_eq!(t.len, want_len, "len field, len {len}");
            assert_eq!(t.crc, want_crc, "crc field, len {len}");
        }
    }

    #[test]
    fn wire_pdu_materialize_round_trip() {
        let payload: Vec<u8> = (0..10_000).map(|i| (i * 13 % 255) as u8).collect();
        let pdu = WirePdu::from_bytes(5, &payload, Vec::new());
        let mut cells = Vec::new();
        pdu.materialize_into(&mut cells);
        assert_eq!(cells, segment(5, &payload));
        let back = WirePdu::from_bytes(5, &reassemble(&cells).expect("reassembly"), Vec::new());
        assert_eq!(back, pdu);
        assert!(back.matches(&payload));
        assert!(!back.matches(&payload[1..]));
        assert_eq!(back.header(), &payload[..HEADER_LEN]);
    }

    #[test]
    fn replicas_share_pages_and_segment_alike() {
        let payload: Vec<u8> = (0..9_000).map(|i| (i * 7 % 253) as u8).collect();
        let pdu = WirePdu::from_bytes(2, &payload, Vec::new());
        let copy = pdu.replicate(Vec::new());
        assert_eq!(copy, pdu);
        for (a, b) in pdu.segments().iter().zip(copy.segments()) {
            assert_eq!(a.bytes().as_ptr(), b.bytes().as_ptr(), "shared, not copied");
        }
        assert_eq!(copy.materialize(), segment(2, &payload));
        // A short PDU is all header.
        let short = WirePdu::from_bytes(2, b"abc", Vec::new());
        assert_eq!((short.header(), short.segments().len()), (&b"abc"[..], 0));
        assert_eq!(short.materialize(), segment(2, b"abc"));
    }

    #[test]
    #[should_panic(expected = "PDU too long")]
    fn oversized_wire_pdu_panics() {
        let _ = WirePdu::from_bytes(0, &vec![0u8; AAL5_MAX_PAYLOAD + 1], Vec::new());
    }
}
