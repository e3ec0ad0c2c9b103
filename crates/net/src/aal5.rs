//! AAL5 segmentation and reassembly.
//!
//! An AAL5 PDU is the user payload padded so that payload + 8-byte
//! trailer fills a whole number of 48-byte cells; the trailer carries
//! the payload length and a CRC-32 over the whole PDU. The last cell
//! of a PDU is flagged (in real ATM via the PTI bit of the cell
//! header).

use genie_machine::link::{cells_for_payload, AAL5_MAX_PAYLOAD, AAL5_TRAILER, CELL_PAYLOAD};
use genie_machine::SimTime;
use std::cell::OnceCell;

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
    assert!(payload.len() <= AAL5_MAX_PAYLOAD, "PDU too long for AAL5");
    cells.clear();
    let total = (payload.len() + AAL5_TRAILER).div_ceil(CELL_PAYLOAD) * CELL_PAYLOAD;
    let n_cells = total / CELL_PAYLOAD;
    cells.reserve(n_cells);
    // Build the padded PDU (payload | zero padding | trailer) straight
    // into the cell array: trailer bytes land in the last cell.
    for i in 0..n_cells {
        let start = i * CELL_PAYLOAD;
        let mut buf = [0u8; CELL_PAYLOAD];
        if start < payload.len() {
            let n = CELL_PAYLOAD.min(payload.len() - start);
            buf[..n].copy_from_slice(&payload[start..start + n]);
        }
        cells.push(Cell {
            vc,
            payload: buf,
            last: i + 1 == n_cells,
        });
    }
    // Trailer: ... | length (2 bytes) | CRC-32 (4 bytes), preceded by
    // 2 bytes of UU/CPI which we leave zero.
    let tail = &mut cells[n_cells - 1].payload;
    tail[CELL_PAYLOAD - 6..CELL_PAYLOAD - 4].copy_from_slice(&(payload.len() as u16).to_be_bytes());
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

/// A PDU as it travels host-to-host on the fault-free fast path: one
/// contiguous wire image plus the cell metadata the cost model needs.
///
/// The cell codec ([`segment_into`] / [`reassemble_into`]) remains the
/// slow path and the ground truth: a `WirePdu` materializes real
/// [`Cell`]s only when something needs to touch individual cells (the
/// fault plan damaging a specific cell, or a test checking
/// equivalence). The trailer is computed lazily because the fault-free
/// path never looks at it — transferring a PDU costs zero CRC passes
/// unless a cell-level consumer asks for one.
#[derive(Clone, Debug)]
pub struct WirePdu {
    vc: u32,
    payload: Vec<u8>,
    n_cells: usize,
    trailer: OnceCell<Aal5Trailer>,
}

impl WirePdu {
    /// Wraps an owned payload as a wire PDU on circuit `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`AAL5_MAX_PAYLOAD`].
    pub fn new(vc: u32, payload: Vec<u8>) -> WirePdu {
        assert!(payload.len() <= AAL5_MAX_PAYLOAD, "PDU too long for AAL5");
        let n_cells = cells_for_payload(payload.len());
        WirePdu {
            vc,
            payload,
            n_cells,
            trailer: OnceCell::new(),
        }
    }

    /// Reassembles a PDU from materialized cells (the slow path's
    /// inverse), verifying framing, length and CRC.
    pub fn from_cells(cells: &[Cell]) -> Result<WirePdu, Aal5Error> {
        let mut payload = Vec::new();
        reassemble_into(cells, &mut payload)?;
        let vc = cells[0].vc;
        Ok(WirePdu::new(vc, payload))
    }

    /// Virtual circuit this PDU travels on.
    pub fn vc(&self) -> u32 {
        self.vc
    }

    /// The contiguous wire image (header + data as the sender gathered
    /// it; padding and trailer are implicit).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty (a lone trailer cell).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Number of 48-byte cells this PDU occupies on the wire; always
    /// equal to [`cells_for_payload`], which the cost model charges.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// The AAL5 trailer, computed on first use and cached.
    pub fn trailer(&self) -> Aal5Trailer {
        *self.trailer.get_or_init(|| {
            // CRC covers payload | zero padding | 2 zero UU/CPI bytes |
            // 2 length bytes. Padding never exceeds one cell, so one
            // zero block covers padding and UU/CPI together.
            const ZEROS: [u8; CELL_PAYLOAD + 2] = [0; CELL_PAYLOAD + 2];
            let len = self.payload.len();
            let zeros = self.n_cells * CELL_PAYLOAD - len - AAL5_TRAILER + 2;
            let mut crc = crc32_update(0xffff_ffff, &self.payload);
            crc = crc32_update(crc, &ZEROS[..zeros]);
            crc = crc32_update(crc, &(len as u16).to_be_bytes());
            Aal5Trailer {
                len: len as u16,
                crc: !crc,
            }
        })
    }

    /// Materializes the PDU into real cells via the segmenter (the
    /// slow path; bit-identical to segmenting the payload directly).
    pub fn materialize_into(&self, cells: &mut Vec<Cell>) {
        segment_into(self.vc, &self.payload, cells);
    }

    /// Like [`WirePdu::materialize_into`] with a fresh vector.
    pub fn materialize(&self) -> Vec<Cell> {
        segment(self.vc, &self.payload)
    }

    /// Unwraps the payload buffer so the caller can recycle it.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }
}

impl PartialEq for WirePdu {
    fn eq(&self, other: &WirePdu) -> bool {
        self.vc == other.vc && self.payload == other.payload
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
            let pdu = WirePdu::new(3, payload.clone());
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
        let pdu = WirePdu::new(5, payload.clone());
        let mut cells = Vec::new();
        pdu.materialize_into(&mut cells);
        assert_eq!(cells, segment(5, &payload));
        let back = WirePdu::from_cells(&cells).expect("reassembly");
        assert_eq!(back, pdu);
        assert_eq!(back.vc(), 5);
        assert_eq!(back.into_payload(), payload);
    }

    #[test]
    #[should_panic(expected = "PDU too long")]
    fn oversized_wire_pdu_panics() {
        let _ = WirePdu::new(0, vec![0u8; AAL5_MAX_PAYLOAD + 1]);
    }
}
