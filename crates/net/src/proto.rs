//! A small datagram protocol over AAL5.
//!
//! Every datagram carries a fixed-size header (ports, sequence number,
//! payload length, optional 16-bit checksum). The header is the reason
//! input buffers have a nonzero *preferred alignment*: when a PDU
//! lands in page-grained buffers, the payload starts [`HEADER_LEN`]
//! bytes into the first page, exactly the "unstripped packet headers"
//! situation the paper's input-alignment interface (Section 5.2)
//! exposes to applications.

/// Encoded header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Datagram header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatagramHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// 16-bit one's-complement checksum of the payload; zero when
    /// checksumming is disabled.
    pub checksum: u16,
    /// Flags (bit 0: checksum present).
    pub flags: u16,
}

impl DatagramHeader {
    /// Encodes the header into its wire format.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.len.to_be_bytes());
        b[12..14].copy_from_slice(&self.checksum.to_be_bytes());
        b[14..16].copy_from_slice(&self.flags.to_be_bytes());
        b
    }

    /// Decodes a header from wire format.
    pub fn decode(b: &[u8]) -> Option<DatagramHeader> {
        if b.len() < HEADER_LEN {
            return None;
        }
        Some(DatagramHeader {
            src_port: u16::from_be_bytes(b[0..2].try_into().ok()?),
            dst_port: u16::from_be_bytes(b[2..4].try_into().ok()?),
            seq: u32::from_be_bytes(b[4..8].try_into().ok()?),
            len: u32::from_be_bytes(b[8..12].try_into().ok()?),
            checksum: u16::from_be_bytes(b[12..14].try_into().ok()?),
            flags: u16::from_be_bytes(b[14..16].try_into().ok()?),
        })
    }

    /// True if the checksum flag is set.
    pub fn has_checksum(&self) -> bool {
        self.flags & 1 != 0
    }
}

/// 16-bit one's-complement checksum (Internet checksum) over `data`.
pub fn checksum16(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = DatagramHeader {
            src_port: 4242,
            dst_port: 99,
            seq: 0xdead_beef,
            len: 61_440,
            checksum: 0x1234,
            flags: 1,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), HEADER_LEN);
        assert_eq!(DatagramHeader::decode(&enc), Some(h));
        assert!(h.has_checksum());
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(DatagramHeader::decode(&[0u8; HEADER_LEN - 1]), None);
    }

    #[test]
    fn checksum_detects_corruption() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let c = checksum16(data);
        let mut bad = data.to_vec();
        bad[7] ^= 0x01;
        assert_ne!(checksum16(&bad), c);
    }

    #[test]
    fn checksum_handles_odd_lengths() {
        assert_ne!(checksum16(b"abc"), checksum16(b"ab"));
        // Verification property: sum of data plus its checksum folds to
        // zero (all-ones before final complement).
        let data = b"odd";
        let c = checksum16(data);
        let mut with = data.to_vec();
        with.push(0); // pad
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(checksum16(&with), 0);
    }

    #[test]
    fn checksum_of_empty_is_all_ones() {
        assert_eq!(checksum16(&[]), 0xffff);
    }
}
