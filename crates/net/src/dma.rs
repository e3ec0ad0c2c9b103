//! PCI bus / DMA timing model.
//!
//! The Credit Net adapter moves data between main memory and the wire
//! by burst-mode DMA over the PCI I/O bus. The model captures what the
//! paper's base-latency breakdown needs: a per-transfer setup cost and
//! a bandwidth term, with the bus fast enough at OC-3 that the wire —
//! not the bus — is the pipeline bottleneck (and still fast enough at
//! OC-12).

use genie_machine::SimTime;

/// Timing model of the I/O bus and DMA engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmaModel {
    /// Sustained burst bandwidth in bytes per microsecond (PCI 32/33:
    /// theoretical 132 MB/s; ~100 MB/s sustained).
    pub bytes_per_us: f64,
    /// Fixed setup latency per DMA transfer.
    pub setup: SimTime,
}

impl DmaModel {
    /// PCI 32-bit/33 MHz, as in the paper's PCs.
    pub fn pci32() -> Self {
        DmaModel {
            bytes_per_us: 100.0,
            setup: SimTime::from_us(1.5),
        }
    }

    /// Transfer time for `bytes` (setup + burst).
    pub fn transfer_time(&self, bytes: usize) -> SimTime {
        self.setup + SimTime::from_us(bytes as f64 / self.bytes_per_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine_in_size() {
        let d = DmaModel::pci32();
        let t0 = d.transfer_time(0);
        let t1 = d.transfer_time(10_000);
        let t2 = d.transfer_time(20_000);
        assert_eq!(t0, d.setup);
        assert_eq!((t2 - t1), (t1 - t0));
    }

    #[test]
    fn pci_is_faster_than_oc12_wire() {
        // The bus must not become the pipeline bottleneck at OC-12.
        let d = DmaModel::pci32();
        let wire = genie_machine::LinkSpec::oc12();
        let b = 61_440;
        assert!(d.transfer_time(b) < wire.wire_time(b));
    }
}
