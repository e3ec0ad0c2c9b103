//! Counters of injected faults and the recovery work they caused.

/// What a faulted run did: injected faults on one side, recovery
/// actions on the other. Tests assert on these to prove a fault class
/// was actually exercised (a seed that fires nothing proves nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// PDUs whose cell train was damaged on the wire.
    pub pdus_damaged: u64,
    /// PDUs given extra propagation delay (reordering).
    pub pdus_delayed: u64,
    /// Damaged PDUs the receiving adapter discarded on AAL5
    /// reassembly failure (CRC / framing / length).
    pub crc_drops: u64,
    /// Intact PDUs dropped at the receiver for lack of buffering.
    pub buffer_drops: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Retransmissions abandoned after the attempt cap.
    pub retransmits_abandoned: u64,
    /// Duplicate PDUs the receiver discarded.
    pub duplicates_discarded: u64,
    /// PDUs held by the receiver to restore sequence order.
    pub held_for_reorder: u64,
    /// Credit-starvation episodes injected.
    pub credit_starvations: u64,
    /// Transmit completions delayed.
    pub completion_delays: u64,
    /// Memory-pressure episodes injected.
    pub pressure_events: u64,
    /// Frames transiently hoarded across all pressure episodes.
    pub frames_hoarded: u64,
    /// Pages the injected pageout storms paged out.
    pub pages_stormed_out: u64,
    /// Pageout candidates skipped because of pending input references
    /// (the input-disabled discipline doing its job under the storm).
    pub pageout_skipped_input: u64,
    /// Outputs degraded from optimized to basic semantics.
    pub degraded_outputs: u64,
    /// PDUs discarded because a per-VC reorder hold queue hit its
    /// depth cap (the sender retransmits them; bounds hold-queue
    /// memory at scale).
    pub hold_spills: u64,
}

impl FaultStats {
    /// Total faults injected (not recovery actions).
    pub fn injected(&self) -> u64 {
        self.pdus_damaged
            + self.pdus_delayed
            + self.credit_starvations
            + self.completion_delays
            + self.pressure_events
            + self.degraded_outputs
    }

    /// Every counter with its name, in declaration order, for metric
    /// registration and JSON serialization.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("pdus_damaged", self.pdus_damaged),
            ("pdus_delayed", self.pdus_delayed),
            ("crc_drops", self.crc_drops),
            ("buffer_drops", self.buffer_drops),
            ("retransmits", self.retransmits),
            ("retransmits_abandoned", self.retransmits_abandoned),
            ("duplicates_discarded", self.duplicates_discarded),
            ("held_for_reorder", self.held_for_reorder),
            ("credit_starvations", self.credit_starvations),
            ("completion_delays", self.completion_delays),
            ("pressure_events", self.pressure_events),
            ("frames_hoarded", self.frames_hoarded),
            ("pages_stormed_out", self.pages_stormed_out),
            ("pageout_skipped_input", self.pageout_skipped_input),
            ("degraded_outputs", self.degraded_outputs),
            ("hold_spills", self.hold_spills),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_sums_fault_classes_only() {
        let s = FaultStats {
            pdus_damaged: 2,
            pdus_delayed: 1,
            crc_drops: 2,
            retransmits: 5,
            credit_starvations: 1,
            completion_delays: 1,
            pressure_events: 1,
            degraded_outputs: 1,
            ..FaultStats::default()
        };
        assert_eq!(s.injected(), 7);
    }
}
