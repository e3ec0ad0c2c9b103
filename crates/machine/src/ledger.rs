//! Per-operation cost accounting.
//!
//! The paper measured primitive-operation latencies by capturing the
//! CPU on-chip cycle counter at instrumentation points in the Genie
//! code, then least-squares fitting each operation's latency against
//! datagram length (Table 6). Here the host's tracer is the recorder:
//! every charge becomes one op span, and the analysis crate fits
//! Table 6 from the spans of a traced round. [`CostLedger`] is the
//! aggregator: it prices each charge, sums per-op statistics, and
//! accumulates CPU busy time for the utilization experiment (Figure 4).

use crate::cost::{CostModel, Op};
use crate::time::SimTime;

/// Aggregate statistics for one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Number of invocations.
    pub count: u64,
    /// Total bytes covered.
    pub bytes: u64,
    /// Total simulated time charged.
    pub total: SimTime,
}

/// Sums operation charges for one host.
///
/// The ledger separates *charging* (always accumulates busy time and
/// per-op stats) from *clock advancement*, which is the caller's
/// responsibility: dispose-time operations overlap with network
/// latency, so they are charged as busy time without extending the
/// end-to-end critical path (paper Section 8).
#[derive(Clone, Debug)]
pub struct CostLedger {
    model: CostModel,
    stats: Vec<OpStats>,
    busy: SimTime,
}

impl CostLedger {
    /// Creates a ledger for the given cost model.
    pub fn new(model: CostModel) -> Self {
        let stats = vec![OpStats::default(); Op::ALL.len()];
        CostLedger {
            model,
            stats,
            busy: SimTime::ZERO,
        }
    }

    /// The cost model behind this ledger.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Charges one invocation of `op` over `bytes` bytes / `units`
    /// units, returning its cost. Accumulates CPU busy time for all
    /// but device-kind operations (adapter datapath latency occupies
    /// no host CPU).
    pub fn charge(&mut self, op: Op, bytes: usize, units: usize) -> SimTime {
        let cost = self.model.cost(op, bytes, units);
        let s = &mut self.stats[op.id() as usize];
        s.count += 1;
        s.bytes += bytes as u64;
        s.total += cost;
        if op.kind() != crate::cost::OpKind::Device {
            self.busy += cost;
        }
        cost
    }

    /// Total CPU busy time charged so far.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Aggregate statistics for `op`.
    pub fn stats(&self, op: Op) -> OpStats {
        self.stats[op.id() as usize]
    }

    /// Clears all statistics and busy time.
    pub fn reset(&mut self) {
        for s in &mut self.stats {
            *s = OpStats::default();
        }
        self.busy = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    fn ledger() -> CostLedger {
        CostLedger::new(CostModel::new(MachineSpec::micron_p166()))
    }

    #[test]
    fn charge_accumulates_stats_and_busy() {
        let mut l = ledger();
        let c1 = l.charge(Op::Reference, 4096, 1);
        let c2 = l.charge(Op::Reference, 8192, 2);
        let s = l.stats(Op::Reference);
        assert_eq!(s.count, 2);
        assert_eq!(s.bytes, 12288);
        assert_eq!(s.total, c1 + c2);
        assert_eq!(l.busy(), c1 + c2);
        assert_eq!(l.stats(Op::Swap).count, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut l = ledger();
        l.charge(Op::Wire, 4096, 1);
        l.reset();
        assert_eq!(l.busy(), SimTime::ZERO);
        assert_eq!(l.stats(Op::Wire).count, 0);
    }
}
