//! Per-VC credit-based flow control (Credit Net).
//!
//! The Credit Net adapter implements credit-based, per-virtual-circuit
//! flow control: a sender may only transmit a cell when it holds a
//! credit for the VC; the receiver returns credits as it drains its
//! buffers. The simulation models the credit ledger exactly and uses
//! it to detect (and in tests, to provoke) sender stalls.

/// Credit state of one virtual circuit at the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditState {
    /// Credits currently available (cells the sender may transmit).
    available: u32,
    /// Credit limit (the receiver's buffer allocation for this VC).
    limit: u32,
}

impl CreditState {
    /// Creates a VC with `limit` initial credits.
    pub fn new(limit: u32) -> Self {
        CreditState {
            available: limit,
            limit,
        }
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.available
    }

    /// The credit limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Attempts to consume credits for `cells` cells; on success the
    /// cells may be transmitted. On failure nothing is consumed.
    pub fn try_consume(&mut self, cells: u32) -> bool {
        if cells <= self.available {
            self.available -= cells;
            true
        } else {
            false
        }
    }

    /// Returns `cells` credits (receiver drained its buffers).
    ///
    /// Saturates at the limit: spurious credit returns cannot exceed
    /// the receiver's allocation.
    pub fn replenish(&mut self, cells: u32) {
        self.available = (self.available + cells).min(self.limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_and_replenish() {
        let mut c = CreditState::new(10);
        assert!(c.try_consume(4));
        assert_eq!(c.available(), 6);
        assert!(c.try_consume(6));
        assert_eq!(c.available(), 0);
        assert!(!c.try_consume(1));
        c.replenish(3);
        assert!(c.try_consume(3));
    }

    #[test]
    fn replenish_saturates_at_limit() {
        let mut c = CreditState::new(5);
        c.replenish(100);
        assert_eq!(c.available(), 5);
        assert!(c.try_consume(2));
        c.replenish(100);
        assert_eq!(c.available(), 5);
    }

    #[test]
    fn failed_consume_leaves_credits_untouched() {
        let mut c = CreditState::new(3);
        assert!(!c.try_consume(4));
        assert_eq!(c.available(), 3);
    }
}
