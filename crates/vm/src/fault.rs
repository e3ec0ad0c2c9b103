//! Fault kinds and outcomes.
//!
//! One page resolver in [`crate::vm`] decides how an object page
//! resolves (zero-fill, page-in, TCOW or COW copy) for the fault
//! handler ([`crate::vm::Vm::handle_fault`]), kernel page referencing
//! ([`crate::vm::Vm::reference_region_pages`]) and wiring. This module
//! defines the access kinds and the outcomes they report, so the
//! policy layer can charge the right simulated cost for each resolution
//! path (e.g. a TCOW copy vs. a mere write-reenable, paper
//! Section 5.1).

/// Kind of access that faulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// How a fault was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No fault was necessary (PTE already valid with enough rights).
    NoFault,
    /// A fresh zero-filled page was mapped (first touch of anonymous
    /// memory).
    ZeroFilled,
    /// A resident page was mapped as it is: the top object's own, or
    /// read-only from below it.
    Mapped,
    /// A page was brought back from the backing store (page-in).
    PagedIn,
    /// TCOW, copy path: the page had a nonzero output count; its
    /// contents were copied to a new page which was swapped into the
    /// memory object (and, on a fault, mapped writable; paper
    /// Section 5.1).
    TcowCopied,
    /// TCOW, cheap path: output had already completed (zero output
    /// count), so writing was simply re-enabled — no copy.
    WriteEnabled,
    /// Conventional COW: the page was found below the top object and
    /// copied up.
    CowCopied,
}

impl FaultOutcome {
    /// True if resolving the fault physically copied a page.
    pub fn copied(self) -> bool {
        matches!(self, FaultOutcome::TcowCopied | FaultOutcome::CowCopied)
    }

    /// True if any fault processing happened at all.
    pub fn faulted(self) -> bool {
        self != FaultOutcome::NoFault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(FaultOutcome::TcowCopied.copied());
        assert!(FaultOutcome::CowCopied.copied());
        assert!(!FaultOutcome::WriteEnabled.copied());
        assert!(!FaultOutcome::NoFault.faulted());
        assert!(FaultOutcome::ZeroFilled.faulted());
    }
}
