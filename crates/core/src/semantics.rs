//! The taxonomy of data passing semantics (paper Figure 1).

use core::fmt;

use genie_vm::RegionMark;

/// Buffer allocation scheme (paper Section 2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Allocation {
    /// The application determines the location of its input buffers
    /// and retains access to output buffers after output (Unix-style).
    Application,
    /// The system allocates input buffers on input and deallocates
    /// output buffers on output (V-style move).
    System,
}

/// Guaranteed integrity (paper Section 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Integrity {
    /// Output data is immune to later overwriting; input buffers are
    /// never observed in incomplete or erroneous states.
    Strong,
    /// No such guarantees: I/O is performed in place and the
    /// application can race it.
    Weak,
}

/// A point in the paper's three-dimensional taxonomy of data passing
/// semantics (Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Semantics {
    /// Unix-style copy through system buffers.
    Copy,
    /// Copy semantics emulated in place with TCOW + input alignment
    /// (Section 5): same API, same integrity, no copies.
    EmulatedCopy,
    /// In-place I/O on application buffers, wired during I/O.
    Share,
    /// Share semantics without wiring (input-disabled pageout).
    EmulatedShare,
    /// V-style move: buffers leave/enter the address space through
    /// system buffers.
    Move,
    /// Move semantics emulated in place with region hiding (Section 4).
    EmulatedMove,
    /// Move with weak integrity: output buffers stay mapped and are
    /// cached for reuse (region caching).
    WeakMove,
    /// Weak move without wiring.
    EmulatedWeakMove,
}

impl Semantics {
    /// All eight semantics, in the paper's canonical order.
    pub const ALL: [Semantics; 8] = [
        Semantics::Copy,
        Semantics::EmulatedCopy,
        Semantics::Share,
        Semantics::EmulatedShare,
        Semantics::Move,
        Semantics::EmulatedMove,
        Semantics::WeakMove,
        Semantics::EmulatedWeakMove,
    ];

    /// Buffer allocation dimension.
    pub fn allocation(self) -> Allocation {
        match self {
            Semantics::Copy
            | Semantics::EmulatedCopy
            | Semantics::Share
            | Semantics::EmulatedShare => Allocation::Application,
            Semantics::Move
            | Semantics::EmulatedMove
            | Semantics::WeakMove
            | Semantics::EmulatedWeakMove => Allocation::System,
        }
    }

    /// Guaranteed-integrity dimension.
    pub fn integrity(self) -> Integrity {
        match self {
            Semantics::Copy
            | Semantics::EmulatedCopy
            | Semantics::Move
            | Semantics::EmulatedMove => Integrity::Strong,
            Semantics::Share
            | Semantics::EmulatedShare
            | Semantics::WeakMove
            | Semantics::EmulatedWeakMove => Integrity::Weak,
        }
    }

    /// Level-of-optimization dimension: true for the emulated
    /// (optimized, API-compatible) variants.
    pub fn optimized(self) -> bool {
        matches!(
            self,
            Semantics::EmulatedCopy
                | Semantics::EmulatedShare
                | Semantics::EmulatedMove
                | Semantics::EmulatedWeakMove
        )
    }

    /// The basic semantics this one optimizes (identity for basic
    /// semantics).
    pub fn basic(self) -> Semantics {
        match self {
            Semantics::EmulatedCopy => Semantics::Copy,
            Semantics::EmulatedShare => Semantics::Share,
            Semantics::EmulatedMove => Semantics::Move,
            Semantics::EmulatedWeakMove => Semantics::WeakMove,
            other => other,
        }
    }

    /// The emulated counterpart of this semantics (identity for
    /// already-emulated semantics).
    pub fn emulated(self) -> Semantics {
        match self {
            Semantics::Copy => Semantics::EmulatedCopy,
            Semantics::Share => Semantics::EmulatedShare,
            Semantics::Move => Semantics::EmulatedMove,
            Semantics::WeakMove => Semantics::EmulatedWeakMove,
            other => other,
        }
    }

    /// The mark a region cache keeps this semantics' regions under
    /// (emulated move and the weak moves): emulated move's regions left
    /// invalidated, the weak moves' still mapped.
    pub(crate) fn cached_mark(self) -> RegionMark {
        debug_assert!(matches!(
            self,
            Semantics::EmulatedMove | Semantics::WeakMove | Semantics::EmulatedWeakMove
        ));
        if self == Semantics::EmulatedMove {
            RegionMark::MovedOut
        } else {
            RegionMark::WeaklyMovedOut
        }
    }

    /// Short display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Semantics::Copy => "copy",
            Semantics::EmulatedCopy => "emulated copy",
            Semantics::Share => "share",
            Semantics::EmulatedShare => "emulated share",
            Semantics::Move => "move",
            Semantics::EmulatedMove => "emulated move",
            Semantics::WeakMove => "weak move",
            Semantics::EmulatedWeakMove => "emulated weak move",
        }
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_has_two_by_two_by_two_structure() {
        // Four (allocation, integrity) quadrants, each with a basic and
        // an emulated point.
        use std::collections::HashSet;
        let mut quadrants = HashSet::new();
        for s in Semantics::ALL {
            quadrants.insert((s.allocation(), s.integrity(), s.optimized()));
        }
        assert_eq!(quadrants.len(), 8);
    }

    #[test]
    fn copy_and_emulated_copy_share_api_and_integrity() {
        // The paper's central claim rests on this pairing.
        let c = Semantics::Copy;
        let e = Semantics::EmulatedCopy;
        assert_eq!(c.allocation(), e.allocation());
        assert_eq!(c.integrity(), e.integrity());
        assert_eq!(c.integrity(), Integrity::Strong);
        assert!(!c.optimized() && e.optimized());
    }

    #[test]
    fn basic_emulated_are_inverse() {
        for s in Semantics::ALL {
            assert_eq!(s.basic().emulated(), s.emulated());
            assert_eq!(s.emulated().basic(), s.basic());
            // Basic and emulated variants agree on the other two axes.
            assert_eq!(s.basic().allocation(), s.allocation());
            assert_eq!(s.basic().integrity(), s.integrity());
        }
    }

    #[test]
    fn weak_semantics_are_weak() {
        assert_eq!(Semantics::Share.integrity(), Integrity::Weak);
        assert_eq!(Semantics::WeakMove.integrity(), Integrity::Weak);
        assert_eq!(Semantics::Move.integrity(), Integrity::Strong);
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = Semantics::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 8);
    }
}
