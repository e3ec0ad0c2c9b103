//! Error type for the Genie framework.

use core::fmt;

use genie_mem::MemError;
use genie_vm::VmError;

use crate::semantics::Semantics;

/// Errors from Genie operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenieError {
    /// Underlying VM error (including unrecoverable application
    /// faults).
    Vm(VmError),
    /// Underlying physical-memory error.
    Mem(MemError),
    /// Output with a system-allocated semantics requires the buffer to
    /// be exactly a moved-in region (paper Section 2.1).
    OutputRequiresMovedInRegion,
    /// The request's semantics requires an application buffer and none
    /// was supplied (or vice versa).
    BufferMismatch(Semantics),
    /// The datagram exceeds the AAL5 maximum payload.
    TooLong(usize),
    /// Zero-length I/O is rejected.
    Empty,
    /// The datagram's PDU needs more cells than a credit allotment on
    /// its path (the sender's per-VC credit limit, or a switch port's
    /// credit) can ever grant, so it could never be transmitted.
    ExceedsCredit {
        /// Cells the PDU occupies.
        cells: u32,
        /// The smallest allotment the PDU must cross.
        allotment: u32,
    },
}

impl From<VmError> for GenieError {
    fn from(e: VmError) -> Self {
        GenieError::Vm(e)
    }
}

impl From<MemError> for GenieError {
    fn from(e: MemError) -> Self {
        GenieError::Mem(e)
    }
}

impl fmt::Display for GenieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenieError::Vm(e) => write!(f, "vm: {e}"),
            GenieError::Mem(e) => write!(f, "mem: {e}"),
            GenieError::OutputRequiresMovedInRegion => {
                write!(f, "system-allocated output requires a moved-in region")
            }
            GenieError::BufferMismatch(s) => {
                write!(f, "buffer kind does not match semantics {s}")
            }
            GenieError::TooLong(n) => write!(f, "datagram of {n} bytes exceeds AAL5 maximum"),
            GenieError::Empty => write!(f, "zero-length I/O"),
            GenieError::ExceedsCredit { cells, allotment } => write!(
                f,
                "PDU of {cells} cells exceeds a credit allotment of {allotment} on its path"
            ),
        }
    }
}

impl std::error::Error for GenieError {}

/// Why [`crate::WorldConfig::validate`] rejected a configuration.
/// Every message starts with the field at fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `fabric`: the switch has fewer than two ports, so the switched
    /// world would have fewer than two hosts.
    TooFewHosts {
        /// The switch's port count.
        ports: u16,
    },
    /// `machines`: the passthrough fabric wires exactly two
    /// hosts.
    PassthroughHosts {
        /// Hosts the configuration builds.
        hosts: usize,
    },
    /// `fabric`: the switch needs one port per host.
    PortCount {
        /// The switch's port count.
        ports: u16,
        /// Hosts the configuration builds.
        hosts: usize,
    },
    /// `fabric`: a route names a port the switch does not have.
    NoSuchPort {
        /// The route's source port.
        src: u16,
        /// The route's VC.
        vc: u32,
        /// The missing port.
        port: u16,
        /// The switch's port count.
        ports: u16,
    },
    /// `fabric`: two routes share one (source port, VC).
    DuplicateRoute {
        /// The source port.
        src: u16,
        /// The VC.
        vc: u32,
    },
    /// `fault`: the retransmit machinery assumes one destination per
    /// in-flight PDU, so multicast routes need a fault-free world.
    MulticastWithFaults,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::TooFewHosts { ports } => write!(
                f,
                "fabric: a switched world needs at least two hosts (switch has {ports} ports)"
            ),
            ConfigError::PassthroughHosts { hosts } => write!(
                f,
                "machines: the passthrough fabric wires exactly two hosts, not {hosts}"
            ),
            ConfigError::PortCount { ports, hosts } => write!(
                f,
                "fabric: switch must have one port per host ({ports} ports, {hosts} hosts)"
            ),
            ConfigError::NoSuchPort {
                src,
                vc,
                port,
                ports,
            } => write!(
                f,
                "fabric: route ({src}, {vc}) names port {port} of {ports}"
            ),
            ConfigError::DuplicateRoute { src, vc } => {
                write!(f, "fabric: duplicate route for (src {src}, vc {vc})")
            }
            ConfigError::MulticastWithFaults => {
                write!(f, "fault: multicast routes require a fault-free world")
            }
        }
    }
}

impl std::error::Error for ConfigError {}
