//! Message size classes carried by the on-chip network.

use serde::{Deserialize, Serialize};

/// Size and virtual-network class of a network message.
///
/// Mirrors the virtual-network split of the Ruby/Garnet setup the paper
/// simulates on: requests and protocol acks (FlushEpoch, BankAck,
/// PersistCMP, PersistAck, EpochCMP) travel on the control network, demand
/// data responses on the response network, and writeback/flush-line/log
/// traffic on the writeback network. Each class has its own virtual
/// channels, so bulk epoch flushes cannot starve demand traffic (they still
/// contend for memory-controller write bandwidth).
///
/// The variants are in vnet order; the Chrome trace export uses
/// `class as u64` as the NoC track id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageClass {
    /// Header-only message (requests, acks, barrier protocol): 8 bytes.
    Control,
    /// Demand response carrying a 64-byte line plus header: 72 bytes.
    Data,
    /// Background line transfer (writebacks, epoch flush lines, undo-log
    /// and checkpoint writes): 72 bytes on its own virtual network.
    Writeback,
}

impl MessageClass {
    /// Payload size in bytes, including the header.
    pub const fn bytes(self) -> u64 {
        match self {
            MessageClass::Control => 8,
            MessageClass::Data | MessageClass::Writeback => 72,
        }
    }

    /// Virtual-network index (one set of link channels per class).
    pub const fn vnet(self) -> usize {
        match self {
            MessageClass::Control => 0,
            MessageClass::Data => 1,
            MessageClass::Writeback => 2,
        }
    }

    /// Number of virtual networks.
    pub const VNETS: usize = 3;

    /// Stable lower-case name used in exported traces.
    pub const fn name(self) -> &'static str {
        match self {
            MessageClass::Control => "control",
            MessageClass::Data => "data",
            MessageClass::Writeback => "writeback",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(MessageClass::Control.bytes(), 8);
        assert_eq!(MessageClass::Data.bytes(), 72);
    }
}
