//! Identifiers for hardware components and epochs.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// Returns the raw index.
            pub const fn as_u32(self) -> u32 {
                self.0
            }

            /// Returns the raw index as a `usize`, for vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                $name(raw as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// A hardware core (and its private L1 cache / epoch arbiter).
    CoreId,
    "C"
);
id_newtype!(
    /// A bank of the shared last-level cache.
    BankId,
    "B"
);
id_newtype!(
    /// A memory controller fronting NVRAM.
    McId,
    "MC"
);
id_newtype!(
    /// A software thread. The simulator pins one thread per core, so
    /// `ThreadId` and [`CoreId`] indices coincide, but the types are kept
    /// distinct to keep software-level and hardware-level code honest.
    ThreadId,
    "T"
);

impl ThreadId {
    /// The core this thread is pinned to (1 thread per core).
    pub const fn core(self) -> CoreId {
        CoreId::new(self.0)
    }
}

impl CoreId {
    /// The thread pinned to this core (1 thread per core).
    pub const fn thread(self) -> ThreadId {
        ThreadId::new(self.0)
    }
}

/// A node on the on-chip interconnect: a core tile, an LLC bank or a
/// memory controller. The concrete placement is decided by `pbm-noc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A core tile (core + private L1 + epoch arbiter).
    Core(CoreId),
    /// A last-level-cache bank tile.
    Bank(BankId),
    /// A memory-controller tile.
    Mc(McId),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Core(c) => write!(f, "{c}"),
            NodeId::Bank(b) => write!(f, "{b}"),
            NodeId::Mc(m) => write!(f, "{m}"),
        }
    }
}

/// A per-core epoch sequence number.
///
/// Architecturally the paper stores a 3-bit epoch id in cache tags (8
/// in-flight epochs); the simulator tracks the full monotone `u64` and
/// models the 3-bit width by limiting in-flight epochs
/// ([`SystemConfig::inflight_epochs`](crate::SystemConfig)). Epoch 0 is the
/// first epoch of every thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(u64);

impl EpochId {
    /// The first epoch of a thread.
    pub const FIRST: EpochId = EpochId(0);

    /// Creates an epoch id from a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        EpochId(raw)
    }

    /// Returns the raw sequence number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The epoch after this one in program order.
    pub const fn next(self) -> EpochId {
        EpochId(self.0 + 1)
    }

    /// The epoch before this one in program order, or `None` for the first.
    pub const fn prev(self) -> Option<EpochId> {
        match self.0 {
            0 => None,
            n => Some(EpochId(n - 1)),
        }
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// The (core, epoch) pair that tags a dirty cache line, mirroring the
/// paper's CoreID + EpochID cache-tag extension (§4.3).
///
/// Two tags are equal only if both the owning core and the epoch match; the
/// pair globally identifies an epoch across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochTag {
    /// Core that last modified the line.
    pub core: CoreId,
    /// Epoch (of that core) in which the line was last modified.
    pub epoch: EpochId,
}

impl EpochTag {
    /// Creates a tag.
    pub const fn new(core: CoreId, epoch: EpochId) -> Self {
        EpochTag { core, epoch }
    }

    /// True if `self` precedes `other` in the same core's program order.
    /// Tags from different cores are unordered by program order.
    pub fn precedes_same_core(self, other: EpochTag) -> bool {
        self.core == other.core && self.epoch < other.epoch
    }
}

impl fmt::Display for EpochTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.core, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_and_display() {
        let c = CoreId::new(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.as_u32(), 7);
        assert_eq!(c.to_string(), "C7");
        assert_eq!(BankId::from(3usize).to_string(), "B3");
        assert_eq!(McId::from(1u32).to_string(), "MC1");
        assert_eq!(ThreadId::new(9).to_string(), "T9");
    }

    #[test]
    fn thread_core_pinning() {
        assert_eq!(ThreadId::new(4).core(), CoreId::new(4));
        assert_eq!(CoreId::new(4).thread(), ThreadId::new(4));
    }

    #[test]
    fn epoch_sequence() {
        let e = EpochId::FIRST;
        assert_eq!(e.prev(), None);
        let n = e.next();
        assert_eq!(n, EpochId::new(1));
        assert_eq!(n.prev(), Some(e));
        assert!(e < n);
    }

    #[test]
    fn epoch_tag_ordering() {
        let a = EpochTag::new(CoreId::new(0), EpochId::new(1));
        let b = EpochTag::new(CoreId::new(0), EpochId::new(2));
        let c = EpochTag::new(CoreId::new(1), EpochId::new(9));
        assert!(a.precedes_same_core(b));
        assert!(!b.precedes_same_core(a));
        assert!(!a.precedes_same_core(c), "cross-core tags are unordered");
        assert_eq!(a.to_string(), "C0:E1");
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::Core(CoreId::new(2)).to_string(), "C2");
        assert_eq!(NodeId::Bank(BankId::new(2)).to_string(), "B2");
        assert_eq!(NodeId::Mc(McId::new(2)).to_string(), "MC2");
    }
}
