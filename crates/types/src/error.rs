//! Error types for configuration validation.

use std::error::Error;
use std::fmt;

/// An invalid [`SystemConfig`](crate::SystemConfig) was requested.
///
/// Returned by [`SystemConfig::validate`](crate::SystemConfig::validate);
/// every variant names the offending parameter so the message is
/// actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A count parameter (cores, banks, controllers, ...) was zero.
    ZeroCount {
        /// Which parameter was zero.
        what: &'static str,
    },
    /// A parameter must be a power of two but was not.
    NotPowerOfTwo {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A cache size is not divisible into the requested sets/ways.
    CacheGeometry {
        /// Which cache.
        what: &'static str,
        /// Explanation of the mismatch.
        detail: String,
    },
    /// More cores than [`MAX_CORES`](crate::MAX_CORES) were requested.
    TooManyCores {
        /// Cores requested.
        cores: usize,
    },
    /// The mesh cannot host the requested number of nodes.
    MeshTooSmall {
        /// Nodes that need placing.
        nodes: usize,
        /// Available mesh positions.
        slots: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCount { what } => {
                write!(f, "{what} must be nonzero")
            }
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            ConfigError::CacheGeometry { what, detail } => {
                write!(f, "invalid {what} geometry: {detail}")
            }
            ConfigError::TooManyCores { cores } => {
                write!(
                    f,
                    "cores must be at most {} (one bit each in the directory's sharer mask), got {cores}",
                    crate::MAX_CORES
                )
            }
            ConfigError::MeshTooSmall { nodes, slots } => {
                write!(f, "mesh has {slots} slots but {nodes} nodes need placing")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_name_the_parameter() {
        let e = ConfigError::ZeroCount { what: "cores" };
        assert_eq!(e.to_string(), "cores must be nonzero");
        let e = ConfigError::NotPowerOfTwo {
            what: "llc banks",
            value: 3,
        };
        assert!(e.to_string().contains("llc banks"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
