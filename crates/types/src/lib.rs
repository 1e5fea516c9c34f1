//! Core vocabulary types for the `pbm` persist-barrier simulator.
//!
//! This crate defines the identifiers, addresses, time units, configuration
//! and statistics shared by every other crate in the workspace. It contains
//! no behaviour beyond small, well-tested helpers: the architectural logic
//! (epochs, barriers, flush protocol) lives in [`pbm-core`], the timing model
//! in [`pbm-sim`].
//!
//! # Example
//!
//! ```
//! use pbm_types::{Addr, LineAddr, SystemConfig};
//!
//! let cfg = SystemConfig::micro48(); // Table 1 of the MICRO-48 paper
//! assert_eq!(cfg.cores, 32);
//! let a = Addr::new(0x1234);
//! let line: LineAddr = a.line();
//! assert_eq!(line.base().as_u64(), 0x1200);
//! ```
//!
//! [`pbm-core`]: https://docs.rs/pbm-core
//! [`pbm-sim`]: https://docs.rs/pbm-sim

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod bug;
mod config;
mod error;
mod hash;
mod ids;
mod kinds;
mod message;
mod obs;
mod stats;
mod time;

pub use addr::{Addr, LineAddr, LINE_SIZE, LINE_SIZE_BITS};
pub use config::{SystemConfig, MAX_CORES};
pub use error::ConfigError;
pub use hash::{FastHasher, FastMap};
pub use ids::{BankId, CoreId, EpochId, EpochTag, McId, NodeId, ThreadId};
pub use kinds::{BarrierKind, FlushMode, PersistencyKind};
pub use message::MessageClass;
pub use obs::{EpochPhase, FlushReason, MetricSample, StallKind, TraceEvent, TraceEventKind};
pub use stats::{Histogram, SimStats};
pub use time::Cycle;
