//! Non-volatile memory substrate for the `pbm` simulator.
//!
//! Models the NVRAM DIMMs and memory controllers of Figure 2: asymmetric
//! read/write latency (Table 1: 240/360 cycles), per-controller banking
//! parallelism, a write-ahead undo-log region (for BSP bulk mode, §5.2.1),
//! and — crucially for a *checkable* reproduction — an optional write
//! history from which the durable state at any past cycle can be
//! reconstructed, so crash consistency can be verified offline.
//!
//! Line contents are modelled as a single [`LineValue`] token per 64-byte
//! line. Ordering and atomicity — the properties persist barriers exist to
//! enforce — are line-granularity in hardware too, so tokens lose no
//! generality; workloads store meaningful tokens where recovery checks need
//! them.
//!
//! # Example
//!
//! ```
//! use pbm_nvram::NvramDevice;
//! use pbm_types::{Cycle, LineAddr};
//!
//! let mut nv = NvramDevice::with_history();
//! nv.persist(LineAddr::new(1), 0xAA, Cycle::new(100));
//! nv.persist(LineAddr::new(1), 0xBB, Cycle::new(200));
//! assert_eq!(nv.peek(LineAddr::new(1)), Some(0xBB));
//! let old = nv.snapshot_at(Cycle::new(150));
//! assert_eq!(old.line(pbm_types::LineAddr::new(1)), Some(0xAA));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod crash;
mod device;
mod log;

pub use controller::{mc_for_line, McTiming};
pub use crash::DurableSnapshot;
pub use device::{LineValue, NvramDevice};
pub use log::{LogRecord, UndoLog};
