//! Cache data structures with epoch tagging for the `pbm` simulator.
//!
//! Implements the hardware extensions of §4.3 of the paper as plain,
//! timing-free data structures: set-associative arrays whose dirty lines
//! carry an `EpochID + CoreID` tag ([`pbm_types::EpochTag`]), an
//! epoch-aware victim-selection policy, an exact per-epoch line index
//! (standing in for the flush engine's per-epoch set bitmap), and the LLC
//! directory used to detect inter-thread conflicts.
//!
//! The cache *controllers* (what happens on a miss, when to flush, the
//! epoch flush handshake) live in `pbm-sim`; this crate only answers
//! questions like "which line should be evicted" and "which lines belong to
//! epoch E" — and answers them exactly the way the paper's hardware would.
//!
//! # Example
//!
//! ```
//! use pbm_cache::{CacheArray, CacheLine, LineState, VictimChoice};
//! use pbm_types::{CoreId, EpochId, EpochTag, LineAddr};
//!
//! let mut l1 = CacheArray::new(128, 4, 0); // 128 sets, 4-way, no bank shift
//! let tag = EpochTag::new(CoreId::new(0), EpochId::new(0));
//! l1.install(CacheLine::dirty(LineAddr::new(7), 42, Some(tag)));
//! let mut lines = Vec::new();
//! l1.lines_of_epoch_into(tag, &mut lines);
//! assert_eq!(lines, vec![LineAddr::new(7)]);
//! assert!(matches!(l1.victim_for(LineAddr::new(7 + 128)), VictimChoice::Room));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod directory;
mod index;
mod line;
mod set;

pub use array::{CacheArray, VictimChoice};
pub use directory::{DirEntry, Directory};
pub use index::EpochIndex;
pub use line::{CacheLine, LineState};
pub use set::CacheSet;
