//! Statistics counters that are not protocol state.

use std::hash::{Hash, Hasher};

/// A monotone event counter kept beside protocol state (IDT records and
/// overflows, deadlock splits). It never influences a decision, so two
/// states that differ only in what they counted behave identically:
/// every `Tally` compares equal and hashes to nothing. That keeps the
/// derived `Eq`/`Hash` of [`Protocol`](crate::Protocol) a statement about
/// behaviour, which is what the exhaustive explorer deduplicates on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally(u64);

impl Tally {
    /// Counts one event.
    pub(crate) fn bump(&mut self) {
        self.0 += 1;
    }

    /// Events counted so far.
    pub(crate) fn get(self) -> u64 {
        self.0
    }
}

impl PartialEq for Tally {
    fn eq(&self, _: &Tally) -> bool {
        true
    }
}

impl Eq for Tally {}

impl Hash for Tally {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}
