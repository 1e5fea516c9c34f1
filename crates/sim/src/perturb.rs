//! Seeded schedule perturbation.
//!
//! The simulator is deterministic: one program, one schedule. That is
//! exactly wrong for crash-consistency testing, where bugs hide in
//! message-arrival interleavings the default schedule never produces. A
//! [`SchedulePerturbation`] jitters the three protocol-legal degrees of
//! freedom — NoC delivery latency, memory-controller service time, and the
//! order in which a flush walks the LLC banks — so the *same* program
//! explores many interleavings, one per seed, while each individual run
//! stays fully deterministic and therefore replayable from a corpus
//! artifact.
//!
//! "Protocol-legal" means no perturbation can change architectural
//! results: messages only arrive later, device accesses only take longer,
//! and bank service order was never specified to begin with. Any
//! consistency violation found under perturbation is a real protocol bug,
//! not a model artifact.

use crate::system::System;

/// A seeded, bounded perturbation of the timing model.
///
/// Apply with [`System::set_perturbation`] before [`System::run`]. The
/// default ([`SchedulePerturbation::none`]) leaves the simulator
/// cycle-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePerturbation {
    /// Master seed; every jitter stream derives from it.
    pub seed: u64,
    /// Max extra cycles per NoC message delivery (0 = exact).
    pub noc_jitter: u64,
    /// Max extra cycles per memory-controller access (0 = exact).
    pub mc_jitter: u64,
    /// Rotate the per-flush LLC bank service order.
    pub bank_rotation: bool,
}

impl SchedulePerturbation {
    /// No perturbation: the simulator stays cycle-exact.
    pub fn none() -> Self {
        SchedulePerturbation {
            seed: 0,
            noc_jitter: 0,
            mc_jitter: 0,
            bank_rotation: false,
        }
    }

    /// The default fuzzing perturbation for `seed`: a couple of hops of
    /// NoC jitter, a few percent of device-latency jitter, and bank
    /// rotation — enough to reorder persist completions without drowning
    /// the timing model in noise.
    pub fn from_seed(seed: u64) -> Self {
        SchedulePerturbation {
            seed,
            noc_jitter: 6,
            mc_jitter: 24,
            bank_rotation: true,
        }
    }

    /// True if this perturbation changes nothing.
    pub fn is_none(&self) -> bool {
        self.noc_jitter == 0 && self.mc_jitter == 0 && !self.bank_rotation
    }
}

impl Default for SchedulePerturbation {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64 stream used for the bank-rotation draws.
#[derive(Debug, Clone)]
pub(crate) struct PerturbRng {
    state: u64,
}

impl PerturbRng {
    pub(crate) fn new(seed: u64) -> Self {
        PerturbRng { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl System {
    /// Installs a schedule perturbation. Call before [`System::run`].
    ///
    /// Distinct sub-seeds are derived for the mesh, each memory
    /// controller, and the bank-rotation stream, so the jitter streams are
    /// mutually independent; the whole run remains a deterministic
    /// function of `p.seed`.
    pub fn set_perturbation(&mut self, p: &SchedulePerturbation) {
        self.mesh
            .set_jitter(p.noc_jitter, p.seed ^ 0x6E6F_635F_6A69_7474);
        for (i, mc) in self.mcs.iter_mut().enumerate() {
            mc.set_jitter(
                p.mc_jitter,
                p.seed ^ 0x6D63_5F6A_6974_7465 ^ ((i as u64) << 48),
            );
        }
        self.perturb = if p.bank_rotation {
            Some(PerturbRng::new(p.seed ^ 0x6261_6E6B_5F72_6F74))
        } else {
            None
        };
    }

    /// The bank index offset for the next epoch flush (0 when no
    /// perturbation is installed).
    pub(crate) fn bank_rotation(&mut self, nbanks: usize) -> usize {
        match (&mut self.perturb, nbanks) {
            (Some(rng), n) if n > 1 => (rng.next_u64() % n as u64) as usize,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use pbm_types::{Addr, Cycle, SystemConfig};

    fn programs() -> Vec<crate::Program> {
        (0..4u64)
            .map(|c| {
                let mut b = ProgramBuilder::new();
                for i in 0..6 {
                    b.store(Addr::new((c * 64 + i) * 64), (i + 1) as u32)
                        .barrier();
                }
                b.build()
            })
            .collect()
    }

    fn run(p: Option<SchedulePerturbation>) -> (pbm_types::SimStats, Vec<Cycle>) {
        let mut sys = System::new(SystemConfig::small_test(), programs()).unwrap();
        sys.enable_checking();
        if let Some(p) = p {
            sys.set_perturbation(&p);
        }
        let stats = sys.run();
        let times = sys.persist_times();
        (stats, times)
    }

    #[test]
    fn no_perturbation_is_byte_identical_to_default() {
        let (a, ta) = run(None);
        let (b, tb) = run(Some(SchedulePerturbation::none()));
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn none_rotates_nothing() {
        let none = SchedulePerturbation::none();
        assert!(none.is_none());
        let mut sys = System::new(SystemConfig::small_test(), programs()).unwrap();
        sys.set_perturbation(&none);
        assert!(sys.perturb.is_none(), "no bank-rotation stream installed");
    }

    #[test]
    fn same_seed_reproduces_and_seeds_differ() {
        let (a, ta) = run(Some(SchedulePerturbation::from_seed(42)));
        let (b, tb) = run(Some(SchedulePerturbation::from_seed(42)));
        assert_eq!(a, b, "a perturbed run is deterministic per seed");
        assert_eq!(ta, tb);
        let (_, tc) = run(Some(SchedulePerturbation::from_seed(43)));
        assert_ne!(ta, tc, "different seeds explore different schedules");
    }

    #[test]
    fn perturbation_never_changes_architectural_results() {
        let (base, _) = run(None);
        for seed in [1, 2, 3] {
            let (p, _) = run(Some(SchedulePerturbation::from_seed(seed)));
            assert_eq!(p.stores, base.stores);
            assert_eq!(p.barriers, base.barriers);
            assert_eq!(p.epochs_persisted, base.epochs_persisted);
            assert_eq!(p.epoch_flush_writes, base.epoch_flush_writes);
        }
    }
}
