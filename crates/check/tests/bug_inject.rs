//! End-to-end validation of the harness's detection power: every
//! deliberately broken protocol variant must be caught, shrunk to a small
//! reproducing case, serialized, and — on the real design — replay clean.
//!
//! One `#[test]` drives all bugs sequentially: the `pbm_types::bug` switch
//! is process-global, so concurrent campaigns against different bugs would
//! race.

#![cfg(feature = "bug-inject")]

use pbm_check::artifact::{decode_case, encode_case};
use pbm_check::campaign::bugs::{run_bug_campaign, run_commit_case};
use pbm_check::{run_case, CaseSpec, FailureKind};
use pbm_sim::Program;
use pbm_types::bug::InjectedBug;
use pbm_types::{BarrierKind, PersistencyKind};

#[test]
fn every_injected_bug_is_caught_shrunk_and_archived() {
    for bug in InjectedBug::ALL {
        let outcome = run_bug_campaign(bug, 9_000, 20);
        let Some((spec, failure)) = outcome.shrunk else {
            panic!("{bug} went undetected across {} cases", outcome.cases_tried);
        };
        assert!(
            spec.total_ops() <= 20,
            "{bug}: shrunk case still has {} ops",
            spec.total_ops()
        );
        // The reproducing case round-trips through the corpus format.
        let text = encode_case(&spec, Some(bug.name()), Some(&failure));
        let back = decode_case(&text).expect("artifact parses");
        assert_eq!(back.spec, spec, "{bug}: artifact round-trip");
        assert_eq!(back.bug.as_deref(), Some(bug.name()));
        // With the bug deactivated the same case must be consistent —
        // the corpus stays replayable in default CI.
        if let Err(f) = run_case(&spec) {
            panic!("{bug}: shrunk case dirty on the real design: {f}");
        }
    }
}

/// A commit-protocol case whose system cannot be built (five programs on
/// the four-core test system) is reported as a panic, not propagated.
#[test]
fn commit_case_panic_is_a_failure() {
    let spec = CaseSpec {
        programs: vec![Program::empty(); 5],
        barrier: BarrierKind::LbPp,
        persistency: PersistencyKind::BufferedEpoch,
        perturb_seed: None,
        bsp_epoch_size: 7,
        seed: 0,
    };
    assert!(matches!(run_commit_case(&spec), Err(FailureKind::Panic(_))));
}
