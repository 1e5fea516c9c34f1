//! Replayable JSON case artifacts.
//!
//! A shrunk failing case is serialized into `tests/corpus/` so CI can
//! replay it forever. The format is the deterministic integer-only JSON
//! dialect of [`pbm_obs::json`] (the workspace has no serialization
//! framework, so the harness hand-rolls its documents):
//!
//! ```json
//! {"schema": "pbm-check-case/v1",
//!  "barrier": "LB++", "persistency": "BEP",
//!  "seed": 123, "perturb_seed": null, "bsp_epoch_size": 7,
//!  "bug": "drop-idt-edge",
//!  "failure": "violation at crash cycle 840: ...",
//!  "programs": [[{"op":"store","addr":64000,"value":3},{"op":"barrier"}]]}
//! ```
//!
//! `bug` and `failure` are provenance: a replay runs the case on the *real*
//! design (no injected bug) and asserts it is consistent — the corpus is a
//! regression fence of program shapes that once found bugs.

use crate::case::{CaseSpec, FailureKind};
use pbm_obs::json::{self, JsonValue};
use pbm_sim::Program;
use pbm_types::{BarrierKind, PersistencyKind};

/// Schema tag stamped into every case artifact.
pub const CASE_SCHEMA: &str = "pbm-check-case/v1";

/// A decoded corpus artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseArtifact {
    /// The replayable case.
    pub spec: CaseSpec,
    /// Injected bug that produced it, if any (name from
    /// `pbm_types::bug`).
    pub bug: Option<String>,
    /// The failure observed when the artifact was recorded.
    pub failure: Option<String>,
}

/// Parses a barrier kind from its paper label (`Display` form).
pub fn barrier_from_label(label: &str) -> Option<BarrierKind> {
    Some(match label {
        "NP" => BarrierKind::NoPersistency,
        "WT" => BarrierKind::WriteThrough,
        "LB" => BarrierKind::Lb,
        "LB+IDT" => BarrierKind::LbIdt,
        "LB+PF" => BarrierKind::LbPf,
        "LB++" => BarrierKind::LbPp,
        _ => return None,
    })
}

/// Parses a persistency model from its paper label (`Display` form).
pub fn persistency_from_label(label: &str) -> Option<PersistencyKind> {
    Some(match label {
        "SP" => PersistencyKind::Strict,
        "EP" => PersistencyKind::Epoch,
        "BEP" => PersistencyKind::BufferedEpoch,
        "BSP-bulk" => PersistencyKind::BufferedStrictBulk,
        _ => return None,
    })
}

/// Serializes a case (plus provenance) into the artifact document text.
///
/// Op encoding is the canonical one from [`pbm_sim::Op::to_json_value`],
/// shared with the `pbm-analyze` report format so a diagnostic span and a
/// corpus artifact reference identical op documents.
pub fn encode_case(spec: &CaseSpec, bug: Option<&str>, failure: Option<&FailureKind>) -> String {
    let programs = JsonValue::Array(spec.programs.iter().map(Program::to_json_value).collect());
    let opt_str = |s: Option<String>| s.map_or(JsonValue::Null, JsonValue::Str);
    let doc = JsonValue::Object(vec![
        ("schema".into(), JsonValue::Str(CASE_SCHEMA.into())),
        ("barrier".into(), JsonValue::Str(spec.barrier.to_string())),
        (
            "persistency".into(),
            JsonValue::Str(spec.persistency.to_string()),
        ),
        ("seed".into(), JsonValue::Num(spec.seed)),
        (
            "perturb_seed".into(),
            spec.perturb_seed.map_or(JsonValue::Null, JsonValue::Num),
        ),
        ("bsp_epoch_size".into(), JsonValue::Num(spec.bsp_epoch_size)),
        ("bug".into(), opt_str(bug.map(str::to_string))),
        ("failure".into(), opt_str(failure.map(ToString::to_string))),
        ("programs".into(), programs),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    text
}

/// Parses an artifact document produced by [`encode_case`].
pub fn decode_case(text: &str) -> Result<CaseArtifact, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(CASE_SCHEMA) {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let str_field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_str)
            .ok_or(format!("missing {key:?}"))
    };
    let barrier = barrier_from_label(str_field("barrier")?)
        .ok_or_else(|| "unknown barrier label".to_string())?;
    let persistency = persistency_from_label(str_field("persistency")?)
        .ok_or_else(|| "unknown persistency label".to_string())?;
    let programs = doc
        .get("programs")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"programs\"")?
        .iter()
        .map(Program::from_json_value)
        .collect::<Result<Vec<Program>, String>>()?;
    let opt_string = |key: &str| doc.get(key).and_then(JsonValue::as_str).map(str::to_string);
    Ok(CaseArtifact {
        spec: CaseSpec {
            programs,
            barrier,
            persistency,
            perturb_seed: doc.get("perturb_seed").and_then(JsonValue::as_u64),
            bsp_epoch_size: doc
                .get("bsp_epoch_size")
                .and_then(JsonValue::as_u64)
                .unwrap_or(7),
            seed: doc.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
        },
        bug: opt_string("bug"),
        failure: opt_string("failure"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_sim::ProgramBuilder;
    use pbm_types::Addr;

    #[test]
    fn artifacts_round_trip() {
        let mut b = ProgramBuilder::new();
        b.store(Addr::new(64_000), 3)
            .load(Addr::new(128))
            .compute(17)
            .lock(Addr::new(1 << 41))
            .unlock(Addr::new(1 << 41))
            .tx_end()
            .barrier();
        let spec = CaseSpec {
            programs: vec![b.build(), Program::empty()],
            barrier: BarrierKind::LbIdt,
            persistency: PersistencyKind::BufferedStrictBulk,
            perturb_seed: Some(9),
            bsp_epoch_size: 5,
            seed: 77,
        };
        let failure = FailureKind::Violation {
            at: 840,
            message: "epoch C0.E1 incomplete".into(),
        };
        let text = encode_case(&spec, Some("drop-idt-edge"), Some(&failure));
        let back = decode_case(&text).expect("parses");
        assert_eq!(back.spec, spec);
        assert_eq!(back.bug.as_deref(), Some("drop-idt-edge"));
        assert_eq!(back.failure.as_deref(), Some(failure.to_string().as_str()));
    }

    #[test]
    fn provenance_fields_may_be_null() {
        let spec = CaseSpec {
            programs: vec![Program::empty()],
            barrier: BarrierKind::Lb,
            persistency: PersistencyKind::BufferedEpoch,
            perturb_seed: None,
            bsp_epoch_size: 7,
            seed: 0,
        };
        let back = decode_case(&encode_case(&spec, None, None)).unwrap();
        assert_eq!(back.spec, spec);
        assert_eq!(back.bug, None);
        assert_eq!(back.failure, None);
    }

    #[test]
    fn labels_parse_and_reject() {
        for b in [
            BarrierKind::NoPersistency,
            BarrierKind::WriteThrough,
            BarrierKind::Lb,
            BarrierKind::LbIdt,
            BarrierKind::LbPf,
            BarrierKind::LbPp,
        ] {
            assert_eq!(barrier_from_label(&b.to_string()), Some(b));
        }
        for p in [
            PersistencyKind::Strict,
            PersistencyKind::Epoch,
            PersistencyKind::BufferedEpoch,
            PersistencyKind::BufferedStrictBulk,
        ] {
            assert_eq!(persistency_from_label(&p.to_string()), Some(p));
        }
        assert_eq!(barrier_from_label("LB+++"), None);
        assert_eq!(persistency_from_label("BSP"), None);
        assert!(decode_case("{\"schema\":\"nope\"}").is_err());
    }
}
