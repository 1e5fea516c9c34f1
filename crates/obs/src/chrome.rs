//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! The exporter lays the structured event stream out on tracks:
//!
//! * **cores: execution** (pid 1) — one thread per core; each epoch's
//!   *Ongoing* phase is a duration span (`ph:"X"`).
//! * **cores: persist pipeline** (pid 2) — each epoch's close-to-PersistCMP
//!   window is a duration span carrying the flush reason. Because several
//!   epochs of one core can be in flight at once, spans are packed onto
//!   per-core *lanes* (greedy interval assignment), guaranteeing tracks
//!   never hold overlapping slices.
//! * **cores: stalls** (pid 3) — per-core duration spans for
//!   online-persist and barrier stalls.
//! * **cores: events** (pid 4) — instant events (`ph:"i"`): FlushEpoch and
//!   PersistCMP handshake steps, IDT records/overflows, conflicts,
//!   deadlock splits.
//! * **llc banks** (pid 5) — one thread per bank; BankAck instants.
//! * **noc** (pid 6) — one thread per virtual network; injection instants.
//! * **memory controllers** (pid 7) — counter tracks (`ph:"C"`) from the
//!   periodic metric samples: MC queue depth, stalled cores, cumulative
//!   NVRAM writes.
//!
//! Timestamps are simulated cycles written as integer `ts` microseconds
//! (1 cycle ≙ 1 µs in the viewer); no wall-clock value ever enters the
//! document, so identical runs export byte-identical traces.

use crate::json::JsonValue;
use pbm_types::{MetricSample, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;

const PID_EXEC: u64 = 1;
const PID_PERSIST: u64 = 2;
const PID_STALLS: u64 = 3;
const PID_EVENTS: u64 = 4;
const PID_BANKS: u64 = 5;
const PID_NOC: u64 = 6;
const PID_MC: u64 = 7;

/// Per-core lane stride for the persist pipeline's tid space.
const LANE_STRIDE: u64 = 1000;

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: impl Into<String>) -> JsonValue {
    JsonValue::Str(v.into())
}

fn n(v: u64) -> JsonValue {
    JsonValue::Num(v)
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, value: &str) -> JsonValue {
    let mut fields = vec![("name", s(name)), ("ph", s("M")), ("pid", n(pid))];
    if let Some(tid) = tid {
        fields.push(("tid", n(tid)));
    }
    fields.push(("args", obj(vec![("name", s(value))])));
    obj(fields)
}

fn span(
    name: String,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: Vec<(&str, JsonValue)>,
) -> JsonValue {
    obj(vec![
        ("name", s(name)),
        ("ph", s("X")),
        ("ts", n(ts)),
        ("dur", n(dur)),
        ("pid", n(pid)),
        ("tid", n(tid)),
        ("args", obj(args)),
    ])
}

fn instant(name: String, ts: u64, pid: u64, tid: u64, args: Vec<(&str, JsonValue)>) -> JsonValue {
    obj(vec![
        ("name", s(name)),
        ("ph", s("i")),
        ("ts", n(ts)),
        ("pid", n(pid)),
        ("tid", n(tid)),
        ("s", s("t")),
        ("args", obj(args)),
    ])
}

fn counter(name: &str, ts: u64, value: u64) -> JsonValue {
    obj(vec![
        ("name", s(name)),
        ("ph", s("C")),
        ("ts", n(ts)),
        ("pid", n(PID_MC)),
        ("tid", n(0)),
        ("args", obj(vec![("value", n(value))])),
    ])
}

/// Lifecycle milestones of one epoch, reconstructed from the event stream.
#[derive(Debug, Default, Clone)]
struct EpochLife {
    ongoing_at: Option<u64>,
    completed_at: Option<u64>,
    flushing_at: Option<u64>,
    persisted_at: Option<u64>,
    reason: Option<&'static str>,
}

/// Exports the event stream plus metric samples as one Chrome trace-event
/// JSON document. Deterministic: identical inputs yield identical bytes.
pub fn export_chrome_trace(events: &[TraceEvent], samples: &[MetricSample]) -> String {
    // Reconstruct epoch lifecycles, keyed (core, epoch) in BTree order so
    // every later iteration is deterministic.
    let mut lives: BTreeMap<(u32, u64), EpochLife> = BTreeMap::new();
    let mut last_cycle = 0u64;
    for ev in events {
        let cycle = ev.cycle.as_u64();
        last_cycle = last_cycle.max(cycle);
        match ev.kind {
            TraceEventKind::EpochPhase { tag, phase } => {
                let life = lives
                    .entry((tag.core.as_u32(), tag.epoch.as_u64()))
                    .or_default();
                use pbm_types::EpochPhase::*;
                let slot = match phase {
                    Ongoing => &mut life.ongoing_at,
                    Completed => &mut life.completed_at,
                    Flushing => &mut life.flushing_at,
                    Persisted => &mut life.persisted_at,
                };
                slot.get_or_insert(cycle);
            }
            TraceEventKind::FlushEpoch { tag, reason } => {
                lives
                    .entry((tag.core.as_u32(), tag.epoch.as_u64()))
                    .or_default()
                    .reason
                    .get_or_insert(reason.name());
            }
            _ => {}
        }
    }

    let mut out: Vec<JsonValue> = Vec::with_capacity(events.len() + lives.len() * 2 + 64);

    // Execution spans: the Ongoing phase of each epoch.
    let mut exec_cores: Vec<u32> = Vec::new();
    for (&(core, epoch), life) in &lives {
        let Some(start) = life.ongoing_at else {
            continue;
        };
        let end = life
            .completed_at
            .or(life.flushing_at)
            .or(life.persisted_at)
            .unwrap_or(last_cycle);
        out.push(span(
            format!("E{epoch}"),
            start,
            end.saturating_sub(start),
            PID_EXEC,
            u64::from(core),
            vec![("epoch", s(format!("C{core}:E{epoch}")))],
        ));
        if !exec_cores.contains(&core) {
            exec_cores.push(core);
        }
    }

    // Persist-pipeline spans: close (or flush start) to PersistCMP, packed
    // onto per-core lanes so no track holds overlapping slices.
    let mut lanes: BTreeMap<u32, Vec<u64>> = BTreeMap::new(); // core -> lane busy-until
    let mut persist_tids: Vec<(u32, u64)> = Vec::new(); // (core, lane)
    for (&(core, epoch), life) in &lives {
        let Some(start) = life.completed_at.or(life.flushing_at) else {
            continue;
        };
        let end = life.persisted_at.unwrap_or(last_cycle);
        let lanes = lanes.entry(core).or_default();
        let lane = match lanes.iter().position(|&busy_until| busy_until <= start) {
            Some(free) => free,
            None => {
                lanes.push(0);
                lanes.len() - 1
            }
        };
        lanes[lane] = end.max(start + 1);
        let reason = life.reason.unwrap_or("unknown");
        out.push(span(
            format!("E{epoch} flush"),
            start,
            end.saturating_sub(start),
            PID_PERSIST,
            u64::from(core) * LANE_STRIDE + lane as u64,
            vec![
                ("epoch", s(format!("C{core}:E{epoch}"))),
                ("reason", s(reason)),
            ],
        ));
        if !persist_tids.contains(&(core, lane as u64)) {
            persist_tids.push((core, lane as u64));
        }
    }

    // Instants, stalls, bank acks, NoC injections, straight off the stream.
    let mut stall_cores: Vec<u32> = Vec::new();
    let mut bank_tids: Vec<u32> = Vec::new();
    let mut event_cores: Vec<u32> = Vec::new();
    let mut noc_vnets: Vec<&'static str> = Vec::new();
    for ev in events {
        let ts = ev.cycle.as_u64();
        match ev.kind {
            TraceEventKind::EpochPhase { .. } => {}
            TraceEventKind::FlushRequested { tag, reason } => {
                let core = tag.core.as_u32();
                out.push(instant(
                    format!("FlushRequested {}", tag),
                    ts,
                    PID_EVENTS,
                    u64::from(core),
                    vec![("reason", s(reason.name()))],
                ));
                if !event_cores.contains(&core) {
                    event_cores.push(core);
                }
            }
            TraceEventKind::BankFlushStart {
                tag, bank, lines, ..
            } => {
                out.push(instant(
                    format!("FlushStart {}", tag),
                    ts,
                    PID_BANKS,
                    u64::from(bank.as_u32()),
                    vec![
                        ("epoch", s(tag.to_string())),
                        ("lines", n(u64::from(lines))),
                    ],
                ));
                if !bank_tids.contains(&bank.as_u32()) {
                    bank_tids.push(bank.as_u32());
                }
            }
            TraceEventKind::PersistWrite { .. } => {
                // One event per flushed line — too dense for a viewer
                // track. pbm-prof reads these from the in-memory event
                // stream instead.
            }
            TraceEventKind::FlushEpoch { tag, reason } => {
                let core = tag.core.as_u32();
                out.push(instant(
                    format!("FlushEpoch {}", tag),
                    ts,
                    PID_EVENTS,
                    u64::from(core),
                    vec![("reason", s(reason.name()))],
                ));
                if !event_cores.contains(&core) {
                    event_cores.push(core);
                }
            }
            TraceEventKind::BankAck { tag, bank } => {
                out.push(instant(
                    format!("BankAck {}", tag),
                    ts,
                    PID_BANKS,
                    u64::from(bank.as_u32()),
                    vec![("epoch", s(tag.to_string()))],
                ));
                if !bank_tids.contains(&bank.as_u32()) {
                    bank_tids.push(bank.as_u32());
                }
            }
            TraceEventKind::PersistCmp { tag } => {
                let core = tag.core.as_u32();
                out.push(instant(
                    format!("PersistCMP {}", tag),
                    ts,
                    PID_EVENTS,
                    u64::from(core),
                    vec![("epoch", s(tag.to_string()))],
                ));
                if !event_cores.contains(&core) {
                    event_cores.push(core);
                }
            }
            TraceEventKind::IdtRecord { source, dependent }
            | TraceEventKind::IdtOverflow { source, dependent }
            | TraceEventKind::ConflictInter { source, dependent } => {
                let core = dependent.core.as_u32();
                let name = match ev.kind {
                    TraceEventKind::IdtRecord { .. } => "IDT record",
                    TraceEventKind::IdtOverflow { .. } => "IDT overflow",
                    _ => "inter-thread conflict",
                };
                out.push(instant(
                    name.to_string(),
                    ts,
                    PID_EVENTS,
                    u64::from(core),
                    vec![
                        ("source", s(source.to_string())),
                        ("dependent", s(dependent.to_string())),
                    ],
                ));
                if !event_cores.contains(&core) {
                    event_cores.push(core);
                }
            }
            TraceEventKind::DeadlockSplit { core, epoch }
            | TraceEventKind::ConflictIntra { core, epoch } => {
                let name = match ev.kind {
                    TraceEventKind::DeadlockSplit { .. } => "deadlock split",
                    _ => "intra-thread conflict",
                };
                out.push(instant(
                    name.to_string(),
                    ts,
                    PID_EVENTS,
                    u64::from(core.as_u32()),
                    vec![("epoch", s(format!("{core}:{epoch}")))],
                ));
                if !event_cores.contains(&core.as_u32()) {
                    event_cores.push(core.as_u32());
                }
            }
            TraceEventKind::StallBegin { .. } => {
                // The matching StallEnd carries the duration; the span is
                // emitted there.
            }
            TraceEventKind::StallEnd { core, kind, waited } => {
                let start = ts.saturating_sub(waited.as_u64());
                out.push(span(
                    format!("stall: {}", kind.name()),
                    start,
                    waited.as_u64(),
                    PID_STALLS,
                    u64::from(core.as_u32()),
                    vec![("kind", s(kind.name()))],
                ));
                if !stall_cores.contains(&core.as_u32()) {
                    stall_cores.push(core.as_u32());
                }
            }
            TraceEventKind::NocSend {
                src,
                dst,
                class,
                arrival,
            } => {
                let vnet = class.name();
                out.push(instant(
                    format!("{src}->{dst}"),
                    ts,
                    PID_NOC,
                    class as u64,
                    vec![("class", s(vnet)), ("arrival", n(arrival.as_u64()))],
                ));
                if !noc_vnets.contains(&vnet) {
                    noc_vnets.push(vnet);
                }
            }
        }
    }

    // Counter tracks from the periodic samples.
    for sample in samples {
        let ts = sample.cycle.as_u64();
        out.push(counter("mc_queue_depth", ts, sample.mc_queue_depth));
        out.push(counter(
            "stalled_cores",
            ts,
            u64::from(sample.stalled_cores),
        ));
        out.push(counter("nvram_writes", ts, sample.nvram_writes));
    }

    // Stable sort by timestamp keeps ties in emission order, which is
    // itself deterministic.
    out.sort_by_key(|e| e.get("ts").and_then(JsonValue::as_u64).unwrap_or(0));

    // Track naming metadata, emitted ahead of the content.
    let mut doc: Vec<JsonValue> = Vec::with_capacity(out.len() + 32);
    for (pid, name, tids) in [
        (
            PID_EXEC,
            "cores: execution",
            exec_cores
                .iter()
                .map(|&c| (u64::from(c), format!("C{c}")))
                .collect::<Vec<_>>(),
        ),
        (
            PID_PERSIST,
            "cores: persist pipeline",
            persist_tids
                .iter()
                .map(|&(c, l)| (u64::from(c) * LANE_STRIDE + l, format!("C{c} lane{l}")))
                .collect(),
        ),
        (
            PID_STALLS,
            "cores: stalls",
            stall_cores
                .iter()
                .map(|&c| (u64::from(c), format!("C{c}")))
                .collect(),
        ),
        (
            PID_EVENTS,
            "cores: events",
            event_cores
                .iter()
                .map(|&c| (u64::from(c), format!("C{c}")))
                .collect(),
        ),
        (
            PID_BANKS,
            "llc banks",
            bank_tids
                .iter()
                .map(|&b| (u64::from(b), format!("B{b}")))
                .collect(),
        ),
        (
            PID_NOC,
            "noc",
            noc_vnets
                .iter()
                .enumerate()
                .map(|(i, v)| (i as u64, format!("vnet {v}")))
                .collect(),
        ),
        (
            PID_MC,
            "memory controllers",
            if samples.is_empty() {
                Vec::new()
            } else {
                vec![(0, "counters".to_string())]
            },
        ),
    ] {
        if tids.is_empty() {
            continue;
        }
        doc.push(metadata("process_name", pid, None, name));
        let mut tids = tids;
        tids.sort();
        for (tid, tname) in tids {
            doc.push(metadata("thread_name", pid, Some(tid), &tname));
        }
    }
    doc.extend(out);

    // Assemble the document with one event per line for greppability.
    let mut text = String::with_capacity(doc.len() * 128 + 64);
    text.push_str("{\"traceEvents\":[\n");
    for (i, event) in doc.iter().enumerate() {
        if i > 0 {
            text.push_str(",\n");
        }
        text.push_str(&event.to_json());
    }
    text.push_str("\n]}\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use pbm_types::{BankId, CoreId, Cycle, EpochId, EpochPhase, EpochTag, FlushReason, StallKind};

    fn lifecycle(core: u32, epoch: u64, t0: u64) -> Vec<TraceEvent> {
        let tag = EpochTag::new(CoreId::new(core), EpochId::new(epoch));
        vec![
            TraceEvent::new(
                Cycle::new(t0),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Ongoing,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 10),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Completed,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 11),
                TraceEventKind::FlushEpoch {
                    tag,
                    reason: FlushReason::Barrier,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 11),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Flushing,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 30),
                TraceEventKind::BankAck {
                    tag,
                    bank: BankId::new(0),
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 40),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Persisted,
                },
            ),
            TraceEvent::new(Cycle::new(t0 + 40), TraceEventKind::PersistCmp { tag }),
        ]
    }

    fn parsed_events(text: &str) -> Vec<JsonValue> {
        let doc = json::parse(text).unwrap();
        doc.get("traceEvents").unwrap().as_array().unwrap().to_vec()
    }

    #[test]
    fn exports_valid_json_with_spans_and_instants() {
        let mut events = lifecycle(0, 1, 100);
        events.extend(lifecycle(1, 1, 120));
        let text = export_chrome_trace(&events, &[]);
        let items = parsed_events(&text);

        let exec_spans: Vec<_> = items
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("X")
                    && e.get("pid").and_then(JsonValue::as_u64) == Some(PID_EXEC)
            })
            .collect();
        assert_eq!(exec_spans.len(), 2, "one ongoing span per core");
        let tids: Vec<_> = exec_spans
            .iter()
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert!(tids.contains(&0) && tids.contains(&1), "per-core tracks");

        let flush_spans: Vec<_> = items
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(PID_PERSIST))
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(flush_spans.len(), 2);
        for span in &flush_spans {
            assert_eq!(
                span.get("args").unwrap().get("reason").unwrap().as_str(),
                Some("barrier")
            );
            assert_eq!(span.get("dur").unwrap().as_u64(), Some(30));
        }

        let instants: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .collect();
        let names: Vec<_> = instants
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.iter().any(|n| n.starts_with("FlushEpoch")));
        assert!(names.iter().any(|n| n.starts_with("PersistCMP")));
        assert!(names.iter().any(|n| n.starts_with("BankAck")));
    }

    #[test]
    fn overlapping_flushes_get_distinct_lanes() {
        let tag1 = EpochTag::new(CoreId::new(0), EpochId::new(1));
        let tag2 = EpochTag::new(CoreId::new(0), EpochId::new(2));
        let mut events = Vec::new();
        for (tag, close, persist) in [(tag1, 10u64, 100u64), (tag2, 20, 90)] {
            events.push(TraceEvent::new(
                Cycle::new(close),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Completed,
                },
            ));
            events.push(TraceEvent::new(
                Cycle::new(persist),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Persisted,
                },
            ));
        }
        let text = export_chrome_trace(&events, &[]);
        let items = parsed_events(&text);
        let tids: Vec<u64> = items
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(PID_PERSIST))
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1], "overlapping spans must not share a track");
    }

    #[test]
    fn stall_spans_and_counters() {
        let tag = EpochTag::new(CoreId::new(3), EpochId::new(0));
        let events = vec![
            TraceEvent::new(
                Cycle::new(50),
                TraceEventKind::StallBegin {
                    core: CoreId::new(3),
                    kind: StallKind::Barrier,
                    tag,
                },
            ),
            TraceEvent::new(
                Cycle::new(80),
                TraceEventKind::StallEnd {
                    core: CoreId::new(3),
                    kind: StallKind::Barrier,
                    waited: Cycle::new(30),
                },
            ),
        ];
        let samples = vec![MetricSample {
            cycle: Cycle::new(64),
            mc_queue_depth: 5,
            stalled_cores: 1,
            ..MetricSample::default()
        }];
        let text = export_chrome_trace(&events, &samples);
        let items = parsed_events(&text);
        let stall = items
            .iter()
            .find(|e| {
                e.get("pid").and_then(JsonValue::as_u64) == Some(PID_STALLS)
                    && e.get("ph").and_then(JsonValue::as_str) == Some("X")
            })
            .unwrap();
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(50));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(30));
        let counters: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
    }

    #[test]
    fn deterministic_bytes() {
        let mut events = lifecycle(0, 1, 0);
        events.extend(lifecycle(1, 1, 5));
        let a = export_chrome_trace(&events, &[]);
        let b = export_chrome_trace(&events, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = export_chrome_trace(&[], &[]);
        assert!(json::parse(&text).is_ok());
    }
}
