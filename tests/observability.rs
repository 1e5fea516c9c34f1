//! Observability integration tests: determinism of the exported
//! artifacts, the shape of the Chrome trace produced from real simulated
//! runs, and a golden Chrome export pinned byte for byte.

use pbm::obs::{chrome, json, metrics_csv};
use pbm::prelude::*;
use pbm_types::{EpochPhase, MetricSample, TraceEvent, TraceEventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn conflict_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.barrier = BarrierKind::LbPp;
    cfg.persistency = PersistencyKind::BufferedEpoch;
    cfg
}

/// A seeded multithreaded workload with enough sharing to exercise the
/// conflict, IDT and stall machinery.
fn seeded_programs(seed: u64, cores: usize, ops: usize) -> Vec<Program> {
    (0..cores)
        .map(|core| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((core as u64) << 32));
            let mut b = ProgramBuilder::new();
            let private_base = 1_000 + core as u64 * 64;
            for i in 0..ops {
                match rng.gen_range(0..10) {
                    0..=5 => {
                        let line = if rng.gen_bool(0.4) {
                            rng.gen_range(0..8)
                        } else {
                            private_base + rng.gen_range(0..16)
                        };
                        b.store(Addr::new(line * 64), i as u32);
                    }
                    6..=7 => {
                        let line = rng.gen_range(0..8);
                        b.load(Addr::new(line * 64));
                    }
                    _ => {
                        b.barrier();
                    }
                }
            }
            b.barrier();
            b.build()
        })
        .collect()
}

fn traced_run(seed: u64) -> (Vec<TraceEvent>, Vec<MetricSample>) {
    traced_run_sized(seed, 4, 60)
}

fn traced_run_sized(seed: u64, cores: usize, ops: usize) -> (Vec<TraceEvent>, Vec<MetricSample>) {
    let cfg = conflict_cfg();
    let mut sys = System::new(cfg, seeded_programs(seed, cores, ops)).expect("valid config");
    sys.enable_tracing();
    sys.enable_metrics(Cycle::new(500));
    sys.run();
    (sys.take_trace_events(), sys.take_metric_samples())
}

#[test]
fn same_seed_runs_export_byte_identical_artifacts() {
    let (events_a, samples_a) = traced_run(7);
    let (events_b, samples_b) = traced_run(7);
    assert!(!events_a.is_empty(), "trace should capture events");
    assert!(!samples_a.is_empty(), "sampler should capture rows");
    assert_eq!(events_a, events_b, "same-seed runs must trace identically");
    assert_eq!(
        chrome::export_chrome_trace(&events_a, &samples_a),
        chrome::export_chrome_trace(&events_b, &samples_b),
        "Chrome trace JSON must be byte-identical across same-seed runs"
    );
    assert_eq!(
        metrics_csv(&samples_a),
        metrics_csv(&samples_b),
        "metrics CSV must be byte-identical across same-seed runs"
    );
}

#[test]
fn different_seeds_diverge() {
    let (events_a, _) = traced_run(7);
    let (events_b, _) = traced_run(8);
    assert_ne!(
        events_a, events_b,
        "different programs should produce different traces"
    );
}

#[test]
fn trace_covers_the_flush_handshake() {
    let (events, _) = traced_run(13);
    let has = |f: &dyn Fn(&TraceEventKind) -> bool| events.iter().any(|e| f(&e.kind));
    assert!(has(&|k| matches!(k, TraceEventKind::FlushEpoch { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::BankAck { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::PersistCmp { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::EpochPhase { .. })));
    assert!(has(&|k| matches!(k, TraceEventKind::NocSend { .. })));
    // Stalls come in begin/end pairs (every begin eventually ends because
    // the run completed).
    let begins = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::StallBegin { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::StallEnd { .. }))
        .count();
    assert_eq!(begins, ends, "stall begins and ends must pair up");
    // Timestamps never decrease across the milestone events, which are
    // stamped with the event-loop clock. (`NocSend` is exempt: it is
    // stamped with its injection time, which a timed cascade inside one
    // handler can place ahead of the loop clock. `BankFlushStart` and
    // `PersistWrite` are likewise cascade-stamped: the whole bank flush
    // is computed inside one handler and stamped with future cycles.)
    let milestones: Vec<_> = events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                TraceEventKind::NocSend { .. }
                    | TraceEventKind::BankFlushStart { .. }
                    | TraceEventKind::PersistWrite { .. }
            )
        })
        .collect();
    assert!(
        milestones.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "milestone events must be time-ordered"
    );
}

#[test]
fn chrome_export_is_valid_and_has_per_core_epoch_tracks() {
    let (events, samples) = traced_run(17);
    let text = chrome::export_chrome_trace(&events, &samples);
    let doc = json::parse(&text).expect("chrome trace is valid JSON");
    let evs = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // Epoch execution spans (pid 1) for at least two distinct cores.
    let mut exec_tids = std::collections::BTreeSet::new();
    for e in evs {
        if e.get("ph").and_then(|v| v.as_str()) == Some("X")
            && e.get("pid").and_then(|v| v.as_u64()) == Some(1)
        {
            exec_tids.insert(e.get("tid").and_then(|v| v.as_u64()).unwrap());
        }
    }
    assert!(
        exec_tids.len() >= 2,
        "expected epoch spans on >=2 core tracks, got {exec_tids:?}"
    );
    // Metrics counters present when samples exist.
    assert!(
        evs.iter()
            .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C")),
        "expected counter events from the metric samples"
    );
}

/// The export of a full `traced_run` (about 250 KB) is one valid document:
/// all track metadata first, content in `ts` order, and exactly one line
/// per exported stream event, epoch span and counter value.
#[test]
fn chrome_export_at_realistic_size_is_ordered_and_complete() {
    let (events, samples) = traced_run(7);
    let text = chrome::export_chrome_trace(&events, &samples);
    assert!(text.len() > 200_000, "export is {} bytes", text.len());
    let doc = json::parse(&text).expect("chrome trace is valid JSON");
    let items = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let is_meta = |e: &json::JsonValue| e.get("ph").and_then(|v| v.as_str()) == Some("M");
    let first_content = items.iter().position(|e| !is_meta(e)).expect("content");
    assert!(first_content > 0, "metadata precedes the content");
    assert!(
        items[first_content..].iter().all(|e| !is_meta(e)),
        "every metadata record comes before the first content record"
    );
    let ts: Vec<u64> = items[first_content..]
        .iter()
        .map(|e| {
            e.get("ts")
                .and_then(|v| v.as_u64())
                .expect("content has ts")
        })
        .collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "content ts never decreases"
    );

    // Expected lines, counted from the events: every stream event except
    // phase changes, per-line persist writes and stall begins (the stall
    // end carries the span); one execution span per epoch that went
    // Ongoing and one persist span per epoch that closed or flushed.
    let exported = events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                TraceEventKind::EpochPhase { .. }
                    | TraceEventKind::PersistWrite { .. }
                    | TraceEventKind::StallBegin { .. }
            )
        })
        .count();
    let spans_with = |phases: &[EpochPhase]| {
        events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::EpochPhase { tag, phase } if phases.contains(&phase) => Some(tag),
                _ => None,
            })
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    };
    let spans = spans_with(&[EpochPhase::Ongoing])
        + spans_with(&[EpochPhase::Completed, EpochPhase::Flushing]);
    assert_eq!(ts.len(), exported + spans + 3 * samples.len());
}

/// The Chrome export of a short two-core run, pinned byte for byte. It
/// guards the NoC track ids (`MessageClass as u64`) and the epoch-phase
/// spans.
const GOLDEN_CHROME: &str = include_str!("golden/chrome-small.json");

#[test]
fn chrome_export_matches_the_golden_file() {
    let (events, samples) = traced_run_sized(7, 2, 10);
    let text = chrome::export_chrome_trace(&events, &samples);
    let doc = json::parse(&text).expect("chrome trace is valid JSON");
    let pids: std::collections::BTreeSet<u64> = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) != Some("M"))
        .filter_map(|e| e.get("pid").and_then(|v| v.as_u64()))
        .collect();
    assert_eq!(
        pids,
        (1..=7).collect(),
        "the golden run must put events on every track"
    );
    if let Some((i, (got, want))) = text
        .lines()
        .zip(GOLDEN_CHROME.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("line {} differs:\n  got:  {got}\n  want: {want}", i + 1);
    }
    assert_eq!(text, GOLDEN_CHROME, "export differs from the golden file");
}

#[test]
fn metrics_counters_are_cumulative_and_time_ordered() {
    let (_, samples) = traced_run(19);
    assert!(samples.len() >= 2, "want at least two samples");
    for w in samples.windows(2) {
        assert!(w[0].cycle < w[1].cycle);
        assert!(w[0].nvram_writes <= w[1].nvram_writes);
        assert!(w[0].noc_messages <= w[1].noc_messages);
        assert!(w[0].epochs_persisted <= w[1].epochs_persisted);
        assert!(w[0].online_stall_cycles <= w[1].online_stall_cycles);
        assert!(w[0].barrier_stall_cycles <= w[1].barrier_stall_cycles);
    }
}

#[test]
fn disabled_observer_records_nothing() {
    let cfg = conflict_cfg();
    let mut sys = System::new(cfg, seeded_programs(7, 4, 60)).expect("valid config");
    sys.run();
    assert!(sys.take_trace_events().is_empty());
    assert!(sys.take_metric_samples().is_empty());
}

#[test]
fn stats_are_unchanged_by_tracing() {
    let cfg = conflict_cfg();
    let mut plain = System::new(cfg.clone(), seeded_programs(23, 4, 60)).expect("valid config");
    let stats_plain = plain.run();
    let mut traced = System::new(cfg, seeded_programs(23, 4, 60)).expect("valid config");
    traced.enable_tracing();
    traced.enable_metrics(Cycle::new(500));
    let stats_traced = traced.run();
    assert_eq!(
        stats_plain, stats_traced,
        "observation must not perturb the simulation"
    );
}
