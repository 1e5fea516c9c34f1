//! Every metric the benchmark reports — name, unit, direction, and the
//! end-to-end metric a per-layer one should move — and how each is
//! computed from the passes of a run.

use crate::span::Tracer;
use crate::workloads::{ItemOut, Kind};
use pbm_types::SimStats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric (and workload) it
    /// should move. Simulated work counts move none.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_ops_per_s", "1/s", Higher, ""),
    m("items_per_s", "1/s", Higher, ""),
    m("call_p50_ms", "ms", Lower, ""),
    m("call_p90_ms", "ms", Lower, ""),
    m("setup_s", "s", Lower, ""),
    m("peak_rss_mib", "MiB", Lower, ""),
];

const COUNT: &str = "none: simulated work, identical under any host-speed change";

/// Measured by the traced run. Layer times every workload spends are in
/// seconds; a layer only some workloads call is a rate (work per second of
/// its self time), 0 where the workload never calls it.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.gen_s", "s", Lower, "setup_s, mostly on bsp-apps"),
    m(
        "sim.build_s",
        "s",
        Lower,
        "setup_s and call_p50_ms, mostly on bsp-apps",
    ),
    m(
        "sim.run_s",
        "s",
        Lower,
        "sim_ops_per_s on bep-micro and bsp-apps",
    ),
    m(
        "sim.ns_per_op",
        "ns",
        Lower,
        "sim_ops_per_s on bep-micro and bsp-apps; not crash-sweep",
    ),
    m(
        "sim.run_ops_per_s.np",
        "1/s",
        Higher,
        "sim_ops_per_s on bsp-apps; flat under epoch-side changes",
    ),
    m(
        "sim.run_ops_per_s.lb",
        "1/s",
        Higher,
        "sim_ops_per_s on bep-micro and bsp-apps",
    ),
    m(
        "sim.run_ops_per_s.lb_idt",
        "1/s",
        Higher,
        "sim_ops_per_s on bep-micro and bsp-apps",
    ),
    m(
        "sim.run_ops_per_s.lb_pf",
        "1/s",
        Higher,
        "sim_ops_per_s on bep-micro",
    ),
    m(
        "sim.run_ops_per_s.lb_pp",
        "1/s",
        Higher,
        "sim_ops_per_s on bep-micro, bsp-apps and trace-pipeline",
    ),
    m(
        "sim.run_ops_per_s.lb_pp_nolog",
        "1/s",
        Higher,
        "sim_ops_per_s on bsp-apps",
    ),
    m(
        "core.check_points_per_s",
        "1/s",
        Higher,
        "items_per_s and call_p90_ms on crash-sweep",
    ),
    m(
        "nvram.snapshot_points_per_s",
        "1/s",
        Higher,
        "items_per_s and call_p90_ms on crash-sweep",
    ),
    m(
        "nvram.recover_points_per_s",
        "1/s",
        Higher,
        "items_per_s on crash-sweep",
    ),
    m(
        "check.novel_point_frac",
        "frac",
        Higher,
        "items_per_s on crash-sweep, for an incremental sweep",
    ),
    m(
        "prof.analyze_events_per_s",
        "1/s",
        Higher,
        "sim_ops_per_s on trace-pipeline",
    ),
    m(
        "obs.export_events_per_s",
        "1/s",
        Higher,
        "items_per_s and call_p50_ms on trace-pipeline",
    ),
    m(
        "bench.verify_s",
        "s",
        Lower,
        "call_p50_ms: the benchmark's own output checks",
    ),
    m(
        "trace.wall_s",
        "s",
        Lower,
        "none: wall time of the traced pass",
    ),
    m(
        "trace.unattributed_frac",
        "frac",
        Lower,
        "none: traced wall time outside every layer span",
    ),
    m(
        "trace.overhead_frac",
        "frac",
        Lower,
        "none: traced pass over untraced pass, minus 1",
    ),
    m("sim.ops", "count", Lower, COUNT),
    m("sim.cycles", "cycles", Lower, COUNT),
    m("sim.barrier_stall_cycles", "cycles", Lower, COUNT),
    m("sim.online_persist_stall_cycles", "cycles", Lower, COUNT),
    m("sim.lock_wait_cycles", "cycles", Lower, COUNT),
    m("noc.messages", "count", Lower, COUNT),
    m("noc.flits", "count", Lower, COUNT),
    m("noc.wait_cycles", "cycles", Lower, COUNT),
    m("cache.l1_hit_frac", "frac", Higher, COUNT),
    m("cache.llc_hit_frac", "frac", Higher, COUNT),
    m("nvram.writes", "count", Lower, COUNT),
    m("nvram.epoch_flush_writes", "count", Lower, COUNT),
    m("nvram.log_writes", "count", Lower, COUNT),
    m("core.epochs_persisted", "count", Lower, COUNT),
    m("core.conflict_epoch_pct", "%", Lower, COUNT),
    m("core.idt_recorded", "count", Lower, COUNT),
    m("core.idt_overflow_frac", "frac", Lower, COUNT),
    m("core.deadlock_splits", "count", Lower, COUNT),
    m("core.flush_latency_p99", "cycles", Lower, COUNT),
    m("check.crash_points", "count", Lower, COUNT),
    m("obs.events", "count", Lower, COUNT),
    m("obs.export_bytes", "bytes", Lower, COUNT),
    m("prof.barriers", "count", Lower, COUNT),
    m("model.paper_gap_pct", "%", Lower, COUNT),
];

/// One pass over every item of the workload.
#[derive(Debug)]
pub struct Pass {
    pub items: Vec<ItemOut>,
    pub wall_s: f64,
    /// Index of the pass's root span (traced passes).
    pub root: usize,
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of the untraced passes. Each item's times are
/// first reduced to their median over the passes, so a host slowdown that
/// hits one pass does not move the result; rates are total work over the
/// sum of those medians, and the call percentiles are taken over them.
pub fn end_to_end(
    passes: &[Pass],
    setup_samples: &[f64],
    peak_rss_mib: f64,
) -> BTreeMap<&'static str, f64> {
    let items = passes.first().map_or(&[][..], |p| &p.items[..]);
    let item_median = |i: usize, f: fn(&ItemOut) -> f64| {
        median(&passes.iter().map(|p| f(&p.items[i])).collect::<Vec<_>>())
    };
    let rate = |work: fn(&ItemOut) -> u64, secs: fn(&ItemOut) -> f64| {
        let done: u64 = items.iter().map(work).sum();
        let took: f64 = (0..items.len()).map(|i| item_median(i, secs)).sum();
        ratio(done as f64, took)
    };
    let calls_ms: Vec<f64> = (0..items.len())
        .map(|i| item_median(i, |item| item.total_s) * 1e3)
        .collect();
    BTreeMap::from([
        ("sim_ops_per_s", rate(|i| i.ops, |i| i.sim_s)),
        ("items_per_s", rate(|i| i.work, |i| i.work_s)),
        ("call_p50_ms", percentile(&calls_ms, 50.0)),
        ("call_p90_ms", percentile(&calls_ms, 90.0)),
        ("setup_s", median(setup_samples)),
        ("peak_rss_mib", peak_rss_mib),
    ])
}

fn config_key(config: &str) -> String {
    let key = config
        .to_ascii_lowercase()
        .replace("++", "_pp_")
        .replace('+', "_");
    key.trim_end_matches('_').to_string()
}

fn sum_stats(items: &[ItemOut]) -> SimStats {
    let mut total = SimStats::new();
    for item in items {
        total.merge(&item.stats);
    }
    // `merge` keeps the slowest core's cycles; across cells they add up.
    total.cycles = items.iter().map(|i| i.stats.cycles).sum();
    total
}

/// The simulated-result gap to the paper's LB++ geometric mean: Fig. 11
/// throughput over LB (paper 1.22), Fig. 14 time over NP (paper 1.30).
pub fn paper_gap_pct(kind: Kind, items: &[ItemOut]) -> f64 {
    let (base, paper) = match kind {
        Kind::BepMicro => ("LB", 1.22),
        Kind::BspApps => ("NP", 1.30),
        _ => return 0.0,
    };
    let mut by_workload: BTreeMap<&str, BTreeMap<&str, &SimStats>> = BTreeMap::new();
    for item in items {
        let workload = item.label.split('/').next().unwrap_or_default();
        by_workload
            .entry(workload)
            .or_default()
            .insert(item.config.as_str(), &item.stats);
    }
    let ratios: Vec<f64> = by_workload
        .values()
        .filter_map(|cells| {
            let (b, pp) = (cells.get(base)?, cells.get("LB++")?);
            let r = match kind {
                Kind::BepMicro => ratio(pp.throughput(), b.throughput()),
                _ => ratio(pp.cycles as f64, b.cycles as f64),
            };
            (r > 0.0).then_some(r)
        })
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    let gmean = pbm_bench::gmean(&ratios);
    (gmean - paper).abs() / paper * 100.0
}

/// The per-layer metrics of one traced pass; `untraced_wall_s` is the
/// median untraced pass it is compared with.
pub fn per_layer(
    kind: Kind,
    pass: &Pass,
    tracer: &Tracer,
    untraced_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let selfs = tracer.self_seconds_under(pass.root);
    let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let items = &pass.items;
    let total = |f: fn(&ItemOut) -> u64| items.iter().map(f).sum::<u64>() as f64;
    let stats = sum_stats(items);
    let ops = total(|i| i.ops);
    let points = total(|i| i.crash_points);
    let events = total(|i| i.events);
    let wall = tracer.seconds(pass.root);
    let structural = layer("bench.pass") + layer("bench.item");

    let mut out = BTreeMap::new();
    out.insert("workloads.gen_s", layer("workloads.gen"));
    out.insert("sim.build_s", layer("sim.build"));
    out.insert("sim.run_s", layer("sim.run"));
    out.insert("sim.ns_per_op", ratio(layer("sim.run") * 1e9, ops));
    for def in PER_LAYER {
        if let Some(key) = def.name.strip_prefix("sim.run_ops_per_s.") {
            let (cfg_ops, run_s) = items
                .iter()
                .filter(|i| config_key(&i.config) == key)
                .fold((0.0, 0.0), |a, i| (a.0 + i.ops as f64, a.1 + i.run_s));
            out.insert(def.name, ratio(cfg_ops, run_s));
        }
    }
    out.insert(
        "core.check_points_per_s",
        ratio(points, layer("core.check")),
    );
    out.insert(
        "nvram.snapshot_points_per_s",
        ratio(points, layer("nvram.snapshot")),
    );
    out.insert(
        "nvram.recover_points_per_s",
        ratio(total(|i| i.recovered_points), layer("nvram.recover")),
    );
    out.insert(
        "check.novel_point_frac",
        ratio(total(|i| i.novel_points), points),
    );
    out.insert(
        "prof.analyze_events_per_s",
        ratio(events, layer("prof.analyze")),
    );
    out.insert(
        "obs.export_events_per_s",
        ratio(events, layer("obs.export")),
    );
    out.insert("obs.export_bytes", total(|i| i.export_bytes));
    out.insert("bench.verify_s", layer("bench.verify"));
    out.insert("trace.wall_s", wall);
    out.insert("trace.unattributed_frac", ratio(structural, wall));
    out.insert(
        "trace.overhead_frac",
        ratio(pass.wall_s, untraced_wall_s) - 1.0,
    );

    let hit_frac = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    out.insert("sim.ops", ops);
    out.insert("sim.cycles", stats.cycles as f64);
    out.insert(
        "sim.barrier_stall_cycles",
        stats.barrier_stall_cycles as f64,
    );
    out.insert(
        "sim.online_persist_stall_cycles",
        stats.online_persist_stall_cycles as f64,
    );
    out.insert("sim.lock_wait_cycles", stats.lock_wait_cycles as f64);
    out.insert("noc.messages", stats.noc_messages as f64);
    out.insert("noc.flits", stats.noc_flits as f64);
    out.insert("noc.wait_cycles", total(|i| i.noc_wait_cycles));
    out.insert(
        "cache.l1_hit_frac",
        hit_frac(stats.l1_hits, stats.l1_misses),
    );
    out.insert(
        "cache.llc_hit_frac",
        hit_frac(stats.llc_hits, stats.llc_misses),
    );
    out.insert("nvram.writes", stats.nvram_writes as f64);
    out.insert("nvram.epoch_flush_writes", stats.epoch_flush_writes as f64);
    out.insert("nvram.log_writes", stats.log_writes as f64);
    out.insert("core.epochs_persisted", stats.epochs_persisted as f64);
    out.insert("core.conflict_epoch_pct", stats.conflicting_epoch_pct());
    out.insert("core.idt_recorded", stats.idt_recorded as f64);
    out.insert(
        "core.idt_overflow_frac",
        hit_frac(stats.idt_overflows, stats.idt_recorded),
    );
    out.insert("core.deadlock_splits", stats.deadlock_splits as f64);
    out.insert(
        "core.flush_latency_p99",
        stats.epoch_flush_latency.percentile(99.0) as f64,
    );
    out.insert("check.crash_points", points);
    out.insert("obs.events", events);
    out.insert("prof.barriers", total(|i| i.barriers));
    out.insert("model.paper_gap_pct", paper_gap_pct(kind, items));
    out
}

/// The median over passes of each metric.
pub fn median_of(maps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = maps.first() {
        for name in first.keys() {
            let values: Vec<f64> = maps.iter().map(|m| m[name]).collect();
            out.insert(*name, median(&values));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// The metric entries of BENCHMARK.json as `(section, object text)`.
    fn benchmark_entries() -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut out = Vec::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            for obj in body.split('{').skip(1) {
                out.push((
                    section.to_string(),
                    obj[..obj.find('}').expect("entry closes")].to_string(),
                ));
            }
        }
        out
    }

    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = rest.trim_start().strip_prefix(':')?.trim_start();
        match rest.strip_prefix('"') {
            Some(s) => s.split('"').next(),
            None => rest.split([',', '}', '\n']).next().map(str::trim),
        }
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let entries = benchmark_entries();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<&String> = entries
                .iter()
                .filter(|(s, _)| s == section)
                .map(|(_, o)| o)
                .collect();
            assert_eq!(
                declared.len(),
                defs.len(),
                "{section}: one entry per metric"
            );
            for def in defs {
                assert!(valid_name(def.name), "bad metric name {}", def.name);
                let obj = declared
                    .iter()
                    .find(|o| field(o, "name") == Some(def.name))
                    .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json", def.name));
                assert_eq!(field(obj, "unit"), Some(def.unit), "{}", def.name);
                assert_eq!(
                    field(obj, "better"),
                    Some(def.better.name()),
                    "{}",
                    def.name
                );
                if section == "per_layer" {
                    let moves_e2e = END_TO_END.iter().any(|e| def.moves.contains(e.name));
                    assert!(
                        moves_e2e || def.moves.starts_with("none"),
                        "{} names no end-to-end metric it moves",
                        def.name
                    );
                }
            }
        }
        let workloads: Vec<&str> = entries
            .iter()
            .filter(|(s, _)| s == "workloads")
            .filter_map(|(_, o)| field(o, "name"))
            .collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
    }

    #[test]
    fn config_keys() {
        assert_eq!(config_key("LB++NOLOG"), "lb_pp_nolog");
        assert_eq!(config_key("LB+IDT"), "lb_idt");
        assert_eq!(config_key("LB++"), "lb_pp");
        assert_eq!(config_key("NP"), "np");
    }
}
