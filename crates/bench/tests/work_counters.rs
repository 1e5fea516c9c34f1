//! Always-on work counters. The event loop of the quick fig11 lock-heavy
//! cells (queue and rbtree, every lazy barrier) pops at most three events
//! per program op: a spinner that lost a lock race parks until the
//! unlock, where polling the lock every backoff would pop ten or more.
//! And every quick fig11 and fig14 cell's work counts — events popped,
//! NoC head-flit queueing per virtual network, messages and flits — are
//! pinned in `tests/golden/work_counts.txt`, so a speed-up of the event
//! loop or the NoC shows it does the same work. To refresh after an
//! intended change, copy the rendered text the failure names there.

use pbm_bench::experiments;
use pbm_bench::profiling::{fig11_base, fig11_params};
use pbm_sim::System;
use pbm_types::BarrierKind;
use pbm_workloads::micro;
use std::fmt::Write;

#[test]
fn quick_fig11_lock_cells_pop_at_most_three_events_per_op() {
    let params = fig11_params(true);
    let base = fig11_base(true);
    let lock_heavy = micro::all(&params)
        .into_iter()
        .filter(|w| w.name == "queue" || w.name == "rbtree");
    for wl in lock_heavy {
        let ops: u64 = wl.programs.iter().map(|p| p.len() as u64).sum();
        for barrier in BarrierKind::LAZY_VARIANTS {
            let mut cfg = base.clone();
            cfg.barrier = barrier;
            let mut sys = System::new(cfg, wl.programs.clone()).expect("valid cell");
            wl.apply_preloads(&mut sys);
            let stats = sys.run();
            assert!(
                stats.lock_wait_cycles > 0,
                "{} {barrier}: contended",
                wl.name
            );
            let events = sys.events_processed();
            assert!(
                events <= 3 * ops,
                "{} {barrier}: {events} events for {ops} ops",
                wl.name
            );
        }
    }
}

/// One line per cell of the quick grid `name`, in grid order.
fn render_work_counts(name: &str, out: &mut String) {
    let args = [name, "--quick"].map(String::from);
    let (exp, opts) = experiments::parse(&args).expect("valid command line");
    for (config, workload, cfg, wl) in exp.grid(&opts) {
        let mut sys = System::new(cfg, wl.programs.clone()).expect("valid cell");
        wl.apply_preloads(&mut sys);
        let stats = sys.run();
        let [control, data, writeback] = sys.noc_wait_cycles();
        writeln!(
            out,
            "{name} {config} {workload} events={} wait={control}/{data}/{writeback} \
             messages={} flits={}",
            sys.events_processed(),
            stats.noc_messages,
            stats.noc_flits,
        )
        .expect("write to string");
    }
}

#[test]
fn quick_fig11_and_fig14_work_counts_match_the_golden() {
    let mut got = String::new();
    render_work_counts("fig11", &mut got);
    render_work_counts("fig14", &mut got);
    let path = format!(
        "{}/tests/golden/work_counts.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let fresh =
            std::env::temp_dir().join(format!("pbm-work-counts-{}.txt", std::process::id()));
        std::fs::write(&fresh, &got).expect("write rendered counts");
        panic!(
            "work counts drifted from {path}; rendered text in {}",
            fresh.display()
        );
    }
}
