//! Always-on work counters, bounded: the event loop of the quick fig11
//! lock-heavy cells (queue and rbtree, every lazy barrier) pops at most
//! three events per program op. A spinner that lost a lock race parks
//! until the unlock; polling the lock every backoff would pop ten or more.

use pbm_bench::profiling::{fig11_base, fig11_params};
use pbm_sim::System;
use pbm_types::BarrierKind;
use pbm_workloads::micro;

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
