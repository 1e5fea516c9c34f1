//! Figure 10 end-to-end: persistent queue inserts with crash injection.
//!
//! Replays the paper's queue-insert recipe, then "crashes" the machine in
//! every distinct durable state the run passed through
//! (`System::crash_sweep`) and checks the recovery invariant the barrier
//! placement is supposed to buy: *if the head pointer points past an
//! entry, that entry's payload is fully durable.* A crash between epoch A
//! (entry copy) and epoch B (head bump) simply ignores the half-inserted
//! entry.
//!
//! Run: `cargo run -p pbm --example queue_crash_recovery`

use pbm::prelude::*;

const ENTRY_BYTES: u64 = 512;
const SLOTS: u64 = 32;

fn slot(i: u64) -> Addr {
    Addr::new((i % SLOTS) * ENTRY_BYTES)
}

fn head_ptr() -> Addr {
    Addr::new(SLOTS * ENTRY_BYTES)
}

fn main() -> Result<(), ConfigError> {
    let mut cfg = SystemConfig::small_test();
    cfg.cores = 1;
    cfg.llc_banks = 4;
    cfg.barrier = BarrierKind::LbPp;

    // One thread performs 8 inserts.
    let inserts = 8u64;
    let mut b = ProgramBuilder::new();
    for i in 0..inserts {
        b.store_span(slot(i), ENTRY_BYTES, (100 + i) as u32); // epoch A
        b.barrier();
        b.store(head_ptr(), (i + 1) as u32); // epoch B: head = i+1
        b.barrier();
    }

    let mut sys = System::new(cfg, vec![b.build()])?;
    sys.enable_checking();
    sys.preload(head_ptr(), 0);
    let stats = sys.run();
    println!(
        "ran {} inserts in {} cycles; {} epochs persisted",
        inserts, stats.cycles, stats.epochs_persisted
    );

    // Crash in every distinct durable state and recover.
    let mut ignored_partial = 0u64;
    let checked = sys
        .crash_sweep(|_, snap| {
            // Recovery: read the durable head pointer.
            let head = snap
                .line(head_ptr().line())
                .map(|tok| System::token_value(tok) as u64)
                .unwrap_or(0);
            // Invariant: every entry below head is fully durable with the
            // value written for it.
            for i in 0..head {
                for l in 0..(ENTRY_BYTES / 64) {
                    let value = snap.line(slot(i).offset(l * 64).line());
                    if value.map(|tok| System::token_value(tok) as u64) != Some(100 + i) {
                        return Err(format!("head={head} but entry {i} line {l} is {value:?}"));
                    }
                }
            }
            // Count crashes that caught a half-inserted entry (data
            // durable beyond head) — legal, and exactly what recovery
            // ignores.
            if snap.line(slot(head).line()).is_some() && head < inserts {
                ignored_partial += 1;
            }
            Ok(())
        })
        .unwrap_or_else(|(at, e)| panic!("crash@{at}: {e}"));
    println!("checked {checked} crash points: recovery invariant held at every one");
    println!("{ignored_partial} crash points caught a half-inserted entry (safely ignored)");
    Ok(())
}
