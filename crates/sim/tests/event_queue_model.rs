//! Model-based property test: the bucketed timing-wheel [`EventQueue`]
//! against the straightforward `BinaryHeap` reference
//! ([`HeapEventQueue`]). Under any interleaving of schedules and pops —
//! including deltas past the wheel window, which take the overflow heap —
//! and keyed inserts that tie with or fall between existing keys — both
//! queues must dequeue the exact same `(cycle, key, event)` sequence,
//! because the simulator's determinism rests on the `(cycle, key)` order
//! (insertion order among equal keys) alone. The wheel's buckets are
//! linked lists in one node arena; the second property crowds a few
//! buckets to exercise their sorted inserts and the arena's node reuse.

use pbm_sim::{Event, EventQueue, HeapEventQueue};
use pbm_types::{BankId, CoreId, Cycle, EpochId};
use proptest::prelude::*;

fn event_for(core: u32, delta: u64) -> Event {
    if core.is_multiple_of(2) {
        Event::Step(CoreId::new(core))
    } else {
        Event::BankAck(CoreId::new(core), EpochId::new(delta), BankId::new(core))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_dequeues_in_heap_reference_order(
        // Deltas reach past the 4096-slot wheel window so the far-future
        // overflow path is exercised, not just the fast path.
        // Op 3 is a keyed insert: an even key up to the next plain key.
        actions in proptest::collection::vec((0u8..5, 0u64..6000, 0u32..8), 1..400),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        for (op, delta, core) in actions {
            if op < 3 {
                let at = Cycle::new(now + delta);
                let ev = event_for(core, delta);
                wheel.schedule(at, ev);
                heap.schedule(at, ev);
                prop_assert_eq!(wheel.len(), heap.len());
            } else if op == 3 {
                // Small deltas put several keyed entries on one cycle.
                let at = Cycle::new(now + if delta < 5000 { delta % 4 } else { delta });
                let key = 2 * wheel.plain().saturating_sub(u64::from(core % 3));
                let ev = event_for(core, delta);
                wheel.schedule_keyed(at, key, ev);
                heap.schedule_keyed(at, key, ev);
                prop_assert_eq!(wheel.len(), heap.len());
            } else {
                let got = wheel.pop();
                let want = heap.pop();
                prop_assert_eq!(got, want);
                if let Some((t, _, _)) = want {
                    // The simulator never schedules in the past: pops
                    // advance the clock that later schedules build on.
                    now = t.as_u64();
                }
            }
        }
        // Drain: the tails must agree element for element.
        while let Some(want) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }

    /// Bucket collisions: every event lands on one of three cycles just
    /// ahead of the clock, or one wheel revolution past them (the overflow
    /// heap, later tying with wheel entries of the same cycle), so a bucket
    /// holds many entries. Keyed inserts go to a bucket's head (key 0),
    /// middle (between plain keys) or tail (above every plain key so far),
    /// and drain runs pop many events at once, so later schedules reuse
    /// the arena nodes that pops freed.
    #[test]
    fn crowded_buckets_dequeue_in_heap_reference_order(
        actions in proptest::collection::vec((0u8..8, 0u64..3, 0u8..3, 0u64..64), 1..1500),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        for (op, slot, pos, depth) in actions {
            let revolution = if depth == 63 { 4096 } else { 0 };
            let at = Cycle::new(now + slot + revolution);
            let ev = event_for(depth as u32, slot);
            let pops = match op {
                0..=2 => {
                    wheel.schedule(at, ev);
                    heap.schedule(at, ev);
                    0
                }
                3 | 4 => {
                    let plain = wheel.plain();
                    let key = match pos {
                        0 => 0,
                        1 => 2 * (plain - depth.min(plain)),
                        _ => 2 * plain,
                    };
                    wheel.schedule_keyed(at, key, ev);
                    heap.schedule_keyed(at, key, ev);
                    0
                }
                5 | 6 => 1,
                _ => depth,
            };
            for _ in 0..pops {
                let want = heap.pop();
                prop_assert_eq!(wheel.pop(), want);
                if let Some((t, _, _)) = want {
                    now = t.as_u64();
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let Some(want) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert_eq!(wheel.pop(), None);
    }
}
