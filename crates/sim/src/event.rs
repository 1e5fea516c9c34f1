//! The discrete event queue.
//!
//! Two implementations share one contract — events dequeue in ascending
//! `(cycle, insertion sequence)` order:
//!
//! * [`EventQueue`] — the production queue: a bucketed timing wheel
//!   (calendar queue) indexed by cycle delta from the queue's time floor,
//!   FIFO within a bucket, with a binary-heap fallback for events beyond
//!   the wheel horizon. Schedule and pop are O(1) on the hot path
//!   (bounded event horizons are the common case in this simulator: L1 /
//!   LLC / mesh / NVRAM latencies are all small constants).
//! * [`HeapEventQueue`] — the log-n reference implementation (a plain
//!   `BinaryHeap`), kept as the property-test oracle and the baseline leg
//!   of the `event_queue` Criterion bench.
//!
//! Ties at the same cycle break strictly by insertion sequence — the
//! [`Event`] payload deliberately has **no** `Ord` implementation, so a
//! future enum-variant reorder can never silently change the simulation's
//! event order.

use pbm_types::{BankId, CoreId, Cycle, EpochId};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Execute (or retry) the core's current operation.
    Step(CoreId),
    /// A `BankAck` for `(core, epoch)` from the given bank arrived at the
    /// core's arbiter.
    BankAck(CoreId, EpochId, BankId),
}

/// A queue entry. Total order is `(at, seq)` — `seq` is unique per queue,
/// so the order is total without ever consulting the event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: Cycle,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of wheel buckets. Must be a power of two. Sized to cover the
/// common event horizon (protocol latencies plus queueing at a loaded
/// memory controller); anything farther out takes the heap fallback.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Time-ordered event queue: a bucketed timing wheel over
/// `WHEEL_SLOTS` (4096) cycles with a heap fallback for far-future events.
/// Ties break by insertion sequence, making the simulation fully
/// deterministic; pop order is identical to [`HeapEventQueue`].
#[derive(Debug)]
pub struct EventQueue {
    /// `wheel[c % WHEEL_SLOTS]` holds the events of cycle `c` for every
    /// `c` in `[floor, floor + WHEEL_SLOTS)`, in insertion order. The
    /// window is exactly one wheel revolution, so each bucket holds at
    /// most one distinct cycle and FIFO order within a bucket *is*
    /// sequence order.
    wheel: Vec<VecDeque<(u64, Event)>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Events scheduled beyond the wheel horizon (or, defensively, in the
    /// past — the simulator never does that, but order stays correct).
    overflow: BinaryHeap<Reverse<Scheduled>>,
    /// Monotonic lower bound: the cycle of the last popped event.
    floor: u64,
    len: usize,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            overflow: BinaryHeap::new(),
            floor: 0,
            len: 0,
            seq: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: Cycle, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let t = at.as_u64();
        if t >= self.floor && t - self.floor < WHEEL_SLOTS as u64 {
            let b = (t % WHEEL_SLOTS as u64) as usize;
            self.wheel[b].push_back((seq, event));
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(Reverse(Scheduled { at, seq, event }));
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, Event)> {
        let wheel_bucket = self.next_occupied();
        let wheel_cycle = wheel_bucket.map(|b| self.bucket_cycle(b));
        let overflow_key = self.overflow.peek().map(|Reverse(s)| (s.at, s.seq));
        let take_overflow = match (overflow_key, wheel_cycle) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((oat, oseq)), Some(wat)) => {
                // At equal cycles the smaller sequence wins; a bucket's
                // front entry is its minimum sequence (FIFO insertion).
                let wseq = self.wheel[wheel_bucket.expect("occupied")]
                    .front()
                    .expect("occupied bucket non-empty")
                    .0;
                (oat, oseq) < (wat, wseq)
            }
        };
        self.len -= 1;
        if take_overflow {
            let Reverse(s) = self.overflow.pop().expect("peeked");
            self.floor = self.floor.max(s.at.as_u64());
            return Some((s.at, s.event));
        }
        let b = wheel_bucket.expect("wheel path");
        let at = wheel_cycle.expect("wheel path");
        let (_, event) = self.wheel[b].pop_front().expect("occupied bucket");
        if self.wheel[b].is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.floor = at.as_u64();
        Some((at, event))
    }

    /// Number of pending events.
    #[allow(dead_code)] // used by tests and debugging assertions
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[allow(dead_code)] // used by tests and debugging assertions
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cycle the entries of bucket `b` are scheduled at: the unique
    /// value congruent to `b` within `[floor, floor + WHEEL_SLOTS)`.
    fn bucket_cycle(&self, b: usize) -> Cycle {
        let n = WHEEL_SLOTS as u64;
        let delta = (b as u64 + n - self.floor % n) % n;
        Cycle::new(self.floor + delta)
    }

    /// The occupied bucket nearest the cursor (`floor % WHEEL_SLOTS`,
    /// inclusive), scanning forward with wrap-around via the bitmap.
    fn next_occupied(&self) -> Option<usize> {
        if self.len == self.overflow.len() {
            return None; // wheel empty
        }
        let cursor = (self.floor % WHEEL_SLOTS as u64) as usize;
        let (w0, b0) = (cursor / 64, cursor % 64);
        let first = self.occupied[w0] & (!0u64 << b0);
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        for k in 1..=WHEEL_WORDS {
            let w = (w0 + k) % WHEEL_WORDS;
            let mut word = self.occupied[w];
            if k == WHEEL_WORDS {
                // Wrapped all the way: only the bits before the cursor.
                word &= (1u64 << b0) - 1;
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Reference event queue: one global binary heap, the implementation the
/// timing wheel replaced. Same contract as [`EventQueue`]; kept as the
/// property-test oracle and benchmark baseline.
#[derive(Debug, Default)]
pub struct HeapEventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl HeapEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: Cycle, event: Event) {
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), Event::Step(CoreId::new(0)));
        q.schedule(Cycle::new(5), Event::Step(CoreId::new(1)));
        q.schedule(
            Cycle::new(7),
            Event::BankAck(CoreId::new(2), EpochId::new(0), BankId::new(3)),
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle::new(5), Event::Step(CoreId::new(1)))));
        assert_eq!(
            q.pop(),
            Some((
                Cycle::new(7),
                Event::BankAck(CoreId::new(2), EpochId::new(0), BankId::new(3))
            ))
        );
        assert_eq!(q.pop(), Some((Cycle::new(10), Event::Step(CoreId::new(0)))));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), Event::Step(CoreId::new(0)));
        q.schedule(Cycle::new(5), Event::Step(CoreId::new(1)));
        assert_eq!(q.pop(), Some((Cycle::new(5), Event::Step(CoreId::new(0)))));
        assert_eq!(q.pop(), Some((Cycle::new(5), Event::Step(CoreId::new(1)))));
    }

    #[test]
    fn far_future_events_take_the_overflow_heap_and_still_order() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(Cycle::new(far), Event::Step(CoreId::new(0)));
        q.schedule(Cycle::new(2), Event::Step(CoreId::new(1)));
        q.schedule(Cycle::new(far), Event::Step(CoreId::new(2)));
        q.schedule(Cycle::new(far + 1), Event::Step(CoreId::new(3)));
        assert_eq!(q.pop(), Some((Cycle::new(2), Event::Step(CoreId::new(1)))));
        assert_eq!(
            q.pop(),
            Some((Cycle::new(far), Event::Step(CoreId::new(0))))
        );
        assert_eq!(
            q.pop(),
            Some((Cycle::new(far), Event::Step(CoreId::new(2))))
        );
        assert_eq!(
            q.pop(),
            Some((Cycle::new(far + 1), Event::Step(CoreId::new(3))))
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_cycle_heap_and_wheel_entries_interleave_by_seq() {
        // Schedule an event just past the horizon (goes to the overflow
        // heap), advance the floor so the same cycle now fits the wheel,
        // then schedule a wheel entry at that cycle. The heap entry has
        // the smaller sequence and must pop first.
        let mut q = EventQueue::new();
        let target = WHEEL_SLOTS as u64 + 100;
        q.schedule(Cycle::new(target), Event::Step(CoreId::new(0))); // heap
        q.schedule(Cycle::new(200), Event::Step(CoreId::new(1)));
        assert_eq!(
            q.pop(),
            Some((Cycle::new(200), Event::Step(CoreId::new(1))))
        );
        // floor = 200; target is now within the horizon.
        q.schedule(Cycle::new(target), Event::Step(CoreId::new(2))); // wheel
        assert_eq!(
            q.pop(),
            Some((Cycle::new(target), Event::Step(CoreId::new(0))))
        );
        assert_eq!(
            q.pop(),
            Some((Cycle::new(target), Event::Step(CoreId::new(2))))
        );
    }

    #[test]
    fn wheel_wraps_across_many_revolutions() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for rev in 0..5u64 {
            let at = rev * (WHEEL_SLOTS as u64 - 3) + (rev * 97) % 1000;
            q.schedule(Cycle::new(at), Event::Step(CoreId::new(rev as u32)));
            expect.push((at, rev as u32));
        }
        expect.sort();
        for (at, core) in expect {
            assert_eq!(
                q.pop(),
                Some((Cycle::new(at), Event::Step(CoreId::new(core))))
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    fn matches_heap_reference_on_a_mixed_stream() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3; // deterministic LCG stream
        let mut now = 0u64;
        for step in 0..20_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !x.is_multiple_of(3) {
                // Mostly near-future, occasionally far beyond the horizon.
                let delta = if x.is_multiple_of(61) {
                    (x >> 32) % 100_000
                } else {
                    (x >> 32) % 600
                };
                let ev = Event::Step(CoreId::new(step % 48));
                wheel.schedule(Cycle::new(now + delta), ev);
                heap.schedule(Cycle::new(now + delta), ev);
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "diverged at step {step}");
                if let Some((t, _)) = a {
                    now = t.as_u64();
                }
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
