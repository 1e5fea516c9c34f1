//! The discrete event queue.
//!
//! Two implementations share one contract — events dequeue in ascending
//! `(cycle, key)` order, and entries with equal cycle and key in insertion
//! order:
//!
//! * [`EventQueue`] — the production queue: a bucketed timing wheel
//!   (calendar queue) indexed by cycle delta from the queue's time floor,
//!   each bucket a key-sorted singly linked list of nodes in one arena
//!   `Vec` (recycled through a free list), with a binary-heap fallback
//!   for events beyond the wheel horizon. Schedule and pop are O(1) on the
//!   hot path (bounded event horizons are the common case in this
//!   simulator: L1 / LLC / mesh / NVRAM latencies are all small
//!   constants); only a keyed insert below a bucket's last key walks its
//!   list.
//! * [`HeapEventQueue`] — the log-n reference implementation (a plain
//!   `BinaryHeap`), kept as the property-test oracle and the baseline leg
//!   of the `event_queue` Criterion bench.
//!
//! [`EventQueue::schedule`] gives the `n`-th such call the key `2n + 1`,
//! so plain schedules pop in insertion order at each cycle. The even keys
//! between them are free for [`EventQueue::schedule_keyed`]: key `2n`
//! sorts after the first `n` plain schedules and before every later one.
//! The simulator uses them to slot a lock retry in where a spinning core
//! would have scheduled it (see `System`'s lock spinning).
//!
//! Ties never consult the [`Event`] payload — it deliberately has **no**
//! `Ord` implementation, so a future enum-variant reorder can never
//! silently change the simulation's event order.

use pbm_types::{BankId, CoreId, Cycle, EpochId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Execute (or retry) the core's current operation.
    Step(CoreId),
    /// A `BankAck` for `(core, epoch)` from the given bank arrived at the
    /// core's arbiter.
    BankAck(CoreId, EpochId, BankId),
    /// Retry the lock of the earliest pending woken spinner. Woken retries
    /// can share a cycle and key, so the system, not the payload, keeps
    /// which core goes first.
    LockRetry,
}

/// A heap entry. Total order is `(at, key, seq)` — `seq` is unique per
/// queue, so the order is total without ever consulting the event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: Cycle,
    key: u64,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.key, self.seq).cmp(&(other.at, other.key, other.seq))
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

/// The null node index: an empty bucket's head and tail, a list's end.
const NIL: u32 = u32::MAX;

/// One wheel entry in the node arena, linked to the next entry of its
/// bucket (or, once popped, of the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    event: Event,
    next: u32,
}

/// A wheel bucket: the first and last node of its list, `NIL` if empty.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// Time-ordered event queue: a bucketed timing wheel over
/// `WHEEL_SLOTS` (4096) cycles with a heap fallback for far-future events.
/// Ties break by key, then insertion order, making the simulation fully
/// deterministic; pop order is identical to [`HeapEventQueue`].
#[derive(Debug)]
pub struct EventQueue {
    /// `wheel[c % WHEEL_SLOTS]` lists the `(key, event)`s of cycle `c` for
    /// every `c` in `[floor, floor + WHEEL_SLOTS)`, sorted by key, equal
    /// keys in insertion order. The window is exactly one wheel
    /// revolution, so each bucket holds at most one distinct cycle.
    wheel: Vec<Bucket>,
    /// Every bucket's entries, linked through `Node::next`.
    nodes: Vec<Node>,
    /// Head of the list of popped nodes, reused before `nodes` grows.
    free: u32,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Events scheduled beyond the wheel horizon (or, defensively, in the
    /// past — the simulator never does that, but order stays correct).
    overflow: BinaryHeap<Reverse<Scheduled>>,
    /// Monotonic lower bound: the cycle of the last popped event.
    floor: u64,
    len: usize,
    /// Entries ever inserted (orders equal keys in the overflow heap).
    seq: u64,
    /// [`EventQueue::schedule`] calls so far.
    plain: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            wheel: vec![Bucket::EMPTY; WHEEL_SLOTS],
            nodes: Vec::new(),
            free: NIL,
            occupied: [0; WHEEL_WORDS],
            overflow: BinaryHeap::new(),
            floor: 0,
            len: 0,
            seq: 0,
            plain: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at` with the next odd key,
    /// `2 * plain() + 1`.
    pub fn schedule(&mut self, at: Cycle, event: Event) {
        let key = 2 * self.plain + 1;
        self.plain += 1;
        self.schedule_keyed(at, key, event);
    }

    /// Schedules `event` at time `at` with the given key: after every entry
    /// at `at` with a key up to `key`, before those with a larger one.
    pub fn schedule_keyed(&mut self, at: Cycle, key: u64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let t = at.as_u64();
        if t >= self.floor && t - self.floor < WHEEL_SLOTS as u64 {
            let b = (t % WHEEL_SLOTS as u64) as usize;
            self.insert(b, key, event);
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.overflow.push(Reverse(Scheduled {
                at,
                key,
                seq,
                event,
            }));
        }
    }

    /// Links a new node into bucket `b` after every entry with a key up
    /// to `key`.
    fn insert(&mut self, b: usize, key: u64, event: Event) {
        let node = Node {
            key,
            event,
            next: NIL,
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let Bucket { head, tail } = self.wheel[b];
        if tail == NIL {
            self.wheel[b] = Bucket { head: n, tail: n };
        } else if self.nodes[tail as usize].key <= key {
            self.nodes[tail as usize].next = n;
            self.wheel[b].tail = n;
        } else if self.nodes[head as usize].key > key {
            self.nodes[n as usize].next = head;
            self.wheel[b].head = n;
        } else {
            // A keyed lock retry: after the last node with a key up to
            // `key`, which is never the tail here.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if self.nodes[next as usize].key > key {
                    self.nodes[n as usize].next = next;
                    self.nodes[prev as usize].next = n;
                    break;
                }
                prev = next;
            }
        }
    }

    /// Number of [`EventQueue::schedule`] calls so far: the next one gets
    /// key `2 * plain() + 1`.
    pub fn plain(&self) -> u64 {
        self.plain
    }

    /// Removes and returns the earliest event with its cycle and key.
    pub fn pop(&mut self) -> Option<(Cycle, u64, Event)> {
        let wheel_bucket = self.next_occupied();
        let wheel_cycle = wheel_bucket.map(|b| self.bucket_cycle(b));
        let overflow_key = self.overflow.peek().map(|Reverse(s)| (s.at, s.key));
        let take_overflow = match (overflow_key, wheel_cycle) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(over), Some(wat)) => {
                // A bucket's front entry is its minimum key. At equal
                // cycle and key the overflow entry was inserted first: the
                // cycle was beyond the horizon then and inside it later.
                let head = self.wheel[wheel_bucket.expect("occupied")].head;
                over <= (wat, self.nodes[head as usize].key)
            }
        };
        self.len -= 1;
        if take_overflow {
            let Reverse(s) = self.overflow.pop().expect("peeked");
            self.floor = self.floor.max(s.at.as_u64());
            return Some((s.at, s.key, s.event));
        }
        let b = wheel_bucket.expect("wheel path");
        let at = wheel_cycle.expect("wheel path");
        let n = self.wheel[b].head;
        let Node { key, event, next } = self.nodes[n as usize];
        self.wheel[b].head = next;
        if next == NIL {
            self.wheel[b].tail = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.nodes[n as usize].next = self.free;
        self.free = n;
        self.floor = at.as_u64();
        Some((at, key, event))
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
    plain: u64,
}

impl HeapEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at` with the next odd key.
    pub fn schedule(&mut self, at: Cycle, event: Event) {
        let key = 2 * self.plain + 1;
        self.plain += 1;
        self.schedule_keyed(at, key, event);
    }

    /// Schedules `event` at time `at` with the given key.
    pub fn schedule_keyed(&mut self, at: Cycle, key: u64, event: Event) {
        self.heap.push(Reverse(Scheduled {
            at,
            key,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Removes and returns the earliest event with its cycle and key.
    pub fn pop(&mut self) -> Option<(Cycle, u64, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.key, s.event))
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

    /// Pops `(cycle, event)`, dropping the key.
    fn pop(q: &mut EventQueue) -> Option<(Cycle, Event)> {
        q.pop().map(|(at, _, event)| (at, event))
    }

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
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(5), Event::Step(CoreId::new(1))))
        );
        assert_eq!(
            pop(&mut q),
            Some((
                Cycle::new(7),
                Event::BankAck(CoreId::new(2), EpochId::new(0), BankId::new(3))
            ))
        );
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(10), Event::Step(CoreId::new(0))))
        );
        assert!(pop(&mut q).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), Event::Step(CoreId::new(0)));
        q.schedule(Cycle::new(5), Event::Step(CoreId::new(1)));
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(5), Event::Step(CoreId::new(0))))
        );
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(5), Event::Step(CoreId::new(1))))
        );
    }

    #[test]
    fn far_future_events_take_the_overflow_heap_and_still_order() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(Cycle::new(far), Event::Step(CoreId::new(0)));
        q.schedule(Cycle::new(2), Event::Step(CoreId::new(1)));
        q.schedule(Cycle::new(far), Event::Step(CoreId::new(2)));
        q.schedule(Cycle::new(far + 1), Event::Step(CoreId::new(3)));
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(2), Event::Step(CoreId::new(1))))
        );
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(far), Event::Step(CoreId::new(0))))
        );
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(far), Event::Step(CoreId::new(2))))
        );
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(far + 1), Event::Step(CoreId::new(3))))
        );
        assert!(pop(&mut q).is_none());
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
            pop(&mut q),
            Some((Cycle::new(200), Event::Step(CoreId::new(1))))
        );
        // floor = 200; target is now within the horizon.
        q.schedule(Cycle::new(target), Event::Step(CoreId::new(2))); // wheel
        assert_eq!(
            pop(&mut q),
            Some((Cycle::new(target), Event::Step(CoreId::new(0))))
        );
        assert_eq!(
            pop(&mut q),
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
                pop(&mut q),
                Some((Cycle::new(at), Event::Step(CoreId::new(core))))
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_entries_slot_between_plain_ones() {
        let mut q = EventQueue::new();
        let at = Cycle::new(9);
        q.schedule(at, Event::Step(CoreId::new(0))); // key 1
        q.schedule(at, Event::Step(CoreId::new(1))); // key 3
        q.schedule_keyed(at, 2, Event::LockRetry);
        q.schedule_keyed(at, 2, Event::Step(CoreId::new(2)));
        q.schedule_keyed(at, 0, Event::Step(CoreId::new(3)));
        q.schedule(at, Event::Step(CoreId::new(4))); // key 5
        assert_eq!(q.plain(), 3);
        let keys: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            keys,
            [
                (at, 0, Event::Step(CoreId::new(3))),
                (at, 1, Event::Step(CoreId::new(0))),
                (at, 2, Event::LockRetry),
                (at, 2, Event::Step(CoreId::new(2))),
                (at, 3, Event::Step(CoreId::new(1))),
                (at, 5, Event::Step(CoreId::new(4))),
            ]
        );
    }

    #[test]
    fn matches_heap_reference_on_a_mixed_stream() {
        // Plain schedules, keyed ones (at the current cycle, tying with or
        // falling between existing keys), far-future ones past the wheel
        // horizon, and pops, from a deterministic LCG stream.
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut now = 0u64;
        for step in 0..40_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 32;
            // Mostly near-future, occasionally far beyond the horizon.
            let delta = if r.is_multiple_of(61) {
                r % 100_000
            } else {
                r % 600
            };
            let ev = Event::Step(CoreId::new(step % 48));
            match (x >> 20) % 6 {
                0 | 1 => {
                    wheel.schedule(Cycle::new(now + delta), ev);
                    heap.schedule(Cycle::new(now + delta), ev);
                }
                2 | 3 => {
                    // An even key at or below the next plain key, often at
                    // the current cycle or a shared small delta: ties with
                    // earlier keyed entries and slots between plain ones.
                    let at = Cycle::new(now + if r.is_multiple_of(2) { 0 } else { delta % 8 });
                    let key = 2 * (wheel.plain() - (r >> 8) % (wheel.plain() + 1).min(6));
                    let at = if r.is_multiple_of(97) {
                        Cycle::new(now + WHEEL_SLOTS as u64 + delta)
                    } else {
                        at
                    };
                    wheel.schedule_keyed(at, key, ev);
                    heap.schedule_keyed(at, key, ev);
                }
                _ => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "diverged at step {step}");
                    if let Some((t, _, _)) = a {
                        now = t.as_u64();
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
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
