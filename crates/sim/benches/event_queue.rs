//! Wheel vs heap on synthetic event streams.
//!
//! The workload is hold-model churn — the steady state of a discrete-event
//! simulator: keep `n` events pending, repeatedly pop the earliest and
//! schedule a replacement a short (LCG-drawn) delta into the future. The
//! wheel — 4096 buckets of linked nodes in one arena `Vec` — must beat
//! the `BinaryHeap` reference here; if it ever stops doing so,
//! `pop`/`schedule` deserve a profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbm_sim::{Event, EventQueue, HeapEventQueue};
use pbm_types::{CoreId, Cycle};

/// Deterministic delta stream; mostly short deltas (within the wheel
/// window) with an occasional far-future one, like BankAck round trips.
struct Lcg(u64);

impl Lcg {
    fn next_delta(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = self.0 >> 33;
        if r.is_multiple_of(64) {
            1 + r % 20_000 // past the 4096-slot window: overflow path
        } else {
            1 + r % 256
        }
    }
}

fn churn_wheel(n: usize, steps: usize) -> u64 {
    let mut q = EventQueue::new();
    let mut lcg = Lcg(0x9e3779b97f4a7c15);
    for i in 0..n {
        q.schedule(
            Cycle::new(lcg.next_delta()),
            Event::Step(CoreId::new(i as u32)),
        );
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let (t, _, ev) = q.pop().expect("queue stays full");
        acc = acc.wrapping_add(t.as_u64());
        q.schedule(t + lcg.next_delta(), ev);
    }
    acc
}

fn churn_heap(n: usize, steps: usize) -> u64 {
    let mut q = HeapEventQueue::new();
    let mut lcg = Lcg(0x9e3779b97f4a7c15);
    for i in 0..n {
        q.schedule(
            Cycle::new(lcg.next_delta()),
            Event::Step(CoreId::new(i as u32)),
        );
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let (t, _, ev) = q.pop().expect("queue stays full");
        acc = acc.wrapping_add(t.as_u64());
        q.schedule(t + lcg.next_delta(), ev);
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    const STEPS: usize = 100_000;
    for &n in &[48usize, 512, 4096] {
        group.bench_with_input(BenchmarkId::new("wheel", n), &n, |b, &n| {
            b.iter(|| churn_wheel(n, STEPS))
        });
        group.bench_with_input(BenchmarkId::new("heap", n), &n, |b, &n| {
            b.iter(|| churn_heap(n, STEPS))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
