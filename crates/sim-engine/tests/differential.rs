//! Differential tests: the calendar queue against a reference
//! `BinaryHeap` implementation of the same contract.
//!
//! The reference model is the queue this crate shipped before the calendar
//! rebuild — a min-heap on `(time, seq)` — small enough here to be
//! obviously correct. Randomized schedules (same splitmix64 recurrence the
//! workload generators use; no external RNG) drive both implementations
//! through the full API and assert identical delivery order, clocks and
//! telemetry, including the regimes the calendar handles specially:
//! same-cycle FIFO bursts, far-future outliers that ride the overflow
//! heap, `schedule_no_earlier` clamps, and ring wraparound.
//!
//! The last group runs the default 4096-slot ring with a 48-byte payload,
//! the size of the simulator's `Event`, and checks the bucket storage
//! itself after every step: buffers drained by `pop` and `pop_batch`
//! are pooled empty and recycled into later buckets, idle buckets own no
//! memory, a batch after single pops hands out the rest of the cycle,
//! and no payload is torn or duplicated on the way.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mgpu_types::Cycle;
use sim_engine::EventQueue;

/// splitmix64, matching the repo's other property suites.
struct Gen(u64);

impl Gen {
    #[allow(clippy::should_implement_trait)]
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Reference implementation: binary heap ordered by `(time, seq)`, with
/// the same clock/telemetry semantics the calendar queue documents.
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    now: u64,
    scheduled: u64,
    delivered: u64,
    high_water: usize,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            scheduled: 0,
            delivered: 0,
            high_water: 0,
        }
    }

    fn schedule(&mut self, at: u64, ev: u32) {
        assert!(at >= self.now, "reference model scheduled into the past");
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
        self.scheduled += 1;
        self.high_water = self.high_water.max(self.heap.len());
    }

    fn schedule_after(&mut self, delta: u64, ev: u32) {
        self.schedule(self.now + delta, ev);
    }

    fn schedule_no_earlier(&mut self, at: u64, ev: u32) {
        self.schedule(at.max(self.now), ev);
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((t, _, ev)) = self.heap.pop()?;
        self.now = t;
        self.delivered += 1;
        Some((t, ev))
    }
}

/// One random API action, derived from the generator. Weights keep the
/// queue populated while still draining often enough to advance the clock.
fn step(g: &mut Gen, q: &mut EventQueue<u32>, r: &mut RefQueue) {
    let roll = g.next() % 100;
    let ev = (g.next() & 0xffff_ffff) as u32;
    match roll {
        // Short-horizon schedule: the calendar's bucket-ring regime.
        0..=34 => {
            let delta = g.next() % 48;
            q.schedule_after(delta, ev);
            r.schedule_after(delta, ev);
        }
        // Same-cycle burst: FIFO tie-breaking must match exactly.
        35..=49 => {
            let delta = g.next() % 4;
            for k in 0..3 {
                q.schedule_after(delta, ev.wrapping_add(k));
                r.schedule_after(delta, ev.wrapping_add(k));
            }
        }
        // Far-future outlier: beyond any test ring, so it lands on the
        // overflow heap and must be promoted in order later.
        50..=59 => {
            let delta = 5_000 + g.next() % 100_000;
            q.schedule_after(delta, ev);
            r.schedule_after(delta, ev);
        }
        // Absolute timestamp that may lie in the past: no_earlier clamps.
        60..=69 => {
            let at = g.next() % (r.now + 600);
            q.schedule_no_earlier(Cycle(at), ev);
            r.schedule_no_earlier(at, ev);
        }
        // Drain a few events.
        _ => {
            for _ in 0..(g.next() % 4) {
                let got = q.pop();
                let want = r.pop().map(|(t, e)| (Cycle(t), e));
                assert_eq!(got, want, "pop diverged from reference");
            }
        }
    }
}

fn drain_and_compare(q: &mut EventQueue<u32>, r: &mut RefQueue) {
    loop {
        let got = q.pop();
        let want = r.pop().map(|(t, e)| (Cycle(t), e));
        assert_eq!(got, want, "drain diverged from reference");
        if got.is_none() {
            break;
        }
    }
}

fn check_telemetry<E>(q: &EventQueue<E>, r: &RefQueue) {
    assert_eq!(q.scheduled(), r.scheduled, "scheduled counter");
    assert_eq!(q.delivered(), r.delivered, "delivered counter");
    assert_eq!(q.now(), Cycle(r.now), "clock");
    assert_eq!(q.len(), r.heap.len(), "resident count");
    assert_eq!(q.high_water(), r.high_water, "high-water mark");
}

#[test]
fn randomized_schedules_match_reference_on_default_ring() {
    let mut g = Gen(0xd1ff_0001);
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    for _ in 0..20_000 {
        step(&mut g, &mut q, &mut r);
        q.check_structure();
    }
    drain_and_compare(&mut q, &mut r);
    check_telemetry(&q, &r);
}

#[test]
fn randomized_schedules_match_reference_on_tiny_ring() {
    // A 64-slot ring forces constant wraparound and overflow promotion:
    // most of the "short-horizon" schedules above still exceed the ring.
    let mut g = Gen(0xd1ff_0002);
    let mut q = EventQueue::with_ring(64);
    let mut r = RefQueue::new();
    for _ in 0..20_000 {
        step(&mut g, &mut q, &mut r);
        q.check_structure();
    }
    drain_and_compare(&mut q, &mut r);
    check_telemetry(&q, &r);
}

#[test]
fn pop_batch_delivers_identical_stream_to_reference_pops() {
    // The batch API must flatten to exactly the per-event stream: same
    // events, same cycles, same delivered count at every batch boundary.
    let mut g = Gen(0xd1ff_0003);
    let mut q = EventQueue::with_ring(128);
    let mut r = RefQueue::new();
    for _ in 0..5_000 {
        let roll = g.next() % 100;
        let ev = (g.next() & 0xffff_ffff) as u32;
        if roll < 70 {
            let delta = if roll < 10 {
                2_000 + g.next() % 50_000
            } else {
                g.next() % 40
            };
            q.schedule_after(delta, ev);
            r.schedule_after(delta, ev);
        } else {
            let mut batch = Vec::new();
            if let Some(t) = q.pop_batch(&mut batch) {
                for got in batch {
                    let (wt, wev) = r.pop().expect("reference ran dry mid-batch");
                    assert_eq!((t, got), (Cycle(wt), wev), "batch event diverged");
                }
                assert_eq!(q.delivered(), r.delivered, "delivered after batch");
            } else {
                assert!(r.pop().is_none(), "reference had events the batch missed");
            }
        }
    }
    let mut batch = Vec::new();
    while let Some(t) = q.pop_batch(&mut batch) {
        for got in batch.drain(..) {
            let (wt, wev) = r.pop().expect("reference ran dry in final drain");
            assert_eq!((t, got), (Cycle(wt), wev), "final-drain event diverged");
        }
    }
    assert!(r.pop().is_none());
    check_telemetry(&q, &r);
}

#[test]
fn interleaved_scheduling_during_batch_cycles_matches_reference() {
    // Events scheduled while a cycle's batch is out (the dispatch-loop
    // pattern) must land exactly where the per-pop discipline puts them —
    // including zero-delay schedules back into the cycle being drained.
    let mut q = EventQueue::with_ring(64);
    let mut r = RefQueue::new();
    for i in 0..64u32 {
        let delta = u64::from(i) % 7;
        q.schedule_after(delta, i);
        r.schedule_after(delta, i);
    }
    let mut batch = Vec::new();
    let mut guard = 0u32;
    while let Some(t) = q.pop_batch(&mut batch) {
        for got in batch.drain(..) {
            let (wt, wev) = r.pop().expect("reference ran dry");
            assert_eq!((t, got), (Cycle(wt), wev));
            // Echo some events back with small (including zero) delays,
            // mimicking handlers that schedule follow-ups mid-dispatch.
            if guard < 512 && got % 3 == 0 {
                let delta = u64::from(got % 2);
                q.schedule_after(delta, got.wrapping_add(1_000_000));
                r.schedule_after(delta, got.wrapping_add(1_000_000));
                guard += 1;
            }
        }
        q.check_structure();
    }
    assert!(r.pop().is_none());
    check_telemetry(&q, &r);
}

#[test]
fn wraparound_property_huge_deltas_preserve_order() {
    // Deltas straddling many multiples of the ring size exercise the
    // slot-aliasing logic: events whose cycles alias to the same bucket
    // slot must still come out in global time order.
    let mut g = Gen(0xd1ff_0005);
    let mut q = EventQueue::with_ring(64);
    let mut r = RefQueue::new();
    for _ in 0..2_000 {
        // Same slot (multiples of 64 apart), different epochs.
        let ev = (g.next() & 0xffff_ffff) as u32;
        let delta = (g.next() % 8) * 64 + (g.next() % 3);
        q.schedule_after(delta, ev);
        r.schedule_after(delta, ev);
        if g.next().is_multiple_of(3) {
            let got = q.pop();
            let want = r.pop().map(|(t, e)| (Cycle(t), e));
            assert_eq!(got, want, "aliased-slot pop diverged");
        }
        q.check_structure();
    }
    drain_and_compare(&mut q, &mut r);
    check_telemetry(&q, &r);
}

#[test]
fn rescind_delivered_mirrors_abandoned_tail() {
    // A dispatch loop that stops mid-batch rescinds the undispatched tail;
    // the delivered counter must equal what a per-pop loop stopping at the
    // same event would have counted.
    let mut q = EventQueue::new();
    let mut r = RefQueue::new();
    for i in 0..10u32 {
        q.schedule_after(5, i);
        r.schedule_after(5, i);
    }
    let mut batch = Vec::new();
    let t = q.pop_batch(&mut batch).expect("events pending");
    assert_eq!(t, Cycle(5));
    assert_eq!(batch.len(), 10);
    // Dispatch only the first three, then stop (simulation end).
    for got in batch.iter().take(3) {
        let (_, wev) = r.pop().expect("reference ran dry");
        assert_eq!(*got, wev);
    }
    q.rescind_delivered(batch.len() as u64 - 3);
    assert_eq!(q.delivered(), r.delivered, "rescinded tail must not count");
}

/// A 48-byte payload, the size of the simulator's `Event`. Every word is
/// derived from the id, so a payload torn or mixed up by a buffer move
/// shows up as a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fat([u64; 6]);

const _: () = assert!(std::mem::size_of::<Fat>() == 48);

impl Fat {
    fn new(id: u32) -> Self {
        let x = u64::from(id);
        Fat([
            x,
            !x,
            x.rotate_left(17),
            x ^ 0xa5a5_a5a5,
            x * 3,
            x.wrapping_neg(),
        ])
    }

    fn id(self) -> u32 {
        let id = self.0[0] as u32;
        assert_eq!(self, Fat::new(id), "payload torn in the queue");
        id
    }
}

/// The calendar queue on its default ring with `Fat` payloads, run in
/// lockstep with the reference. `out` is the one batch buffer every
/// `pop_batch` reuses, as the simulator's dispatch loop does; it is read
/// by reference and never drained, so each call hands the queue a
/// non-empty buffer to clear and pool.
struct Lockstep {
    q: EventQueue<Fat>,
    r: RefQueue,
    out: Vec<Fat>,
    next_id: u32,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            q: EventQueue::new(),
            r: RefQueue::new(),
            out: Vec::new(),
            next_id: 0,
        }
    }

    fn schedule_after(&mut self, delta: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.q.schedule_after(delta, Fat::new(id));
        self.r.schedule_after(delta, id);
    }

    fn pop(&mut self) -> Option<Cycle> {
        let got = self.q.pop().map(|(t, f)| (t, f.id()));
        let want = self.r.pop().map(|(t, e)| (Cycle(t), e));
        assert_eq!(got, want, "pop diverged from reference");
        got.map(|(t, _)| t)
    }

    /// Pops the next cycle into `out` and checks it event by event.
    fn pop_batch(&mut self) -> Option<Cycle> {
        let t = self.q.pop_batch(&mut self.out);
        for f in &self.out {
            let (wt, wid) = self.r.pop().expect("reference ran dry mid-batch");
            assert_eq!((t, f.id()), (Some(Cycle(wt)), wid), "batch diverged");
        }
        if t.is_none() {
            assert!(
                self.r.pop().is_none(),
                "reference had events the batch missed"
            );
        }
        assert_eq!(
            self.q.delivered(),
            self.r.delivered,
            "delivered after batch"
        );
        t
    }

    fn check(&self) {
        self.q.check_structure();
        assert_eq!(self.q.len(), self.r.heap.len(), "resident count");
        let next = self.r.heap.peek().map(|Reverse((t, _, _))| Cycle(*t));
        assert_eq!(self.q.peek_time(), next, "next pending cycle");
    }

    fn finish(mut self) {
        while self.pop_batch().is_some() {
            self.check();
        }
        self.check();
        check_telemetry(&self.q, &self.r);
    }
}

#[test]
fn burst_buffer_is_recycled_into_later_buckets() {
    // A 1,000-event cycle grows one bucket buffer far past the others.
    // Draining it must leave the bucket idle (no memory), and the grown
    // buffer must come back through the pool into a later bucket.
    let mut l = Lockstep::new();
    for _ in 0..1_000 {
        l.schedule_after(5);
    }
    l.schedule_after(9);
    l.check();
    assert_eq!(l.pop_batch(), Some(Cycle(5)));
    assert_eq!(l.out.len(), 1_000);
    let grown = l.out.capacity();
    l.check();
    // The next handoff pools the grown buffer; the next bucket to come
    // alive takes it, and hands it back when its cycle is popped.
    assert_eq!(l.pop_batch(), Some(Cycle(9)));
    l.check();
    l.schedule_after(3);
    assert_eq!(l.pop_batch(), Some(Cycle(12)));
    assert_eq!(l.out.capacity(), grown, "the grown buffer was not recycled");
    l.check();
    // Sparse traffic afterwards: a few events a cycle, far apart.
    let mut g = Gen(0xd1ff_0101);
    for _ in 0..3_000 {
        for _ in 0..g.next() % 3 {
            l.schedule_after(1 + g.next() % 600);
        }
        if g.next().is_multiple_of(3) {
            l.pop_batch();
        }
        l.check();
    }
    l.finish();
}

#[test]
fn single_pops_that_empty_buckets_mix_with_batches() {
    // `pop` empties a bucket one event at a time and must pool the
    // buffer itself; `pop_batch` hands buffers over whole. Interleaved,
    // both must keep the pool and the buckets consistent.
    let mut g = Gen(0xd1ff_0102);
    let mut l = Lockstep::new();
    for _ in 0..20_000 {
        match g.next() % 10 {
            0..=3 => {
                for _ in 0..1 + g.next() % 4 {
                    l.schedule_after(g.next() % 24);
                }
            }
            4..=6 => {
                for _ in 0..1 + g.next() % 3 {
                    l.pop();
                }
            }
            7 => l.schedule_after(5_000 + g.next() % 20_000),
            _ => {
                l.pop_batch();
            }
        }
        l.check();
    }
    l.finish();
}

#[test]
fn batch_after_single_pops_takes_the_rest_of_the_cycle() {
    // Single pops part-way through a cycle leave the rest of it in the
    // queue's front deque, and same-cycle schedules meanwhile go behind
    // it. A batch then hands out the rest, and the new events follow as
    // a second batch for the same cycle.
    let mut l = Lockstep::new();
    for _ in 0..10 {
        l.schedule_after(2);
    }
    assert_eq!(l.pop(), Some(Cycle(2)));
    assert_eq!(l.pop(), Some(Cycle(2)));
    l.check();
    for _ in 0..3 {
        l.schedule_after(0);
    }
    l.check();
    assert_eq!(l.pop_batch(), Some(Cycle(2)));
    assert_eq!(l.out.len(), 8);
    l.check();
    assert_eq!(l.pop(), Some(Cycle(2)));
    l.check();
    assert_eq!(l.pop_batch(), Some(Cycle(2)));
    assert_eq!(l.out.len(), 2);
    l.finish();
}

#[test]
fn same_cycle_schedules_while_a_batch_is_out() {
    // While `out` still holds a batch, handlers schedule into the cycle
    // being dispatched (a follow-up batch) and just past it. The bucket
    // they land in was emptied by the handoff and must take a pooled
    // buffer, not the one the caller is still reading.
    let mut g = Gen(0xd1ff_0103);
    let mut l = Lockstep::new();
    for _ in 0..64 {
        l.schedule_after(g.next() % 8);
    }
    let mut rounds = 0;
    while let Some(t) = l.pop_batch() {
        let before = l.out.clone();
        for f in &before {
            if rounds < 4_000 && f.id() % 3 != 1 {
                l.schedule_after(g.next() % 3);
                rounds += 1;
            }
        }
        assert_eq!(l.out, before, "scheduling disturbed the batch being read");
        assert_eq!(l.q.now(), t);
        l.check();
    }
    l.finish();
}

#[test]
fn wraparound_with_recycled_buffers() {
    // Deltas up to the ring length and their aliases walk the clock
    // through many ring epochs, so buffers recycled in one epoch serve
    // slots of the next, and overflow events are promoted into buckets
    // that take pooled buffers.
    let mut g = Gen(0xd1ff_0104);
    let mut l = Lockstep::new();
    let ring = l.q.ring_len() as u64;
    for _ in 0..12_000 {
        match g.next() % 8 {
            0..=2 => l.schedule_after(g.next() % ring),
            3 => {
                let epochs = 1 + g.next() % 3;
                l.schedule_after(epochs * ring + g.next() % 4);
            }
            4 => {
                l.pop();
            }
            _ => {
                l.pop_batch();
            }
        }
        l.check();
    }
    assert!(
        l.q.now().0 > 4 * ring,
        "the clock must cross several epochs"
    );
    l.finish();
}
