//! Time-ordered event queue with deterministic tie-breaking.
//!
//! # Structure
//!
//! The queue is a two-tier *calendar queue* tuned for the simulator's
//! traffic: almost every event is scheduled a small constant number of
//! cycles ahead (TLB latencies, link hops, walk completions), so the
//! common case is served by a ring of per-cycle buckets — schedule is a
//! bucket append, pop is an indexed read, and a whole cycle's events drain
//! in one call ([`pop_batch`](EventQueue::pop_batch)). Events scheduled at
//! or beyond the ring horizon (fault handling, snapshots, a replayed
//! trace's requests) park in the *far tier* and are *promoted* into the
//! ring as the clock advances.
//!
//! # Far tier
//!
//! The far tier is two containers. A far push whose time is at or after
//! the time of the last event in the *run*, a [`VecDeque`] kept in
//! `(time, seq)` order, is appended to it in O(1). An earlier push goes
//! to an overflow [`BinaryHeap`]. Promotion takes whichever of the run's
//! front and the heap's top is earlier by `(time, seq)`, so far events
//! reach their buckets in global `(time, seq)` order either way. A trace
//! replay parks its whole request stream before the run starts, in time
//! order, so every request rides the run and the heap stays empty. The
//! heap stays as the fallback so that out-of-order pushes (a reversed
//! trace, fault timers set behind a later one) cost O(log n) each rather
//! than a sorted insert into the run. One count covers both containers,
//! so an idle far tier costs one length check per clock advance.
//!
//! # Bucket storage
//!
//! Each bucket is a plain `Vec` of events, stored inline. An idle bucket
//! is `Vec::new()` and owns no memory. Buffers that drain go to a LIFO
//! pool of spares, and a bucket that comes alive takes the most recently
//! drained one. That is the buffer the dispatch loop has just finished
//! with, so the store lands in cache rather than in a bucket last
//! touched a whole ring ago. The queue's memory therefore follows the
//! number of occupied buckets, not the ring length. `pop_batch` hands
//! the cycle's buffer itself to the caller and pools the caller's old
//! one, so a batch changes hands without copying an event. Single-event
//! `pop` takes the cycle's buffer the same way, reverses it in place,
//! and pops events off its end.
//!
//! # Determinism
//!
//! Events scheduled for the same cycle are delivered in the order they
//! were scheduled (FIFO), which — together with seeded RNGs everywhere
//! else — makes whole-simulation runs bit-reproducible. Within a bucket
//! the FIFO discipline is positional (append order == schedule order);
//! the far tier keeps the explicit `seq` tie-break, and promotion
//! preserves the global (time, seq) order because a far event at cycle
//! `t` is promoted at the first clock advance that brings `t` inside the
//! horizon — provably *before* any same-cycle event can be scheduled
//! directly into `t`'s bucket (see DESIGN.md §10 for the argument).
//!
//! # Examples
//!
//! ```
//! use mgpu_types::Cycle;
//! use sim_engine::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(3, "a");
//! assert_eq!(q.now(), Cycle(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Cycle(3), "a"));
//! assert_eq!(q.now(), Cycle(3));
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

use mgpu_types::Cycle;

/// Default calendar ring length in cycles (= number of buckets). Sized to
/// cover every constant latency in the system model (L1/L2/IOMMU hops,
/// 500-cycle walks, link traversals) plus the queueing backlog that
/// accumulates on compute-unit issue ports and walker pools; only
/// far-horizon events (20 k-cycle fault batches, snapshot timers, replayed
/// trace requests) go to the far tier.
const DEFAULT_RING: usize = 4096;

/// A deterministic discrete-event queue (two-tier calendar queue).
///
/// See the module docs at the top of this file for the structure; the
/// external contract —
/// time order, FIFO within a cycle, the past-time panic, and the
/// scheduled/delivered/high-water telemetry — is identical to the
/// general-purpose binary-heap queue it replaced.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Per-cycle buckets; slot `c & mask` holds the events of cycle `c`
    /// for the unique in-horizon cycle mapping to that slot, in schedule
    /// order. An idle bucket is `Vec::new()` and owns no allocation.
    buckets: Vec<Vec<E>>,
    /// Drained, empty bucket buffers, most recently drained last. A
    /// bucket coming alive takes the top one (see the module docs).
    spare: Vec<Vec<E>>,
    /// The rest of cycle `now`'s events once [`pop`](Self::pop) has
    /// started on them: the cycle's own bucket buffer, reversed in place
    /// so each pop takes the last element in O(1). Events scheduled for
    /// `now` meanwhile land in the idle bucket behind it. Otherwise
    /// empty, and then it owns no allocation.
    front: Vec<E>,
    /// Occupancy bitmap over `buckets` (one bit per slot).
    occ: Vec<u64>,
    /// Second-level bitmap: bit `w` set iff `occ[w] != 0`. Keeps the
    /// next-bucket scan O(1) word reads even when the ring is sparse.
    summary: Vec<u64>,
    /// Far-future events that arrived in time order: every event
    /// scheduled `>= ring` cycles ahead whose time is at or after the
    /// run's last event. Sorted by `(time, seq)`.
    run: VecDeque<Slot<E>>,
    /// Far-future events that arrived earlier than the run's last event.
    overflow: BinaryHeap<Reverse<Slot<E>>>,
    /// Events in `run` and `overflow` together.
    far: usize,
    /// `buckets.len() - 1`; the ring length is a power of two.
    mask: u64,
    /// Events currently resident in the ring's buckets and in `front`
    /// (not the far tier).
    in_buckets: usize,
    seq: u64,
    now: Cycle,
    popped: u64,
    high_water: usize,
}

#[derive(Debug, Clone)]
struct Slot<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Slot<E> {}
impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle zero with the default ring size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_ring(DEFAULT_RING)
    }

    /// Creates an empty queue whose calendar ring spans `ring` cycles.
    /// `ring` is rounded up to a power of two and clamped to at least 64.
    /// Smaller rings shift work onto the overflow heap (more promotions);
    /// larger rings cost idle-slot scan width and one empty `Vec` header
    /// per slot. Exposed for benchmarks and the differential tests;
    /// simulation code uses [`new`](Self::new).
    #[must_use]
    pub fn with_ring(ring: usize) -> Self {
        let ring = ring.max(64).next_power_of_two();
        EventQueue {
            buckets: (0..ring).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            front: Vec::new(),
            occ: vec![0u64; ring / 64],
            summary: vec![0u64; (ring / 64).div_ceil(64)],
            run: VecDeque::new(),
            overflow: BinaryHeap::new(),
            far: 0,
            mask: (ring - 1) as u64,
            in_buckets: 0,
            seq: 0,
            now: Cycle::ZERO,
            popped: 0,
            high_water: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of events scheduled over the queue's lifetime (delivered or
    /// still pending). Together with [`delivered`](Self::delivered) and
    /// [`high_water`](Self::high_water) this is the engine-level telemetry
    /// the experiment harness reports per run.
    #[must_use]
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Peak number of simultaneously pending events (queue memory
    /// high-water mark).
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of events still pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_buckets + self.far
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring length in cycles (bucket count). Events scheduled this many
    /// cycles ahead or further go to the far tier until promoted.
    #[must_use]
    pub fn ring_len(&self) -> usize {
        self.buckets.len()
    }

    /// Events currently parked in the far tier (the in-order run and the
    /// overflow heap together). Telemetry/test accessor: a simulation
    /// keeps this near zero, since the calendar ring absorbs the whole
    /// short-horizon common case, but a trace replay parks its entire
    /// request stream here before the run starts.
    #[must_use]
    pub fn overflow_len(&self) -> usize {
        self.far
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`); a simulator that
    /// schedules into the past has a logic bug that must not be masked.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        // sim-lint: allow(hygiene, reason = "documented API contract: past-time scheduling is a logic bug that must abort release runs too")
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        if at.0 - self.now.0 <= self.mask {
            self.enqueue((at.0 & self.mask) as usize, event);
        } else {
            self.park(Slot {
                time: at,
                seq,
                event,
            });
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Schedules `event` `delta` cycles after the current time.
    pub fn schedule_after(&mut self, delta: u64, event: E) {
        self.schedule(self.now.after(delta), event);
    }

    /// Schedules `event` at `at`, clamped to the current time: an `at` in
    /// the past becomes "now". This is the now-relative API for callers
    /// holding an absolute timestamp computed by a resource model (a
    /// walker's free time, a link's next departure slot) that is already
    /// in flight and therefore never meaningfully earlier than the
    /// present; unlike [`schedule`](Self::schedule) it cannot panic, and
    /// unlike raw absolute-time arithmetic it cannot schedule into the
    /// past. `sim-lint`'s event-discipline rule steers simulation crates
    /// to this method and [`schedule_after`](Self::schedule_after).
    pub fn schedule_no_earlier(&mut self, at: Cycle, event: E) {
        self.schedule(at.max(self.now), event);
    }

    /// Parks a far-future event: at the back of the run if it is not
    /// earlier than the run's last event, in the overflow heap otherwise.
    /// `seq` only grows, so a time at or after the back's keeps the run
    /// sorted by `(time, seq)`.
    ///
    /// Kept out of line: inlined into `schedule`, which every event
    /// passes through, it slowed the engine bench's same-cycle drains by
    /// about 3 ns per event. A simulation parks few events, and a replay
    /// parks its requests before its run starts.
    #[inline(never)]
    fn park(&mut self, slot: Slot<E>) {
        if self.run.back().is_none_or(|last| slot.time >= last.time) {
            self.run.push_back(slot);
        } else {
            self.overflow.push(Reverse(slot));
        }
        self.far += 1;
    }

    /// The far tier's earliest event by `(time, seq)`, and whether it is
    /// the run's front (rather than the heap's top).
    fn far_head(&self) -> Option<(&Slot<E>, bool)> {
        match (self.run.front(), self.overflow.peek()) {
            (Some(r), Some(Reverse(h))) if h < r => Some((h, false)),
            (Some(r), _) => Some((r, true)),
            (None, h) => h.map(|Reverse(h)| (h, false)),
        }
    }

    /// Appends `event` to the bucket at `slot`. An idle bucket first
    /// takes the most recently drained spare buffer, if there is one.
    #[inline]
    fn enqueue(&mut self, slot: usize, event: E) {
        if self.mark_slot(slot) {
            // Path-call form: sim-lint resolves `.pop()` by name, and the
            // method form would add a lexical edge to `EventQueue::pop`.
            if let Some(buffer) = Vec::pop(&mut self.spare) {
                self.buckets[slot] = buffer;
            }
        }
        self.buckets[slot].push(event);
        self.in_buckets += 1;
    }

    /// Returns a buffer whose events have all been handed out to the
    /// spare pool. A buffer that owns no memory is not worth pooling.
    #[inline]
    fn recycle(&mut self, buffer: Vec<E>) {
        // Path-call form for the same reason as in `enqueue`: `.capacity()`
        // would resolve to the TLB and filter methods of that name.
        if Vec::capacity(&buffer) > 0 {
            self.spare.push(buffer);
        }
    }

    /// Marks `slot` occupied in the bitmap and its summary. Returns
    /// whether the slot was idle before.
    #[inline]
    fn mark_slot(&mut self, slot: usize) -> bool {
        let w = slot >> 6;
        let bit = 1 << (slot & 63);
        let idle = self.occ[w] & bit == 0;
        self.occ[w] |= bit;
        self.summary[w >> 6] |= 1 << (w & 63);
        idle
    }

    /// Clears `slot` (its bucket just emptied) from the bitmap, and from
    /// the summary when the whole word went idle.
    #[inline]
    fn clear_slot(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occ[w] &= !(1 << (slot & 63));
        if self.occ[w] == 0 {
            self.summary[w >> 6] &= !(1 << (w & 63));
        }
    }

    /// The next occupancy *word* holding any bit, scanning the summary
    /// circularly from the word after `sw` and ending with `sw` itself
    /// (whose pre-`now` bits form the wrap region). `None` when every
    /// word is empty.
    fn next_occupied_word(&self, sw: usize) -> Option<usize> {
        let words = self.occ.len();
        let from = (sw + 1) % words;
        let (fw, fb) = (from >> 6, (from & 63) as u32);
        let swords = self.summary.len();
        let head = self.summary[fw] & (!0u64 << fb);
        if head != 0 {
            return Some((fw << 6) | head.trailing_zeros() as usize);
        }
        for k in 1..=swords {
            let w = (fw + k) % swords;
            let mut bits = self.summary[w];
            if k == swords {
                bits &= !(!0u64 << fb);
            }
            if bits != 0 {
                return Some((w << 6) | bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The cycle of the earliest non-empty bucket, scanning the two-level
    /// occupancy bitmap circularly from the current time. `None` when the
    /// ring is empty (all pending events, if any, are in the overflow
    /// heap).
    fn next_bucket_cycle(&self) -> Option<u64> {
        if self.in_buckets == 0 {
            return None;
        }
        let start = (self.now.0 & self.mask) as usize;
        let (sw, sb) = (start >> 6, (start & 63) as u32);
        // The word containing `start`, bits at/after the start position.
        let head = self.occ[sw] & (!0u64 << sb);
        if head != 0 {
            return Some(self.cycle_of((sw << 6) | head.trailing_zeros() as usize));
        }
        // The summary points at the next occupied word; only `sw` itself,
        // reappearing as the wrap word, needs the before-start mask.
        let w = self.next_occupied_word(sw)?;
        let mut bits = self.occ[w];
        if w == sw {
            bits &= !(!0u64 << sb);
        }
        if bits == 0 {
            return None;
        }
        Some(self.cycle_of((w << 6) | bits.trailing_zeros() as usize))
    }

    /// Maps an occupied slot index back to its (unique in-horizon) cycle.
    fn cycle_of(&self, slot: usize) -> u64 {
        let start = self.now.0 & self.mask;
        let offset = (slot as u64).wrapping_sub(start) & self.mask;
        self.now.0 + offset
    }

    /// Moves every far event whose time has come inside the ring horizon
    /// into its bucket, in `(time, seq)` order across the run and the
    /// heap. Called on every clock advance, which is what guarantees
    /// promoted events land *ahead* of any later direct schedule at the
    /// same cycle (FIFO preserved; see module docs).
    fn promote(&mut self) {
        if self.far == 0 {
            return;
        }
        while let Some((head, from_run)) = self.far_head() {
            if head.time.0 - self.now.0 > self.mask {
                break;
            }
            let slot = if from_run {
                self.run.pop_front()
            } else {
                self.overflow.pop().map(|Reverse(s)| s)
            };
            let Some(slot) = slot else {
                break;
            };
            self.far -= 1;
            self.enqueue((slot.time.0 & self.mask) as usize, slot.event);
        }
    }

    /// The cycle the next pop will deliver from, without mutating. If any
    /// bucket is occupied it beats the far tier: ring events are strictly
    /// nearer than the horizon, far events at or beyond it.
    fn next_cycle(&self) -> Option<u64> {
        self.next_bucket_cycle()
            .or_else(|| self.far_head().map(|(s, _)| s.time.0))
    }

    /// Advances the clock to the next pending cycle, promotes the far
    /// events that entered the horizon, and takes that cycle's
    /// bucket whole, leaving the slot idle. `None` when nothing is
    /// pending.
    #[inline]
    fn take_next_cycle(&mut self) -> Option<Vec<E>> {
        let c = self.next_cycle()?;
        if cfg!(any(debug_assertions, feature = "check")) {
            assert!(c >= self.now.0, "calendar queue violated time order");
        }
        self.now = Cycle(c);
        self.promote();
        let slot = (c & self.mask) as usize;
        self.clear_slot(slot);
        Some(mem::take(&mut self.buckets[slot]))
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// The first pop from a cycle takes its whole bucket and reverses it;
    /// later pops take from its end, so a pop costs O(1) amortized.
    ///
    /// # Panics
    ///
    /// In debug builds, and in release builds with the `check` feature,
    /// panics if the calendar would deliver an event before the current
    /// time (time-monotonicity invariant).
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.front.is_empty() {
            let mut cycle = self.take_next_cycle()?;
            cycle.reverse();
            self.front = cycle;
        }
        // `front` holds an event: it was just filled from an occupied
        // bucket, or an earlier pop left the rest of the cycle there.
        // Path-call form, as in `enqueue`.
        let event = Vec::pop(&mut self.front)?;
        if self.front.is_empty() {
            let drained = mem::take(&mut self.front);
            self.recycle(drained);
        }
        self.in_buckets -= 1;
        self.popped += 1;
        Some((self.now, event))
    }

    /// Pops *every* event of the next occupied cycle into `out` (cleared
    /// first), advances the clock to that cycle, and returns it. `None`
    /// when no events are pending (`out` is left empty).
    ///
    /// This is the batch form of [`pop`](Self::pop) for dispatch loops:
    /// one calendar operation delivers the whole cycle, instead of one
    /// queue operation per event. Events scheduled *for the same cycle
    /// while the batch is being dispatched* form a follow-up batch — the
    /// next call returns the same cycle again — which is exactly the
    /// delivery order the single-event API produces. After single pops
    /// part-way through a cycle, the batch is the rest of that cycle.
    ///
    /// The batch changes hands without a copy: `out` receives the
    /// bucket's own buffer, and `out`'s old buffer joins the spare pool.
    /// A loop that passes the same `out` every call keeps the buffers
    /// circulating, so the queue stops allocating once it is warm.
    ///
    /// Delivered-event telemetry counts the whole batch at pop time; a
    /// caller that stops dispatching mid-batch (simulation end) corrects
    /// the count with [`rescind_delivered`](Self::rescind_delivered).
    ///
    /// # Panics
    ///
    /// In debug builds, and in release builds with the `check` feature,
    /// panics if the calendar would deliver before the current time.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        out.clear();
        // Path-call form, as in `enqueue`: `.is_empty()` would link this
        // hot path to every `is_empty` in the workspace.
        let batch = if Vec::is_empty(&self.front) {
            self.take_next_cycle()?
        } else {
            let mut rest = mem::take(&mut self.front);
            rest.reverse();
            rest
        };
        let emptied = mem::replace(out, batch);
        self.recycle(emptied);
        self.in_buckets -= out.len();
        self.popped += out.len() as u64;
        Some(self.now)
    }

    /// Corrects the delivered-event count after a caller abandons the tail
    /// of a [`pop_batch`](Self::pop_batch) batch without dispatching it
    /// (early simulation termination): the abandoned events were handed
    /// out but never processed, so they must not count as delivered —
    /// keeping the telemetry identical to the single-event pop loop, which
    /// simply leaves undelivered events in the queue.
    ///
    /// # Panics
    ///
    /// In debug builds, and in release builds with the `check` feature,
    /// panics if `n` exceeds the delivered count.
    pub fn rescind_delivered(&mut self, n: u64) {
        if cfg!(any(debug_assertions, feature = "check")) {
            assert!(n <= self.popped, "rescinding more events than delivered");
        }
        self.popped -= n;
    }

    /// Timestamp of the next pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        if Vec::is_empty(&self.front) {
            self.next_cycle().map(Cycle)
        } else {
            Some(self.now)
        }
    }

    /// Verifies the calendar's internal structure invariants: the
    /// occupancy bitmap matches bucket emptiness, the resident count
    /// matches bucket and front contents, every idle bucket (and an idle
    /// front) owns no allocation, every pooled buffer is empty, the
    /// queue never holds more buffers than the high-water mark, the far
    /// count matches the run and the heap, the run is sorted by
    /// `(time, seq)`, and every far event lies at or beyond the ring
    /// horizon. Compiled to a no-op unless debug assertions or the
    /// `check` feature are on;
    /// `System::check_invariants` calls it, so the sim-check oracle runs
    /// it after every scripted step.
    ///
    /// # Panics
    ///
    /// Panics (under `debug_assertions` or `check`) on any violation.
    pub fn check_structure(&self) {
        if !cfg!(any(debug_assertions, feature = "check")) {
            return;
        }
        // A zero-sized payload never allocates, and its `Vec` reports
        // `usize::MAX` capacity, so only sized payloads are checked.
        let allocates = mem::size_of::<E>() > 0;
        let (mut resident, mut occupied) = (0usize, 0usize);
        for (slot, b) in self.buckets.iter().enumerate() {
            let bit = self.occ[slot >> 6] >> (slot & 63) & 1;
            // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
            assert_eq!(
                bit == 1,
                !b.is_empty(),
                "occupancy bit {slot} disagrees with bucket contents"
            );
            // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
            assert!(
                !allocates || !b.is_empty() || Vec::capacity(b) == 0,
                "idle bucket {slot} still owns an allocation"
            );
            resident += b.len();
            occupied += usize::from(!b.is_empty());
        }
        // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
        assert!(
            !allocates || !self.front.is_empty() || Vec::capacity(&self.front) == 0,
            "the idle front buffer still owns an allocation"
        );
        resident += self.front.len();
        occupied += usize::from(!self.front.is_empty());
        // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
        assert_eq!(
            (resident, self.run.len() + self.overflow.len()),
            (self.in_buckets, self.far),
            "resident counts (ring, far tier) drifted"
        );
        // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
        assert!(
            self.spare.iter().all(Vec::is_empty),
            "a pooled spare buffer still holds events"
        );
        // Buffers are allocated only while the pool is empty, when every
        // one the queue holds sits in an occupied bucket or the front,
        // and a handoff swaps one buffer for at most one. So the count
        // never exceeds the peak number of pending events.
        // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
        assert!(
            occupied + self.spare.len() <= self.high_water,
            "{occupied} occupied buffers + {} spare buffers exceed the high-water mark {}",
            self.spare.len(),
            self.high_water
        );
        for (w, &word) in self.occ.iter().enumerate() {
            let bit = self.summary[w >> 6] >> (w & 63) & 1;
            // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
            assert_eq!(
                bit == 1,
                word != 0,
                "summary bit {w} disagrees with occupancy word"
            );
        }
        // Each run event with the one before it, then each heap event
        // alone: the run must be sorted, and the whole tier beyond the
        // horizon.
        let before = std::iter::once(None).chain(self.run.iter().map(Some));
        let run = self.run.iter().zip(before);
        let heap = self.overflow.iter().map(|Reverse(s)| (s, None));
        for (s, prev) in run.chain(heap) {
            // sim-lint: allow(hygiene, reason = "whole fn is check-gated by the early return above; these must fire under --features check")
            assert!(
                s.time.0 - self.now.0 > self.mask && prev.is_none_or(|p| p < s),
                "far event {}#{} is inside the ring horizon (now={}) or not after the run event before it",
                s.time,
                s.seq,
                self.now
            );
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(2), 2);
        q.schedule(Cycle(7), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(Cycle(2), 2), (Cycle(7), 3), (Cycle(10), 1)]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(4), ());
        assert_eq!(q.now(), Cycle::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycle(4));
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "first");
        q.pop();
        q.schedule_after(5, "second");
        assert_eq!(q.pop(), Some((Cycle(15), "second")));
    }

    #[test]
    fn schedule_no_earlier_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "first");
        q.pop();
        q.schedule_no_earlier(Cycle(4), "stale");
        q.schedule_no_earlier(Cycle(12), "future");
        assert_eq!(q.pop(), Some((Cycle(10), "stale")), "past clamps to now");
        assert_eq!(q.pop(), Some((Cycle(12), "future")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), ());
        q.pop();
        q.schedule(Cycle(9), ());
    }

    #[test]
    fn telemetry_counters_track_schedule_and_peak() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(1), 1);
        q.schedule(Cycle(2), 2);
        q.schedule(Cycle(3), 3);
        assert_eq!(q.scheduled(), 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        q.schedule(Cycle(4), 4);
        assert_eq!(q.scheduled(), 4, "scheduled counts lifetime total");
        assert_eq!(
            q.high_water(),
            3,
            "high-water mark is a peak, not current len"
        );
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(3), ());
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.now(), Cycle::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_overflow_and_promote() {
        let mut q = EventQueue::with_ring(64);
        q.schedule(Cycle(1), "near");
        q.schedule(Cycle(1000), "far");
        assert_eq!(q.overflow_len(), 1, "beyond-horizon event parks in heap");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycle(1), "near")));
        q.check_structure();
        assert_eq!(q.pop(), Some((Cycle(1000), "far")));
        assert_eq!(q.overflow_len(), 0);
        q.check_structure();
    }

    #[test]
    fn promotion_preserves_fifo_against_direct_schedules() {
        // "early" goes to the overflow heap (t=200 is beyond the 64-cycle
        // horizon at schedule time). After the clock advances to 150, a
        // direct schedule at 200 lands in the bucket — and must deliver
        // *after* the promoted heap event, which was scheduled first.
        let mut q = EventQueue::with_ring(64);
        q.schedule(Cycle(200), "early");
        q.schedule(Cycle(150), "step");
        assert_eq!(q.pop(), Some((Cycle(150), "step")));
        q.schedule(Cycle(200), "late");
        assert_eq!(q.pop(), Some((Cycle(200), "early")));
        assert_eq!(q.pop(), Some((Cycle(200), "late")));
    }

    #[test]
    fn pop_batch_delivers_whole_cycle_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 0);
        q.schedule(Cycle(9), 100);
        q.schedule(Cycle(5), 1);
        q.schedule(Cycle(5), 2);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle(5)));
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(q.now(), Cycle(5));
        assert_eq!(q.delivered(), 3);
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle(9)));
        assert_eq!(batch, vec![100]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn same_cycle_schedule_during_batch_forms_followup_batch() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 0);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle(5)));
        // A handler dispatching the batch schedules another event at the
        // same cycle: it is a *new* batch at the same timestamp.
        q.schedule(Cycle(5), 1);
        assert_eq!(q.pop_batch(&mut batch), Some(Cycle(5)));
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn rescind_corrects_delivered_count() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(Cycle(2), i);
        }
        let mut batch = Vec::new();
        q.pop_batch(&mut batch);
        assert_eq!(q.delivered(), 4);
        // Caller dispatched only one event before the simulation ended.
        q.rescind_delivered(3);
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn bucket_ring_wraparound_is_transparent() {
        // Walk the clock far past several ring lengths in odd strides so
        // slots wrap repeatedly; order must stay exact.
        let mut q = EventQueue::with_ring(64);
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..500u64 {
            t += 37; // coprime to 64: hits every slot, wraps often
            q.schedule(Cycle(t), i);
            expect.push((t, i));
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(c, i)| (c.0, i))
            .collect();
        assert_eq!(got, expect);
        q.check_structure();
    }

    #[test]
    fn len_spans_both_tiers() {
        let mut q = EventQueue::with_ring(64);
        q.schedule(Cycle(3), ());
        q.schedule(Cycle(70), ());
        q.schedule(Cycle(100_000), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.overflow_len(), 2);
        assert_eq!(q.high_water(), 3);
        q.check_structure();
    }
}
