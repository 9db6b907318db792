//! The engine's future-event set: a ring calendar queue.
//!
//! A discrete-event simulator's hottest structure is its pending-event
//! queue, and simulation events are not adversarial: they are dense in time
//! (link latencies and switch delays put most events within a few hundred
//! microseconds of *now*) and popped in nondecreasing order. A [calendar
//! queue](https://dl.acm.org/doi/10.1145/63039.63045) exploits that by
//! dividing time into fixed-width buckets. This one keeps three places a
//! key can be, chosen at push time from the key's bucket `b = time >> shift`
//! and two marks: the *wavefront*, the bucket of the last key popped, and
//! *drained*, the bucket `front` was last filled from (at or ahead of the
//! wavefront, with no ring key between them):
//!
//! * **`front`** (`b ≤ drained`): a small buffer sorted descending, so the
//!   minimum is its back. It is filled by draining one ring bucket at a
//!   time and sorting it once; a key that arrives at or behind the drained
//!   bucket (the source pump's, a same-bucket follow-up, a past-time
//!   injection) is inserted in order — almost always at the back.
//! * **the ring** (`drained < b < wavefront + N_BUCKETS`): bucket
//!   `b & mask` is an intrusive list threaded through a per-slot side array
//!   — a push writes one node and one head, nothing is sorted or moved
//!   until the drain gets there. The window is always the `N_BUCKETS`
//!   buckets after the wavefront: it slides with every pop, so a run whose
//!   events all land within a link latency of *now* never leaves the ring.
//! * **the overflow heap** (a full window or more ahead): compared with
//!   `front`'s back at every pop and popped directly when it holds the
//!   minimum. Far-future keys are never migrated into the ring — the heap
//!   pop they would pay on migration is the one they pay here — and when
//!   the heap's pop runs ahead of the wavefront, the wavefront follows it.
//!
//! Every ring key is later than every `front` key (its bucket is), so the
//! minimum is the smaller of `front`'s back and the heap's top.
//!
//! A peek has to drain the next occupied bucket to learn the minimum, and
//! that bucket can be far ahead of *now* (a lone timer, a trigger scheduled
//! before the run) when a batch of earlier keys is about to arrive (the
//! pump admits everything up to the peeked time). The second such key —
//! between the wavefront and the drained bucket, and not the new minimum —
//! hands the drained keys back to the ring ([`undrain`]), so the batch and
//! everything it schedules use the ring instead of piling into `front`.
//!
//! [`undrain`]: CalendarQueue::undrain
//!
//! Ordering is **identical** to a binary heap's, including timestamp ties:
//! pops go strictly by the full `(time, sequence, slot)` key, and sequence
//! numbers are unique, so the pop order is a total order that cannot depend
//! on the implementation. The differential proptests below pin that against
//! a `BinaryHeap` model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A queue entry: fire time, insertion sequence (the deterministic
/// tie-break), and the slab slot holding the event payload.
///
/// Keeping the payload out of the queue keeps reordering operations moving
/// 24-byte keys instead of full event payloads.
pub(crate) type QueuedKey = (SimTime, u64, u32);

/// Number of ring buckets (a power of two: the bucket of a time is a shift
/// and a mask). With [`BUCKET_WIDTH_US`] the ring covers a 16 ms sliding
/// window — hundreds of link latencies deep.
const N_BUCKETS: usize = 4096;

/// Width of one bucket in microseconds (a power of two). Narrow buckets
/// keep the one sort a bucket pays at drain time tiny under dense bursts;
/// 1 µs × 16,384 measured the same as this (ahead in 5 of 14 pairs).
const BUCKET_WIDTH_US: u64 = 4;

const BUCKET_SHIFT: u32 = BUCKET_WIDTH_US.trailing_zeros();

const BUCKET_MASK: u64 = N_BUCKETS as u64 - 1;

/// End of a bucket's list.
const NIL: u32 = u32::MAX;

/// The absolute (unwrapped) bucket number of a fire time.
fn bucket_of(time: SimTime) -> u64 {
    time.as_micros() >> BUCKET_SHIFT
}

/// A ring-resident key, stored at its slab slot's index: the key's other
/// two words and the next slot in the same bucket.
#[derive(Clone, Copy, Debug)]
struct Node {
    time: SimTime,
    seq: u64,
    next: u32,
}

/// The calendar queue proper (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct CalendarQueue {
    /// Per slab slot: where a ring-resident key lives. Slots are unique
    /// among pending keys, so the payload slab's numbering is reused.
    nodes: Vec<Node>,
    /// Per ring bucket: the first slot of its list, or [`NIL`].
    head: Vec<u32>,
    /// One bit per ring bucket: occupied? Lets the wavefront skip runs of
    /// empty buckets 64 at a time.
    occupancy: Vec<u64>,
    /// The bucket of the last key popped. Ring keys sit in the
    /// `N_BUCKETS - 1` buckets after it, so no two of them share an index.
    wavefront: u64,
    /// The last bucket drained into `front`, at or ahead of the wavefront:
    /// no ring key sits in a bucket from the wavefront up to this one, and
    /// the two are equal whenever `front` is empty.
    drained: u64,
    /// Keys at or behind the drained bucket, sorted descending.
    front: Vec<QueuedKey>,
    /// Keys currently in the ring.
    in_ring: usize,
    /// Keys pushed a full window or more ahead of the wavefront.
    overflow: BinaryHeap<Reverse<QueuedKey>>,
}

impl CalendarQueue {
    pub(crate) fn new() -> CalendarQueue {
        CalendarQueue {
            nodes: Vec::new(),
            head: vec![NIL; N_BUCKETS],
            occupancy: vec![0; N_BUCKETS / 64],
            wavefront: 0,
            drained: 0,
            front: Vec::new(),
            in_ring: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Pending events. The engine samples this at each dispatch for the
    /// queue-depth high-water metric.
    pub(crate) fn len(&self) -> usize {
        self.front.len() + self.in_ring + self.overflow.len()
    }

    pub(crate) fn push(&mut self, key: QueuedKey) {
        let bucket = bucket_of(key.0);
        if bucket > self.drained {
            if bucket - self.wavefront >= N_BUCKETS as u64 {
                self.overflow.push(Reverse(key));
            } else {
                self.ring_insert(key);
            }
            return;
        }
        // At or behind the drained bucket: at or near the minimum, so the
        // scan from the back is short.
        let at = self.front.iter().rposition(|&k| k > key).map_or(0, |i| i + 1);
        if at < self.front.len() && bucket > self.wavefront && bucket < self.drained {
            self.undrain();
            self.ring_insert(key);
        } else {
            self.front.insert(at, key);
        }
    }

    /// Links a key whose bucket is inside the window into its ring bucket.
    fn ring_insert(&mut self, (time, seq, slot): QueuedKey) {
        let i = (bucket_of(time) & BUCKET_MASK) as usize;
        if slot as usize >= self.nodes.len() {
            self.nodes.resize(slot as usize + 1, Node { time, seq, next: NIL });
        }
        self.nodes[slot as usize] = Node { time, seq, next: self.head[i] };
        self.head[i] = slot;
        self.occupancy[i / 64] |= 1 << (i % 64);
        self.in_ring += 1;
    }

    /// Hands every `front` key ahead of the wavefront back to the ring (see
    /// the module docs): `front` is sorted descending, so they are a prefix,
    /// and their buckets are inside the window because `drained` was.
    fn undrain(&mut self) {
        let wavefront = self.wavefront;
        let ahead = self.front.partition_point(|k| bucket_of(k.0) > wavefront);
        for i in 0..ahead {
            self.ring_insert(self.front[i]);
        }
        self.front.drain(..ahead);
        self.drained = wavefront;
    }

    /// The first occupied ring bucket after the drained one, as an absolute
    /// bucket number. Needs `in_ring > 0`.
    fn next_occupied(&self) -> u64 {
        let from = ((self.drained + 1) & BUCKET_MASK) as usize;
        let mut word = from / 64;
        // Ring keys sit after `drained` and less than a window after the
        // wavefront behind it: coming back around to the first word
        // unmasked finds only the far end of that range.
        let mut bits = self.occupancy[word] & (!0u64 << (from % 64));
        while bits == 0 {
            word = (word + 1) % self.occupancy.len();
            bits = self.occupancy[word];
        }
        let index = word * 64 + bits.trailing_zeros() as usize;
        self.drained + 1 + (index.wrapping_sub(from) as u64 & BUCKET_MASK)
    }

    /// With `front` empty and the ring occupied, drains the next occupied
    /// bucket into `front`, sorted.
    fn settle(&mut self) {
        if !self.front.is_empty() || self.in_ring == 0 {
            return;
        }
        self.drained = self.next_occupied();
        let i = (self.drained & BUCKET_MASK) as usize;
        let mut slot = std::mem::replace(&mut self.head[i], NIL);
        self.occupancy[i / 64] &= !(1 << (i % 64));
        while slot != NIL {
            let node = self.nodes[slot as usize];
            self.front.push((node.time, node.seq, slot));
            slot = node.next;
        }
        self.in_ring -= self.front.len();
        self.front.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// The key [`pop_due`](CalendarQueue::pop_due) would consider, left in
    /// place.
    pub(crate) fn peek(&mut self) -> Option<QueuedKey> {
        self.settle();
        let far = self.overflow.peek().map(|&Reverse(key)| key);
        match (self.front.last().copied(), far) {
            (Some(near), Some(far)) => Some(near.min(far)),
            (near, far) => near.or(far),
        }
    }

    /// Removes and returns the minimum key if it fires at or before
    /// `deadline`; a later minimum stays pending.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<QueuedKey> {
        let key = self.peek()?;
        if key.0 > deadline {
            return None;
        }
        if self.front.last() == Some(&key) {
            self.front.pop();
        } else {
            self.overflow.pop();
        }
        // The minimum is at or before every ring key, so the window can
        // slide up to it. When that was the heap's key running ahead of the
        // ring, what the popped event schedules lands in the ring, not back
        // in the heap.
        self.wavefront = self.wavefront.max(bucket_of(key.0));
        self.drained = self.drained.max(self.wavefront);
        Some(key)
    }

    #[cfg(test)]
    fn pop(&mut self) -> Option<QueuedKey> {
        self.pop_due(SimTime::from_micros(u64::MAX))
    }
}

/// An event's full ordering key: fire time plus the packed sequence.
pub(crate) type EventKey = (SimTime, u64);

/// The pending events: the calendar queue over their keys and the slab
/// that holds their payloads. The slot a queued key carries is an index
/// into this slab, and nothing outside this type sees it.
pub(crate) struct Pending<E> {
    queue: CalendarQueue,
    slots: Vec<Option<E>>,
    /// Slots whose event has been popped, reused before the slab grows.
    free: Vec<u32>,
}

impl<E> Pending<E> {
    pub(crate) fn new() -> Pending<E> {
        Pending { queue: CalendarQueue::new(), slots: Vec::new(), free: Vec::new() }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Pre-sizes the slab for `extra` more events than it can hold now.
    pub(crate) fn reserve(&mut self, extra: usize) {
        self.slots.reserve(extra.saturating_sub(self.free.len()));
    }

    pub(crate) fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        self.slots[slot as usize] = Some(event);
        self.queue.push((time, seq, slot));
    }

    /// The key [`pop_due`](Pending::pop_due) would consider.
    pub(crate) fn peek(&mut self) -> Option<EventKey> {
        self.queue.peek().map(|(time, seq, _)| (time, seq))
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`; a later one stays pending. Inlined: the loop calls it
    /// once per event.
    #[inline]
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(EventKey, E)> {
        let (time, seq, slot) = self.queue.pop_due(deadline)?;
        let event = self.slots[slot as usize].take().expect("a queued slot holds its event");
        self.free.push(slot);
        Some(((time, seq), event))
    }
}

/// The reference the calendar queue is diffed against: a plain binary
/// heap over the same keys.
#[cfg(test)]
#[derive(Default)]
struct HeapModel(BinaryHeap<Reverse<QueuedKey>>);

#[cfg(test)]
impl HeapModel {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, key: QueuedKey) {
        self.0.push(Reverse(key));
    }

    fn pop(&mut self) -> Option<QueuedKey> {
        self.0.pop().map(|Reverse(key)| key)
    }

    fn peek(&self) -> Option<QueuedKey> {
        self.0.peek().map(|&Reverse(key)| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, seq: u64) -> QueuedKey {
        (SimTime::from_micros(t), seq, seq as u32)
    }

    /// Drains both implementations loaded with the same keys and asserts
    /// identical pop sequences.
    fn assert_same_order(keys: &[QueuedKey]) {
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        for &k in keys {
            heap.push(k);
            cal.push(k);
        }
        assert_eq!(heap.len(), cal.len());
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_key_order_with_ties() {
        assert_same_order(&[key(50, 0), key(10, 1), key(10, 2), key(10, 3), key(0, 4)]);
    }

    #[test]
    fn far_future_overflow_migrates_back() {
        // Events far past the 16 ms window, pushed out of order, plus a
        // near cluster.
        let mut keys = vec![key(5, 0), key(1_000_000_000, 1), key(3, 2), key(500_000_000, 3)];
        keys.push(key(1_000_000_000, 4)); // tie in the deep overflow
        assert_same_order(&keys);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Simulation-shaped interleaving: pop one, schedule a few relative
        // to the popped time, repeat. Deterministic LCG for spread.
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let push_both = |heap: &mut HeapModel, cal: &mut CalendarQueue, t: u64, seq: &mut u64| {
            let k = (SimTime::from_micros(t), *seq, *seq as u32);
            *seq += 1;
            heap.push(k);
            cal.push(k);
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..64 {
            push_both(&mut heap, &mut cal, i * 1_000, &mut seq);
        }
        while let Some(a) = heap.pop() {
            let b = cal.pop();
            assert_eq!(Some(a), b);
            // Schedule 0–2 follow-ups at now + {0, 50 µs, …, 200 ms}.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if seq < 4_000 {
                for j in 0..(state % 3) {
                    let delay = [0u64, 50, 7_000, 200_000][((state >> (8 + j)) % 4) as usize];
                    let t = a.0.as_micros() + delay;
                    push_both(&mut heap, &mut cal, t, &mut seq);
                }
            }
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn push_behind_the_cursor_rewinds_the_wavefront() {
        // A key landing inside the window but behind the pop cursor (a
        // caller interleaving pops with earlier-time schedules) must still
        // pop in exact key order — and must not strand (the wavefront only
        // moves forward on its own).
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        for k in [key(10_000, 0), key(12_000, 1)] {
            heap.push(k);
            cal.push(k);
        }
        // Advance the cursor deep into the window...
        assert_eq!(heap.pop(), cal.pop());
        // ...then schedule before it (but after win_start).
        let behind = key(5_000, 2);
        heap.push(behind);
        cal.push(behind);
        assert_eq!(cal.pop(), Some(behind));
        assert_eq!(heap.pop(), Some(behind));
        assert_eq!(heap.pop(), cal.pop());
        assert_eq!(cal.pop(), None);
        assert_eq!(heap.pop(), None);
    }

    /// One ring's span in microseconds.
    const WINDOW_US: u64 = (N_BUCKETS as u64) << BUCKET_SHIFT;

    #[test]
    fn live_span_crosses_the_wrap_point_repeatedly() {
        // A standing population a third of a window deep, each pop
        // scheduling a follow-up 0.3–0.45 windows ahead: the live span
        // straddles bucket index 0 again and again over ~10 windows of
        // simulated time, and nothing ever needs the overflow heap.
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push_both = |heap: &mut HeapModel, cal: &mut CalendarQueue, t: u64| {
            let k = key(t, seq);
            seq += 1;
            heap.push(k);
            cal.push(k);
        };
        for i in 0..64 {
            push_both(&mut heap, &mut cal, i * WINDOW_US / 192);
        }
        let mut wraps = 0;
        let mut last_index = 0;
        for round in 0..2_000u64 {
            let a = heap.pop().expect("population is standing");
            assert_eq!(cal.pop(), Some(a));
            let index = bucket_of(a.0) & BUCKET_MASK;
            wraps += (index < last_index) as u32;
            last_index = index;
            let ahead = WINDOW_US * 3 / 10 + (round * 7919) % (WINDOW_US * 3 / 20);
            push_both(&mut heap, &mut cal, a.0.as_micros() + ahead);
            assert_eq!(cal.overflow.len(), 0, "a sliding window never overflows here");
            assert_eq!(cal.len(), heap.len());
        }
        assert!(wraps >= 8, "the span wrapped {wraps} times");
        while let Some(a) = heap.pop() {
            assert_eq!(cal.pop(), Some(a));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn overflow_minimum_pops_ahead_of_occupied_ring_buckets() {
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        let push_both = |heap: &mut HeapModel, cal: &mut CalendarQueue, k: QueuedKey| {
            heap.push(k);
            cal.push(k);
        };
        // Pushed from a wavefront at 0, a window and a bit ahead: overflow.
        push_both(&mut heap, &mut cal, key(WINDOW_US + 100, 0));
        push_both(&mut heap, &mut cal, key(200, 1));
        assert_eq!((cal.overflow.len(), cal.len()), (1, 2));
        // The wavefront moves to 200; now the same neighbourhood is in
        // reach of the ring, on both sides of the heap's key.
        assert_eq!(cal.pop(), heap.pop());
        push_both(&mut heap, &mut cal, key(WINDOW_US + 150, 2));
        push_both(&mut heap, &mut cal, key(WINDOW_US + 50, 3));
        push_both(&mut heap, &mut cal, key(WINDOW_US + 100, 4)); // ties the heap's time
        assert_eq!(cal.overflow.len(), 1, "the later pushes went to the ring");
        // Ring, then the heap's key — popped from the heap directly, with
        // two ring buckets still occupied — then ring, ring.
        for overflow_after in [1, 0, 0, 0] {
            assert_eq!(cal.peek(), heap.peek());
            assert_eq!(cal.pop(), heap.pop());
            assert_eq!(cal.overflow.len(), overflow_after);
        }
        assert_eq!((cal.pop(), heap.pop()), (None, None));
    }

    #[test]
    fn wavefront_follows_an_overflow_pop_across_gaps() {
        // Sparse traffic: bursts several windows apart. Every burst's first
        // key is an overflow push (the wavefront is still at the previous
        // burst); once it pops, the wavefront is there, so what that event
        // schedules a link latency ahead lands in the ring.
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push_both = |heap: &mut HeapModel, cal: &mut CalendarQueue, t: u64| {
            let k = key(t, seq);
            seq += 1;
            heap.push(k);
            cal.push(k);
        };
        let mut now = 0;
        for gap in [3, 1, 7, 2] {
            let burst = now + gap * WINDOW_US + 17;
            push_both(&mut heap, &mut cal, burst);
            assert_eq!(cal.overflow.len(), 1, "a gap of {gap} windows overflows");
            let head = heap.pop().expect("just pushed");
            assert_eq!(cal.pop(), Some(head));
            assert_eq!(cal.overflow.len(), 0);
            for hop in 1..=20 {
                push_both(&mut heap, &mut cal, burst + hop * 50);
                assert_eq!(cal.overflow.len(), 0, "near pushes after the gap use the ring");
            }
            while let Some(a) = heap.pop() {
                assert_eq!(cal.pop(), Some(a));
                now = a.0.as_micros();
            }
            assert_eq!(cal.pop(), None);
        }
    }

    #[test]
    fn a_batch_behind_a_drain_that_ran_ahead_uses_the_ring() {
        // The streaming loop's opening move: the only pending key is a
        // trigger 5 ms out, the loop peeks it (draining its bucket), and
        // the pump admits every source event up to that time — which then
        // schedule their own follow-ups. Only the batch's first key (the
        // new minimum) may join `front`; the second hands the trigger back
        // and everything after it is ring traffic.
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push_both = |heap: &mut HeapModel, cal: &mut CalendarQueue, t: u64| {
            let k = key(t, seq);
            seq += 1;
            heap.push(k);
            cal.push(k);
        };
        push_both(&mut heap, &mut cal, 5_000);
        assert_eq!(cal.peek(), heap.peek());
        assert_eq!((cal.front.len(), cal.in_ring), (1, 0), "the peek drained the trigger");
        for i in 0..200 {
            push_both(&mut heap, &mut cal, i * 25);
            assert!(cal.front.len() <= 2, "the batch must not pile into `front`");
        }
        // (The key at time 0 is in the wavefront's own bucket and stays.)
        assert_eq!((cal.front.len(), cal.in_ring), (1, 200));
        // Drain, each of the batch's keys scheduling a follow-up a hop
        // ahead: still ring traffic, never more than a bucket's worth in
        // `front`.
        let mut hw = 0;
        while let Some(a) = heap.pop() {
            assert_eq!(cal.pop(), Some(a));
            if a.1 <= 200 {
                push_both(&mut heap, &mut cal, a.0.as_micros() + 50);
            }
            hw = hw.max(cal.front.len());
        }
        assert!(hw <= 4, "`front` held {hw} keys");
        assert_eq!((cal.pop(), cal.overflow.len()), (None, 0));
    }

    #[test]
    fn past_time_push_still_pops_first() {
        // A push below the calendar's window start (a caller interleaving
        // pops with past-time schedules) must come out in exact key order,
        // like the heap's.
        let mut heap = HeapModel::default();
        let mut cal = CalendarQueue::new();
        for k in [key(400_000_000, 0), key(500_000_000, 1)] {
            heap.push(k);
            cal.push(k);
        }
        // Drain one each: the calendar re-anchors its window deep into the
        // run...
        assert_eq!(heap.pop(), cal.pop());
        // ...then a key far in that window's past arrives.
        let past = key(3, 2);
        heap.push(past);
        cal.push(past);
        assert_eq!(cal.pop(), Some(past));
        assert_eq!(heap.pop(), Some(past));
        assert_eq!(heap.pop(), cal.pop());
        assert_eq!(cal.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Times drawn from a mix of scales: dense near-zero clusters (tie
    /// city), link-latency scale, and far past the calendar window.
    fn arb_times() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            prop_oneof![0u64..8, 0u64..500, 0u64..200_000, 0u64..2_000_000_000],
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bulk load → full drain: calendar ≡ heap, including ties.
        #[test]
        fn calendar_pops_exactly_like_the_heap(times in arb_times()) {
            let mut heap = HeapModel::default();
            let mut cal = CalendarQueue::new();
            for (seq, &t) in times.iter().enumerate() {
                let k = (SimTime::from_micros(t), seq as u64, seq as u32);
                heap.push(k);
                cal.push(k);
            }
            loop {
                let (a, b) = (heap.pop(), cal.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Simulation-shaped interleaving: after each pop, push follow-ups
        /// at `now + delay` (the only pattern an engine ever produces).
        #[test]
        fn interleaved_schedules_agree(
            initial in arb_times(),
            delays in proptest::collection::vec(0u64..400_000, 0..300),
        ) {
            let mut heap = HeapModel::default();
            let mut cal = CalendarQueue::new();
            let mut seq = 0u64;
            for &t in &initial {
                let k = (SimTime::from_micros(t), seq, seq as u32);
                seq += 1;
                heap.push(k);
                cal.push(k);
            }
            let mut pending = delays.as_slice();
            loop {
                let (a, b) = (heap.pop(), cal.pop());
                prop_assert_eq!(a, b);
                let Some(now) = a else { break };
                if let Some((&d, rest)) = pending.split_first() {
                    pending = rest;
                    let k = (now.0 + SimTime::from_micros(d), seq, seq as u32);
                    seq += 1;
                    heap.push(k);
                    cal.push(k);
                }
            }
        }

        /// `peek` is the heap's minimum at every point of a random
        /// push/pop interleaving — keys inside the window, behind its start
        /// (clamped into bucket 0) and past its end (overflow) — and peeking
        /// never changes what pops: the peeked queue drains like the heap.
        #[test]
        fn peek_is_the_heap_minimum_and_leaves_pop_order_alone(
            ops in proptest::collection::vec(
                proptest::option::of(prop_oneof![
                    0u64..64,
                    0u64..20_000,
                    0u64..400_000,
                    0u64..2_000_000_000,
                ]),
                1..300,
            ),
        ) {
            let mut heap = HeapModel::default();
            let mut cal = CalendarQueue::new();
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    // Absolute times: pops re-anchor the window deep into
                    // the run, so later small times land behind it.
                    Some(t) => {
                        let k = (SimTime::from_micros(t), seq as u64, seq as u32);
                        heap.push(k);
                        cal.push(k);
                    }
                    None => prop_assert_eq!(cal.pop(), heap.pop()),
                }
                prop_assert_eq!(cal.peek(), heap.peek());
                prop_assert_eq!(cal.len(), heap.len());
            }
            loop {
                prop_assert_eq!(cal.peek(), heap.peek());
                let (a, b) = (heap.pop(), cal.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
