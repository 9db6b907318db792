//! The engine's future-event set: a calendar (bucket) queue.
//!
//! A discrete-event simulator's single hottest structure is its pending
//! event queue. The engine's original `BinaryHeap` pays `O(log n)` sift
//! work — and cache-hostile pointer chasing — on every push and pop. But
//! simulation events are not adversarial: they are dense in time (link
//! latencies and switch delays put most events within a few hundred
//! microseconds of *now*) and popped in nondecreasing order. A [calendar
//! queue](https://dl.acm.org/doi/10.1145/63039.63045) exploits that: time
//! is divided into fixed-width buckets covering a sliding window; a push
//! is a sorted insert into a (tiny) bucket, a pop takes the head of the
//! first occupied bucket. Events past the window land in an overflow heap
//! and migrate into the window when the wavefront reaches them.
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

/// Number of buckets in the calendar window. With [`BUCKET_WIDTH_US`] this
/// covers a 16 ms sliding window — hundreds of link latencies deep.
const N_BUCKETS: usize = 4096;

/// Width of one bucket in microseconds (a power of two, so the bucket of a
/// time is a shift). Narrow buckets keep the sorted-insert cost tiny even
/// under dense event bursts; the window re-anchors (amortized O(1) per
/// event) when a run's schedule outspans it.
const BUCKET_WIDTH_US: u64 = 4;

const BUCKET_SHIFT: u32 = BUCKET_WIDTH_US.trailing_zeros();

/// The calendar queue proper (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct CalendarQueue {
    /// Per-bucket pending keys. Buckets are append-only on push and sorted
    /// **descending** lazily, at first pop (`dirty` tracks which buckets
    /// need it), so the minimum pops off the back without paying a sorted
    /// insert per event.
    buckets: Vec<Vec<QueuedKey>>,
    /// One bit per bucket: contains unsorted appends?
    dirty: Vec<u64>,
    /// One bit per bucket: occupied? Lets the pop wavefront skip runs of
    /// empty buckets 64 at a time.
    occupancy: Vec<u64>,
    /// Microsecond time of the start of bucket 0 of the current window.
    win_start: u64,
    /// First bucket that may still be occupied (the pop wavefront).
    cursor: usize,
    /// Keys currently in the window's buckets.
    in_window: usize,
    /// Keys at or past the window's end, awaiting migration.
    overflow: BinaryHeap<Reverse<QueuedKey>>,
}

impl CalendarQueue {
    pub(crate) fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: vec![Vec::new(); N_BUCKETS],
            dirty: vec![0; N_BUCKETS / 64],
            occupancy: vec![0; N_BUCKETS / 64],
            win_start: 0,
            cursor: 0,
            in_window: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Pending events. The engine samples this at each dispatch for the
    /// queue-depth high-water metric.
    pub(crate) fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    fn win_end(&self) -> u64 {
        self.win_start + ((N_BUCKETS as u64) << BUCKET_SHIFT)
    }

    fn mark(&mut self, bucket: usize) {
        self.occupancy[bucket / 64] |= 1 << (bucket % 64);
    }

    fn clear(&mut self, bucket: usize) {
        self.occupancy[bucket / 64] &= !(1 << (bucket % 64));
    }

    /// Appends to a window bucket; ordering is restored lazily at pop.
    fn bucket_insert(&mut self, bucket: usize, key: QueuedKey) {
        let b = &mut self.buckets[bucket];
        // Appending below the current back would break pop order; mark for
        // a lazy re-sort (typical pushes land in untouched buckets, where
        // a single sort at first pop covers the whole bucket).
        if b.last().is_some_and(|&back| back < key) {
            self.dirty[bucket / 64] |= 1 << (bucket % 64);
        }
        b.push(key);
        self.in_window += 1;
        self.mark(bucket);
    }

    pub(crate) fn push(&mut self, key: QueuedKey) {
        let t = key.0.as_micros();
        if t >= self.win_end() {
            self.overflow.push(Reverse(key));
            return;
        }
        // The engine's event loop never schedules into the past, so keys
        // land at or ahead of the pop wavefront there (see `rebuild`). A
        // caller interleaving `Engine::run` with past-time injections can
        // land behind it, though: clamp pre-window keys into bucket 0 (the
        // full-key sort inside a bucket preserves exact pop order) and
        // rewind the wavefront so the next pop sees the key.
        let bucket =
            if t < self.win_start { 0 } else { ((t - self.win_start) >> BUCKET_SHIFT) as usize };
        self.cursor = self.cursor.min(bucket);
        self.bucket_insert(bucket, key);
    }

    /// Re-anchors the window at the overflow's minimum and migrates every
    /// overflow key that now fits. Only called with empty buckets, which is
    /// what makes the re-anchor safe: every pending key is in the overflow,
    /// all pending keys fire at or after `now`, so the new `win_start`
    /// (at/below the pending minimum) can never be above a future push
    /// time.
    fn rebuild(&mut self) {
        debug_assert!(self.in_window == 0 && !self.overflow.is_empty());
        let min = self.overflow.peek().expect("rebuild needs overflow").0;
        self.win_start = (min.0.as_micros() >> BUCKET_SHIFT) << BUCKET_SHIFT;
        self.cursor = 0;
        let end = self.win_end();
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if key.0.as_micros() >= end {
                break;
            }
            self.overflow.pop();
            let bucket = ((key.0.as_micros() - self.win_start) >> BUCKET_SHIFT) as usize;
            self.bucket_insert(bucket, key);
        }
    }

    /// The first occupied bucket at or after `from`, via the occupancy
    /// bitmap.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (mut word, bit) = (from / 64, from % 64);
        let mut bits = self.occupancy[word] & (!0u64 << bit);
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.occupancy.len() {
                return None;
            }
            bits = self.occupancy[word];
        }
    }

    /// Advances the wavefront to the first occupied bucket and restores its
    /// descending order if appends disturbed it, so the window's minimum
    /// sits at its back. Needs `in_window > 0`.
    fn front_bucket(&mut self) -> usize {
        let bucket = self.next_occupied(self.cursor).expect("in_window keys are marked");
        self.cursor = bucket;
        if self.dirty[bucket / 64] & (1 << (bucket % 64)) != 0 {
            self.buckets[bucket].sort_unstable_by(|a, b| b.cmp(a));
            self.dirty[bucket / 64] &= !(1 << (bucket % 64));
        }
        bucket
    }

    /// The key [`pop`](CalendarQueue::pop) would return, left in place.
    /// Window keys all fire before the window's end and overflow keys at
    /// or after it, so an empty window's minimum is the overflow's.
    pub(crate) fn peek(&mut self) -> Option<QueuedKey> {
        if self.in_window == 0 {
            return self.overflow.peek().map(|&Reverse(key)| key);
        }
        let bucket = self.front_bucket();
        self.buckets[bucket].last().copied()
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedKey> {
        if self.in_window == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.rebuild();
        }
        let bucket = self.front_bucket();
        let b = &mut self.buckets[bucket];
        let key = b.pop().expect("occupied buckets are non-empty");
        if b.is_empty() {
            self.clear(bucket);
        }
        self.in_window -= 1;
        Some(key)
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
