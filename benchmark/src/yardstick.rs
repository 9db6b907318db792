//! A frozen yardstick for the speed of the host, run between repetitions.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! 20–40 % over tens of seconds to minutes (`RESULTS.md`): the same binary
//! on the same inputs reads 0.87 s in one quarter of an hour and 1.35 s in
//! the next, whatever statistic of a run is taken. What does hold still is
//! the *ratio* between a repetition and a fixed piece of work done right
//! before and after it. This module is that fixed work: a miniature of the
//! simulator's inner loop — pop the earliest event off a binary heap, look
//! its key up in that switch's hash table, allocate, fill and free a
//! packet's worth of bytes, push the follow-up event — over a working set
//! of some 18 MB, so that whatever slows the simulator (a busy
//! sibling thread, a contended cache) slows it about as much. Of the three
//! variants tried side by side in the same runs (this one; a larger one
//! that writes through an 8 MB ring without allocating; one that keeps
//! 4,096 packets alive) this one tracked the four workloads best.
//!
//! It calls nothing outside `std` and must not be changed together with
//! anything it is used to judge: a change here moves every time the
//! benchmark reports.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

const TABLES: usize = 128;
const KEYS: u64 = 4096;
const EVENTS_PER_QUANTUM: usize = 40_000;

/// Seconds a quantum takes in the host's fast phases (measured on the
/// development container, 2026-09-30). It only fixes the scale: with it a
/// host-normalised second is a wall second of an undisturbed host.
pub const NOMINAL_QUANTUM_S: f64 = 0.011;

/// Share of a repetition's length spent on the yardstick after it.
const SHARE: f64 = 0.15;

pub struct Yardstick {
    tables: Vec<HashMap<u64, u64>>,
    heap: BinaryHeap<Reverse<(u64, u32, u64)>>,
    x: u64,
    acc: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x = 88_172_645_463_325_252u64;
        let tables =
            (0..TABLES).map(|_| (0..KEYS).map(|k| (k, xorshift(&mut x))).collect()).collect();
        let heap = (0..KEYS)
            .map(|i| Reverse((xorshift(&mut x) % 1000, (i % TABLES as u64) as u32, i)))
            .collect();
        Yardstick { tables, heap, x, acc: 0 }
    }

    /// One fixed piece of work; returns the wall seconds it took.
    pub fn quantum(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..EVENTS_PER_QUANTUM {
            let Reverse((time, table, key)) = self.heap.pop().expect("the heap never empties");
            let v = self.tables[table as usize][&key];
            let r = xorshift(&mut self.x);
            let packet = vec![v as u8; 64 + (v % 512) as usize];
            self.acc = self.acc.wrapping_add(packet[packet.len() / 2] as u64 + v);
            let next = ((v ^ r) % TABLES as u64) as u32;
            self.heap.push(Reverse((time + 1 + r % 1000, next, (v >> 8) % KEYS)));
        }
        std::hint::black_box(self.acc);
        started.elapsed().as_secs_f64()
    }

    /// How many quanta follow a repetition that lasts `rep_s` seconds.
    pub fn quanta_for(rep_s: f64) -> usize {
        ((SHARE * rep_s / NOMINAL_QUANTUM_S).round() as usize).clamp(2, 32)
    }

    /// The host's slowdown over `quanta` quanta run now: their time over
    /// their nominal time. 1 on an undisturbed host, 1.4 in a bad minute.
    pub fn slowdown(&mut self, quanta: usize) -> f64 {
        let took: f64 = (0..quanta).map(|_| self.quantum()).sum();
        took / (quanta as f64 * NOMINAL_QUANTUM_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed_and_the_scale_sane() {
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        for _ in 0..3 {
            assert!(a.quantum() > 0.0 && b.quantum() > 0.0);
            // Same work in the same order: the accumulators agree, and the
            // heap neither drains nor grows.
            assert_eq!((a.acc, a.heap.len()), (b.acc, KEYS as usize));
        }
        assert_eq!(Yardstick::quanta_for(0.0), 2);
        assert_eq!(Yardstick::quanta_for(1.1), 15);
        assert_eq!(Yardstick::quanta_for(100.0), 32);
        // A debug build on a loaded machine is slow, but not a thousandfold.
        let s = a.slowdown(2);
        assert!(s > 0.05 && s < 1000.0, "slowdown {s}");
    }
}
