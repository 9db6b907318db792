//! Wall-clock sampling helpers: the one audited place the benches take
//! `Instant::now()`.
//!
//! Wall-clock numbers are inherently nondeterministic, so they live in
//! [`Scope::Wall`](crate::Scope::Wall) metrics and in bench columns that
//! the byte-identity CI checks never compare. Keeping the sampling here
//! (instead of ad-hoc `Instant::now()` pairs in every bin) makes that
//! segregation auditable with one grep.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Nanoseconds since [`start`](Stopwatch::start), saturated to `u64`
    /// — for sampled profiling of sub-microsecond phases.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Microseconds since [`start`](Stopwatch::start), saturated to `u64`.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_us();
        let b = sw.elapsed_us();
        assert!(b >= a);
    }
}
