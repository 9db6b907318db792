//! Property tests for the log-bucketed histogram: `Hist::merge` is
//! associative and commutative (a merged registry must not depend on
//! which contributor came first), and observation order is irrelevant
//! within one histogram.

use edn_obs::{Hist, Registry, Scope};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Hist {
    let mut h = Hist::new();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    /// `(a ∪ b) ∪ c == a ∪ (b ∪ c)` — bucketwise addition associates.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
        c in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// `a ∪ b == b ∪ a` — the fold order across cores cannot matter.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Splitting one observation stream across two histograms and merging
    /// equals observing it all in one — accumulate-then-fold loses
    /// nothing.
    #[test]
    fn split_observe_then_merge_equals_direct(
        values in proptest::collection::vec(any::<u64>(), 0..128),
        split in 0usize..128,
    ) {
        let split = split.min(values.len());
        let mut halves = hist_of(&values[..split]);
        halves.merge(&hist_of(&values[split..]));
        prop_assert_eq!(halves, hist_of(&values));
        }

    /// Count and saturating sum survive any merge.
    #[test]
    fn merge_preserves_count_and_sum(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.sum(), ha.sum().saturating_add(hb.sum()));
    }

    /// Registry-level merge is commutative for every value kind, and its
    /// JSON render is a pure function of the merged content.
    #[test]
    fn registry_merge_commutes_and_renders_deterministically(
        counters in proptest::collection::vec((0u8..4, 0u64..=u32::MAX as u64), 0..16),
        gauges in proptest::collection::vec((0u8..4, any::<u64>()), 0..16),
        samples in proptest::collection::vec((0u8..4, any::<u64>()), 0..32),
        split in 0usize..32,
    ) {
        let build = |range: std::ops::Range<usize>| {
            let mut r = Registry::new();
            for (k, v) in &counters[range.start.min(counters.len())..range.end.min(counters.len())] {
                r.counter_add(Scope::Sim, &format!("c{k}"), *v);
            }
            for (k, v) in &gauges[range.start.min(gauges.len())..range.end.min(gauges.len())] {
                r.gauge_max(Scope::Shard, &format!("g{k}"), *v);
            }
            for (k, v) in &samples[range.start.min(samples.len())..range.end.min(samples.len())] {
                r.hist_observe(Scope::Sim, &format!("h{k}"), *v);
            }
            r
        };
        let ra = build(0..split);
        let rb = build(split..32);
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        prop_assert_eq!(ab.render_json(), ba.render_json());
    }
}
