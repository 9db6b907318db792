//! The happens-before relation on located packets (Definition 1).
//!
//! `≺ₙₜᵣ` is the least partial order that respects the total order induced
//! by the global sequence at each switch and within each packet trace. It is
//! computed once per trace as a transitive closure over the *immediate*
//! predecessor edges (latest earlier occurrence at the same switch, plus the
//! predecessor within each packet trace), which generate the same closure.

use crate::trace::NetworkTrace;

/// A growable bitset over trace indices.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    fn with_capacity(n: usize) -> IndexSet {
        IndexSet { words: vec![0; n.div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn union_with(&mut self, other: &IndexSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// The happens-before partial order `≺ₙₜᵣ` of a network trace.
#[derive(Clone, Debug)]
pub(crate) struct HappensBefore {
    /// `ancestors[i]` = the set of indices `j` with `lpⱼ ≺ lpᵢ`.
    ancestors: Vec<IndexSet>,
}

impl HappensBefore {
    /// Computes the relation for a network trace.
    pub fn of(ntr: &NetworkTrace) -> HappensBefore {
        let n = ntr.len();
        let mut ancestors: Vec<IndexSet> = (0..n).map(|_| IndexSet::with_capacity(n)).collect();

        // Immediate predecessor at the same switch.
        use std::collections::HashMap;
        let mut last_at_switch: HashMap<u64, usize> = HashMap::new();
        let mut switch_pred: Vec<Option<usize>> = vec![None; n];
        for (i, pred) in switch_pred.iter_mut().enumerate() {
            let sw = ntr.packet(i).loc.sw;
            *pred = last_at_switch.insert(sw, i);
        }

        // Immediate predecessor within each packet trace.
        let mut trace_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in ntr.traces() {
            for w in t.windows(2) {
                trace_preds[w[1]].push(w[0]);
            }
        }
        // Out-of-band causal edges (controller messages).
        for &(from, to) in ntr.extra_edges() {
            trace_preds[to].push(from);
        }

        for i in 0..n {
            let mut preds: Vec<usize> = trace_preds[i].clone();
            if let Some(p) = switch_pred[i] {
                preds.push(p);
            }
            preds.sort_unstable();
            preds.dedup();
            // Indices only point backwards, so ancestors of predecessors are
            // already complete.
            let mut acc = IndexSet::with_capacity(n);
            for p in preds {
                acc.insert(p);
                let (left, right) = ancestors.split_at_mut(i);
                let _ = right;
                acc.union_with(&left[p]);
            }
            ancestors[i] = acc;
        }

        HappensBefore { ancestors }
    }

    /// Returns `true` if `lp_a ≺ lp_b` (strictly).
    pub fn before(&self, a: usize, b: usize) -> bool {
        self.ancestors.get(b).is_some_and(|s| s.contains(a))
    }

    /// Returns `true` if every index of `indices` happens strictly before `k`.
    pub fn all_before<I: IntoIterator<Item = usize>>(&self, indices: I, k: usize) -> bool {
        indices.into_iter().all(|i| self.before(i, k))
    }

    /// Returns `true` if `k` happens strictly before every index of `indices`.
    pub fn all_after<I: IntoIterator<Item = usize>>(&self, indices: I, k: usize) -> bool {
        indices.into_iter().all(|i| self.before(k, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use netkat::{Loc, Packet};

    /// Two packets through disjoint switches are unordered; packets through a
    /// shared switch are ordered by the global sequence.
    #[test]
    fn same_switch_orders_unrelated_packets() {
        let mut b = TraceBuilder::new();
        // Packet A: host 100 -> switch 1 -> switch 4
        let a0 = b.push(Packet::new(), Loc::new(100, 0), None);
        let a1 = b.push(Packet::new(), Loc::new(1, 1), Some(a0));
        let a2 = b.push(Packet::new(), Loc::new(4, 1), Some(a1));
        // Packet B: host 101 -> switch 4 (processed after A's visit)
        let b0 = b.push(Packet::new(), Loc::new(101, 0), None);
        let b1 = b.push(Packet::new(), Loc::new(4, 2), Some(b0));
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        // a2 and b1 are both at switch 4: ordered by position.
        assert!(hb.before(a2, b1));
        assert!(!hb.before(b1, a2));
        // a1 (switch 1) is unrelated to b0 (host 101)...
        assert!(!hb.before(a1, b0));
        assert!(!hb.before(b0, a1));
        // ...but a1 ≺ b1 transitively through switch 4? No: a1 ≺ a2 ≺ b1.
        assert!(hb.before(a1, b1));
    }

    /// One packet's hops are ordered along its trace, strictly.
    #[test]
    fn a_packet_trace_orders_its_own_hops() {
        let mut b = TraceBuilder::new();
        let h = b.push(Packet::new(), Loc::new(100, 0), None);
        let s1 = b.push(Packet::new(), Loc::new(1, 1), Some(h));
        let s2 = b.push(Packet::new(), Loc::new(2, 1), Some(s1));
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        assert!(hb.before(h, s2)); // same packet trace
        assert!(!hb.before(s2, s1)); // order is strict and antisymmetric
    }

    #[test]
    fn strictness_and_antisymmetry() {
        let mut b = TraceBuilder::new();
        let x = b.push(Packet::new(), Loc::new(1, 1), None);
        let y = b.push(Packet::new(), Loc::new(1, 2), Some(x));
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        assert!(!hb.before(x, x));
        assert!(hb.before(x, y));
        assert!(!hb.before(y, x));
    }

    #[test]
    fn transitivity_across_traces_via_switch() {
        let mut b = TraceBuilder::new();
        // trace 1 visits switch 2 then stops; trace 2 starts at switch 2
        // later and moves to switch 3.
        let p0 = b.push(Packet::new(), Loc::new(2, 1), None);
        let q0 = b.push(Packet::new(), Loc::new(2, 2), None);
        let q1 = b.push(Packet::new(), Loc::new(3, 1), Some(q0));
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        // p0 ≺ q0 (same switch), q0 ≺ q1 (same trace) ⇒ p0 ≺ q1.
        assert!(hb.before(p0, q1));
    }

    #[test]
    fn all_before_and_all_after() {
        let mut b = TraceBuilder::new();
        let x = b.push(Packet::new(), Loc::new(1, 1), None);
        let y = b.push(Packet::new(), Loc::new(1, 2), Some(x));
        let z = b.push(Packet::new(), Loc::new(9, 1), None);
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        assert!(hb.all_before([x], y));
        assert!(hb.all_after([y], x));
        assert!(!hb.all_before([x, z], y)); // z unordered w.r.t. y
    }

    /// Partial-order sanity on a random-ish braid of traces.
    #[test]
    fn closure_is_a_partial_order() {
        let mut b = TraceBuilder::new();
        let mut idx = Vec::new();
        let mut prev: Option<usize> = None;
        for i in 0..10u64 {
            let cur = b.push(Packet::new(), Loc::new(i % 3, 0), prev.filter(|_| i % 4 != 0));
            prev = Some(cur);
            idx.push(cur);
        }
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        let n = ntr.len();
        for i in 0..n {
            assert!(!hb.before(i, i), "irreflexive");
            for j in 0..n {
                if hb.before(i, j) {
                    assert!(!hb.before(j, i), "antisymmetric");
                    for k in 0..n {
                        if hb.before(j, k) {
                            assert!(hb.before(i, k), "transitive");
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod controller_causality_tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use netkat::{Loc, Packet};

    /// Out-of-band causal edges (controller messages) extend the order: a
    /// trigger at switch 1 happens-before later processing at switch 9 even
    /// though no packet ever travelled between them.
    #[test]
    fn extra_edges_extend_the_order() {
        let mut b = TraceBuilder::new();
        let trigger = b.push(Packet::new(), Loc::new(1, 1), None);
        let far = b.push(Packet::new(), Loc::new(9, 1), None);
        let later_far = b.push(Packet::new(), Loc::new(9, 2), None);
        // Without the edge, switch 1 and switch 9 are causally unrelated.
        let ntr = b.clone().build();
        let hb = HappensBefore::of(&ntr);
        assert!(!hb.before(trigger, far));
        assert!(!hb.before(trigger, later_far));
        // With a controller push between trigger and `later_far`:
        b.add_causal_edge(trigger, later_far);
        let ntr = b.build();
        let hb = HappensBefore::of(&ntr);
        assert!(hb.before(trigger, later_far), "controller edge orders them");
        // ...and the same-switch chain extends it: `far` precedes
        // `later_far` at switch 9, but the controller edge does not reach
        // backwards.
        assert!(hb.before(far, later_far));
        assert!(!hb.before(trigger, far));
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_causal_edges_are_rejected() {
        let mut b = TraceBuilder::new();
        let first = b.push(Packet::new(), Loc::new(1, 1), None);
        let second = b.push(Packet::new(), Loc::new(2, 1), None);
        b.add_causal_edge(second, first);
    }
}
