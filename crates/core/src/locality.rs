//! Locality restrictions for incompatible events (Section 2).
//!
//! A set of events is *inconsistent* when `con` rejects it, and
//! *minimally-inconsistent* when all proper subsets are consistent. An NES
//! is *locally-determined* when every minimally-inconsistent set lives
//! entirely on one switch — the clean condition that makes it efficiently
//! implementable (Lemma 1 shows what goes wrong otherwise).
//!
//! `con(X)` holds iff `X ⊆ Y` for some family member `Y`, so `X` is
//! inconsistent iff it meets every complement `E ∖ Y`: the
//! minimally-inconsistent sets are exactly the minimal transversals of the
//! hypergraph `{E ∖ Y : Y ∈ F}` (Berge, *Hypergraphs*, 1989; Eiter and
//! Gottlob, SIAM J. Comput. 1995), found with no bound on their size.

use crate::estructure::EventStructure;
use crate::event::EventSet;

/// The minimally-inconsistent sets of `es`, smallest first (ties in
/// [`EventSet`] order).
///
/// Berge's incremental algorithm adds the complements one at a time,
/// smallest first: a transversal that misses the new edge grows by each of
/// its events, and then only the inclusion-minimal ones stay. A chain of
/// configurations (every campaign) has `E` as a member, whose empty
/// complement nothing meets: no inconsistent set, after one sort of the
/// family. Otherwise the cost follows the transversal families built along
/// the way. It is exponential only because the answer can be (`k` maximal
/// members whose complements are disjoint pairs have `2^k` minimal
/// transversals), though on contrived hypergraphs an intermediate family
/// can outgrow the answer.
pub fn minimally_inconsistent(es: &EventStructure) -> Vec<EventSet> {
    let universe: EventSet = es.events().iter().map(|e| e.id).collect();
    // A non-maximal member's complement contains an earlier, smaller one,
    // which every transversal already meets: it costs no branching.
    let mut edges: Vec<EventSet> = es.family().map(|y| universe.difference(y)).collect();
    edges.sort_by_key(|edge| edge.len());
    let mut transversals = vec![EventSet::empty()];
    for edge in edges {
        let mut next = Vec::with_capacity(transversals.len());
        for &t in &transversals {
            if t.intersection(edge).is_empty() {
                next.extend(edge.iter().map(|e| t.insert(e)));
            } else {
                next.push(t);
            }
        }
        next.sort_by_key(|&s| (s.len(), s));
        transversals.clear();
        for s in next {
            // A proper subset is strictly smaller, so it is already kept.
            if !transversals.iter().any(|k| k.is_subset(s)) {
                transversals.push(s);
            }
        }
        if transversals.is_empty() {
            break; // an empty edge: every set is consistent
        }
    }
    transversals
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::config::Config;
    use crate::event::{Event, EventId};
    use crate::nes::NetworkEventStructure;
    use netkat::{Loc, Pred};
    use proptest::prelude::*;

    fn ev(i: usize, sw: u64) -> Event {
        Event::new(EventId::new(i), Pred::True, Loc::new(sw, 1))
    }

    /// The specification: every subset of size ≤ `max_size`, by increasing
    /// size, so minimality reduces to "no found set is a subset". At
    /// `max_size` = the number of events it is exact, at C(n, ≤ n) calls to
    /// `consistent`.
    fn spec_minimally_inconsistent(es: &EventStructure, max_size: usize) -> Vec<EventSet> {
        let ids: Vec<_> = es.events().iter().map(|e| e.id).collect();
        let mut found: Vec<EventSet> = Vec::new();
        for size in 1..=max_size.min(ids.len()) {
            for combo in combinations(ids.len(), size) {
                let set: EventSet = combo.iter().map(|&i| ids[i]).collect();
                if es.consistent(set) {
                    continue;
                }
                if found.iter().any(|f| f.is_subset(set)) {
                    continue; // not minimal
                }
                found.push(set);
            }
        }
        found
    }

    /// All `size`-element index combinations of `0..n`, lexicographic.
    fn combinations(n: usize, size: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = Vec::with_capacity(size);
        fn rec(
            n: usize,
            size: usize,
            start: usize,
            cur: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if cur.len() == size {
                out.push(cur.clone());
                return;
            }
            for i in start..n {
                cur.push(i);
                rec(n, size, i + 1, cur, out);
                cur.pop();
            }
        }
        rec(n, size, 0, &mut cur, &mut out);
        out
    }

    /// [`NetworkEventStructure::is_locally_determined`] on `es`, with an
    /// empty configuration at every event-set.
    fn locally_determined(es: &EventStructure) -> bool {
        let g = es.event_sets().into_iter().map(|x| (x, Config::new()));
        NetworkEventStructure::new(es.clone(), g)
            .expect("every event-set has a configuration")
            .is_locally_determined()
    }

    /// The paper's program P1: conflicting events at *different* switches
    /// (s2 and s4) — not locally determined.
    #[test]
    fn p1_is_not_locally_determined() {
        let es = EventStructure::new(
            vec![ev(0, 2), ev(1, 4)],
            [EventSet::singleton(EventId::new(0)), EventSet::singleton(EventId::new(1))],
        );
        let minimal = minimally_inconsistent(&es);
        assert_eq!(minimal, vec![EventSet::from_iter([EventId::new(0), EventId::new(1)])]);
        assert!(!locally_determined(&es));
    }

    /// The paper's program P2: conflicting events at the *same* switch (s2)
    /// — locally determined.
    #[test]
    fn p2_is_locally_determined() {
        let es = EventStructure::new(
            vec![ev(0, 2), ev(1, 2)],
            [EventSet::singleton(EventId::new(0)), EventSet::singleton(EventId::new(1))],
        );
        assert!(locally_determined(&es));
    }

    /// Compatible events are never inconsistent, so locality holds trivially.
    #[test]
    fn compatible_events_are_local() {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let es = EventStructure::new(
            vec![ev(0, 1), ev(1, 9)],
            [EventSet::singleton(e0), EventSet::singleton(e1), EventSet::from_iter([e0, e1])],
        );
        assert!(minimally_inconsistent(&es).is_empty());
        assert!(locally_determined(&es));
    }

    /// Minimality: with {e0,e1} inconsistent, the superset {e0,e1,e2} is
    /// inconsistent but not minimal.
    #[test]
    fn supersets_are_not_minimal() {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let e2 = EventId::new(2);
        let es = EventStructure::new(
            vec![ev(0, 1), ev(1, 1), ev(2, 3)],
            [
                EventSet::singleton(e0),
                EventSet::singleton(e1),
                EventSet::from_iter([e0, e2]),
                EventSet::from_iter([e1, e2]),
            ],
        );
        let minimal = minimally_inconsistent(&es);
        assert_eq!(minimal, vec![EventSet::from_iter([e0, e1])]);
        // e0/e1 conflict at the same switch 1, e2 elsewhere is irrelevant.
        assert!(locally_determined(&es));
    }

    /// A three-way conflict whose pairs are all fine: {a,b,c} minimal.
    #[test]
    fn three_way_minimal_conflict() {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let e2 = EventId::new(2);
        let es = EventStructure::new(
            vec![ev(0, 5), ev(1, 5), ev(2, 5)],
            [
                EventSet::from_iter([e0, e1]),
                EventSet::from_iter([e0, e2]),
                EventSet::from_iter([e1, e2]),
            ],
        );
        let minimal = minimally_inconsistent(&es);
        assert_eq!(minimal, vec![EventSet::from_iter([e0, e1, e2])]);
        assert!(locally_determined(&es));
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(5, 3).len(), 10);
        assert_eq!(combinations(3, 0).len(), 1);
    }

    /// Five events on two switches whose family is every 4-subset: each
    /// 4-set is consistent, so a search bounded at 4 finds nothing and
    /// reads local. The one minimal conflict is all five, across switches.
    #[test]
    fn a_five_event_conflict_across_two_switches_is_not_local() {
        let ids: Vec<EventId> = (0..5).map(EventId::new).collect();
        let all: EventSet = ids.iter().copied().collect();
        let es = EventStructure::new(
            (0..5).map(|i| ev(i, 1 + (i as u64 % 2))).collect(),
            ids.iter().map(|&e| all.remove(e)),
        );
        assert!(spec_minimally_inconsistent(&es, 4).is_empty());
        assert_eq!(minimally_inconsistent(&es), vec![all]);
        assert!(!locally_determined(&es));
    }

    /// A 63-event prefix chain — a campaign's shape — has no inconsistent
    /// set, found at once (a bound-4 search tries ≈ 637k subsets).
    #[test]
    fn a_63_event_chain_is_local_with_no_inconsistent_set() {
        let n = EventId::MAX_EVENTS - 1;
        let es = EventStructure::new(
            (0..n).map(|i| ev(i, 1 + i as u64 % 7)).collect(),
            (1..=n).map(|k| (0..k).map(EventId::new).collect()),
        );
        assert!(minimally_inconsistent(&es).is_empty());
        assert!(locally_determined(&es));
    }

    /// An event in no family member is inconsistent on its own: a minimal
    /// singleton, which sits on one switch.
    #[test]
    fn an_event_in_no_member_is_a_local_singleton() {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let es = EventStructure::new(vec![ev(0, 1), ev(1, 2)], [EventSet::singleton(e0)]);
        assert_eq!(minimally_inconsistent(&es), vec![EventSet::singleton(e1)]);
        assert!(locally_determined(&es));
    }

    /// Up to 10 events on up to 3 switches, and up to 8 family members,
    /// each one draw, or two intersected (sparse) or joined (dense).
    fn arb_structure() -> impl Strategy<Value = EventStructure> {
        (
            1usize..=10,
            proptest::collection::vec(1u64..=3, 10),
            proptest::collection::vec((0u64..1 << 10, 0u64..1 << 10, 0u8..3), 0..=8),
        )
            .prop_map(|(n, switches, members)| {
                let mask = (1u64 << n) - 1;
                EventStructure::new(
                    (0..n).map(|i| ev(i, switches[i])).collect(),
                    members.into_iter().map(|(a, b, shape)| {
                        let bits = [a, a & b, a | b][shape as usize];
                        EventSet::from_bits(bits & mask)
                    }),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The exact sets are the unbounded enumeration's, and the verdict
        // is "each of them on one switch".
        #[test]
        fn exact_equals_the_unbounded_enumeration(es in arb_structure()) {
            let mut spec = spec_minimally_inconsistent(&es, es.events().len());
            spec.sort();
            let mut exact = minimally_inconsistent(&es);
            exact.sort();
            prop_assert_eq!(&exact, &spec);
            let one_switch =
                |s: &EventSet| s.iter().map(|e| es.event(e).loc.sw).collect::<BTreeSet<_>>().len() <= 1;
            prop_assert_eq!(locally_determined(&es), spec.iter().all(one_switch));
        }
    }
}
