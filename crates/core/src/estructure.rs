//! Event structures (Definitions 3 and 4), Winskel-style.
//!
//! Following Theorem 1.1.12 of Winskel's *Event Structures*, an event
//! structure is represented by its *family of configurations* `F`: the
//! consistency predicate is "contained in some member of `F`" (subset-closed
//! by construction) and the enabling relation is derived from `F`.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use crate::event::{Event, EventId, EventSet};

/// An event structure `(E, con, ⊢)` represented by a family of event-sets.
///
/// # Examples
///
/// ```
/// use edn_core::{Event, EventId, EventSet, EventStructure};
/// use netkat::{Loc, Pred};
/// let e0 = EventId::new(0);
/// let e1 = EventId::new(1);
/// let events = vec![
///     Event::new(e0, Pred::True, Loc::new(1, 1)),
///     Event::new(e1, Pred::True, Loc::new(1, 2)),
/// ];
/// // e1 only after e0; {e0, e1} consistent.
/// let family = [
///     EventSet::empty(),
///     EventSet::singleton(e0),
///     EventSet::from_iter([e0, e1]),
/// ];
/// let es = EventStructure::new(events, family);
/// assert!(es.enabled(EventSet::empty(), e0));
/// assert!(!es.enabled(EventSet::empty(), e1));
/// assert!(es.enabled(EventSet::singleton(e0), e1));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventStructure {
    events: Vec<Event>,
    /// Sorted and deduplicated, so equal families compare equal.
    family: Vec<EventSet>,
}

impl EventStructure {
    /// Creates an event structure from its events and family of event-sets.
    ///
    /// The empty set is always added to the family (it is a configuration of
    /// every event structure).
    ///
    /// # Panics
    ///
    /// Panics if `events` are not numbered `0..n` in order, or a family
    /// member mentions an unknown event.
    pub fn new<I: IntoIterator<Item = EventSet>>(events: Vec<Event>, family: I) -> EventStructure {
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.id.index(), i, "events must be numbered consecutively");
        }
        let mut fam: Vec<EventSet> = family.into_iter().chain([EventSet::empty()]).collect();
        fam.sort_unstable();
        fam.dedup();
        let universe: EventSet = events.iter().map(|e| e.id).collect();
        for s in &fam {
            assert!(s.is_subset(universe), "family member {s} mentions unknown events");
        }
        EventStructure { events, family: fam }
    }

    /// The events, indexed by [`EventId`].
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event with identifier `id`.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// The family of event-sets this structure was built from, with `∅`,
    /// sorted and without repeats.
    pub fn family(&self) -> &[EventSet] {
        &self.family
    }

    /// The consistency predicate: `con(X)` iff `X ⊆ Y` for some family
    /// member `Y`. Subset-closure (the axiom of Definition 3) is immediate.
    pub fn consistent(&self, x: EventSet) -> bool {
        self.family.iter().any(|&y| x.is_subset(y))
    }

    /// The enabling relation: `X ⊢ e` iff `X` is consistent and some
    /// `Y ∈ F` with `e ∈ Y` has `Y ∖ {e} ⊆ X`.
    ///
    /// Monotonicity in `X` (the axiom of Definition 3) is immediate.
    pub fn enabled(&self, x: EventSet, e: EventId) -> bool {
        self.consistent(x) && self.family.iter().any(|&y| y.contains(e) && y.remove(e).is_subset(x))
    }

    /// All *event-sets* of the structure (Definition 4): consistent sets
    /// reachable from `∅` via the enabling relation, found by BFS.
    pub fn event_sets(&self) -> Vec<EventSet> {
        let universe: EventSet = self.events.iter().map(|e| e.id).collect();
        let mut seen = BTreeSet::from([EventSet::empty()]);
        let mut queue = VecDeque::from([EventSet::empty()]);
        while let Some(x) = queue.pop_front() {
            for e in universe.difference(x).iter() {
                let next = x.insert(e);
                if !seen.contains(&next) && self.enabled(x, e) && self.consistent(next) {
                    seen.insert(next);
                    queue.push_back(next);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// All event sequences `e₀ e₁ ⋯` allowed by the structure (Section 2,
    /// "Correct Network Traces"), including the empty sequence. Each event
    /// occurs at most once, so no sequence is longer than the structure has
    /// events.
    ///
    /// Intended for the small structures of real programs; the output grows
    /// factorially with the width of the structure.
    pub fn allowed_sequences(&self) -> Vec<Vec<EventId>> {
        let universe: EventSet = self.events.iter().map(|e| e.id).collect();
        let mut out = vec![Vec::new()];
        let mut frontier: Vec<(EventSet, Vec<EventId>)> = vec![(EventSet::empty(), Vec::new())];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (x, seq) in &frontier {
                for e in universe.difference(*x).iter() {
                    let nx = x.insert(e);
                    if self.enabled(*x, e) && self.consistent(nx) {
                        let mut ns = seq.clone();
                        ns.push(e);
                        out.push(ns.clone());
                        next.push((nx, ns));
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Checks the axioms of Definition 3 on the materialized event-sets:
    /// `con` is subset-closed and `⊢` is monotone. Both hold by construction;
    /// this is a test oracle.
    pub fn verify_axioms(&self) -> bool {
        let sets = self.event_sets();
        for &x in &sets {
            for sub in x.subsets() {
                if self.consistent(x) && !self.consistent(sub) {
                    return false;
                }
            }
            for &y in &sets {
                if x.is_subset(y) {
                    for e in self.events.iter().map(|e| e.id) {
                        if self.enabled(x, e) && self.consistent(y) && !self.enabled(y, e) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for EventStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events:")?;
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        writeln!(f, "family:")?;
        for s in &self.family {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkat::{Loc, Pred};

    fn ev(i: usize, sw: u64) -> Event {
        Event::new(EventId::new(i), Pred::True, Loc::new(sw, 1))
    }

    /// Figure 3(a): two compatible events in any order.
    fn diamond() -> EventStructure {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        EventStructure::new(
            vec![ev(0, 1), ev(1, 2)],
            [EventSet::singleton(e0), EventSet::singleton(e1), EventSet::from_iter([e0, e1])],
        )
    }

    /// Figure 3(b): two incompatible events (only one may occur).
    fn conflict() -> EventStructure {
        EventStructure::new(
            vec![ev(0, 1), ev(1, 1)],
            [EventSet::singleton(EventId::new(0)), EventSet::singleton(EventId::new(1))],
        )
    }

    #[test]
    fn diamond_event_sets() {
        let es = diamond();
        assert_eq!(es.event_sets().len(), 4);
        assert!(es.consistent(EventSet::from_iter([EventId::new(0), EventId::new(1)])));
        assert!(es.verify_axioms());
    }

    #[test]
    fn conflict_event_sets() {
        let es = conflict();
        let sets = es.event_sets();
        assert_eq!(sets.len(), 3); // {}, {e0}, {e1}
        assert!(!es.consistent(EventSet::from_iter([EventId::new(0), EventId::new(1)])));
        assert!(es.verify_axioms());
    }

    #[test]
    fn causal_chain_enabling() {
        // e1 requires e0.
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let es = EventStructure::new(
            vec![ev(0, 1), ev(1, 2)],
            [EventSet::singleton(e0), EventSet::from_iter([e0, e1])],
        );
        assert!(es.enabled(EventSet::empty(), e0));
        assert!(!es.enabled(EventSet::empty(), e1));
        assert!(es.enabled(EventSet::singleton(e0), e1));
        // Monotone: a larger consistent set still enables e1.
        assert_eq!(es.event_sets().len(), 3);
    }

    #[test]
    fn allowed_sequences_of_diamond() {
        let es = diamond();
        let seqs = es.allowed_sequences();
        // ε, e0, e1, e0e1, e1e0.
        assert_eq!(seqs.len(), 5);
        assert!(seqs.contains(&vec![EventId::new(0), EventId::new(1)]));
        assert!(seqs.contains(&vec![EventId::new(1), EventId::new(0)]));
    }

    #[test]
    fn allowed_sequences_of_conflict_exclude_both() {
        let es = conflict();
        let seqs = es.allowed_sequences();
        assert_eq!(seqs.len(), 3); // ε, e0, e1
        assert!(!seqs.iter().any(|s| s.len() == 2));
    }

    #[test]
    fn enabling_requires_consistency_of_source() {
        let es = conflict();
        let both = EventSet::from_iter([EventId::new(0), EventId::new(1)]);
        assert!(!es.enabled(both, EventId::new(0)));
    }

    #[test]
    #[should_panic(expected = "numbered consecutively")]
    fn misnumbered_events_panic() {
        EventStructure::new(vec![ev(1, 1)], []);
    }

    #[test]
    #[should_panic(expected = "unknown events")]
    fn family_with_unknown_event_panics() {
        EventStructure::new(vec![ev(0, 1)], [EventSet::singleton(EventId::new(5))]);
    }
}
