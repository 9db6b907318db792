//! Events and event-sets.
//!
//! An event `(ϕ, sw, pt)` models the arrival of a packet satisfying `ϕ` at
//! location `sw:pt` (Section 2 of the paper). Event-sets are represented as
//! 64-bit bitsets, which bounds a network event structure at 64 events. The
//! paper's largest case study, the bandwidth cap, uses 12; a scenario
//! campaign uses one event per step, up to 63.

use std::fmt;

use netkat::{FieldReader, Loc, Pred};

/// Identifier of an event within a [`crate::EventStructure`].
///
/// Must be below 64 (enforced by [`EventId::new`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u8);

impl EventId {
    /// Maximum number of distinct events.
    pub const MAX_EVENTS: usize = 64;

    /// Creates an event identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 64`.
    pub fn new(id: usize) -> EventId {
        assert!(id < Self::MAX_EVENTS, "event id {id} out of range (max 63)");
        EventId(id as u8)
    }

    /// The numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An event `(ϕ, sw, pt)`: a packet satisfying `pred` arrives at `loc`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// The event's identifier (its index in the event structure).
    pub id: EventId,
    /// The predicate over packet header fields.
    pub pred: Pred,
    /// The location (switch and port) at which the event can occur.
    pub loc: Loc,
}

impl Event {
    /// Creates an event.
    pub fn new(id: EventId, pred: Pred, loc: Loc) -> Event {
        Event { id, pred, loc }
    }

    /// Returns `true` if a packet at `loc`, read through any
    /// [`FieldReader`], matches this event (`lp ⊨ e` in the paper): same
    /// location, predicate satisfied.
    pub fn matches<R: FieldReader>(&self, packet: &R, loc: Loc) -> bool {
        self.loc == loc && self.pred.eval_on(packet)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}=({}, {})", self.id, self.pred, self.loc)
    }
}

/// A set of events, represented as a bitset over [`EventId`]s.
///
/// # Examples
///
/// ```
/// use edn_core::{EventId, EventSet};
/// let a = EventSet::from_iter([EventId::new(0), EventId::new(3)]);
/// let b = EventSet::singleton(EventId::new(3));
/// assert!(b.is_subset(a));
/// assert_eq!(a.union(b), a);
/// assert_eq!(a.len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EventSet(u64);

impl EventSet {
    /// The empty event-set.
    pub const EMPTY: EventSet = EventSet(0);

    /// The empty event-set.
    pub fn empty() -> EventSet {
        EventSet::EMPTY
    }

    /// The singleton `{e}`.
    pub fn singleton(e: EventId) -> EventSet {
        EventSet(1 << e.0)
    }

    /// Returns `true` if `e ∈ self`.
    pub fn contains(self, e: EventId) -> bool {
        self.0 & (1 << e.0) != 0
    }

    /// Adds `e`, returning the extended set.
    pub fn insert(self, e: EventId) -> EventSet {
        EventSet(self.0 | (1 << e.0))
    }

    /// Removes `e`, returning the shrunk set.
    pub fn remove(self, e: EventId) -> EventSet {
        EventSet(self.0 & !(1 << e.0))
    }

    /// Set union.
    pub fn union(self, other: EventSet) -> EventSet {
        EventSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: EventSet) -> EventSet {
        EventSet(self.0 & other.0)
    }

    /// Set difference `self ∖ other`.
    pub fn difference(self, other: EventSet) -> EventSet {
        EventSet(self.0 & !other.0)
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset(self, other: EventSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns `true` if `self ⊂ other` strictly.
    pub fn is_proper_subset(self, other: EventSet) -> bool {
        self != other && self.is_subset(other)
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of events in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the members in increasing id order.
    ///
    /// Skips from set bit to set bit, so iterating the (common, hot-path)
    /// empty or near-empty set costs a few instructions rather than a
    /// 64-step scan.
    pub fn iter(self) -> impl Iterator<Item = EventId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(EventId(i))
        })
    }

    /// The raw bitset, for carrying in a packet's digest field.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a set from raw digest bits.
    pub fn from_bits(bits: u64) -> EventSet {
        EventSet(bits)
    }

    /// Enumerates all subsets of `self` (including itself and the empty
    /// set). Intended for small sets.
    pub fn subsets(self) -> Vec<EventSet> {
        let members: Vec<EventId> = self.iter().collect();
        let mut out = Vec::with_capacity(1 << members.len());
        for mask in 0u64..(1 << members.len()) {
            let mut s = EventSet::empty();
            for (i, &e) in members.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s = s.insert(e);
                }
            }
            out.push(s);
        }
        out
    }
}

impl FromIterator<EventId> for EventSet {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> EventSet {
        iter.into_iter().fold(EventSet::empty(), EventSet::insert)
    }
}

impl fmt::Display for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkat::{Field, Packet};

    #[test]
    fn event_matching_requires_location_and_predicate() {
        let e = Event::new(EventId::new(0), Pred::test(Field::IpDst, 4), Loc::new(4, 1));
        let pk = Packet::new().with(Field::IpDst, 4);
        assert!(e.matches(&pk, Loc::new(4, 1)));
        assert!(!e.matches(&pk, Loc::new(4, 2)));
        assert!(!e.matches(&Packet::new().with(Field::IpDst, 5), Loc::new(4, 1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn event_id_bounds_checked() {
        EventId::new(64);
    }

    #[test]
    fn set_algebra() {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let e5 = EventId::new(5);
        let s = EventSet::from_iter([e0, e1]);
        assert!(s.contains(e0) && s.contains(e1) && !s.contains(e5));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(e0), EventSet::singleton(e1));
        assert!(EventSet::singleton(e1).is_proper_subset(s));
        assert!(!s.is_proper_subset(s));
        assert_eq!(s.union(EventSet::singleton(e5)).len(), 3);
        assert_eq!(s.intersection(EventSet::singleton(e1)), EventSet::singleton(e1));
        assert_eq!(s.difference(EventSet::singleton(e1)), EventSet::singleton(e0));
    }

    #[test]
    fn bits_round_trip() {
        let s = EventSet::from_iter([EventId::new(3), EventId::new(63)]);
        assert_eq!(EventSet::from_bits(s.bits()), s);
    }

    #[test]
    fn subsets_enumeration() {
        let s = EventSet::from_iter([EventId::new(0), EventId::new(2)]);
        let subs = s.subsets();
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&EventSet::empty()));
        assert!(subs.contains(&s));
    }

    #[test]
    fn iter_is_sorted() {
        let s = EventSet::from_iter([EventId::new(7), EventId::new(2), EventId::new(40)]);
        let ids: Vec<usize> = s.iter().map(EventId::index).collect();
        assert_eq!(ids, vec![2, 7, 40]);
    }

    #[test]
    fn display() {
        let s = EventSet::from_iter([EventId::new(0), EventId::new(2)]);
        assert_eq!(s.to_string(), "{e0,e2}");
        assert_eq!(EventSet::empty().to_string(), "{}");
    }
}
