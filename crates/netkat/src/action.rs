//! Actions: the leaves of forwarding decision diagrams.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::field::{Field, Value};
use crate::packet::Packet;

/// A parallel field assignment (one output of a policy).
///
/// An action maps each field it mentions to the value written into it; the
/// identity action mentions no fields. Sequencing two actions composes them
/// with the later action overriding.
///
/// # Examples
///
/// ```
/// use netkat::{Action, Field, Packet};
/// let a = Action::id().set(Field::Port, 1).set(Field::Vlan, 7);
/// let pk = Packet::new().with(Field::Port, 2);
/// let out = a.apply(&pk);
/// assert_eq!(out.get(Field::Port), Some(1));
/// assert_eq!(out.get(Field::Vlan), Some(7));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Action {
    writes: BTreeMap<Field, Value>,
}

impl Action {
    /// The identity action (no writes).
    pub fn id() -> Action {
        Action::default()
    }

    /// A single assignment `field ← value`.
    pub fn assign(field: Field, value: Value) -> Action {
        Action::id().set(field, value)
    }

    /// Builder-style addition of a write (later writes override).
    pub fn set(mut self, field: Field, value: Value) -> Action {
        self.writes.insert(field, value);
        self
    }

    /// Returns the value this action writes into `field`, if any.
    #[inline]
    pub fn get(&self, field: Field) -> Option<Value> {
        self.writes.get(&field).copied()
    }

    /// Returns `true` if this is the identity action.
    #[inline]
    pub fn is_id(&self) -> bool {
        self.writes.is_empty()
    }

    /// Sequential composition: first `self`, then `later` (which overrides).
    pub fn then(&self, later: &Action) -> Action {
        let mut writes = self.writes.clone();
        for (&f, &v) in &later.writes {
            writes.insert(f, v);
        }
        Action { writes }
    }

    /// Applies the action to a packet, returning the rewritten packet.
    pub fn apply(&self, pk: &Packet) -> Packet {
        let mut out = pk.clone();
        for (&f, &v) in &self.writes {
            out.set(f, v);
        }
        out
    }

    /// Iterates over the writes in field order.
    #[inline]
    pub fn writes(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        self.writes.iter().map(|(&f, &v)| (f, v))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_id() {
            return write!(f, "id");
        }
        for (i, (field, value)) in self.writes().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{field}<-{value}")?;
        }
        Ok(())
    }
}

/// A set of actions: the full result of a policy on a packet.
///
/// The empty set is *drop*; a set with more than one action is *multicast*.
///
/// # Sharing
///
/// The set sits behind a reference count: `clone` is O(1) and allocates
/// nothing. [`extend`](Extend::extend) copies the set first if it is shared
/// (copy-on-write), so a clone never observes a mutation of its origin.
/// Equality, ordering and hashing are those of the actions, not of the
/// allocation.
///
/// # The port-only shape
///
/// A routing rule's set is one action that writes only [`Field::Port`]. The
/// set decides once, when it is built, whether it has that shape, and
/// [`port_only`](ActionSet::port_only) reads the answer without walking the
/// set or the action.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ActionSet {
    actions: Arc<Actions>,
}

/// A set's actions, and the port its one action writes when that is all it
/// writes: a function of the actions, so the derived comparisons are the
/// actions' own.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
struct Actions {
    set: BTreeSet<Action>,
    port_only: Option<Value>,
}

impl Actions {
    fn new(set: BTreeSet<Action>) -> Actions {
        let mut actions = Actions { set, port_only: None };
        actions.decide();
        actions
    }

    /// Decides the port-only shape of `set`.
    fn decide(&mut self) {
        self.port_only = match self.set.first() {
            Some(a) if self.set.len() == 1 && a.writes.len() == 1 => a.get(Field::Port),
            _ => None,
        };
    }
}

impl fmt::Debug for ActionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionSet").field("actions", &self.actions.set).finish()
    }
}

impl ActionSet {
    /// The drop action set (no outputs).
    pub fn drop() -> ActionSet {
        ActionSet::default()
    }

    /// The pass action set (a single identity action).
    pub fn pass() -> ActionSet {
        ActionSet::from_iter([Action::id()])
    }

    /// A singleton action set.
    pub fn single(action: Action) -> ActionSet {
        ActionSet::from_iter([action])
    }

    /// Returns `true` if this set drops (is empty).
    #[inline]
    pub fn is_drop(&self) -> bool {
        self.is_empty()
    }

    /// Returns `true` if this set is exactly `pass`.
    pub fn is_pass(&self) -> bool {
        self.len() == 1 && self.iter().next().is_some_and(Action::is_id)
    }

    /// Union of two action sets (multicast).
    pub fn union(&self, other: &ActionSet) -> ActionSet {
        let mut union = self.clone();
        union.extend(other.iter().cloned());
        union
    }

    /// Applies every action to `pk`, returning the set of output packets.
    pub fn apply(&self, pk: &Packet) -> BTreeSet<Packet> {
        self.iter().map(|a| a.apply(pk)).collect()
    }

    /// Applies every action to `pk`, appending the outputs to `out` in
    /// exactly the order [`apply`](ActionSet::apply)'s set iterates them
    /// (sorted, deduplicated) — but without materializing the set for the
    /// hot single-action case.
    pub fn apply_into(&self, pk: &Packet, out: &mut Vec<Packet>) {
        match self.len() {
            0 => {}
            1 => out.push(self.iter().next().expect("len 1").apply(pk)),
            _ => out.extend(self.apply(pk)),
        }
    }

    /// Number of actions.
    #[inline]
    pub fn len(&self) -> usize {
        self.actions.set.len()
    }

    /// Returns `true` if this set is empty (drops).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.actions.set.is_empty()
    }

    /// Iterates over the actions.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Action> + '_ {
        self.actions.set.iter()
    }

    /// The port this set's one action writes, if that action writes the
    /// port and nothing else: decided when the set was built.
    #[inline]
    pub fn port_only(&self) -> Option<Value> {
        self.actions.port_only
    }
}

impl FromIterator<Action> for ActionSet {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> ActionSet {
        ActionSet { actions: Arc::new(Actions::new(iter.into_iter().collect())) }
    }
}

impl Extend<Action> for ActionSet {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        // Nothing to add must not un-share the set.
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_some() {
            let actions = Arc::make_mut(&mut self.actions);
            actions.set.extend(iter);
            actions.decide();
        }
    }
}

impl fmt::Display for ActionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_drop() {
            return write!(f, "drop");
        }
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_overrides() {
        let a = Action::assign(Field::Port, 1);
        let b = Action::assign(Field::Port, 2).set(Field::Vlan, 9);
        let ab = a.then(&b);
        assert_eq!(ab.get(Field::Port), Some(2));
        assert_eq!(ab.get(Field::Vlan), Some(9));
        let ba = b.then(&a);
        assert_eq!(ba.get(Field::Port), Some(1));
    }

    #[test]
    fn identity_laws() {
        let a = Action::assign(Field::Vlan, 3);
        assert_eq!(Action::id().then(&a), a);
        assert_eq!(a.then(&Action::id()), a);
        assert!(Action::id().is_id());
        assert!(!a.is_id());
    }

    #[test]
    fn apply_preserves_unwritten_fields() {
        let pk = Packet::new().with(Field::IpDst, 4).with(Field::Port, 2);
        let out = Action::assign(Field::Port, 1).apply(&pk);
        assert_eq!(out.get(Field::IpDst), Some(4));
        assert_eq!(out.get(Field::Port), Some(1));
    }

    #[test]
    fn action_set_drop_and_pass() {
        let pk = Packet::new().with(Field::Port, 5);
        assert!(ActionSet::drop().apply(&pk).is_empty());
        assert_eq!(ActionSet::pass().apply(&pk), BTreeSet::from([pk.clone()]));
        assert!(ActionSet::drop().is_drop());
        assert!(ActionSet::pass().is_pass());
        assert!(!ActionSet::single(Action::assign(Field::Port, 1)).is_pass());
    }

    #[test]
    fn action_set_union_multicasts() {
        let s = ActionSet::single(Action::assign(Field::Port, 1))
            .union(&ActionSet::single(Action::assign(Field::Port, 2)));
        assert_eq!(s.len(), 2);
        let pk = Packet::new();
        assert_eq!(s.apply(&pk).len(), 2);
    }

    /// The port-only shape is decided when a set is built or extended, and
    /// only a single action writing nothing but the port has it.
    #[test]
    fn port_only_is_one_action_writing_only_the_port() {
        let to = |pt| Action::assign(Field::Port, pt);
        assert_eq!(ActionSet::single(to(3)).port_only(), Some(3));
        for other in [
            ActionSet::drop(),
            ActionSet::pass(),
            ActionSet::single(to(3).set(Field::Vlan, 7)),
            ActionSet::single(Action::assign(Field::Switch, 2)),
            ActionSet::single(to(1)).union(&ActionSet::single(to(2))),
        ] {
            assert_eq!(other.port_only(), None, "{other}");
        }
        let mut grown = ActionSet::single(to(1));
        let shared = grown.clone();
        grown.extend([to(2)]);
        assert_eq!((grown.port_only(), shared.port_only()), (None, Some(1)));
        let mut filled = ActionSet::drop();
        filled.extend([to(4)]);
        assert_eq!(filled, ActionSet::single(to(4)));
        assert_eq!(filled.port_only(), Some(4));
        assert_eq!(
            format!("{:?}", ActionSet::single(to(1))),
            "ActionSet { actions: {Action { writes: {Port: 1} }} }"
        );
    }

    #[test]
    fn display() {
        assert_eq!(ActionSet::drop().to_string(), "drop");
        assert_eq!(Action::id().to_string(), "id");
        let a = Action::assign(Field::Port, 1).set(Field::Vlan, 2);
        assert_eq!(a.to_string(), "pt<-1,vlan<-2");
    }
}
