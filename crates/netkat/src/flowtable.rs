//! Prioritized match/action flow tables.
//!
//! A flow table is the compilation target: an ordered list of rules, each
//! with an exact-match pattern over a subset of fields and a set of actions.
//! The first matching rule wins, exactly like an OpenFlow table with
//! priorities.
//!
//! Tables are immutable values that share what they can: rule bodies
//! ([`Match`], [`ActionSet`]) and the rule list itself sit behind reference
//! counts, and a [`FlowTable`] is a *prefix view* — a list and a length —
//! so "this table is that one plus some lower-priority rules", the shape of
//! an update that only adds rules, costs one reference count and one
//! integer ([`FlowTable::prefix`], [`FlowTable::is_prefix_of`]). Nothing is
//! diffed or patched to get there; an edit still writes a fresh list.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::action::ActionSet;
use crate::fdd::{FddBuilder, NodeId};
use crate::field::{Field, Value};
use crate::packet::{FieldReader, Packet};

/// An exact-match pattern: a conjunction of `field = value` constraints.
///
/// Fields not mentioned are wildcards.
///
/// # Sharing
///
/// The constraint map sits behind a reference count: `clone` is O(1) and
/// allocates nothing, so the same pattern installed under many
/// configurations is one body. [`with`](Match::with) and
/// [`add`](Match::add) copy the map first if it is shared (copy-on-write),
/// so a clone never observes a mutation of its origin. Equality, ordering
/// and hashing are those of the constraints, not of the allocation.
///
/// # Examples
///
/// ```
/// use netkat::{Field, Match, Packet};
/// let m = Match::new().with(Field::Port, 2);
/// assert!(m.matches(&Packet::new().with(Field::Port, 2)));
/// assert!(!m.matches(&Packet::new().with(Field::Port, 1)));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Match {
    tests: Arc<BTreeMap<Field, Value>>,
}

impl Match {
    /// The all-wildcard match.
    pub fn new() -> Match {
        Match::default()
    }

    /// Builder-style constraint addition.
    pub fn with(mut self, field: Field, value: Value) -> Match {
        Arc::make_mut(&mut self.tests).insert(field, value);
        self
    }

    /// Adds a constraint in place. Returns `false` (leaving the match
    /// unchanged) if it contradicts an existing constraint.
    pub fn add(&mut self, field: Field, value: Value) -> bool {
        match self.tests.get(&field) {
            Some(&v) => v == value,
            None => {
                Arc::make_mut(&mut self.tests).insert(field, value);
                true
            }
        }
    }

    /// Returns the constraint on `field`, if any.
    pub fn get(&self, field: Field) -> Option<Value> {
        self.tests.get(&field).copied()
    }

    /// Returns `true` if the packet satisfies every constraint.
    pub fn matches(&self, pk: &Packet) -> bool {
        self.matches_on(pk)
    }

    /// [`matches`](Match::matches) against any field source — e.g. the
    /// simulator's zero-copy [`LocatedView`](crate::LocatedView).
    pub fn matches_on<R: FieldReader>(&self, pk: &R) -> bool {
        self.tests.iter().all(|(&f, &v)| pk.read(f) == Some(v))
    }

    /// Number of constrained fields.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Returns `true` if this is the all-wildcard match.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Iterates over the constraints in field order.
    pub fn iter(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        self.tests.iter().map(|(&f, &v)| (f, v))
    }
}

impl FromIterator<(Field, Value)> for Match {
    fn from_iter<I: IntoIterator<Item = (Field, Value)>>(iter: I) -> Match {
        Match { tests: Arc::new(iter.into_iter().collect()) }
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "*");
        }
        for (i, (field, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{field}={value}")?;
        }
        Ok(())
    }
}

/// One prioritized rule: a match pattern and the actions applied on a hit.
///
/// Both halves are shared bodies (see [`Match`] and [`ActionSet`]):
/// cloning a rule is two reference-count increments, which is what lets a
/// campaign's configurations, the deployed index and the checker pass the
/// same rule along instead of rebuilding it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rule {
    /// The match pattern.
    pub pattern: Match,
    /// The actions (empty set = drop).
    pub actions: ActionSet,
}

impl Rule {
    /// Creates a rule.
    pub fn new(pattern: Match, actions: ActionSet) -> Rule {
        Rule { pattern, actions }
    }

    /// A catch-all drop rule.
    pub fn drop_all() -> Rule {
        Rule::new(Match::new(), ActionSet::drop())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.pattern, self.actions)
    }
}

/// An ordered flow table; the first matching rule wins.
///
/// # Sharing
///
/// A table is a *view*: a reference-counted rule list and the number of
/// its rules the table can see. `clone` and [`prefix`](FlowTable::prefix)
/// are O(1) and allocate nothing, and [`compile`](FlowTable::compile)
/// indexes the same list instead of copying it — so a table installed under
/// a configuration, cloned with its NES and deployed on a plane is one list,
/// and a campaign whose step *t* only appends rules to step *t − 1*'s table
/// holds both as two lengths over one list. Every reader goes through the
/// visible rules only: nothing past the view's length is observable, by
/// `==`, iteration, lookup or any edit. [`push`](FlowTable::push) and
/// [`compact`](FlowTable::compact) write the visible rules to a fresh list
/// (copy-on-write: a slice cannot grow in place, so each such edit is
/// O(len) — build tables with [`from_rules`](FlowTable::from_rules)); a
/// clone never observes an edit of its origin. Equality is that of the
/// visible rules, in order.
///
/// # Examples
///
/// ```
/// use netkat::{ActionSet, Field, FlowTable, Match, Packet, Rule};
/// let table = FlowTable::from_rules([
///     Rule::new(Match::new().with(Field::Port, 2), ActionSet::pass()),
///     Rule::drop_all(),
/// ]);
/// assert_eq!(table.apply(&Packet::new().with(Field::Port, 2)).len(), 1);
/// assert!(table.apply(&Packet::new().with(Field::Port, 9)).is_empty());
/// ```
#[derive(Clone, Default)]
pub struct FlowTable {
    list: Arc<[Rule]>,
    /// How many of `list`'s rules this table holds; the rest belong to
    /// longer views of the same list.
    len: usize,
}

/// The visible rules only, so equal tables print alike whatever list they
/// are views of.
impl fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowTable").field("rules", &self.rules()).finish()
    }
}

/// By value over the visible rules, with the shortcut `Arc<[T]>`'s own `==`
/// does not take (its pointer comparison is specialized for sized `T: Eq`
/// only): a table handed along from `g(X)` is the same allocation, so the
/// common "is this the previous tag's table?" question is two compares.
impl PartialEq for FlowTable {
    fn eq(&self, other: &FlowTable) -> bool {
        self.len == other.len && self.is_prefix_of(other)
    }
}

impl Eq for FlowTable {}

impl FlowTable {
    /// The empty table (drops everything: no rule matches).
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Builds a table from rules in priority order (highest first).
    pub fn from_rules<I: IntoIterator<Item = Rule>>(rules: I) -> FlowTable {
        let list: Arc<[Rule]> = rules.into_iter().collect();
        FlowTable { len: list.len(), list }
    }

    /// The rules this table holds — the one door every reader goes through.
    fn rules(&self) -> &[Rule] {
        &self.list[..self.len]
    }

    /// The table of this one's first `len` rules, on the same list: O(1),
    /// no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`len`](FlowTable::len).
    ///
    /// # Examples
    ///
    /// ```
    /// use netkat::{ActionSet, Field, FlowTable, Match, Rule};
    /// let rule = |h| Rule::new(Match::new().with(Field::IpDst, h), ActionSet::pass());
    /// let whole = FlowTable::from_rules((0..4).map(rule));
    /// let first = whole.prefix(3);
    /// assert_eq!(first, FlowTable::from_rules((0..3).map(rule)));
    /// assert!(first.is_prefix_of(&whole) && !whole.is_prefix_of(&first));
    /// ```
    pub fn prefix(&self, len: usize) -> FlowTable {
        assert!(len <= self.len, "prefix of {len} rules from a table of {}", self.len);
        FlowTable { list: Arc::clone(&self.list), len }
    }

    /// Returns `true` if `other` starts with this table's rules — one
    /// pointer compare when the two are views of one list, by value
    /// otherwise.
    pub fn is_prefix_of(&self, other: &FlowTable) -> bool {
        self.len <= other.len
            && (Arc::ptr_eq(&self.list, &other.list) || self.rules() == &other.rules()[..self.len])
    }

    /// Extracts a table from an FDD.
    ///
    /// Each root-to-leaf path yields one rule carrying the path's *positive*
    /// tests; priority order makes the negative tests implicit (a packet
    /// reaching rule `i` has already failed the higher-priority matches).
    /// This is correct because every FDD subdiagram is total, so the block of
    /// rules emitted for a true branch fully covers the matched subspace.
    pub fn from_fdd(builder: &FddBuilder, d: NodeId) -> FlowTable {
        FlowTable::from_rules(
            builder
                .paths(d)
                .into_iter()
                .map(|p| Rule::new(p.positive.into_iter().collect(), p.actions)),
        )
    }

    /// Returns the first matching rule for `pk`.
    pub fn lookup(&self, pk: &Packet) -> Option<&Rule> {
        self.lookup_on(pk)
    }

    /// [`lookup`](FlowTable::lookup) against any field source — e.g. the
    /// simulator's zero-copy [`LocatedView`](crate::LocatedView).
    pub fn lookup_on<R: FieldReader>(&self, pk: &R) -> Option<&Rule> {
        self.rules().iter().find(|r| r.pattern.matches_on(pk))
    }

    /// Returns the priority index of the first matching rule for `pk`.
    ///
    /// This linear scan is the *reference* lookup semantics; the indexed
    /// [`CompiledTable`](crate::CompiledTable) must agree with it on every
    /// packet (enforced by differential property tests).
    pub fn lookup_index(&self, pk: &Packet) -> Option<usize> {
        self.rules().iter().position(|r| r.pattern.matches(pk))
    }

    /// The rule at priority index `i` (as returned by
    /// [`lookup_index`](FlowTable::lookup_index)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rule(&self, i: usize) -> &Rule {
        &self.rules()[i]
    }

    /// Applies the table: the output packets of the first matching rule, or
    /// the empty set if no rule matches.
    pub fn apply(&self, pk: &Packet) -> BTreeSet<Packet> {
        match self.lookup(pk) {
            Some(rule) => rule.actions.apply(pk),
            None => BTreeSet::new(),
        }
    }

    /// Applies the table, appending the outputs to `out` in the same order
    /// as [`apply`](FlowTable::apply)'s set iteration — the allocation-lean
    /// form simulator data planes use.
    pub fn apply_into(&self, pk: &Packet, out: &mut Vec<Packet>) {
        if let Some(rule) = self.lookup(pk) {
            rule.actions.apply_into(pk, out);
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the rules in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules().iter()
    }

    /// The shared rule list and how much of it this table holds — what
    /// [`compile`](FlowTable::compile) indexes.
    pub(crate) fn shared_rules(&self) -> (&Arc<[Rule]>, usize) {
        (&self.list, self.len)
    }

    /// Appends a rule at the lowest priority.
    pub fn push(&mut self, rule: Rule) {
        *self = FlowTable::from_rules(self.rules().iter().cloned().chain([rule]));
    }

    /// Removes trailing drop rules and rules identical to their predecessor;
    /// returns the number removed. (An absent rule already drops, so
    /// trailing drops are pure overhead.)
    pub fn compact(&mut self) -> usize {
        let mut rules = self.rules().to_vec();
        while rules.last().is_some_and(|r| r.actions.is_drop() && r.pattern.is_empty()) {
            rules.pop();
        }
        rules.dedup();
        let removed = self.len - rules.len();
        if removed > 0 {
            *self = FlowTable::from_rules(rules);
        }
        removed
    }
}

/// Splits `tables` into *prefix chains*, in order: a table joins the chain at
/// hand if it is a prefix of the chain's longest member or extends it, and
/// opens the next chain otherwise. Yields each chain's longest table and the
/// range of its members in `tables` — member `i` is the first
/// `tables[i].len()` rules of the longest. Only the chain at hand is compared
/// against, so a family of unrelated tables costs one prefix test per table,
/// and a step that only appends rules (or leaves a switch alone) one pointer
/// compare ([`FlowTable::is_prefix_of`]).
pub fn prefix_chains<'a, 't>(
    tables: &'t [&'a FlowTable],
) -> impl Iterator<Item = (&'a FlowTable, Range<usize>)> + 't {
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at;
        let mut longest = *tables.get(start)?;
        at += 1;
        while let Some(&table) = tables.get(at) {
            if !table.is_prefix_of(longest) {
                if !longest.is_prefix_of(table) {
                    break;
                }
                longest = table;
            }
            at += 1;
        }
        Some((longest, start..at))
    })
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules().iter().enumerate() {
            writeln!(f, "[{i:3}] {r}")?;
        }
        Ok(())
    }
}

impl IntoIterator for FlowTable {
    type Item = Rule;
    type IntoIter = std::vec::IntoIter<Rule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules().to_vec().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::pred::Pred;

    #[test]
    fn match_add_detects_conflicts() {
        let mut m = Match::new();
        assert!(m.add(Field::Port, 1));
        assert!(m.add(Field::Port, 1));
        assert!(!m.add(Field::Port, 2));
        assert_eq!(m.get(Field::Port), Some(1));
    }

    #[test]
    fn first_match_wins() {
        let t = FlowTable::from_rules([
            Rule::new(
                Match::new().with(Field::Port, 1),
                ActionSet::single(Action::assign(Field::Vlan, 10)),
            ),
            Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Vlan, 20))),
        ]);
        let a = t.apply(&Packet::new().with(Field::Port, 1));
        assert_eq!(a.iter().next().unwrap().get(Field::Vlan), Some(10));
        let b = t.apply(&Packet::new().with(Field::Port, 9));
        assert_eq!(b.iter().next().unwrap().get(Field::Vlan), Some(20));
    }

    #[test]
    fn from_fdd_agrees_with_fdd_eval() {
        let mut b = FddBuilder::new();
        let p = Pred::port(1).or(Pred::test(Field::Vlan, 2).not());
        let d = b.from_pred(&p);
        let t = FlowTable::from_fdd(&b, d);
        for pk in [
            Packet::new().with(Field::Port, 1).with(Field::Vlan, 2),
            Packet::new().with(Field::Port, 0).with(Field::Vlan, 2),
            Packet::new().with(Field::Port, 0).with(Field::Vlan, 0),
            Packet::new(),
        ] {
            assert_eq!(t.apply(&pk), b.eval(d, &pk), "packet {pk}");
        }
    }

    #[test]
    fn compact_removes_trailing_wildcard_drops() {
        let mut t = FlowTable::from_rules([
            Rule::new(Match::new().with(Field::Port, 1), ActionSet::pass()),
            Rule::drop_all(),
        ]);
        assert_eq!(t.compact(), 1);
        assert_eq!(t.len(), 1);
        // Semantics unchanged: unmatched packets still drop.
        assert!(t.apply(&Packet::new().with(Field::Port, 2)).is_empty());
    }

    #[test]
    fn empty_table_drops() {
        assert!(FlowTable::new().apply(&Packet::new()).is_empty());
        assert_eq!(FlowTable::new().lookup_index(&Packet::new()), None);
    }

    #[test]
    fn all_wildcard_first_rule_shadows_later_rules() {
        let t = FlowTable::from_rules([
            Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Vlan, 1))),
            Rule::new(
                Match::new().with(Field::Port, 2),
                ActionSet::single(Action::assign(Field::Vlan, 2)),
            ),
        ]);
        // Even a packet the second rule would match hits the wildcard.
        let pk = Packet::new().with(Field::Port, 2);
        assert_eq!(t.lookup_index(&pk), Some(0));
        assert_eq!(t.apply(&pk).iter().next().unwrap().get(Field::Vlan), Some(1));
    }

    #[test]
    fn duplicate_patterns_first_wins() {
        let t = FlowTable::from_rules([
            Rule::new(
                Match::new().with(Field::Port, 1),
                ActionSet::single(Action::assign(Field::Vlan, 10)),
            ),
            Rule::new(
                Match::new().with(Field::Port, 1),
                ActionSet::single(Action::assign(Field::Vlan, 20)),
            ),
        ]);
        let pk = Packet::new().with(Field::Port, 1);
        assert_eq!(t.lookup_index(&pk), Some(0));
        assert_eq!(t.apply(&pk).iter().next().unwrap().get(Field::Vlan), Some(10));
    }

    #[test]
    fn multicast_rule_emits_every_output_packet() {
        let t = FlowTable::from_rules([Rule::new(
            Match::new().with(Field::Port, 1),
            ActionSet::from_iter([
                Action::assign(Field::Port, 2),
                Action::assign(Field::Port, 3).set(Field::Vlan, 7),
            ]),
        )]);
        let out = t.apply(&Packet::new().with(Field::Port, 1));
        assert_eq!(out.len(), 2);
        let vlans: Vec<Option<Value>> = out.iter().map(|p| p.get(Field::Vlan)).collect();
        assert!(vlans.contains(&Some(7)) && vlans.contains(&None));
    }

    #[test]
    fn match_add_contradiction_leaves_match_unchanged() {
        let mut m = Match::new().with(Field::IpDst, 4).with(Field::Port, 2);
        assert!(!m.add(Field::IpDst, 9));
        assert_eq!(m.get(Field::IpDst), Some(4));
        assert_eq!(m.len(), 2);
        assert!(m.matches(&Packet::new().with(Field::IpDst, 4).with(Field::Port, 2)));
    }

    #[test]
    fn display_contains_rules() {
        let t = FlowTable::from_rules([Rule::drop_all()]);
        assert!(t.to_string().contains("* -> drop"));
    }

    fn exact(v: Value) -> Rule {
        Rule::new(Match::new().with(Field::IpDst, v), ActionSet::pass())
    }

    #[test]
    fn prefix_chains_compare_against_the_chain_at_hand_only() {
        let whole = FlowTable::from_rules((0..4).map(exact));
        let apart = FlowTable::from_rules((0..2).map(exact));
        let other = FlowTable::from_rules([exact(9)]);
        let empty = FlowTable::new();
        // A view, a longer view, an equal prefix built apart, the empty
        // table (a prefix of anything) — then an unrelated table, after
        // which the first list opens a chain of its own again.
        let tables = [&whole.prefix(1), &whole.prefix(3), &apart, &empty, &other, &whole, &whole];
        let chains: Vec<_> = prefix_chains(&tables).collect();
        assert_eq!(chains.len(), 3);
        assert!(chains[0].0.iter().eq(whole.prefix(3).iter()) && chains[0].1 == (0..4));
        assert!(chains[1].0 == &other && chains[1].1 == (4..5));
        assert!(chains[2].0 == &whole && chains[2].1 == (5..7));
        assert_eq!(prefix_chains(&[]).count(), 0);
    }
}

/// The sharing contract of [`Match`], [`ActionSet`] and [`FlowTable`]:
/// mutating a clone never shows through to its origin, and a value reached
/// by copy-on-write is indistinguishable — `==`, `cmp`, hash, iteration
/// order — from the same value built from scratch.
#[cfg(test)]
mod sharing_proptests {
    use super::*;
    use crate::action::Action;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    const FIELDS: [Field; 4] = [Field::Port, Field::Vlan, Field::IpSrc, Field::IpDst];

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn assert_same<T: Eq + Ord + Hash + std::fmt::Debug>(got: &T, scratch: &T) {
        assert_eq!(got, scratch);
        assert_eq!(got.cmp(scratch), Ordering::Equal);
        assert_eq!(hash_of(got), hash_of(scratch));
    }

    fn arb_tests() -> impl Strategy<Value = Vec<(Field, Value)>> {
        proptest::collection::vec((0usize..FIELDS.len(), 0u64..3), 0..5)
            .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect())
    }

    /// Few distinct rules, so tables repeat neighbours (`compact` has work)
    /// and end in catch-all drops now and then.
    fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
        let rule =
            (arb_tests(), arb_actions(), 0u8..4).prop_map(|(tests, actions, kind)| match kind {
                0 => Rule::drop_all(),
                _ => Rule::new(
                    tests.into_iter().take(1).collect(),
                    actions.into_iter().take(1).collect(),
                ),
            });
        proptest::collection::vec(rule, 0..8)
    }

    fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
        proptest::collection::vec(arb_tests(), 0..4).prop_map(|sets| {
            sets.into_iter()
                .map(|ws| ws.into_iter().fold(Action::id(), |a, (f, v)| a.set(f, v)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mutating_a_match_clone_leaves_the_original_untouched(
            initial in arb_tests(),
            // `true` = `with` (overrides), `false` = `add` (refuses a clash).
            ops in proptest::collection::vec((any::<bool>(), 0usize..FIELDS.len(), 0u64..3), 0..8),
        ) {
            let original: Match = initial.iter().copied().collect();
            let mut model: BTreeMap<Field, Value> = initial.iter().copied().collect();
            let frozen = model.clone();
            let mut copy = original.clone();
            for (with, i, v) in ops {
                let f = FIELDS[i];
                if with {
                    copy = copy.with(f, v);
                    model.insert(f, v);
                } else {
                    let fits = model.get(&f).is_none_or(|&have| have == v);
                    prop_assert_eq!(copy.add(f, v), fits);
                    if fits {
                        model.insert(f, v);
                    }
                }
                assert_same(&copy, &model.iter().map(|(&f, &v)| (f, v)).collect());
                assert_same(&original, &frozen.iter().map(|(&f, &v)| (f, v)).collect());
            }
        }

        #[test]
        fn mutating_an_action_set_clone_leaves_the_original_untouched(
            initial in arb_actions(),
            // `true` = `extend` in place, `false` = `union` into a new set.
            ops in proptest::collection::vec((any::<bool>(), arb_actions()), 0..6),
        ) {
            let original: ActionSet = initial.iter().cloned().collect();
            let mut model: BTreeSet<Action> = initial.iter().cloned().collect();
            let frozen = model.clone();
            let mut copy = original.clone();
            for (extend, more) in ops {
                if extend {
                    copy.extend(more.iter().cloned());
                } else {
                    copy = copy.union(&more.iter().cloned().collect());
                }
                model.extend(more);
                assert_same(&copy, &model.iter().cloned().collect());
                assert_same(&original, &frozen.iter().cloned().collect());
            }
        }

        #[test]
        fn mutating_a_flow_table_clone_leaves_the_original_untouched(
            initial in arb_rules(),
            // 0 = `push`, 1 = `compact`, 2 = `into_iter` and rebuild.
            ops in proptest::collection::vec((0u8..3, arb_rules()), 0..6),
        ) {
            let original = FlowTable::from_rules(initial.iter().cloned());
            let frozen = initial.clone();
            let mut model = initial;
            let mut copy = original.clone();
            // The index shares the list too, and must keep answering for it.
            let index = original.compile();
            for (op, rules) in ops {
                match op {
                    0 => {
                        let rule = rules.first().cloned().unwrap_or_else(Rule::drop_all);
                        copy.push(rule.clone());
                        model.push(rule);
                    }
                    1 => {
                        let before = model.len();
                        while model.last().is_some_and(|r| *r == Rule::drop_all()) {
                            model.pop();
                        }
                        model.dedup();
                        prop_assert_eq!(copy.compact(), before - model.len());
                    }
                    _ => {
                        let taken: Vec<Rule> = copy.clone().into_iter().collect();
                        prop_assert_eq!(&taken, &model);
                        copy = FlowTable::from_rules(taken);
                    }
                }
                let scratch = FlowTable::from_rules(model.iter().cloned());
                prop_assert_eq!(&copy, &scratch);
                prop_assert!(copy.iter().eq(model.iter()), "order of iteration");
                prop_assert!(original.iter().eq(frozen.iter()), "the origin moved");
                prop_assert_eq!(index.len(), frozen.len());
            }
            for rule in &frozen {
                let pk: Packet = rule.pattern.iter().collect();
                prop_assert_eq!(index.lookup(&pk), original.lookup(&pk));
            }
        }

        /// A view never observes the rules past its length: every reader
        /// and every edit on `whole.prefix(len)` is the same call on a table
        /// built from those `len` rules alone, and no edit of the view shows
        /// in the list it was cut from.
        #[test]
        fn a_prefix_view_is_the_table_of_its_rules(
            rules in arb_rules(),
        ) {
            let whole = FlowTable::from_rules(rules.iter().cloned());
            let index = whole.compile();
            for len in 0..=rules.len() {
                let view = whole.prefix(len);
                let scratch = FlowTable::from_rules(rules[..len].iter().cloned());
                prop_assert_eq!(view.len(), len);
                prop_assert_eq!(view.is_empty(), len == 0);
                prop_assert!(view.iter().eq(rules[..len].iter()));
                prop_assert_eq!(&view, &scratch);
                prop_assert_eq!(view == whole, scratch == whole);
                prop_assert_eq!(view.to_string(), scratch.to_string());
                prop_assert_eq!(format!("{view:?}"), format!("{scratch:?}"));
                prop_assert_eq!(format!("{:?}", view.compile()), format!("{:?}", scratch.compile()));
                prop_assert_eq!(view.compile().len(), len);
                // Prefix-ness is by value; the shared list is only a shortcut.
                prop_assert!(view.is_prefix_of(&whole) && scratch.is_prefix_of(&whole));
                prop_assert!(view.is_prefix_of(&scratch) && scratch.is_prefix_of(&view));
                prop_assert_eq!(whole.is_prefix_of(&view), whole.is_prefix_of(&scratch));
                prop_assert_eq!(view.prefix(len / 2), scratch.prefix(len / 2));
                for rule in &rules {
                    let pk: Packet = rule.pattern.iter().collect();
                    prop_assert_eq!(view.lookup_index(&pk), scratch.lookup_index(&pk));
                    prop_assert_eq!(view.apply(&pk), scratch.apply(&pk));
                }
                // Edits write a fresh list from the visible rules only.
                let (mut pushed, mut model) = (view.clone(), scratch.clone());
                pushed.push(Rule::drop_all());
                model.push(Rule::drop_all());
                prop_assert_eq!(&pushed, &model);
                let (mut compacted, mut model) = (view.clone(), scratch.clone());
                prop_assert_eq!(compacted.compact(), model.compact());
                prop_assert_eq!(&compacted, &model);
                prop_assert_eq!(
                    view.clone().into_iter().collect::<Vec<Rule>>(),
                    rules[..len].to_vec()
                );
                // The list the view was cut from, and its index, stand.
                prop_assert!(whole.iter().eq(rules.iter()), "an edit of a view moved its origin");
                prop_assert_eq!(index.len(), rules.len());
            }
        }
    }
}
