//! NetKAT predicates (the *tests* of the language).

use std::fmt;

use crate::field::{Field, Value};
use crate::packet::{FieldReader, Packet};

/// A boolean predicate over packet fields.
///
/// Predicates form the test fragment of NetKAT: a boolean algebra over
/// basic tests `f = n`.
///
/// # Examples
///
/// ```
/// use netkat::{Field, Packet, Pred};
/// let p = Pred::test(Field::Port, 2).and(Pred::test(Field::IpDst, 4).not());
/// let pk = Packet::new().with(Field::Port, 2).with(Field::IpDst, 9);
/// assert!(p.eval(&pk));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Pred {
    /// The constant `true` (passes every packet).
    True,
    /// The constant `false` (drops every packet).
    False,
    /// The basic test `field = value`.
    Test(Field, Value),
    /// Conjunction `a ∧ b`.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction `a ∨ b`.
    Or(Box<Pred>, Box<Pred>),
    /// Negation `¬a`.
    Not(Box<Pred>),
}

impl Pred {
    /// The basic test `field = value`.
    pub fn test(field: Field, value: Value) -> Pred {
        Pred::Test(field, value)
    }

    /// The test `sw = n`.
    pub fn switch(n: Value) -> Pred {
        Pred::test(Field::Switch, n)
    }

    /// The test `pt = n`.
    pub fn port(n: Value) -> Pred {
        Pred::test(Field::Port, n)
    }

    /// Conjunction, with constant folding.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction, with constant folding.
    pub fn or(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::False, p) | (p, Pred::False) => p,
            (Pred::True, _) | (_, Pred::True) => Pred::True,
            (a, b) => Pred::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation, with constant folding and double-negation elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(p) => *p,
            p => Pred::Not(Box::new(p)),
        }
    }

    /// Conjunction of all predicates in `preds` (`true` if empty).
    pub fn all<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        preds.into_iter().fold(Pred::True, Pred::and)
    }

    /// Disjunction of all predicates in `preds` (`false` if empty).
    pub fn any<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        preds.into_iter().fold(Pred::False, Pred::or)
    }

    /// Evaluates the predicate on a packet (`pkt ⊨ ϕ` in the paper).
    ///
    /// A basic test on an unset field is `false`.
    pub fn eval(&self, pk: &Packet) -> bool {
        self.eval_on(pk)
    }

    /// [`eval`](Pred::eval) through any [`FieldReader`] (e.g. a zero-copy
    /// [`TaggedView`](crate::TaggedView)).
    pub fn eval_on<R: FieldReader>(&self, pk: &R) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Test(f, v) => pk.read(*f) == Some(*v),
            Pred::And(a, b) => a.eval_on(pk) && b.eval_on(pk),
            Pred::Or(a, b) => a.eval_on(pk) || b.eval_on(pk),
            Pred::Not(a) => !a.eval_on(pk),
        }
    }

    /// All fields mentioned anywhere in the predicate, in order.
    pub fn fields(&self) -> Vec<Field> {
        let mut out = Vec::new();
        self.collect_fields(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_fields(&self, out: &mut Vec<Field>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Test(f, _) => out.push(*f),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_fields(out);
                b.collect_fields(out);
            }
            Pred::Not(a) => a.collect_fields(out),
        }
    }

    /// All `(field, value)` pairs tested anywhere in the predicate.
    pub fn tests(&self) -> Vec<(Field, Value)> {
        let mut out = Vec::new();
        self.collect_tests(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_tests(&self, out: &mut Vec<(Field, Value)>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Test(f, v) => out.push((*f, *v)),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_tests(out);
                b.collect_tests(out);
            }
            Pred::Not(a) => a.collect_tests(out),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Test(field, v) => write!(f, "{field}={v}"),
            Pred::And(a, b) => write!(f, "({a} & {b})"),
            Pred::Or(a, b) => write!(f, "({a} | {b})"),
            Pred::Not(a) => write!(f, "!{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(port: Value, dst: Value) -> Packet {
        Packet::new().with(Field::Port, port).with(Field::IpDst, dst)
    }

    #[test]
    fn basic_test_semantics() {
        assert!(Pred::test(Field::Port, 2).eval(&pk(2, 4)));
        assert!(!Pred::test(Field::Port, 1).eval(&pk(2, 4)));
        // unset field: test fails
        assert!(!Pred::test(Field::IpSrc, 0).eval(&pk(2, 4)));
    }

    #[test]
    fn boolean_connectives() {
        let p = Pred::port(2).and(Pred::test(Field::IpDst, 4));
        assert!(p.eval(&pk(2, 4)));
        assert!(!p.eval(&pk(2, 5)));
        let q = Pred::port(1).or(Pred::test(Field::IpDst, 4));
        assert!(q.eval(&pk(2, 4)));
        assert!(!q.eval(&pk(2, 5)));
        assert!(Pred::port(1).not().eval(&pk(2, 4)));
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Pred::True.and(Pred::port(1)), Pred::port(1));
        assert_eq!(Pred::False.and(Pred::port(1)), Pred::False);
        assert_eq!(Pred::False.or(Pred::port(1)), Pred::port(1));
        assert_eq!(Pred::True.or(Pred::port(1)), Pred::True);
        assert_eq!(Pred::True.not(), Pred::False);
        assert_eq!(Pred::port(1).not().not(), Pred::port(1));
    }

    #[test]
    fn all_and_any() {
        assert_eq!(Pred::all([]), Pred::True);
        assert_eq!(Pred::any([]), Pred::False);
        let p = Pred::all([Pred::port(2), Pred::test(Field::IpDst, 4)]);
        assert!(p.eval(&pk(2, 4)));
        assert!(!p.eval(&pk(2, 3)));
    }

    #[test]
    fn fields_and_tests_are_sorted_unique() {
        let p = Pred::port(2).and(Pred::port(2)).or(Pred::switch(1).not());
        assert_eq!(p.fields(), vec![Field::Switch, Field::Port]);
        assert_eq!(p.tests(), vec![(Field::Switch, 1), (Field::Port, 2)]);
    }

    #[test]
    fn display() {
        let p = Pred::port(2).and(Pred::test(Field::IpDst, 4).not());
        assert_eq!(p.to_string(), "(pt=2 & !ip_dst=4)");
    }
}
