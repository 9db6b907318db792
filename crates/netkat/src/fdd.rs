//! Forwarding decision diagrams (FDDs).
//!
//! An FDD is a hash-consed binary decision diagram whose internal nodes test
//! `field = value` and whose leaves are [`ActionSet`]s. This is the
//! intermediate representation of the NetKAT compiler, following Smolka et
//! al., *A Fast Compiler for NetKAT* (ICFP 2015), which the paper's artifact
//! uses via Frenetic.
//!
//! Invariants maintained by the builder:
//!
//! * **ordering** — along every path, tests appear in strictly increasing
//!   `(field, value)` order;
//! * **no contradictions** — on the true branch of `f = v` there are no
//!   further tests on `f`; on the false branch there is no second `f = v`;
//! * **no redundancy** — a node whose branches are equal is collapsed.
//!
//! All tests in a diagram refer to the *input* packet; actions apply at the
//! leaves. Every operation is memoized in the builder.

use std::collections::HashMap;
use std::fmt;

use crate::action::{Action, ActionSet};
use crate::field::{Field, Value};
use crate::packet::Packet;
use crate::pred::Pred;

/// A handle to a node in an [`FddBuilder`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u32);

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum NodeData {
    Leaf(ActionSet),
    Branch { field: Field, value: Value, tru: NodeId, els: NodeId },
}

/// The arena and memo tables for FDD construction.
///
/// All diagrams produced by one builder share structure; [`NodeId`]s are only
/// meaningful relative to their builder.
///
/// # Examples
///
/// ```
/// use netkat::{Field, FddBuilder, Packet, Pred};
/// let mut b = FddBuilder::new();
/// let d = b.from_pred(&Pred::port(2));
/// let pk = Packet::new().with(Field::Port, 2);
/// assert!(b.eval(d, &pk).len() == 1);
/// ```
#[derive(Debug, Default)]
pub struct FddBuilder {
    nodes: Vec<NodeData>,
    cons: HashMap<NodeData, NodeId>,
    memo_union: HashMap<(NodeId, NodeId), NodeId>,
    memo_guard: HashMap<(NodeId, NodeId), NodeId>,
    memo_seq: HashMap<(NodeId, NodeId), NodeId>,
    memo_subst: HashMap<(Action, NodeId), NodeId>,
    memo_assume: HashMap<(NodeId, Field, Value, bool), NodeId>,
    memo_complement: HashMap<NodeId, NodeId>,
}

/// Iteration bound for Kleene star fixpoints.
const STAR_FUEL: usize = 1_000;

impl FddBuilder {
    /// Creates an empty builder.
    pub fn new() -> FddBuilder {
        FddBuilder::default()
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0 as usize]
    }

    fn intern(&mut self, data: NodeData) -> NodeId {
        if let Some(&id) = self.cons.get(&data) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(data.clone());
        self.cons.insert(data, id);
        id
    }

    /// The leaf holding `acts`.
    pub fn leaf(&mut self, acts: ActionSet) -> NodeId {
        self.intern(NodeData::Leaf(acts))
    }

    /// The drop leaf.
    pub fn drop_leaf(&mut self) -> NodeId {
        self.leaf(ActionSet::drop())
    }

    /// The pass (identity) leaf.
    pub fn pass_leaf(&mut self) -> NodeId {
        self.leaf(ActionSet::pass())
    }

    /// Returns the root test of `id`, or `None` for a leaf.
    fn root_test(&self, id: NodeId) -> Option<(Field, Value)> {
        match self.data(id) {
            NodeData::Leaf(_) => None,
            NodeData::Branch { field, value, .. } => Some((*field, *value)),
        }
    }

    /// Propagates the assumption `field = value` (if `positive`) or
    /// `field ≠ value` (otherwise) through `d`, pruning resolved tests.
    fn assume(&mut self, d: NodeId, field: Field, value: Value, positive: bool) -> NodeId {
        let key = (d, field, value, positive);
        if let Some(&r) = self.memo_assume.get(&key) {
            return r;
        }
        let r = match self.data(d).clone() {
            NodeData::Leaf(_) => d,
            NodeData::Branch { field: f, value: v, tru, els } => {
                if f == field {
                    if positive {
                        // f is known to equal `value`.
                        if v == value {
                            self.assume(tru, field, value, positive)
                        } else {
                            self.assume(els, field, value, positive)
                        }
                    } else if v == value {
                        // f ≠ value, so this exact test is false.
                        self.assume(els, field, value, positive)
                    } else {
                        // f ≠ value says nothing about f = v (v ≠ value).
                        let t = self.assume(tru, field, value, positive);
                        let e = self.assume(els, field, value, positive);
                        self.branch_raw(f, v, t, e)
                    }
                } else {
                    let t = self.assume(tru, field, value, positive);
                    let e = self.assume(els, field, value, positive);
                    self.branch_raw(f, v, t, e)
                }
            }
        };
        self.memo_assume.insert(key, r);
        r
    }

    /// Hash-consing constructor without assumption propagation.
    fn branch_raw(&mut self, field: Field, value: Value, tru: NodeId, els: NodeId) -> NodeId {
        if tru == els {
            return tru;
        }
        self.intern(NodeData::Branch { field, value, tru, els })
    }

    /// The canonical branch constructor: prunes tests resolved by the new
    /// root test from both children and collapses redundant nodes.
    ///
    /// Callers must ensure `(field, value)` precedes the root tests of `tru`
    /// and `els` in the global test order (checked in debug builds).
    fn branch(&mut self, field: Field, value: Value, tru: NodeId, els: NodeId) -> NodeId {
        let t = self.assume(tru, field, value, true);
        let e = self.assume(els, field, value, false);
        debug_assert!(self.root_test(t).is_none_or(|rt| rt.0 != field));
        debug_assert!(self.root_test(t).is_none_or(|rt| rt > (field, value)));
        debug_assert!(self.root_test(e).is_none_or(|rt| rt > (field, value)));
        self.branch_raw(field, value, t, e)
    }

    /// Splits `d` by the test `(field, value)`: the pair of diagrams
    /// equivalent to `d` under the assumption that the test holds / fails.
    ///
    /// Requires `(field, value)` to be ≤ the root test of `d`.
    fn split(&mut self, d: NodeId, field: Field, value: Value) -> (NodeId, NodeId) {
        match *self.data(d) {
            NodeData::Leaf(_) => (d, d),
            NodeData::Branch { field: f, value: v, tru, els } => {
                if (f, v) == (field, value) {
                    (tru, els)
                } else if f == field {
                    // Same field, larger value: under f = value the test
                    // f = v is false; under f ≠ value it is unresolved.
                    debug_assert!(v > value);
                    let t = self.assume(d, field, value, true);
                    (t, d)
                } else {
                    debug_assert!(f > field);
                    (d, d)
                }
            }
        }
    }

    /// Generic memoized binary combinator.
    fn apply(
        &mut self,
        a: NodeId,
        b: NodeId,
        which: MemoTable,
        op: fn(&ActionSet, &ActionSet) -> ActionSet,
    ) -> NodeId {
        let key = (a, b);
        if let Some(&r) = self.memo(which).get(&key) {
            return r;
        }
        let r = match (self.data(a).clone(), self.data(b).clone()) {
            (NodeData::Leaf(x), NodeData::Leaf(y)) => {
                let acts = op(&x, &y);
                self.leaf(acts)
            }
            _ => {
                let ra = self.root_test(a);
                let rb = self.root_test(b);
                let (field, value) = match (ra, rb) {
                    (Some(x), Some(y)) => x.min(y),
                    (Some(x), None) => x,
                    (None, Some(y)) => y,
                    (None, None) => unreachable!("both leaves handled above"),
                };
                let (at, ae) = self.split(a, field, value);
                let (bt, be) = self.split(b, field, value);
                let t = self.apply(at, bt, which, op);
                let e = self.apply(ae, be, which, op);
                self.branch(field, value, t, e)
            }
        };
        self.memo(which).insert(key, r);
        r
    }

    fn memo(&mut self, which: MemoTable) -> &mut HashMap<(NodeId, NodeId), NodeId> {
        match which {
            MemoTable::Union => &mut self.memo_union,
            MemoTable::Guard => &mut self.memo_guard,
        }
    }

    /// Union (multicast) of two diagrams.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        self.apply(a, b, MemoTable::Union, |x, y| x.union(y))
    }

    /// Guards `d` by the 0/1 diagram `pred`: where `pred` passes, behave as
    /// `d`; elsewhere drop.
    fn guard(&mut self, pred: NodeId, d: NodeId) -> NodeId {
        self.apply(pred, d, MemoTable::Guard, |p, acts| {
            if p.is_drop() {
                ActionSet::drop()
            } else {
                acts.clone()
            }
        })
    }

    /// The conditional `if (field = value) then t else e` as a diagram, with
    /// `t` and `e` arbitrary diagrams (their root tests may precede the
    /// conditional's test).
    pub fn cond(&mut self, field: Field, value: Value, t: NodeId, e: NodeId) -> NodeId {
        // Fast path: both children's roots come after the test.
        let ok = |r: Option<(Field, Value)>| r.is_none_or(|rt| rt > (field, value));
        if ok(self.root_test(t)) && ok(self.root_test(e)) {
            return self.branch(field, value, t, e);
        }
        let pos = self.from_test(field, value);
        let neg = self.complement(pos);
        let gt = self.guard(pos, t);
        let ge = self.guard(neg, e);
        self.union(gt, ge)
    }

    /// The 0/1 diagram for the basic test `field = value`.
    pub fn from_test(&mut self, field: Field, value: Value) -> NodeId {
        let pass = self.pass_leaf();
        let drop = self.drop_leaf();
        self.branch_raw(field, value, pass, drop)
    }

    /// Complements a 0/1 diagram (predicate negation).
    ///
    /// # Panics
    ///
    /// Panics if a leaf is neither `pass` nor `drop`; complement of general
    /// action diagrams is not meaningful.
    pub fn complement(&mut self, d: NodeId) -> NodeId {
        if let Some(&r) = self.memo_complement.get(&d) {
            return r;
        }
        let r = match self.data(d).clone() {
            NodeData::Leaf(acts) => {
                if acts.is_drop() {
                    self.pass_leaf()
                } else {
                    assert!(acts.is_pass(), "complement of a non-predicate diagram");
                    self.drop_leaf()
                }
            }
            NodeData::Branch { field, value, tru, els } => {
                let t = self.complement(tru);
                let e = self.complement(els);
                self.branch_raw(field, value, t, e)
            }
        };
        self.memo_complement.insert(d, r);
        r
    }

    /// Compiles a predicate into a 0/1 diagram.
    pub fn from_pred(&mut self, pred: &Pred) -> NodeId {
        match pred {
            Pred::True => self.pass_leaf(),
            Pred::False => self.drop_leaf(),
            Pred::Test(f, v) => self.from_test(*f, *v),
            Pred::And(a, b) => {
                let da = self.from_pred(a);
                let db = self.from_pred(b);
                self.guard(da, db)
            }
            Pred::Or(a, b) => {
                let da = self.from_pred(a);
                let db = self.from_pred(b);
                self.union(da, db)
            }
            Pred::Not(a) => {
                let da = self.from_pred(a);
                self.complement(da)
            }
        }
    }

    /// Applies `act` "before" diagram `d`: resolves tests on fields written
    /// by `act` and composes `act` into every leaf.
    fn subst(&mut self, act: &Action, d: NodeId) -> NodeId {
        let key = (act.clone(), d);
        if let Some(&r) = self.memo_subst.get(&key) {
            return r;
        }
        let r = match self.data(d).clone() {
            NodeData::Leaf(acts) => {
                let composed: ActionSet = acts.iter().map(|b| act.then(b)).collect();
                self.leaf(composed)
            }
            NodeData::Branch { field, value, tru, els } => match act.get(field) {
                Some(v) if v == value => self.subst(act, tru),
                Some(_) => self.subst(act, els),
                None => {
                    let t = self.subst(act, tru);
                    let e = self.subst(act, els);
                    self.cond(field, value, t, e)
                }
            },
        };
        self.memo_subst.insert(key, r);
        r
    }

    /// Sequential composition of two diagrams.
    pub fn seq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let key = (a, b);
        if let Some(&r) = self.memo_seq.get(&key) {
            return r;
        }
        let r = match self.data(a).clone() {
            NodeData::Leaf(acts) => {
                let mut out = self.drop_leaf();
                for act in acts.iter() {
                    let d = self.subst(act, b);
                    out = self.union(out, d);
                }
                out
            }
            NodeData::Branch { field, value, tru, els } => {
                let t = self.seq(tru, b);
                let e = self.seq(els, b);
                self.cond(field, value, t, e)
            }
        };
        self.memo_seq.insert(key, r);
        r
    }

    /// Kleene star: least fixpoint of `x = id + d ; x`.
    ///
    /// Returns `None` if the fixpoint is not reached within an internal
    /// iteration bound (callers map this to
    /// [`NetkatError::StarDiverged`](crate::NetkatError::StarDiverged)).
    pub fn star(&mut self, d: NodeId) -> Option<NodeId> {
        let id = self.pass_leaf();
        let mut x = id;
        for _ in 0..STAR_FUEL {
            let dx = self.seq(d, x);
            let next = self.union(id, dx);
            if next == x {
                return Some(x);
            }
            x = next;
        }
        None
    }

    /// Evaluates a diagram on a packet.
    pub fn eval(&self, d: NodeId, pk: &Packet) -> std::collections::BTreeSet<Packet> {
        self.actions_for(d, pk).apply(pk)
    }

    /// Returns the action set a diagram selects for a packet.
    pub fn actions_for(&self, mut d: NodeId, pk: &Packet) -> ActionSet {
        loop {
            match self.data(d) {
                NodeData::Leaf(acts) => return acts.clone(),
                NodeData::Branch { field, value, tru, els } => {
                    d = if pk.get(*field) == Some(*value) { *tru } else { *els };
                }
            }
        }
    }

    /// Enumerates the diagram's paths as `(positive tests, negative tests,
    /// actions)` triples, in priority order (first match wins).
    ///
    /// This is the raw material for flow-table extraction: because every
    /// subdiagram is total, emitting true-branch paths before their sibling
    /// false-branch paths yields a correct prioritized table using only the
    /// positive tests as matches.
    pub fn paths(&self, d: NodeId) -> Vec<FddPath> {
        let mut out = Vec::new();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        self.walk_paths(d, &mut pos, &mut neg, &mut out);
        out
    }

    fn walk_paths(
        &self,
        d: NodeId,
        pos: &mut Vec<(Field, Value)>,
        neg: &mut Vec<(Field, Value)>,
        out: &mut Vec<FddPath>,
    ) {
        match self.data(d) {
            NodeData::Leaf(acts) => out.push(FddPath {
                positive: pos.clone(),
                negative: neg.clone(),
                actions: acts.clone(),
            }),
            NodeData::Branch { field, value, tru, els } => {
                pos.push((*field, *value));
                self.walk_paths(*tru, pos, neg, out);
                pos.pop();
                neg.push((*field, *value));
                self.walk_paths(*els, pos, neg, out);
                neg.pop();
            }
        }
    }
}

/// One root-to-leaf path of an FDD.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FddPath {
    /// Tests taken on their true branch.
    pub positive: Vec<(Field, Value)>,
    /// Tests taken on their false branch.
    pub negative: Vec<(Field, Value)>,
    /// The leaf's actions.
    pub actions: ActionSet,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MemoTable {
    Union,
    Guard,
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(port: Value, vlan: Value) -> Packet {
        Packet::new().with(Field::Port, port).with(Field::Vlan, vlan)
    }

    #[test]
    fn test_diagram_evaluates() {
        let mut b = FddBuilder::new();
        let d = b.from_test(Field::Port, 2);
        assert_eq!(b.eval(d, &pk(2, 0)).len(), 1);
        assert!(b.eval(d, &pk(1, 0)).is_empty());
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut b = FddBuilder::new();
        let d1 = b.from_test(Field::Port, 2);
        let d2 = b.from_test(Field::Port, 2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn and_or_not() {
        let mut b = FddBuilder::new();
        let p = Pred::port(2).and(Pred::test(Field::Vlan, 7));
        let d = b.from_pred(&p);
        assert_eq!(b.eval(d, &pk(2, 7)).len(), 1);
        assert!(b.eval(d, &pk(2, 8)).is_empty());
        let n = b.complement(d);
        assert!(b.eval(n, &pk(2, 7)).is_empty());
        assert_eq!(b.eval(n, &pk(2, 8)).len(), 1);
    }

    #[test]
    fn contradiction_pruned() {
        let mut b = FddBuilder::new();
        // pt=1 & pt=2 is unsatisfiable and must collapse to drop.
        let p = Pred::port(1).and(Pred::port(2));
        let d = b.from_pred(&p);
        assert_eq!(d, b.drop_leaf());
    }

    #[test]
    fn excluded_middle_collapses_to_pass() {
        let mut b = FddBuilder::new();
        let p = Pred::port(1).or(Pred::port(1).not());
        let d = b.from_pred(&p);
        assert_eq!(d, b.pass_leaf());
    }

    #[test]
    fn seq_resolves_written_tests() {
        let mut b = FddBuilder::new();
        // (pt<-2); (pt=2) behaves as pt<-2
        let assign = ActionSet::single(Action::assign(Field::Port, 2));
        let a = b.leaf(assign.clone());
        let t = b.from_test(Field::Port, 2);
        let d = b.seq(a, t);
        assert_eq!(d, b.leaf(assign));
        // (pt<-2); (pt=3) drops
        let t3 = b.from_test(Field::Port, 3);
        let d3 = b.seq(a, t3);
        assert_eq!(d3, b.drop_leaf());
    }

    #[test]
    fn union_is_idempotent_commutative() {
        let mut b = FddBuilder::new();
        let x = b.from_test(Field::Port, 1);
        let y = b.from_test(Field::Vlan, 2);
        let xy = b.union(x, y);
        let yx = b.union(y, x);
        assert_eq!(xy, yx);
        assert_eq!(b.union(x, x), x);
    }

    #[test]
    fn star_of_assignment_converges() {
        let mut b = FddBuilder::new();
        let a = b.leaf(ActionSet::single(Action::assign(Field::Vlan, 1)));
        let s = b.star(a).expect("fixpoint");
        // vlan<-1 star = id + vlan<-1
        let out = b.eval(s, &pk(0, 0));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn same_field_ordering_in_false_branch() {
        let mut b = FddBuilder::new();
        // pt=1 + pt=2 must order values along the false chain.
        let p = Pred::port(1).or(Pred::port(2));
        let d = b.from_pred(&p);
        assert_eq!(b.eval(d, &pk(1, 0)).len(), 1);
        assert_eq!(b.eval(d, &pk(2, 0)).len(), 1);
        assert!(b.eval(d, &pk(3, 0)).is_empty());
    }

    #[test]
    fn paths_cover_totally() {
        let mut b = FddBuilder::new();
        let p = Pred::port(1).or(Pred::test(Field::Vlan, 2));
        let d = b.from_pred(&p);
        let paths = b.paths(d);
        // Every packet must match exactly one path when scanned in order.
        for packet in [pk(1, 2), pk(1, 0), pk(0, 2), pk(0, 0)] {
            let matching: Vec<_> = paths
                .iter()
                .filter(|path| {
                    path.positive.iter().all(|&(f, v)| packet.get(f) == Some(v))
                        && path.negative.iter().all(|&(f, v)| packet.get(f) != Some(v))
                })
                .collect();
            assert_eq!(matching.len(), 1, "packet {packet} must hit exactly one full path");
        }
    }
}
