//! Packets and network locations.
//!
//! The accessors a simulated hop calls are `#[inline]`: the stock release
//! profile inlines a non-generic function into another crate only when it
//! is marked or a tiny leaf (ARCHITECTURE.md, *Why the per-event path is
//! marked `#[inline]`*).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::field::{Field, Value};

/// A switch-port pair `n:m` (a *location* in the paper's Section 2).
///
/// # Examples
///
/// ```
/// use netkat::Loc;
/// let l = Loc::new(4, 1);
/// assert_eq!(l.to_string(), "4:1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Loc {
    /// Switch (or host) identifier.
    pub sw: u64,
    /// Port identifier.
    pub pt: u64,
}

impl Loc {
    /// Creates the location `sw:pt`.
    #[inline]
    pub fn new(sw: u64, pt: u64) -> Loc {
        Loc { sw, pt }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.sw, self.pt)
    }
}

/// Read access to packet header fields — the interface flow-table lookup
/// actually needs.
///
/// Implemented by [`Packet`] itself, by [`LocatedView`], the simulator's
/// zero-copy lookup view (a packet with its location and tag overridden in
/// place), and by [`TaggedView`] (the tag alone overridden). Lookup paths
/// and predicate evaluation are generic over this trait, so a hop never has
/// to materialize a relocated or stamped copy of the packet.
pub trait FieldReader {
    /// The value of `field`, or `None` if unset.
    fn read(&self, field: Field) -> Option<Value>;
}

/// A packet with its location — and, optionally, its tag — overridden
/// without being materialized: reads of [`Field::Switch`] /
/// [`Field::Port`] (and [`Field::Tag`] when overridden) come from the
/// overlay, everything else from the base packet.
#[derive(Clone, Copy, Debug)]
pub struct LocatedView<'a> {
    /// The underlying packet.
    pub base: &'a Packet,
    /// The overriding location.
    pub loc: Loc,
    /// The overriding tag, if any.
    pub tag: Option<Value>,
}

impl FieldReader for LocatedView<'_> {
    #[inline]
    fn read(&self, field: Field) -> Option<Value> {
        match field {
            Field::Switch => Some(self.loc.sw),
            Field::Port => Some(self.loc.pt),
            Field::Tag if self.tag.is_some() => self.tag,
            _ => self.base.get(field),
        }
    }
}

/// A packet with only its tag overridden: the view of a packet the IN rule
/// may have stamped, without materializing the stamped copy. Every other
/// field — the location fields included — is the base packet's own.
#[derive(Clone, Copy, Debug)]
pub struct TaggedView<'a> {
    /// The underlying packet.
    pub base: &'a Packet,
    /// The overriding tag, if any.
    pub tag: Option<Value>,
}

impl FieldReader for TaggedView<'_> {
    #[inline]
    fn read(&self, field: Field) -> Option<Value> {
        match field {
            Field::Tag if self.tag.is_some() => self.tag,
            _ => self.base.get(field),
        }
    }
}

/// The fixed slots of a [`Packet`]: one per named field, then
/// `Custom(0..=2)`, in field order.
const SLOT_FIELDS: [Field; 16] = [
    Field::Switch,
    Field::Port,
    Field::EthSrc,
    Field::EthDst,
    Field::EthType,
    Field::Vlan,
    Field::IpProto,
    Field::IpSrc,
    Field::IpDst,
    Field::TcpSrc,
    Field::TcpDst,
    Field::Tag,
    Field::Digest,
    Field::Custom(0),
    Field::Custom(1),
    Field::Custom(2),
];

/// The presence bits of the location slots, `Switch` and `Port`.
const LOC_BITS: u16 = 0b11;
/// The slot of `Tag`; `Digest`'s is the next one.
const TAG_SLOT: usize = 11;
/// The presence bits of the virtual slots, `Tag` and `Digest`.
const VIRTUAL_BITS: u16 = 0b11 << TAG_SLOT;

/// Where `field` is kept: its slot, or `Err(n)` for a `Custom(n)` past the
/// slots, which goes in the side list.
#[inline]
fn slot_of(field: Field) -> Result<usize, u8> {
    Ok(match field {
        Field::Switch => 0,
        Field::Port => 1,
        Field::EthSrc => 2,
        Field::EthDst => 3,
        Field::EthType => 4,
        Field::Vlan => 5,
        Field::IpProto => 6,
        Field::IpSrc => 7,
        Field::IpDst => 8,
        Field::TcpSrc => 9,
        Field::TcpDst => 10,
        Field::Tag => 11,
        Field::Digest => 12,
        Field::Custom(n @ 0..=2) => 13 + n as usize,
        Field::Custom(n) => return Err(n),
    })
}

/// A packet: a record of numeric header fields.
///
/// Fields that are absent behave as *wildcards have no value*: a test on an
/// absent field fails. The location fields [`Field::Switch`] and
/// [`Field::Port`] are stored like any other field, which is what makes the
/// standard NetKAT semantics (where `sw` and `pt` are ordinary fields)
/// straightforward.
///
/// The record is fixed: one value slot for each of the thirteen named
/// fields and for `Custom(0..=2)` (the stream generator's flow id and
/// sequence number are `Custom(0)` and `Custom(1)`), in field order, with
/// presence in one `u16`. A read or write is a mask test and one array
/// access, and a copy is a fixed-size copy. `Custom(n)` for `n ≥ 3` goes in
/// a side list sorted by `n`, empty on every packet the simulator makes.
/// An absent slot holds 0, so two packets are equal exactly when their
/// masks, slot arrays and side lists are.
///
/// [`iter`](Packet::iter) yields the set fields in field order; `Ord` is the
/// lexicographic order of that sequence and `Hash` hashes it as a slice, so
/// ordering (e.g. of `BTreeSet<Packet>` outputs) and hashes are those of a
/// sorted `(field, value)` list, which the tests keep as the model.
///
/// # Examples
///
/// ```
/// use netkat::{Field, Packet};
/// let pk = Packet::new().with(Field::IpDst, 4).with(Field::Port, 2);
/// assert_eq!(pk.get(Field::IpDst), Some(4));
/// assert_eq!(pk.get(Field::IpSrc), None);
/// ```
#[derive(PartialEq, Eq, Default)]
pub struct Packet {
    /// Bit `i` is set when slot `i` holds a value.
    present: u16,
    /// The value of the field in each slot ([`SLOT_FIELDS`]); 0 when absent.
    slots: [Value; 16],
    /// `Custom(n)` for `n ≥ 3`, as `(n, value)` sorted by `n`.
    spilled: Vec<(u8, Value)>,
}

const _: () = assert!(std::mem::size_of::<Packet>() <= 160);

impl Clone for Packet {
    #[inline]
    fn clone(&self) -> Packet {
        Packet { present: self.present, slots: self.slots, spilled: self.spilled.clone() }
    }

    /// A fixed-size copy, touching the side list only when either packet
    /// has one — the packet arena's recycled slots lean on this to stay
    /// allocation-free in steady state.
    #[inline]
    fn clone_from(&mut self, source: &Packet) {
        self.present = source.present;
        self.slots = source.slots;
        if !(self.spilled.is_empty() && source.spilled.is_empty()) {
            self.clone_spilled_from(source);
        }
    }
}

impl Packet {
    /// Creates a packet with no fields set.
    pub fn new() -> Packet {
        Packet::default()
    }

    /// Creates a packet located at `loc` with no header fields set.
    pub fn at(loc: Loc) -> Packet {
        Packet::new().with(Field::Switch, loc.sw).with(Field::Port, loc.pt)
    }

    /// [`clone_from`](Clone::clone_from)'s side-list copy, kept out of line
    /// so that the fixed-size copy inlines small.
    #[cold]
    fn clone_spilled_from(&mut self, source: &Packet) {
        self.spilled.clone_from(&source.spilled);
    }

    /// Where `Custom(n)` is, or would go, in the side list.
    fn spill_index(&self, n: u8) -> Result<usize, usize> {
        self.spilled.binary_search_by_key(&n, |&(m, _)| m)
    }

    /// The value of `Custom(n)` in the side list. The accessors' side-list
    /// arms are out of line, so that a read of a field only known at run
    /// time inlines as a mask test and a load.
    #[cold]
    fn get_spilled(&self, n: u8) -> Option<Value> {
        self.spill_index(n).ok().map(|k| self.spilled[k].1)
    }

    #[cold]
    fn set_spilled(&mut self, n: u8, value: Value) {
        match self.spill_index(n) {
            Ok(k) => self.spilled[k].1 = value,
            Err(k) => self.spilled.insert(k, (n, value)),
        }
    }

    #[cold]
    fn unset_spilled(&mut self, n: u8) -> Option<Value> {
        let k = self.spill_index(n).ok()?;
        Some(self.spilled.remove(k).1)
    }

    /// Returns the value of `field`, or `None` if unset.
    #[inline]
    pub fn get(&self, field: Field) -> Option<Value> {
        match slot_of(field) {
            Ok(i) => (self.present & 1 << i != 0).then_some(self.slots[i]),
            Err(n) => self.get_spilled(n),
        }
    }

    /// Sets `field` to `value` in place (the paper's `pkt[f ← n]`).
    #[inline]
    pub fn set(&mut self, field: Field, value: Value) {
        match slot_of(field) {
            Ok(i) => {
                self.present |= 1 << i;
                self.slots[i] = value;
            }
            Err(n) => self.set_spilled(n, value),
        }
    }

    /// Removes `field` from the packet, returning its previous value.
    #[inline]
    pub fn unset(&mut self, field: Field) -> Option<Value> {
        match slot_of(field) {
            Ok(i) => {
                let old = self.get(field);
                self.present &= !(1 << i);
                self.slots[i] = 0;
                old
            }
            Err(n) => self.unset_spilled(n),
        }
    }

    /// Builder-style [`set`](Packet::set).
    pub fn with(mut self, field: Field, value: Value) -> Packet {
        self.set(field, value);
        self
    }

    /// Returns the packet's location, if both `Switch` and `Port` are set.
    #[inline]
    pub fn loc(&self) -> Option<Loc> {
        (self.present & LOC_BITS == LOC_BITS).then(|| Loc::new(self.slots[0], self.slots[1]))
    }

    /// Moves the packet to `loc`.
    #[inline]
    pub fn set_loc(&mut self, loc: Loc) {
        self.present |= LOC_BITS;
        self.slots[0] = loc.sw;
        self.slots[1] = loc.pt;
    }

    /// Removes both location fields, returning their values — the per-hop
    /// inverse of [`set_loc`](Packet::set_loc) (links, not tables, decide
    /// the next location).
    #[inline]
    pub fn take_loc(&mut self) -> (Option<Value>, Option<Value>) {
        let taken = (self.get(Field::Switch), self.get(Field::Port));
        self.present &= !LOC_BITS;
        self.slots[0] = 0;
        self.slots[1] = 0;
        taken
    }

    /// Iterates over the `(field, value)` pairs in field order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        let slotted = SetBits(self.present).map(|i| (SLOT_FIELDS[i], self.slots[i]));
        slotted.chain(self.spilled.iter().map(|&(n, v)| (Field::Custom(n), v)))
    }

    /// Returns a copy with the virtual runtime fields (`Tag`, `Digest`)
    /// removed.
    ///
    /// The paper's abstract configurations never mention the runtime fields,
    /// so traces are erased with this before correctness checking.
    pub fn erase_virtual(&self) -> Packet {
        let mut p = self.clone();
        p.unset(Field::Tag);
        p.unset(Field::Digest);
        p
    }

    /// Whether [`erase_virtual`](Packet::erase_virtual) of this packet is
    /// `erased`, decided without the copy: the online checker asks this of
    /// every hop, and on most the answer is yes. The masks must agree off
    /// the virtual slots, and the slot arrays on either side of them.
    #[inline]
    pub fn eq_erased(&self, erased: &Packet) -> bool {
        const AFTER: usize = TAG_SLOT + 2;
        self.present & !VIRTUAL_BITS == erased.present
            && self.slots[..TAG_SLOT] == erased.slots[..TAG_SLOT]
            && self.slots[AFTER..] == erased.slots[AFTER..]
            && self.spilled == erased.spilled
    }

    /// Whether the packet carries a location field of its own.
    #[inline]
    pub fn has_loc(&self) -> bool {
        self.present & LOC_BITS != 0
    }

    /// Unsets every field, keeping the side list's buffer for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.present = 0;
        self.slots = [0; 16];
        self.spilled.clear();
    }

    /// Number of fields set.
    #[inline]
    pub fn len(&self) -> usize {
        self.present.count_ones() as usize + self.spilled.len()
    }

    /// Returns `true` if no fields are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.present == 0 && self.spilled.is_empty()
    }
}

/// The indexes of a mask's set bits, lowest first.
struct SetBits(u16);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let i = self.0.trailing_zeros() as usize;
        (self.0 != 0).then(|| {
            self.0 &= self.0 - 1;
            i
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl Ord for Packet {
    fn cmp(&self, other: &Packet) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for Packet {
    fn partial_cmp(&self, other: &Packet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Packet {
    /// Hashes the `(field, value)` sequence [`iter`](Packet::iter) yields
    /// as a slice of it hashes: its length, then each pair.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for pair in self.iter() {
            pair.hash(state);
        }
    }
}

impl fmt::Debug for Packet {
    /// `Packet { fields: [(field, value), …] }`, in field order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Fields<'a>(&'a Packet);
        impl fmt::Debug for Fields<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Packet").field("fields", &Fields(self)).finish()
    }
}

impl FieldReader for Packet {
    #[inline]
    fn read(&self, field: Field) -> Option<Value> {
        self.get(field)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (field, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{field}={value}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Field, Value)> for Packet {
    fn from_iter<I: IntoIterator<Item = (Field, Value)>>(iter: I) -> Packet {
        let mut pk = Packet::new();
        pk.extend(iter);
        pk
    }
}

impl Extend<(Field, Value)> for Packet {
    fn extend<I: IntoIterator<Item = (Field, Value)>>(&mut self, iter: I) {
        for (f, v) in iter {
            self.set(f, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut pk = Packet::new();
        assert!(pk.is_empty());
        pk.set(Field::IpDst, 7);
        assert_eq!(pk.get(Field::IpDst), Some(7));
        pk.set(Field::IpDst, 9);
        assert_eq!(pk.get(Field::IpDst), Some(9));
        assert_eq!(pk.unset(Field::IpDst), Some(9));
        assert_eq!(pk.get(Field::IpDst), None);
    }

    #[test]
    fn location_round_trip() {
        let mut pk = Packet::new();
        assert_eq!(pk.loc(), None);
        pk.set_loc(Loc::new(3, 2));
        assert_eq!(pk.loc(), Some(Loc::new(3, 2)));
        assert_eq!(Packet::at(Loc::new(1, 9)).loc(), Some(Loc::new(1, 9)));
    }

    #[test]
    fn set_loc_covers_partial_and_present_locations() {
        // Both present: update in place.
        let mut pk = Packet::at(Loc::new(1, 1)).with(Field::IpDst, 9);
        pk.set_loc(Loc::new(5, 6));
        assert_eq!(pk.loc(), Some(Loc::new(5, 6)));
        assert_eq!(pk.len(), 3);
        // Only Switch present.
        let mut pk = Packet::new().with(Field::Switch, 1).with(Field::IpDst, 9);
        pk.set_loc(Loc::new(5, 6));
        assert_eq!(pk.loc(), Some(Loc::new(5, 6)));
        // Only Port present.
        let mut pk = Packet::new().with(Field::Port, 1).with(Field::IpDst, 9);
        pk.set_loc(Loc::new(5, 6));
        assert_eq!(pk.loc(), Some(Loc::new(5, 6)));
        assert_eq!(pk.get(Field::IpDst), Some(9));
    }

    #[test]
    fn take_loc_strips_and_returns_location() {
        let mut pk = Packet::at(Loc::new(4, 7)).with(Field::IpDst, 2);
        assert_eq!(pk.take_loc(), (Some(4), Some(7)));
        assert_eq!(pk.loc(), None);
        assert_eq!(pk.get(Field::IpDst), Some(2));
        // Partial: only Port.
        let mut pk = Packet::new().with(Field::Port, 3).with(Field::Vlan, 1);
        assert_eq!(pk.take_loc(), (None, Some(3)));
        assert_eq!(pk.get(Field::Vlan), Some(1));
        // Absent: no-op.
        let mut pk = Packet::new().with(Field::Vlan, 1);
        assert_eq!(pk.take_loc(), (None, None));
        assert_eq!(pk.len(), 1);
    }

    #[test]
    fn erase_virtual_removes_only_runtime_fields() {
        let pk = Packet::new().with(Field::IpDst, 1).with(Field::Tag, 5).with(Field::Digest, 0b101);
        let erased = pk.erase_virtual();
        assert_eq!(erased.get(Field::IpDst), Some(1));
        assert_eq!(erased.get(Field::Tag), None);
        assert_eq!(erased.get(Field::Digest), None);
        // original untouched
        assert_eq!(pk.get(Field::Tag), Some(5));
    }

    #[test]
    fn display_is_sorted_and_nonempty() {
        let pk = Packet::new().with(Field::IpDst, 4).with(Field::Port, 2);
        assert_eq!(pk.to_string(), "{pt=2; ip_dst=4}");
        assert_eq!(Packet::new().to_string(), "{}");
    }

    #[test]
    fn from_iterator_collects() {
        let pk: Packet = [(Field::Port, 1), (Field::IpSrc, 10)].into_iter().collect();
        assert_eq!(pk.len(), 2);
        assert_eq!(pk.get(Field::IpSrc), Some(10));
    }

    #[test]
    fn has_loc_sees_either_location_field() {
        assert!(!Packet::new().has_loc());
        assert!(!Packet::new().with(Field::IpDst, 1).with(Field::Tag, 2).has_loc());
        assert!(Packet::new().with(Field::Switch, 1).with(Field::IpDst, 1).has_loc());
        assert!(Packet::new().with(Field::Port, 1).with(Field::IpDst, 1).has_loc());
        assert!(Packet::at(Loc::new(1, 2)).has_loc());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Packets over location, header, virtual and custom fields (the
        /// last sort after the virtual ones), values from a small range so
        /// that pairs collide.
        fn arb_packet() -> impl Strategy<Value = Packet> {
            const FIELDS: [Field; 8] = [
                Field::Switch,
                Field::Port,
                Field::Vlan,
                Field::IpDst,
                Field::TcpDst,
                Field::Tag,
                Field::Digest,
                Field::Custom(1),
            ];
            proptest::collection::vec((0usize..FIELDS.len(), 0u64..3), 0..7)
                .prop_map(|picks| picks.into_iter().map(|(f, v)| (FIELDS[f], v)).collect())
        }

        /// The sorted record [`Packet`] replaced, kept as its model: a
        /// `Vec` of `(field, value)` pairs sorted by field, duplicate-free,
        /// with the derived `Ord`, `Hash` and `Debug` the packet must
        /// reproduce.
        mod model {
            use crate::field::{Field, Value};

            #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
            pub(super) struct Packet {
                pub(super) fields: Vec<(Field, Value)>,
            }

            impl Packet {
                fn position(&self, field: Field) -> Result<usize, usize> {
                    self.fields.binary_search_by_key(&field, |&(f, _)| f)
                }

                pub(super) fn get(&self, field: Field) -> Option<Value> {
                    self.position(field).ok().map(|i| self.fields[i].1)
                }

                pub(super) fn set(&mut self, field: Field, value: Value) {
                    match self.position(field) {
                        Ok(i) => self.fields[i].1 = value,
                        Err(i) => self.fields.insert(i, (field, value)),
                    }
                }

                pub(super) fn unset(&mut self, field: Field) -> Option<Value> {
                    self.position(field).ok().map(|i| self.fields.remove(i).1)
                }
            }
        }

        /// Every named field, and custom fields in and past the slots.
        fn universe() -> Vec<Field> {
            let custom = [0, 1, 2, 3, 7, 255].map(Field::Custom);
            Field::ALL.into_iter().chain(custom).collect()
        }

        /// One step on one of two packets (`k`), and on its model.
        #[derive(Clone, Debug)]
        enum Op {
            Set(usize, usize, u64),
            Unset(usize, usize),
            SetLoc(usize, u64, u64),
            TakeLoc(usize),
            Clear(usize),
            /// `clone_from` the other packet.
            CloneFrom(usize),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let fields = universe().len();
            // Values from a small range that includes 0, the value an
            // absent slot holds, so that present-at-0 and absent meet.
            prop_oneof![
                (0usize..2, 0..fields, 0u64..3).prop_map(|(k, f, v)| Op::Set(k, f, v)),
                (0usize..2, 0..fields).prop_map(|(k, f)| Op::Unset(k, f)),
                (0usize..2, 0u64..3, 0u64..3).prop_map(|(k, sw, pt)| Op::SetLoc(k, sw, pt)),
                (0usize..2).prop_map(Op::TakeLoc),
                (0usize..2).prop_map(Op::Clear),
                (0usize..2).prop_map(Op::CloneFrom),
            ]
        }

        fn hash_of<T: Hash>(t: &T) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // `eq_erased` is `erase_virtual` followed by `==`, against the
            // packet's own erasure, an unrelated packet (erased or not),
            // and a prefix / extension of the erasure — equal up to the
            // shorter one's length, which a pairwise walk must not accept.
            #[test]
            fn eq_erased_is_erase_then_compare(
                raw in arb_packet(),
                other in arb_packet(),
                cut in 0usize..7,
                extra in 0u64..3,
            ) {
                let erased = raw.erase_virtual();
                prop_assert!(raw.eq_erased(&erased));
                prop_assert!(erased.eq_erased(&erased));
                let shorter: Packet = erased.iter().take(cut).collect();
                let longer = erased.clone().with(Field::Custom(9), extra);
                for e in [&other, &other.erase_virtual(), &shorter, &longer, &raw] {
                    prop_assert_eq!(raw.eq_erased(e), raw.erase_virtual() == *e, "{} vs {}", raw, e);
                    prop_assert_eq!(e.eq_erased(&erased), e.erase_virtual() == erased, "{} vs {}", e, raw);
                }
            }

            // The fixed record against the sorted one, after every step of
            // a random run over two packets: every read, both orders, the
            // hash, the debug text and the erased compare.
            #[test]
            fn the_record_matches_the_sorted_model(
                ops in proptest::collection::vec(arb_op(), 1..40),
            ) {
                let fields = universe();
                let mut pks = [Packet::new(), Packet::new()];
                let mut models = [model::Packet::default(), model::Packet::default()];
                for op in ops {
                    match op {
                        Op::Set(k, f, v) => {
                            pks[k].set(fields[f], v);
                            models[k].set(fields[f], v);
                        }
                        Op::Unset(k, f) => {
                            prop_assert_eq!(pks[k].unset(fields[f]), models[k].unset(fields[f]));
                        }
                        Op::SetLoc(k, sw, pt) => {
                            pks[k].set_loc(Loc::new(sw, pt));
                            models[k].set(Field::Switch, sw);
                            models[k].set(Field::Port, pt);
                        }
                        Op::TakeLoc(k) => {
                            let taken = (models[k].unset(Field::Switch), models[k].unset(Field::Port));
                            prop_assert_eq!(pks[k].take_loc(), taken);
                        }
                        Op::Clear(k) => {
                            pks[k].clear();
                            models[k].fields.clear();
                        }
                        Op::CloneFrom(k) => {
                            let [a, b] = &mut pks;
                            let (to, from) = if k == 0 { (a, &*b) } else { (b, &*a) };
                            to.clone_from(from);
                            models[k] = models[1 - k].clone();
                        }
                    }
                    for (pk, m) in pks.iter().zip(&models) {
                        for &f in &fields {
                            prop_assert_eq!(pk.get(f), m.get(f), "{:?} of {:?}", f, m);
                        }
                        prop_assert_eq!(pk.iter().collect::<Vec<_>>(), m.fields.clone());
                        prop_assert_eq!(pk.len(), m.fields.len());
                        prop_assert_eq!(pk.is_empty(), m.fields.is_empty());
                        let loc = m.get(Field::Switch).zip(m.get(Field::Port));
                        prop_assert_eq!(pk.loc(), loc.map(|(sw, pt)| Loc::new(sw, pt)));
                        let has_loc = m.fields.iter().any(|&(f, _)| f.is_location());
                        prop_assert_eq!(pk.has_loc(), has_loc);
                        prop_assert_eq!(hash_of(pk), hash_of(m));
                        prop_assert_eq!(format!("{pk:?}"), format!("{m:?}"));
                        prop_assert_eq!(format!("{pk:#?}"), format!("{m:#?}"));
                        prop_assert!(pk.eq_erased(&pk.erase_virtual()), "{:?}", m);
                    }
                    let ([a, b], [ma, mb]) = (&pks, &models);
                    prop_assert_eq!(a == b, ma == mb, "{:?} vs {:?}", ma, mb);
                    prop_assert_eq!(a.cmp(b), ma.cmp(mb), "{:?} vs {:?}", ma, mb);
                    prop_assert_eq!(a.eq_erased(b), a.erase_virtual() == *b);
                    prop_assert_eq!(b.eq_erased(a), b.erase_virtual() == *a);
                }
            }
        }
    }
}
