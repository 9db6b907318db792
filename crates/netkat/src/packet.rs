//! Packets and network locations.

use std::fmt;

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
    fn read(&self, field: Field) -> Option<Value> {
        match field {
            Field::Tag if self.tag.is_some() => self.tag,
            _ => self.base.get(field),
        }
    }
}

/// A packet: a record of numeric header fields.
///
/// Fields that are absent behave as *wildcards have no value*: a test on an
/// absent field fails. The location fields [`Field::Switch`] and
/// [`Field::Port`] are stored like any other field, which is what makes the
/// standard NetKAT semantics (where `sw` and `pt` are ordinary fields)
/// straightforward.
///
/// Internally the record is a `Vec` of `(field, value)` pairs kept sorted
/// by field and duplicate-free: packets hold at most a dozen fields, and
/// the simulator clones them on every trace step, so one flat allocation
/// beats a node-per-field tree. The derived `Ord`/`Hash` compare the same
/// sorted pair sequence a `BTreeMap` would iterate, so observable ordering
/// (e.g. of `BTreeSet<Packet>` outputs) is unchanged.
///
/// # Examples
///
/// ```
/// use netkat::{Field, Packet};
/// let pk = Packet::new().with(Field::IpDst, 4).with(Field::Port, 2);
/// assert_eq!(pk.get(Field::IpDst), Some(4));
/// assert_eq!(pk.get(Field::IpSrc), None);
/// ```
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Packet {
    fields: Vec<(Field, Value)>,
}

impl Clone for Packet {
    fn clone(&self) -> Packet {
        Packet { fields: self.fields.clone() }
    }

    /// Reuses the destination's allocation — the packet arena's scratch
    /// buffer leans on this to stay allocation-free in steady state.
    fn clone_from(&mut self, source: &Packet) {
        self.fields.clone_from(&source.fields);
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

    /// Locates `field` in the sorted record. A packet holds at most a
    /// dozen fields, so a forward scan with a sorted early exit beats
    /// binary search's unpredictable branches — and the simulator's
    /// hottest reads ([`Field::Switch`], [`Field::Port`]) sort first, so
    /// they resolve on the first compare.
    fn position(&self, field: Field) -> Result<usize, usize> {
        for (i, &(f, _)) in self.fields.iter().enumerate() {
            if f == field {
                return Ok(i);
            }
            if f > field {
                return Err(i);
            }
        }
        Err(self.fields.len())
    }

    /// Returns the value of `field`, or `None` if unset.
    pub fn get(&self, field: Field) -> Option<Value> {
        self.position(field).ok().map(|i| self.fields[i].1)
    }

    /// Sets `field` to `value` in place (the paper's `pkt[f ← n]`).
    pub fn set(&mut self, field: Field, value: Value) {
        match self.position(field) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (field, value)),
        }
    }

    /// Removes `field` from the packet, returning its previous value.
    pub fn unset(&mut self, field: Field) -> Option<Value> {
        self.position(field).ok().map(|i| self.fields.remove(i).1)
    }

    /// Builder-style [`set`](Packet::set).
    pub fn with(mut self, field: Field, value: Value) -> Packet {
        self.set(field, value);
        self
    }

    /// Returns the packet's location, if both `Switch` and `Port` are set.
    pub fn loc(&self) -> Option<Loc> {
        Some(Loc::new(self.get(Field::Switch)?, self.get(Field::Port)?))
    }

    /// Moves the packet to `loc`.
    ///
    /// The location fields sort before every header field, so on the
    /// simulator's per-hop path they are either both already in the first
    /// two slots (update in place) or both absent (one front splice).
    pub fn set_loc(&mut self, loc: Loc) {
        match (self.fields.first().map(|&(f, _)| f), self.fields.get(1).map(|&(f, _)| f)) {
            (Some(Field::Switch), Some(Field::Port)) => {
                self.fields[0].1 = loc.sw;
                self.fields[1].1 = loc.pt;
            }
            (Some(Field::Switch), _) | (Some(Field::Port), _) => {
                self.set(Field::Switch, loc.sw);
                self.set(Field::Port, loc.pt);
            }
            _ => {
                self.fields.splice(0..0, [(Field::Switch, loc.sw), (Field::Port, loc.pt)]);
            }
        }
    }

    /// Removes both location fields in one front-of-record pass, returning
    /// their values — the per-hop inverse of [`set_loc`](Packet::set_loc)
    /// (links, not tables, decide the next location).
    pub fn take_loc(&mut self) -> (Option<Value>, Option<Value>) {
        let mut sw = None;
        let mut pt = None;
        let mut strip = 0;
        for &(f, v) in self.fields.iter().take(2) {
            match f {
                Field::Switch => sw = Some(v),
                Field::Port => pt = Some(v),
                _ => break,
            }
            strip += 1;
        }
        if strip > 0 {
            self.fields.drain(..strip);
        }
        (sw, pt)
    }

    /// Iterates over the `(field, value)` pairs in field order.
    pub fn iter(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        self.fields.iter().copied()
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
    /// `erased`, decided in one pass and without the copy: the online
    /// checker asks this of every hop, and on most the answer is yes.
    pub fn eq_erased(&self, erased: &Packet) -> bool {
        let kept = self.fields.iter().filter(|(f, _)| !matches!(f, Field::Tag | Field::Digest));
        kept.eq(&erased.fields)
    }

    /// Whether the packet carries a location field of its own. They sort
    /// first, so this reads one slot.
    pub fn has_loc(&self) -> bool {
        matches!(self.fields.first(), Some((Field::Switch | Field::Port, _)))
    }

    /// Unsets every field, keeping the record's buffer for reuse.
    pub fn clear(&mut self) {
        self.fields.clear();
    }

    /// Number of fields set.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if no fields are set.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl FieldReader for Packet {
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
        }
    }
}
