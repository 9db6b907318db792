//! Hash-consed packet interning: an arena mapping every distinct packet to
//! a dense [`PacketId`].
//!
//! The simulator's hot path used to move owned [`Packet`]s — three clones
//! per hop (trace ingress record, trace egress record, the in-flight copy)
//! — and the per-hop header churn is tiny: a packet crossing a network
//! keeps the same headers at almost every step, and steady-state traffic
//! repeats the same handful of header combinations millions of times. A
//! [`PacketArena`] exploits that redundancy:
//!
//! * every distinct packet is stored **once**; an id is a `u32` index, so
//!   "cloning" a packet is a register copy;
//! * interning an already-seen packet is one fingerprint probe — no
//!   allocation;
//! * the per-hop mutations ([`set_loc`](PacketArena::set_loc),
//!   [`with`](PacketArena::with), [`take_loc`](PacketArena::take_loc)) run
//!   through a reused scratch buffer (the *splice-intern* fast path): the
//!   candidate packet is built in place and only cloned into the arena the
//!   first time it is ever seen.
//!
//! Ids are only meaningful relative to the arena that issued them. By
//! default interning is append-only, so an id, once issued, permanently
//! resolves to the same packet value — recorded ids (e.g. in a trace) stay
//! valid for the lifetime of the arena. An arena with **recycling**
//! enabled ([`enable_recycling`](PacketArena::enable_recycling)) trades
//! that permanence for bounded memory: callers refcount ids
//! ([`retain`](PacketArena::retain) / [`release`](PacketArena::release))
//! and the arena reuses the slots of packets nobody references, so the
//! arena's footprint tracks the packets *live* at any instant rather than
//! every packet ever seen. Recycling is only sound when no id outlives its
//! references — the simulator enables it exactly in stats-only runs, where
//! no trace record retains an id.
//!
//! # Examples
//!
//! ```
//! use netkat::{Field, Loc, Packet, PacketArena};
//! let mut arena = PacketArena::new();
//! let a = arena.intern(Packet::new().with(Field::IpDst, 4));
//! let b = arena.intern(Packet::new().with(Field::IpDst, 4));
//! assert_eq!(a, b); // hash-consed: one slot
//! let moved = arena.set_loc(a, Loc::new(7, 1));
//! assert_eq!(arena.get(moved).loc(), Some(Loc::new(7, 1)));
//! assert_eq!(arena.get(a).loc(), None); // the original id is untouched
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

use crate::field::{Field, Value};
use crate::flowindex::{fp_mix, IdentityHasher, FP_SEED};
use crate::packet::{Loc, Packet};

/// A handle to an interned [`Packet`] — a dense index into the
/// [`PacketArena`] that issued it. Copying an id *is* cloning the packet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(u32);

impl PacketId {
    /// The id as a dense array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The content fingerprint of a packet: every `(field, value)` pair, in the
/// record's canonical sorted order, chained through the SplitMix-style
/// mixer. Two structurally equal packets always fingerprint identically
/// regardless of the insertion order that built them, because [`Packet`]
/// keeps its record sorted.
fn fingerprint(pk: &Packet) -> u64 {
    let mut h = FP_SEED;
    for (f, v) in pk.iter() {
        h = fp_mix(h, f.code());
        h = fp_mix(h, v);
    }
    h
}

/// Interning counters, harvested by the telemetry layer at the end of a
/// run. Hits and misses partition the intern calls (hit rate is
/// `hits / (hits + misses)`); `recycled` counts misses that reused a
/// freed slot instead of growing the arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Intern calls answered by an existing slot.
    pub hits: u64,
    /// Intern calls that stored a new packet.
    pub misses: u64,
    /// Misses served from the recycler's free list.
    pub recycled: u64,
}

/// A hash-consing packet arena (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    /// Interning counters (always on: one add per intern).
    stats: ArenaStats,
    /// The interned packets; a [`PacketId`] indexes this.
    slots: Vec<Packet>,
    /// `fingerprint → first slot carrying it`. A flat map (no per-entry
    /// candidate list) keeps the steady-state probe one lookup and one
    /// content compare; packets whose fingerprint collides with a
    /// *different* packet's go to `collisions` instead.
    index: HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>,
    /// Slots displaced by a genuine 64-bit fingerprint collision —
    /// statistically never populated; linear-scanned for correctness.
    collisions: Vec<u32>,
    /// Reused buffer for building mutation candidates without allocating.
    scratch: Packet,
    /// Refcounted slot reuse (see the module docs); `None` keeps the
    /// default append-only behavior.
    recycler: Option<Recycler>,
}

/// Sentinel refcount marking a freed, reusable slot.
const FREE: u32 = u32::MAX;

/// State for refcounted slot reuse.
#[derive(Clone, Debug, Default)]
struct Recycler {
    /// Per-slot reference count; [`FREE`] marks a freed slot.
    rc: Vec<u32>,
    /// Per-slot fingerprint, so freeing a slot can drop its index entry.
    fp: Vec<u64>,
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
    /// Slots interned since the last [`sweep`](PacketArena::sweep) —
    /// possibly intermediates nobody retained.
    newborns: Vec<u32>,
}

/// Outcome of a content probe.
enum Probe {
    /// Already interned here.
    Hit(PacketId),
    /// Absent; its fingerprint is unclaimed.
    Vacant,
    /// Absent; a different packet owns the fingerprint's index entry.
    Collision,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Creates an empty arena with room for `capacity` distinct packets.
    ///
    /// The arena grows past this freely; the capacity only pre-sizes the
    /// slot vector and the fingerprint map.
    pub fn with_capacity(capacity: usize) -> PacketArena {
        PacketArena {
            stats: ArenaStats::default(),
            slots: Vec::with_capacity(capacity),
            index: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            collisions: Vec::new(),
            scratch: Packet::new(),
            recycler: None,
        }
    }

    /// Switches this (still empty) arena to refcounted slot reuse.
    ///
    /// Afterwards every id a caller wants to keep across interning calls
    /// must be [`retain`](PacketArena::retain)ed, and
    /// [`release`](PacketArena::release)d when done: a slot whose count
    /// reaches zero is freed and its storage reused by a later intern.
    /// Freshly interned ids start at count zero and survive until the next
    /// [`sweep`](PacketArena::sweep), giving callers a window to retain
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if anything has already been interned — recycling cannot
    /// retroactively learn which existing ids are referenced.
    pub fn enable_recycling(&mut self) {
        assert!(self.slots.is_empty(), "enable recycling before interning");
        self.recycler = Some(Recycler::default());
    }

    /// Returns `true` if this arena reuses the slots of unreferenced
    /// packets.
    pub fn recycling(&self) -> bool {
        self.recycler.is_some()
    }

    /// Adds a reference to `id`, keeping its slot live across
    /// [`sweep`](PacketArena::sweep)s. No-op unless recycling is enabled.
    pub fn retain(&mut self, id: PacketId) {
        if let Some(r) = &mut self.recycler {
            debug_assert_ne!(r.rc[id.index()], FREE, "retain of a freed id");
            r.rc[id.index()] += 1;
        }
    }

    /// Drops a reference to `id`; at zero the slot is freed for reuse and
    /// `id` must no longer be resolved. No-op unless recycling is enabled.
    pub fn release(&mut self, id: PacketId) {
        if self.recycler.is_some() {
            let r = self.recycler.as_mut().expect("checked above");
            let rc = &mut r.rc[id.index()];
            debug_assert!(*rc != FREE && *rc > 0, "release without a matching retain");
            *rc -= 1;
            if *rc == 0 {
                self.free_slot(id.index() as u32);
            }
        }
    }

    /// Frees every slot interned since the last sweep that nobody
    /// [`retain`](PacketArena::retain)ed — the intermediates of mutation
    /// chains. Callers with a natural unit of work (the simulator: one
    /// event dispatch) sweep at its end, once all ids worth keeping have
    /// been retained. No-op unless recycling is enabled.
    pub fn sweep(&mut self) {
        let Some(r) = &mut self.recycler else { return };
        if r.newborns.is_empty() {
            return;
        }
        // Handed back emptied, so the list keeps its buffer across sweeps.
        let mut newborns = std::mem::take(&mut r.newborns);
        for i in newborns.drain(..) {
            let rc = self.recycler.as_ref().expect("checked above").rc[i as usize];
            if rc == 0 {
                self.free_slot(i);
            }
        }
        self.recycler.as_mut().expect("checked above").newborns = newborns;
    }

    /// Unindexes slot `i`, empties it — keeping its buffer, so the packet
    /// that reuses the slot is copied in without allocating — and queues it
    /// for reuse.
    fn free_slot(&mut self, i: u32) {
        let r = self.recycler.as_mut().expect("free_slot requires recycling");
        let fp = r.fp[i as usize];
        r.rc[i as usize] = FREE;
        r.free.push(i);
        if self.index.get(&fp) == Some(&i) {
            self.index.remove(&fp);
            // Promote a colliding slot with the same fingerprint (if any)
            // into the index, preserving dedup for its content.
            let r = self.recycler.as_ref().expect("checked above");
            if let Some(pos) = self.collisions.iter().position(|&c| r.fp[c as usize] == fp) {
                let j = self.collisions.swap_remove(pos);
                self.index.insert(fp, j);
            }
        } else if let Some(pos) = self.collisions.iter().position(|&c| c == i) {
            self.collisions.swap_remove(pos);
        }
        self.slots[i as usize].clear();
    }

    /// Number of slots in use — distinct packets interned, or, with
    /// recycling enabled, the high-water mark of simultaneously live
    /// packets (freed slots are counted until reused).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The interning counters accumulated so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Resolves an id to its packet.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn get(&self, id: PacketId) -> &Packet {
        debug_assert!(
            self.recycler.as_ref().is_none_or(|r| r.rc[id.index()] != FREE),
            "resolve of a freed id"
        );
        &self.slots[id.index()]
    }

    /// Content probe for `pk` under fingerprint `fp`.
    ///
    /// Equal content always implies an equal fingerprint, so a packet
    /// absent from both the index entry and the collision list is absent
    /// from the arena.
    fn probe(&self, fp: u64, pk: &Packet) -> Probe {
        match self.index.get(&fp) {
            None => Probe::Vacant,
            Some(&i) if self.slots[i as usize] == *pk => Probe::Hit(PacketId(i)),
            Some(_) => {
                for &i in &self.collisions {
                    if self.slots[i as usize] == *pk {
                        return Probe::Hit(PacketId(i));
                    }
                }
                Probe::Collision
            }
        }
    }

    /// Claims the slot for a packet (already known absent) with
    /// fingerprint `fp` — a freed slot when recycling has one, else a new
    /// empty one — and indexes it; the caller fills it.
    fn claim(&mut self, fp: u64, probe: Probe) -> u32 {
        let reused = self.recycler.as_mut().and_then(|r| r.free.pop());
        self.stats.misses += 1;
        self.stats.recycled += reused.is_some() as u64;
        let i = reused.unwrap_or_else(|| {
            let i = u32::try_from(self.slots.len()).expect("arena holds at most 2^32 packets");
            self.slots.push(Packet::new());
            i
        });
        if let Some(r) = &mut self.recycler {
            if (i as usize) == r.rc.len() {
                r.rc.push(0);
                r.fp.push(fp);
            } else {
                r.rc[i as usize] = 0;
                r.fp[i as usize] = fp;
            }
            r.newborns.push(i);
        }
        match probe {
            Probe::Vacant => {
                self.index.insert(fp, i);
            }
            Probe::Collision => self.collisions.push(i),
            Probe::Hit(_) => unreachable!("claim is only reached on a miss"),
        }
        i
    }

    /// Interns an owned packet, returning the id of its unique slot.
    pub fn intern(&mut self, pk: Packet) -> PacketId {
        let fp = fingerprint(&pk);
        match self.probe(fp, &pk) {
            Probe::Hit(id) => {
                self.stats.hits += 1;
                id
            }
            miss => {
                let i = self.claim(fp, miss);
                self.slots[i as usize] = pk;
                PacketId(i)
            }
        }
    }

    /// Interns by reference: the packet is only copied the first time it is
    /// seen, and into a recycled slot's kept buffer when there is one.
    pub fn intern_ref(&mut self, pk: &Packet) -> PacketId {
        let fp = fingerprint(pk);
        match self.probe(fp, pk) {
            Probe::Hit(id) => {
                self.stats.hits += 1;
                id
            }
            miss => {
                let i = self.claim(fp, miss);
                self.slots[i as usize].clone_from(pk);
                PacketId(i)
            }
        }
    }

    /// Interns the scratch buffer, copying it only on a miss.
    fn intern_scratch(&mut self) -> PacketId {
        let scratch = std::mem::take(&mut self.scratch);
        let id = self.intern_ref(&scratch);
        self.scratch = scratch;
        id
    }

    /// Returns the id of `get(id)` moved to `loc` (the paper's
    /// `pkt[sw:pt ← loc]`). The original id still resolves to the original
    /// packet.
    ///
    /// This is the splice-intern fast path: the candidate is built in the
    /// reused scratch buffer via [`Packet::set_loc`]'s front-splice, so the
    /// steady-state cost (candidate already interned) is one copy into
    /// scratch plus one fingerprint probe — no allocation.
    pub fn set_loc(&mut self, id: PacketId, loc: Loc) -> PacketId {
        self.scratch.clone_from(&self.slots[id.index()]);
        self.scratch.set_loc(loc);
        self.intern_scratch()
    }

    /// Returns the id of `get(id)` with `field` set to `value`; the
    /// original id is untouched. Same scratch-buffer fast path as
    /// [`set_loc`](PacketArena::set_loc).
    pub fn with(&mut self, id: PacketId, field: Field, value: Value) -> PacketId {
        self.scratch.clone_from(&self.slots[id.index()]);
        self.scratch.set(field, value);
        self.intern_scratch()
    }

    /// Returns the id of `get(id)` with both location fields removed, plus
    /// the removed `(switch, port)` values — the per-hop inverse of
    /// [`set_loc`](PacketArena::set_loc). The original id is untouched.
    pub fn take_loc(&mut self, id: PacketId) -> (PacketId, Option<Value>, Option<Value>) {
        self.scratch.clone_from(&self.slots[id.index()]);
        let (sw, pt) = self.scratch.take_loc();
        (self.intern_scratch(), sw, pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_ids_resolve() {
        let mut arena = PacketArena::new();
        let a = arena.intern(Packet::new().with(Field::IpDst, 1));
        let b = arena.intern(Packet::new().with(Field::IpDst, 2));
        let c = arena.intern(Packet::new().with(Field::IpDst, 1));
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a).get(Field::IpDst), Some(1));
        assert_eq!(arena.get(b).get(Field::IpDst), Some(2));
        // By-reference interning agrees with by-value interning.
        assert_eq!(arena.intern_ref(&Packet::new().with(Field::IpDst, 2)), b);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn field_order_canonicalization() {
        // The same record built in different insertion orders interns to
        // one id: packets keep their fields sorted, and the fingerprint
        // walks the sorted record.
        let mut arena = PacketArena::new();
        let a = arena.intern(Packet::new().with(Field::IpDst, 4).with(Field::Vlan, 2));
        let b = arena.intern(Packet::new().with(Field::Vlan, 2).with(Field::IpDst, 4));
        let c = arena.intern([(Field::Vlan, 2), (Field::IpDst, 4)].into_iter().collect::<Packet>());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn set_loc_splice_intern() {
        let mut arena = PacketArena::new();
        let base = arena.intern(Packet::new().with(Field::IpDst, 9));
        let at1 = arena.set_loc(base, Loc::new(1, 1));
        assert_eq!(arena.get(at1).loc(), Some(Loc::new(1, 1)));
        assert_eq!(arena.get(at1).get(Field::IpDst), Some(9));
        // Original id untouched; re-splicing the same location is a hit.
        assert_eq!(arena.get(base).loc(), None);
        assert_eq!(arena.set_loc(base, Loc::new(1, 1)), at1);
        assert_eq!(arena.len(), 2);
        // Moving an already-located packet replaces, not accumulates.
        let at2 = arena.set_loc(at1, Loc::new(2, 3));
        assert_eq!(arena.get(at2).loc(), Some(Loc::new(2, 3)));
        assert_eq!(arena.get(at2).len(), 3);
        // And interning the equivalent owned packet lands on the same slot.
        let owned = Packet::new().with(Field::IpDst, 9);
        let mut located = owned.clone();
        located.set_loc(Loc::new(2, 3));
        assert_eq!(arena.intern(located), at2);
    }

    #[test]
    fn with_writes_one_field() {
        let mut arena = PacketArena::new();
        let a = arena.intern(Packet::new().with(Field::Vlan, 1));
        let b = arena.with(a, Field::Vlan, 2);
        let c = arena.with(a, Field::IpSrc, 5);
        assert_eq!(arena.get(b).get(Field::Vlan), Some(2));
        assert_eq!(arena.get(c).get(Field::Vlan), Some(1));
        assert_eq!(arena.get(c).get(Field::IpSrc), Some(5));
        // Overwriting with the current value is the identity.
        assert_eq!(arena.with(a, Field::Vlan, 1), a);
    }

    #[test]
    fn ids_stable_across_take_loc() {
        let mut arena = PacketArena::new();
        let located = arena.intern(Packet::at(Loc::new(4, 7)).with(Field::IpDst, 2));
        let (bare, sw, pt) = arena.take_loc(located);
        assert_eq!((sw, pt), (Some(4), Some(7)));
        assert_eq!(arena.get(bare).loc(), None);
        assert_eq!(arena.get(bare).get(Field::IpDst), Some(2));
        // The located id still resolves to the located packet, and the
        // round trip lands back on it.
        assert_eq!(arena.get(located).loc(), Some(Loc::new(4, 7)));
        assert_eq!(arena.set_loc(bare, Loc::new(4, 7)), located);
        // take_loc on an unlocated packet is the identity.
        assert_eq!(arena.take_loc(bare), (bare, None, None));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn growth_past_initial_capacity() {
        let mut arena = PacketArena::with_capacity(2);
        let ids: Vec<PacketId> =
            (0..300).map(|v| arena.intern(Packet::new().with(Field::IpDst, v))).collect();
        assert_eq!(arena.len(), 300);
        // Every id issued before the growth still resolves correctly, and
        // re-interning is a hit everywhere.
        for (v, &id) in ids.iter().enumerate() {
            assert_eq!(arena.get(id).get(Field::IpDst), Some(v as u64));
            assert_eq!(arena.intern(Packet::new().with(Field::IpDst, v as u64)), id);
        }
        assert_eq!(arena.len(), 300);
    }

    #[test]
    fn recycling_reuses_unreferenced_slots() {
        let mut arena = PacketArena::new();
        arena.enable_recycling();
        assert!(arena.recycling());
        let a = arena.intern(Packet::new().with(Field::IpDst, 1));
        arena.retain(a);
        // An unretained newborn is reclaimed by the sweep...
        let tmp = arena.intern(Packet::new().with(Field::IpDst, 2));
        assert_eq!(arena.len(), 2);
        arena.sweep();
        // ...and its slot is reused by the next insert.
        let b = arena.intern(Packet::new().with(Field::IpDst, 3));
        assert_eq!(b, tmp);
        assert_eq!(arena.len(), 2);
        arena.retain(b);
        arena.sweep();
        // Retained ids survive sweeps and still dedup.
        assert_eq!(arena.intern(Packet::new().with(Field::IpDst, 1)), a);
        assert_eq!(arena.intern(Packet::new().with(Field::IpDst, 3)), b);
        assert_eq!(arena.get(a).get(Field::IpDst), Some(1));
        // Releasing the last reference frees the slot immediately: the
        // content is forgotten (a re-intern claims the slot afresh) and
        // the storage is reused.
        arena.release(b);
        let c = arena.intern(Packet::new().with(Field::IpDst, 4));
        assert_eq!(c.index(), b.index());
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn recycling_bounds_a_mutation_chain() {
        // The simulator's per-hop lifecycle — retain the output, release
        // the input, sweep the intermediates — keeps the arena at the
        // number of live packets, however long the chain runs.
        let mut arena = PacketArena::new();
        arena.enable_recycling();
        let mut id = arena.intern(Packet::new().with(Field::IpDst, 9));
        arena.retain(id);
        arena.sweep();
        for hop in 0..10_000u64 {
            let moved = arena.set_loc(id, Loc::new(hop % 64, hop % 4));
            arena.retain(moved);
            arena.release(id);
            arena.sweep();
            id = moved;
        }
        assert_eq!(arena.get(id).loc(), Some(Loc::new(9_999 % 64, 9_999 % 4)));
        assert_eq!(arena.get(id).get(Field::IpDst), Some(9));
        assert!(arena.len() <= 2, "arena grew with chain length: {} slots", arena.len());
    }

    #[test]
    fn recycling_off_is_append_only() {
        // Without recycling, retain/release/sweep are no-ops and slots are
        // permanent — the default contract traces rely on.
        let mut arena = PacketArena::new();
        assert!(!arena.recycling());
        let a = arena.intern(Packet::new().with(Field::IpDst, 5));
        arena.retain(a);
        arena.release(a);
        arena.release(a);
        arena.sweep();
        assert_eq!(arena.get(a).get(Field::IpDst), Some(5));
        assert_eq!(arena.intern(Packet::new().with(Field::IpDst, 5)), a);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn empty_packet_interns() {
        let mut arena = PacketArena::new();
        assert!(arena.is_empty());
        let a = arena.intern(Packet::new());
        assert_eq!(arena.intern(Packet::new()), a);
        assert!(arena.get(a).is_empty());
        assert!(!arena.is_empty());
    }
}
