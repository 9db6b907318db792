//! Packet interning: an arena mapping packets to dense [`PacketId`]s, in
//! one of two modes.
//!
//! The simulator's hot path used to move owned [`Packet`]s — three clones
//! per hop (trace ingress record, trace egress record, the in-flight copy).
//! A [`PacketArena`] stores a packet once and hands out a `u32` index, so
//! "cloning" a packet is a register copy. Ids are only meaningful relative
//! to the arena that issued them.
//!
//! **Append-only (the default) — hash-consed.** Every distinct packet is
//! stored once: interning fingerprints the packet, probes a flat map, and
//! answers an already-seen packet with its existing id — no allocation. An
//! id, once issued, permanently resolves to the same packet value, so
//! recorded ids (e.g. in a trace) stay valid for the lifetime of the arena,
//! and the dedup is what keeps a recorded run's arena at the number of
//! *distinct* packets.
//!
//! **Recycling ([`enable_recycling`](PacketArena::enable_recycling)) — a
//! refcounted slab.** Callers refcount ids ([`retain`](PacketArena::retain)
//! / [`release`](PacketArena::release)) and the arena reuses the slots of
//! packets nobody references, so its footprint tracks the packets *live* at
//! any instant rather than every packet ever seen. Interning claims a free
//! slot and fills it, nothing more: no fingerprint, no probe, no index
//! entry, so equal content interned twice occupies two slots. Dedup would
//! buy nothing here — an id lives for a hop or two, every streamed datagram
//! is a distinct `(flow, seq)`, and the hit counter read 0 on every
//! recycling run measured (ARCHITECTURE.md, *Where a hop's time goes*) —
//! while the fingerprint, probe, insert and remove-on-free were paid on
//! every intern. Recycling is only sound when no id outlives its references
//! — the simulator enables it exactly in stats-only runs, where no trace
//! record retains an id.
//!
//! # Examples
//!
//! ```
//! use netkat::{Field, Packet, PacketArena};
//! let mut arena = PacketArena::new();
//! let a = arena.intern(Packet::new().with(Field::IpDst, 4));
//! let b = arena.intern_ref(&Packet::new().with(Field::IpDst, 4));
//! assert_eq!(a, b); // hash-consed: one slot
//! assert_eq!(arena.get(a).get(Field::IpDst), Some(4));
//!
//! let mut slab = PacketArena::new();
//! slab.enable_recycling();
//! let tmp = slab.intern(Packet::new().with(Field::IpDst, 4));
//! slab.sweep(); // nobody retained `tmp`: its slot is free again
//! let next = slab.intern(Packet::new().with(Field::IpDst, 5));
//! assert_eq!(next.index(), tmp.index());
//! assert_eq!(slab.len(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

use crate::flowindex::{fp_mix, IdentityHasher, FP_SEED};
use crate::packet::Packet;

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
/// `hits / (hits + misses)`; a recycling arena does not look for hits, so
/// every intern is a miss there); `recycled` counts misses that reused a
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

/// A packet arena: hash-consing while append-only, a refcounted slab once
/// recycling is enabled (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    /// Interning counters (always on: one add per intern).
    stats: ArenaStats,
    /// The interned packets; a [`PacketId`] indexes this.
    slots: Vec<Packet>,
    /// `fingerprint → first slot carrying it`; append-only arenas only. A
    /// flat map (no per-entry candidate list) keeps the steady-state probe
    /// one lookup and one content compare; packets whose fingerprint
    /// collides with a *different* packet's go to `collisions` instead.
    index: HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>,
    /// Slots displaced by a genuine 64-bit fingerprint collision —
    /// statistically never populated; linear-scanned for correctness.
    collisions: Vec<u32>,
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
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
    /// Slots interned since the last [`sweep`](PacketArena::sweep) —
    /// possibly intermediates nobody retained.
    newborns: Vec<u32>,
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

    /// Empties slot `i` — keeping its buffer, so the packet that reuses the
    /// slot is copied in without allocating — and queues it for reuse.
    fn free_slot(&mut self, i: u32) {
        let r = self.recycler.as_mut().expect("free_slot requires recycling");
        r.rc[i as usize] = FREE;
        r.free.push(i);
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

    /// Claims an empty slot for the caller to fill — a freed one when
    /// recycling has one, else a new one.
    fn claim(&mut self) -> u32 {
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
            } else {
                r.rc[i as usize] = 0;
            }
            r.newborns.push(i);
        }
        i
    }

    /// Where `pk` goes: `Ok` with the id an append-only arena already holds
    /// it under, else `Err` with a claimed, empty slot for the caller to
    /// fill. A recycling arena always claims.
    ///
    /// Equal content always implies an equal fingerprint, so a packet
    /// absent from both the index entry and the collision list (every member
    /// of which shares its fingerprint with some index entry) is absent from
    /// the arena.
    fn place(&mut self, pk: &Packet) -> Result<PacketId, u32> {
        if self.recycler.is_some() {
            return Err(self.claim());
        }
        let fp = fingerprint(pk);
        let first = self.index.get(&fp).copied();
        let held = |&i: &u32| self.slots[i as usize] == *pk;
        if let Some(i) = first.into_iter().chain(self.collisions.iter().copied()).find(held) {
            self.stats.hits += 1;
            return Ok(PacketId(i));
        }
        let i = self.claim();
        if first.is_some() {
            self.collisions.push(i);
        } else {
            self.index.insert(fp, i);
        }
        Err(i)
    }

    /// Interns an owned packet. An append-only arena returns the id of the
    /// packet's unique slot; a recycling arena always fills a slot of its
    /// own.
    pub fn intern(&mut self, pk: Packet) -> PacketId {
        self.place(&pk).unwrap_or_else(|i| {
            self.slots[i as usize] = pk;
            PacketId(i)
        })
    }

    /// Interns by reference: the packet is copied only when it takes a new
    /// slot, and into a recycled slot's kept buffer when there is one.
    pub fn intern_ref(&mut self, pk: &Packet) -> PacketId {
        self.place(pk).unwrap_or_else(|i| {
            self.slots[i as usize].clone_from(pk);
            PacketId(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::packet::Loc;

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
        // Retained ids survive sweeps and resolve to what they were given.
        assert_eq!(arena.get(a).get(Field::IpDst), Some(1));
        assert_eq!(arena.get(b).get(Field::IpDst), Some(3));
        // A recycling arena is a slab, not a hash-cons table: content equal
        // to a live slot's takes a slot of its own, and both resolve.
        let twin = arena.intern_ref(&Packet::new().with(Field::IpDst, 1));
        assert_ne!(twin, a);
        assert_eq!(arena.get(twin), arena.get(a));
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.stats(), ArenaStats { hits: 0, misses: 4, recycled: 1 });
        arena.sweep();
        // Releasing the last reference frees the slot immediately and the
        // storage is reused (most recently freed first).
        arena.release(b);
        let c = arena.intern(Packet::new().with(Field::IpDst, 4));
        assert_eq!(c.index(), b.index());
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.get(a).get(Field::IpDst), Some(1));
    }

    #[test]
    fn recycling_bounds_a_mutation_chain() {
        // The simulator's per-hop lifecycle — intern the rewritten packet,
        // retain it, release the input, sweep — keeps the arena at the
        // number of live packets, however long the chain runs.
        let mut arena = PacketArena::new();
        arena.enable_recycling();
        let mut id = arena.intern(Packet::new().with(Field::IpDst, 9));
        arena.retain(id);
        arena.sweep();
        let mut moved = Packet::new();
        for hop in 0..10_000u64 {
            moved.clone_from(arena.get(id));
            moved.set_loc(Loc::new(hop % 64, hop % 4));
            let next = arena.intern_ref(&moved);
            arena.retain(next);
            arena.release(id);
            arena.sweep();
            id = next;
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

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::field::Field;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One step of a recycling arena's life. Indices pick among the ids the
    /// model holds live, modulo how many there are.
    #[derive(Clone, Debug)]
    enum Op {
        Intern(u64),
        InternRef(u64),
        Retain(usize),
        Release(usize),
        Sweep,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Few distinct contents, so equal packets are live together often.
        prop_oneof![
            (0u64..4).prop_map(Op::Intern),
            (0u64..4).prop_map(Op::InternRef),
            (0usize..64).prop_map(Op::Retain),
            (0usize..64).prop_map(Op::Release),
            Just(Op::Sweep),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A recycling arena against a `HashMap<id, (Packet, rc)>` model:
        /// every live id resolves to its content whatever was interned,
        /// freed and reused around it, and the arena never holds more slots
        /// than the model's live high-water mark.
        #[test]
        fn recycling_arena_matches_a_refcount_model(
            ops in proptest::collection::vec(arb_op(), 1..200),
        ) {
            let mut arena = PacketArena::new();
            arena.enable_recycling();
            // Live ids: retained ones, plus newborns not yet swept.
            let mut model: HashMap<PacketId, (Packet, u32)> = HashMap::new();
            let mut newborns: Vec<PacketId> = Vec::new();
            let mut live_hw = 0usize;
            let mut interns = 0u64;
            for op in ops {
                let mut ids: Vec<PacketId> = model.keys().copied().collect();
                ids.sort();
                match op {
                    Op::Intern(v) | Op::InternRef(v) => {
                        let pk = Packet::new().with(Field::IpDst, v);
                        let id = match op {
                            Op::Intern(_) => arena.intern(pk.clone()),
                            _ => arena.intern_ref(&pk),
                        };
                        interns += 1;
                        prop_assert!(!model.contains_key(&id), "a live slot was handed out again");
                        model.insert(id, (pk, 0));
                        newborns.push(id);
                    }
                    Op::Retain(k) if !ids.is_empty() => {
                        let id = ids[k % ids.len()];
                        arena.retain(id);
                        model.get_mut(&id).expect("live").1 += 1;
                    }
                    Op::Release(k) if !ids.is_empty() => {
                        let id = ids[k % ids.len()];
                        let rc = &mut model.get_mut(&id).expect("live").1;
                        if *rc > 0 {
                            arena.release(id);
                            *rc -= 1;
                            if *rc == 0 {
                                model.remove(&id);
                                newborns.retain(|&n| n != id);
                            }
                        }
                    }
                    Op::Sweep => {
                        arena.sweep();
                        for id in newborns.drain(..) {
                            if model[&id].1 == 0 {
                                model.remove(&id);
                            }
                        }
                    }
                    Op::Retain(_) | Op::Release(_) => {}
                }
                live_hw = live_hw.max(model.len());
                for (&id, (pk, _)) in &model {
                    prop_assert_eq!(arena.get(id), pk, "{} lost its content", id);
                }
                prop_assert!(
                    arena.len() <= live_hw,
                    "{} slots for a live high-water mark of {}", arena.len(), live_hw
                );
                let stats = arena.stats();
                prop_assert_eq!((stats.hits, stats.misses), (0, interns));
                prop_assert_eq!(stats.misses - stats.recycled, arena.len() as u64);
            }
        }
    }
}
