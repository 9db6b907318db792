//! Packet interning: a refcounted slab mapping packets to dense
//! [`PacketId`]s.
//!
//! The simulator's hot path used to move owned [`Packet`]s — three clones
//! per hop (trace ingress record, trace egress record, the in-flight copy).
//! A [`PacketArena`] stores a packet once and hands out a `u32` index, so
//! "cloning" a packet is a register copy. Ids are only meaningful relative
//! to the arena that issued them.
//!
//! Callers refcount ids ([`retain`](PacketArena::retain) /
//! [`release`](PacketArena::release)) and the arena reuses the slots of
//! packets nobody references, so its footprint tracks the packets *live* at
//! any instant rather than every packet ever seen. A trace record that
//! retains its id keeps it live for good. Interning claims a free slot and
//! fills it, nothing more: no fingerprint, no probe, no index entry, so
//! equal content interned twice occupies two slots. Dedup would buy little
//! — an in-flight id lives for a hop or two, every streamed datagram is a
//! distinct `(flow, seq)`, and on the figure bins, the one place it hit, it
//! saved a few hundred slots (ARCHITECTURE.md, *The packet arena*) — while
//! a fingerprint, a probe and an insert were paid on every intern.
//!
//! The refcount, sweep and intern calls are `#[inline]`, as the packet
//! accessors are: the simulator makes them on every event, from another
//! crate.
//!
//! # Examples
//!
//! ```
//! use netkat::{Field, Packet, PacketArena};
//! let mut arena = PacketArena::new();
//! let kept = arena.intern(Packet::new().with(Field::IpDst, 4));
//! arena.retain(kept);
//! let tmp = arena.intern_ref(&Packet::new().with(Field::IpDst, 4));
//! assert_ne!(kept, tmp); // a slab, not a hash-cons table: two slots
//! arena.sweep(); // nobody retained `tmp`: its slot is free again
//! let next = arena.intern(Packet::new().with(Field::IpDst, 5));
//! assert_eq!(next, tmp);
//! assert_eq!(arena.len(), 2);
//! assert_eq!(arena.get(kept).get(Field::IpDst), Some(4));
//! ```

use std::fmt;

use crate::packet::Packet;

/// A handle to an interned [`Packet`] — a dense index into the
/// [`PacketArena`] that issued it. Copying an id *is* cloning the packet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(u32);

impl PacketId {
    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Interning counters, harvested by the telemetry layer at the end of a
/// run: `misses` counts intern calls (every one stores a packet), and
/// `recycled` the ones that reused a freed slot instead of growing the
/// arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Intern calls, each of which stored a packet.
    pub misses: u64,
    /// Intern calls served from the free list.
    pub recycled: u64,
}

/// A packet arena: a refcounted slab (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    /// Interning counters (always on: one add per intern).
    stats: ArenaStats,
    /// The interned packets; a [`PacketId`] indexes this.
    slots: Vec<Packet>,
    /// Per-slot reference count; [`FREE`] marks a freed slot.
    rc: Vec<u32>,
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
    /// Slots interned since the last [`sweep`](PacketArena::sweep) —
    /// possibly intermediates nobody retained.
    newborns: Vec<u32>,
}

/// Sentinel refcount marking a freed, reusable slot.
const FREE: u32 = u32::MAX;

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Adds a reference to `id`, keeping its slot live across
    /// [`sweep`](PacketArena::sweep)s.
    #[inline]
    pub fn retain(&mut self, id: PacketId) {
        debug_assert_ne!(self.rc[id.index()], FREE, "retain of a freed id");
        self.rc[id.index()] += 1;
    }

    /// Drops a reference to `id`; at zero the slot is freed for reuse and
    /// `id` must no longer be resolved.
    #[inline]
    pub fn release(&mut self, id: PacketId) {
        let rc = &mut self.rc[id.index()];
        debug_assert!(*rc != FREE && *rc > 0, "release without a matching retain");
        *rc -= 1;
        if *rc == 0 {
            self.free_slot(id.index() as u32);
        }
    }

    /// Frees every slot interned since the last sweep that nobody
    /// [`retain`](PacketArena::retain)ed — the intermediates of mutation
    /// chains. Callers with a natural unit of work (the simulator: one
    /// event dispatch) sweep at its end, once all ids worth keeping have
    /// been retained.
    #[inline]
    pub fn sweep(&mut self) {
        // An index loop keeps this small enough to inline into each
        // engine's dispatch (`free_slot` leaves the list alone), and
        // `clear` keeps the list's buffer.
        for k in 0..self.newborns.len() {
            let i = self.newborns[k];
            if self.rc[i as usize] == 0 {
                self.free_slot(i);
            }
        }
        self.newborns.clear();
    }

    /// Queues slot `i` for reuse. Its packet is left as it is: the intern
    /// that reuses the slot overwrites every field, and a recycled slot's
    /// kept side list is what lets that copy go without allocating.
    #[inline]
    fn free_slot(&mut self, i: u32) {
        self.rc[i as usize] = FREE;
        self.free.push(i);
    }

    /// Number of slots: the high-water mark of simultaneously live packets
    /// (freed slots are counted until reused).
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
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        debug_assert_ne!(self.rc[id.index()], FREE, "resolve of a freed id");
        &self.slots[id.index()]
    }

    /// Claims a slot for the caller to overwrite — a freed one when there
    /// is one, else a new one — at count zero, until the next sweep.
    #[inline]
    fn claim(&mut self) -> usize {
        self.stats.misses += 1;
        let i = match self.free.pop() {
            Some(i) => {
                self.stats.recycled += 1;
                self.rc[i as usize] = 0;
                i
            }
            None => self.grow(),
        };
        self.newborns.push(i);
        i as usize
    }

    /// Appends a new empty slot at count zero: `claim`'s rare path, kept
    /// out of line so the common one inlines small.
    fn grow(&mut self) -> u32 {
        let i = u32::try_from(self.slots.len()).expect("arena holds at most 2^32 packets");
        self.slots.push(Packet::new());
        self.rc.push(0);
        i
    }

    /// Interns an owned packet into a slot of its own.
    #[inline]
    pub fn intern(&mut self, pk: Packet) -> PacketId {
        let i = self.claim();
        self.slots[i] = pk;
        PacketId(i as u32)
    }

    /// Interns by reference: the packet is copied over a recycled slot's
    /// stale one when there is one. Always inlined: with the packet's
    /// fixed-size copy in its body, the hint alone left it a call of its
    /// own on every hop that changes a packet and every streamed datagram.
    #[inline(always)]
    pub fn intern_ref(&mut self, pk: &Packet) -> PacketId {
        let i = self.claim();
        self.slots[i].clone_from(pk);
        PacketId(i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::packet::Loc;

    #[test]
    fn growth_past_initial_capacity() {
        let mut arena = PacketArena::new();
        let ids: Vec<PacketId> =
            (0..300).map(|v| arena.intern(Packet::new().with(Field::IpDst, v))).collect();
        assert_eq!(arena.len(), 300);
        // Every id issued before the growth still resolves correctly.
        for (v, &id) in ids.iter().enumerate() {
            assert_eq!(arena.get(id).get(Field::IpDst), Some(v as u64));
        }
    }

    #[test]
    fn recycling_reuses_unreferenced_slots() {
        let mut arena = PacketArena::new();
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
        // A slab, not a hash-cons table: content equal to a live slot's
        // takes a slot of its own, and both resolve.
        let twin = arena.intern_ref(&Packet::new().with(Field::IpDst, 1));
        assert_ne!(twin, a);
        assert_eq!(arena.get(twin), arena.get(a));
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.stats(), ArenaStats { misses: 4, recycled: 1 });
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
    fn empty_packet_interns() {
        let mut arena = PacketArena::new();
        assert!(arena.is_empty());
        let a = arena.intern(Packet::new());
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

    /// One step of an arena's life. Indices pick among the ids the model
    /// holds live, modulo how many there are.
    #[derive(Clone, Debug)]
    enum Op {
        Intern(u64),
        InternRef(u64),
        Retain(usize),
        /// A retain never released, the way a trace record holds its id.
        Keep(usize),
        Release(usize),
        Sweep,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Few distinct contents, so equal packets are live together often.
        prop_oneof![
            (0u64..4).prop_map(Op::Intern),
            (0u64..4).prop_map(Op::InternRef),
            (0usize..64).prop_map(Op::Retain),
            (0usize..64).prop_map(Op::Keep),
            (0usize..64).prop_map(Op::Release),
            Just(Op::Sweep),
        ]
    }

    /// A live id in the model: its content, its count, and how much of
    /// that count is kept for good.
    struct Live {
        pk: Packet,
        rc: u32,
        kept: u32,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The arena against a `HashMap<id, Live>` model: every live id
        /// resolves to its content whatever was interned, freed and reused
        /// around it, a kept id stays live across every later sweep and
        /// reuse, and the arena never holds more slots than the model's
        /// live high-water mark.
        #[test]
        fn recycling_arena_matches_a_refcount_model(
            ops in proptest::collection::vec(arb_op(), 1..200),
        ) {
            let mut arena = PacketArena::new();
            // Live ids: retained ones, plus newborns not yet swept.
            let mut model: HashMap<PacketId, Live> = HashMap::new();
            let mut newborns: Vec<PacketId> = Vec::new();
            let mut kept: Vec<(PacketId, Packet)> = Vec::new();
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
                        model.insert(id, Live { pk, rc: 0, kept: 0 });
                        newborns.push(id);
                    }
                    Op::Retain(k) | Op::Keep(k) if !ids.is_empty() => {
                        let id = ids[k % ids.len()];
                        arena.retain(id);
                        let live = model.get_mut(&id).expect("live");
                        live.rc += 1;
                        if matches!(op, Op::Keep(_)) {
                            live.kept += 1;
                            kept.push((id, live.pk.clone()));
                        }
                    }
                    Op::Release(k) if !ids.is_empty() => {
                        let id = ids[k % ids.len()];
                        let live = model.get_mut(&id).expect("live");
                        if live.rc > live.kept {
                            arena.release(id);
                            live.rc -= 1;
                            if live.rc == 0 {
                                model.remove(&id);
                                newborns.retain(|&n| n != id);
                            }
                        }
                    }
                    Op::Sweep => {
                        arena.sweep();
                        for id in newborns.drain(..) {
                            if model[&id].rc == 0 {
                                model.remove(&id);
                            }
                        }
                    }
                    Op::Retain(_) | Op::Keep(_) | Op::Release(_) => {}
                }
                live_hw = live_hw.max(model.len());
                for (&id, live) in &model {
                    prop_assert_eq!(arena.get(id), &live.pk, "{} lost its content", id);
                }
                for (id, pk) in &kept {
                    prop_assert!(model.contains_key(id), "kept {} was freed", id);
                    prop_assert_eq!(arena.get(*id), pk, "kept {} lost its content", id);
                }
                prop_assert!(
                    arena.len() <= live_hw,
                    "{} slots for a live high-water mark of {}", arena.len(), live_hw
                );
                let stats = arena.stats();
                prop_assert_eq!(stats.misses, interns);
                prop_assert_eq!(stats.misses - stats.recycled, arena.len() as u64);
            }
        }
    }
}
