//! The NES data plane: the operational semantics of Fig. 7 as a
//! [`netsim::DataPlane`].
//!
//! * **IN** — packets entering from a host are stamped with the tag of the
//!   ingress switch's current (effective) event-set.
//! * **SWITCH** — the switch unions the packet's digest into its local
//!   event-set, fires any enabled events the arrival matches, notifies the
//!   controller, forwards the packet under *its stamped tag's*
//!   configuration, and adds its own knowledge to the outgoing digest.
//! * **CTRLRECV/CTRLSEND** — the controller accumulates fired events and
//!   (optionally, as the paper's optimization) broadcasts its view to all
//!   switches.

use std::collections::BTreeMap;

use edn_core::{EventId, EventSet};
use netkat::{Field, FieldReader, Loc, LocatedView, PacketArena, PacketId, TaggedView};
use netsim::{DataPlane, PlaneOut, SimTime};

use crate::compile::CompiledNes;
use crate::deploy::{Hop, PerTagTables};
#[cfg(test)]
use crate::hop_props::{table_reference, StepResult};

/// One switch's event state: what it knows, and what that amounts to.
#[derive(Clone, Copy, Debug)]
struct Local {
    /// The known events (`E` in Fig. 7).
    known: EventSet,
    /// The effective event-set of `known` — a pure function of it,
    /// recomputed only when knowledge grows.
    effective: EventSet,
    /// The tag of `effective`: what IN stamps on host-entering packets.
    tag: u64,
}

impl Local {
    /// The state of a switch that knows `known`: one enabling fixpoint.
    fn of(compiled: &CompiledNes, known: EventSet) -> Local {
        let effective = compiled.effective_set(known);
        let tag = compiled.tag_of(effective).expect("effective sets are reachable by construction");
        Local { known, effective, tag }
    }
}

/// The deployed NES runtime (switch state + controller).
#[derive(Clone, Debug)]
pub struct NesDataPlane {
    compiled: CompiledNes,
    /// The installed tables (the NES's index: one compiled index per prefix
    /// chain of a switch's per-tag tables, Section 4.1) and probe counts.
    deployment: PerTagTables,
    /// Per-switch event state, dense: `local[slot]` with the deployment's
    /// slots, grown on demand for switches outside it. The switch step
    /// reads this on every packet, so it must not walk a tree.
    local: Vec<Local>,
    /// The state of a switch that knows nothing.
    blank: Local,
    /// Controller's accumulated events (`R` in Fig. 7).
    controller: EventSet,
    /// Whether the controller broadcasts its view to all switches
    /// (the CTRLSEND optimization of Section 4.1).
    broadcast: bool,
    /// Switch ids (for broadcasting).
    switches: Vec<u64>,
    /// First time each switch learned each event (for the Fig. 16(b)
    /// convergence experiment).
    discovery: BTreeMap<(u64, EventId), SimTime>,
    /// Global fire log, in order (a hint for the correctness checker).
    fired_log: Vec<(SimTime, EventId)>,
    /// Memoized `known →` its state, consulted when a switch learns: the
    /// enabling fixpoint is a pure function of the known-events set, and a
    /// campaign's switches all climb the same few sets.
    effective_cache: BTreeMap<EventSet, Local>,
    /// The table hop's reused buffers: a content-changing hop's output is
    /// copied into a recycled arena slot's kept buffer, so in steady state
    /// a hop allocates nothing.
    hop: Hop,
}

impl NesDataPlane {
    /// Deploys a compiled NES on the given switches, reading its tables.
    pub fn new(compiled: CompiledNes, switches: Vec<u64>, broadcast: bool) -> NesDataPlane {
        let deployment = PerTagTables::deploy(compiled.nes(), &switches);
        let blank = Local::of(&compiled, EventSet::empty());
        NesDataPlane {
            local: vec![blank; deployment.slots()],
            compiled,
            deployment,
            blank,
            controller: EventSet::empty(),
            broadcast,
            switches,
            discovery: BTreeMap::new(),
            fired_log: Vec::new(),
            effective_cache: BTreeMap::new(),
            hop: Hop::default(),
        }
    }

    /// The state of a switch that knows `known`, memoized.
    fn effective_of(&mut self, known: EventSet) -> Local {
        *self.effective_cache.entry(known).or_insert_with(|| Local::of(&self.compiled, known))
    }

    /// The compiled NES.
    pub fn compiled(&self) -> &CompiledNes {
        &self.compiled
    }

    /// A switch's current known event-set.
    pub fn local_events(&self, sw: u64) -> EventSet {
        self.deployment.slot(sw).map_or_else(EventSet::empty, |i| self.local[i].known)
    }

    /// When `sw` first learned `event`, if it has.
    pub fn discovery_time(&self, sw: u64, event: EventId) -> Option<SimTime> {
        self.discovery.get(&(sw, event)).copied()
    }

    /// The events fired so far, in order — usable as the checker's sequence
    /// hint.
    pub fn fired_sequence(&self) -> Vec<EventId> {
        self.fired_log.iter().map(|&(_, e)| e).collect()
    }

    /// The fire log with timestamps.
    pub fn fired_log(&self) -> &[(SimTime, EventId)] {
        &self.fired_log
    }

    /// The dense-state slot for `sw`, assigned on first contact.
    fn slot_of(&mut self, sw: u64) -> usize {
        let slot = self.deployment.slot_of(sw);
        if slot == self.local.len() {
            self.local.push(self.blank);
        }
        slot
    }

    fn learn(&mut self, sw: u64, events: EventSet, now: SimTime) {
        let slot = self.slot_of(sw);
        self.learn_at(slot, sw, events, now);
    }

    /// [`learn`](NesDataPlane::learn) with the slot already resolved — the
    /// per-packet path, which learns something new only at (rare) event
    /// firings and digest fronts.
    fn learn_at(&mut self, slot: usize, sw: u64, events: EventSet, now: SimTime) {
        let known = self.local[slot].known;
        let fresh = events.difference(known);
        if fresh.is_empty() {
            return;
        }
        let known = known.union(events);
        self.local[slot] = self.effective_of(known);
        for e in fresh.iter() {
            self.discovery.entry((sw, e)).or_insert(now);
        }
    }
}

impl DataPlane for NesDataPlane {
    /// The events a switch fired (up), or the controller's view (down).
    type Msg = EventSet;

    /// IN stamp, trigger, per-tag forwarding, digest stamp — with the stamp
    /// read through a [`TaggedView`] and the table consulted through a
    /// [`LocatedView`] (both zero-copy), then forwarded by the one table hop
    /// every plane shares (`Hop::forward`: an identity fast path for hops
    /// that leave the packet's content unchanged — the steady state, clone-
    /// and allocation-free — and reused buffers for the rest), stamped with
    /// the digest and tag. The owned transcription of the same rules is
    /// `process_reference`, which the per-hop proptests diff this against.
    fn step(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut<EventSet>,
    ) {
        // SWITCH step 1: union the packet's digest into local state.
        let slot = self.slot_of(sw);
        let base = arena.get(packet);
        let digest = EventSet::from_bits(base.get(Field::Digest).unwrap_or(0));
        self.learn_at(slot, sw, digest, now);
        let Local { effective, tag, .. } = self.local[slot];

        // IN: stamp host-entering packets with the current tag. The stamped
        // packet is never materialized: the trigger test and the lookup read
        // the stamp through an overlay, and the output below carries it.
        let stamped = TaggedView { base, tag: from_host.then_some(tag) };

        // SWITCH step 2: fire enabled events this arrival matches.
        let loc = Loc::new(sw, pt);
        let fired = self.compiled.triggered(effective, &stamped, loc);
        if !fired.is_empty() {
            self.learn_at(slot, sw, fired, now);
            for e in fired.iter() {
                self.fired_log.push((now, e));
            }
            out.notifications.push(fired);
        }
        let Local { known, tag: current, .. } = self.local[slot];

        // SWITCH steps 3+4: forward under the stamped tag and stamp the
        // outgoing digest with everything this switch now knows. The table
        // is consulted through a zero-copy [`LocatedView`] (packet +
        // location + tag overlay).
        let tag = stamped.read(Field::Tag).unwrap_or(current);
        let view = LocatedView { base, loc, tag: Some(tag) };
        if let Some(rule) = self.deployment.lookup_on(slot, tag, &view) {
            let stamp = (digest.union(known).bits(), tag);
            self.hop.forward(rule, Some(stamp), loc, packet, arena, &mut out.outputs);
        }
    }

    fn on_notify(&mut self, fired: EventSet, _now: SimTime, out: &mut PlaneOut<EventSet>) {
        // CTRLRECV: move events into the controller.
        self.controller = self.controller.union(fired);
        if !self.broadcast {
            return;
        }
        // CTRLSEND: push the controller's whole view to every switch.
        let view = self.controller;
        out.deliveries.extend(
            self.switches
                .iter()
                .enumerate()
                .map(|(i, &sw)| (SimTime::from_micros(10 * i as u64), sw, view)),
        );
    }

    fn deliver(&mut self, sw: u64, view: EventSet, now: SimTime, _out: &mut PlaneOut<EventSet>) {
        self.learn(sw, view, now);
    }

    /// Reports this plane instance's fingerprint probe outcomes, summed
    /// over every index it looked up, and the layout's size.
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.deployment.contribute_metrics(reg);
    }
}

/// The owned transcription of Fig. 7's IN and SWITCH rules — the per-hop
/// executable specification [`step`](DataPlane::step) answers to. It reads
/// `g(set_of(tag)).table(sw)` through the linear `FlowTable::lookup_on`
/// scan, never the compiled index.
#[cfg(test)]
impl NesDataPlane {
    pub(crate) fn process_reference(
        &mut self,
        sw: u64,
        pt: u64,
        mut packet: netkat::Packet,
        from_host: bool,
        now: SimTime,
    ) -> StepResult<EventSet> {
        // SWITCH step 1: union the packet's digest into local state.
        let digest = EventSet::from_bits(packet.get(Field::Digest).unwrap_or(0));
        self.learn(sw, digest, now);
        let known = self.local_events(sw);

        // IN: stamp host-entering packets with the current tag.
        let Local { effective, tag, .. } = self.effective_of(known);
        if from_host {
            packet.set(Field::Tag, tag);
        }

        // SWITCH step 2: fire enabled events this arrival matches.
        let fired = self.compiled.triggered(effective, &packet, Loc::new(sw, pt));
        let mut notifications = Vec::new();
        if !fired.is_empty() {
            self.learn(sw, fired, now);
            for e in fired.iter() {
                self.fired_log.push((now, e));
            }
            notifications.push(fired);
        }
        let known = self.local_events(sw);

        // SWITCH step 3: forward under the packet's stamped configuration,
        // `g(set_of(tag))`'s table for `sw`.
        let tag = match packet.get(Field::Tag) {
            Some(tag) => tag,
            None => self.effective_of(known).tag,
        };
        packet.set(Field::Tag, tag);
        let mut outputs = table_reference(self.compiled.table(sw, tag), Loc::new(sw, pt), packet);
        for (_, out) in &mut outputs {
            // SWITCH step 4: the outgoing digest carries everything this
            // switch now knows.
            out.set(Field::Digest, digest.union(known).bits());
            out.set(Field::Tag, tag);
        }
        StepResult { outputs, notifications }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop_props::Stepper;
    use edn_core::{Config, Event, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, FlowTable, Match, Packet, Pred, Rule};

    /// One switch (1): hosts at ports 2 (src) and 3 (dst).
    /// C∅ forwards 2→3; C{e0} also 3→2. Event e0: arrival of dst=300 at 1:2.
    fn firewall_nes() -> NetworkEventStructure {
        let mk = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(200, Loc::new(1, 2));
            c.add_host(300, Loc::new(1, 3));
            c
        };
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(e0, Pred::test(Field::IpDst, 300), Loc::new(1, 2))],
            [EventSet::singleton(e0)],
        );
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), mk(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), mk(vec![fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap()
    }

    fn plane() -> NesDataPlane {
        NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1], false)
    }

    #[test]
    fn ingress_stamps_tag_zero_initially() {
        let mut st = Stepper::default();
        let mut dp = plane();
        let pk = Packet::new().with(Field::IpDst, 999);
        let r = st.step(&mut dp, 1, 2, pk, true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        let (pt, out) = &r.outputs[0];
        assert_eq!(*pt, 3);
        assert_eq!(out.get(Field::Tag), Some(0));
        assert!(r.notifications.is_empty());
    }

    #[test]
    fn trigger_fires_event_but_packet_keeps_old_config() {
        let mut st = Stepper::default();
        let mut dp = plane();
        let pk = Packet::new().with(Field::IpDst, 300);
        let r = st.step(&mut dp, 1, 2, pk, true, SimTime::ZERO);
        // Event fired and was reported.
        assert_eq!(r.notifications, vec![EventSet::singleton(EventId::new(0))]);
        assert_eq!(dp.local_events(1), EventSet::singleton(EventId::new(0)));
        assert_eq!(dp.fired_sequence(), vec![EventId::new(0)]);
        // The triggering packet is still stamped with the *pre-event* tag
        // (IN stamps before the SWITCH trigger step).
        assert_eq!(r.outputs[0].1.get(Field::Tag), Some(0));
        // Its digest carries the fired event.
        assert_eq!(r.outputs[0].1.get(Field::Digest), Some(1));
    }

    #[test]
    fn packets_after_event_use_new_config() {
        let mut st = Stepper::default();
        let mut dp = plane();
        st.step(&mut dp, 1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        // Reply direction now allowed.
        let r = st.step(&mut dp, 1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.outputs[0].0, 2);
        assert_eq!(r.outputs[0].1.get(Field::Tag), Some(1));
        // Before the event, that same packet would have been dropped.
        let mut fresh = plane();
        let r =
            st.step(&mut fresh, 1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn digest_teaches_other_switches() {
        let mut st = Stepper::default();
        let mut dp = NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1, 2], false);
        // A packet carrying digest {e0} arrives at switch 2 (not from host).
        let pk = Packet::new().with(Field::Digest, 1).with(Field::Tag, 1);
        st.step(&mut dp, 2, 1, pk, false, SimTime::from_millis(3));
        assert_eq!(dp.local_events(2), EventSet::singleton(EventId::new(0)));
        assert_eq!(dp.discovery_time(2, EventId::new(0)), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn controller_broadcast_spreads_events() {
        let mut dp = NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1, 2], true);
        let mut out = PlaneOut::default();
        let e0 = EventSet::singleton(EventId::new(0));
        dp.on_notify(e0, SimTime::ZERO, &mut out);
        assert_eq!(out.deliveries.len(), 2);
        for (_, sw, msg) in std::mem::take(&mut out.deliveries) {
            assert_eq!(msg, e0);
            dp.deliver(sw, msg, SimTime::from_millis(5), &mut out);
        }
        assert_eq!(dp.local_events(2), e0);
        // Without broadcast, no pushes.
        let mut quiet = NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1, 2], false);
        quiet.on_notify(e0, SimTime::ZERO, &mut out);
        assert_eq!(out, PlaneOut::default());
    }

    #[test]
    fn event_fires_only_once() {
        let mut st = Stepper::default();
        let mut dp = plane();
        st.step(&mut dp, 1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        let r = st.step(&mut dp, 1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        assert!(r.notifications.is_empty(), "already-fired events do not re-fire");
        assert_eq!(dp.fired_sequence().len(), 1);
    }
}
