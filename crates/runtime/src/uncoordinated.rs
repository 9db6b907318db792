//! The uncoordinated-update baseline (Section 5.1's comparison strategy).
//!
//! Events are punted to the controller, which — after a configurable delay,
//! modelling slow rule installation — pushes the new configuration to the
//! switches one by one in a (seeded) random order. Until a switch receives
//! the push it keeps forwarding under its stale configuration: no tags, no
//! digests, no consistency.

use edn_core::EventSet;
use netkat::{Loc, LocatedView, PacketArena, PacketId};
use netsim::{At, CtrlMsg, DataPlane, PlaneOut, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::compile::CompiledNes;
use crate::deploy::{Contact, Contacts, Hop, PerTagTables};
#[cfg(test)]
use crate::hop_props::{table_reference, StepResult};

/// What the baseline's switches and controller send each other.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UncoordMsg {
    /// Switch → controller: the events an arrival matched.
    Events(EventSet),
    /// Controller → switch: forward under the configuration of this tag.
    SetConfig(u64),
}

impl CtrlMsg for UncoordMsg {}

/// The uncoordinated baseline data plane.
#[derive(Clone, Debug)]
pub struct UncoordDataPlane {
    compiled: CompiledNes,
    /// Every configuration's tables, in tag order: the NES's one index,
    /// the layout every plane forwards through.
    deployment: PerTagTables,
    /// Per-switch currently-installed tag, by the deployment's dense slot.
    current: Vec<u64>,
    /// The switches packets have arrived at, by node id (`At::node`).
    contacts: Contacts,
    /// The controller's event view.
    controller: EventSet,
    /// Extra delay before pushing updated configurations.
    update_delay: SimTime,
    /// Per-switch installation jitter bound (uniform in `0..jitter`).
    jitter: SimTime,
    switches: Vec<u64>,
    rng: StdRng,
    hop: Hop,
}

impl UncoordDataPlane {
    /// Deploys the baseline with the given controller `update_delay` and a
    /// deterministic `seed` for push-order randomness.
    pub fn new(
        compiled: CompiledNes,
        switches: Vec<u64>,
        update_delay: SimTime,
        seed: u64,
    ) -> UncoordDataPlane {
        let deployment = PerTagTables::deploy(compiled.nes(), &switches);
        UncoordDataPlane {
            current: vec![0; deployment.slots()],
            compiled,
            deployment,
            contacts: Contacts::default(),
            controller: EventSet::empty(),
            update_delay,
            jitter: SimTime::from_millis(20),
            switches,
            rng: StdRng::seed_from_u64(seed),
            hop: Hop::default(),
        }
    }

    /// The tag a switch currently runs.
    pub fn current_tag(&self, sw: u64) -> u64 {
        self.deployment.slot(sw).map_or(0, |slot| self.current[slot])
    }

    /// The contact of the switch at `at`, made on its first packet: a
    /// switch without a table gets a slot past every row, and drops.
    #[inline]
    fn contact(&mut self, at: At) -> Contact {
        match self.contacts.get(at) {
            Some(c) => c,
            None => self.first_contact(at),
        }
    }

    #[cold]
    fn first_contact(&mut self, at: At) -> Contact {
        let slot = self.deployment.slot_of(at.sw);
        if slot == self.current.len() {
            self.current.push(0);
        }
        self.contacts.make(at, slot, self.compiled.nes())
    }
}

impl DataPlane for UncoordDataPlane {
    type Msg = UncoordMsg;

    /// Punts every event-matching arrival to the controller, then forwards
    /// under the switch's stale configuration: a zero-copy [`LocatedView`]
    /// lookup under its current tag, forwarded by the table hop every plane
    /// shares, unstamped. The owned transcription is `process_reference`.
    fn step(
        &mut self,
        at: At,
        packet: PacketId,
        _from_host: bool,
        _now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut<UncoordMsg>,
    ) {
        // Event detection: matching arrivals are punted to the controller
        // (it decides whether they constitute state transitions).
        let contact = self.contact(at);
        let slot = contact.slot as usize;
        let base = arena.get(packet);
        let here = self.contacts.events_at(contact, at.pt);
        if !here.is_empty() {
            let matched = self.compiled.matching_among(here, base);
            if !matched.is_empty() {
                out.notifications.push(UncoordMsg::Events(matched));
            }
        }
        let loc = Loc::new(at.sw, at.pt);
        let view = LocatedView { base, loc, tag: None };
        if let Some(rule) = self.deployment.lookup_on(slot, self.current[slot], &view) {
            self.hop.forward(rule, None, loc, packet, arena, &mut out.outputs);
        }
    }

    fn on_notify(&mut self, msg: UncoordMsg, _now: SimTime, out: &mut PlaneOut<UncoordMsg>) {
        let UncoordMsg::Events(matched) = msg else { return };
        // The controller applies the enabling discipline centrally: one
        // notification = one packet arrival = one firing step (a renamed
        // chain advances a single state per packet).
        let before = self.controller;
        let fired = self.compiled.fire_step(self.controller, matched);
        self.controller = self.controller.union(fired);
        let after = self.controller;
        if before == after {
            return;
        }
        let tag = self.compiled.tag_of(after).expect("effective sets are reachable");
        // Push the new configuration to every switch after the update
        // delay, in random order with random jitter.
        let mut order = self.switches.clone();
        order.shuffle(&mut self.rng);
        for sw in order {
            let jitter = SimTime::from_micros(self.rng.gen_range(0..=self.jitter.as_micros()));
            out.deliveries.push((self.update_delay + jitter, sw, UncoordMsg::SetConfig(tag)));
        }
    }

    fn deliver(&mut self, sw: u64, msg: UncoordMsg, _: SimTime, _: &mut PlaneOut<UncoordMsg>) {
        if let (UncoordMsg::SetConfig(tag), Some(slot)) = (msg, self.deployment.slot(sw)) {
            self.current[slot] = tag;
        }
    }
}

/// The owned transcription of the baseline's switch step — the per-hop
/// executable specification [`step`](DataPlane::step) answers to: the
/// linear `FlowTable::lookup_on` scan of the stale configuration's own
/// table, never the compiled index.
#[cfg(test)]
impl UncoordDataPlane {
    pub(crate) fn process_reference(
        &self,
        sw: u64,
        pt: u64,
        packet: netkat::Packet,
    ) -> StepResult<UncoordMsg> {
        let loc = Loc::new(sw, pt);
        let matched = self.compiled.matching_on(&packet, loc);
        let notifications =
            if matched.is_empty() { Vec::new() } else { vec![UncoordMsg::Events(matched)] };
        let config = self.compiled.nes().config(self.compiled.set_of(self.current_tag(sw)));
        StepResult { outputs: table_reference(config.table(sw), loc, packet), notifications }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop_props::Stepper;
    use edn_core::{Config, Event, EventId, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, Field, FlowTable, Match, Packet, Pred, Rule};

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

    #[test]
    fn stale_config_until_push_arrives() {
        let mut st = Stepper::default();
        let compiled = CompiledNes::compile(firewall_nes());
        let mut dp = UncoordDataPlane::new(compiled, vec![1], SimTime::from_millis(500), 42);
        // Trigger packet: forwarded AND notified.
        let r = st.step(&mut dp, 1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.notifications.len(), 1);
        // Reply direction still dropped — the switch has not been updated.
        let r = st.step(&mut dp, 1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert!(r.outputs.is_empty());
        // Controller schedules a delayed push.
        let mut out = PlaneOut::default();
        dp.on_notify(UncoordMsg::Events(EventSet::from_bits(1)), SimTime::ZERO, &mut out);
        assert_eq!(out.deliveries.len(), 1);
        let (delay, sw, msg) = out.deliveries[0];
        assert!(delay >= SimTime::from_millis(500));
        dp.deliver(sw, msg, SimTime::from_millis(600), &mut out);
        assert_eq!(dp.current_tag(1), 1);
        // Now replies flow.
        let now = SimTime::from_millis(600);
        let r = st.step(&mut dp, 1, 3, Packet::new().with(Field::IpDst, 200), true, now);
        assert_eq!(r.outputs.len(), 1);
    }

    #[test]
    fn duplicate_notifications_push_once() {
        let compiled = CompiledNes::compile(firewall_nes());
        let mut dp = UncoordDataPlane::new(compiled, vec![1], SimTime::ZERO, 7);
        let mut out = PlaneOut::default();
        dp.on_notify(UncoordMsg::Events(EventSet::from_bits(1)), SimTime::ZERO, &mut out);
        assert_eq!(out.deliveries.len(), 1);
        dp.on_notify(UncoordMsg::Events(EventSet::from_bits(1)), SimTime::ZERO, &mut out);
        assert_eq!(out.deliveries.len(), 1, "the duplicate pushes nothing more");
    }

    #[test]
    fn push_order_is_seeded() {
        let nes = firewall_nes();
        let run = |seed| {
            let mut dp = UncoordDataPlane::new(
                CompiledNes::compile(nes.clone()),
                vec![1, 2, 3, 4, 5, 6],
                SimTime::ZERO,
                seed,
            );
            let mut out = PlaneOut::default();
            dp.on_notify(UncoordMsg::Events(EventSet::from_bits(1)), SimTime::ZERO, &mut out);
            out.deliveries.into_iter().map(|(_, sw, _)| sw).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seed, same order");
        assert_ne!(run(1), run(2), "different seeds diverge (with high probability)");
    }
}
