//! The control side of the engine: who an event's entity is, how a
//! control message crosses the channel model, what a plane interaction
//! asks for beyond its packets, and the causal frontier that links the
//! controller's knowledge to each switch's later steps.

use std::collections::HashMap;

use super::build::timeline_at;
use super::*;
use crate::channel::{ChannelDir, ChannelFate};
use crate::logic::{CtrlMsg, CONTROLLER_NODE};

/// Dense entity numbering: 0 = environment, 1 = controller, then every
/// switch, then every host, in topology order.
#[derive(Debug)]
pub(super) struct EntityMap {
    map: HashMap<u64, u32, netkat::FxBuildHasher>,
    /// The first host's dense id: switches come first, so an entity is a
    /// host exactly when its id is at or above this.
    first_host: u32,
    /// Per host, indexed by `dense id - first_host`: its attachment
    /// location and the attachment switch's dense id.
    attached: Vec<(Loc, u32)>,
}

impl EntityMap {
    pub(super) fn build(topo: &SimTopology) -> EntityMap {
        let mut map: HashMap<u64, u32, netkat::FxBuildHasher> = HashMap::default();
        let mut next = CTRL_ENTITY + 1;
        // First occurrence wins: `SimTopology::new` tolerates duplicate
        // switch entries, and the numbering must stay dense (counters are
        // indexed by it).
        for &sw in topo.switches() {
            map.entry(sw).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
        }
        let first_host = next;
        for (h, _) in topo.hosts() {
            map.insert(h, next);
            next += 1;
        }
        let attached = topo
            .hosts()
            .map(|(_, loc)| (loc, *map.get(&loc.sw).expect("hosts attach to listed switches")))
            .collect();
        EntityMap { map, first_host, attached }
    }

    /// The dense id of a switch or host, if the topology has it.
    pub(super) fn get(&self, node: u64) -> Option<u32> {
        self.map.get(&node).copied()
    }

    /// The dense id of a switch or host.
    pub(super) fn dense(&self, node: u64) -> u32 {
        self.get(node).expect("node is part of the topology")
    }

    /// Whether dense id `entity` is a host's.
    pub(super) fn is_host(&self, entity: u32) -> bool {
        entity >= self.first_host
    }

    /// Host `entity`'s attachment location and attachment switch entity.
    pub(super) fn attachment(&self, entity: u32) -> (Loc, u32) {
        self.attached[(entity - self.first_host) as usize]
    }

    /// The dense id of the host with id `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a host of the topology.
    pub(super) fn host(&self, host: u64) -> u32 {
        match self.get(host) {
            Some(entity) if self.is_host(entity) => entity,
            _ => panic!("node {host} is not a host"),
        }
    }

    /// Total entity count (environment and controller included).
    pub(super) fn len(&self) -> usize {
        self.map.len() + 2
    }
}

impl<D: DataPlane> Engine<D> {
    /// Sends one control message `event` — a `Notify` up from `node` or a
    /// `Deliver` down to it — through the channel model. The fate is a pure
    /// function of the sending entity's fault-stream counter, and each
    /// surviving copy gets its own sequence key from `sender`. A copy fires
    /// the controller latency plus `delay` (the plane's own offset for a
    /// command, e.g. update-wave spacing) plus its channel jitter from now.
    /// The ideal model sends one copy with no extra delay and draws no
    /// counter.
    fn send(
        &mut self,
        dir: ChannelDir,
        node: u64,
        sender: u32,
        delay: SimTime,
        event: EventKind<D::Msg>,
    ) {
        // Scheduled spikes override `params.controller_latency`.
        let latency = timeline_at(&self.ctrl_latency, self.now, self.params.controller_latency);
        let base = self.now + latency + delay;
        let fate = if self.channel.is_ideal() {
            ChannelFate::CLEAN
        } else {
            let counter = self.chan_counts[sender as usize];
            self.chan_counts[sender as usize] += 1;
            let fate = self.channel.fate(dir, node, counter);
            // A drop also goes to the flight recorder, so a degraded dump
            // shows the message-level cause.
            if self.metrics.on {
                match fate.copies {
                    0 => {
                        self.metrics.chan_dropped += 1;
                        self.flight(0, "drop", node);
                    }
                    2 => self.metrics.chan_duplicated += 1,
                    _ => {}
                }
                self.metrics.chan_reordered += fate.reordered as u64;
            }
            fate
        };
        for i in 0..fate.copies as usize {
            let t = base + SimTime::from_micros(fate.delay_us[i]);
            let seq = self.next_seq(sender);
            self.schedule(t, seq, event);
        }
    }

    /// Acts on the control side of a plane interaction at `node` (dense id
    /// `entity`), leaving those four lists of `self.out` empty: sends its
    /// notifications (with trace cause `cause`) and deliveries through the
    /// channel model, forwards its channel telemetry to the flight
    /// recorder, and schedules its timer requests. Runs on every
    /// interaction (packet step, notify, deliver, timer). The lists are
    /// read in place by index (their items are `Copy`): `out` never leaves
    /// `self`, and a hop with nothing to say pays four length checks.
    pub(super) fn emit_control(&mut self, node: u64, entity: u32, cause: usize) {
        for i in 0..self.out.notifications.len() {
            let msg = self.out.notifications[i];
            let event = EventKind::Notify { msg, cause };
            self.send(ChannelDir::ToCtrl, node, entity, SimTime::ZERO, event);
        }
        self.out.notifications.clear();
        for i in 0..self.out.deliveries.len() {
            let (delay, sw, msg) = self.out.deliveries[i];
            self.send(ChannelDir::ToSwitch, sw, CTRL_ENTITY, delay, EventKind::Deliver { sw, msg });
        }
        self.out.deliveries.clear();
        for i in 0..self.out.channel_events.len() {
            let (kind, node) = self.out.channel_events[i];
            self.flight(0, kind, node);
        }
        self.out.channel_events.clear();
        for i in 0..self.out.timers.len() {
            let (t, node) = self.out.timers[i];
            let entity =
                if node == CONTROLLER_NODE { Some(CTRL_ENTITY) } else { self.entities.get(node) };
            match entity {
                Some(entity) => {
                    let seq = self.next_seq(entity);
                    self.schedule(t.max(self.now), seq, EventKind::Timer { node, entity });
                }
                // A node outside the topology never steps: its timer is lost.
                None => self.flight(0, "drop", node),
            }
        }
        self.out.timers.clear();
    }

    // The packet-free plane interactions: what the plane asks for is acted
    // on before the dispatch ends. No packet step sent what these send, so
    // it carries no trace cause.

    /// A switch's message reaches the controller.
    pub(super) fn on_notify(&mut self, msg: D::Msg, cause: usize) {
        // Controller knowledge is cumulative: record the cause before
        // computing deliveries. Messages no packet step sent carry the
        // NO_CAUSE sentinel and stay out of the causality record.
        if cause != NO_CAUSE {
            self.ctrl_causes.push(cause);
        }
        self.dataplane.on_notify(msg, self.now, &mut self.out);
        self.emit_control(CONTROLLER_NODE, CTRL_ENTITY, NO_CAUSE);
    }

    /// A controller command reaches switch `sw`.
    pub(super) fn on_deliver(&mut self, sw: u64, msg: D::Msg) {
        // A switch outside the topology never steps: no plane hears the
        // command, and there is no frontier to move.
        let Some(entity) = self.entities.get(sw) else { return self.flight(0, "drop", sw) };
        // Everything the controller has heard up to now becomes a causal
        // ancestor of this switch's subsequent processing. Plumbing (a pure
        // ack, say) changes no switch state, so it must not strengthen the
        // causal frontier.
        if !msg.is_plumbing() {
            self.ctrl_delivered[entity as usize] = self.ctrl_causes.len();
        }
        self.dataplane.deliver(sw, msg, self.now, &mut self.out);
        self.emit_control(sw, entity, NO_CAUSE);
    }

    /// A timer fires at `node`.
    pub(super) fn on_timer(&mut self, node: u64, entity: u32) {
        self.dataplane.on_timer(node, self.now, &mut self.out);
        self.emit_control(node, entity, NO_CAUSE);
    }

    /// Knowledge the controller delivered to switch `entity` happens-before
    /// its step `idx`: links every cause delivered since the switch's last
    /// step to it.
    pub(super) fn link_frontier(&mut self, entity: u32, idx: usize) {
        let delivered = self.ctrl_delivered[entity as usize];
        let linked = &mut self.ctrl_linked[entity as usize];
        for &cause in &self.ctrl_causes[*linked..delivered] {
            if cause < idx {
                if let Some(o) = self.observer.as_deref_mut() {
                    o.edge(cause, idx);
                }
            }
        }
        *linked = (*linked).max(delivered);
    }
}
