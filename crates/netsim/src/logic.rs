//! Pluggable behaviour: data planes (switches + controller) and host logic.

use netkat::{Packet, PacketArena, PacketId};

use crate::time::SimTime;

/// The timer `node` naming the controller endpoint (switch endpoints use
/// their switch id). See [`PlaneOut::timers`].
pub const CONTROLLER_NODE: u64 = u64::MAX;

/// A message between a switch and the controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlMsg {
    /// "These events occurred" — a bitset of event ids (switch → controller,
    /// or controller → switch for the CTRLSEND broadcast of Fig. 7).
    Events(u64),
    /// "Switch to configuration `n`" — used by the uncoordinated baseline.
    SetConfig(u64),
    /// A sequence-numbered reliability envelope (see `nes-runtime`'s
    /// `Reliable` wrapper): an inner message plus the header that lets a
    /// lossy channel be survived. `sw` is the switch endpoint of the
    /// stream (the sender for switch→controller, the target for
    /// controller→switch), `seq` the 1-based stream sequence number, `ack`
    /// the cumulative ack of the reverse stream, and `kind`/`bits` the
    /// flattened inner payload (`0` = [`Events`](CtrlMsg::Events), `1` =
    /// [`SetConfig`](CtrlMsg::SetConfig)) — flattened so the message stays
    /// `Copy`.
    Reliable {
        /// Switch endpoint of the stream.
        sw: u64,
        /// 1-based sequence number on the `(direction, sw)` stream.
        seq: u32,
        /// Cumulative ack of the reverse stream.
        ack: u32,
        /// Inner message discriminant (`0` = `Events`, `1` = `SetConfig`).
        kind: u8,
        /// Inner message payload bits.
        bits: u64,
    },
    /// A pure cumulative acknowledgement for stream `sw` (never itself
    /// acknowledged, so acks cannot regress into an ack storm).
    Ack {
        /// Switch endpoint of the acknowledged stream.
        sw: u64,
        /// Every message with `seq <= ack` has been received in order.
        ack: u32,
    },
}

/// What one switch processing step produced, in owned form: the result
/// type of the planes' owned reference transcriptions and of the closure
/// [`step_owned`] bridges into a [`PlaneOut`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StepResult {
    /// Output packets: `(out port, packet)`. Empty means the packet was
    /// dropped.
    pub outputs: Vec<(u64, Packet)>,
    /// Messages to the controller.
    pub notifications: Vec<CtrlMsg>,
}

impl StepResult {
    /// A step that drops the packet.
    pub fn drop() -> StepResult {
        StepResult::default()
    }

    /// A step that forwards to one port.
    pub fn forward(port: u64, packet: Packet) -> StepResult {
        StepResult { outputs: vec![(port, packet)], notifications: Vec::new() }
    }
}

/// Everything one [`DataPlane`] interaction can ask of the engine. The
/// engine owns one buffer for the whole run, hands it in **empty** on every
/// call, and acts on whatever the plane appended before the dispatch ends
/// (notifications, deliveries, channel events, timers, then a step's
/// outputs — the order event sequence keys are drawn in), so steady-state
/// hops never allocate.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PlaneOut {
    /// Output packets of a [`step`](DataPlane::step): `(out port, interned
    /// packet)`, ids from the arena the step was handed. Empty means the
    /// packet was dropped.
    pub outputs: Vec<(u64, PacketId)>,
    /// Messages the interaction's node (the stepping or delivered-to
    /// switch, the timer's node) sends to the controller, through the
    /// (possibly lossy) channel.
    pub notifications: Vec<CtrlMsg>,
    /// Commands the controller sends to switches: `(extra delay, switch,
    /// message)`, through the same channel.
    pub deliveries: Vec<(SimTime, u64, CtrlMsg)>,
    /// Timer requests `(fire time, node)`, where `node` is a switch id or
    /// [`CONTROLLER_NODE`]: the engine schedules a deterministic timer
    /// event per request, which calls [`on_timer`](DataPlane::on_timer).
    /// Stale fires must be plane-level no-ops.
    pub timers: Vec<(SimTime, u64)>,
    /// Control-channel telemetry `(kind, node)` (`"dup_suppressed"`,
    /// `"retry_exhausted"`, …), forwarded to the flight recorder so a
    /// degraded dump shows the message-level cause.
    pub channel_events: Vec<(&'static str, u64)>,
}

impl PlaneOut {
    /// Empties every list, keeping the allocations.
    pub fn clear(&mut self) {
        self.outputs.clear();
        self.notifications.clear();
        self.deliveries.clear();
        self.timers.clear();
        self.channel_events.clear();
    }
}

/// The owned bridge: resolves `packet`, runs the owned `process` closure on
/// it, and interns the result into `out` — how a plane written against
/// owned [`Packet`]s (the uncoordinated baseline, test planes) implements
/// [`DataPlane::step`].
pub fn step_owned(
    packet: PacketId,
    arena: &mut PacketArena,
    out: &mut PlaneOut,
    process: impl FnOnce(Packet) -> StepResult,
) {
    let StepResult { outputs, notifications } = process(arena.get(packet).clone());
    out.outputs.extend(outputs.into_iter().map(|(pt, pk)| (pt, arena.intern(pk))));
    out.notifications.extend(notifications);
}

/// Converts a flow-table application result into switch outputs — the
/// engine's per-packet egress convention, shared by every table-driven
/// [`DataPlane`]: each output packet leaves on the port its actions wrote
/// (defaulting to the ingress port `pt`), with the location fields
/// stripped (links, not tables, decide the next location).
pub fn table_outputs(pt: u64, packets: impl IntoIterator<Item = Packet>) -> Vec<(u64, Packet)> {
    packets
        .into_iter()
        .map(|mut out| {
            let (_, out_pt) = out.take_loc();
            (out_pt.unwrap_or(pt), out)
        })
        .collect()
}

/// The deployed system under test: all switches plus the controller.
///
/// The engine calls [`step`](DataPlane::step) for every packet at every
/// switch, routes controller messages through
/// [`on_notify`](DataPlane::on_notify) / [`deliver`](DataPlane::deliver),
/// and fires requested timers into [`on_timer`](DataPlane::on_timer). Every
/// entry point reports through the same [`PlaneOut`].
pub trait DataPlane {
    /// Processes a packet arriving at switch `sw`, port `pt` (the SWITCH
    /// rule of Fig. 7), appending output packets and controller
    /// notifications to `out`.
    ///
    /// `from_host` is `true` when the packet just entered the network from a
    /// host (the IN rule, where ingress stamping happens). `packet` was
    /// interned in `arena` by the caller, and output ids must come from the
    /// same arena; a plane instance is only ever driven against one arena
    /// (implementations may cache ids). Planes written against owned
    /// packets go through [`step_owned`].
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut,
    );

    /// The controller received `msg` (CTRLRECV); commands for switches
    /// (CTRLSEND) go to `out.deliveries`.
    fn on_notify(&mut self, msg: CtrlMsg, now: SimTime, out: &mut PlaneOut);

    /// A controller command arrives at switch `sw`; anything the switch
    /// sends straight back (acknowledgements, in the reliability layer)
    /// goes to `out.notifications`.
    fn deliver(&mut self, sw: u64, msg: CtrlMsg, now: SimTime, out: &mut PlaneOut);

    /// A timer requested through [`PlaneOut::timers`] fired at `node`;
    /// whatever is to be (re)sent goes to `out`. The default does nothing.
    fn on_timer(&mut self, node: u64, now: SimTime, out: &mut PlaneOut) {
        let _ = (node, now, out);
    }

    /// Folds this plane's metrics into `reg` — called by the engine while
    /// assembling the run's registry. The default contributes nothing;
    /// planes backed by a compiled lookup index report its fingerprint
    /// hit/fallback counters here.
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        let _ = reg;
    }
}

/// A boxed host behaviour, as the engine owns it. `Send` so an engine can
/// be handed to another thread.
pub type BoxedHosts = Box<dyn HostLogic + Send>;

/// What a host does when a packet reaches it.
pub trait HostLogic {
    /// Called on delivery; returns packets to inject back into the network
    /// from this host as `(delay, packet, size in bytes)`.
    fn on_receive(
        &mut self,
        host: u64,
        packet: &Packet,
        now: SimTime,
    ) -> Vec<(SimTime, Packet, u32)>;
}

/// A host logic that only consumes packets.
#[derive(Clone, Copy, Debug, Default)]
pub struct SinkHosts;

impl HostLogic for SinkHosts {
    fn on_receive(&mut self, _: u64, _: &Packet, _: SimTime) -> Vec<(SimTime, Packet, u32)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkat::Field;

    #[test]
    fn step_result_constructors() {
        assert!(StepResult::drop().outputs.is_empty());
        let s = StepResult::forward(3, Packet::new());
        assert_eq!(s.outputs.len(), 1);
        assert_eq!(s.outputs[0].0, 3);
    }

    #[test]
    fn step_owned_interns_outputs_and_appends_notifications() {
        let mut arena = PacketArena::new();
        let id = arena.intern(Packet::new().with(Field::Vlan, 2));
        let mut out = PlaneOut::default();
        out.notifications.push(CtrlMsg::Events(1));
        step_owned(id, &mut arena, &mut out, |pk| {
            assert_eq!(pk.get(Field::Vlan), Some(2));
            let mut r = StepResult::forward(3, pk.clone());
            r.outputs.push((4, pk.with(Field::Vlan, 5)));
            r.notifications.push(CtrlMsg::Events(2));
            r
        });
        // Every output takes a slot of its own, unchanged content included.
        assert_eq!(out.outputs[0].0, 3);
        assert_ne!(out.outputs[0].1, id);
        assert_eq!(arena.get(out.outputs[0].1), arena.get(id));
        assert_eq!(arena.get(out.outputs[1].1).get(Field::Vlan), Some(5));
        assert_eq!(out.notifications, vec![CtrlMsg::Events(1), CtrlMsg::Events(2)]);
        out.clear();
        assert_eq!(out, PlaneOut::default());
    }

    #[test]
    fn table_outputs_extract_ports_and_strip_location() {
        let written = Packet::new().with(Field::Switch, 1).with(Field::Port, 4);
        let unwritten = Packet::new().with(Field::Vlan, 2);
        let outs = table_outputs(7, [written, unwritten]);
        assert_eq!(outs.len(), 2);
        assert!(outs.contains(&(4, Packet::new())));
        assert!(outs.contains(&(7, Packet::new().with(Field::Vlan, 2))));
    }

    #[test]
    fn sink_hosts_swallow() {
        let mut s = SinkHosts;
        assert!(s.on_receive(1, &Packet::new(), SimTime::ZERO).is_empty());
    }
}
