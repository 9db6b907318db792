//! Pluggable behaviour: data planes (switches + controller) and host logic.

use std::fmt;

use edn_core::EventSet;
use netkat::{Packet, PacketArena, PacketId};

use crate::time::SimTime;

/// The timer `node` naming the controller endpoint (switch endpoints use
/// their switch id). See [`PlaneOut::timers`].
pub const CONTROLLER_NODE: u64 = u64::MAX;

/// A message between a switch and the controller, each [`DataPlane`]'s own
/// ([`DataPlane::Msg`]): the engine carries it unread but for one question.
pub trait CtrlMsg: Copy + Eq + fmt::Debug {
    /// Does this message change no switch state (a pure ack, say)? Then
    /// delivering it does not move the switch's causal frontier.
    fn is_plumbing(&self) -> bool {
        false
    }
}

/// Fig. 7's one message (CTRLRECV, CTRLSEND): a set of events.
impl CtrlMsg for EventSet {}

/// The message of a plane whose switches and controller never talk.
impl CtrlMsg for () {}

/// Everything one [`DataPlane`] interaction can ask of the engine. The
/// engine owns one buffer for the whole run, hands it in **empty** on every
/// call, and acts on whatever the plane appended before the dispatch ends
/// (notifications, deliveries, channel events, timers, then a step's
/// outputs — the order event sequence keys are drawn in), so steady-state
/// hops never allocate. `M` is the plane's [`DataPlane::Msg`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlaneOut<M> {
    /// Output packets of a [`step`](DataPlane::step): `(out port, interned
    /// packet)`, ids from the arena the step was handed. Empty means the
    /// packet was dropped.
    pub outputs: Vec<(u64, PacketId)>,
    /// Messages the interaction's node (the stepping or delivered-to
    /// switch, the timer's node) sends to the controller, through the
    /// (possibly lossy) channel.
    pub notifications: Vec<M>,
    /// Commands the controller sends to switches: `(extra delay, switch,
    /// message)`, through the same channel.
    pub deliveries: Vec<(SimTime, u64, M)>,
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

impl<M> Default for PlaneOut<M> {
    fn default() -> PlaneOut<M> {
        PlaneOut {
            outputs: Vec::new(),
            notifications: Vec::new(),
            deliveries: Vec::new(),
            timers: Vec::new(),
            channel_events: Vec::new(),
        }
    }
}

/// The deployed system under test: all switches plus the controller.
///
/// The engine calls [`step`](DataPlane::step) for every packet at every
/// switch, routes controller messages through
/// [`on_notify`](DataPlane::on_notify) / [`deliver`](DataPlane::deliver),
/// and fires requested timers into [`on_timer`](DataPlane::on_timer). Every
/// entry point reports through the same [`PlaneOut`].
pub trait DataPlane {
    /// What this plane's switches and controller send each other.
    type Msg: CtrlMsg;

    /// Processes a packet arriving at switch `sw`, port `pt` (the SWITCH
    /// rule of Fig. 7), appending output packets and controller
    /// notifications to `out`.
    ///
    /// `from_host` is `true` when the packet just entered the network from a
    /// host (the IN rule, where ingress stamping happens). `packet` was
    /// interned in `arena` by the caller, and output ids must come from the
    /// same arena: the input id itself when the hop leaves the packet
    /// unchanged, a freshly interned one otherwise. A plane instance is only
    /// ever driven against one arena (implementations may cache ids).
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut<Self::Msg>,
    );

    /// The controller received `msg` (CTRLRECV); commands for switches
    /// (CTRLSEND) go to `out.deliveries`. The default does nothing.
    fn on_notify(&mut self, msg: Self::Msg, now: SimTime, out: &mut PlaneOut<Self::Msg>) {
        let _ = (msg, now, out);
    }

    /// A controller command arrives at switch `sw`; anything the switch
    /// sends straight back (an acknowledgement, say) goes to
    /// `out.notifications`. The default does nothing.
    fn deliver(&mut self, sw: u64, msg: Self::Msg, now: SimTime, out: &mut PlaneOut<Self::Msg>) {
        let _ = (sw, msg, now, out);
    }

    /// A timer requested through [`PlaneOut::timers`] fired at `node`;
    /// whatever is to be (re)sent goes to `out`. The default does nothing.
    fn on_timer(&mut self, node: u64, now: SimTime, out: &mut PlaneOut<Self::Msg>) {
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

    #[test]
    fn sink_hosts_swallow() {
        let mut s = SinkHosts;
        assert!(s.on_receive(1, &Packet::new(), SimTime::ZERO).is_empty());
    }
}
