//! The control-channel reliability layer: sequence-numbered envelopes,
//! cumulative acks, duplicate suppression, and retransmission with
//! exponential backoff — TCP's survival kit, shrunk to the southbound
//! channel.
//!
//! [`Reliable`] wraps any [`DataPlane`] and restores the exactly-once,
//! in-order message semantics the paper's runtime (Defs. 5–6) assumes,
//! on top of a channel that drops, duplicates, and reorders
//! (`netsim::ChannelModel`). The argument that consistency is preserved
//! is a simulation: every stream's receiver releases messages to the
//! inner plane exactly once, in sequence order — so the inner plane
//! observes precisely the message sequence an ideal channel would have
//! delivered, merely later. Events, tags, and digests are computed from
//! that sequence, so every consistency property of the ideal-channel run
//! carries over unchanged.
//!
//! The one escape hatch is the retry budget: a message retransmitted
//! past the budget is abandoned, the plane is marked **degraded**, and a
//! `retry_exhausted` event lands in the flight recorder — an explicit
//! loud failure instead of a silent wrong answer. The budget is
//! [`Reliable::with_budget`]'s argument; `scenario_run` reads it from
//! `EDN_RETRY_BUDGET` (default 8, see [`parse_retry_budget`]).
//!
//! The wire format, [`Envelope`], is this module's own. Two independent
//! streams exist per switch: switch→controller (notifications) and
//! controller→switch (commands). Acks ride piggybacked on data envelopes
//! and as dedicated [`Envelope::Ack`] messages; pure acks are never
//! themselves acknowledged, so there is no ack storm, and are plumbing
//! ([`CtrlMsg::is_plumbing`]): they never move a switch's causal frontier.
//! Retransmit timers use the engine's deterministic timer events, keyed
//! per entity — lossy runs replay byte-identically.

use std::collections::BTreeMap;

use edn_obs::Hist;
use netsim::{CtrlMsg, DataPlane, PacketArena, PacketId, PlaneOut, SimTime, CONTROLLER_NODE};

/// Parses an `EDN_RETRY_BUDGET` value (maximum retransmissions per
/// message); unset or empty means 8.
///
/// # Errors
///
/// Returns the message to show the user if the value is not a number.
pub fn parse_retry_budget(value: Option<&str>) -> Result<u32, String> {
    match value {
        None | Some("") => Ok(8),
        Some(v) => v.parse().map_err(|_| format!("EDN_RETRY_BUDGET must be a number, got {v:?}")),
    }
}

/// Reads the retransmit budget from `EDN_RETRY_BUDGET` (see
/// [`parse_retry_budget`]).
///
/// # Panics
///
/// Panics if the variable is set but not a number.
pub fn retry_budget_from_env() -> u32 {
    parse_retry_budget(std::env::var("EDN_RETRY_BUDGET").ok().as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Initial retransmission timeout; doubles on every retry. Comfortably
/// above one control-channel round trip at the default latency.
fn base_rto() -> SimTime {
    SimTime::from_millis(20)
}

/// What a [`Reliable`] plane's endpoints send each other: the wrapped
/// plane's message `M` in a sequence-numbered envelope, or a pure ack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Envelope<M> {
    /// One inner message with its stream header.
    Data {
        /// The stream's switch endpoint: its sender up, its target down.
        sw: u64,
        /// 1-based sequence number on the `(direction, sw)` stream.
        seq: u32,
        /// Cumulative ack of the reverse stream.
        ack: u32,
        /// The inner plane's message.
        msg: M,
    },
    /// A pure cumulative ack for stream `sw`: every message with
    /// `seq <= ack` was received in order. Never itself acknowledged.
    Ack {
        /// The acknowledged stream's switch endpoint.
        sw: u64,
        /// The cumulative ack.
        ack: u32,
    },
}

/// A pure ack changes no switch state, so it is plumbing.
impl<M: CtrlMsg> CtrlMsg for Envelope<M> {
    fn is_plumbing(&self) -> bool {
        matches!(self, Envelope::Ack { .. })
    }
}

/// One unacknowledged sent message.
#[derive(Clone, Copy, Debug)]
struct Unacked<M> {
    msg: M,
    /// First-transmission time (RTT samples use it, Karn-style: only
    /// never-retransmitted messages contribute).
    sent: SimTime,
    retries: u32,
    /// Current timeout (doubles per retry).
    rto: SimTime,
    /// When the next retransmission is due.
    deadline: SimTime,
}

/// One endpoint's state for one switch's stream pair: the sending half of
/// its outgoing stream and the receiving half of the incoming one.
#[derive(Clone, Debug)]
struct EndState<M> {
    /// Last assigned sequence number (1-based; 0 = nothing sent).
    next: u32,
    unacked: BTreeMap<u32, Unacked<M>>,
    /// Highest sequence received in order; everything ≤ this was
    /// released to the inner plane exactly once.
    cum: u32,
    /// Out-of-order arrivals held for reassembly.
    hold: BTreeMap<u32, M>,
}

impl<M> Default for EndState<M> {
    fn default() -> EndState<M> {
        EndState { next: 0, unacked: BTreeMap::new(), cum: 0, hold: BTreeMap::new() }
    }
}

/// Removes and returns every entry acknowledged by cumulative `ack`.
fn take_acked<M>(st: &mut EndState<M>, ack: u32) -> Vec<Unacked<M>> {
    let seqs: Vec<u32> = st.unacked.range(..=ack).map(|(&s, _)| s).collect();
    seqs.into_iter().map(|s| st.unacked.remove(&s).expect("just enumerated")).collect()
}

/// Retransmits every due entry of the stream `node` holds towards/for
/// switch `sw` (or abandons it when the budget is spent), writing fresh
/// envelopes into `out` — deliveries from the controller endpoint,
/// notifications from a switch endpoint — and returns `(retransmissions
/// made, whether any message exhausted its budget)`. Free function so
/// callers can split borrows across the plane's fields.
fn retransmit_due<M: CtrlMsg>(
    st: &mut EndState<M>,
    sw: u64,
    node: u64,
    now: SimTime,
    budget: u32,
    out: &mut PlaneOut<Envelope<M>>,
) -> (u64, bool) {
    let (mut retransmits, mut exhausted) = (0, false);
    let due: Vec<u32> =
        st.unacked.iter().filter(|(_, u)| u.deadline <= now).map(|(&s, _)| s).collect();
    for seq in due {
        let u = st.unacked.get_mut(&seq).expect("just enumerated");
        if u.retries >= budget {
            st.unacked.remove(&seq);
            exhausted = true;
            out.channel_events.push(("retry_exhausted", node));
            continue;
        }
        u.retries += 1;
        u.rto = SimTime::from_micros(u.rto.as_micros().saturating_mul(2));
        u.deadline = now + u.rto;
        retransmits += 1;
        out.timers.push((u.deadline, node));
        let envelope = Envelope::Data { sw, seq, ack: st.cum, msg: u.msg };
        if node == CONTROLLER_NODE {
            out.deliveries.push((SimTime::ZERO, sw, envelope));
        } else {
            out.notifications.push(envelope);
        }
    }
    (retransmits, exhausted)
}

/// A [`DataPlane`] adapter adding ack/retry/backoff reliability to the
/// switch↔controller channel (see the module docs for the protocol and
/// the consistency-preservation argument).
#[derive(Clone, Debug)]
pub struct Reliable<D: DataPlane> {
    inner: D,
    /// Maximum retransmissions per message before giving up degraded.
    budget: u32,
    /// Per-switch state held at the switch endpoint.
    sw_state: BTreeMap<u64, EndState<D::Msg>>,
    /// Per-switch state held at the controller endpoint.
    ctrl_state: BTreeMap<u64, EndState<D::Msg>>,
    /// The buffer the inner plane reports into, empty between calls.
    inner_out: PlaneOut<D::Msg>,
    degraded: bool,
    retransmits: u64,
    dup_suppressed: u64,
    acked: u64,
    ack_rtt_us: Hist,
}

impl<D: DataPlane> Reliable<D> {
    /// Wraps `inner` with an explicit retry budget (maximum
    /// retransmissions per message).
    pub fn with_budget(inner: D, budget: u32) -> Reliable<D> {
        Reliable {
            inner,
            budget,
            sw_state: BTreeMap::new(),
            ctrl_state: BTreeMap::new(),
            inner_out: PlaneOut::default(),
            degraded: false,
            retransmits: 0,
            dup_suppressed: 0,
            acked: 0,
            ack_rtt_us: Hist::new(),
        }
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Did any message exhaust its retry budget? A `true` here means the
    /// inner plane may have missed messages: the run must be reported as
    /// `degraded`, never silently trusted.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Total retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total duplicate receptions suppressed so far.
    pub fn dup_suppressed(&self) -> u64 {
        self.dup_suppressed
    }

    /// The `end` endpoint's state for switch `sw`'s stream pair, and the
    /// node naming that endpoint in timer requests and telemetry.
    fn end_state(&mut self, end: Endpoint, sw: u64) -> (&mut EndState<D::Msg>, u64) {
        match end {
            Endpoint::Switch => (self.sw_state.entry(sw).or_default(), sw),
            Endpoint::Controller => (self.ctrl_state.entry(sw).or_default(), CONTROLLER_NODE),
        }
    }

    /// Wraps one outgoing data message of the `end` endpoint's stream for
    /// switch `sw` into an envelope, registering it for retransmission and
    /// arming the endpoint's retransmit timer.
    fn send(
        &mut self,
        end: Endpoint,
        sw: u64,
        msg: D::Msg,
        now: SimTime,
        timers: &mut Vec<(SimTime, u64)>,
    ) -> Envelope<D::Msg> {
        let (st, node) = self.end_state(end, sw);
        st.next += 1;
        let seq = st.next;
        let deadline = now + base_rto();
        st.unacked.insert(seq, Unacked { msg, sent: now, retries: 0, rto: base_rto(), deadline });
        timers.push((deadline, node));
        Envelope::Data { sw, seq, ack: st.cum, msg }
    }

    /// Runs one inner-plane interaction against the kept `inner_out`, moves
    /// its message-free lists over to `out`, and envelopes what the inner
    /// plane sent, in its order: notifications on switch `sw`'s stream,
    /// each delivery on its target switch's stream.
    fn call_inner(
        &mut self,
        sw: u64,
        now: SimTime,
        out: &mut PlaneOut<Envelope<D::Msg>>,
        call: impl FnOnce(&mut D, &mut PlaneOut<D::Msg>),
    ) {
        let mut inner_out = std::mem::take(&mut self.inner_out);
        call(&mut self.inner, &mut inner_out);
        out.outputs.append(&mut inner_out.outputs);
        out.timers.append(&mut inner_out.timers);
        out.channel_events.append(&mut inner_out.channel_events);
        for msg in inner_out.notifications.drain(..) {
            let envelope = self.send(Endpoint::Switch, sw, msg, now, &mut out.timers);
            out.notifications.push(envelope);
        }
        for (delay, to, msg) in inner_out.deliveries.drain(..) {
            let envelope = self.send(Endpoint::Controller, to, msg, now, &mut out.timers);
            out.deliveries.push((delay, to, envelope));
        }
        self.inner_out = inner_out;
    }

    /// Applies a cumulative ack to one sender, folding RTT samples and
    /// the acked count into the metrics.
    fn apply_ack(&mut self, end: Endpoint, sw: u64, ack: u32, now: SimTime) {
        let acked = take_acked(self.end_state(end, sw).0, ack);
        for u in acked {
            self.acked += 1;
            if u.retries == 0 {
                self.ack_rtt_us.observe(now.as_micros().saturating_sub(u.sent.as_micros()));
            }
        }
    }

    /// Runs one received envelope through receiver-side sequencing:
    /// returns the inner messages released *in order* (possibly several,
    /// when a gap closes), having suppressed duplicates and parked
    /// out-of-order arrivals.
    fn receive(
        &mut self,
        end: Endpoint,
        sw: u64,
        seq: u32,
        msg: D::Msg,
        events: &mut Vec<(&'static str, u64)>,
    ) -> Vec<D::Msg> {
        let (st, node) = self.end_state(end, sw);
        let mut released = Vec::new();
        if seq <= st.cum {
            events.push(("dup_suppressed", node));
            self.dup_suppressed += 1;
        } else if seq == st.cum + 1 {
            st.cum = seq;
            released.push(msg);
            while let Some(held) = st.hold.remove(&(st.cum + 1)) {
                st.cum += 1;
                released.push(held);
            }
        } else {
            st.hold.insert(seq, msg);
        }
        released
    }
}

/// Which end of a switch's stream pair an operation touches.
#[derive(Clone, Copy)]
enum Endpoint {
    Switch,
    Controller,
}

impl<D: DataPlane> DataPlane for Reliable<D> {
    type Msg = Envelope<D::Msg>;

    fn step(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut<Self::Msg>,
    ) {
        self.call_inner(sw, now, out, |inner, inner_out| {
            inner.step(sw, pt, packet, from_host, now, arena, inner_out)
        });
    }

    fn on_notify(&mut self, msg: Self::Msg, now: SimTime, out: &mut PlaneOut<Self::Msg>) {
        match msg {
            Envelope::Data { sw, seq, ack, msg } => {
                // The piggybacked ack confirms our controller→switch sends.
                self.apply_ack(Endpoint::Controller, sw, ack, now);
                let released =
                    self.receive(Endpoint::Controller, sw, seq, msg, &mut out.channel_events);
                for msg in released {
                    self.call_inner(sw, now, out, |inner, inner_out| {
                        inner.on_notify(msg, now, inner_out)
                    });
                }
                // Always (re)confirm what we have — the dedicated ack also
                // covers the duplicate and out-of-order cases.
                let cum = self.end_state(Endpoint::Controller, sw).0.cum;
                out.deliveries.push((SimTime::ZERO, sw, Envelope::Ack { sw, ack: cum }));
            }
            // A dedicated ack from a switch confirms controller→switch sends.
            Envelope::Ack { sw, ack } => self.apply_ack(Endpoint::Controller, sw, ack, now),
        }
    }

    /// The one control entry point: an envelope is sequenced, released to
    /// the inner plane in order, and **always** answered with the
    /// cumulative [`Envelope::Ack`] the sender's retransmit logic waits for.
    fn deliver(&mut self, sw: u64, msg: Self::Msg, now: SimTime, out: &mut PlaneOut<Self::Msg>) {
        match msg {
            Envelope::Data { seq, ack, msg, .. } => {
                // The piggybacked ack confirms our switch→controller sends.
                self.apply_ack(Endpoint::Switch, sw, ack, now);
                let released =
                    self.receive(Endpoint::Switch, sw, seq, msg, &mut out.channel_events);
                for msg in released {
                    self.call_inner(sw, now, out, |inner, inner_out| {
                        inner.deliver(sw, msg, now, inner_out)
                    });
                }
                let cum = self.end_state(Endpoint::Switch, sw).0.cum;
                out.notifications.push(Envelope::Ack { sw, ack: cum });
            }
            // A dedicated ack from the controller confirms our sends.
            Envelope::Ack { ack, .. } => self.apply_ack(Endpoint::Switch, sw, ack, now),
        }
    }

    fn on_timer(&mut self, node: u64, now: SimTime, out: &mut PlaneOut<Self::Msg>) {
        let (mut retransmits, mut exhausted) = (0, false);
        let mut tally = |(n, x): (u64, bool)| {
            retransmits += n;
            exhausted |= x;
        };
        if node == CONTROLLER_NODE {
            for (&sw, st) in self.ctrl_state.iter_mut() {
                tally(retransmit_due(st, sw, node, now, self.budget, out));
            }
        } else if let Some(st) = self.sw_state.get_mut(&node) {
            tally(retransmit_due(st, node, node, now, self.budget, out));
        }
        self.retransmits += retransmits;
        self.degraded |= exhausted;
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        // Every count is incremented at a unique dispatch site, so the
        // values are a function of the simulated run alone.
        reg.counter_add(edn_obs::Scope::Sim, "reliable.retransmits", self.retransmits);
        reg.counter_add(edn_obs::Scope::Sim, "reliable.dup_suppressed", self.dup_suppressed);
        reg.counter_add(edn_obs::Scope::Sim, "reliable.acked", self.acked);
        reg.hist_merge(edn_obs::Scope::Sim, "reliable.ack_rtt_us", &self.ack_rtt_us);
        self.inner.contribute_metrics(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::EventSet;
    use netkat::{Loc, Packet};
    use netsim::{ChannelModel, DirModel, Engine, MetricsLevel, SimParams, SimTopology, SinkHosts};

    #[test]
    fn retry_budget_parses_unset_empty_numbers_and_rejects_typos() {
        assert_eq!(parse_retry_budget(None), Ok(8));
        assert_eq!(parse_retry_budget(Some("")), Ok(8));
        assert_eq!(parse_retry_budget(Some("0")), Ok(0));
        assert_eq!(parse_retry_budget(Some("12")), Ok(12));
        assert_eq!(
            parse_retry_budget(Some("eight")),
            Err("EDN_RETRY_BUDGET must be a number, got \"eight\"".to_string())
        );
    }

    /// A minimal inner plane that counts what the controller hears and
    /// what each switch is told — the reliability layer's contract is
    /// that these counts match an ideal channel's exactly.
    #[derive(Clone, Debug, Default)]
    struct Probe {
        sent: u64,
        heard: Vec<u64>,
        delivered: Vec<(u64, u64)>,
    }

    impl DataPlane for Probe {
        /// Carries the counter as bits: a payload the tests can follow.
        type Msg = EventSet;

        fn step(
            &mut self,
            sw: u64,
            _: u64,
            packet: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<EventSet>,
        ) {
            out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
            if sw == 1 {
                out.notifications.push(EventSet::from_bits(self.sent));
                self.sent += 1;
            }
        }
        fn on_notify(&mut self, msg: EventSet, _: SimTime, out: &mut PlaneOut<EventSet>) {
            self.heard.push(msg.bits());
            // Echo the heard payload to switch 1.
            out.deliveries.push((SimTime::ZERO, 1, msg));
        }
        fn deliver(&mut self, sw: u64, msg: EventSet, _: SimTime, _: &mut PlaneOut<EventSet>) {
            self.delivered.push((sw, msg.bits()));
        }
    }

    fn topo() -> SimTopology {
        SimTopology::new([1, 2]).host(100, Loc::new(1, 2)).host(200, Loc::new(2, 2)).bilink(
            Loc::new(1, 1),
            Loc::new(2, 1),
            SimTime::from_micros(50),
            None,
        )
    }

    fn run_probe(
        model: ChannelModel,
        budget: u32,
        n: u64,
    ) -> (netsim::RunResult<Reliable<Probe>>, netsim::FlightRecorder) {
        let mut e = Engine::new(
            topo(),
            SimParams::default(),
            Reliable::with_budget(Probe::default(), budget),
            Box::new(SinkHosts),
        )
        .with_channel(model)
        .with_metrics(MetricsLevel::Full);
        let flight = e.flight_recorder().expect("full metrics attaches the recorder");
        for i in 0..n {
            e.inject_at(SimTime::from_millis(1 + i), 100, Packet::new());
        }
        e.run(SimTime::from_secs(30));
        (e.finish(), flight)
    }

    #[test]
    fn ideal_channel_passes_every_message_exactly_once() {
        let (r, _) = run_probe(ChannelModel::ideal(), 8, 20);
        assert!(!r.dataplane.degraded());
        assert_eq!(r.dataplane.inner().heard, (0..20).collect::<Vec<_>>());
        assert_eq!(r.dataplane.inner().delivered.len(), 20);
        assert_eq!(r.dataplane.retransmits(), 0);
        assert_eq!(r.dataplane.dup_suppressed(), 0);
    }

    #[test]
    fn lossy_channel_still_delivers_everything_in_order() {
        let (r, _) = run_probe(ChannelModel::lossy(1234), 8, 50);
        assert!(!r.dataplane.degraded(), "a generous budget never exhausts at 6% loss");
        // The inner plane saw the ideal message sequence: every
        // notification exactly once, in order, and every command.
        assert_eq!(r.dataplane.inner().heard, (0..50).collect::<Vec<_>>());
        assert_eq!(r.dataplane.inner().delivered, (0..50).map(|i| (1, i)).collect::<Vec<_>>());
        assert!(
            r.dataplane.retransmits() > 0,
            "a 6% drop rate over 100+ messages needs retransmissions"
        );
        assert_eq!(r.metrics.counter("reliable.retransmits"), Some(r.dataplane.retransmits()));
        let rtt = r.metrics.histogram("reliable.ack_rtt_us").expect("rtt histogram");
        assert!(rtt.count() > 0);
    }

    /// Satellite pin: the flight recorder shows the message-level cause
    /// of channel trouble — `drop` (engine), `dup_suppressed` (receiver),
    /// and `retry_exhausted` (sender giving up) all land in the dump.
    #[test]
    fn flight_recorder_pins_channel_event_kinds() {
        // Every switch→controller message duplicated: dup suppression on
        // the controller end, no drops.
        let dup_all = ChannelModel {
            to_ctrl: DirModel { drop_pm: 0, dup_pm: 1000, reorder_pm: 0, jitter_us: 0 },
            to_switch: DirModel::default(),
            seed: 5,
        };
        let (r, flight) = run_probe(dup_all, 8, 5);
        assert!(!r.dataplane.degraded());
        assert_eq!(r.dataplane.dup_suppressed(), 5, "each envelope's second copy suppressed");
        assert_eq!(r.dataplane.inner().heard, vec![0, 1, 2, 3, 4], "payloads released once");
        let dump = flight.dump_json();
        assert!(dump.contains("\"dup_suppressed\""), "dump: {dump}");

        // Every switch→controller message dropped, budget 1: the sender
        // retries once, then gives up degraded.
        let drop_all = ChannelModel {
            to_ctrl: DirModel { drop_pm: 1000, dup_pm: 0, reorder_pm: 0, jitter_us: 0 },
            to_switch: DirModel::default(),
            seed: 5,
        };
        let (r, flight) = run_probe(drop_all, 1, 1);
        assert!(r.dataplane.degraded(), "budget exhaustion must mark the run degraded");
        assert!(r.dataplane.inner().heard.is_empty(), "nothing ever got through");
        let dump = flight.dump_json();
        assert!(dump.contains("\"drop\""), "dump: {dump}");
        assert!(dump.contains("\"retry_exhausted\""), "dump: {dump}");
        assert_eq!(r.metrics.counter("channel.dropped"), Some(2), "original + one retry");
    }

    /// Delivers `msg` to switch 7 through a fresh [`PlaneOut`].
    fn deliver(p: &mut Reliable<Probe>, msg: Envelope<EventSet>) -> PlaneOut<Envelope<EventSet>> {
        let mut out = PlaneOut::default();
        p.deliver(7, msg, SimTime::ZERO, &mut out);
        out
    }

    #[test]
    fn out_of_order_arrivals_are_reassembled() {
        // Protocol-level check, no engine: deliver ctrl→switch envelopes
        // out of order and watch the receiver release them in sequence.
        let mut p = Reliable::with_budget(Probe::default(), 8);
        let env =
            |seq: u32, bits| Envelope::Data { sw: 7, seq, ack: 0, msg: EventSet::from_bits(bits) };
        let out = deliver(&mut p, env(2, 20));
        assert_eq!(out.notifications, vec![Envelope::Ack { sw: 7, ack: 0 }], "gap: ack stays at 0");
        assert!(p.inner().delivered.is_empty(), "held, not released");
        let out = deliver(&mut p, env(1, 10));
        assert_eq!(out.notifications, vec![Envelope::Ack { sw: 7, ack: 2 }], "gap closed");
        assert_eq!(p.inner().delivered, vec![(7, 10), (7, 20)], "released in order");
        // A late duplicate of either is suppressed and re-acked.
        let out = deliver(&mut p, env(1, 10));
        assert_eq!(out.notifications, vec![Envelope::Ack { sw: 7, ack: 2 }]);
        assert_eq!(p.dup_suppressed(), 1);
        assert_eq!(p.inner().delivered.len(), 2, "no double delivery");
    }

    /// The trait's only control entry point can no longer lose the ack the
    /// sender's retransmit logic depends on: every delivered envelope —
    /// fresh, held, or duplicate — leaves a cumulative `Ack` in the same
    /// `out`, and a duplicate also leaves its `dup_suppressed` event there.
    #[test]
    fn delivering_an_envelope_always_acks_in_the_same_out() {
        let mut p = Reliable::with_budget(Probe::default(), 8);
        let env = Envelope::Data { sw: 7, seq: 1, ack: 0, msg: EventSet::from_bits(10) };
        let first = deliver(&mut p, env);
        assert_eq!(first.notifications, vec![Envelope::Ack { sw: 7, ack: 1 }]);
        assert!(first.channel_events.is_empty());
        let dup = deliver(&mut p, env);
        assert_eq!(dup.notifications, vec![Envelope::Ack { sw: 7, ack: 1 }]);
        assert_eq!(dup.channel_events, vec![("dup_suppressed", 7)]);
        assert_eq!(p.inner().delivered, vec![(7, 10)], "the duplicate is not re-delivered");
    }

    #[test]
    fn retransmission_backs_off_exponentially_and_respects_acks() {
        let mut p = Reliable::with_budget(Probe::default(), 8);
        let mut arena = PacketArena::new();
        let id = arena.intern(Packet::new());
        // One switch→controller send at t=0.
        let mut out = PlaneOut::default();
        p.step(1, 2, id, true, SimTime::ZERO, &mut arena, &mut out);
        let Envelope::Data { sw: 1, seq: 1, .. } = out.notifications[0] else {
            panic!("expected an envelope, got {:?}", out.notifications[0]);
        };
        assert_eq!(out.timers, vec![(base_rto(), 1)]);
        // First deadline: one retransmission, next timer doubled out.
        out = PlaneOut::default();
        p.on_timer(1, base_rto(), &mut out);
        assert_eq!(out.notifications.len(), 1);
        assert_eq!(p.retransmits(), 1);
        let next = SimTime::from_micros(3 * base_rto().as_micros());
        assert_eq!(out.timers, vec![(next, 1)]);
        // An ack clears the entry: the later timer fire is a no-op.
        out = PlaneOut::default();
        p.deliver(1, Envelope::Ack { sw: 1, ack: 1 }, base_rto(), &mut out);
        p.on_timer(1, next, &mut out);
        assert_eq!(out, PlaneOut::default(), "acks and stale timer fires leave nothing to send");
        assert!(!p.degraded());
    }
}
