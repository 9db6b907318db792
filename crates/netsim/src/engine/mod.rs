//! The discrete-event simulation engine.
//!
//! A fully deterministic event loop: events fire in `(time, sequence)`
//! order, so identical inputs give identical runs. The engine implements
//! the *mechanics* of Fig. 7 — queues, links, host injection, controller
//! message transport — and delegates all *behaviour* (forwarding, tagging,
//! state) to a [`DataPlane`].
//!
//! Every processing step is reported once, to the engine's one
//! [`TraceObserver`] slot: the online checker judges the run from that
//! stream, and under [`TraceMode::Full`] `edn-core`'s trace builder sits in
//! front of it and records the Section 2 network trace.
//!
//! The loop is one function, `Engine::step`: admit the source's events up
//! to the next fire time, pop one due event, dispatch it. `build` holds the
//! pre-run API, `dispatch` the packet events, `control` the control events.
//!
//! # The sequence key
//!
//! Timestamp ties are broken by a *per-entity* sequence: every event
//! carries a 64-bit key packing `(creating entity, that entity's creation
//! counter)`, where an entity is a switch, a host, the controller, or the
//! pre-run environment (initial injections). The key is assigned when the
//! event is created, from state local to the creating entity, so the
//! order of two same-time events depends only on who created them and in
//! which order each creator did — never on queue insertion order. Every
//! committed fingerprint and benchmark counter pins this order.

mod build;
mod control;
mod dispatch;

use edn_core::{NetworkTrace, TraceMode, TraceObserver};
use edn_obs::{FlightEvent, MetricsLevel, Registry, Stopwatch};
use netkat::{Loc, Packet, PacketArena, PacketId};

use crate::channel::ChannelModel;
use crate::logic::{BoxedHosts, DataPlane, PlaneOut};
use crate::metrics::{self, EngineMetrics};
use crate::queue::{EventKey, Pending};
use crate::recorder::{self, TraceHandle};
use crate::source::WorkloadSource;
use crate::stats::{Stats, StatsMode};
use crate::time::SimTime;
use crate::topology::{SimParams, SimTopology};

use build::Timeline;
pub use build::{shard_count_from_env, DEFAULT_PACKET_SIZE};
use control::EntityMap;
use dispatch::EgressMap;

/// The dense entity id of the pre-run environment (initial injections).
const ENV_ENTITY: u32 = 0;
/// The dense entity id of the controller.
const CTRL_ENTITY: u32 = 1;
/// Sentinel cause for control messages no packet step sent (replies to
/// notifies and deliveries, timer resends): they carry no happens-before
/// obligation, so the causality bookkeeping skips them. Dropping an HB
/// edge can only weaken the checker's obligations, never invent a violation.
const NO_CAUSE: usize = usize::MAX;
/// Bits of the packed sequence key reserved for the per-entity counter.
const SEQ_SHIFT: u32 = 40;

/// Packs `(entity, counter)` into the queue's 64-bit tie-break key.
fn pack_seq(sender: u32, counter: u64) -> u64 {
    debug_assert!(counter < 1 << SEQ_SHIFT, "per-entity event counter overflow");
    ((sender as u64) << SEQ_SHIFT) | counter
}

/// Pending events carry [`PacketId`]s into the engine's arena, never
/// owned packets: forking an event (multicast) copies four bytes. `M` is
/// the plane's [`DataPlane::Msg`].
#[derive(Clone, Copy, Debug)]
enum EventKind<M> {
    /// A host pushes a packet onto its attachment link. `sender` is the
    /// host's dense entity id (events this dispatch creates are its).
    Inject { host: u64, packet: PacketId, size: u32, sender: u32 },
    /// A packet arrives at a location (switch ingress or host). `sender`
    /// is the dense entity id of `loc.sw` (or of the host); `parent` is the
    /// trace record the packet descends from.
    Arrive { loc: Loc, packet: PacketId, size: u32, parent: usize, from_host: bool, sender: u32 },
    /// A switch-to-controller message arrives at the controller; `cause`
    /// is the trace index of the packet processing step that produced it
    /// ([`NO_CAUSE`] if no packet step sent it).
    Notify { msg: M, cause: usize },
    /// A controller command arrives at a switch.
    Deliver { sw: u64, msg: M },
    /// A data-plane-requested timer fires at a switch (or, with
    /// `node == CONTROLLER_NODE`, at the controller); `entity` is the
    /// node's dense id.
    Timer { node: u64, entity: u32 },
}

impl<M> EventKind<M> {
    /// The event's metric slot (`EngineMetrics::dispatched`), its
    /// flight-recorder label, and the node it happens at.
    fn describe(&self) -> (usize, &'static str, u64) {
        match self {
            EventKind::Inject { host, .. } => (0, "inject", *host),
            EventKind::Arrive { loc, .. } => (1, "arrive", loc.sw),
            EventKind::Notify { .. } => (2, "notify", 0),
            EventKind::Deliver { sw, .. } => (3, "deliver", *sw),
            EventKind::Timer { node, .. } => (4, "timer", *node),
        }
    }
}

/// The result of a finished run.
#[derive(Debug)]
pub struct RunResult<D> {
    /// The network trace (Section 2 structure) the trace builder of a
    /// [`TraceMode::Full`] run recorded; empty under
    /// [`TraceMode::StatsOnly`].
    pub trace: NetworkTrace,
    /// Deliveries and counters.
    pub stats: Stats,
    /// The data plane, with whatever internal state it accumulated.
    pub dataplane: D,
    /// The run's telemetry ([`edn_obs::Registry`]): empty unless the
    /// engine ran with [`MetricsLevel::Counters`] or
    /// [`MetricsLevel::Full`] (see [`Engine::with_metrics`]). The
    /// `sim`-scoped section is byte-identical across replays and across
    /// the result-neutral knobs.
    pub metrics: Registry,
}

/// The discrete-event simulator: the pending events, the data plane, the
/// packet arena, the observer slot, and the loop that drives them.
///
/// # Examples
///
/// See the crate-level documentation for a complete run.
pub struct Engine<D: DataPlane> {
    topo: SimTopology,
    params: SimParams,
    dataplane: D,
    hosts: BoxedHosts,
    pending: Pending<EventKind<D::Msg>>,
    now: SimTime,
    /// Every in-flight packet, interned; a slot lives while an event
    /// carries it.
    arena: PacketArena,
    /// Trace records numbered so far: the next record's index.
    records: usize,
    /// Whether the per-packet delivery stream is retained.
    stats_mode: StatsMode,
    stats: Stats,
    /// What each egress location leads to (host or link), resolved once at
    /// construction.
    egress: EgressMap,
    /// Per-link transmission backlog, indexed like `topo.links()`: when the
    /// link is next free.
    link_free: Vec<SimTime>,
    /// Per-link up/down schedule, indexed like `topo.links()`: `true`
    /// entries take the link down, `false` entries bring it back up.
    /// Empty = the link never fails.
    link_state: Vec<Timeline<bool>>,
    /// Scheduled overrides of the switch↔controller latency (spikes);
    /// empty = `params.controller_latency` throughout.
    ctrl_latency: Timeline<SimTime>,
    /// Dense entity numbering.
    entities: EntityMap,
    /// Per-entity creation counters.
    counters: Vec<u64>,
    /// Creation counter of the environment entity (initial injections).
    env_seq: u64,
    /// The control-channel fault model (ideal short-circuits every site).
    channel: ChannelModel,
    /// Per-entity control-message send counters feeding the fault stream:
    /// a message's fate depends on who sent it and how many that sender
    /// sent before, not on the global interleaving.
    chan_counts: Vec<u64>,
    /// The one buffer every plane interaction reports through, reused for
    /// the whole run and empty between dispatches.
    out: PlaneOut<D::Msg>,
    /// Trace indices whose processing sent something to the controller.
    ctrl_causes: Vec<usize>,
    /// Per entity (only switches' entries move): how many of `ctrl_causes`
    /// have been delivered to it.
    ctrl_delivered: Vec<usize>,
    /// Per entity: how many of `ctrl_causes` are already linked.
    ctrl_linked: Vec<usize>,
    /// Lazy injection stream.
    source: Option<SourceState>,
    /// Has `run` been called yet? Sources and observers attach before.
    started: bool,
    /// Where each processing step is reported, once.
    observer: Option<Box<dyn TraceObserver + Send>>,
    trace_mode: TraceMode,
    /// Where a [`TraceMode::Full`] run's recorder leaves the trace; set
    /// when the first `run` attaches the recorder.
    trace: Option<TraceHandle>,
    /// Telemetry accumulators (no-ops unless metrics are on).
    metrics: EngineMetrics,
}

/// A registered [`WorkloadSource`] plus its reserved environment-sequence
/// window: event `seq` of the source maps to key `pack_seq(ENV, base+seq)`.
struct SourceState {
    src: Box<dyn WorkloadSource + Send>,
    base: u64,
    total: u64,
    /// The buffer the source writes each event's packet into, kept for the
    /// whole run; the arena copies it into a recycled slot's kept buffer.
    packet: Packet,
}

impl<D: DataPlane> Engine<D> {
    /// Creates an engine.
    ///
    /// The run records no trace ([`TraceMode::StatsOnly`]): a verdict
    /// comes from an observer attached with
    /// [`set_observer`](Engine::set_observer), and a caller that diffs or
    /// checks the trace itself asks for it with
    /// [`with_trace_mode`](Engine::with_trace_mode). The per-packet
    /// delivery stream starts at [`StatsMode::Full`], since deliveries are
    /// what a timeline reads; a caller that only wants the counters says so
    /// with [`with_stats_mode`](Engine::with_stats_mode). Telemetry starts
    /// at [`MetricsLevel::Off`] and the control channel at
    /// [`ChannelModel::ideal`]; a caller that wants either changed says so
    /// with [`with_metrics`](Engine::with_metrics) and
    /// [`with_channel`](Engine::with_channel). Nothing here reads the
    /// process environment.
    pub fn new(topo: SimTopology, params: SimParams, dataplane: D, hosts: BoxedHosts) -> Engine<D> {
        let entities = EntityMap::build(&topo);
        let egress = dispatch::egress_map(&topo, &entities);
        let n_links = topo.links().len();
        let n_entities = entities.len();
        Engine {
            topo,
            params,
            dataplane,
            hosts,
            pending: Pending::new(),
            now: SimTime::ZERO,
            arena: PacketArena::new(),
            records: 0,
            stats_mode: StatsMode::Full,
            stats: Stats::default(),
            egress,
            link_free: vec![SimTime::ZERO; n_links],
            link_state: vec![Vec::new(); n_links],
            ctrl_latency: Vec::new(),
            entities,
            counters: vec![0; n_entities],
            env_seq: 0,
            channel: ChannelModel::ideal(),
            chan_counts: vec![0; n_entities],
            out: PlaneOut::default(),
            ctrl_causes: Vec::new(),
            ctrl_delivered: vec![0; n_entities],
            ctrl_linked: vec![0; n_entities],
            source: None,
            started: false,
            observer: None,
            trace_mode: TraceMode::StatsOnly,
            trace: None,
            metrics: EngineMetrics::new(MetricsLevel::Off, None),
        }
    }

    fn next_seq(&mut self, sender: u32) -> u64 {
        let counter = &mut self.counters[sender as usize];
        let seq = pack_seq(sender, *counter);
        *counter += 1;
        seq
    }

    fn push_keyed(&mut self, time: SimTime, seq: u64, kind: EventKind<D::Msg>) {
        // The queue holds a reference to the packet an event carries: this
        // pins its arena slot until the event is dispatched.
        if let EventKind::Inject { packet, .. } | EventKind::Arrive { packet, .. } = kind {
            self.arena.retain(packet);
        }
        self.pending.push(time, seq, kind);
    }

    /// [`push_keyed`](Engine::push_keyed) for an event a dispatch *creates*:
    /// observes the creation-to-fire sim-time latency. The injection paths
    /// (pre-run and source pump) use raw `push_keyed`: those are workload
    /// admissions, not engine-scheduled delays.
    fn schedule(&mut self, time: SimTime, seq: u64, kind: EventKind<D::Msg>) {
        if self.metrics.on {
            self.metrics.observe_scheduled(time, self.now);
        }
        self.push_keyed(time, seq, kind);
    }

    /// Records `kind` at `node` in the flight recorder, if there is one,
    /// stamped with the current time and queue depth.
    fn flight(&self, seq: u64, kind: &'static str, node: u64) {
        if let Some(fr) = &self.metrics.flight {
            let depth = self.pending.len() as u64;
            fr.record(FlightEvent { t_us: self.now.as_micros(), seq, kind, node, depth });
        }
    }

    /// Runs the event loop until the queue empties or `deadline` passes.
    ///
    /// This is the simulation proper — the phase scale measurements time.
    /// Turning the recorded run into a [`RunResult`] (which materializes
    /// the network trace from the arena) is the separate
    /// [`finish`](Engine::finish) step; [`run_until`](Engine::run_until)
    /// does both.
    pub fn run(&mut self, deadline: SimTime) {
        if !self.started {
            self.started = true;
            // The observer gets the flight recorder now, not when it is
            // attached: the metrics level may be set after it. And it gets
            // it before the trace recorder wraps it, since the recorder's
            // fan-out does not forward it.
            if let (Some(o), Some(fr)) = (self.observer.as_deref_mut(), &self.metrics.flight) {
                o.attach_flight_recorder(fr.clone());
            }
            if self.trace_mode == TraceMode::Full {
                let (slot, trace) = recorder::record_in_front(self.observer.take());
                self.observer = Some(slot);
                self.trace = Some(trace);
            }
        }
        while self.step(deadline) {}
    }

    /// One step of the loop: admits the source's events up to the next
    /// fire time, then pops the earliest event and dispatches it. Returns
    /// `false`, having dispatched nothing, once no event is due at or
    /// before `deadline`; a later one stays pending for a later `run`.
    pub(crate) fn step(&mut self, deadline: SimTime) -> bool {
        self.pump_source(deadline);
        let Some((key, kind)) = self.pending.pop_due(deadline) else { return false };
        self.now = key.0;
        self.dispatch(key, kind);
        true
    }

    /// Drains the attached source's events into the queue up to the
    /// earlier of `deadline` and the next queued fire time — or, when the
    /// queue is idle, the source's own next time slice: lazy admission keeps
    /// the arena at the in-flight high-water mark instead of the workload
    /// size. Environment keys sort below every derived key at equal times
    /// (entity id 0), so pumping just in time leaves the dispatch order
    /// exactly what a pre-materialized batch would have produced.
    ///
    /// The state is borrowed in place, not taken out and put back: a
    /// `SourceState` moved per call is reloaded right after the source has
    /// written its buffer's header, a store-forwarding stall on each of the
    /// calls, most of which admit nothing.
    fn pump_source(&mut self, deadline: SimTime) {
        let Some(st) = &self.source else { return };
        let next = self.pending.peek().map(|key| key.0).or_else(|| st.src.peek_time());
        let limit_us = next.map_or(u64::MAX, SimTime::as_micros).min(deadline.as_micros());
        let sample = if self.metrics.on {
            self.metrics.pump_calls += 1;
            self.metrics.full && self.metrics.pump_calls & 1023 == 1
        } else {
            false
        };
        let sw = sample.then(Stopwatch::start);
        let mut admitted = 0u64;
        while let Some(st) = self.source.as_mut() {
            if st.src.peek_time().is_none_or(|t| t.as_micros() > limit_us) {
                break;
            }
            let ev = st.src.next_event(&mut st.packet).expect("peek_time implies a next event");
            debug_assert!(ev.seq < st.total, "source seq {} out of reserved window", ev.seq);
            let seq = pack_seq(ENV_ENTITY, st.base + ev.seq);
            let packet = self.arena.intern_ref(&st.packet);
            let sender = self.entities.host(ev.host);
            self.push_keyed(
                ev.time,
                seq,
                EventKind::Inject { host: ev.host, packet, size: ev.size, sender },
            );
            admitted += 1;
        }
        if self.metrics.on && admitted > 0 {
            self.metrics.pump_batch.observe(admitted);
        }
        if let Some(sw) = sw {
            let ns = sw.elapsed_ns();
            self.metrics.phase_pump_ns.observe(ns);
        }
    }

    fn dispatch(&mut self, key: EventKey, kind: EventKind<D::Msg>) {
        self.stats.events_processed += 1;
        let carried = match &kind {
            EventKind::Inject { packet, .. } | EventKind::Arrive { packet, .. } => Some(*packet),
            _ => None,
        };
        // One branch per dispatch when metrics are off; everything else
        // (including the flight recorder and the sampled wall-clock
        // timings) hides behind it.
        if self.metrics.on {
            self.metrics.begin_dispatch(self.stats.events_processed);
            let (slot, label, node) = kind.describe();
            self.metrics.dispatched[slot] += 1;
            let depth = self.pending.len() as u64;
            self.metrics.queue_depth_hw = self.metrics.queue_depth_hw.max(depth + 1);
            self.flight(key.1, label, node);
        }
        let sw = self.metrics.sampling.then(Stopwatch::start);
        self.dispatch_inner(kind);
        if let Some(sw) = sw {
            self.metrics.phase_dispatch_ns.observe(sw.elapsed_ns());
        }
        // Dispatch consumed the event: drop the queue's reference taken in
        // `push_keyed`, then reclaim this dispatch's unretained
        // intermediates. Children pushed above hold their own references.
        if let Some(id) = carried {
            self.arena.release(id);
            self.arena.sweep();
        }
    }

    /// Finalizes a run: hands back the recorded trace (empty under
    /// [`TraceMode::StatsOnly`]), statistics, the data plane and the
    /// telemetry registry. It writes no file: where a snapshot goes is the
    /// caller's decision ([`Registry::write_out`]).
    pub fn finish(mut self) -> RunResult<D> {
        let metrics_on = self.metrics.on;
        let mut metrics = Registry::new();
        if metrics_on {
            self.metrics.contribute(&mut metrics);
            metrics::contribute_stats(&mut metrics, &self.stats);
            metrics::contribute_arena(&mut metrics, &self.arena);
            self.dataplane.contribute_metrics(&mut metrics);
        }
        if let Some(mut o) = self.observer.take() {
            // Packets still in flight (queued past the deadline) are
            // path tips: the observer closes them out as prefixes.
            o.finish();
            if metrics_on {
                o.contribute_metrics(&mut metrics);
            }
        }
        RunResult {
            trace: self.trace.map_or_else(NetworkTrace::default, TraceHandle::take),
            stats: self.stats,
            dataplane: self.dataplane,
            metrics,
        }
    }

    /// Runs until the event queue empties or `deadline` passes, then returns
    /// the trace, statistics, and data plane.
    pub fn run_until(mut self, deadline: SimTime) -> RunResult<D> {
        self.run(deadline);
        self.finish()
    }
}
/// The two-switch line and its forwarding plane, shared by the engine's
/// test modules.
#[cfg(test)]
mod fixtures {
    use super::*;
    use crate::logic::CtrlMsg;
    use crate::source::SourceEvent;

    /// Hosts 100 and 200 on port 2 of switches 1 and 2, joined port 1 to
    /// port 1 by a 50 µs link.
    pub(super) fn topo() -> SimTopology {
        SimTopology::new([1, 2]).host(100, Loc::new(1, 2)).host(200, Loc::new(2, 2)).bilink(
            Loc::new(1, 1),
            Loc::new(2, 1),
            SimTime::from_micros(50),
            None,
        )
    }

    /// [`Engine::new`] recording the full trace, for the tests that read
    /// or diff it.
    pub(super) fn traced<D: DataPlane>(
        topo: SimTopology,
        params: SimParams,
        dataplane: D,
        hosts: BoxedHosts,
    ) -> Engine<D> {
        Engine::new(topo, params, dataplane, hosts).with_trace_mode(TraceMode::Full)
    }

    /// A test plane's message: events reported up or sent down, or a pure
    /// acknowledgement, which is plumbing.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(super) enum Msg {
        Events,
        Ack,
    }

    impl CtrlMsg for Msg {
        fn is_plumbing(&self) -> bool {
            matches!(self, Msg::Ack)
        }
    }

    /// Forwards towards host 200: switch 1 out its link port, switch 2 out
    /// its host port.
    #[derive(Clone)]
    pub(super) struct PerSwitch;

    impl DataPlane for PerSwitch {
        type Msg = ();
        fn step(
            &mut self,
            sw: u64,
            _: u64,
            packet: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
        }
    }

    /// Ten default-size probes from host 100, one a millisecond, probe
    /// `i` tagged `vlan = i`.
    pub(super) fn probes() -> Vec<(SimTime, u64, Packet, u32)> {
        (0..10)
            .map(|i| {
                let packet = Packet::new().with(netkat::Field::Vlan, i);
                (SimTime::from_millis(i), 100, packet, DEFAULT_PACKET_SIZE)
            })
            .collect()
    }

    /// Streams a fixed list of injections `(time, host, packet, size)`,
    /// given in time order, numbered in that order: the source twin of
    /// [`Engine::inject_batch`] over the same list.
    pub(super) struct Scripted {
        items: Vec<(SimTime, u64, Packet, u32)>,
        next: usize,
    }

    impl Scripted {
        pub(super) fn new(items: Vec<(SimTime, u64, Packet, u32)>) -> Scripted {
            Scripted { items, next: 0 }
        }
    }

    impl WorkloadSource for Scripted {
        fn total_events(&self) -> u64 {
            self.items.len() as u64
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.items.get(self.next).map(|item| item.0)
        }

        fn next_event(&mut self, packet: &mut Packet) -> Option<SourceEvent> {
            let (time, host, pk, size) = self.items.get(self.next)?;
            packet.clone_from(pk);
            let seq = self.next as u64;
            self.next += 1;
            Some(SourceEvent { time: *time, seq, host: *host, size: *size })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{probes, topo, traced, Msg, PerSwitch, Scripted};
    use super::*;
    use crate::logic::SinkHosts;
    use crate::stats::DropReason;
    use edn_obs::FlightRecorder;
    use netkat::Field;

    /// A trivial data plane: forward everything out port 1, notify on vlan=9.
    struct Fwd1;

    impl DataPlane for Fwd1 {
        type Msg = ();
        fn step(
            &mut self,
            _: u64,
            _: u64,
            packet: PacketId,
            _: bool,
            _: SimTime,
            arena: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            if arena.get(packet).get(Field::Vlan) == Some(9) {
                out.notifications.push(());
            }
            out.outputs.push((1, packet));
        }

        fn on_notify(&mut self, msg: Self::Msg, _: SimTime, out: &mut PlaneOut<Self::Msg>) {
            out.deliveries.push((SimTime::ZERO, 1, msg));
        }
    }

    /// A data plane delivering to the local host port.
    #[derive(Clone)]
    struct ToHostPort(u64);

    impl DataPlane for ToHostPort {
        type Msg = ();
        fn step(
            &mut self,
            _: u64,
            _: u64,
            packet: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            out.outputs.push((self.0, packet));
        }
    }

    #[test]
    fn packet_crosses_network_and_trace_records_hops() {
        // Switch 1 forwards out port 1 (to switch 2); switch 2 forwards out
        // port 2 (to host 200).
        let mut e = traced(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        e.inject_at(SimTime::ZERO, 100, Packet::new().with(Field::IpDst, 200));
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 1);
        assert_eq!(r.stats.deliveries[0].host, 200);
        // Trace: host, 1:2 in, 1:1 out, 2:1 in, 2:2 out, host 200.
        assert_eq!(r.trace.len(), 6);
        assert_eq!(r.trace.traces().len(), 1);
        assert_eq!(r.trace.packet(0).loc, Loc::new(100, 0));
        assert_eq!(r.trace.packet(5).loc, Loc::new(200, 0));
    }

    #[test]
    fn notifications_round_trip_through_controller() {
        let mut e = Engine::new(topo(), SimParams::default(), Fwd1, Box::new(SinkHosts));
        e.inject_at(SimTime::ZERO, 100, Packet::new().with(Field::Vlan, 9));
        let r = e.run_until(SimTime::from_secs(1));
        // The packet bounced between switches until the deadline is *not*
        // true: port 1 of switch 2 links back to switch 1... it loops.
        // What matters here: the run terminated (deadline bounded) and the
        // notification mechanics did not panic.
        assert!(r.stats.injected == 1);
    }

    #[test]
    fn dead_end_output_counts_as_drop() {
        let mut e = Engine::new(topo(), SimParams::default(), ToHostPort(7), Box::new(SinkHosts));
        e.inject_at(SimTime::ZERO, 100, Packet::new());
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.drop_count(Some(DropReason::DeadEnd)), 1);
        assert!(r.stats.deliveries.is_empty());
    }

    #[test]
    fn drops_are_counted_in_both_stats_modes_and_recorded_only_in_full() {
        // One dead-end drop (switch 1 outputs on an unattached port) per
        // injected packet: the counters, and `drop_count` over them, are
        // mode-independent; the dropped packet itself is recorded only in
        // a Full trace, as the end of a terminated packet trace.
        let run = |stats: StatsMode, trace: TraceMode| {
            let mut e =
                Engine::new(topo(), SimParams::default(), ToHostPort(7), Box::new(SinkHosts))
                    .with_stats_mode(stats)
                    .with_trace_mode(trace);
            for i in 0..5 {
                e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
            }
            e.run_until(SimTime::from_secs(1))
        };
        let full = run(StatsMode::Full, TraceMode::Full);
        let lean = run(StatsMode::Counters, TraceMode::StatsOnly);
        assert_eq!(full.stats.drop_count(Some(DropReason::DeadEnd)), 5);
        assert_eq!(lean.stats.drop_count(Some(DropReason::DeadEnd)), 5);
        assert_eq!(lean.stats.drop_count(None), 5);
        assert_eq!(lean.stats.dropped, full.stats.dropped);
        assert!(lean.trace.is_empty());
        let dropped: Vec<&Packet> = (0..full.trace.traces().len())
            .filter(|&t| full.trace.trace_is_terminated(t))
            .map(|t| &full.trace.packet(*full.trace.traces()[t].last().unwrap()).packet)
            .collect();
        assert_eq!(dropped.len(), 5);
        assert_eq!(dropped[4], &Packet::new().with(Field::Vlan, 4));
    }

    #[test]
    fn deliver_to_an_unknown_switch_neither_panics_nor_records_a_cause() {
        /// How a switch that hears a command answers it.
        #[derive(Clone, Copy)]
        enum Answer {
            Notify,
            Timer,
        }
        /// Notifies from switch 1 and has the controller command switch 99,
        /// which the topology does not have.
        struct Stray {
            answer: Option<Answer>,
        }
        impl DataPlane for Stray {
            type Msg = ();
            fn step(
                &mut self,
                sw: u64,
                _: u64,
                packet: PacketId,
                _: bool,
                _: SimTime,
                _: &mut PacketArena,
                out: &mut PlaneOut<Self::Msg>,
            ) {
                out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
                if sw == 1 {
                    out.notifications.push(());
                }
            }
            fn on_notify(&mut self, msg: Self::Msg, _: SimTime, out: &mut PlaneOut<Self::Msg>) {
                out.deliveries.push((SimTime::ZERO, 99, msg));
            }
            fn deliver(
                &mut self,
                sw: u64,
                msg: Self::Msg,
                _: SimTime,
                out: &mut PlaneOut<Self::Msg>,
            ) {
                match self.answer {
                    Some(Answer::Notify) => out.notifications.push(msg),
                    Some(Answer::Timer) => out.timers.push((SimTime::ZERO, sw)),
                    None => {}
                }
            }
        }
        for answer in [None, Some(Answer::Notify), Some(Answer::Timer)] {
            let mut e = traced(topo(), SimParams::default(), Stray { answer }, Box::new(SinkHosts))
                .with_metrics(MetricsLevel::Full);
            let flight = e.flight_recorder().expect("full level attaches the recorder");
            // The second packet crosses both switches after the command landed.
            e.inject_at(SimTime::ZERO, 100, Packet::new().with(Field::Vlan, 1));
            e.inject_at(SimTime::from_millis(10), 100, Packet::new().with(Field::Vlan, 2));
            let r = e.run_until(SimTime::from_secs(1));
            assert_eq!(r.stats.delivered_packets, 2);
            assert!(
                r.trace.extra_edges().is_empty(),
                "no switch of the topology was told anything"
            );
            assert!(
                flight.dump_json().contains("\"kind\": \"drop\", \"node\": 99"),
                "the lost command is in the flight ring"
            );
        }
    }

    #[test]
    fn a_timer_for_a_node_outside_the_topology_is_dropped() {
        /// Asks for a timer at switch 99, which the topology does not have,
        /// on every packet's first hop.
        #[derive(Default)]
        struct StrayTimer {
            fired: u64,
        }
        impl DataPlane for StrayTimer {
            type Msg = ();
            fn step(
                &mut self,
                sw: u64,
                _: u64,
                packet: PacketId,
                from_host: bool,
                _: SimTime,
                _: &mut PacketArena,
                out: &mut PlaneOut<Self::Msg>,
            ) {
                out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
                if from_host {
                    out.timers.push((SimTime::from_millis(5), 99));
                }
            }
            fn on_timer(&mut self, _: u64, _: SimTime, _: &mut PlaneOut<Self::Msg>) {
                self.fired += 1;
            }
        }
        let mut e =
            Engine::new(topo(), SimParams::default(), StrayTimer::default(), Box::new(SinkHosts))
                .with_metrics(MetricsLevel::Full);
        let flight = e.flight_recorder().expect("full level attaches the recorder");
        e.inject_at(SimTime::ZERO, 100, Packet::new());
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.delivered_packets, 1);
        assert_eq!(r.dataplane.fired, 0, "no node of the topology asked for a timer");
        assert_eq!(r.metrics.counter("engine.dispatch.timer"), Some(0));
        assert!(flight.dump_json().contains("\"kind\": \"drop\", \"node\": 99"));
    }

    #[test]
    fn an_observer_attached_before_the_metrics_level_gets_the_flight_recorder() {
        /// Logs every record into the flight recorder it was handed, if any.
        struct Probe(Option<FlightRecorder>);
        impl TraceObserver for Probe {
            fn record(&mut self, idx: usize, _: &Packet, _: Loc, _: Option<usize>) {
                if let Some(fr) = &self.0 {
                    fr.record(FlightEvent {
                        t_us: 0,
                        seq: 0,
                        kind: "probe",
                        node: idx as u64,
                        depth: 0,
                    });
                }
            }
            fn edge(&mut self, _: usize, _: usize) {}
            fn cause(&mut self, _: usize) {}
            fn leaf(&mut self, _: usize, _: edn_core::LeafKind) {}
            fn retire(&mut self, _: usize) {}
            fn finish(&mut self) {}
            fn attach_flight_recorder(&mut self, recorder: FlightRecorder) {
                self.0 = Some(recorder);
            }
        }
        // Alone in the observer slot, and behind the trace recorder.
        for mode in [TraceMode::StatsOnly, TraceMode::Full] {
            let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts))
                .with_trace_mode(mode);
            e.set_observer(Box::new(Probe(None)));
            let mut e = e.with_metrics(MetricsLevel::Full);
            let flight = e.flight_recorder().expect("full level attaches the recorder");
            e.inject_at(SimTime::ZERO, 100, Packet::new());
            e.run_until(SimTime::from_secs(1));
            assert!(
                flight.dump_json().contains("\"probe\""),
                "{mode:?}: the observer has no recorder"
            );
        }
    }

    #[test]
    fn only_data_deliveries_move_a_switchs_causal_frontier() {
        /// Notifies the controller from switch 1's first hop; the controller
        /// answers switch 2 with a pure ack (`plumbing`) or with the events.
        struct Teller {
            plumbing: bool,
        }
        impl DataPlane for Teller {
            type Msg = Msg;
            fn step(
                &mut self,
                sw: u64,
                _: u64,
                packet: PacketId,
                from_host: bool,
                _: SimTime,
                _: &mut PacketArena,
                out: &mut PlaneOut<Self::Msg>,
            ) {
                out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
                if sw == 1 && from_host {
                    out.notifications.push(Msg::Events);
                }
            }
            fn on_notify(&mut self, msg: Self::Msg, _: SimTime, out: &mut PlaneOut<Self::Msg>) {
                let reply = if self.plumbing { Msg::Ack } else { msg };
                out.deliveries.push((SimTime::ZERO, 2, reply));
            }
        }
        let edges = |plumbing: bool| {
            let mut e =
                traced(topo(), SimParams::default(), Teller { plumbing }, Box::new(SinkHosts));
            // The second packet reaches switch 2 after the reply landed there.
            e.inject_at(SimTime::ZERO, 100, Packet::new().with(Field::Vlan, 1));
            e.inject_at(SimTime::from_millis(10), 100, Packet::new().with(Field::Vlan, 2));
            let r = e.run_until(SimTime::from_secs(1));
            assert_eq!(r.stats.delivered_packets, 2);
            r.trace.extra_edges().to_vec()
        };
        // Trace: host, 1:2 in (the cause), 1:1 out, 2:1 in, 2:2 out, host,
        // then the second packet: host, 1:2 in, 1:1 out, 2:1 in (index 9).
        assert_eq!(edges(false), vec![(1, 9)], "the events reach switch 2's next hop");
        assert!(edges(true).is_empty(), "an ack changes no switch state, so it links nothing");
    }

    #[test]
    fn capacity_limits_throughput_and_queue_drops() {
        // 1 Mbit/s ≈ 125_000 B/s; 1500 B packets take 12 ms each.
        let topo = SimTopology::new([1, 2])
            .host(100, Loc::new(1, 2))
            .host(200, Loc::new(2, 2))
            .bilink(Loc::new(1, 1), Loc::new(2, 1), SimTime::from_micros(50), Some(125_000));
        let mut e = Engine::new(topo, SimParams::default(), PerSwitch, Box::new(SinkHosts));
        // Offer 100 packets instantly; 50 ms of queue at 12 ms/packet ≈ 4-5
        // packets in flight; the rest tail-drop.
        for i in 0..100u64 {
            e.inject_at(SimTime::from_micros(i), 100, Packet::new().with(Field::Vlan, i));
        }
        let r = e.run_until(SimTime::from_secs(10));
        assert!(r.stats.drop_count(Some(DropReason::QueueFull)) > 80);
        let got = r.stats.deliveries.len();
        assert!((2..20).contains(&got), "expected a handful delivered, got {got}");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = traced(topo(), SimParams::default(), ToHostPort(2), Box::new(SinkHosts));
            for i in 0..10 {
                e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
            }
            let r = e.run_until(SimTime::from_secs(1));
            (r.trace, r.stats)
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert!(!t1.is_empty(), "the reference run records a trace");
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn run_can_resume_without_losing_the_deadline_crossing_event() {
        // `run` pops the first event past the deadline to notice it is
        // past the horizon; it must put it back so a later `run` call
        // still fires it.
        // The same injections streamed from a source must resume the same
        // way: the source's events past the deadline wait in the source.
        let split = |streamed: bool, d1: u64| {
            let mut e = traced(topo(), SimParams::default(), ToHostPort(2), Box::new(SinkHosts));
            if streamed {
                e.set_source(Box::new(Scripted::new(probes())));
            } else {
                for i in 0..10 {
                    e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
                }
            }
            e.run(SimTime::from_millis(d1));
            e.run(SimTime::from_secs(1));
            let r = e.finish();
            (r.trace, r.stats)
        };
        let whole = split(false, 1_000_000); // first run covers everything
        assert!(!whole.0.is_empty(), "the reference run records a trace");
        for d1 in [0, 3, 5] {
            assert_eq!(split(false, d1), whole, "resumed run diverged at split {d1}ms");
            assert_eq!(split(true, d1), whole, "resumed streamed run diverged at split {d1}ms");
        }
    }

    #[test]
    fn inject_batch_equals_one_at_a_time() {
        let run = |batched: bool| {
            let mut e = traced(topo(), SimParams::default(), ToHostPort(2), Box::new(SinkHosts));
            let items: Vec<_> = (0..10u64)
                .map(|i| {
                    (SimTime::from_millis(i), 100u64, Packet::new().with(Field::Vlan, i), 64u32)
                })
                .collect();
            if batched {
                e.inject_batch(items);
            } else {
                for (t, h, pk, s) in items {
                    e.inject_sized(t, h, pk, s);
                }
            }
            let r = e.run_until(SimTime::from_secs(1));
            (r.trace, r.stats)
        };
        let batched = run(true);
        assert!(!batched.0.is_empty(), "the reference run records a trace");
        assert_eq!(batched, run(false));
    }

    #[test]
    fn engine_knobs_replay_identically() {
        // The same scenario in both trace modes: Stats must be identical,
        // the trace recorded in Full and empty in StatsOnly.
        let run = |mode: TraceMode| {
            let mut e =
                Engine::new(topo(), SimParams::default(), ToHostPort(2), Box::new(SinkHosts))
                    .with_trace_mode(mode);
            for i in 0..10 {
                e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
            }
            let r = e.run_until(SimTime::from_secs(1));
            (r.trace, r.stats)
        };
        let (full_trace, full_stats) = run(TraceMode::Full);
        assert!(!full_trace.is_empty());
        let (lean_trace, lean_stats) = run(TraceMode::StatsOnly);
        assert_eq!(lean_stats, full_stats);
        assert!(lean_trace.is_empty());
    }

    #[test]
    fn stats_only_streaming_runs_in_bounded_arena_memory() {
        // A streamed run of N distinct datagrams: in both trace modes the
        // arena must stay at the in-flight high-water mark (a bound
        // independent of N), while observables match exactly. A Full
        // trace record holds its own copy of the packet, so recording pins
        // no arena slot.
        let flow = crate::traffic::UdpFlowSpec {
            flow: 1,
            src: 100,
            dst: 200,
            start: SimTime::from_millis(1),
            end: SimTime::from_millis(1) + SimTime::from_micros(100 * 2_000),
            interval: SimTime::from_micros(100),
            size: 64,
        };
        let run = |mode: TraceMode| {
            let mut e =
                Engine::new(topo(), SimParams::default(), ToHostPort(2), Box::new(SinkHosts))
                    .with_trace_mode(mode);
            e.set_source(Box::new(crate::traffic::FlowSource::new(std::slice::from_ref(&flow))));
            e.run(SimTime::from_secs(10));
            let slots = e.arena_slots();
            let r = e.finish();
            (slots, r.trace, r.stats)
        };
        let (full_slots, full_trace, full_stats) = run(TraceMode::Full);
        let (lean_slots, lean_trace, lean_stats) = run(TraceMode::StatsOnly);
        assert_eq!(lean_stats, full_stats);
        assert_eq!(full_stats.injected, 2_000);
        assert!(lean_trace.is_empty());
        assert!(full_slots < 64, "the Full arena must stay bounded: {full_slots}");
        assert!(lean_slots < 64, "the stats-only arena must stay bounded: {lean_slots}");
        // The built trace, pinned as the hash-consing arena built it: FNV-1a
        // over every record's location and fields, and over the packet
        // traces' indices.
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let records = full_trace.packets().iter().fold(SEED, |h, lp| {
            let h = fold(fold(h, lp.loc.sw), lp.loc.pt);
            Field::ALL
                .iter()
                .fold(h, |h, &f| fold(h, lp.packet.get(f).map_or(0, |v| v.wrapping_add(1))))
        });
        let shape = full_trace.traces().iter().flatten().fold(SEED, |h, &i| fold(h, i as u64));
        assert_eq!(
            (full_trace.len(), full_trace.traces().len(), records, shape),
            (8_000, 2_000, 0x7878_6d9c_555d_1685, 0xc6dd_24e7_f2a0_d3e5)
        );
    }

    #[test]
    fn run_can_resume_with_packets_in_flight_on_a_link() {
        let split = |streamed: bool, d1: u64| {
            let mut e = traced(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
            if streamed {
                e.set_source(Box::new(Scripted::new(probes())));
            } else {
                for i in 0..10 {
                    e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
                }
            }
            e.run(SimTime::from_millis(d1));
            e.run(SimTime::from_secs(1));
            let r = e.finish();
            (r.trace, r.stats)
        };
        let whole = split(false, 1_000_000);
        assert!(!whole.0.is_empty(), "the reference run records a trace");
        for d1 in [0, 3, 5] {
            assert_eq!(split(false, d1), whole, "resumed run diverged at split {d1}ms");
            assert_eq!(split(true, d1), whole, "resumed streamed run diverged at split {d1}ms");
        }
    }

    #[test]
    fn duplicate_switch_entries_do_not_break_entity_numbering() {
        // `SimTopology::new` accepts duplicate switch ids; the dense
        // entity numbering must dedup them or the per-entity counter
        // array comes up short and the first dispatch panics.
        let topo = SimTopology::new([1, 2, 2, 1])
            .host(100, Loc::new(1, 2))
            .host(200, Loc::new(2, 2))
            .bilink(Loc::new(1, 1), Loc::new(2, 1), SimTime::from_micros(50), None);
        let mut e = Engine::new(topo, SimParams::default(), PerSwitch, Box::new(SinkHosts));
        e.inject_at(SimTime::ZERO, 100, Packet::new());
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 1);
    }

    #[test]
    fn failure_injection_replays_identically() {
        let run = || {
            let mut e = traced(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
            e.fail_link_at(SimTime::from_millis(10), Loc::new(1, 1), Loc::new(2, 1));
            e.inject_at(SimTime::from_millis(1), 100, Packet::new()); // healthy
            e.inject_at(SimTime::from_millis(20), 100, Packet::new()); // dead
            let r = e.run_until(SimTime::from_secs(1));
            (r.trace, r.stats)
        };
        let (trace, stats) = run();
        assert!(!trace.is_empty(), "the reference run records a trace");
        assert_eq!(run(), (trace, stats.clone()));
        assert_eq!(stats.deliveries.len(), 1);
        assert_eq!(stats.drop_count(Some(DropReason::LinkDown)), 1);
    }

    #[test]
    fn host_replies_are_injected() {
        struct Echo;
        impl crate::HostLogic for Echo {
            fn on_receive(
                &mut self,
                _: u64,
                packet: &Packet,
                _: SimTime,
            ) -> Vec<(SimTime, Packet, u32)> {
                if packet.get(Field::Vlan) == Some(1) {
                    // Reply once (vlan 2 so it doesn't echo forever).
                    vec![(SimTime::from_micros(100), packet.clone().with(Field::Vlan, 2), 64)]
                } else {
                    Vec::new()
                }
            }
        }
        // Switch 1 port 2 is host 100: deliver straight back out the
        // ingress port so host 100 echoes to itself.
        let mut e = Engine::new(topo(), SimParams::default(), ToHostPort(2), Box::new(Echo));
        e.inject_at(SimTime::ZERO, 100, Packet::new().with(Field::Vlan, 1));
        let r = e.run_until(SimTime::from_secs(1));
        // Two deliveries to host 100: the original echoed, then the reply.
        assert_eq!(r.stats.deliveries.len(), 2);
        assert_eq!(r.stats.injected, 2);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::fixtures::{topo, traced, PerSwitch};
    use super::*;
    use crate::logic::SinkHosts;
    use crate::stats::DropReason;
    use netkat::Field;

    #[test]
    fn failed_link_drops_only_after_its_time() {
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        e.fail_link_at(SimTime::from_millis(10), Loc::new(1, 1), Loc::new(2, 1));
        e.inject_at(SimTime::from_millis(1), 100, Packet::new()); // healthy
        e.inject_at(SimTime::from_millis(20), 100, Packet::new()); // dead
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 1);
        assert_eq!(r.stats.drop_count(Some(DropReason::LinkDown)), 1);
    }

    #[test]
    fn failure_is_direction_scoped() {
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        // Fail only 2 -> 1; 1 -> 2 traffic is unaffected.
        e.fail_link_at(SimTime::ZERO, Loc::new(2, 1), Loc::new(1, 1));
        e.inject_at(SimTime::from_millis(1), 100, Packet::new());
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 1);
        assert_eq!(r.stats.drop_count(None), 0);
    }

    #[test]
    fn repeated_failures_accumulate_on_the_timeline() {
        // Two fail calls at different times both land on the schedule: the
        // link is down from the earlier onward (there is no restore in
        // between), regardless of call order.
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        e.fail_link_at(SimTime::from_millis(50), Loc::new(1, 1), Loc::new(2, 1));
        e.fail_link_at(SimTime::from_millis(5), Loc::new(1, 1), Loc::new(2, 1));
        e.inject_at(SimTime::from_millis(10), 100, Packet::new());
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.drop_count(Some(DropReason::LinkDown)), 1);
    }

    #[test]
    fn flap_sequence_fail_restore_fail_is_well_defined() {
        // The satellite-1 flap: fail at 10ms, restore at 20ms, fail again
        // at 30ms. Packets probe each phase; only the down phases drop.
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        let (a, b) = (Loc::new(1, 1), Loc::new(2, 1));
        e.fail_link_at(SimTime::from_millis(10), a, b);
        e.restore_link_at(SimTime::from_millis(20), a, b);
        e.fail_link_at(SimTime::from_millis(30), a, b);
        for t in [5u64, 15, 25, 35] {
            e.inject_at(SimTime::from_millis(t), 100, Packet::new().with(Field::Vlan, t));
        }
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 2, "up phases (5ms, 25ms) deliver");
        assert_eq!(r.stats.drop_count(Some(DropReason::LinkDown)), 2, "down phases drop");
    }

    #[test]
    fn same_instant_transitions_are_last_write_wins() {
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        let (a, b) = (Loc::new(1, 1), Loc::new(2, 1));
        e.fail_link_at(SimTime::from_millis(10), a, b);
        e.restore_link_at(SimTime::from_millis(10), a, b);
        e.inject_at(SimTime::from_millis(15), 100, Packet::new());
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 1, "the later restore overwrote the fail");
        assert_eq!(r.stats.drop_count(None), 0);
    }

    #[test]
    fn switch_crash_and_recover_gates_transit_traffic() {
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
        e.crash_switch_at(SimTime::from_millis(10), 2);
        e.recover_switch_at(SimTime::from_millis(20), 2);
        for t in [5u64, 15, 25] {
            e.inject_at(SimTime::from_millis(t), 100, Packet::new().with(Field::Vlan, t));
        }
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.deliveries.len(), 2, "before the crash and after recovery");
        assert_eq!(r.stats.drop_count(Some(DropReason::LinkDown)), 1, "mid-crash drops");
    }

    #[test]
    fn flapped_run_replays_byte_identically() {
        let run = || {
            let mut e = traced(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
            let (a, b) = (Loc::new(1, 1), Loc::new(2, 1));
            e.fail_link_at(SimTime::from_millis(10), a, b);
            e.restore_link_at(SimTime::from_millis(20), a, b);
            e.crash_switch_at(SimTime::from_millis(30), 2);
            e.recover_switch_at(SimTime::from_millis(40), 2);
            for t in (0..50u64).step_by(3) {
                e.inject_at(SimTime::from_millis(t), 100, Packet::new().with(Field::Vlan, t));
            }
            let r = e.run_until(SimTime::from_secs(1));
            (r.trace, r.stats)
        };
        let first = run();
        assert!(!first.0.is_empty(), "the reference run records a trace");
        assert!(!first.1.deliveries.is_empty());
        assert!(first.1.drop_count(Some(DropReason::LinkDown)) > 0);
        assert_eq!(run(), first);
    }

    #[test]
    fn controller_latency_spike_delays_notifications_deterministically() {
        // A gated plane: drops everything until the controller's enable
        // command lands, and the enable round-trip pays the controller
        // latency twice — so the scheduled spike directly moves how many
        // of the probe packets get through.
        #[derive(Clone)]
        struct Gate {
            enabled: bool,
        }
        impl DataPlane for Gate {
            type Msg = ();
            fn step(
                &mut self,
                _: u64,
                _: u64,
                packet: PacketId,
                from_host: bool,
                _: SimTime,
                _: &mut PacketArena,
                out: &mut PlaneOut<Self::Msg>,
            ) {
                if self.enabled {
                    out.outputs.push((2, packet));
                } else if from_host {
                    out.notifications.push(());
                }
            }
            fn on_notify(&mut self, msg: Self::Msg, _: SimTime, out: &mut PlaneOut<Self::Msg>) {
                out.deliveries.push((SimTime::ZERO, 1, msg));
            }
            fn deliver(&mut self, _: u64, _: Self::Msg, _: SimTime, _: &mut PlaneOut<Self::Msg>) {
                self.enabled = true;
            }
        }
        let run = |spike_ms: Option<u64>| {
            let mut e =
                traced(topo(), SimParams::default(), Gate { enabled: false }, Box::new(SinkHosts));
            if let Some(ms) = spike_ms {
                e.set_controller_latency_at(SimTime::ZERO, SimTime::from_millis(ms));
            }
            for t in 0..30u64 {
                e.inject_at(
                    SimTime::from_millis(1 + 2 * t),
                    100,
                    Packet::new().with(Field::Vlan, t),
                );
            }
            let r = e.run_until(SimTime::from_secs(5));
            (r.trace, r.stats)
        };
        // Determinism: same spike, same bytes.
        let reference = run(Some(20));
        assert!(!reference.0.is_empty(), "the reference run records a trace");
        assert_eq!(reference, run(Some(20)));
        let (_, base) = run(None);
        let (_, spiked) = run(Some(20));
        assert!(
            spiked.deliveries.len() < base.deliveries.len(),
            "a 20ms controller latency must gate more probes than the 2ms baseline \
             ({} vs {})",
            spiked.deliveries.len(),
            base.deliveries.len()
        );
        assert!(!spiked.deliveries.is_empty(), "the gate still opens eventually");
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::fixtures::{topo, PerSwitch};
    use super::*;
    use crate::logic::SinkHosts;

    fn run(level: MetricsLevel) -> RunResult<PerSwitch> {
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts))
            .with_metrics(level);
        assert_eq!(e.metrics_level(), level);
        assert_eq!(e.flight_recorder().is_some(), level.is_full());
        e.inject_at(SimTime::from_millis(1), 100, Packet::new());
        e.run(SimTime::from_secs(1));
        e.finish()
    }

    #[test]
    fn off_level_leaves_the_registry_empty() {
        assert!(run(MetricsLevel::Off).metrics.is_empty());
    }

    #[test]
    fn counters_level_populates_sim_metrics_without_wall_phases() {
        let r = run(MetricsLevel::Counters);
        assert_eq!(r.metrics.counter("engine.dispatch.arrive"), Some(3));
        assert_eq!(r.metrics.counter("engine.delivered_packets"), Some(1));
        let lat = r.metrics.histogram("engine.event_latency_us").expect("latency hist");
        assert!(lat.count() > 0);
        assert!(r.metrics.histogram("phase.dispatch_ns").is_none());
    }

    #[test]
    fn full_level_records_flight_events_and_phases() {
        let mut e = Engine::new(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts))
            .with_metrics(MetricsLevel::Full);
        let flight = e.flight_recorder().expect("full level attaches the recorder");
        e.inject_at(SimTime::from_millis(1), 100, Packet::new());
        e.run(SimTime::from_secs(1));
        let r = e.finish();
        assert!(!flight.is_empty(), "dispatches must land in the flight ring");
        assert!(flight.dump_json().contains("\"kind\""));
        // The first dispatch of a run is always sampled (index 0 & mask).
        assert!(r.metrics.histogram("phase.dispatch_ns").is_some());
    }
}

#[cfg(test)]
mod timeline_props {
    use super::build::{timeline_at, timeline_set, Timeline};
    use super::*;
    use proptest::prelude::*;

    /// The reference semantics: replay the writes in order into a map
    /// keyed by time (later writes at the same time win), then take the
    /// greatest key at or before `t`.
    fn reference_at(writes: &[(u64, u32)], t: u64, default: u32) -> u32 {
        let mut map = std::collections::BTreeMap::new();
        for &(at, v) in writes {
            map.insert(at, v);
        }
        map.range(..=t).next_back().map(|(_, &v)| v).unwrap_or(default)
    }

    fn arb_writes() -> impl Strategy<Value = Vec<(u64, u32)>> {
        // A tiny time domain forces plenty of same-timestamp collisions.
        proptest::collection::vec((0u64..16, 0u32..1000), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `timeline_set` + `timeline_at` ≡ last-write-wins map semantics,
        /// including same-timestamp overwrites, the empty timeline, and
        /// queries strictly before the first entry.
        #[test]
        fn timeline_matches_last_write_wins_reference(
            writes in arb_writes(),
            query in 0u64..20,
            default in 0u32..1000,
        ) {
            let mut tl: Timeline<u32> = Vec::new();
            for &(at, v) in &writes {
                timeline_set(&mut tl, SimTime::from_micros(at), v);
            }
            // The timeline stays strictly sorted: overwrites never add entries.
            prop_assert!(tl.windows(2).all(|w| w[0].0 < w[1].0));
            let got = timeline_at(&tl, SimTime::from_micros(query), default);
            prop_assert_eq!(got, reference_at(&writes, query, default));
        }

        /// Rewriting the same instant any number of times keeps exactly
        /// one entry, holding the final value.
        #[test]
        fn same_instant_overwrites_in_place(values in proptest::collection::vec(0u32..1000, 1..20)) {
            let mut tl: Timeline<u32> = Vec::new();
            let t = SimTime::from_micros(7);
            for &v in &values {
                timeline_set(&mut tl, t, v);
            }
            prop_assert_eq!(tl.len(), 1);
            prop_assert_eq!(timeline_at(&tl, t, 9999), *values.last().unwrap());
            // Strictly before the entry, the default rules.
            prop_assert_eq!(timeline_at(&tl, SimTime::from_micros(6), 9999), 9999);
        }
    }

    #[test]
    fn empty_timeline_always_defaults() {
        let tl: Timeline<u32> = Vec::new();
        assert_eq!(timeline_at(&tl, SimTime::ZERO, 42), 42);
        assert_eq!(timeline_at(&tl, SimTime::from_secs(1), 42), 42);
    }
}

#[cfg(test)]
mod channel_tests {
    use super::fixtures::{topo, Msg};
    use super::*;
    use crate::logic::SinkHosts;
    use netkat::Field;

    /// A plane that notifies the controller on every hop at switch 1 and
    /// counts what the controller hears — loss shows up as a short count.
    #[derive(Clone, Default)]
    struct Chatty {
        heard: u64,
    }

    impl DataPlane for Chatty {
        type Msg = ();
        fn step(
            &mut self,
            sw: u64,
            _: u64,
            packet: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
            if sw == 1 {
                out.notifications.push(());
            }
        }
        fn on_notify(&mut self, _: Self::Msg, _: SimTime, _: &mut PlaneOut<Self::Msg>) {
            self.heard += 1;
        }
    }

    fn run_chatty(model: ChannelModel, n: u64) -> (RunResult<Chatty>, Stats) {
        let mut e =
            Engine::new(topo(), SimParams::default(), Chatty::default(), Box::new(SinkHosts))
                .with_channel(model)
                .with_metrics(MetricsLevel::Counters);
        for i in 0..n {
            e.inject_at(SimTime::from_micros(10 * i), 100, Packet::new().with(Field::Vlan, i));
        }
        e.run(SimTime::from_secs(1));
        let r = e.finish();
        let stats = r.stats.clone();
        (r, stats)
    }

    #[test]
    fn explicit_ideal_channel_is_byte_identical_to_default() {
        let (a, sa) = run_chatty(ChannelModel::ideal(), 40);
        let mut e =
            Engine::new(topo(), SimParams::default(), Chatty::default(), Box::new(SinkHosts))
                .with_metrics(MetricsLevel::Counters);
        assert!(e.channel().is_ideal());
        for i in 0..40 {
            e.inject_at(SimTime::from_micros(10 * i), 100, Packet::new().with(Field::Vlan, i));
        }
        e.run(SimTime::from_secs(1));
        let b = e.finish();
        assert_eq!(sa, b.stats);
        assert_eq!(a.dataplane.heard, 40, "ideal channel loses nothing");
        assert_eq!(a.metrics.counter("channel.dropped"), Some(0));
    }

    #[test]
    fn lossy_channel_is_deterministic_and_actually_drops() {
        let model = ChannelModel::lossy(7);
        let (a, sa) = run_chatty(model, 200);
        let (b, sb) = run_chatty(model, 200);
        assert_eq!(sa, sb, "same model, same run, byte for byte");
        assert_eq!(a.dataplane.heard, b.dataplane.heard);
        let dropped = a.metrics.counter("channel.dropped").unwrap_or(0);
        let dups = a.metrics.counter("channel.duplicated").unwrap_or(0);
        assert!(dropped > 0, "200 notifies through a 6% channel must lose some");
        assert_eq!(a.dataplane.heard, 200 - dropped + dups, "every surviving copy is heard");
        // The data plane itself is untouched by control-channel faults.
        assert_eq!(sa.delivered_packets, 200);
    }

    /// A plane that requests a timer from `deliver` and replies with an
    /// ack — exercising the Timer event kind and the reply path end to end.
    #[derive(Clone, Default)]
    struct TimerPlane {
        fired: Vec<(u64, u64)>,
        acks_heard: u64,
    }

    impl DataPlane for TimerPlane {
        type Msg = Msg;
        fn step(
            &mut self,
            sw: u64,
            _: u64,
            packet: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
            if sw == 1 {
                out.notifications.push(Msg::Events);
            }
        }
        fn on_notify(&mut self, msg: Self::Msg, _: SimTime, out: &mut PlaneOut<Self::Msg>) {
            match msg {
                Msg::Events => out.deliveries.push((SimTime::ZERO, 1, Msg::Events)),
                Msg::Ack => self.acks_heard += 1,
            }
        }
        fn deliver(&mut self, _: u64, _: Self::Msg, _: SimTime, out: &mut PlaneOut<Self::Msg>) {
            out.timers.push((SimTime::from_millis(50), 1));
            out.notifications.push(Msg::Ack);
        }
        fn on_timer(&mut self, node: u64, now: SimTime, _: &mut PlaneOut<Self::Msg>) {
            self.fired.push((node, now.as_micros()));
        }
    }

    #[test]
    fn timer_requests_fire_and_replies_reach_the_controller() {
        let mut e =
            Engine::new(topo(), SimParams::default(), TimerPlane::default(), Box::new(SinkHosts))
                .with_metrics(MetricsLevel::Counters);
        e.inject_at(SimTime::from_millis(1), 100, Packet::new());
        e.run(SimTime::from_secs(1));
        let r = e.finish();
        assert_eq!(r.dataplane.fired, vec![(1, 50_000)], "timer fires at its requested time");
        assert_eq!(r.dataplane.acks_heard, 1, "the deliver reply travels back as a notify");
        assert_eq!(r.metrics.counter("engine.dispatch.timer"), Some(1));
    }

    /// A plane whose packet step is silent towards the controller yet arms
    /// a timer and logs a channel event: both must be acted on by the same
    /// dispatch, not held until some later interaction happens to drain.
    #[derive(Clone, Default)]
    struct QuietTimer {
        fired: Vec<(u64, u64)>,
    }

    impl DataPlane for QuietTimer {
        type Msg = ();
        fn step(
            &mut self,
            sw: u64,
            _: u64,
            packet: PacketId,
            from_host: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            out.outputs.push((if sw == 1 { 1 } else { 2 }, packet));
            if from_host {
                out.timers.push((SimTime::from_millis(50), sw));
                out.channel_events.push(("quiet_step", sw));
            }
        }
        fn on_timer(&mut self, node: u64, now: SimTime, _: &mut PlaneOut<Self::Msg>) {
            self.fired.push((node, now.as_micros()));
        }
    }

    #[test]
    fn timer_armed_by_a_notification_free_step_fires_on_time() {
        let mut e =
            Engine::new(topo(), SimParams::default(), QuietTimer::default(), Box::new(SinkHosts))
                .with_metrics(MetricsLevel::Full);
        let flight = e.flight_recorder().expect("full level attaches the recorder");
        e.inject_at(SimTime::from_millis(1), 100, Packet::new());
        e.run(SimTime::from_secs(1));
        let r = e.finish();
        assert_eq!(r.stats.delivered_packets, 1);
        assert_eq!(r.dataplane.fired, vec![(1, 50_000)], "timer fires at its requested time");
        assert_eq!(r.metrics.counter("engine.dispatch.timer"), Some(1));
        assert!(flight.dump_json().contains("\"quiet_step\""));
    }
}
