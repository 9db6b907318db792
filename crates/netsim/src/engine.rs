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

use std::collections::HashMap;

use edn_core::{LeafKind, NetworkTrace, TraceMode, TraceObserver};
use edn_obs::{FlightEvent, FlightRecorder, MetricsLevel, Registry, Stopwatch};
use netkat::{Loc, Packet, PacketArena, PacketId};

use crate::channel::{ChannelDir, ChannelFate, ChannelModel};
use crate::logic::{BoxedHosts, CtrlMsg, DataPlane, PlaneOut, CONTROLLER_NODE};
use crate::metrics::{self, EngineMetrics, FLIGHT_CAPACITY};
use crate::queue::CalendarQueue;
use crate::recorder::{self, TraceHandle};
use crate::source::WorkloadSource;
use crate::stats::{Delivery, DropReason, Stats, StatsMode};
use crate::time::SimTime;
use crate::topology::{SimParams, SimTopology};

/// Default payload size for injected packets (an Ethernet-ish frame).
pub const DEFAULT_PACKET_SIZE: u32 = 1_500;

/// The dense entity id of the pre-run environment (initial injections).
const ENV_ENTITY: u32 = 0;
/// The dense entity id of the controller.
const CTRL_ENTITY: u32 = 1;
/// Sentinel cause for control messages no packet step sent (replies to
/// notifies and deliveries, timer resends): they carry no happens-before
/// obligation, so the causality bookkeeping skips them. Dropping an HB
/// edge can only
/// weaken the checker's obligations, never invent a violation.
const NO_CAUSE: usize = usize::MAX;
/// Bits of the packed sequence key reserved for the per-entity counter.
const SEQ_SHIFT: u32 = 40;

/// Packs `(entity, counter)` into the queue's 64-bit tie-break key.
fn pack_seq(sender: u32, counter: u64) -> u64 {
    debug_assert!(counter < 1 << SEQ_SHIFT, "per-entity event counter overflow");
    ((sender as u64) << SEQ_SHIFT) | counter
}

/// An event's full ordering key: fire time plus the packed sequence.
type EventKey = (SimTime, u64);

/// A scheduled step function over simulated time: each `(time, value)`
/// entry sets the value from `time` onward, until a later entry replaces
/// it. Kept sorted by time; writes at an already-scheduled time overwrite
/// in place (**last-write-wins**), so repeated fail/restore cycles and
/// re-scripted scenario actions are always well-defined.
type Timeline<T> = Vec<(SimTime, T)>;

/// Inserts `(time, value)` into a sorted timeline, overwriting any
/// existing entry at exactly `time`.
fn timeline_set<T>(timeline: &mut Timeline<T>, time: SimTime, value: T) {
    let i = timeline.partition_point(|&(at, _)| at < time);
    match timeline.get_mut(i) {
        Some(entry) if entry.0 == time => entry.1 = value,
        _ => timeline.insert(i, (time, value)),
    }
}

/// The timeline's value at `t`: the most recent entry at or before `t`,
/// or `default` before the first entry (and for an empty timeline).
fn timeline_at<T: Copy>(timeline: &Timeline<T>, t: SimTime, default: T) -> T {
    match timeline.partition_point(|&(at, _)| at <= t) {
        0 => default,
        i => timeline[i - 1].1,
    }
}

/// Dense entity numbering: 0 = environment, 1 = controller, then every
/// switch, then every host, in topology order.
#[derive(Debug)]
struct EntityMap {
    map: HashMap<u64, u32, netkat::FxBuildHasher>,
    /// The first host's dense id: switches come first, so an entity is a
    /// host exactly when its id is at or above this.
    first_host: u32,
    /// Per host, indexed by `dense id - first_host`: its attachment
    /// location and the attachment switch's dense id.
    attached: Vec<(Loc, u32)>,
}

impl EntityMap {
    fn build(topo: &SimTopology) -> EntityMap {
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
    fn get(&self, node: u64) -> Option<u32> {
        self.map.get(&node).copied()
    }

    /// The dense id of a switch or host.
    fn dense(&self, node: u64) -> u32 {
        self.get(node).expect("node is part of the topology")
    }

    /// Whether dense id `entity` is a host's.
    fn is_host(&self, entity: u32) -> bool {
        entity >= self.first_host
    }

    /// Host `entity`'s attachment location and attachment switch entity.
    fn attachment(&self, entity: u32) -> (Loc, u32) {
        self.attached[(entity - self.first_host) as usize]
    }

    /// The dense id of the host with id `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a host of the topology.
    fn host(&self, host: u64) -> u32 {
        match self.get(host) {
            Some(entity) if self.is_host(entity) => entity,
            _ => panic!("node {host} is not a host"),
        }
    }

    /// Total entity count (environment and controller included).
    fn len(&self) -> usize {
        self.map.len() + 2
    }
}

/// Pending events carry [`PacketId`]s into the engine's arena, never
/// owned packets: forking an event (multicast) copies four bytes. `M` is
/// the plane's [`DataPlane::Msg`].
#[derive(Clone, Debug)]
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
    /// `node == CONTROLLER_NODE`, at the controller).
    Timer { node: u64 },
}

/// The metric slot of an event kind (`EngineMetrics::dispatched`).
fn kind_index<M>(kind: &EventKind<M>) -> usize {
    match kind {
        EventKind::Inject { .. } => 0,
        EventKind::Arrive { .. } => 1,
        EventKind::Notify { .. } => 2,
        EventKind::Deliver { .. } => 3,
        EventKind::Timer { .. } => 4,
    }
}

/// Flight-recorder label and subject entity of an event kind.
fn flight_info<M>(kind: &EventKind<M>) -> (&'static str, u64) {
    match kind {
        EventKind::Inject { host, .. } => ("inject", *host),
        EventKind::Arrive { loc, .. } => ("arrive", loc.sw),
        EventKind::Notify { .. } => ("notify", 0),
        EventKind::Deliver { sw, .. } => ("deliver", *sw),
        EventKind::Timer { node } => ("timer", *node),
    }
}

/// What sits on the far side of an egress location — resolved once at
/// construction, so the per-hop path pays **one** map probe instead of the
/// former host-map probe plus link-map probe. Carries the destination
/// entity's dense id so per-hop key assignment needs no further lookup.
#[derive(Clone, Copy, Debug)]
enum Egress {
    /// A host is attached here (`id`, dense entity).
    Host(u64, u32),
    /// An inter-switch link (index into `topo.links()`) starts here;
    /// second field is the destination switch's dense entity.
    Link(u32, u32),
}

/// The egress map probes once per output; [`Loc`]'s derived `Hash` feeds
/// two `u64` writes straight through [`netkat::FxHasher`], skipping
/// SipHash's per-byte setup.
type EgressMap = HashMap<Loc, Egress, netkat::FxBuildHasher>;

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

/// The complete simulation state: the event queue, the data plane, the
/// packet arena, the observer slot, and the loop that drives them.
struct Core<D: DataPlane> {
    topo: SimTopology,
    params: SimParams,
    dataplane: D,
    hosts: BoxedHosts,
    queue: CalendarQueue,
    /// Slab of pending event payloads, indexed by the keys in `queue`.
    slots: Vec<Option<EventKind<D::Msg>>>,
    /// Recycled slab slots.
    free_slots: Vec<u32>,
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
    /// Where each processing step is reported, once.
    observer: Option<Box<dyn TraceObserver + Send>>,
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

impl<D: DataPlane> Core<D> {
    fn build(
        topo: SimTopology,
        params: SimParams,
        dataplane: D,
        hosts: BoxedHosts,
        metrics: EngineMetrics,
    ) -> Core<D> {
        let entities = EntityMap::build(&topo);
        let mut egress = EgressMap::default();
        for (i, l) in topo.links().iter().enumerate() {
            egress.insert(l.src, Egress::Link(i as u32, entities.dense(l.dst.sw)));
        }
        for (h, loc) in topo.hosts() {
            egress.insert(loc, Egress::Host(h, entities.dense(h)));
        }
        let n_links = topo.links().len();
        let n_entities = entities.len();
        Core {
            topo,
            params,
            dataplane,
            hosts,
            queue: CalendarQueue::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
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
            channel: ChannelModel::ideal(),
            chan_counts: vec![0; n_entities],
            out: PlaneOut::default(),
            ctrl_causes: Vec::new(),
            ctrl_delivered: vec![0; n_entities],
            ctrl_linked: vec![0; n_entities],
            source: None,
            observer: None,
            metrics,
        }
    }

    /// The switch↔controller latency in effect at the current simulated
    /// time (scheduled spikes override `params.controller_latency`).
    fn controller_latency(&self) -> SimTime {
        timeline_at(&self.ctrl_latency, self.now, self.params.controller_latency)
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
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                (self.slots.len() - 1) as u32
            }
        };
        self.queue.push((time, seq, slot));
    }

    /// [`push_keyed`](Core::push_keyed) for an event a dispatch *creates*:
    /// observes the creation-to-fire sim-time latency. The injection paths
    /// (pre-run and source pump) use raw `push_keyed`: those are workload
    /// admissions, not engine-scheduled delays.
    fn schedule(&mut self, time: SimTime, seq: u64, kind: EventKind<D::Msg>) {
        if self.metrics.on {
            self.metrics.observe_scheduled(time, self.now);
        }
        self.push_keyed(time, seq, kind);
    }

    /// Draws the next control-channel fault-stream counter for `entity`.
    fn chan_count(&mut self, entity: u32) -> u64 {
        let c = &mut self.chan_counts[entity as usize];
        let v = *c;
        *c += 1;
        v
    }

    /// Records one channel fate into the metrics (and, on a drop, the
    /// flight recorder, so a degraded dump shows the message-level cause).
    fn note_channel(&mut self, fate: &ChannelFate, node: u64) {
        if !self.metrics.on {
            return;
        }
        match fate.copies {
            0 => self.metrics.chan_dropped += 1,
            2 => self.metrics.chan_duplicated += 1,
            _ => {}
        }
        if fate.reordered {
            self.metrics.chan_reordered += 1;
        }
        if fate.copies == 0 {
            if let Some(fr) = &self.metrics.flight {
                fr.record(FlightEvent {
                    t_us: self.now.as_micros(),
                    seq: 0,
                    kind: "drop",
                    node,
                    depth: self.queue.len() as u64,
                });
            }
        }
    }

    /// Schedules one switch→controller message (`Notify`) through the
    /// channel model: the fate is a pure function of the sending entity's
    /// fault-stream counter, and each surviving copy gets its own
    /// sequence key from the sender. The ideal model takes the exact
    /// pre-fault-model path (one copy, zero extra delay, no counters).
    fn send_notify(&mut self, node: u64, sender: u32, msg: D::Msg, cause: usize) {
        let base = self.now + self.controller_latency();
        let fate = if self.channel.is_ideal() {
            ChannelFate::CLEAN
        } else {
            let counter = self.chan_count(sender);
            let f = self.channel.fate(ChannelDir::ToCtrl, node, counter);
            self.note_channel(&f, node);
            f
        };
        for i in 0..fate.copies as usize {
            let t = base + SimTime::from_micros(fate.delay_us[i]);
            let seq = self.next_seq(sender);
            self.schedule(t, seq, EventKind::Notify { msg, cause });
        }
    }

    /// Schedules one controller→switch command (`Deliver`) through the
    /// channel model; `delay` is the data plane's own scheduling offset
    /// (e.g. update-wave spacing), applied on top of the controller
    /// latency before any channel jitter.
    fn send_deliver(&mut self, sw: u64, msg: D::Msg, delay: SimTime) {
        let base = self.now + self.controller_latency() + delay;
        let fate = if self.channel.is_ideal() {
            ChannelFate::CLEAN
        } else {
            let counter = self.chan_count(CTRL_ENTITY);
            let f = self.channel.fate(ChannelDir::ToSwitch, sw, counter);
            self.note_channel(&f, sw);
            f
        };
        for i in 0..fate.copies as usize {
            let t = base + SimTime::from_micros(fate.delay_us[i]);
            let seq = self.next_seq(CTRL_ENTITY);
            self.schedule(t, seq, EventKind::Deliver { sw, msg });
        }
    }

    /// The dense entity of a timer/notification `node`.
    fn entity_of(&self, node: u64) -> u32 {
        if node == CONTROLLER_NODE {
            CTRL_ENTITY
        } else {
            self.entities.dense(node)
        }
    }

    /// Acts on the control side of a plane interaction at `node`, leaving
    /// those four lists of `self.out` empty: sends its notifications (with
    /// trace cause `cause`) and deliveries through the channel model,
    /// forwards its channel telemetry to the flight recorder, and schedules
    /// its timer requests. Runs on every interaction (packet step, notify,
    /// deliver, timer). The lists are read in place by index (their items
    /// are `Copy`): `out` never leaves `self`, and a hop with nothing to
    /// say pays four length checks.
    fn emit_control(&mut self, node: u64, cause: usize) {
        if !self.out.notifications.is_empty() {
            let sender = self.entity_of(node);
            for i in 0..self.out.notifications.len() {
                let msg = self.out.notifications[i];
                self.send_notify(node, sender, msg, cause);
            }
            self.out.notifications.clear();
        }
        for i in 0..self.out.deliveries.len() {
            let (delay, sw, msg) = self.out.deliveries[i];
            self.send_deliver(sw, msg, delay);
        }
        self.out.deliveries.clear();
        for (kind, node) in self.out.channel_events.drain(..) {
            if let Some(fr) = &self.metrics.flight {
                fr.record(FlightEvent {
                    t_us: self.now.as_micros(),
                    seq: 0,
                    kind,
                    node,
                    depth: self.queue.len() as u64,
                });
            }
        }
        for i in 0..self.out.timers.len() {
            let (t, node) = self.out.timers[i];
            let seq = self.next_seq(self.entity_of(node));
            self.schedule(t.max(self.now), seq, EventKind::Timer { node });
        }
        self.out.timers.clear();
    }

    /// One packet-free plane interaction at `node` (notify, deliver,
    /// timer): `call` reports into the reused buffer, and whatever it asked
    /// for is acted on before the dispatch ends. No packet step sent what
    /// these send, so it carries no trace cause.
    fn control_step(
        &mut self,
        node: u64,
        call: impl FnOnce(&mut D, SimTime, &mut PlaneOut<D::Msg>),
    ) {
        call(&mut self.dataplane, self.now, &mut self.out);
        self.emit_control(node, NO_CAUSE);
    }

    /// The earliest pending fire time in microseconds (`u64::MAX` when
    /// idle) — the bound the source pump admits up to.
    fn next_time_us(&mut self) -> u64 {
        self.queue.peek().map_or(u64::MAX, |key| key.0.as_micros())
    }

    /// Runs the event loop until the queue empties or `deadline` passes
    /// (inclusive).
    fn run(&mut self, deadline: SimTime) {
        if self.source.is_some() {
            return self.run_streaming(deadline);
        }
        // An event past the horizon stays pending for a later `run` call.
        while let Some((time, seq, slot)) = self.queue.pop_due(deadline) {
            let kind = self.slots[slot as usize].take().expect("queued slots are filled");
            self.free_slots.push(slot);
            self.now = time;
            self.dispatch((time, seq), kind);
        }
    }

    /// The loop with a lazy source attached: before every pop, pump
    /// source events up to the earlier of the next queued fire time and the
    /// deadline. Environment keys sort below every derived key at equal
    /// times (entity id 0), and the queue totally orders whatever is
    /// pushed, so pumping just-in-time leaves the dispatch order exactly
    /// what a pre-materialized batch would have produced.
    fn run_streaming(&mut self, deadline: SimTime) {
        loop {
            // Admit source events up to the next queued fire time — or,
            // when the queue is idle, just the earliest pending time slice.
            // An idle queue must not admit the whole source: lazy admission
            // is what keeps a stats-only arena at the in-flight high-water
            // mark instead of the full workload size.
            let mut limit = self.next_time_us();
            if limit == u64::MAX {
                if let Some(t) = self.source_peek_us() {
                    limit = t;
                }
            }
            self.pump_source(limit.min(deadline.as_micros()));
            let Some((time, seq, slot)) = self.queue.pop_due(deadline) else { break };
            let kind = self.slots[slot as usize].take().expect("queued slots are filled");
            self.free_slots.push(slot);
            self.now = time;
            self.dispatch((time, seq), kind);
        }
    }

    /// The attached source's earliest pending fire time in microseconds,
    /// if any.
    fn source_peek_us(&self) -> Option<u64> {
        self.source.as_ref().and_then(|st| st.src.peek_time()).map(|t| t.as_micros())
    }

    /// Drains source events with fire time at or below `limit_us` into the
    /// queue; later events stay in the source for a later pump (or a later
    /// `run` call — a source survives the deadline like queued events do).
    ///
    /// The state is borrowed in place, not taken out and put back: a
    /// `SourceState` moved per call is reloaded right after the source has
    /// written its buffer's header, a store-forwarding stall on each of the
    /// calls, most of which admit nothing.
    fn pump_source(&mut self, limit_us: u64) {
        if self.source.is_none() {
            return;
        }
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
            self.metrics.dispatched[kind_index(&kind)] += 1;
            let depth = self.queue.len() as u64;
            self.metrics.queue_depth_hw = self.metrics.queue_depth_hw.max(depth + 1);
            if let Some(fr) = &self.metrics.flight {
                let (kind_name, node) = flight_info(&kind);
                fr.record(FlightEvent {
                    t_us: key.0.as_micros(),
                    seq: key.1,
                    kind: kind_name,
                    node,
                    depth,
                });
            }
        }
        if self.metrics.sampling {
            let sw = Stopwatch::start();
            self.dispatch_inner(kind);
            let ns = sw.elapsed_ns();
            self.metrics.phase_dispatch_ns.observe(ns);
        } else {
            self.dispatch_inner(kind);
        }
        // Dispatch consumed the event: drop the queue's reference taken in
        // `push_keyed`, then reclaim this dispatch's unretained
        // intermediates. Children pushed above hold their own references.
        if let Some(id) = carried {
            self.arena.release(id);
            self.arena.sweep();
        }
    }

    /// Numbers the next trace record, checking that its parent precedes
    /// it.
    fn next_record(&mut self, parent: Option<usize>) -> usize {
        let idx = self.records;
        if let Some(p) = parent {
            assert!(p < idx, "parent {p} must precede child {idx}");
        }
        self.records += 1;
        idx
    }

    fn dispatch_inner(&mut self, kind: EventKind<D::Msg>) {
        match kind {
            EventKind::Inject { host, packet, size, sender } => {
                let (attach, attach_sender) = self.entities.attachment(sender);
                self.stats.injected += 1;
                let idx = self.next_record(None);
                if let Some(o) = self.observer.as_deref_mut() {
                    o.record(idx, self.arena.get(packet), Loc::new(host, 0), None);
                }
                // Host attachment links are uncontended.
                let arrival = self.now + self.topo.host_latency;
                let seq = self.next_seq(sender);
                self.schedule(
                    arrival,
                    seq,
                    EventKind::Arrive {
                        loc: attach,
                        packet,
                        size,
                        parent: idx,
                        from_host: true,
                        sender: attach_sender,
                    },
                );
            }
            EventKind::Arrive { loc, packet, size, parent, from_host, sender } => {
                if self.entities.is_host(sender) {
                    let idx = self.next_record(Some(parent));
                    if let Some(o) = self.observer.as_deref_mut() {
                        o.record(idx, self.arena.get(packet), loc, Some(parent));
                        o.retire(parent);
                        o.leaf(idx, LeafKind::Delivered);
                    }
                    let pk = self.arena.get(packet);
                    self.stats.delivered_packets += 1;
                    self.stats.delivered_bytes += size as u64;
                    if self.stats_mode == StatsMode::Full {
                        self.stats.deliveries.push(Delivery {
                            time: self.now,
                            host: loc.sw,
                            packet: pk.clone(),
                            size,
                        });
                    }
                    let host = loc.sw;
                    let replies = self.hosts.on_receive(host, pk, self.now);
                    for (delay, reply, rsize) in replies {
                        let t = self.now + delay;
                        let reply = self.arena.intern(reply);
                        let seq = self.next_seq(sender);
                        self.schedule(
                            t,
                            seq,
                            EventKind::Inject { host, packet: reply, size: rsize, sender },
                        );
                    }
                    return;
                }
                self.switch_step(loc, packet, size, parent, from_host, sender);
            }
            EventKind::Notify { msg, cause } => {
                // Controller knowledge is cumulative: record the cause
                // before computing deliveries. Messages no packet step sent
                // carry the NO_CAUSE sentinel and stay out of the causality
                // record.
                if cause != NO_CAUSE {
                    self.ctrl_causes.push(cause);
                }
                self.control_step(CONTROLLER_NODE, |dp, now, out| dp.on_notify(msg, now, out));
            }
            EventKind::Deliver { sw, msg } => {
                // Everything the controller has heard up to now becomes a
                // causal ancestor of this switch's subsequent processing.
                // Plumbing (a pure ack, say) changes no switch state, so it
                // must not strengthen the causal frontier.
                // A switch outside the topology never steps, so there is
                // no frontier to move.
                if !msg.is_plumbing() {
                    if let Some(entity) = self.entities.get(sw) {
                        self.ctrl_delivered[entity as usize] = self.ctrl_causes.len();
                    }
                }
                self.control_step(sw, |dp, now, out| dp.deliver(sw, msg, now, out));
            }
            EventKind::Timer { node } => {
                self.control_step(node, |dp, now, out| dp.on_timer(node, now, out));
            }
        }
    }

    fn switch_step(
        &mut self,
        loc: Loc,
        packet: PacketId,
        size: u32,
        parent: usize,
        from_host: bool,
        sender: u32,
    ) {
        let ingress_idx = self.next_record(Some(parent));
        if let Some(o) = self.observer.as_deref_mut() {
            let sw = self.metrics.sampling.then(Stopwatch::start);
            o.record(ingress_idx, self.arena.get(packet), loc, Some(parent));
            o.retire(parent);
            if let Some(sw) = sw {
                self.metrics.phase_observer_ns.observe(sw.elapsed_ns());
            }
        }
        // Knowledge delivered by the controller happens-before this step.
        let delivered = self.ctrl_delivered[sender as usize];
        let linked = &mut self.ctrl_linked[sender as usize];
        for &cause in &self.ctrl_causes[*linked..delivered] {
            if cause < ingress_idx {
                if let Some(o) = self.observer.as_deref_mut() {
                    o.edge(cause, ingress_idx);
                }
            }
        }
        *linked = (*linked).max(delivered);
        let lookup_sw = self.metrics.sampling.then(Stopwatch::start);
        self.dataplane.step(
            loc.sw,
            loc.pt,
            packet,
            from_host,
            self.now,
            &mut self.arena,
            &mut self.out,
        );
        if let Some(sw) = lookup_sw {
            self.metrics.phase_lookup_ns.observe(sw.elapsed_ns());
        }
        if !self.out.notifications.is_empty() {
            if let Some(o) = self.observer.as_deref_mut() {
                o.cause(ingress_idx);
            }
        }
        self.emit_control(loc.sw, ingress_idx);
        if self.out.outputs.is_empty() {
            if let Some(o) = self.observer.as_deref_mut() {
                o.leaf(ingress_idx, LeafKind::Terminated);
            }
            self.stats.dropped[DropReason::NoRule.index()] += 1;
            return;
        }
        let depart = self.now + self.params.switch_delay;
        for i in 0..self.out.outputs.len() {
            let (out_pt, out_pkt) = self.out.outputs[i];
            let out_loc = Loc::new(loc.sw, out_pt);
            let egress_idx = self.next_record(Some(ingress_idx));
            if let Some(o) = self.observer.as_deref_mut() {
                o.record(egress_idx, self.arena.get(out_pkt), out_loc, Some(ingress_idx));
            }
            let (link_idx, dst_dense) = match self.egress.get(&out_loc) {
                // Host delivery?
                Some(&Egress::Host(host, host_dense)) => {
                    let t = depart + self.topo.host_latency;
                    let seq = self.next_seq(sender);
                    self.schedule(
                        t,
                        seq,
                        EventKind::Arrive {
                            loc: Loc::new(host, 0),
                            packet: out_pkt,
                            size,
                            parent: egress_idx,
                            from_host: false,
                            sender: host_dense,
                        },
                    );
                    continue;
                }
                // Inter-switch link.
                Some(&Egress::Link(i, dense)) => (i as usize, dense),
                // Nothing attached here.
                None => {
                    if let Some(o) = self.observer.as_deref_mut() {
                        o.leaf(egress_idx, LeafKind::Terminated);
                    }
                    self.stats.dropped[DropReason::DeadEnd.index()] += 1;
                    continue;
                }
            };
            let link = self.topo.links()[link_idx];
            // Scheduled failure? Like queue losses, failure drops are left
            // unterminated in the trace: the abstract configuration has no
            // notion of a dead link, so the packet reads as in flight.
            if timeline_at(&self.link_state[link_idx], depart, false) {
                if let Some(o) = self.observer.as_deref_mut() {
                    o.leaf(egress_idx, LeafKind::Stalled);
                }
                self.stats.dropped[DropReason::LinkDown.index()] += 1;
                continue;
            }
            let arrival = match link.capacity {
                None => depart + link.latency,
                Some(bps) => {
                    let free = &mut self.link_free[link_idx];
                    let start = (*free).max(depart);
                    if self.metrics.on && *free > depart {
                        self.metrics.link_busy += 1;
                    }
                    // Tail drop when the backlog exceeds the queue bound.
                    // Queue losses are *not* marked terminated in the trace:
                    // the abstract configuration relation has lossless
                    // links, so a queue drop reads as a packet forever in
                    // flight (a prefix), not as forwarding misbehaviour.
                    if start.saturating_sub(depart) > self.params.max_queue_delay {
                        if let Some(o) = self.observer.as_deref_mut() {
                            o.leaf(egress_idx, LeafKind::Stalled);
                        }
                        self.stats.dropped[DropReason::QueueFull.index()] += 1;
                        continue;
                    }
                    let wire = size as u64 + self.params.header_overhead as u64;
                    let tx = SimTime::from_micros((wire * 1_000_000).div_ceil(bps));
                    *free = start + tx;
                    start + tx + link.latency
                }
            };
            let seq = self.next_seq(sender);
            self.schedule(
                arrival,
                seq,
                EventKind::Arrive {
                    loc: link.dst,
                    packet: out_pkt,
                    size,
                    parent: egress_idx,
                    from_host: false,
                    sender: dst_dense,
                },
            );
        }
        self.out.outputs.clear();
        if let Some(o) = self.observer.as_deref_mut() {
            o.retire(ingress_idx);
        }
    }
}

// Called by the frozen `benchmark/src/workload.rs:476`, which passes the
// result to `Engine::with_shards`; reads no environment variable. Delete
// in the next `benchmark`-archetype PR.
#[doc(hidden)]
pub fn shard_count_from_env() -> u32 {
    1
}

/// The discrete-event simulator.
///
/// # Examples
///
/// See the crate-level documentation for a complete run.
pub struct Engine<D: DataPlane> {
    core: Core<D>,
    /// Creation counter of the environment entity (initial injections).
    env_seq: u64,
    /// Has `run` been called yet? Sources and observers attach before.
    started: bool,
    trace_mode: TraceMode,
    /// Where a [`TraceMode::Full`] run's recorder leaves the trace; set
    /// when the first `run` attaches the recorder.
    trace: Option<TraceHandle>,
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
        let metrics = EngineMetrics::new(MetricsLevel::Off, None);
        let core = Core::build(topo, params, dataplane, hosts, metrics);
        Engine { core, env_seq: 0, started: false, trace_mode: TraceMode::StatsOnly, trace: None }
    }

    /// Sets the trace recording mode (the default is
    /// [`TraceMode::StatsOnly`]). Under [`TraceMode::Full`] the first
    /// [`run`](Engine::run) puts a trace builder in the observer slot, in
    /// front of any attached observer, and [`finish`](Engine::finish)
    /// hands its trace back in [`RunResult::trace`].
    ///
    /// # Panics
    ///
    /// Panics if any event has already been scheduled (the mode governs a
    /// whole run).
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Engine<D> {
        assert!(self.env_seq == 0, "set the trace mode before scheduling events");
        self.trace_mode = mode;
        self
    }

    /// Sets how much per-packet detail the run's [`Stats`] retain. The
    /// aggregate counters are identical in every mode;
    /// [`StatsMode::Counters`] just leaves the per-packet streams empty.
    ///
    /// # Panics
    ///
    /// Panics if any event has already been scheduled (the mode governs a
    /// whole run).
    pub fn with_stats_mode(mut self, mode: StatsMode) -> Engine<D> {
        assert!(self.env_seq == 0, "set the stats mode before scheduling events");
        self.core.stats_mode = mode;
        self
    }

    /// Sets the telemetry level (the default is [`MetricsLevel::Off`]).
    /// [`MetricsLevel::Full`] attaches a fresh flight recorder; lower
    /// levels detach any existing one.
    ///
    /// # Panics
    ///
    /// Panics if any event has already been scheduled (the level governs a
    /// whole run).
    pub fn with_metrics(mut self, level: MetricsLevel) -> Engine<D> {
        assert!(self.env_seq == 0, "set the metrics level before scheduling events");
        let flight = level.is_full().then(|| FlightRecorder::new(FLIGHT_CAPACITY));
        self.core.metrics = EngineMetrics::new(level, flight);
        self
    }

    /// Sets the control-channel fault model (the default is
    /// [`ChannelModel::ideal`]).
    ///
    /// # Panics
    ///
    /// Panics if any event has already been scheduled (the channel
    /// governs a whole run).
    pub fn with_channel(mut self, model: ChannelModel) -> Engine<D> {
        assert!(self.env_seq == 0, "set the channel model before scheduling events");
        self.core.channel = model;
        self
    }

    /// The control-channel fault model this engine runs under.
    pub fn channel(&self) -> ChannelModel {
        self.core.channel
    }

    /// The telemetry level this engine runs at.
    pub fn metrics_level(&self) -> MetricsLevel {
        self.core.metrics.level()
    }

    /// The engine's flight recorder — a cloneable handle onto the shared
    /// ring of recent events, present only at [`MetricsLevel::Full`].
    /// Callers keep a clone to dump after a failed run.
    pub fn flight_recorder(&self) -> Option<FlightRecorder> {
        self.core.metrics.flight.clone()
    }

    // Called by the frozen `benchmark/src/workload.rs:476`
    // (`.with_shards(netsim::shard_count_from_env())`); there is no sharded
    // loop behind it. Delete in the next `benchmark`-archetype PR.
    #[doc(hidden)]
    pub fn with_shards(self, _: u32) -> Engine<D> {
        self
    }

    /// Diagnostic: packet slots in the engine's arena, the high-water mark
    /// of simultaneously live packets. A slot lives while an event carries
    /// its packet, in every trace mode (a trace record holds its own copy),
    /// so for a streaming run this is a bound independent of how many
    /// events are processed.
    pub fn arena_slots(&self) -> usize {
        self.core.arena.len()
    }

    /// Writes one transition onto a directed link's up/down schedule. A
    /// link the topology does not have is a no-op (no packet can ever
    /// traverse it).
    fn set_link_state_at(&mut self, time: SimTime, src: Loc, dst: Loc, down: bool) {
        let Some(i) = self.core.topo.link_index(src, dst) else { return };
        timeline_set(&mut self.core.link_state[i], time, down);
    }

    /// Injects a failure: the directed link `src → dst` drops every packet
    /// offered to it at or after `time` — until a later
    /// [`restore_link_at`](Engine::restore_link_at) brings it back up.
    /// Transitions may be scheduled in any order; a second transition at
    /// the same instant overwrites the first (last-write-wins), so
    /// repeated fail/restore cycles (flaps) are always well-defined.
    pub fn fail_link_at(&mut self, time: SimTime, src: Loc, dst: Loc) {
        self.set_link_state_at(time, src, dst, true);
    }

    /// Schedules a recovery: the directed link `src → dst` carries packets
    /// again from `time` onward (until a later
    /// [`fail_link_at`](Engine::fail_link_at), if any).
    pub fn restore_link_at(&mut self, time: SimTime, src: Loc, dst: Loc) {
        self.set_link_state_at(time, src, dst, false);
    }

    /// Injects a bidirectional failure at `time`.
    pub fn fail_bilink_at(&mut self, time: SimTime, a: Loc, b: Loc) {
        self.fail_link_at(time, a, b);
        self.fail_link_at(time, b, a);
    }

    /// Schedules a bidirectional recovery at `time`.
    pub fn restore_bilink_at(&mut self, time: SimTime, a: Loc, b: Loc) {
        self.restore_link_at(time, a, b);
        self.restore_link_at(time, b, a);
    }

    /// Crashes a switch at `time`: every inter-switch link incident to
    /// `sw` (both directions) goes down, so the switch neither receives
    /// nor emits transit traffic. Host attachment links are untouched —
    /// packets a crashed switch's hosts inject drop at the first dead
    /// egress, exactly as a real dark switch would blackhole them.
    pub fn crash_switch_at(&mut self, time: SimTime, sw: u64) {
        self.set_incident_links_at(time, sw, true);
    }

    /// Recovers a crashed switch at `time`: every inter-switch link
    /// incident to `sw` comes back up.
    pub fn recover_switch_at(&mut self, time: SimTime, sw: u64) {
        self.set_incident_links_at(time, sw, false);
    }

    fn set_incident_links_at(&mut self, time: SimTime, sw: u64, down: bool) {
        let core = &mut self.core;
        for (i, l) in core.topo.links().iter().enumerate() {
            if l.src.sw == sw || l.dst.sw == sw {
                timeline_set(&mut core.link_state[i], time, down);
            }
        }
    }

    /// Schedules a controller-latency change: from `time` onward the
    /// switch↔controller latency is `latency` instead of
    /// [`SimParams::controller_latency`], until a later entry replaces it
    /// (schedule a spike as a raise followed by a restore).
    pub fn set_controller_latency_at(&mut self, time: SimTime, latency: SimTime) {
        timeline_set(&mut self.core.ctrl_latency, time, latency);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedules a host to inject a packet of the default size at `time`.
    pub fn inject_at(&mut self, time: SimTime, host: u64, packet: Packet) {
        self.inject_sized(time, host, packet, DEFAULT_PACKET_SIZE);
    }

    /// Schedules a host to inject a packet of `size` bytes at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a host of the topology.
    pub fn inject_sized(&mut self, time: SimTime, host: u64, packet: Packet, size: u32) {
        let core = &mut self.core;
        let sender = core.entities.host(host);
        let seq = pack_seq(ENV_ENTITY, self.env_seq);
        self.env_seq += 1;
        let packet = core.arena.intern(packet);
        core.push_keyed(time, seq, EventKind::Inject { host, packet, size, sender });
    }

    /// Pre-sizes the event slab for `extra` upcoming events — call before
    /// streaming a bulk injection whose iterator cannot report its length
    /// (e.g. a `flat_map` over flows).
    pub fn reserve_events(&mut self, extra: usize) {
        let core = &mut self.core;
        core.slots.reserve(extra.saturating_sub(core.free_slots.len()));
    }

    /// Schedules a whole batch of host injections `(time, host, packet,
    /// size)` in one queue fill: the event slab is pre-sized once
    /// (from the iterator's size hint — use
    /// [`reserve_events`](Engine::reserve_events) first when the hint is
    /// useless), so bulk workload setup (thousands of datagrams) avoids
    /// per-call growth churn.
    ///
    /// # Panics
    ///
    /// Panics if any scheduled node is not a host of the topology.
    pub fn inject_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (SimTime, u64, Packet, u32)>,
    {
        let batch = batch.into_iter();
        let (expected, _) = batch.size_hint();
        self.reserve_events(expected);
        for (time, host, packet, size) in batch {
            self.inject_sized(time, host, packet, size);
        }
    }

    /// Attaches a lazy injection stream: the engine pulls events from the
    /// source as simulated time advances, so a workload of millions of
    /// datagrams never materializes in the queue. The run is
    /// **byte-identical** to scheduling the same events through
    /// [`inject_batch`](Engine::inject_batch) (see [`crate::source`]).
    ///
    /// The source writes each event's packet into one buffer the engine
    /// keeps for the run, and the engine copies it into a recycled arena
    /// slot, so a streamed event allocates nothing in steady state.
    ///
    /// Injections scheduled *after* this call (e.g. trigger packets via
    /// [`inject_at`](Engine::inject_at)) sort after the entire stream at
    /// equal times, exactly as they would after a batch call.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started or a source is already set.
    pub fn set_source(&mut self, src: Box<dyn WorkloadSource + Send>) {
        assert!(!self.started, "attach the source before running");
        assert!(self.core.source.is_none(), "an engine takes one source");
        let total = src.total_events();
        let base = self.env_seq;
        self.env_seq += total;
        self.core.source = Some(SourceState { src, base, total, packet: Packet::new() });
    }

    /// Attaches a streaming trace observer (e.g. the online consistency
    /// checker, [`edn_core::OnlineChecker`]): every record, drop, delivery,
    /// and controller causal edge is reported as it happens, so a
    /// [`TraceMode::StatsOnly`] run can still be checked.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn set_observer(&mut self, mut observer: Box<dyn TraceObserver + Send>) {
        assert!(!self.started, "attach the observer before running");
        if let Some(fr) = self.core.metrics.flight.clone() {
            observer.attach_flight_recorder(fr);
        }
        self.core.observer = Some(observer);
    }

    /// Runs the event loop until the queue empties or `deadline` passes.
    ///
    /// This is the simulation proper — the phase scale measurements time.
    /// Turning the recorded run into a [`RunResult`] (which materializes
    /// the network trace from the arena) is the separate
    /// [`finish`](Engine::finish) step; [`run_until`](Engine::run_until)
    /// does both.
    pub fn run(&mut self, deadline: SimTime) {
        if !self.started && self.trace_mode == TraceMode::Full {
            let (slot, trace) = recorder::record_in_front(self.core.observer.take());
            self.core.observer = Some(slot);
            self.trace = Some(trace);
        }
        self.started = true;
        self.core.run(deadline);
    }

    /// Finalizes a run: hands back the recorded trace (empty under
    /// [`TraceMode::StatsOnly`]), statistics, the data plane and the
    /// telemetry registry. It writes no file: where a snapshot goes is the
    /// caller's decision ([`Registry::write_out`]).
    pub fn finish(self) -> RunResult<D> {
        let mut core = self.core;
        let metrics_on = core.metrics.on;
        let mut metrics = Registry::new();
        if metrics_on {
            core.metrics.contribute(&mut metrics);
            metrics::contribute_stats(&mut metrics, &core.stats);
            metrics::contribute_arena(&mut metrics, &core.arena);
            core.dataplane.contribute_metrics(&mut metrics);
        }
        if let Some(mut o) = core.observer.take() {
            // Packets still in flight (queued past the deadline) are
            // path tips: the observer closes them out as prefixes.
            o.finish();
            if metrics_on {
                o.contribute_metrics(&mut metrics);
            }
        }
        RunResult {
            trace: self.trace.map_or_else(NetworkTrace::default, TraceHandle::take),
            stats: core.stats,
            dataplane: core.dataplane,
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
    use netkat::PacketArena;

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
}

#[cfg(test)]
mod tests {
    use super::fixtures::{topo, traced, Msg, PerSwitch};
    use super::*;
    use crate::logic::SinkHosts;
    use netkat::{Field, PacketArena};

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
        /// Notifies from switch 1 and has the controller command switch 99,
        /// which the topology does not have.
        struct Stray;
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
        }
        let mut e = traced(topo(), SimParams::default(), Stray, Box::new(SinkHosts));
        // The second packet crosses both switches after the command landed.
        e.inject_at(SimTime::ZERO, 100, Packet::new().with(Field::Vlan, 1));
        e.inject_at(SimTime::from_millis(10), 100, Packet::new().with(Field::Vlan, 2));
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(r.stats.delivered_packets, 2);
        assert!(r.trace.extra_edges().is_empty(), "no switch of the topology was told anything");
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
        let split = |d1: u64| {
            let mut e = traced(topo(), SimParams::default(), ToHostPort(2), Box::new(SinkHosts));
            for i in 0..10 {
                e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
            }
            e.run(SimTime::from_millis(d1));
            e.run(SimTime::from_secs(1));
            let r = e.finish();
            (r.trace, r.stats)
        };
        let whole = split(1_000_000); // first run covers everything
        assert!(!whole.0.is_empty(), "the reference run records a trace");
        for d1 in [0, 3, 5] {
            assert_eq!(split(d1), whole, "resumed run diverged at split {d1}ms");
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
        let split = |d1: u64| {
            let mut e = traced(topo(), SimParams::default(), PerSwitch, Box::new(SinkHosts));
            for i in 0..10 {
                e.inject_at(SimTime::from_millis(i), 100, Packet::new().with(Field::Vlan, i));
            }
            e.run(SimTime::from_millis(d1));
            e.run(SimTime::from_secs(1));
            let r = e.finish();
            (r.trace, r.stats)
        };
        let whole = split(1_000_000);
        assert!(!whole.0.is_empty(), "the reference run records a trace");
        for d1 in [0, 3, 5] {
            assert_eq!(split(d1), whole, "resumed run diverged at split {d1}ms");
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
    use netkat::{Field, PacketArena};

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
    use netkat::{Field, PacketArena};

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
