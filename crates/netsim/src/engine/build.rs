//! The pre-run API: the `with_*` setters, the link, crash and
//! controller-latency timelines, injection, and attaching a source or an
//! observer.

use edn_obs::FlightRecorder;

use super::*;
use crate::metrics::FLIGHT_CAPACITY;

/// Default payload size for injected packets (an Ethernet-ish frame).
pub const DEFAULT_PACKET_SIZE: u32 = 1_500;

/// A scheduled step function over simulated time: each `(time, value)`
/// entry sets the value from `time` onward, until a later entry replaces
/// it. Kept sorted by time; writes at an already-scheduled time overwrite
/// in place (**last-write-wins**), so repeated fail/restore cycles and
/// re-scripted scenario actions are always well-defined.
pub(super) type Timeline<T> = Vec<(SimTime, T)>;

/// Inserts `(time, value)` into a sorted timeline, overwriting any
/// existing entry at exactly `time`.
pub(super) fn timeline_set<T>(timeline: &mut Timeline<T>, time: SimTime, value: T) {
    let i = timeline.partition_point(|&(at, _)| at < time);
    match timeline.get_mut(i) {
        Some(entry) if entry.0 == time => entry.1 = value,
        _ => timeline.insert(i, (time, value)),
    }
}

/// The timeline's value at `t`: the most recent entry at or before `t`,
/// or `default` before the first entry (and for an empty timeline).
pub(super) fn timeline_at<T: Copy>(timeline: &Timeline<T>, t: SimTime, default: T) -> T {
    match timeline.partition_point(|&(at, _)| at <= t) {
        0 => default,
        i => timeline[i - 1].1,
    }
}

// Called by the frozen `benchmark/src/workload.rs:476`, which passes the
// result to `Engine::with_shards`; reads no environment variable. Delete
// in the next `benchmark`-archetype PR.
#[doc(hidden)]
pub fn shard_count_from_env() -> u32 {
    1
}

// Named by the frozen `benchmark/src/workload.rs:386,607`; a trace is an
// attached observer. Delete in the next `benchmark`-archetype PR.
#[doc(hidden)]
pub enum TraceMode {
    StatsOnly,
}

impl<D: DataPlane> Engine<D> {
    /// Sets how much per-packet detail the run's [`Stats`](crate::Stats)
    /// retain. The aggregate counters are identical in every mode;
    /// [`StatsMode::Counters`] just leaves the per-packet streams empty.
    ///
    /// # Panics
    ///
    /// Panics if any event has already been scheduled (the mode governs a
    /// whole run).
    pub fn with_stats_mode(mut self, mode: StatsMode) -> Engine<D> {
        assert!(self.env_seq == 0, "set the stats mode before scheduling events");
        self.stats_mode = mode;
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
        self.metrics = EngineMetrics::new(level, flight);
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
        self.channel = model;
        self
    }

    /// The control-channel fault model this engine runs under.
    pub fn channel(&self) -> ChannelModel {
        self.channel
    }

    /// The telemetry level this engine runs at.
    pub fn metrics_level(&self) -> MetricsLevel {
        self.metrics.level()
    }

    /// The engine's flight recorder — a cloneable handle onto the shared
    /// ring of recent events, present only at [`MetricsLevel::Full`].
    /// Callers keep a clone to dump after a failed run.
    pub fn flight_recorder(&self) -> Option<FlightRecorder> {
        self.metrics.flight.clone()
    }

    // Called by the frozen `benchmark/src/workload.rs:476`
    // (`.with_shards(netsim::shard_count_from_env())`); there is no sharded
    // loop behind it. Delete in the next `benchmark`-archetype PR.
    #[doc(hidden)]
    pub fn with_shards(self, _: u32) -> Engine<D> {
        self
    }

    // Called by the frozen `benchmark/src/workload.rs:386,607`. Delete in
    // the next `benchmark`-archetype PR.
    #[doc(hidden)]
    pub fn with_trace_mode(self, _: TraceMode) -> Engine<D> {
        self
    }

    /// Diagnostic: packet slots in the engine's arena, the high-water mark
    /// of simultaneously live packets. A slot lives while an event carries
    /// its packet, whatever observes the run (a trace record holds its own copy),
    /// so for a streaming run this is a bound independent of how many
    /// events are processed.
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// Writes one transition onto a directed link's up/down schedule. A
    /// link the topology does not have is a no-op (no packet can ever
    /// traverse it).
    fn set_link_state_at(&mut self, time: SimTime, src: Loc, dst: Loc, down: bool) {
        let Some(i) = self.topo.link_index(src, dst) else { return };
        timeline_set(&mut self.link_state[i], time, down);
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
        for (i, l) in self.topo.links().iter().enumerate() {
            if l.src.sw == sw || l.dst.sw == sw {
                timeline_set(&mut self.link_state[i], time, down);
            }
        }
    }

    /// Schedules a controller-latency change: from `time` onward the
    /// switch↔controller latency is `latency` instead of
    /// [`SimParams::controller_latency`](crate::SimParams::controller_latency),
    /// until a later entry replaces it (schedule a spike as a raise
    /// followed by a restore).
    pub fn set_controller_latency_at(&mut self, time: SimTime, latency: SimTime) {
        timeline_set(&mut self.ctrl_latency, time, latency);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
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
        let sender = self.entities.host(host);
        let seq = pack_seq(ENV_ENTITY, self.env_seq);
        self.env_seq += 1;
        let packet = self.arena.intern(packet);
        self.push_keyed(time, seq, EventKind::Inject { host, packet, size, sender });
    }

    /// Pre-sizes the event slab for `extra` upcoming events — call before
    /// streaming a bulk injection whose iterator cannot report its length
    /// (e.g. a `flat_map` over flows).
    pub fn reserve_events(&mut self, extra: usize) {
        self.pending.reserve(extra);
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
        assert!(self.source.is_none(), "an engine takes one source");
        let total = src.total_events();
        let base = self.env_seq;
        self.env_seq += total;
        self.source = Some(SourceState { src, base, total, packet: Packet::new() });
    }

    /// Attaches a streaming trace observer (e.g. the online consistency
    /// checker, [`edn_core::OnlineChecker`]): every record, drop, delivery,
    /// and controller causal edge is reported as it happens. On an occupied
    /// slot it is paired with the observer there, `(old, new)`: both see
    /// the one stream. At [`MetricsLevel::Full`] the first
    /// [`run`](Engine::run) hands the slot the engine's flight recorder,
    /// whichever of the two was set first.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn set_observer(&mut self, observer: Box<dyn TraceObserver + Send>) {
        assert!(!self.started, "attach the observer before running");
        self.observer = Some(match self.observer.take() {
            Some(old) => Box::new((old, observer)),
            None => observer,
        });
    }
}
