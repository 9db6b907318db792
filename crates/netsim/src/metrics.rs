//! Metric accumulation for the engine.
//!
//! The engine owns one [`EngineMetrics`]: plain fields the hot loop bumps
//! behind a single `on` check, folded into an [`edn_obs::Registry`] at
//! `finish`.
//!
//! Scope discipline (see [`edn_obs::Scope`]):
//!
//! * **Sim** — derived from sim time and event content at the event's
//!   unique creation or dispatch site, so the value is a function of the
//!   simulated run alone: per-kind dispatch counts, the creation-to-fire
//!   latency histogram, link-saturation counts, per-reason drops.
//! * **Shard** — deterministic for a fixed build but dependent on how the
//!   engine is implemented or fed, so not compared across knobs:
//!   queue-depth high-water, arena interning.
//! * **Wall** — sampled wall-clock phase profiling
//!   ([`MetricsLevel::Full`] only), never expected to reproduce.

use edn_obs::{FlightRecorder, Hist, MetricsLevel, Registry, Scope};

use crate::stats::{DropReason, Stats};
use crate::time::SimTime;

/// How many recent events the engine's flight recorder retains.
pub(crate) const FLIGHT_CAPACITY: usize = 1024;

/// Sample mask for wall-clock phase profiling: one dispatch in
/// `SAMPLE_MASK + 1` is timed, and one source pull in as many injections.
const SAMPLE_MASK: u64 = 1023;

/// Is the `n`-th occurrence (from 0) of a phase timed?
#[inline]
pub(crate) fn sampled(n: u64) -> bool {
    n & SAMPLE_MASK == 0
}

/// The engine's metric accumulators. All zero-cost when
/// `on == false` (every instrument point is behind that one branch).
pub(crate) struct EngineMetrics {
    /// Any instrumentation at all? (Any level above [`MetricsLevel::Off`].)
    pub(crate) on: bool,
    /// Wall-clock phase profiling and the flight recorder too?
    pub(crate) full: bool,
    /// The shared flight recorder, present only at `full`.
    pub(crate) flight: Option<FlightRecorder>,
    /// Is the current dispatch being wall-clock sampled?
    pub(crate) sampling: bool,

    // Sim scope.
    /// Dispatched events by kind (inject, arrive, notify, deliver, timer).
    pub(crate) dispatched: [u64; 5],
    /// Control-channel messages the fault model dropped.
    pub(crate) chan_dropped: u64,
    /// Control-channel messages the fault model duplicated.
    pub(crate) chan_duplicated: u64,
    /// Control-channel copies given the reorder (bad-delay) treatment.
    pub(crate) chan_reordered: u64,
    /// Sim-time delay from an event's creation to its fire time, in µs,
    /// observed once at the unique creation site.
    pub(crate) latency_us: Hist,
    /// Egress pushes that found their link still transmitting.
    pub(crate) link_busy: u64,

    // Shard scope.
    /// Event-queue depth high-water (sampled at each dispatch).
    pub(crate) queue_depth_hw: u64,

    // Wall scope (sampled, `full` only).
    /// Pulling one source datagram: the source's write and the intern.
    pub(crate) phase_pump_ns: Hist,
    pub(crate) phase_dispatch_ns: Hist,
    pub(crate) phase_lookup_ns: Hist,
    pub(crate) phase_observer_ns: Hist,
}

impl EngineMetrics {
    pub(crate) fn new(level: MetricsLevel, flight: Option<FlightRecorder>) -> EngineMetrics {
        EngineMetrics {
            on: level.is_on(),
            full: level.is_full(),
            flight,
            sampling: false,
            dispatched: [0; 5],
            chan_dropped: 0,
            chan_duplicated: 0,
            chan_reordered: 0,
            latency_us: Hist::new(),
            link_busy: 0,
            queue_depth_hw: 0,
            phase_pump_ns: Hist::new(),
            phase_dispatch_ns: Hist::new(),
            phase_lookup_ns: Hist::new(),
            phase_observer_ns: Hist::new(),
        }
    }

    /// The level this accumulator was built with.
    pub(crate) fn level(&self) -> MetricsLevel {
        if self.full {
            MetricsLevel::Full
        } else if self.on {
            MetricsLevel::Counters
        } else {
            MetricsLevel::Off
        }
    }

    /// Observes an event's creation (caller checked `on`): the sim-time
    /// gap between the creating dispatch's clock and the fire time.
    #[inline]
    pub(crate) fn observe_scheduled(&mut self, fire: SimTime, now: SimTime) {
        self.latency_us.observe(fire.as_micros() - now.as_micros());
    }

    /// Refreshes the per-dispatch sampling decision (caller checked `on`).
    #[inline]
    pub(crate) fn begin_dispatch(&mut self, events_processed: u64) {
        self.sampling = self.full && sampled(events_processed);
    }

    /// Folds these accumulators into `reg`.
    pub(crate) fn contribute(&self, reg: &mut Registry) {
        let kinds = ["inject", "arrive", "notify", "deliver", "timer"];
        for (name, count) in kinds.iter().zip(self.dispatched) {
            reg.counter_add(Scope::Sim, &format!("engine.dispatch.{name}"), count);
        }
        reg.counter_add(Scope::Sim, "channel.dropped", self.chan_dropped);
        reg.counter_add(Scope::Sim, "channel.duplicated", self.chan_duplicated);
        reg.counter_add(Scope::Sim, "channel.reordered", self.chan_reordered);
        reg.hist_merge(Scope::Sim, "engine.event_latency_us", &self.latency_us);
        reg.counter_add(Scope::Sim, "engine.link_busy", self.link_busy);
        reg.gauge_max(Scope::Shard, "engine.queue_depth_hw", self.queue_depth_hw);
        if self.full {
            reg.hist_merge(Scope::Wall, "phase.pump_ns", &self.phase_pump_ns);
            reg.hist_merge(Scope::Wall, "phase.dispatch_ns", &self.phase_dispatch_ns);
            reg.hist_merge(Scope::Wall, "phase.lookup_ns", &self.phase_lookup_ns);
            reg.hist_merge(Scope::Wall, "phase.observer_ns", &self.phase_observer_ns);
        }
    }
}

/// Folds the always-on aggregate [`Stats`] counters into `reg` — named
/// per-reason drop counts and the headline totals.
pub(crate) fn contribute_stats(reg: &mut Registry, stats: &Stats) {
    reg.counter_add(Scope::Sim, "engine.events_processed", stats.events_processed);
    reg.counter_add(Scope::Sim, "engine.injected", stats.injected);
    reg.counter_add(Scope::Sim, "engine.delivered_packets", stats.delivered_packets);
    reg.counter_add(Scope::Sim, "engine.delivered_bytes", stats.delivered_bytes);
    for reason in DropReason::ALL {
        reg.counter_add(
            Scope::Sim,
            &format!("drops.{}", reason.name()),
            stats.dropped[reason.index()],
        );
    }
}

/// Folds the arena's interning counters and slot high-water into `reg`.
pub(crate) fn contribute_arena(reg: &mut Registry, arena: &netkat::PacketArena) {
    let s = arena.stats();
    reg.counter_add(Scope::Shard, "arena.intern_misses", s.misses);
    reg.counter_add(Scope::Shard, "arena.recycled_slots", s.recycled);
    reg.gauge_max(Scope::Shard, "arena.slots_hw", arena.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contribute_off_level_still_folds_counters() {
        let mut m = EngineMetrics::new(MetricsLevel::Counters, None);
        assert!(m.on && !m.full);
        m.dispatched[1] = 5;
        m.observe_scheduled(SimTime::from_micros(30), SimTime::from_micros(10));
        let mut reg = Registry::new();
        m.contribute(&mut reg);
        assert_eq!(reg.counter("engine.dispatch.arrive"), Some(5));
        let h = reg.histogram("engine.event_latency_us").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 20);
        // Counters level keeps the wall section empty.
        assert!(reg.histogram("phase.dispatch_ns").is_none());
        assert_eq!(m.level(), MetricsLevel::Counters);
    }

    #[test]
    fn sampling_gates_on_full_and_mask() {
        let mut m = EngineMetrics::new(MetricsLevel::Full, None);
        m.begin_dispatch(0);
        assert!(m.sampling);
        m.begin_dispatch(1);
        assert!(!m.sampling);
        m.begin_dispatch(1024);
        assert!(m.sampling);
        let mut c = EngineMetrics::new(MetricsLevel::Counters, None);
        c.begin_dispatch(0);
        assert!(!c.sampling);
    }

    #[test]
    fn stats_contribution_names_reasons() {
        let mut stats = Stats::default();
        stats.dropped[DropReason::QueueFull.index()] = 7;
        stats.events_processed = 42;
        let mut reg = Registry::new();
        contribute_stats(&mut reg, &stats);
        assert_eq!(reg.counter("drops.queue_full"), Some(7));
        assert_eq!(reg.counter("drops.no_rule"), Some(0));
        assert_eq!(reg.counter("engine.events_processed"), Some(42));
    }
}
