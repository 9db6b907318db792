//! Deterministic telemetry for the event-driven network stack.
//!
//! The crate provides three independent pieces, all zero-overhead when
//! metrics are off:
//!
//! * a [`Registry`] of named [counters](Registry::counter_add),
//!   [high-water gauges](Registry::gauge_max), and
//!   [power-of-two log histograms](Hist) with a deterministic merge and
//!   name-ordered exports, so sim-time-derived metrics render
//!   byte-identically across replays;
//! * a [`FlightRecorder`] — a bounded ring of recent engine events dumped
//!   as JSON next to a violation report when an online checker fails or a
//!   bench panics;
//! * a wall-clock [`Stopwatch`], so ad-hoc `Instant::now()` timing lives
//!   in one audited place.
//!
//! Metrics are classified by [`Scope`]: `sim` metrics derive only from
//! simulated time and event content and are byte-identical across replays
//! and result-neutral knobs; `shard` metrics are deterministic for a fixed
//! build but not compared across knobs (queue depths, arena interning);
//! `wall` metrics are wall-clock samples and are never expected to
//! reproduce.
//! Exporters ([`Registry::render_json`], [`Registry::render_prometheus`])
//! keep the scopes segregated so determinism checks can compare the `sim`
//! section alone.
//!
//! The instrumentation level is a [`MetricsLevel`] the caller passes in;
//! [`Registry::write_out`] persists a snapshot where the caller says
//! (`.prom`/`.txt` extension selects Prometheus text exposition, anything
//! else JSON). Nothing in this crate reads the process environment: the
//! binaries that honour `EDN_METRICS` and `EDN_METRICS_OUT` parse them
//! once and pass the values down.

mod flight;
mod registry;
mod wall;

pub use flight::{FlightEvent, FlightRecorder};
pub use registry::{Hist, Registry, Scope};
pub use wall::Stopwatch;

/// How much instrumentation the engine stack should run with.
///
/// Named by the `EDN_METRICS` value of the binaries that read it:
///
/// | value | meaning |
/// |---|---|
/// | `off` (default) | no metrics; hot paths skip all bookkeeping |
/// | `counters` | cheap counters, gauges, and sim-time histograms |
/// | `full` | `counters` plus sampled wall-clock phase profiling and the flight recorder |
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MetricsLevel {
    /// No instrumentation (the default).
    #[default]
    Off,
    /// Deterministic counters, gauges, and histograms only.
    Counters,
    /// Everything: counters plus sampled wall-clock phase profiling and
    /// the flight recorder.
    Full,
}

impl MetricsLevel {
    /// Parses an `EDN_METRICS` value; unset or empty means
    /// [`MetricsLevel::Off`].
    ///
    /// # Errors
    ///
    /// Returns the message to show the user for an unknown value, so a typo
    /// cannot silently disable telemetry.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("" | "off") => Ok(MetricsLevel::Off),
            Some("counters") => Ok(MetricsLevel::Counters),
            Some("full") => Ok(MetricsLevel::Full),
            Some(v) => Err(format!("EDN_METRICS must be off|counters|full, got {v:?}")),
        }
    }

    /// Whether any instrumentation is enabled.
    pub fn is_on(self) -> bool {
        self != MetricsLevel::Off
    }

    /// Whether sampled phase profiling and the flight recorder run.
    pub fn is_full(self) -> bool {
        self == MetricsLevel::Full
    }

    /// The knob value naming this level.
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Counters => "counters",
            MetricsLevel::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_predicates() {
        assert!(!MetricsLevel::Off.is_on());
        assert!(MetricsLevel::Counters.is_on());
        assert!(!MetricsLevel::Counters.is_full());
        assert!(MetricsLevel::Full.is_full());
        assert_eq!(MetricsLevel::Full.name(), "full");
        assert_eq!(MetricsLevel::default(), MetricsLevel::Off);
    }
}
