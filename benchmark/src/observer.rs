//! A delegating [`TraceObserver`] that times every callback of the observer
//! it wraps — how the benchmark measures `edn-core`'s online checker from
//! outside the crate.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use edn_core::{LeafKind, TraceObserver};
use netkat::{Loc, Packet};

/// Time spent in, and calls made to, a wrapped observer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckerTimes {
    pub record_ns: u64,
    pub record_calls: u64,
    /// `edge` + `cause` + `leaf` + `retire`.
    pub other_ns: u64,
    pub other_calls: u64,
    pub finish_ns: u64,
}

/// Where a [`TimingObserver`] publishes its totals when the run finishes.
pub type SharedTimes = Arc<Mutex<CheckerTimes>>;

/// Wraps `inner`, forwarding every callback unchanged and timing it. The
/// totals are kept in the observer and published once, at `finish`, so the
/// per-callback cost is two clock reads and no lock.
pub struct TimingObserver {
    inner: Box<dyn TraceObserver + Send>,
    times: CheckerTimes,
    out: SharedTimes,
}

impl TimingObserver {
    pub fn wrap(
        inner: Box<dyn TraceObserver + Send>,
    ) -> (Box<dyn TraceObserver + Send>, SharedTimes) {
        let out = SharedTimes::default();
        let observer = TimingObserver { inner, times: CheckerTimes::default(), out: out.clone() };
        (Box::new(observer), out)
    }

    fn other(&mut self, f: impl FnOnce(&mut dyn TraceObserver)) {
        let t = Instant::now();
        f(self.inner.as_mut());
        self.times.other_ns += t.elapsed().as_nanos() as u64;
        self.times.other_calls += 1;
    }
}

impl TraceObserver for TimingObserver {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        let t = Instant::now();
        self.inner.record(idx, packet, loc, parent);
        self.times.record_ns += t.elapsed().as_nanos() as u64;
        self.times.record_calls += 1;
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.other(|o| o.edge(from, to));
    }

    fn cause(&mut self, idx: usize) {
        self.other(|o| o.cause(idx));
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        self.other(|o| o.leaf(idx, kind));
    }

    fn retire(&mut self, idx: usize) {
        self.other(|o| o.retire(idx));
    }

    fn finish(&mut self) {
        let t = Instant::now();
        self.inner.finish();
        self.times.finish_ns += t.elapsed().as_nanos() as u64;
        *self.out.lock().expect("only this observer writes the totals") = self.times;
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.inner.contribute_metrics(reg);
    }

    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        self.inner.attach_flight_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::verdict_word;
    use edn_core::OnlineChecker;
    use edn_obs::Registry;
    use edn_scenario::CompiledScenario;
    use netsim::MetricsLevel;

    const RING4: &str = "[scenario]\ntopology = \"ring\"\nsize = 4\nseed = 3\n\
                         [workload]\nflows = 4\n[campaign]\nupdates = 1\n";

    /// Runs the ring(4) one-update scenario on the coordinated runtime or
    /// the uncoordinated baseline, the checker attached bare or behind the
    /// timing wrapper.
    fn run(
        c: &CompiledScenario,
        coordinated: bool,
        timed: bool,
    ) -> (&'static str, Registry, CheckerTimes) {
        let (mut observer, handle) = OnlineChecker::observer(&c.nes).expect("one update fits");
        let mut times = SharedTimes::default();
        if timed {
            (observer, times) = TimingObserver::wrap(observer);
        }
        macro_rules! drive {
            ($engine:expr) => {{
                let mut engine = $engine.with_metrics(MetricsLevel::Counters);
                engine.set_observer(observer);
                c.apply_actions(&mut engine);
                c.load_traffic(&mut engine, true);
                c.inject_campaign(&mut engine);
                engine.run_until(c.horizon).metrics
            }};
        }
        let metrics = if coordinated { drive!(c.engine()) } else { drive!(c.uncoordinated()) };
        let times = *times.lock().unwrap();
        (verdict_word(Some(handle.verdict())), metrics, times)
    }

    #[test]
    fn timing_observer_is_a_pure_pass_through() {
        let c = CompiledScenario::compile(&edn_scenario::parse(RING4).unwrap()).unwrap();
        for coordinated in [true, false] {
            let (bare_verdict, bare, untouched) = run(&c, coordinated, false);
            let (timed_verdict, timed, times) = run(&c, coordinated, true);
            assert_eq!(timed_verdict, bare_verdict, "the wrapper must not change the verdict");
            assert_eq!(bare_verdict == "correct", coordinated, "only the baseline is caught");
            for gauge in
                ["checker.live_nodes_hw", "checker.obligations_hw", "checker.watched_leaves_hw"]
            {
                assert!(bare.gauge(gauge).is_some(), "{gauge} is reported");
                assert_eq!(timed.gauge(gauge), bare.gauge(gauge), "{gauge}");
            }
            for counter in ["checker.retired_prefixes", "checker.fired_events"] {
                assert!(bare.counter(counter).is_some(), "{counter} is reported");
                assert_eq!(timed.counter(counter), bare.counter(counter), "{counter}");
            }
            assert_eq!(untouched, CheckerTimes::default());
            assert!(times.record_calls > 0 && times.other_calls > 0, "callbacks were timed");
        }
    }
}
