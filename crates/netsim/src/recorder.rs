//! The [`TraceMode::Full`](edn_core::TraceMode) recorder: an `edn-core`
//! [`TraceBuilder`] in the engine's observer slot, in front of any
//! attached observer, so both see the one stream the engine reports.

use std::sync::{Arc, OnceLock};

use edn_core::{LeafKind, NetworkTrace, TraceBuilder, TraceObserver};
use netkat::{Loc, Packet};

type Observer = Box<dyn TraceObserver + Send>;
type Published = Arc<OnceLock<NetworkTrace>>;

/// Where the recorder leaves the built trace when the run finishes.
pub(crate) struct TraceHandle(Published);

impl TraceHandle {
    /// The trace the finished run recorded.
    ///
    /// # Panics
    ///
    /// Panics unless the recorder has finished and been dropped.
    pub(crate) fn take(self) -> NetworkTrace {
        let published = Arc::into_inner(self.0).and_then(OnceLock::into_inner);
        published.expect("the recorder publishes on a finished run")
    }
}

/// Puts a fresh recorder in front of `next`, the observer attached so far.
pub(crate) fn record_in_front(next: Option<Observer>) -> (Observer, TraceHandle) {
    let out = Published::default();
    let recorder = Recorder { trace: TraceBuilder::new(), next, out: out.clone() };
    (Box::new(recorder), TraceHandle(out))
}

/// A two-observer fan-out: the trace builder, then the attached observer
/// (if any), fed the same calls in the same order. The engine hands the
/// attached observer its flight recorder before the fan-out exists, so
/// only the metrics pass through.
struct Recorder {
    trace: TraceBuilder,
    next: Option<Observer>,
    out: Published,
}

impl TraceObserver for Recorder {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        self.trace.record(idx, packet, loc, parent);
        self.next.iter_mut().for_each(|o| o.record(idx, packet, loc, parent));
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.trace.edge(from, to);
        self.next.iter_mut().for_each(|o| o.edge(from, to));
    }

    fn cause(&mut self, idx: usize) {
        self.trace.cause(idx);
        self.next.iter_mut().for_each(|o| o.cause(idx));
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        self.trace.leaf(idx, kind);
        self.next.iter_mut().for_each(|o| o.leaf(idx, kind));
    }

    fn retire(&mut self, idx: usize) {
        self.trace.retire(idx);
        self.next.iter_mut().for_each(|o| o.retire(idx));
    }

    fn finish(&mut self) {
        let trace = std::mem::take(&mut self.trace).build();
        let trace = trace.expect("engine-built traces are structurally valid");
        self.out.set(trace).expect("a run finishes once");
        self.next.iter_mut().for_each(|o| o.finish());
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.next.iter().for_each(|o| o.contribute_metrics(reg));
    }
}
