//! Streaming observation of a network trace as it is produced.
//!
//! A [`TraceObserver`] receives every per-packet processing step of a run
//! *incrementally*, while the run is still executing; the engine reports
//! each step once, to its one observer slot. The online checker judges the
//! run this way, and a [`TraceBuilder`](crate::TraceBuilder) is an observer
//! too: [`TraceBuilder::observer`](crate::TraceBuilder::observer) attaches
//! like the checker, and the Section 2 trace it builds is the stream the
//! checker saw. Two observers in one slot are a pair, `(A, B)`, fed every
//! callback in that order. The engine additionally tells the observer when
//! a node can no longer gain children ([`TraceObserver::retire`]), which is
//! what lets an online checker discharge its happens-before obligations and
//! drop state for trace prefixes in bounded memory.
//!
//! Callback protocol (per node index `idx`: the index the record has in
//! the run's network trace):
//!
//! 1. [`record`](TraceObserver::record) introduces node `idx` with its trace
//!    parent (if any). Indices are introduced in order, consecutively
//!    from 0.
//! 2. Zero or more [`edge`](TraceObserver::edge) calls add controller-induced
//!    causal edges *into* `idx`. They arrive after `record(idx)` but before
//!    the next `record`.
//! 3. An optional [`cause`](TraceObserver::cause) call marks `idx` as the
//!    cause of in-flight controller notifications; future [`edge`] calls may
//!    reference it as their source long after it was recorded.
//! 4. Exactly one of:
//!    - [`leaf`](TraceObserver::leaf) — `idx` ends its packet's path
//!      (delivered to a host, terminated by the configuration, or stalled
//!      in-flight at the run's end), or
//!    - further `record` calls naming `idx` as parent.
//! 5. [`retire`](TraceObserver::retire) — `idx` will gain no more children.
//! 6. [`finish`](TraceObserver::finish) — the run is over; any node that
//!    never received a `leaf` is an in-flight prefix.
//!
//! [`edge`]: TraceObserver::edge

use netkat::{Loc, Packet};

/// How a packet path ends at a trace node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeafKind {
    /// The packet reached a host.
    Delivered,
    /// The configuration produced no outputs (dropped / filtered): the path
    /// is complete according to the data plane.
    Terminated,
    /// The packet was still in flight (queued, link down, tail-dropped) when
    /// observation stopped; the path is a prefix of a longer trace.
    Stalled,
}

/// A consumer of streaming trace events. Callbacks arrive in the engine's
/// dispatch order: `record` (with the causal parent already reported),
/// then any `edge`/`cause`/`leaf` refinements, then `retire` once a node
/// can have no further children; `finish` closes the stream.
pub trait TraceObserver {
    /// Node `idx` was recorded: `packet` observed at `loc`, extending the
    /// path of `parent` (or starting a fresh path when `None`).
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>);

    /// A controller-induced causal edge `from → to` (both already recorded).
    fn edge(&mut self, from: usize, to: usize);

    /// Node `idx` is the cause of controller notifications now in flight;
    /// later [`edge`](TraceObserver::edge) calls may use it as their source.
    fn cause(&mut self, idx: usize);

    /// Node `idx` ends its packet's path.
    fn leaf(&mut self, idx: usize, kind: LeafKind);

    /// Node `idx` will gain no more children; its state may be dropped.
    fn retire(&mut self, idx: usize);

    /// The run is over; no further callbacks will arrive.
    fn finish(&mut self);

    /// Folds this observer's metrics into `reg` — called by the engine
    /// while assembling the run's registry, after
    /// [`finish`](TraceObserver::finish). The default contributes
    /// nothing.
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        let _ = reg;
    }

    /// Hands the observer the engine's flight recorder so it can record
    /// its own transitions (an online checker logs event firings and the
    /// violation itself). The default discards it.
    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        let _ = recorder;
    }
}

/// A box forwards every callback, so two attached observers can pair.
impl<T: TraceObserver + ?Sized> TraceObserver for Box<T> {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        (**self).record(idx, packet, loc, parent);
    }

    fn edge(&mut self, from: usize, to: usize) {
        (**self).edge(from, to);
    }

    fn cause(&mut self, idx: usize) {
        (**self).cause(idx);
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        (**self).leaf(idx, kind);
    }

    fn retire(&mut self, idx: usize) {
        (**self).retire(idx);
    }

    fn finish(&mut self) {
        (**self).finish();
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        (**self).contribute_metrics(reg);
    }

    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        (**self).attach_flight_recorder(recorder);
    }
}

/// Two observers fed one stream: every callback goes to `A`, then to `B`,
/// with the same arguments. Both get the flight recorder (a clone shares
/// the one ring) and both contribute their metrics.
impl<A: TraceObserver, B: TraceObserver> TraceObserver for (A, B) {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        self.0.record(idx, packet, loc, parent);
        self.1.record(idx, packet, loc, parent);
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.0.edge(from, to);
        self.1.edge(from, to);
    }

    fn cause(&mut self, idx: usize) {
        self.0.cause(idx);
        self.1.cause(idx);
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        self.0.leaf(idx, kind);
        self.1.leaf(idx, kind);
    }

    fn retire(&mut self, idx: usize) {
        self.0.retire(idx);
        self.1.retire(idx);
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.0.contribute_metrics(reg);
        self.1.contribute_metrics(reg);
    }

    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        self.0.attach_flight_recorder(recorder.clone());
        self.1.attach_flight_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use edn_obs::{FlightEvent, FlightRecorder, Registry, Scope};

    /// Writes each callback into a shared log under its name; counts its
    /// own metric and logs a record into the flight recorder it was given.
    struct Log(&'static str, Rc<RefCell<Vec<String>>>, Option<FlightRecorder>);

    impl Log {
        fn note(&self, what: String) {
            self.1.borrow_mut().push(format!("{} {what}", self.0));
        }
    }

    impl TraceObserver for Log {
        fn record(&mut self, idx: usize, _: &Packet, loc: Loc, parent: Option<usize>) {
            self.note(format!("record {idx} {loc} {parent:?}"));
            if let Some(fr) = &self.2 {
                fr.record(FlightEvent {
                    t_us: 0,
                    seq: 0,
                    kind: self.0,
                    node: idx as u64,
                    depth: 0,
                });
            }
        }
        fn edge(&mut self, from: usize, to: usize) {
            self.note(format!("edge {from} {to}"));
        }
        fn cause(&mut self, idx: usize) {
            self.note(format!("cause {idx}"));
        }
        fn leaf(&mut self, idx: usize, kind: LeafKind) {
            self.note(format!("leaf {idx} {kind:?}"));
        }
        fn retire(&mut self, idx: usize) {
            self.note(format!("retire {idx}"));
        }
        fn finish(&mut self) {
            self.note("finish".to_string());
        }
        fn contribute_metrics(&self, reg: &mut Registry) {
            reg.counter_add(Scope::Sim, self.0, 1);
        }
        fn attach_flight_recorder(&mut self, recorder: FlightRecorder) {
            self.note("flight".to_string());
            self.2 = Some(recorder);
        }
    }

    #[test]
    fn a_pair_feeds_both_observers_every_callback_in_order() {
        let log = Rc::default();
        let boxed: Box<dyn TraceObserver> = Box::new(Log("b", Rc::clone(&log), None));
        let mut pair = (Log("a", Rc::clone(&log), None), boxed);
        let flight = FlightRecorder::new(8);
        pair.attach_flight_recorder(flight.clone());
        let pk = Packet::new();
        pair.record(0, &pk, Loc::new(100, 0), None);
        pair.record(1, &pk, Loc::new(1, 1), Some(0));
        pair.cause(1);
        pair.edge(0, 1);
        pair.leaf(1, LeafKind::Delivered);
        pair.retire(0);
        pair.finish();
        let mut reg = Registry::new();
        pair.contribute_metrics(&mut reg);
        let calls = [
            "flight",
            "record 0 100:0 None",
            "record 1 1:1 Some(0)",
            "cause 1",
            "edge 0 1",
            "leaf 1 Delivered",
            "retire 0",
            "finish",
        ];
        let want: Vec<String> =
            calls.iter().flat_map(|c| [format!("a {c}"), format!("b {c}")]).collect();
        assert_eq!(*log.borrow(), want);
        assert_eq!((reg.counter("a"), reg.counter("b")), (Some(1), Some(1)));
        let dump = flight.dump_json();
        assert!(dump.contains("\"a\"") && dump.contains("\"b\""), "both log: {dump}");
    }
}
