//! Streaming observation of a network trace as it is produced.
//!
//! A [`TraceObserver`] receives every per-packet processing step of a run
//! *incrementally*, while the run is still executing; the engine reports
//! each step once, to its one observer slot. The online checker judges the
//! run this way, and a [`TraceBuilder`](crate::TraceBuilder) is an observer
//! too: under [`TraceMode::Full`](crate::TraceMode) the engine attaches one
//! in front of any other, and the Section 2 trace it builds is the stream
//! the checker saw. The engine additionally tells the observer when a node
//! can no longer gain children ([`TraceObserver::retire`]), which is what
//! lets an online checker discharge its happens-before obligations and drop
//! state for trace prefixes in bounded memory.
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
