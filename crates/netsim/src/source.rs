//! Generator-backed injection: lazy, pull-on-demand workload sources.
//!
//! [`Engine::inject_batch`](crate::Engine::inject_batch) materializes every
//! datagram of a workload into the event queue up front, so the queue alone
//! costs memory proportional to the offered load. A [`WorkloadSource`] is
//! the streaming alternative: at every step the engine compares the
//! source's next datagram with the queue's minimum and dispatches that
//! datagram straight from the source when it sorts first, so no streamed
//! datagram sits in the queue and a 10M-event run costs the same queue
//! memory as a 10-event run.
//!
//! # Byte-identical to the batch path
//!
//! A streamed run is pinned **byte-identical** to the equivalent
//! [`inject_batch`](crate::Engine::inject_batch) run (the streaming
//! differential suite enforces this). The engine orders events by
//! `(time, sequence)` where initial injections draw their sequence from the
//! pre-run *environment* entity; the batch path numbers them in batch
//! (flow-major) order. A source therefore reports each event's
//! [`SourceEvent::seq`] — its offset in that same batch order — even though
//! it *yields* events in time order, and the engine packs
//! `base + seq` into the exact key the batch path would have used. The
//! engine takes the source's head ahead of the queue's minimum exactly when
//! that full key sorts first, so the dispatch order is the batch path's,
//! microsecond ties included.
//!
//! # No allocation per event
//!
//! A source does not hand over an owned packet: [`WorkloadSource::next_event`]
//! writes the datagram into a buffer the engine keeps for the whole run, and
//! the engine copies it over a recycled arena slot's packet. A streamed
//! datagram therefore costs no allocation once the arena has reached its
//! in-flight high-water mark.

use netkat::Packet;

use crate::time::SimTime;

/// One lazily-generated host injection; its packet is written into the
/// buffer passed to [`WorkloadSource::next_event`].
#[derive(Clone, Copy, Debug)]
pub struct SourceEvent {
    /// When the host offers the packet.
    pub time: SimTime,
    /// The event's offset in the *batch-equivalent* injection order (see
    /// the module docs): the position this injection would have had in the
    /// corresponding [`inject_batch`](crate::Engine::inject_batch) call.
    /// Must be unique and `< total_events()`.
    pub seq: u64,
    /// The injecting host.
    pub host: u64,
    /// Payload size in bytes.
    pub size: u32,
}

/// A lazy stream of timed host injections, pulled by the engine as
/// simulation time advances.
///
/// Implementations must yield events in nondecreasing [`SourceEvent::time`]
/// order, with [`peek`](WorkloadSource::peek) reporting the next event's
/// time and sequence without consuming it. [`total_events`](WorkloadSource::total_events)
/// must be exact: the engine reserves that many environment sequence
/// numbers up front so injections scheduled *after*
/// [`Engine::set_source`](crate::Engine::set_source) (e.g. trigger packets
/// via [`inject_at`](crate::Engine::inject_at)) sort after the whole
/// stream, exactly as they would after a batch call.
pub trait WorkloadSource {
    /// Exact number of events this source will yield in total.
    fn total_events(&self) -> u64;

    /// The `(time, seq)` the next [`next_event`](WorkloadSource::next_event)
    /// call will report, without consuming it: `None` exactly when the
    /// source is exhausted. The engine orders the source's head against the
    /// queue by this pair, so it must match the next event's
    /// [`SourceEvent::time`] and [`SourceEvent::seq`] exactly.
    fn peek(&self) -> Option<(SimTime, u64)>;

    /// Yields the next event (in nondecreasing time order) and writes its
    /// packet into `packet`, replacing every field the buffer held before.
    /// The engine passes the same buffer on every call, so a source that
    /// sets fields in place allocates nothing per event. On `None` the
    /// buffer's contents are unspecified.
    fn next_event(&mut self, packet: &mut Packet) -> Option<SourceEvent>;
}
