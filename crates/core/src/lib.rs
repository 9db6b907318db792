//! # Event-driven consistent updates
//!
//! The semantic core of *Event-Driven Network Programming* (McClurg, Hojjat,
//! Foster, Černý — PLDI 2016): network traces and the happens-before
//! relation (Definition 1), event-driven consistent updates (Definition 2),
//! event structures (Definitions 3–4), network event structures
//! (Definition 5), correct network traces (Definition 6), event-driven
//! transition systems (Definition 7) with their conversion to NESs
//! (Section 3.1), and the locality restrictions of Section 2.
//!
//! The crate is a *checker* as much as a model: given any recorded network
//! trace — e.g. from the `netsim` simulator driven by the `nes-runtime`
//! implementation strategy — [`check_correct`] decides whether the run obeys
//! the paper's consistency condition, with precise diagnostics when not.
//!
//! ```
//! use edn_core::{Config, Event, EventId, EventSet, EventStructure,
//!                NetworkEventStructure, TraceBuilder, check_correct};
//! use netkat::{Loc, Packet, Pred};
//!
//! // A one-event NES whose configurations are both empty: every quiet
//! // trace is trivially correct.
//! let e0 = EventId::new(0);
//! let es = EventStructure::new(
//!     vec![Event::new(e0, Pred::True, Loc::new(4, 1))],
//!     [EventSet::singleton(e0)],
//! );
//! let nes = NetworkEventStructure::new(es, [
//!     (EventSet::empty(), Config::new()),
//!     (EventSet::singleton(e0), Config::new()),
//! ])?;
//! let ntr = TraceBuilder::new().build()?;
//! assert!(check_correct(&ntr, &nes, None).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod config;
mod correctness;
mod estructure;
mod ets;
mod event;
mod happens;
mod locality;
mod nes;
mod observe;
mod online;
mod shared;
mod trace;
mod update;

pub use config::Config;
pub use correctness::{
    check_correct, sequence_allowed, sequence_to_update, CausalOccurrences, CorrectnessViolation,
};
pub use estructure::EventStructure;
pub use ets::{Ets, EtsError};
pub use event::{Event, EventId, EventSet};
pub use happens::HappensBefore;
pub use locality::{locally_determined, minimally_inconsistent};
pub use nes::{NesError, NetworkEventStructure};
pub use observe::{LeafKind, TraceObserver};
pub use online::{CheckerTelemetry, OnlineChecker, OnlineHandle, OnlineViolation};
pub use trace::{LocatedPacket, NetworkTrace, TraceBuilder, TraceMode, TraceStructureError};
pub use update::{
    check_update, first_occurrences, LiteralOccurrences, OccurrenceSemantics, UpdateSequence,
    UpdateViolation,
};
