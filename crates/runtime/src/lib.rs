//! # nes-runtime
//!
//! The implementation strategy of Section 4 of *Event-Driven Network
//! Programming* (PLDI 2016), deployed on the `netsim` simulator:
//!
//! * [`CompiledNes`] assigns an integer tag to every event-set of a network
//!   event structure and installs each configuration's rules proactively,
//!   guarded by the tag;
//! * [`NesDataPlane`] implements the operational semantics of Fig. 7 —
//!   ingress stamping, digest learning, event triggering, per-tag
//!   forwarding, and the optional controller broadcast;
//! * [`UncoordDataPlane`] is the uncoordinated baseline of Section 5.1 —
//!   events punted to a slow controller that pushes configurations in
//!   random order;
//! * [`attach_online_checker`] attaches the incremental Definition 6 checker
//!   to an engine before the run, and its handle gives the verdict after it
//!   (the paper's Theorem 1 says the runtime's is always `Ok`; the
//!   baseline's demonstrably is not). The run records no trace for it, so
//!   executions of any length get a verdict in memory bounded by the
//!   packets in flight;
//! * [`campaign_nes`] chains many successive updates into one NES — the
//!   rolling update campaigns the scenario layer scripts.

#![warn(missing_docs)]

mod campaign;
mod compile;
mod dataplane;
mod deploy;
#[cfg(test)]
mod hop_props;
mod reliable;
mod static_plane;
mod uncoordinated;
mod verify;

pub use campaign::{
    campaign_mark, campaign_nes, campaign_pred, campaign_trigger, CampaignStep, CAMPAIGN_MARK_BASE,
};
pub use compile::{CompiledNes, RuleBreakdown};
pub use dataplane::NesDataPlane;
pub use reliable::{Envelope, Reliable};
pub use static_plane::StaticDataPlane;
pub use uncoordinated::{UncoordDataPlane, UncoordMsg};
pub use verify::{
    attach_online_checker, nes_engine, nes_reliable_engine_with, uncoordinated_engine,
};
