//! # NetKAT
//!
//! A self-contained implementation of the NetKAT network programming
//! language: packets, predicates, policies, a reference denotational
//! semantics, a forwarding-decision-diagram (FDD) compiler in the style of
//! Smolka et al. (ICFP 2015), and a path-based global compiler that splits
//! link-programs into per-switch prioritized flow tables.
//!
//! This crate is the static-configuration substrate for the event-driven
//! network programming stack built on top of it (see the `edn-core`,
//! `stateful-netkat`, and `nes-runtime` crates): every node of an
//! event-driven transition system is a NetKAT program compiled here.
//!
//! ## Quick example
//!
//! ```
//! use netkat::{compile_global, Field, Loc, Policy, Pred};
//!
//! // Forward packets for host 4 from switch 1 port 2 across the 1:1 -> 4:1
//! // link and deliver them out port 2 of switch 4.
//! let program = Policy::filter(Pred::port(2).and(Pred::test(Field::IpDst, 4)))
//!     .seq(Policy::modify(Field::Port, 1))
//!     .seq(Policy::link(Loc::new(1, 1), Loc::new(4, 1)))
//!     .seq(Policy::modify(Field::Port, 2));
//!
//! let tables = compile_global(&program, &[1, 4])?;
//! assert_eq!(tables.tables.len(), 2);
//! # Ok::<(), netkat::NetkatError>(())
//! ```

#![warn(missing_docs)]

mod action;
mod arena;
mod error;
mod fdd;
mod field;
mod flowindex;
mod flowtable;
mod global;
mod hash;
mod local;
mod packet;
mod policy;
mod pred;
mod semantics;

pub use action::{Action, ActionSet};
pub use arena::{ArenaStats, PacketArena, PacketId};
pub use error::NetkatError;
pub use fdd::{FddBuilder, FddPath, NodeId};
pub use field::{Field, Value};
pub use flowindex::ChainTables;
pub use flowtable::{FlowTable, Match, Rule};
pub use global::{compile_global, path_clauses, Hop, PathClause, SwitchTables, TestConj};
pub use hash::{FxBuildHasher, FxHasher};
pub use local::{compile_fdd, compile_local};
pub use packet::{FieldReader, Loc, LocatedView, Packet, TaggedView};
pub use policy::Policy;
pub use pred::Pred;
pub use semantics::{equivalent_on, eval, eval_set};
