//! # edn-apps
//!
//! The event-driven network applications evaluated in Section 5 of
//! *Event-Driven Network Programming* (PLDI 2016):
//!
//! * [`firewall`] — the stateful firewall (Figs. 8(a)/9(a), Fig. 11);
//! * [`firewall2`] — a two-flow firewall: the Fig. 3(a) diamond with
//!   per-flow state slots and concurrent compatible events;
//! * [`learning`] — the learning switch (Figs. 8(b)/9(b), Fig. 12);
//! * [`authentication`] — port-knocking access control (Figs. 8(c)/9(c),
//!   Fig. 13);
//! * [`bandwidth_cap`] — the n-packet cap (Figs. 8(d)/9(d), Fig. 14);
//! * [`ids`] — the intrusion detection system (Figs. 8(e)/9(e), Fig. 15);
//! * [`ring`] — the synthetic scalability ring (Section 5.2, Fig. 16);
//! * [`conflict`] — the locality programs P1/P2 of Section 2 (Lemma 1's
//!   impossibility, demonstrated empirically);
//! * [`generated`] — the firewall and learning switch lifted to arbitrary
//!   `edn-topo` generated topologies (fat-trees, tori, random graphs), the
//!   scale-harness workloads.
//!
//! Each case-study module carries the Fig. 9 program in the concrete
//! Stateful NetKAT syntax, the Fig. 8 topology, and a `nes()` constructor
//! running the full pipeline (parse → project/extract → ETS → NES).
//!
//! ```
//! let nes = edn_apps::firewall::nes();
//! assert_eq!(nes.events().len(), 1);
//! assert!(nes.is_locally_determined());
//! ```

#![warn(missing_docs)]

pub mod authentication;
pub mod bandwidth_cap;
pub mod conflict;
pub mod firewall;
pub mod firewall2;
pub mod generated;
pub mod ids;
pub mod learning;
pub mod ring;
pub mod scenario;

pub use scenario::{host_env, sim_topology, H1, H2, H3, H4};
