//! # netsim — a deterministic discrete-event network simulator
//!
//! The execution substrate for the event-driven network programming stack:
//! switches with per-packet processing delay, links with latency, capacity,
//! and tail-drop queues, hosts with reactive behaviour (ping replies,
//! ack-clocked flows), and a controller message channel.
//!
//! This replaces the paper's Mininet + modified OpenFlow testbed. All
//! behaviour is injected through the [`DataPlane`] trait (implemented by the
//! `nes-runtime` crate both for the paper's tag-and-digest runtime and for
//! the uncoordinated baseline). The [`Engine`] runs one step at a time —
//! admit the source's due events, pop the earliest event, dispatch it — and
//! reports every packet processing step once, to its one [`TraceObserver`]
//! slot: the online Definition 6 checker judges a run that way, and under
//! [`TraceMode::Full`] an `edn-core` trace builder is one more observer in
//! that slot, recording the network trace for tests that diff or check one.
//!
//! ```
//! use netsim::{DataPlane, Engine, PacketArena, PacketId, PlaneOut, SimParams, SimTime,
//!              SimTopology, SinkHosts};
//! use netkat::{Loc, Packet};
//!
//! // A one-switch data plane that forwards port 2 <-> port 3: every entry
//! // point reports through the one `PlaneOut` the engine hands in. With no
//! // controller messages (`Msg = ()`) it keeps the default `on_notify`/`deliver`.
//! struct Wire;
//! impl DataPlane for Wire {
//!     type Msg = ();
//!     fn step(&mut self, _sw: u64, pt: u64, pk: PacketId, _from_host: bool, _now: SimTime,
//!             _arena: &mut PacketArena, out: &mut PlaneOut<()>) {
//!         out.outputs.push((if pt == 2 { 3 } else { 2 }, pk));
//!     }
//! }
//!
//! let topo = SimTopology::new([1])
//!     .host(100, Loc::new(1, 2))
//!     .host(200, Loc::new(1, 3));
//! let mut engine = Engine::new(topo, SimParams::default(), Wire, Box::new(SinkHosts));
//! engine.inject_at(SimTime::ZERO, 100, Packet::new());
//! let result = engine.run_until(SimTime::from_secs(1));
//! assert_eq!(result.stats.deliveries.len(), 1);
//! assert_eq!(result.stats.deliveries[0].host, 200);
//! ```

#![warn(missing_docs)]

mod channel;
mod engine;
mod logic;
mod metrics;
mod queue;
mod recorder;
pub mod source;
mod stats;
mod time;
mod topology;
pub mod traffic;

pub use channel::{ChannelDir, ChannelFate, ChannelModel, DirModel};
pub use edn_core::{LeafKind, TraceMode, TraceObserver};
pub use edn_obs::{FlightRecorder, MetricsLevel, Registry};
#[doc(hidden)]
pub use engine::shard_count_from_env;
pub use engine::{Engine, RunResult, DEFAULT_PACKET_SIZE};
pub use logic::{BoxedHosts, CtrlMsg, DataPlane, HostLogic, PlaneOut, SinkHosts, CONTROLLER_NODE};
pub use netkat::{PacketArena, PacketId};
pub use source::{SourceEvent, WorkloadSource};
pub use stats::{Delivery, DropReason, Stats, StatsMode};
pub use time::SimTime;
pub use topology::{LinkSpec, SimParams, SimTopology, SwitchGraph};
