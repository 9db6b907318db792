//! # edn-scenario — declarative, seeded churn scenarios
//!
//! The paper's case studies fire one event-driven update on a quiet
//! network. This crate scripts the messy version: timelines of link
//! failures *and recoveries*, switch crash-and-recover, controller latency
//! spikes, host mobility, and campaigns of successive updates — all against
//! live streamed traffic, all seeded-deterministic.
//!
//! Scenarios are **data**: a TOML-subset text form ([`parse`] /
//! [`ScenarioSpec::to_toml`], hand-rolled — no registry dependencies)
//! compiled by [`CompiledScenario::compile`] into a run topology (with
//! mobile twins for moved hosts), a chain-NES update campaign, engine
//! action timelines, and background traffic. [`run_coordinated`] /
//! [`run_uncoordinated`] replay a compiled scenario through the paper's
//! runtime and the Section 5.1 baseline; [`differential`] pairs them with
//! the online Definition 6 checker as a differential oracle — the
//! generalized Fig. 10 experiment. [`ScenarioGen`] samples random
//! compilable scenarios for fuzzing, pinned by seed. [`RunEnv`] parses the
//! five `EDN_*` variables for the binaries that honour them; no library
//! function reads the environment.
//!
//! ```
//! use edn_scenario::{differential, parse};
//!
//! let spec = parse(
//!     "[scenario]\n\
//!      topology = \"ring\"\n\
//!      size = 4\n\
//!      seed = 3\n\
//!      [workload]\n\
//!      flows = 4\n\
//!      [campaign]\n\
//!      updates = 1\n\
//!      [[action]]\n\
//!      kind = \"fail_link\"\n\
//!      at_ms = 120\n\
//!      a = 2\n\
//!      b = 3\n\
//!      [[action]]\n\
//!      kind = \"restore_link\"\n\
//!      at_ms = 160\n\
//!      a = 2\n\
//!      b = 3\n",
//! )
//! .unwrap();
//! let outcome = differential(&spec).unwrap();
//! assert_eq!(outcome.coordinated, Ok(()), "Theorem 1 survives churn");
//! ```

#![warn(missing_docs)]

mod compile;
mod env;
mod gen;
mod run;
mod spec;

pub use compile::{
    probe_delay, CompiledScenario, EngineAction, PlannedStep, StepTarget, PROBE_FLOW_BASE,
};
pub use env::RunEnv;
pub use gen::ScenarioGen;
pub use run::{
    differential, effective_channel, run_coordinated, run_uncoordinated, stats_csv_header,
    stats_csv_row, DifferentialOutcome, RunOptions, ScenarioOutcome,
};
pub use spec::{
    parse, validate, ActionKind, ActionSpec, CampaignSpec, ChannelSpec, ModelSpec, ScenarioError,
    ScenarioSpec, TopologySpec, WorkloadSpec,
};
