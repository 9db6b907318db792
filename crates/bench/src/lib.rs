//! # edn-bench
//!
//! Shared harness code for regenerating every table and figure of the
//! paper's Section 5. The `src/bin/fig*.rs` binaries print the data series;
//! performance is measured by the separate `benchmark/` harness.

#![warn(missing_docs)]

use edn_core::NetworkEventStructure;
use nes_runtime::{nes_engine, uncoordinated_engine, NesDataPlane, UncoordDataPlane};
use netsim::traffic::{ping_outcomes, schedule_pings, Ping, PingOutcome, ScenarioHosts};
use netsim::{RunResult, SimParams, SimTime};
use stateful_netkat::NetworkSpec;

/// One row of a Fig. 11–15 timeline: a ping and whether it was answered.
#[derive(Clone, Copy, Debug)]
pub struct TimelineRow {
    /// The probe.
    pub ping: Ping,
    /// Answered?
    pub ok: bool,
}

/// Runs a ping timeline on the event-driven consistent runtime.
pub fn run_correct(
    nes: NetworkEventStructure,
    spec: &NetworkSpec,
    pings: &[Ping],
    horizon: SimTime,
) -> (Vec<TimelineRow>, RunResult<NesDataPlane>) {
    let topo = edn_apps::sim_topology(spec, SimTime::from_micros(50), None);
    let mut engine =
        nes_engine(nes, topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
    schedule_pings(&mut engine, pings);
    let result = engine.run_until(horizon);
    (rows(pings, &ping_outcomes(pings, &result.stats)), result)
}

/// Runs a ping timeline on the uncoordinated baseline with the given
/// controller delay and seed.
pub fn run_uncoordinated(
    nes: NetworkEventStructure,
    spec: &NetworkSpec,
    pings: &[Ping],
    delay: SimTime,
    seed: u64,
    horizon: SimTime,
) -> (Vec<TimelineRow>, RunResult<UncoordDataPlane>) {
    let topo = edn_apps::sim_topology(spec, SimTime::from_micros(50), None);
    let mut engine = uncoordinated_engine(
        nes,
        topo,
        SimParams::default(),
        delay,
        seed,
        Box::new(ScenarioHosts::new()),
    );
    schedule_pings(&mut engine, pings);
    let result = engine.run_until(horizon);
    (rows(pings, &ping_outcomes(pings, &result.stats)), result)
}

fn rows(pings: &[Ping], outcomes: &[PingOutcome]) -> Vec<TimelineRow> {
    pings
        .iter()
        .zip(outcomes)
        .map(|(&ping, o)| TimelineRow { ping, ok: o.replied.is_some() })
        .collect()
}

/// Pretty-prints a timeline with host names resolved via `name`.
pub fn print_timeline(label: &str, rows: &[TimelineRow], name: impl Fn(u64) -> String) {
    println!("{label}");
    println!("  {:>10}  {:<8}  result", "time", "probe");
    for r in rows {
        println!(
            "  {:>10}  {:<8}  {}",
            r.ping.time.to_string(),
            format!("{}->{}", name(r.ping.src), name(r.ping.dst)),
            if r.ok { "reply" } else { "LOST" }
        );
    }
}

/// Reads an integer parameter from the environment, falling back to
/// `default` — the mechanism the `fig*` binaries use for reduced CI smoke
/// sweeps.
///
/// # Panics
///
/// Panics if the variable is set but not an integer.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}")),
        Err(_) => default,
    }
}

/// Resolves the standard `H1..H4` host ids to names.
pub fn host_name(h: u64) -> String {
    match h {
        101 => "H1".to_string(),
        102 => "H2".to_string(),
        103 => "H3".to_string(),
        104 => "H4".to_string(),
        other => format!("h{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_apps::{firewall, H1, H4};

    #[test]
    fn harness_runs_both_strategies() {
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: H1, dst: H4, id: 1 },
            Ping { time: SimTime::from_millis(50), src: H4, dst: H1, id: 2 },
        ];
        let (rows, _) =
            run_correct(firewall::nes(), &firewall::spec(), &pings, SimTime::from_secs(2));
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ok && rows[1].ok, "correct runtime answers both");
        let (rows, _) = run_uncoordinated(
            firewall::nes(),
            &firewall::spec(),
            &pings,
            SimTime::from_millis(500),
            1,
            SimTime::from_secs(2),
        );
        assert!(!rows[0].ok, "even the trigger's own reply races the stale config");
        assert!(!rows[1].ok, "reverse probe races the stale config");
    }

    #[test]
    fn names() {
        assert_eq!(host_name(101), "H1");
        assert_eq!(host_name(999), "h999");
    }
}
