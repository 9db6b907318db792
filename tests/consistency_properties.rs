//! Property-based integration tests: the paper's Theorem 1 says *every*
//! execution of the NES runtime yields a correct trace. We fuzz timings,
//! traffic mixes, seeds, and topologies and demand that neither checker
//! complains: each run records its trace with the online checker
//! attached, and the online verdict must match the executable spec,
//! `check_correct` over the trace hinted with the runtime's fire log.

use edn_apps::ring::Ring;
use edn_apps::{authentication, bandwidth_cap, firewall, ids, learning, sim_topology};
use edn_apps::{H1, H2, H3, H4};
use edn_core::{check_correct, NetworkEventStructure, OnlineHandle, TraceBuilder, TraceHandle};
use nes_runtime::{attach_online_checker, nes_engine, NesDataPlane};
use netsim::traffic::{schedule_pings, Ping, ScenarioHosts};
use netsim::{Engine, RunResult, SimParams, SimTime, SimTopology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Attaches a trace recorder; the handle yields the trace after the run.
fn attach_trace(engine: &mut Engine<NesDataPlane>) -> TraceHandle {
    let (observer, trace) = TraceBuilder::observer();
    engine.set_observer(observer);
    trace
}

/// The runtime on `topo`, recording its trace, with the online checker
/// attached before any traffic is scheduled.
fn checked_engine(
    nes: NetworkEventStructure,
    topo: SimTopology,
    broadcast: bool,
) -> (Engine<NesDataPlane>, (OnlineHandle, TraceHandle)) {
    let mut engine = nes_engine(
        nes.clone(),
        topo,
        SimParams::default(),
        broadcast,
        Box::new(ScenarioHosts::new()),
    );
    let trace = attach_trace(&mut engine);
    let handle = attach_online_checker(&mut engine, &nes).expect("the NES fits the online checker");
    (engine, (handle, trace))
}

/// Theorem 1, judged by both checkers: the online verdict equals the
/// post-hoc one at the accept/reject level, and both accept.
fn both_checkers_accept(
    result: &RunResult<NesDataPlane>,
    (handle, trace): (OnlineHandle, TraceHandle),
) -> Result<(), TestCaseError> {
    let trace = trace.take();
    prop_assert!(!trace.is_empty(), "the recorder records the run");
    let fired = result.dataplane.fired_sequence();
    let post_hoc = check_correct(&trace, result.dataplane.compiled().nes(), Some(&fired));
    let online = handle.verdict();
    prop_assert_eq!(
        online.is_ok(),
        post_hoc.is_ok(),
        "online {:?}, post-hoc {:?}",
        online,
        post_hoc
    );
    prop_assert!(online.is_ok(), "Theorem 1: online {:?}, post-hoc {:?}", online, post_hoc);
    Ok(())
}

/// A random ping among the given hosts (each application's topology only
/// attaches a subset of H1..H4).
fn arb_ping(max_ms: u64, hosts: &'static [u64]) -> impl Strategy<Value = Ping> {
    (0..max_ms, 0..hosts.len(), 0..hosts.len()).prop_filter_map(
        "src and dst must differ",
        |(t, si, di)| {
            let (src, dst) = (hosts[si], hosts[di]);
            (src != dst).then_some(Ping { time: SimTime::from_millis(t), src, dst, id: t })
        },
    )
}

fn dedup_ids(mut pings: Vec<Ping>) -> Vec<Ping> {
    for (i, p) in pings.iter_mut().enumerate() {
        p.id = i as u64;
    }
    pings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 for the firewall: arbitrary traffic, arbitrary broadcast
    /// setting, always consistent.
    #[test]
    fn firewall_always_consistent(
        pings in proptest::collection::vec(arb_ping(2_000, &[H1, H4]), 1..14),
        broadcast in any::<bool>(),
    ) {
        let pings = dedup_ids(pings);
        let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
        let (mut engine, handles) = checked_engine(firewall::nes(), topo, broadcast);
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        both_checkers_accept(&result, handles)?;
    }

    /// Theorem 1 for the authentication chain (two causally ordered
    /// events).
    #[test]
    fn authentication_always_consistent(
        pings in proptest::collection::vec(arb_ping(2_000, &[H1, H2, H3, H4]), 1..12),
    ) {
        let pings = dedup_ids(pings);
        let topo = sim_topology(&authentication::spec(), SimTime::from_micros(50), None);
        let (mut engine, handles) = checked_engine(authentication::nes(), topo, false);
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        both_checkers_accept(&result, handles)?;
    }

    /// Theorem 1 for the IDS.
    #[test]
    fn ids_always_consistent(
        pings in proptest::collection::vec(arb_ping(1_500, &[H1, H2, H3, H4]), 1..12),
    ) {
        let pings = dedup_ids(pings);
        let topo = sim_topology(&ids::spec(), SimTime::from_micros(50), None);
        let (mut engine, handles) = checked_engine(ids::nes(), topo, false);
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        both_checkers_accept(&result, handles)?;
    }

    /// Theorem 1 for the learning switch under bursty traffic.
    #[test]
    fn learning_switch_always_consistent(
        pings in proptest::collection::vec(arb_ping(500, &[H1, H2, H4]), 1..16),
    ) {
        let pings = dedup_ids(pings);
        let topo = sim_topology(&learning::spec(), SimTime::from_micros(50), None);
        let (mut engine, handles) = checked_engine(learning::nes(), topo, false);
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        both_checkers_accept(&result, handles)?;
    }

    /// Theorem 1 for the renamed-event chain (bandwidth cap) at random
    /// small caps.
    #[test]
    fn bandwidth_cap_always_consistent(
        cap in 1u64..5,
        pings in proptest::collection::vec(arb_ping(1_000, &[H1, H4]), 1..10),
    ) {
        let pings = dedup_ids(pings);
        let topo = sim_topology(&bandwidth_cap::spec(), SimTime::from_micros(50), None);
        let (mut engine, handles) = checked_engine(bandwidth_cap::nes(cap), topo, false);
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        both_checkers_accept(&result, handles)?;
    }

    /// Theorem 1 on the ring with a mid-stream direction flip and random
    /// host-to-host traffic.
    #[test]
    fn ring_reroute_always_consistent(
        diameter in 1u64..4,
        trigger_ms in 1u64..1_000,
        raw in proptest::collection::vec((0u64..2_000, 1u64..8, 1u64..8), 0..10),
    ) {
        let ring = Ring::new(diameter);
        let n = ring.switch_count();
        let pings: Vec<Ping> = raw
            .into_iter()
            .enumerate()
            .filter_map(|(i, (t, a, b))| {
                let (src, dst) = (a % n + 1, b % n + 1);
                (src != dst).then_some(Ping {
                    time: SimTime::from_millis(t),
                    src: edn_apps::ring::host(src),
                    dst: edn_apps::ring::host(dst),
                    id: i as u64,
                })
            })
            .collect();
        let topo = ring.sim_topology(SimTime::from_micros(100), None);
        let (mut engine, handles) = checked_engine(ring.nes(), topo, false);
        schedule_pings(&mut engine, &pings);
        engine.inject_at(SimTime::from_millis(trigger_ms), ring.h1(), ring.trigger_packet());
        let result = engine.run_until(SimTime::from_secs(5));
        both_checkers_accept(&result, handles)?;
    }
}

/// Determinism: two identical runs give identical traces and statistics.
#[test]
fn identical_seeds_replay_identically() {
    let run = || {
        let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
        let mut engine = nes_engine(
            firewall::nes(),
            topo,
            SimParams::default(),
            true,
            Box::new(ScenarioHosts::new()),
        );
        let trace = attach_trace(&mut engine);
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: H1, dst: H4, id: 1 },
            Ping { time: SimTime::from_millis(2), src: H4, dst: H1, id: 2 },
        ];
        schedule_pings(&mut engine, &pings);
        let r = engine.run_until(SimTime::from_secs(1));
        (trace.take(), r.stats)
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert!(!t1.is_empty(), "the reference run records a trace");
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
}
