//! End-to-end integration: every case study runs the full pipeline
//! (concrete syntax → Stateful NetKAT → ETS → NES → compiled runtime →
//! discrete-event simulation → Definition 6 checker) and the checker
//! catches the uncoordinated baseline misbehaving.

use edn_apps::{authentication, bandwidth_cap, firewall, ids, learning, sim_topology};
use edn_apps::{H1, H2, H3, H4};
use edn_core::{NetworkEventStructure, OnlineHandle};
use nes_runtime::{
    attach_online_checker, nes_engine, uncoordinated_engine, CompiledNes, NesDataPlane,
};
use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
use netsim::{Engine, SimParams, SimTime, SimTopology};

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

/// The paper's runtime for `nes` on `topo`, with the online Definition 6
/// checker attached before any traffic.
fn checked_engine(
    nes: NetworkEventStructure,
    topo: SimTopology,
    broadcast: bool,
) -> (Engine<NesDataPlane>, OnlineHandle) {
    let mut engine = nes_engine(
        nes.clone(),
        topo,
        SimParams::default(),
        broadcast,
        Box::new(ScenarioHosts::new()),
    );
    let handle = attach_online_checker(&mut engine, &nes).expect("the case study fits the checker");
    (engine, handle)
}

/// Every application's NES passes the paper's static sanity checks.
#[test]
fn all_apps_build_well_formed_local_neses() {
    let neses = [
        ("firewall", firewall::nes()),
        ("learning", learning::nes()),
        ("authentication", authentication::nes()),
        ("bandwidth-cap", bandwidth_cap::nes(10)),
        ("ids", ids::nes()),
    ];
    for (name, nes) in &neses {
        assert!(nes.is_locally_determined(), "{name} must be locally determined");
        assert!(nes.structure().verify_axioms(), "{name} satisfies the ES axioms");
        assert!(!nes.event_sets().is_empty(), "{name} has event-sets");
        let compiled = CompiledNes::compile(nes.clone());
        assert!(compiled.rule_breakdown().total() > 0, "{name} installs rules");
    }
}

/// The firewall: full correct run with interleaved bidirectional traffic.
#[test]
fn firewall_end_to_end_interleaved() {
    let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
    let (mut engine, checker) = checked_engine(firewall::nes(), topo, true); // with controller broadcast this time
    let mut pings = Vec::new();
    for i in 0..5 {
        pings.push(Ping { time: ms(50 * i + 7), src: H4, dst: H1, id: i });
    }
    pings.push(Ping { time: ms(400), src: H1, dst: H4, id: 100 });
    for i in 0..5 {
        pings.push(Ping { time: ms(500 + 50 * i), src: H4, dst: H1, id: 200 + i });
    }
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(3));
    let o = ping_outcomes(&pings, &result.stats);
    assert!(o[..5].iter().all(|p| !p.request_delivered), "pre-event probes blocked");
    assert!(o[5].replied.is_some(), "trigger answered");
    assert!(o[6..].iter().all(|p| p.replied.is_some()), "post-event probes answered");
    checker.verdict().expect("firewall interleaved run is consistent");
}

/// The checker (not just ping accounting) flags the uncoordinated firewall.
#[test]
fn checker_flags_uncoordinated_firewall() {
    let nes = firewall::nes();
    let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
    let mut engine = uncoordinated_engine(
        nes.clone(),
        topo,
        SimParams::default(),
        ms(800),
        99,
        Box::new(ScenarioHosts::new()),
    );
    let checker = attach_online_checker(&mut engine, &nes).expect("the firewall fits the checker");
    // The trigger plus an immediate reverse probe: the probe dies against
    // the stale configuration at a switch that has seen the event.
    let pings = vec![
        Ping { time: ms(10), src: H1, dst: H4, id: 1 },
        Ping { time: ms(30), src: H4, dst: H1, id: 2 },
    ];
    schedule_pings(&mut engine, &pings);
    engine.run_until(SimTime::from_secs(3));
    let verdict = checker.verdict();
    assert!(verdict.is_err(), "Definition 6 violation expected, got {verdict:?}");
}

/// Authentication with controller broadcast enabled stays correct.
#[test]
fn authentication_with_broadcast() {
    let topo = sim_topology(&authentication::spec(), SimTime::from_micros(50), None);
    let (mut engine, checker) = checked_engine(authentication::nes(), topo, true);
    let pings = vec![
        Ping { time: ms(10), src: H4, dst: H1, id: 1 },
        Ping { time: ms(200), src: H4, dst: H2, id: 2 },
        Ping { time: ms(400), src: H4, dst: H3, id: 3 },
    ];
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(3));
    let o = ping_outcomes(&pings, &result.stats);
    assert!(o.iter().all(|p| p.replied.is_some()), "whole knock sequence succeeds");
    checker.verdict().expect("broadcast-assisted run is consistent");
    // Both events fired in causal order.
    let fired = result.dataplane.fired_sequence();
    assert_eq!(fired.len(), 2);
    assert!(fired[0] < fired[1]);
}

/// Bandwidth cap at several cap values: exact enforcement each time.
#[test]
fn bandwidth_cap_exact_at_various_caps() {
    for n in [1u64, 3, 7] {
        let topo = sim_topology(&bandwidth_cap::spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(bandwidth_cap::nes(n), topo, false);
        let pings: Vec<Ping> =
            (0..n + 5).map(|i| Ping { time: ms(100 * i + 10), src: H1, dst: H4, id: i }).collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(10));
        let ok = ping_outcomes(&pings, &result.stats).iter().filter(|o| o.replied.is_some()).count()
            as u64;
        assert_eq!(ok, n, "cap {n} enforced exactly");
        checker.verdict().unwrap_or_else(|v| panic!("cap {n} run consistent: {v}"));
    }
}

/// The learning switch and IDS both verify end to end under adversarial
/// (tight) timing: probes immediately after triggers.
#[test]
fn tight_timing_stays_consistent() {
    // Learning switch: stream of back-to-back packets around the event.
    let topo = sim_topology(&learning::spec(), SimTime::from_micros(50), None);
    let (mut engine, checker) = checked_engine(learning::nes(), topo, false);
    let pings: Vec<Ping> = (0..20)
        .map(|i| Ping { time: SimTime::from_micros(200 * i + 500), src: H4, dst: H1, id: i })
        .collect();
    schedule_pings(&mut engine, &pings);
    engine.run_until(SimTime::from_secs(2));
    checker.verdict().expect("learning switch under tight timing");

    // IDS: scan completes within a millisecond.
    let topo = sim_topology(&ids::spec(), SimTime::from_micros(50), None);
    let (mut engine, checker) = checked_engine(ids::nes(), topo, false);
    let pings = vec![
        Ping { time: SimTime::from_micros(100), src: H4, dst: H1, id: 1 },
        Ping { time: SimTime::from_micros(400), src: H4, dst: H2, id: 2 },
        Ping { time: SimTime::from_micros(700), src: H4, dst: H3, id: 3 },
    ];
    schedule_pings(&mut engine, &pings);
    engine.run_until(SimTime::from_secs(2));
    checker.verdict().expect("IDS under tight timing");
}
