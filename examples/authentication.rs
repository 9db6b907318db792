//! Port-knocking authentication (the paper's Figs. 8(c)/9(c)/13).
//!
//! H4 gains access to H3 only after contacting H1 and then H2, in that
//! order. The example walks the knock sequence, showing each probe's fate
//! and the switch-state evolution, and checks the run.
//!
//! Run with: `cargo run -p edn-apps --example authentication`

use edn_apps::{authentication, sim_topology, H1, H2, H3, H4};
use nes_runtime::{attach_online_checker, nes_engine};
use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
use netsim::{SimParams, SimTime};

fn main() {
    let nes = authentication::nes();
    println!(
        "authentication NES: {} events, {} event-sets",
        nes.events().len(),
        nes.event_sets().len()
    );
    for e in nes.events() {
        println!("  {e}");
    }
    println!();

    let topo = sim_topology(&authentication::spec(), SimTime::from_micros(50), None);
    let mut engine =
        nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
    let checker = attach_online_checker(&mut engine, &nes).expect("the NES fits the checker");

    let s = SimTime::from_millis;
    let pings = vec![
        Ping { time: s(100), src: H4, dst: H3, id: 0 }, // blocked
        Ping { time: s(600), src: H4, dst: H2, id: 1 }, // blocked (wrong order)
        Ping { time: s(1100), src: H4, dst: H1, id: 2 }, // knock 1
        Ping { time: s(1600), src: H4, dst: H3, id: 3 }, // still blocked
        Ping { time: s(2100), src: H4, dst: H2, id: 4 }, // knock 2
        Ping { time: s(2600), src: H4, dst: H3, id: 5 }, // unlocked
    ];
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(5));

    let names = ["H1", "H2", "H3", "H4"];
    let name = |h: u64| names[(h - 101) as usize];
    for o in ping_outcomes(&pings, &result.stats) {
        println!(
            "{:>6}  H4 -> {}: {}",
            o.ping.time.to_string(),
            name(o.ping.dst),
            if o.replied.is_some() { "reply" } else { "blocked" }
        );
    }

    println!("\nevents fired, in order:");
    for (t, e) in result.dataplane.fired_log() {
        println!("  {t}  {e}");
    }

    match checker.verdict() {
        Ok(()) => println!("\ntrace is event-driven consistent (Definition 6)"),
        Err(v) => println!("\nCONSISTENCY VIOLATION: {v}"),
    }
}
