//! Quickstart: compile a Stateful NetKAT program, deploy it on the
//! simulator with the event-driven consistent runtime, send traffic, and
//! machine-check the run against the paper's Definition 6.
//!
//! Run with: `cargo run -p edn-apps --example quickstart`

use edn_apps::{firewall, sim_topology, H1, H4};
use nes_runtime::{attach_online_checker, nes_engine, CompiledNes};
use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
use netsim::{SimParams, SimTime};

fn main() {
    // 1. The stateful firewall of the paper's Fig. 9(a), in concrete syntax.
    println!("program:\n  {}\n", firewall::SOURCE);

    // 2. Parse → project per state → extract events → ETS → NES.
    let nes = firewall::nes();
    println!("events: {}", nes.events().len());
    for e in nes.events() {
        println!("  {e}");
    }
    println!("event-sets (= configurations): {}", nes.event_sets().len());
    println!("locally determined: {}", nes.is_locally_determined());
    let compiled = CompiledNes::compile(nes.clone());
    println!("rule footprint: {}\n", compiled.rule_breakdown());

    // 3. Deploy on the discrete-event simulator and ping.
    let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
    let mut engine =
        nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
    // The online Definition 6 checker watches the run as it executes.
    let checker = attach_online_checker(&mut engine, &nes).expect("the firewall fits the checker");
    let pings = vec![
        Ping { time: SimTime::from_millis(10), src: H4, dst: H1, id: 1 },
        Ping { time: SimTime::from_millis(100), src: H1, dst: H4, id: 2 },
        Ping { time: SimTime::from_millis(200), src: H4, dst: H1, id: 3 },
    ];
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(2));

    for o in ping_outcomes(&pings, &result.stats) {
        println!(
            "ping {} -> {} at {}: {}",
            o.ping.src,
            o.ping.dst,
            o.ping.time,
            match o.replied {
                Some(t) => format!("replied after {}", t - o.ping.time),
                None => "no reply".to_string(),
            }
        );
    }

    // 4. The checker's verdict on the whole run (Definition 6).
    match checker.verdict() {
        Ok(()) => println!("\ntrace is event-driven consistent (Definition 6)"),
        Err(v) => println!("\nCONSISTENCY VIOLATION: {v}"),
    }
}
