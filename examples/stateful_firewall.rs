//! The stateful firewall, correct vs uncoordinated (the paper's Fig. 11).
//!
//! A ping timeline is run twice: once on the event-driven consistent
//! runtime, once on the uncoordinated baseline with a 1-second controller
//! delay. The baseline drops the reply to H1's own connection attempt — the
//! SYN-ACK problem from the paper's introduction.
//!
//! Run with: `cargo run -p edn-apps --example stateful_firewall`

use edn_apps::{firewall, sim_topology, H1, H4};
use nes_runtime::{attach_online_checker, nes_engine, uncoordinated_engine};
use netsim::traffic::{ping_outcomes, schedule_pings, Ping, PingOutcome, ScenarioHosts};
use netsim::{SimParams, SimTime};

fn timeline() -> Vec<Ping> {
    let mut pings = Vec::new();
    let mut id = 0;
    // Fig. 11's shape: H4->H1 probes, then H1->H4 opens the connection,
    // then more H4->H1 probes.
    for t in (1..6).map(SimTime::from_secs) {
        pings.push(Ping { time: t, src: H4, dst: H1, id });
        id += 1;
    }
    for t in (6..10).map(SimTime::from_secs) {
        pings.push(Ping { time: t, src: H1, dst: H4, id });
        id += 1;
    }
    for t in (10..16).map(SimTime::from_secs) {
        pings.push(Ping { time: t, src: H4, dst: H1, id });
        id += 1;
    }
    pings
}

fn render(label: &str, outcomes: &[PingOutcome]) {
    println!("{label}");
    println!("  time   direction   result");
    for o in outcomes {
        println!(
            "  {:>4}s  {:>3} -> {:<3}  {}",
            o.ping.time.as_micros() / 1_000_000,
            o.ping.src,
            o.ping.dst,
            if o.replied.is_some() { "reply" } else { "LOST" },
        );
    }
}

fn main() {
    let pings = timeline();

    // (a) Our runtime.
    let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
    let nes = firewall::nes();
    let mut engine =
        nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
    let checker = attach_online_checker(&mut engine, &nes).expect("the firewall fits the checker");
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(20));
    render("(a) event-driven consistent runtime:", &ping_outcomes(&pings, &result.stats));
    match checker.verdict() {
        Ok(()) => println!("  checker: consistent (Definition 6)\n"),
        Err(v) => println!("  checker: VIOLATION {v}\n"),
    }

    // (b) Uncoordinated baseline, 1 s controller delay.
    let topo = sim_topology(&firewall::spec(), SimTime::from_micros(50), None);
    let mut engine = uncoordinated_engine(
        firewall::nes(),
        topo,
        SimParams::default(),
        SimTime::from_millis(1000),
        42,
        Box::new(ScenarioHosts::new()),
    );
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(20));
    let outcomes = ping_outcomes(&pings, &result.stats);
    render("(b) uncoordinated baseline (1s delay):", &outcomes);
    let lost_h1 = outcomes.iter().filter(|o| o.ping.src == H1 && o.replied.is_none()).count();
    println!("  H1->H4 pings that lost their reply: {lost_h1} (the paper's Fig. 11(b) pathology)");
}
