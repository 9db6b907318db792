//! Ring reroute (the paper's Section 5.2 scalability workload).
//!
//! Traffic around a ring of switches flows clockwise until a marked packet
//! flips the direction. The example shows per-switch event-discovery times
//! with pure digest gossip vs controller-assisted broadcast — the contrast
//! behind the paper's Fig. 16(b).
//!
//! Run with: `cargo run -p edn-apps --example ring_reroute`

use edn_apps::ring::{host, Ring};
use edn_core::EventId;
use nes_runtime::{attach_online_checker, nes_engine};
use netsim::traffic::{schedule_pings, Ping, ScenarioHosts};
use netsim::{SimParams, SimTime};

fn run(diameter: u64, broadcast: bool) {
    let ring = Ring::new(diameter);
    let topo = ring.sim_topology(SimTime::from_micros(100), None);
    let nes = ring.nes();
    let mut engine = nes_engine(
        nes.clone(),
        topo,
        SimParams::default(),
        broadcast,
        Box::new(ScenarioHosts::new()),
    );
    let checker = attach_online_checker(&mut engine, &nes).expect("the ring fits the checker");

    // Background traffic: each host pings its clockwise neighbour's host
    // every 500 ms — the gossip vehicle for digests.
    let n = ring.switch_count();
    let mut pings = Vec::new();
    let mut id = 0;
    for round in 0..40u64 {
        for sw in 1..=n {
            pings.push(Ping {
                time: SimTime::from_millis(500 * round + 13 * sw),
                src: host(sw),
                dst: host(sw % n + 1),
                id,
            });
            id += 1;
        }
    }
    schedule_pings(&mut engine, &pings);

    // The trigger fires at 1 s.
    let t0 = SimTime::from_secs(1);
    engine.inject_at(t0, ring.h1(), ring.trigger_packet());

    let result = engine.run_until(SimTime::from_secs(30));
    checker.verdict().expect("ring run is consistent");

    let e0 = EventId::new(0);
    let mut times: Vec<(u64, Option<SimTime>)> =
        (1..=n).map(|sw| (sw, result.dataplane.discovery_time(sw, e0))).collect();
    times.sort();
    println!(
        "diameter {diameter} ({} switches), {}:",
        n,
        if broadcast { "controller-assisted" } else { "digest gossip only" }
    );
    for (sw, t) in &times {
        match t {
            Some(t) => println!("  switch {sw}: learned after {}", t.saturating_sub(t0)),
            None => println!("  switch {sw}: never learned"),
        }
    }
    let max = times.iter().filter_map(|(_, t)| *t).max().map(|t| t.saturating_sub(t0));
    println!("  max discovery time: {}\n", max.map_or("n/a".to_string(), |t| t.to_string()));
}

fn main() {
    for diameter in [3, 6] {
        run(diameter, false);
        run(diameter, true);
    }
}
