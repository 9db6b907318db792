//! Figure 16(b): event-discovery time around the ring — how long until
//! every switch learns the reroute event, with pure digest gossip vs
//! controller-assisted broadcast, for diameters 3–8.
//!
//! Gossip is carried by sparse background traffic (neighbour pings every
//! 2 s), so discovery time grows with hop distance; controller assistance
//! is flat at roughly the controller round-trip.
//!
//! Run with: `cargo run --release -p edn-bench --bin fig16b_ring_convergence`

use edn_apps::ring::{host, Ring};
use edn_core::EventId;
use nes_runtime::{attach_online_checker, nes_engine};
use netsim::traffic::{udp_packet, ScenarioHosts};
use netsim::{SimParams, SimTime};

/// Background gossip: each host sends one UDP datagram to its clockwise
/// neighbour every 2 s. Datagrams take the one-hop shortest path in both
/// configurations, so digests propagate exactly one hop per round.
const GOSSIP_INTERVAL_MS: u64 = 2_000;

struct Convergence {
    max_s: f64,
    avg_s: f64,
}

fn run(diameter: u64, broadcast: bool, seed_offset: u64) -> Convergence {
    let ring = Ring::new(diameter);
    let n = ring.switch_count();
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
    let mut id = 0;
    for round in 0..60u64 {
        for sw in 1..=n {
            // Descending offsets: within a round, switch k+1's datagram
            // leaves before switch k's, so knowledge advances exactly one
            // hop per round (no within-round cascade).
            engine.inject_at(
                SimTime::from_millis(GOSSIP_INTERVAL_MS * round + 17 * (n - sw) + seed_offset),
                host(sw),
                udp_packet(host(sw), host(sw % n + 1), sw, id),
            );
            id += 1;
        }
    }
    let t0 = SimTime::from_secs(1);
    engine.inject_at(t0, ring.h1(), ring.trigger_packet());
    let result = engine.run_until(SimTime::from_secs(130));
    checker.verdict().expect("ring convergence run is consistent");
    let times: Vec<f64> = (1..=n)
        .map(|sw| {
            result
                .dataplane
                .discovery_time(sw, EventId::new(0))
                .expect("every switch eventually learns")
                .saturating_sub(t0)
                .as_secs_f64()
        })
        .collect();
    let max_s = times.iter().cloned().fold(0.0, f64::max);
    let avg_s = times.iter().sum::<f64>() / times.len() as f64;
    Convergence { max_s, avg_s }
}

fn main() {
    println!("# Fig. 16(b): event discovery time around the ring (seconds)");
    println!("# gossip vehicle: one-hop neighbour datagrams every {GOSSIP_INTERVAL_MS} ms; 3 runs per point");
    println!("diameter,gossip_max_s,gossip_avg_s,assisted_max_s,assisted_avg_s");
    for diameter in 3..=8 {
        let mut gmax: f64 = 0.0;
        let mut gavg = 0.0;
        let mut bmax: f64 = 0.0;
        let mut bavg = 0.0;
        let runs = 3;
        for r in 0..runs {
            let g = run(diameter, false, r * 131);
            gmax = gmax.max(g.max_s);
            gavg += g.avg_s;
            let b = run(diameter, true, r * 131);
            bmax = bmax.max(b.max_s);
            bavg += b.avg_s;
        }
        println!(
            "{diameter},{gmax:.3},{:.3},{bmax:.3},{:.3}",
            gavg / runs as f64,
            bavg / runs as f64
        );
    }
    println!("# shape check: gossip grows with diameter; controller assistance stays flat");
}
