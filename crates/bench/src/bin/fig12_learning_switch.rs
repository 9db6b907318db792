//! Figure 12: the learning switch — packets delivered to H1 vs flooded to
//! H2 over time, correct (a) vs uncoordinated (b).
//!
//! Run with: `cargo run --release -p edn-bench --bin fig12_learning_switch`

use edn_apps::{learning, sim_topology, H1, H2, H4};
use nes_runtime::{attach_online_checker, nes_engine, uncoordinated_engine};
use netsim::traffic::{schedule_pings, Ping, ScenarioHosts, PROTO_PING_REQUEST};
use netsim::{SimParams, SimTime, Stats};

fn workload() -> Vec<Ping> {
    (0..9).map(|i| Ping { time: SimTime::from_secs(i + 1), src: H4, dst: H1, id: i }).collect()
}

fn per_second_counts(stats: &Stats, host: u64, seconds: u64) -> Vec<usize> {
    (0..seconds)
        .map(|s| {
            stats
                .delivered_to(host)
                .filter(|d| {
                    d.packet.get(netkat::Field::IpProto) == Some(PROTO_PING_REQUEST)
                        && d.time >= SimTime::from_secs(s)
                        && d.time < SimTime::from_secs(s + 1)
                })
                .count()
        })
        .collect()
}

fn render(label: &str, stats: &Stats) {
    println!("{label}");
    println!("  second  to_H1  to_H2");
    let h1 = per_second_counts(stats, H1, 10);
    let h2 = per_second_counts(stats, H2, 10);
    for s in 0..10 {
        println!("  {:>6}  {:>5}  {:>5}", s, h1[s as usize], h2[s as usize]);
    }
    println!("  total   {:>5}  {:>5}\n", h1.iter().sum::<usize>(), h2.iter().sum::<usize>());
}

fn main() {
    let pings = workload();

    let topo = sim_topology(&learning::spec(), SimTime::from_micros(50), None);
    let nes = learning::nes();
    let mut engine =
        nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
    let checker = attach_online_checker(&mut engine, &nes).expect("the NES fits the checker");
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(15));
    render("(a) correct: flooding stops after H1's first reply:", &result.stats);
    checker.verdict().expect("learning run verifies");

    let topo = sim_topology(&learning::spec(), SimTime::from_micros(50), None);
    let mut engine = uncoordinated_engine(
        learning::nes(),
        topo,
        SimParams::default(),
        SimTime::from_millis(4_000),
        3,
        Box::new(ScenarioHosts::new()),
    );
    schedule_pings(&mut engine, &pings);
    let result = engine.run_until(SimTime::from_secs(15));
    render("(b) uncoordinated (4s delay): H2 keeps receiving flooded copies:", &result.stats);
}
