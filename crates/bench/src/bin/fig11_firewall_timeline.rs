//! Figure 11: the stateful firewall ping timeline, correct (a) vs
//! uncoordinated (b).
//!
//! Run with: `cargo run --release -p edn-bench --bin fig11_firewall_timeline`

use edn_apps::{firewall, H1, H4};
use edn_bench::{host_name, print_timeline, run_correct, run_uncoordinated};
use netsim::traffic::Ping;
use netsim::SimTime;

fn timeline() -> Vec<Ping> {
    let s = SimTime::from_secs;
    let mut pings = Vec::new();
    let mut id = 0;
    for t in 1..6 {
        pings.push(Ping { time: s(t), src: H4, dst: H1, id });
        id += 1;
    }
    for t in 6..10 {
        pings.push(Ping { time: s(t), src: H1, dst: H4, id });
        id += 1;
    }
    for t in 10..16 {
        pings.push(Ping { time: s(t), src: H4, dst: H1, id });
        id += 1;
    }
    pings
}

fn main() {
    let pings = timeline();
    let (rows, verdict) =
        run_correct(firewall::nes(), &firewall::spec(), &pings, SimTime::from_secs(20));
    print_timeline("(a) correct (event-driven consistent):", &rows, host_name);
    match verdict {
        Ok(()) => println!("  checker: consistent\n"),
        Err(v) => println!("  checker: VIOLATION {v}\n"),
    }

    let rows = run_uncoordinated(
        firewall::nes(),
        &firewall::spec(),
        &pings,
        SimTime::from_millis(2_000),
        17,
        SimTime::from_secs(20),
    );
    print_timeline("(b) uncoordinated (2s delay):", &rows, host_name);
    let lost: Vec<_> = rows.iter().filter(|r| !r.ok && r.ping.src == H1).collect();
    println!(
        "  {} H1->H4 pings lost their replies — the state change did not behave as if\n  \
         caused immediately by the packet arrival at s4 (the paper's Fig. 11(b))",
        lost.len()
    );
}
