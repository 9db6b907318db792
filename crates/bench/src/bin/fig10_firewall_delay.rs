//! Figure 10: the stateful firewall under the uncoordinated strategy —
//! total incorrectly-dropped packets as a function of the controller's
//! update delay (0–5000 ms), several seeded runs per point, against the
//! always-zero line of the correct implementation.
//!
//! Run with: `cargo run --release -p edn-bench --bin fig10_firewall_delay`
//!
//! For quick smoke runs (CI), the sweep can be reduced via environment
//! variables: `FIG10_MAX_DELAY_MS` caps the swept delay and
//! `FIG10_RUNS_PER_POINT` overrides the number of seeded runs per point.

use edn_apps::{firewall, H1, H4};
use edn_bench::{env_u64, run_correct, run_uncoordinated};
use netsim::traffic::Ping;
use netsim::SimTime;

/// The Fig. 10 workload: H1 opens the connection, then H4 sends replies at
/// a steady rate. Every lost probe is an incorrect drop: after the event at
/// switch 4, event-driven consistency requires the reverse path to be open.
fn workload() -> Vec<Ping> {
    let mut pings = vec![Ping { time: SimTime::from_millis(10), src: H1, dst: H4, id: 0 }];
    for i in 0..60 {
        pings.push(Ping { time: SimTime::from_millis(100 * i + 50), src: H4, dst: H1, id: i + 1 });
    }
    pings
}

fn main() {
    let max_delay_ms = env_u64("fig10", "FIG10_MAX_DELAY_MS", 5000);
    let runs_per_point = env_u64("fig10", "FIG10_RUNS_PER_POINT", 10);
    println!("# Fig. 10: incorrectly-dropped packets vs controller delay");
    println!("# workload: trigger at 10ms, then H4->H1 probes every 100ms for 6s");
    println!("# {runs_per_point} seeded runs per point, delays 0..={max_delay_ms} ms");
    println!("delay_ms,incorrect_total,correct_total");
    let pings = workload();
    // The correct implementation is delay-independent and deterministic:
    // one run covers every point of the sweep.
    let (rows, verdict) =
        run_correct(firewall::nes(), &firewall::spec(), &pings, SimTime::from_secs(20));
    let correct_total = rows.iter().filter(|r| !r.ok).count();
    verdict.expect("correct runs verify");
    for delay_ms in (0..=max_delay_ms).step_by(250) {
        let mut incorrect_total = 0usize;
        for seed in 0..runs_per_point {
            let rows = run_uncoordinated(
                firewall::nes(),
                &firewall::spec(),
                &pings,
                SimTime::from_millis(delay_ms),
                seed,
                SimTime::from_secs(20),
            );
            incorrect_total += rows.iter().filter(|r| !r.ok).count();
        }
        println!("{delay_ms},{incorrect_total},{correct_total}");
    }
    println!("# shape check: even at delay 0 the uncoordinated strategy drops >= 1 packet");
}
