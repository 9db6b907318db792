//! Figure 14: the bandwidth cap (n = 10) — exactly 10 pings succeed under
//! the correct runtime (a); the uncoordinated baseline overshoots (b).
//!
//! Run with: `cargo run --release -p edn-bench --bin fig14_bandwidth_cap`

use edn_apps::{bandwidth_cap, H1, H4};
use edn_bench::{host_name, print_timeline, run_correct, run_uncoordinated};
use netsim::traffic::Ping;
use netsim::SimTime;

const CAP: u64 = 10;

fn workload() -> Vec<Ping> {
    (0..20)
        .map(|i| Ping { time: SimTime::from_millis(1_000 * i + 100), src: H1, dst: H4, id: i })
        .collect()
}

fn main() {
    let pings = workload();
    let (rows, verdict) = run_correct(
        bandwidth_cap::nes(CAP),
        &bandwidth_cap::spec(),
        &pings,
        SimTime::from_secs(30),
    );
    print_timeline("(a) correct (cap 10):", &rows, host_name);
    let ok = rows.iter().filter(|r| r.ok).count();
    println!("  successful pings: {ok} (the cap is enforced exactly)");
    match verdict {
        Ok(()) => println!("  checker: consistent\n"),
        Err(v) => println!("  checker: VIOLATION {v}\n"),
    }

    let rows = run_uncoordinated(
        bandwidth_cap::nes(CAP),
        &bandwidth_cap::spec(),
        &pings,
        SimTime::from_millis(5_000),
        5,
        SimTime::from_secs(40),
    );
    print_timeline("(b) uncoordinated (5s delay):", &rows, host_name);
    let ok = rows.iter().filter(|r| r.ok).count();
    println!("  successful pings: {ok} — the cap is exceeded (paper saw 15 vs 10)");
}
