//! Figure 15: the intrusion detection system — the suspicious scan order
//! (H1 then H2) cuts off H4→H3 under the correct runtime (a); the
//! uncoordinated baseline leaves it open temporarily (b).
//!
//! Run with: `cargo run --release -p edn-bench --bin fig15_ids`

use edn_apps::{ids, H1, H2, H3, H4};
use edn_bench::{host_name, print_timeline, run_correct, run_uncoordinated};
use netsim::traffic::Ping;
use netsim::SimTime;

fn main() {
    let s = SimTime::from_secs;
    // Fig. 15(a)'s probe order: H3, H2, H1, H3, H2, H1 — reaching the
    // suspicious state — then H3 probes that must now be blocked.
    let pings = vec![
        Ping { time: s(1), src: H4, dst: H3, id: 0 },
        Ping { time: s(5), src: H4, dst: H2, id: 1 },
        Ping { time: s(9), src: H4, dst: H1, id: 2 }, // suspicious step 1
        Ping { time: s(13), src: H4, dst: H3, id: 3 },
        Ping { time: s(17), src: H4, dst: H2, id: 4 }, // suspicious step 2
        Ping { time: s(21), src: H4, dst: H1, id: 5 },
        Ping { time: s(25), src: H4, dst: H3, id: 6 }, // blocked
        Ping { time: s(29), src: H4, dst: H3, id: 7 }, // blocked
    ];
    let (rows, verdict) = run_correct(ids::nes(), &ids::spec(), &pings, s(40));
    print_timeline("(a) correct: the scan cuts off H3:", &rows, host_name);
    match verdict {
        Ok(()) => println!("  checker: consistent\n"),
        Err(v) => println!("  checker: VIOLATION {v}\n"),
    }

    // Uncoordinated: the scan completes; the immediate H3 probe still flows.
    let pings = vec![
        Ping { time: s(1), src: H4, dst: H1, id: 0 },
        Ping { time: s(4), src: H4, dst: H2, id: 1 },
        Ping { time: SimTime::from_millis(4_200), src: H4, dst: H3, id: 2 },
        Ping { time: s(10), src: H4, dst: H3, id: 3 },
    ];
    let rows =
        run_uncoordinated(ids::nes(), &ids::spec(), &pings, SimTime::from_millis(2_000), 13, s(15));
    print_timeline(
        "(b) uncoordinated (2s delay): H3 briefly stays open after the scan:",
        &rows,
        host_name,
    );
}
