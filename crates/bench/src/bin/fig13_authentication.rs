//! Figure 13: the authentication (port-knocking) timeline, correct (a) vs
//! uncoordinated (b).
//!
//! Run with: `cargo run --release -p edn-bench --bin fig13_authentication`

use edn_apps::{authentication, H1, H2, H3, H4};
use edn_bench::{host_name, print_timeline, run_correct, run_uncoordinated};
use netsim::traffic::Ping;
use netsim::SimTime;

fn main() {
    let s = SimTime::from_secs;
    // Fig. 13(a)'s probe order: H3, H2 (both fail), H1, H3 again, H1 again,
    // H2, and finally H3.
    let pings = vec![
        Ping { time: s(1), src: H4, dst: H3, id: 0 },
        Ping { time: s(4), src: H4, dst: H2, id: 1 },
        Ping { time: s(8), src: H4, dst: H1, id: 2 },
        Ping { time: s(12), src: H4, dst: H3, id: 3 },
        Ping { time: s(16), src: H4, dst: H1, id: 4 },
        Ping { time: s(20), src: H4, dst: H2, id: 5 },
        Ping { time: s(24), src: H4, dst: H3, id: 6 },
    ];
    let (rows, verdict) =
        run_correct(authentication::nes(), &authentication::spec(), &pings, s(30));
    print_timeline("(a) correct: only the complete knock order unlocks H3:", &rows, host_name);
    match verdict {
        Ok(()) => println!("  checker: consistent\n"),
        Err(v) => println!("  checker: VIOLATION {v}\n"),
    }

    // Uncoordinated: knocks complete but the H3 probe races the push.
    let pings = vec![
        Ping { time: s(1), src: H4, dst: H1, id: 0 },
        Ping { time: s(4), src: H4, dst: H2, id: 1 },
        Ping { time: SimTime::from_millis(4_200), src: H4, dst: H3, id: 2 },
    ];
    let rows = run_uncoordinated(
        authentication::nes(),
        &authentication::spec(),
        &pings,
        SimTime::from_millis(1_500),
        11,
        s(15),
    );
    print_timeline(
        "(b) uncoordinated (1.5s delay): H3 lags behind completed knocks:",
        &rows,
        host_name,
    );
}
