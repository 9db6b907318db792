//! The intrusion detection system (Figs. 8(e)/9(e)).
//!
//! All traffic is initially allowed; if H4 scans the internal hosts in a
//! suspicious order (H1 then H2), its access to H3 is cut off.

use edn_core::NetworkEventStructure;
#[cfg(test)]
use netkat::Loc;
use stateful_netkat::{build_ets, parse, NetworkSpec, SPolicy};

use crate::scenario::host_env;

/// The Fig. 9(e) program source.
pub const SOURCE: &str = "\
    pt=2 & ip_dst=H1; pt<-1; (state=[0]; (4:1)->(1:1)<state<-[1]> \
                              + state!=[0]; (4:1)->(1:1)); pt<-2 \
    + pt=2 & ip_dst=H2; pt<-3; (state=[1]; (4:3)->(2:1)<state<-[2]> \
                                + state!=[1]; (4:3)->(2:1)); pt<-2 \
    + pt=2 & ip_dst=H3; pt<-4; state!=[2]; (4:4)->(3:1); pt<-2 \
    + pt=2; pt<-1; ((1:1)->(4:1) + (2:1)->(4:3) + (3:1)->(4:4)); pt<-2";

/// Parses the IDS program.
///
/// # Panics
///
/// Panics if the built-in source fails to parse (a bug).
pub fn program() -> SPolicy {
    parse(SOURCE, &host_env()).expect("built-in IDS program parses")
}

/// The topology (same as authentication, Fig. 8(c)/(e)).
pub fn spec() -> NetworkSpec {
    crate::authentication::spec()
}

/// Builds the IDS NES (the same chain shape as authentication, but with all
/// traffic allowed until the suspicious sequence completes).
///
/// # Panics
///
/// Panics if compilation fails (a bug: the program is well-formed).
pub fn nes() -> NetworkEventStructure {
    build_ets(&program(), &[0], &spec())
        .expect("IDS compiles")
        .to_nes()
        .expect("IDS ETS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{checked_engine, sim_topology, H1, H2, H3, H4};
    use nes_runtime::uncoordinated_engine;
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{SimParams, SimTime};

    #[test]
    fn nes_shape() {
        let nes = nes();
        assert_eq!(nes.events().len(), 2);
        assert_eq!(nes.event_sets().len(), 3);
        assert_eq!(nes.events()[0].loc, Loc::new(1, 1));
        assert_eq!(nes.events()[1].loc, Loc::new(2, 1));
        assert!(nes.is_locally_determined());
    }

    /// Fig. 15(a): H3, H2, H1 all reachable; the scan (H1 then H2) cuts off
    /// H3.
    #[test]
    fn suspicious_scan_is_thwarted() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(nes(), topo, false);
        let s = SimTime::from_millis;
        let pings = vec![
            Ping { time: s(10), src: H4, dst: H3, id: 1 }, // allowed
            Ping { time: s(100), src: H4, dst: H2, id: 2 }, // allowed, no transition
            Ping { time: s(200), src: H4, dst: H1, id: 3 }, // allowed, state -> 1
            Ping { time: s(300), src: H4, dst: H2, id: 4 }, // allowed, state -> 2
            Ping { time: s(400), src: H4, dst: H3, id: 5 }, // blocked!
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(3));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some(), "H3 open initially");
        assert!(o[1].replied.is_some(), "H2 open");
        assert!(o[2].replied.is_some(), "H1 open");
        assert!(o[3].replied.is_some(), "H2 still open");
        assert!(!o[4].request_delivered, "H3 cut off after the scan");
        checker.verdict().expect("IDS run is consistent");
    }

    /// H2-before-H1 is not the suspicious order: H3 stays reachable.
    #[test]
    fn benign_order_keeps_h3_open() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(nes(), topo, false);
        let s = SimTime::from_millis;
        let pings = vec![
            Ping { time: s(10), src: H4, dst: H2, id: 1 },
            Ping { time: s(100), src: H4, dst: H1, id: 2 },
            Ping { time: s(200), src: H4, dst: H3, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(3));
        let o = ping_outcomes(&pings, &result.stats);
        // H2 first does not advance the automaton; H1 then moves 0 -> 1;
        // H3 remains reachable (state 2 never reached).
        assert!(o[2].replied.is_some(), "H3 stays open in benign order");
        checker.verdict().expect("IDS run is consistent");
    }

    /// Fig. 15(b): under the uncoordinated baseline the scan completes but
    /// H4→H3 stays open temporarily.
    #[test]
    fn uncoordinated_leaves_h3_open() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let mut engine = uncoordinated_engine(
            nes(),
            topo,
            SimParams::default(),
            SimTime::from_millis(800),
            13,
            Box::new(ScenarioHosts::new()),
        );
        let s = SimTime::from_millis;
        let pings = vec![
            Ping { time: s(10), src: H4, dst: H1, id: 1 },
            // Wait for the first push so the H2 probe actually transitions.
            Ping { time: s(1000), src: H4, dst: H2, id: 2 },
            // Probe H3 immediately after the scan completes: stale config.
            Ping { time: s(1100), src: H4, dst: H3, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(4));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some() && o[1].replied.is_some(), "scan completes");
        assert!(o[2].replied.is_some(), "H3 wrongly still open right after the scan");
    }
}
