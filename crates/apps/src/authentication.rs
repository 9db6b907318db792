//! The authentication (port-knocking) system (Figs. 8(c)/9(c)).
//!
//! The untrusted host H4 must contact H1, then H2 — in that order — before
//! it is allowed to reach H3.

use edn_core::NetworkEventStructure;
use netkat::Loc;
use stateful_netkat::{build_ets, parse, NetworkSpec, SPolicy};

use crate::scenario::host_env;

/// The Fig. 9(c) program source.
pub const SOURCE: &str = "\
    state=[0] & pt=2 & ip_dst=H1; pt<-1; (4:1)->(1:1)<state<-[1]>; pt<-2 \
    + state=[1] & pt=2 & ip_dst=H2; pt<-3; (4:3)->(2:1)<state<-[2]>; pt<-2 \
    + state=[2] & pt=2 & ip_dst=H3; pt<-4; (4:4)->(3:1); pt<-2 \
    + pt=2; pt<-1; ((1:1)->(4:1) + (2:1)->(4:3) + (3:1)->(4:4)); pt<-2";

/// Parses the authentication program.
///
/// # Panics
///
/// Panics if the built-in source fails to parse (a bug).
pub fn program() -> SPolicy {
    parse(SOURCE, &host_env()).expect("built-in authentication program parses")
}

/// The Fig. 8(c) topology: H1/H2/H3 behind s1/s2/s3, all joined to s4
/// where H4 sits.
pub fn spec() -> NetworkSpec {
    NetworkSpec::new([1, 2, 3, 4])
        .host(crate::scenario::H1, Loc::new(1, 2))
        .host(crate::scenario::H2, Loc::new(2, 2))
        .host(crate::scenario::H3, Loc::new(3, 2))
        .host(crate::scenario::H4, Loc::new(4, 2))
        .bilink(Loc::new(1, 1), Loc::new(4, 1))
        .bilink(Loc::new(2, 1), Loc::new(4, 3))
        .bilink(Loc::new(3, 1), Loc::new(4, 4))
}

/// Builds the authentication NES:
/// `{E₀=∅ → E₁={(dst=H1, 1:1)} → E₂={(dst=H1, 1:1), (dst=H2, 2:1)}}`.
///
/// # Panics
///
/// Panics if compilation fails (a bug: the program is well-formed).
pub fn nes() -> NetworkEventStructure {
    build_ets(&program(), &[0], &spec())
        .expect("authentication compiles")
        .to_nes()
        .expect("authentication ETS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{checked_engine, sim_topology, H1, H2, H3, H4};
    use edn_core::{EventId, EventSet};
    use nes_runtime::uncoordinated_engine;
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{SimParams, SimTime};

    #[test]
    fn nes_is_a_causal_chain() {
        let nes = nes();
        assert_eq!(nes.events().len(), 2);
        assert_eq!(nes.event_sets().len(), 3);
        assert_eq!(nes.events()[0].loc, Loc::new(1, 1));
        assert_eq!(nes.events()[1].loc, Loc::new(2, 1));
        // e1 requires e0.
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        assert!(!nes.structure().enabled(EventSet::empty(), e1));
        assert!(nes.structure().enabled(EventSet::singleton(e0), e1));
        assert!(nes.is_locally_determined());
    }

    /// Fig. 13(a): H3/H2 unreachable, knock H1, H3 still unreachable, knock
    /// H2, now H3 answers.
    #[test]
    fn knock_sequence_unlocks_h3() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(nes(), topo, false);
        let s = SimTime::from_millis;
        let pings = vec![
            Ping { time: s(10), src: H4, dst: H3, id: 1 },  // fail
            Ping { time: s(100), src: H4, dst: H2, id: 2 }, // fail (wrong order)
            Ping { time: s(200), src: H4, dst: H1, id: 3 }, // knock 1
            Ping { time: s(300), src: H4, dst: H3, id: 4 }, // still fail
            Ping { time: s(400), src: H4, dst: H2, id: 5 }, // knock 2
            Ping { time: s(500), src: H4, dst: H3, id: 6 }, // success
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(3));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(!o[0].request_delivered, "H3 blocked initially");
        assert!(!o[1].request_delivered, "H2 blocked before H1 knock");
        assert!(o[2].replied.is_some(), "H1 reachable");
        assert!(!o[3].request_delivered, "H3 still blocked after one knock");
        assert!(o[4].replied.is_some(), "H2 reachable after H1 knock");
        assert!(o[5].replied.is_some(), "H3 unlocked");
        checker.verdict().expect("authentication run is consistent");
    }

    /// Fig. 13(b): with the uncoordinated baseline, the H3 probe right
    /// after a completed knock sequence still fails (temporarily).
    #[test]
    fn uncoordinated_lags_behind_the_knocks() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let mut engine = uncoordinated_engine(
            nes(),
            topo,
            SimParams::default(),
            SimTime::from_millis(500),
            11,
            Box::new(ScenarioHosts::new()),
        );
        let s = SimTime::from_millis;
        let pings = vec![
            // Knock 1 lands immediately; the controller push for state [1]
            // arrives ~500 ms later, so knock 2 at 700 ms succeeds; the H3
            // probe at 800 ms races the second push and fails.
            Ping { time: s(10), src: H4, dst: H1, id: 1 },
            Ping { time: s(700), src: H4, dst: H2, id: 2 },
            Ping { time: s(800), src: H4, dst: H3, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(3));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some(), "knock 1 answered");
        assert!(o[1].replied.is_some(), "knock 2 answered after the first push");
        assert!(!o[2].request_delivered, "H3 blocked although knocks completed");
    }
}
