//! The learning switch (Figs. 8(b)/9(b)).
//!
//! Traffic from H4 to H1 is flooded towards both H1 and H2 until H4 hears
//! back from H1, at which point switch 4 "learns" H1's location and uses
//! point-to-point forwarding.

use edn_core::NetworkEventStructure;
use netkat::Loc;
use stateful_netkat::{build_ets, parse, NetworkSpec, SPolicy};

use crate::scenario::host_env;

/// The Fig. 9(b) program source.
pub const SOURCE: &str = "\
    pt=2 & ip_dst=H1; (pt<-1; (4:1)->(1:1) + state=[0]; pt<-3; (4:3)->(2:1)); pt<-2 \
    + pt=2 & ip_dst=H4; pt<-1; (1:1)->(4:1)<state<-[1]>; pt<-2 \
    + pt=2; pt<-1; (2:1)->(4:3); pt<-2";

/// Parses the learning-switch program.
///
/// # Panics
///
/// Panics if the built-in source fails to parse (a bug).
pub fn program() -> SPolicy {
    parse(SOURCE, &host_env()).expect("built-in learning-switch program parses")
}

/// The Fig. 8(b) topology: H1 — s1 — s4 — H4, H2 — s2 — s4.
pub fn spec() -> NetworkSpec {
    NetworkSpec::new([1, 2, 4])
        .host(crate::scenario::H1, Loc::new(1, 2))
        .host(crate::scenario::H2, Loc::new(2, 2))
        .host(crate::scenario::H4, Loc::new(4, 2))
        .bilink(Loc::new(1, 1), Loc::new(4, 1))
        .bilink(Loc::new(2, 1), Loc::new(4, 3))
}

/// Builds the learning-switch NES (one event: H1's reply reaching s4).
///
/// # Panics
///
/// Panics if compilation fails (a bug: the program is well-formed).
pub fn nes() -> NetworkEventStructure {
    build_ets(&program(), &[0], &spec())
        .expect("learning switch compiles")
        .to_nes()
        .expect("learning switch ETS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{checked_engine, sim_topology, H1, H2, H4};
    use nes_runtime::uncoordinated_engine;
    use netkat::Field;
    use netsim::traffic::{
        ping_outcomes, proto_packets_delivered, schedule_pings, Ping, ScenarioHosts,
        PROTO_PING_REQUEST,
    };
    use netsim::{SimParams, SimTime};

    #[test]
    fn nes_shape() {
        let nes = nes();
        assert_eq!(nes.events().len(), 1);
        assert_eq!(nes.event_sets().len(), 2);
        assert_eq!(nes.events()[0].loc, Loc::new(4, 1));
        assert!(nes.is_locally_determined());
    }

    /// Fig. 12(a): the first H4→H1 packet floods to H2 as well; once H1
    /// replies, subsequent packets go only to H1.
    #[test]
    fn flooding_stops_after_learning() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(nes(), topo, false);
        let pings: Vec<Ping> = (0..10)
            .map(|i| Ping { time: SimTime::from_millis(100 * i + 10), src: H4, dst: H1, id: i })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        // H1 receives every request; H2 receives only the pre-learning
        // flood (the first ping; its copy count depends on timing but must
        // be far fewer than 10).
        let to_h1 = proto_packets_delivered(&result.stats, H1, PROTO_PING_REQUEST);
        let to_h2 = proto_packets_delivered(&result.stats, H2, PROTO_PING_REQUEST);
        assert_eq!(to_h1, 10);
        assert!(to_h2 <= 2, "flooded copies stop after learning, got {to_h2}");
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o.iter().all(|p| p.replied.is_some()), "all pings answered");
        checker.verdict().expect("learning-switch run is consistent");
    }

    /// Fig. 12(b): the uncoordinated baseline keeps flooding to H2 after
    /// H4 has already heard from H1.
    #[test]
    fn uncoordinated_keeps_flooding() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let mut engine = uncoordinated_engine(
            nes(),
            topo,
            SimParams::default(),
            SimTime::from_millis(2000),
            3,
            Box::new(ScenarioHosts::new()),
        );
        let pings: Vec<Ping> = (0..10)
            .map(|i| Ping { time: SimTime::from_millis(100 * i + 10), src: H4, dst: H1, id: i })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(3));
        let to_h2 = proto_packets_delivered(&result.stats, H2, PROTO_PING_REQUEST);
        assert!(to_h2 >= 5, "stale config keeps flooding, got {to_h2}");
    }

    #[test]
    fn event_guard_is_dst_h4() {
        let nes = nes();
        let e = &nes.events()[0];
        let pk = netkat::Packet::new().with(Field::IpDst, H4);
        assert!(e.matches(&pk, Loc::new(4, 1)));
        let other = netkat::Packet::new().with(Field::IpDst, H1);
        assert!(!e.matches(&other, Loc::new(4, 1)));
    }
}
