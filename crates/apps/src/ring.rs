//! The synthetic ring application (Section 5.2).
//!
//! `2·diameter` switches form a ring; every switch hosts one end host.
//! Initially all traffic is forwarded clockwise; when switch 1 sees a
//! marked packet from its host (the event), the configuration flips to
//! counterclockwise. H1 (at switch 1) and H2 (at the opposite switch,
//! `diameter + 1` hops away) are the measurement endpoints of Fig. 16.
//!
//! Unlike the case studies, the ring NES is built directly from raw flow
//! tables — the paper likewise generates these programs automatically.

use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, Rule};
use netsim::{LinkSpec, SimTime, SimTopology};

/// Port 1: clockwise neighbour. Port 2: counterclockwise. Port 3: host.
const CW: u64 = 1;
const CCW: u64 = 2;
const HOST_PORT: u64 = 3;

/// The VLAN value marking the reroute trigger packet.
pub const TRIGGER_VLAN: u64 = 99;

/// The host attached to ring switch `i` (switches are `1..=n`).
pub fn host(i: u64) -> u64 {
    100 + i
}

/// A ring instance of the given diameter (H1-to-H2 distance).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ring {
    /// Distance from H1 to H2 (the paper sweeps 2–8).
    pub diameter: u64,
}

impl Ring {
    /// Creates a ring; `diameter ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `diameter == 0`.
    pub fn new(diameter: u64) -> Ring {
        assert!(diameter >= 1, "diameter must be at least 1");
        Ring { diameter }
    }

    /// Number of switches (`2 · diameter`).
    pub fn switch_count(&self) -> u64 {
        2 * self.diameter
    }

    /// The measurement source host (at switch 1).
    pub fn h1(&self) -> u64 {
        host(1)
    }

    /// The measurement destination host (at the opposite switch).
    pub fn h2(&self) -> u64 {
        host(self.diameter + 1)
    }

    fn clockwise_next(&self, sw: u64) -> u64 {
        sw % self.switch_count() + 1
    }

    /// Clockwise hop distance from `from` to `to`.
    fn cw_distance(&self, from: u64, to: u64) -> u64 {
        let n = self.switch_count();
        (to + n - from) % n
    }

    /// Builds a shortest-path configuration: each destination is reached in
    /// whichever direction is shorter; exact ties (destinations at distance
    /// `diameter`, like H1↔H2) break clockwise when `clockwise` is set and
    /// counterclockwise otherwise.
    ///
    /// Only the tie-broken flows change when the event flips the direction
    /// — neighbour traffic always takes its one-hop shortest path, which is
    /// what lets the Fig. 16(b) experiment measure hop-by-hop digest
    /// propagation.
    pub fn config(&self, clockwise: bool) -> Config {
        let n = self.switch_count();
        let mut config = Config::new();
        for sw in 1..=n {
            let mut rules = Vec::new();
            for dst_sw in 1..=n {
                let cw_dist = self.cw_distance(sw, dst_sw);
                let ccw_dist = n - cw_dist;
                let out = if dst_sw == sw {
                    HOST_PORT
                } else if cw_dist < ccw_dist || (cw_dist == ccw_dist && clockwise) {
                    CW
                } else {
                    CCW
                };
                rules.push(Rule::new(
                    Match::new().with(Field::IpDst, host(dst_sw)),
                    ActionSet::single(Action::assign(Field::Port, out)),
                ));
            }
            config.install(sw, FlowTable::from_rules(rules));
            config.add_host(host(sw), Loc::new(sw, HOST_PORT));
            let next = self.clockwise_next(sw);
            config.add_link(Loc::new(sw, CW), Loc::new(next, CCW));
            config.add_link(Loc::new(next, CCW), Loc::new(sw, CW));
        }
        config
    }

    /// Builds the two-state NES: clockwise until the trigger event at
    /// switch 1's host port, then counterclockwise.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant failure.
    pub fn nes(&self) -> NetworkEventStructure {
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(
                e0,
                netkat::Pred::test(Field::Vlan, TRIGGER_VLAN),
                Loc::new(1, HOST_PORT),
            )],
            [EventSet::singleton(e0)],
        );
        NetworkEventStructure::new(
            es,
            [(EventSet::empty(), self.config(true)), (EventSet::singleton(e0), self.config(false))],
        )
        .expect("both event-sets have configurations")
    }

    /// The simulation topology with the given link latency/capacity.
    pub fn sim_topology(&self, latency: SimTime, capacity: Option<u64>) -> SimTopology {
        let n = self.switch_count();
        let mut topo = SimTopology::new(1..=n);
        for sw in 1..=n {
            topo = topo.host(host(sw), Loc::new(sw, HOST_PORT));
            let next = self.clockwise_next(sw);
            topo = topo
                .link(LinkSpec {
                    src: Loc::new(sw, CW),
                    dst: Loc::new(next, CCW),
                    latency,
                    capacity,
                })
                .link(LinkSpec {
                    src: Loc::new(next, CCW),
                    dst: Loc::new(sw, CW),
                    latency,
                    capacity,
                });
        }
        topo
    }

    /// The trigger packet H1 injects to flip the ring direction.
    pub fn trigger_packet(&self) -> Packet {
        Packet::new()
            .with(Field::IpSrc, self.h1())
            .with(Field::IpDst, self.h2())
            .with(Field::Vlan, TRIGGER_VLAN)
            .with(Field::IpProto, netsim::traffic::PROTO_UDP)
    }

    /// Hop count from H1 to H2 in each direction (clockwise, ccw).
    pub fn path_lengths(&self) -> (u64, u64) {
        let cw = self.cw_distance(1, self.diameter + 1);
        (cw, self.switch_count() - cw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::checked_engine;
    use nes_runtime::{nes_engine, StaticDataPlane};
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{Engine, SimParams};

    #[test]
    fn geometry() {
        let ring = Ring::new(4);
        assert_eq!(ring.switch_count(), 8);
        assert_eq!(ring.h1(), 101);
        assert_eq!(ring.h2(), 105);
        assert_eq!(ring.path_lengths(), (4, 4));
        let r3 = Ring::new(3);
        assert_eq!(r3.path_lengths(), (3, 3));
    }

    #[test]
    fn configs_route_all_pairs() {
        let ring = Ring::new(2);
        for clockwise in [true, false] {
            let config = ring.config(clockwise);
            assert_eq!(config.switches().count(), 4);
            // Every switch has one rule per destination.
            for sw in 1..=4 {
                assert_eq!(config.table(sw).unwrap().len(), 4);
            }
        }
    }

    #[test]
    fn static_plane_delivers_clockwise() {
        let ring = Ring::new(3);
        let topo = ring.sim_topology(SimTime::from_micros(50), None);
        let mut engine = Engine::new(
            topo,
            SimParams::default(),
            StaticDataPlane::new(ring.config(true)),
            Box::new(ScenarioHosts::new()),
        );
        let pings =
            vec![Ping { time: SimTime::from_millis(1), src: ring.h1(), dst: ring.h2(), id: 1 }];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(ping_outcomes(&pings, &result.stats)[0].replied.is_some());
    }

    #[test]
    fn reroute_flips_direction_and_stays_consistent() {
        let ring = Ring::new(3);
        let topo = ring.sim_topology(SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(ring.nes(), topo, false);
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: ring.h1(), dst: ring.h2(), id: 1 },
            Ping { time: SimTime::from_millis(200), src: ring.h1(), dst: ring.h2(), id: 2 },
        ];
        schedule_pings(&mut engine, &pings);
        engine.inject_at(SimTime::from_millis(100), ring.h1(), ring.trigger_packet());
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some(), "clockwise ping succeeds");
        assert!(o[1].replied.is_some(), "counterclockwise ping succeeds after flip");
        checker.verdict().expect("ring reroute run is consistent");
        // The event fired exactly once.
        assert_eq!(result.dataplane.fired_sequence().len(), 1);
    }

    #[test]
    fn trigger_reaches_h2_too() {
        // The trigger is data traffic: it must itself be delivered
        // (clockwise — stamped before the flip).
        let ring = Ring::new(2);
        let topo = ring.sim_topology(SimTime::from_micros(50), None);
        let mut engine = nes_engine(
            ring.nes(),
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        engine.inject_at(SimTime::from_millis(1), ring.h1(), ring.trigger_packet());
        let result = engine.run_until(SimTime::from_secs(1));
        assert_eq!(result.stats.deliveries.len(), 1);
        assert_eq!(result.stats.deliveries[0].host, ring.h2());
    }
}

#[cfg(test)]
mod generator_agreement {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The `edn-topo` ring generator reproduces the hand-built Section
        /// 5.2 ring exactly — same switches, same port conventions, links in
        /// the same order, hosts at the same attachment points (ids differ:
        /// the generator numbers hosts from `HOST_BASE`).
        #[test]
        fn generated_ring_matches_hand_built(diameter in 1u64..=8) {
            let hand = Ring::new(diameter).sim_topology(SimTime::from_micros(50), None);
            let gen = edn_topo::ring(
                2 * diameter,
                edn_topo::LinkProfile::new(SimTime::from_micros(50)),
            );
            prop_assert_eq!(gen.sim().switches(), hand.switches());
            prop_assert_eq!(gen.sim().links(), hand.links());
            prop_assert_eq!(gen.sim().host_latency, hand.host_latency);
            let gen_locs: Vec<netkat::Loc> = gen.sim().hosts().map(|(_, l)| l).collect();
            let hand_locs: Vec<netkat::Loc> = hand.hosts().map(|(_, l)| l).collect();
            prop_assert_eq!(gen_locs, hand_locs);
        }

        /// And the 4-node case agrees in routing too: the generated ring's
        /// shortest-path config gives every switch one rule per host, like
        /// `Ring::config`.
        #[test]
        fn generated_ring_routes_all_pairs(diameter in 1u64..=4) {
            let n = 2 * diameter;
            let gen = edn_topo::ring(n, edn_topo::LinkProfile::default());
            let config = edn_topo::shortest_path_config(&gen);
            for sw in 1..=n {
                prop_assert_eq!(config.table(sw).unwrap().len(), n as usize);
            }
        }
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::scenario::checked_engine;
    use nes_runtime::nes_engine;
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{DropReason, SimParams, SimTime};

    /// The paper's "link failure recovery" application pattern: the
    /// clockwise path loses a link; the operator's trigger packet flips the
    /// ring to counterclockwise forwarding, restoring connectivity — and
    /// the whole episode is still event-driven consistent.
    #[test]
    fn reroute_recovers_from_a_link_failure() {
        let ring = Ring::new(3);
        let topo = ring.sim_topology(SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(ring.nes(), topo, false);
        // The clockwise H1->H2 path uses switches 1..=4; cut the 2->3
        // direction (a unidirectional fibre failure). After the flip,
        // requests go counterclockwise (1->6->5->4) and replies come back
        // 4->3->2->1 over the *healthy* 3->2 direction.
        engine.fail_link_at(SimTime::from_millis(500), Loc::new(2, 1), Loc::new(3, 2));
        let pings = vec![
            // Healthy clockwise ping.
            Ping { time: SimTime::from_millis(1), src: ring.h1(), dst: ring.h2(), id: 1 },
            // After the cut: the clockwise path is dead.
            Ping { time: SimTime::from_millis(600), src: ring.h1(), dst: ring.h2(), id: 2 },
            // After the operator's reroute: the counterclockwise path works.
            Ping { time: SimTime::from_millis(1_500), src: ring.h1(), dst: ring.h2(), id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        // The reroute trigger at 1 s.
        engine.inject_at(SimTime::from_secs(1), ring.h1(), ring.trigger_packet());
        let result = engine.run_until(SimTime::from_secs(3));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some(), "healthy path works");
        assert!(!o[1].request_delivered, "cut path drops");
        assert!(o[2].replied.is_some(), "rerouted path recovers");
        assert!(result.stats.drop_count(Some(DropReason::LinkDown)) >= 1);
        checker.verdict().expect("failure-recovery run is consistent");
    }

    /// Failures are inert before their scheduled time and direction-scoped.
    #[test]
    fn failure_injection_is_scoped() {
        let ring = Ring::new(2);
        let topo = ring.sim_topology(SimTime::from_micros(50), None);
        let mut engine = nes_engine(
            ring.nes(),
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        // Fail only the direction NOT used by the clockwise request path;
        // the reply comes back along its own shortest path (distance ties
        // break clockwise), so traffic is unaffected.
        engine.fail_link_at(SimTime::ZERO, Loc::new(3, 2), Loc::new(2, 1));
        let pings =
            vec![Ping { time: SimTime::from_millis(1), src: ring.h1(), dst: ring.h2(), id: 1 }];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(ping_outcomes(&pings, &result.stats)[0].replied.is_some());
    }
}
