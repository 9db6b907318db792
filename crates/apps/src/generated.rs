//! The case-study applications generalized to *generated* topologies.
//!
//! The hand-written firewall and learning-switch programs (Figs. 9(a)/(b))
//! are tied to their 2- and 3-switch Fig. 8 topologies. The builders here
//! lift both applications to any connected [`GenTopology`] — fat-trees,
//! tori, rings, random graphs — by constructing the NES directly from
//! shortest-path flow tables, the same way the paper auto-generates its
//! Section 5.2 scalability programs. This is what lets the consistency
//! machinery be exercised at hundred-switch scale instead of on toys.

use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
use edn_topo::{shortest_path_config, GenTopology};
use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Pred, Rule};

/// The VLAN value stamped on pre-learning flood copies so downstream
/// switches can steer them to the shadow host without rewriting `ip_dst`.
pub const FLOOD_MARK: u64 = 1;

/// The hops `config` forwards traffic for `ip_dst = host` along, entering
/// at `from`: per switch the location it arrives at and the port it leaves
/// on, `from` first and the host's attachment switch last. The walk reads
/// the routing the caller just built, over the topology's links.
///
/// # Panics
///
/// Panics if some switch on the way has no rule for `host`.
fn hops_toward(gen: &GenTopology, config: &Config, from: Loc, host: u64) -> Vec<(Loc, u64)> {
    let dst_sw = gen.attachment(host).expect("the destination is a host").sw;
    let mut hops = Vec::new();
    let mut at = from;
    loop {
        let out = config
            .table(at.sw)
            .and_then(|table| table.iter().find(|r| r.pattern.get(Field::IpDst) == Some(host)))
            .and_then(|rule| rule.actions.iter().next()?.get(Field::Port))
            .unwrap_or_else(|| panic!("no route from switch {} to {dst_sw}", from.sw));
        hops.push((at, out));
        if at.sw == dst_sw {
            return hops;
        }
        assert!(hops.len() <= gen.switch_count(), "the routing toward {host} loops");
        at = gen.sim().link_from(Loc::new(at.sw, out)).expect("routing follows links").dst;
    }
}

/// Where traffic for `ip_dst = host` entering at `from` arrives at the
/// host's attachment switch, following `config`.
fn arrival(gen: &GenTopology, config: &Config, from: Loc, host: u64) -> Loc {
    hops_toward(gen, config, from, host).last().expect("a walk has a first hop").0
}

/// Replaces `sw`'s table with an edited copy of its rules. The applications
/// below derive one configuration from another this way — clone the routed
/// configuration, edit the few switches that differ — so every other table
/// stays the allocation it was, and whoever compares or indexes the two
/// configurations (the plane, the checker) sees that at a glance.
fn edit_table(config: &mut Config, sw: u64, edit: impl FnOnce(&mut Vec<Rule>)) {
    let mut rules: Vec<Rule> =
        config.table(sw).expect("routed switches carry tables").iter().cloned().collect();
    edit(&mut rules);
    config.install(sw, FlowTable::from_rules(rules));
}

/// Builds a stateful firewall NES over an arbitrary generated topology.
///
/// Semantics as in Figs. 8(a)/9(a), lifted: `outside → inside` traffic is
/// blocked at `outside`'s attachment switch until `inside` has contacted
/// `outside`; the single event is `inside`'s traffic (`ip_src = inside &
/// ip_dst = outside`) arriving at `outside`'s attachment switch on the
/// shortest path's ingress port. The source conjunct matters on generated
/// topologies: shortest paths converge, so third-party traffic to `outside`
/// shares that ingress port and must not open the firewall. All other pairs
/// forward on shortest paths throughout.
///
/// # Panics
///
/// Panics if either id is not a host of `gen`, the hosts are equal, or
/// their attachment switches cannot reach each other.
pub fn firewall_nes(gen: &GenTopology, inside: u64, outside: u64) -> NetworkEventStructure {
    assert_ne!(inside, outside, "firewall endpoints must differ");
    let in_at = gen.attachment(inside).expect("inside must be a host");
    let out_at = gen.attachment(outside).expect("outside must be a host");
    let open = shortest_path_config(gen);
    let mut closed = open.clone();
    edit_table(&mut closed, out_at.sw, |rules| {
        rules.insert(
            0,
            Rule::new(
                Match::new().with(Field::IpSrc, outside).with(Field::IpDst, inside),
                ActionSet::drop(),
            ),
        );
    });
    let e0 = EventId::new(0);
    let es = EventStructure::new(
        vec![Event::new(
            e0,
            Pred::test(Field::IpSrc, inside).and(Pred::test(Field::IpDst, outside)),
            arrival(gen, &open, in_at, outside),
        )],
        [EventSet::singleton(e0)],
    );
    NetworkEventStructure::new(es, [(EventSet::empty(), closed), (EventSet::singleton(e0), open)])
        .expect("both event-sets have configurations")
}

/// Builds a learning-switch NES over an arbitrary generated topology.
///
/// Semantics as in Figs. 8(b)/9(b), lifted: until `learner` has heard back
/// from `target`, traffic `learner → target` is "flooded" — a second copy,
/// stamped [`FLOOD_MARK`], is steered to the `shadow` host; once `target`'s
/// reply (`ip_src = target & ip_dst = learner`) reaches `learner`'s
/// attachment switch (the event), forwarding collapses to point-to-point
/// shortest paths. The source conjunct keeps third-party traffic to
/// `learner` on the shared ingress port from ending the flooding phase.
///
/// # Panics
///
/// Panics if the three ids are not distinct hosts of `gen`, or the relevant
/// attachment switches cannot reach each other.
pub fn learning_nes(
    gen: &GenTopology,
    learner: u64,
    target: u64,
    shadow: u64,
) -> NetworkEventStructure {
    assert!(
        learner != target && learner != shadow && target != shadow,
        "learner, target, and shadow must be distinct"
    );
    let learner_at = gen.attachment(learner).expect("learner must be a host");
    let target_at = gen.attachment(target).expect("target must be a host");
    let learned = shortest_path_config(gen);
    let mut flooding = learned.clone();
    // The path the shadow's own traffic takes from the learner's switch.
    let to_shadow = hops_toward(gen, &learned, learner_at, shadow);
    // At the learner's switch, the target rule becomes a two-way multicast:
    // the original shortest-path copy plus a marked copy toward the shadow.
    let shadow_copy = Action::assign(Field::Port, to_shadow[0].1).set(Field::Vlan, FLOOD_MARK);
    edit_table(&mut flooding, learner_at.sw, |rules| {
        let rule = rules
            .iter_mut()
            .find(|r| r.pattern.get(Field::IpDst) == Some(target))
            .expect("the target is routable from the learner's switch");
        rule.actions = rule.actions.union(&ActionSet::single(shadow_copy));
    });
    // Downstream of the learner's switch, marked copies ride dedicated
    // rules toward the shadow (prepended: first match wins).
    for &(at, out) in &to_shadow[1..] {
        edit_table(&mut flooding, at.sw, |rules| {
            rules.insert(
                0,
                Rule::new(
                    Match::new().with(Field::Vlan, FLOOD_MARK),
                    ActionSet::single(Action::assign(Field::Port, out)),
                ),
            );
        });
    }
    let e0 = EventId::new(0);
    let es = EventStructure::new(
        vec![Event::new(
            e0,
            Pred::test(Field::IpSrc, target).and(Pred::test(Field::IpDst, learner)),
            arrival(gen, &learned, target_at, learner),
        )],
        [EventSet::singleton(e0)],
    );
    NetworkEventStructure::new(
        es,
        [(EventSet::empty(), flooding), (EventSet::singleton(e0), learned)],
    )
    .expect("both event-sets have configurations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::checked_engine;
    use edn_topo::{fat_tree, linear, ring, torus, waxman, LinkProfile, TierProfile, WaxmanParams};

    use netsim::traffic::{
        ping_outcomes, proto_packets_delivered, schedule_pings, Ping, PROTO_PING_REQUEST,
    };
    use netsim::SimTime;

    #[test]
    fn generated_firewall_blocks_then_opens_on_a_chain() {
        let gen = linear(3, LinkProfile::default());
        let (inside, outside) = (gen.hosts()[0], gen.hosts()[2]);
        let (mut engine, checker) =
            checked_engine(firewall_nes(&gen, inside, outside), gen.sim().clone(), false);
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: outside, dst: inside, id: 1 },
            Ping { time: SimTime::from_millis(100), src: inside, dst: outside, id: 2 },
            Ping { time: SimTime::from_millis(200), src: outside, dst: inside, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(!o[0].request_delivered, "outside->inside blocked before the event");
        assert!(o[1].replied.is_some(), "inside->outside answered");
        assert!(o[2].replied.is_some(), "outside->inside allowed after the event");
        checker.verdict().expect("generated firewall run is consistent");
    }

    #[test]
    fn generated_firewall_works_across_fat_tree_pods() {
        let gen = fat_tree(4, TierProfile::default());
        // First and last host: different pods, so the path crosses the core.
        let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().unwrap());
        let nes = firewall_nes(&gen, inside, outside);
        assert_eq!(nes.events().len(), 1);
        let (mut engine, checker) = checked_engine(nes, gen.sim().clone(), false);
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: outside, dst: inside, id: 1 },
            Ping { time: SimTime::from_millis(100), src: inside, dst: outside, id: 2 },
            Ping { time: SimTime::from_millis(200), src: outside, dst: inside, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(!o[0].request_delivered && o[1].replied.is_some() && o[2].replied.is_some());
        checker.verdict().expect("fat-tree firewall run is consistent");
    }

    #[test]
    fn generated_firewall_leaves_third_parties_alone() {
        // On a fat-tree, hosts not named by the firewall ping freely in
        // either state — and, crucially, a third party contacting `outside`
        // does NOT open the firewall (the event requires ip_src = inside,
        // not just any traffic on the shared ingress port).
        let gen = fat_tree(4, TierProfile::default());
        let (inside, outside) = (gen.hosts()[0], gen.hosts()[15]);
        let (a, b) = (gen.hosts()[5], gen.hosts()[10]);
        let (mut engine, checker) =
            checked_engine(firewall_nes(&gen, inside, outside), gen.sim().clone(), false);
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: a, dst: b, id: 1 },
            Ping { time: SimTime::from_millis(20), src: b, dst: outside, id: 2 },
            // After b contacted outside, outside -> inside must STILL be
            // blocked: inside never contacted outside.
            Ping { time: SimTime::from_millis(100), src: outside, dst: inside, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some() && o[1].replied.is_some());
        assert!(!o[2].request_delivered, "third-party traffic must not open the firewall");
        assert!(result.dataplane.fired_sequence().is_empty(), "event must not fire");
        checker.verdict().expect("closed-firewall run is consistent");
    }

    #[test]
    fn generated_learning_floods_then_learns() {
        let gen = linear(3, LinkProfile::default());
        // Learner at one end, target at the other, shadow in the middle —
        // the flood branch and the target path share the first hop.
        let (target, shadow, learner) = (gen.hosts()[0], gen.hosts()[1], gen.hosts()[2]);
        let (mut engine, checker) =
            checked_engine(learning_nes(&gen, learner, target, shadow), gen.sim().clone(), false);
        let pings: Vec<Ping> = (0..10)
            .map(|i| Ping {
                time: SimTime::from_millis(100 * i + 10),
                src: learner,
                dst: target,
                id: i,
            })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        let to_target = proto_packets_delivered(&result.stats, target, PROTO_PING_REQUEST);
        let to_shadow = proto_packets_delivered(&result.stats, shadow, PROTO_PING_REQUEST);
        assert_eq!(to_target, 10, "target receives every request");
        assert!((1..=2).contains(&to_shadow), "flooding stops after learning, got {to_shadow}");
        assert!(ping_outcomes(&pings, &result.stats).iter().all(|p| p.replied.is_some()));
        checker.verdict().expect("generated learning run is consistent");
    }

    #[test]
    fn generated_learning_on_a_fat_tree() {
        let gen = fat_tree(4, TierProfile::default());
        // Learner and target in different pods; shadow in a third pod.
        let (learner, target, shadow) = (gen.hosts()[0], gen.hosts()[15], gen.hosts()[8]);
        let (mut engine, checker) =
            checked_engine(learning_nes(&gen, learner, target, shadow), gen.sim().clone(), false);
        let pings: Vec<Ping> = (0..6)
            .map(|i| Ping {
                time: SimTime::from_millis(100 * i + 10),
                src: learner,
                dst: target,
                id: i,
            })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        let to_target = proto_packets_delivered(&result.stats, target, PROTO_PING_REQUEST);
        let to_shadow = proto_packets_delivered(&result.stats, shadow, PROTO_PING_REQUEST);
        assert_eq!(to_target, 6);
        assert!(to_shadow <= 2, "flooding stops after learning, got {to_shadow}");
        checker.verdict().expect("fat-tree learning run is consistent");
    }

    /// The specification of where the applications' events sit: the port
    /// at `dst_sw` where traffic from the host attached at `src_at` arrives,
    /// following the topology's own deterministic shortest path.
    fn ingress_port(gen: &GenTopology, src_at: Loc, dst_sw: u64) -> u64 {
        if src_at.sw == dst_sw {
            return src_at.pt;
        }
        let path = gen.sim().route(src_at.sw, dst_sw).expect("connected");
        path.last().expect("distinct switches give a nonempty path").dst.pt
    }

    /// The specification's output port at `sw` toward the host attached at
    /// `dst_at`.
    fn port_toward(gen: &GenTopology, sw: u64, dst_at: Loc) -> u64 {
        if sw == dst_at.sw {
            return dst_at.pt;
        }
        gen.sim().next_hop_ports(dst_at.sw)[&sw]
    }

    /// The marked rules of a learning NES's flooding configuration, as
    /// `(switch, out port)`, ascending.
    fn marked_rules(config: &Config) -> Vec<(u64, u64)> {
        let marked = Match::new().with(Field::Vlan, FLOOD_MARK);
        let first = |sw| config.table(sw).and_then(|t| t.iter().next());
        let steer = |sw| first(sw).filter(|r| r.pattern == marked).map(|r| (sw, r.actions.clone()));
        let port = |actions: ActionSet| actions.iter().next().and_then(|a| a.get(Field::Port));
        config.switches().filter_map(steer).map(|(sw, a)| (sw, port(a).expect("a port"))).collect()
    }

    /// The firewall's and the learning switch's event locations, and the
    /// learning switch's shadow copy and marked rules, are where the
    /// topology's own shortest paths put them: reading the routing just
    /// built gives what routing the topology again gave.
    #[test]
    fn event_locations_and_shadow_paths_follow_the_topology_routes() {
        let waxman_at = |seed| waxman(24, WaxmanParams { seed, ..WaxmanParams::default() });
        let gens = [
            fat_tree(4, TierProfile::default()),
            fat_tree(8, TierProfile::default()),
            torus(4, 5, LinkProfile::default()),
            ring(9, LinkProfile::default()),
            waxman_at(1),
            waxman_at(2),
            waxman_at(3),
        ];
        for gen in &gens {
            let h = gen.hosts();
            let n = h.len();
            // `(a, b, c)`: the firewall's inside and outside are `a` and
            // `b`; the learner, target and shadow are `a`, `b` and `c`.
            let triples = [(0, n - 1, n / 2), (1, n / 3, 2 * n / 3), (n - 2, 0, 1), (0, n - 1, 1)];
            for (a, b, c) in triples.map(|(a, b, c)| (h[a], h[b], h[c])) {
                let at = |host| gen.attachment(host).expect("a host");
                let name = gen.name();

                let firewall = firewall_nes(gen, a, b);
                let want = Loc::new(at(b).sw, ingress_port(gen, at(a), at(b).sw));
                assert_eq!(firewall.events()[0].loc, want, "{name}: firewall {a} -> {b}");

                let (learner, target, shadow) = (a, b, c);
                let learning = learning_nes(gen, learner, target, shadow);
                let want = Loc::new(at(learner).sw, ingress_port(gen, at(target), at(learner).sw));
                assert_eq!(learning.events()[0].loc, want, "{name}: learning event");
                let flooding = learning.config(EventSet::empty());
                let copy = flooding
                    .table(at(learner).sw)
                    .and_then(|t| t.iter().find(|r| r.pattern.get(Field::IpDst) == Some(target)))
                    .expect("the target is routed");
                let shadow_port = port_toward(gen, at(learner).sw, at(shadow));
                let shadow_copy =
                    Action::assign(Field::Port, shadow_port).set(Field::Vlan, FLOOD_MARK);
                assert!(copy.actions.iter().any(|a| *a == shadow_copy), "{name}: shadow copy");
                let path = gen.sim().route(at(learner).sw, at(shadow).sw).expect("connected");
                let mut want: Vec<(u64, u64)> = path
                    .iter()
                    .map(|link| (link.dst.sw, port_toward(gen, link.dst.sw, at(shadow))))
                    .collect();
                want.sort_unstable();
                assert_eq!(marked_rules(flooding), want, "{name}: marked rules toward {shadow}");
            }
        }
    }
}
