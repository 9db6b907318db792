//! The grouped routing synthesis against an independent specification: per
//! switch, one `rules_toward` rule per host in ascending host order, and a
//! group for exactly the switches whose lists are equal. Plus the bulk-built
//! topology of a configuration against the one built link by link.

use std::collections::BTreeMap;

use edn_core::Config;
use edn_topo::{
    fat_tree, per_switch, ring, rules_toward, shortest_path_config, shortest_path_groups, torus,
    waxman, with_mobile_twin, GenTopology, LinkProfile, TierProfile, WaxmanParams, HOST_BASE,
};
use netkat::{Loc, Rule};
use netsim::{SimTime, SimTopology};
use proptest::prelude::*;

/// Every switch's rules as the specification has them: for each host in
/// ascending order, the `rules_toward` rule at that switch, if it has one.
fn spec_rules(gen: &GenTopology) -> BTreeMap<u64, Vec<Rule>> {
    let toward: Vec<BTreeMap<u64, Rule>> = gen
        .hosts()
        .iter()
        .map(|&h| rules_toward(gen, gen.attachment(h).expect("attached"), h))
        .collect();
    let at = |sw| toward.iter().filter_map(|rules| rules.get(&sw).cloned()).collect();
    gen.sim().switches().iter().map(|&sw| (sw, at(sw))).collect()
}

/// The topology of `gen` built one link and one host at a time.
fn by_hand(gen: &GenTopology) -> Config {
    let mut config = Config::new();
    for l in gen.sim().links() {
        config.add_link(l.src, l.dst);
    }
    for (host, at) in gen.sim().hosts() {
        config.add_host(host, at);
    }
    config
}

/// The topology of `gen` built in bulk.
fn in_bulk(gen: &GenTopology) -> Config {
    let links = gen.sim().links().iter().map(|l| (l.src, l.dst));
    Config::from_topology(links, gen.sim().hosts())
}

fn arb_topology() -> impl Strategy<Value = GenTopology> {
    (0u8..5, 8u64..32, any::<u64>(), 2u64..6, 2u64..6, any::<u64>()).prop_map(
        |(kind, n, seed, rows, cols, twin)| {
            let gen = match kind {
                0 => waxman(n, WaxmanParams { seed, ..WaxmanParams::default() }),
                1 => torus(rows, cols, LinkProfile::default()),
                2 => ring(n % 12 + 2, LinkProfile::default()),
                3 => fat_tree(4, TierProfile::default()),
                _ => fat_tree(6, TierProfile::default()),
            };
            // Half the cases carry a mobile twin, whose column is part of
            // every switch's row.
            if twin % 2 == 0 {
                return gen;
            }
            let host = gen.hosts()[(twin / 2) as usize % gen.hosts().len()];
            let switches = gen.sim().switches();
            let to = switches[(twin / 64) as usize % switches.len()];
            with_mobile_twin(&gen, host, to)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Expanded per switch, the groups are the specification's lists; every
    /// switch is in exactly one group, listed in ascending order; and the
    /// groups are maximal: two switches share one exactly when their lists
    /// are equal.
    #[test]
    fn groups_are_the_per_host_rules_grouped_by_equal_lists(gen in arb_topology()) {
        let groups = shortest_path_groups(&gen);
        let want = spec_rules(&gen);
        let got: BTreeMap<u64, Vec<Rule>> =
            per_switch(&groups).into_iter().map(|(sw, rules)| (sw, rules.to_vec())).collect();
        prop_assert_eq!(&got, &want, "{}: per-switch lists", gen.name());
        let members: usize = groups.iter().map(|g| g.switches.len()).sum();
        prop_assert_eq!(members, want.len(), "{}: each switch in one group", gen.name());
        for g in &groups {
            prop_assert!(g.switches.windows(2).all(|w| w[0] < w[1]), "members ascend");
        }
        prop_assert!(groups.windows(2).all(|w| w[0].switches[0] < w[1].switches[0]));
        for (i, a) in groups.iter().enumerate() {
            for b in &groups[i + 1..] {
                prop_assert!(a.rules != b.rules, "{}: two groups, one list", gen.name());
            }
        }
    }
}

/// A configuration's links and hosts come out the same built in bulk as one
/// at a time — by value, and by the checker's topology test — on a
/// fat-tree and on a switch carrying two hosts.
#[test]
fn bulk_built_topology_equals_the_one_built_link_by_link() {
    let latency = SimTime::from_micros(5);
    let pair = SimTopology::new([1, 2])
        .host(HOST_BASE + 1, Loc::new(1, 3))
        .host(HOST_BASE + 2, Loc::new(1, 4))
        .host(HOST_BASE + 3, Loc::new(2, 3))
        .bilink(Loc::new(1, 1), Loc::new(2, 1), latency, None);
    let gens = [fat_tree(4, TierProfile::default()), GenTopology::from_sim("pair", pair)];
    for gen in &gens {
        let (bulk, hand) = (in_bulk(gen), by_hand(gen));
        assert_eq!(bulk, hand, "{}", gen.name());
        assert!(bulk.same_topology(&hand), "{}", gen.name());
        let routed = shortest_path_config(gen);
        assert!(routed.same_topology(&hand), "{}: the routed configuration's", gen.name());
        assert_eq!(routed.hosts().count(), gen.host_count());
    }
}

/// Rows that are equal only through a one-host column share a group:
/// switch 1's port 1 leads to switch 2's port 3, switch 1's host sits on
/// its port 3 and switch 2's on its port 1, so both switches send the first
/// host's packets out of port 3 and the second's out of port 1. A second
/// host on switch 1 has a port of its own there, which switch 2's one hop
/// toward switch 1 cannot match: the group splits.
#[test]
fn a_one_host_column_can_join_two_rows_and_a_second_host_splits_them() {
    let latency = SimTime::from_micros(5);
    let pair = SimTopology::new([1, 2])
        .host(HOST_BASE + 1, Loc::new(1, 3))
        .host(HOST_BASE + 2, Loc::new(2, 1))
        .bilink(Loc::new(1, 1), Loc::new(2, 3), latency, None);
    let crowded = pair.clone().host(HOST_BASE + 3, Loc::new(1, 2));
    let cases = [("pair", pair, vec![vec![1, 2]]), ("crowded", crowded, vec![vec![1], vec![2]])];
    for (name, topo, members) in cases {
        let gen = GenTopology::from_sim(name, topo);
        let groups = shortest_path_groups(&gen);
        let got: Vec<Vec<u64>> = groups.iter().map(|g| g.switches.clone()).collect();
        assert_eq!(got, members, "{name}: the groups' switches");
        let lists: BTreeMap<u64, Vec<Rule>> =
            per_switch(&groups).into_iter().map(|(sw, rules)| (sw, rules.to_vec())).collect();
        assert_eq!(lists, spec_rules(&gen), "{name}: per-switch lists");
    }
}
