//! The routing queries against their specification.
//!
//! [`reference_next_hops`] is the breadth-first search `SwitchGraph` ran
//! before it moved onto dense indices — `BTreeMap` distances, adjacency and
//! result, one tree probe per step — kept here, over nothing but the public
//! `switches()` / `links()`, as what `next_hop_ports` and `route` must keep
//! answering: same reachability, same tie-break `(neighbour distance,
//! neighbour id, port)`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use netkat::Loc;
use netsim::{LinkSpec, SimTime, SimTopology};
use proptest::prelude::*;

/// Next hops toward `dst_sw` by BFS over reversed edges on ordered maps. An
/// edge joins two declared switches; a link with an undeclared end is not
/// part of the graph.
fn reference_next_hops(topo: &SimTopology, dst_sw: u64) -> BTreeMap<u64, u64> {
    let declared: BTreeSet<u64> = topo.switches().iter().copied().collect();
    if !declared.contains(&dst_sw) {
        return BTreeMap::new();
    }
    let mut adj: BTreeMap<u64, Vec<(u64, u64)>> =
        declared.iter().map(|&s| (s, Vec::new())).collect();
    let mut rev: BTreeMap<u64, Vec<u64>> = adj.keys().map(|&s| (s, Vec::new())).collect();
    for l in topo.links() {
        if declared.contains(&l.src.sw) && declared.contains(&l.dst.sw) {
            adj.get_mut(&l.src.sw).expect("declared").push((l.src.pt, l.dst.sw));
            rev.get_mut(&l.dst.sw).expect("declared").push(l.src.sw);
        }
    }
    let mut dist: BTreeMap<u64, u64> = BTreeMap::new();
    dist.insert(dst_sw, 0);
    let mut frontier = VecDeque::from([dst_sw]);
    while let Some(sw) = frontier.pop_front() {
        let d = dist[&sw];
        for &p in &rev[&sw] {
            dist.entry(p).or_insert_with(|| {
                frontier.push_back(p);
                d + 1
            });
        }
    }
    let mut next = BTreeMap::new();
    for (&sw, ports) in &adj {
        if sw == dst_sw {
            continue;
        }
        let best = ports.iter().filter_map(|&(pt, nb)| dist.get(&nb).map(|&d| (d, nb, pt))).min();
        if let Some((_, _, pt)) = best {
            next.insert(sw, pt);
        }
    }
    next
}

/// The link sequence the reference next hops walk from `src_sw`.
fn reference_route(topo: &SimTopology, src_sw: u64, dst_sw: u64) -> Option<Vec<LinkSpec>> {
    let next = reference_next_hops(topo, dst_sw);
    let mut path = Vec::new();
    let mut at = src_sw;
    while at != dst_sw {
        let link = *topo.link_from(Loc::new(at, *next.get(&at)?))?;
        at = link.dst.sw;
        path.push(link);
    }
    Some(path)
}

/// A graph over `n` switches with sparse ids (`3i + 2`, so an index is never
/// its own id): each `(a, b, both, kept)` draws a cable from a fresh port of
/// `a` to a fresh port of `b`, one-way unless `both`, and leaves it out
/// unless `kept` — parallel cables, one-way links and islands all occur.
fn graph(n: u64, cables: &[(u64, u64, bool, bool)]) -> SimTopology {
    let id = |i: u64| 3 * (i % n) + 2;
    let lat = SimTime::from_micros(10);
    let mut ports: BTreeMap<u64, u64> = BTreeMap::new();
    let mut fresh = |sw: u64| {
        let p = ports.entry(sw).or_insert(0);
        *p += 1;
        *p
    };
    let mut topo = SimTopology::new((0..n).map(id));
    for &(a, b, both, kept) in cables {
        let (a, b) = (id(a), id(b));
        if a == b {
            continue;
        }
        let (src, dst) = (Loc::new(a, fresh(a)), Loc::new(b, fresh(b)));
        if !kept {
            continue;
        }
        topo = topo.link(LinkSpec::new(src, dst, lat));
        if both {
            topo = topo.link(LinkSpec::new(dst, src, lat));
        }
    }
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Toward every destination — each switch, and an id that is not one —
    /// the graph answers what the reference answers: unreachable switches
    /// absent, the destination absent, ties broken alike; asked through the
    /// prebuilt graph or through the topology.
    #[test]
    fn dense_next_hops_equal_the_reference(
        n in 1u64..=12,
        cables in proptest::collection::vec((0u64..12, 0u64..12, any::<bool>(), any::<bool>()), 0..40),
    ) {
        let topo = graph(n, &cables);
        let g = topo.switch_graph();
        for dst in topo.switches().iter().copied().chain([1, 3 * n + 2]) {
            let expected = reference_next_hops(&topo, dst);
            prop_assert!(!expected.contains_key(&dst));
            prop_assert_eq!(&g.next_hop_ports(dst), &expected, "toward {}", dst);
            prop_assert_eq!(&topo.next_hop_ports(dst), &expected, "toward {} (per call)", dst);
        }
    }

    /// `route` walks exactly the reference's hops, and gives up exactly
    /// where the reference has none.
    #[test]
    fn routes_walk_the_reference_hops(
        n in 2u64..=9,
        cables in proptest::collection::vec((0u64..9, 0u64..9, any::<bool>(), any::<bool>()), 0..24),
    ) {
        let topo = graph(n, &cables);
        for &src in topo.switches() {
            for &dst in topo.switches() {
                prop_assert_eq!(topo.route(src, dst), reference_route(&topo, src, dst), "{} -> {}", src, dst);
            }
        }
    }
}
