//! Simulated topologies and timing/capacity parameters.

use std::collections::{BTreeMap, BTreeSet};

use netkat::Loc;

use crate::time::SimTime;

/// A directed simulated link with its timing characteristics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkSpec {
    /// Source location.
    pub src: Loc,
    /// Destination location.
    pub dst: Loc,
    /// Propagation latency.
    pub latency: SimTime,
    /// Capacity in bytes per second; `None` means infinite (no
    /// serialization delay, no queueing).
    pub capacity: Option<u64>,
}

impl LinkSpec {
    /// A link with the given latency and infinite capacity.
    pub fn new(src: Loc, dst: Loc, latency: SimTime) -> LinkSpec {
        LinkSpec { src, dst, latency, capacity: None }
    }

    /// Sets the capacity (builder style).
    pub fn with_capacity(mut self, bytes_per_sec: u64) -> LinkSpec {
        self.capacity = Some(bytes_per_sec);
        self
    }
}

/// The simulated network: switches, host attachments, and links.
///
/// # Examples
///
/// ```
/// use netsim::{SimTopology, SimTime};
/// use netkat::Loc;
/// let topo = SimTopology::new([1, 4])
///     .host(101, Loc::new(1, 2))
///     .host(104, Loc::new(4, 2))
///     .bilink(Loc::new(1, 1), Loc::new(4, 1), SimTime::from_micros(50), None);
/// assert_eq!(topo.attachment(101), Some(Loc::new(1, 2)));
/// assert!(topo.is_host(104));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimTopology {
    switches: Vec<u64>,
    hosts: BTreeMap<u64, Loc>,
    links: Vec<LinkSpec>,
    /// Index of each link by its source location (kept in lockstep with
    /// `links`). Serves both the duplicate guard in [`SimTopology::link`]
    /// and O(log L) [`SimTopology::link_from`]/[`SimTopology::link_index`]
    /// lookups.
    link_by_src: BTreeMap<Loc, usize>,
    /// Locations already carrying a host attachment (duplicate guard for
    /// [`SimTopology::host`], same rationale as `link_by_src`).
    host_locs: BTreeSet<Loc>,
    /// Latency of host attachment links.
    pub host_latency: SimTime,
}

impl SimTopology {
    /// Creates a topology over the given switches with a default host-link
    /// latency of 10 µs.
    pub fn new<I: IntoIterator<Item = u64>>(switches: I) -> SimTopology {
        SimTopology {
            switches: switches.into_iter().collect(),
            host_latency: SimTime::from_micros(10),
            ..SimTopology::default()
        }
    }

    /// Sets the host attachment-link latency (builder style).
    pub fn with_host_latency(mut self, latency: SimTime) -> SimTopology {
        self.host_latency = latency;
        self
    }

    /// Attaches a host at a switch location (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the host id collides with a switch id, or if the location
    /// already carries an attachment: a silent duplicate would make packet
    /// delivery at that location pick an arbitrary host.
    pub fn host(mut self, id: u64, attached: Loc) -> SimTopology {
        assert!(!self.switches.contains(&id), "host id {id} collides with a switch");
        assert!(
            self.host_locs.insert(attached),
            "duplicate host attachment at {}:{} (adding host {id}): one host per location",
            attached.sw,
            attached.pt,
        );
        self.hosts.insert(id, attached);
        self
    }

    /// Adds a unidirectional link (builder style).
    ///
    /// # Panics
    ///
    /// Panics if a link already leaves `spec.src`: each source location is
    /// one physical port and carries at most one cable, and a silent
    /// duplicate would make [`SimTopology::link_from`] pick an arbitrary
    /// winner. Generators producing multigraphs must dedup first.
    pub fn link(mut self, spec: LinkSpec) -> SimTopology {
        if self.link_by_src.insert(spec.src, self.links.len()).is_some() {
            duplicate_link(&spec);
        }
        self.links.push(spec);
        self
    }

    /// Adds both directions of a link with shared latency/capacity
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate source location, as for
    /// [`SimTopology::link`].
    pub fn bilink(self, a: Loc, b: Loc, latency: SimTime, capacity: Option<u64>) -> SimTopology {
        self.link(LinkSpec { src: a, dst: b, latency, capacity }).link(LinkSpec {
            src: b,
            dst: a,
            latency,
            capacity,
        })
    }

    /// Adds a batch of links (builder style) — the bulk-construction entry
    /// point for topology generators. The source index is rebuilt in one
    /// sorted pass over every link, not one tree insert per link.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate source location, as for
    /// [`SimTopology::link`], naming the link that adding them one at a time
    /// would have stopped at.
    pub fn extend_links<I: IntoIterator<Item = LinkSpec>>(mut self, specs: I) -> SimTopology {
        self.links.extend(specs);
        let mut by_src: Vec<(Loc, usize)> =
            self.links.iter().enumerate().map(|(i, l)| (l.src, i)).collect();
        by_src.sort_unstable();
        // Within a source, the second link is the first one a link-by-link
        // build would refuse; across sources, the earliest of those.
        let refused = by_src.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| w[1].1).min();
        if let Some(i) = refused {
            duplicate_link(&self.links[i]);
        }
        self.link_by_src = by_src.into_iter().collect();
        self
    }

    /// The switch identifiers.
    pub fn switches(&self) -> &[u64] {
        &self.switches
    }

    /// The hosts and their attachment points.
    pub fn hosts(&self) -> impl Iterator<Item = (u64, Loc)> + '_ {
        self.hosts.iter().map(|(&h, &l)| (h, l))
    }

    /// The inter-switch links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Returns `true` if `node` is a host.
    pub fn is_host(&self, node: u64) -> bool {
        self.hosts.contains_key(&node)
    }

    /// A host's attachment location.
    pub fn attachment(&self, host: u64) -> Option<Loc> {
        self.hosts.get(&host).copied()
    }

    /// The host (if any) attached at a switch-side location.
    pub fn host_at(&self, loc: Loc) -> Option<u64> {
        self.hosts.iter().find(|&(_, &l)| l == loc).map(|(&h, _)| h)
    }

    /// The link leaving `loc`, if any.
    pub fn link_from(&self, loc: Loc) -> Option<&LinkSpec> {
        self.link_by_src.get(&loc).map(|&i| &self.links[i])
    }

    /// The index (into [`SimTopology::links`]) of the link `src → dst`, if
    /// present. Link indices are stable: links are never removed.
    pub fn link_index(&self, src: Loc, dst: Loc) -> Option<usize> {
        self.link_by_src.get(&src).copied().filter(|&i| self.links[i].dst == dst)
    }

    /// The inter-switch adjacency implied by the links: for each switch, the
    /// `(out port, neighbour switch)` pairs in ascending port order — the
    /// edges of [`SimTopology::switch_graph`], keyed by switch id.
    pub fn switch_adjacency(&self) -> BTreeMap<u64, Vec<(u64, u64)>> {
        let graph = self.switch_graph();
        let named = |&(pt, nb): &(u64, u32)| (pt, graph.ids[nb as usize]);
        let ports = |i: usize| graph.ports(i).iter().map(named).collect();
        graph.ids.iter().enumerate().map(|(i, &sw)| (sw, ports(i))).collect()
    }

    /// The inter-switch graph routing queries run on — built once, then
    /// asked per destination ([`SwitchGraph::next_hop_ports`]) or for many
    /// at a time ([`SwitchGraph::next_hop_rows`]).
    ///
    /// This is where an edge is defined: a link joins two *declared*
    /// switches. A link with an end that is not in
    /// [`switches`](SimTopology::switches) (a host-side stub, a switch the
    /// caller forgot to declare) is not part of the graph, so nothing is
    /// routed through a switch that does not exist; a switch id declared
    /// twice is one switch.
    pub fn switch_graph(&self) -> SwitchGraph {
        let mut ids = self.switches.clone();
        ids.sort_unstable();
        ids.dedup();
        let index = |sw: u64| ids.binary_search(&sw).ok().map(|i| i as u32);
        // `(source, out port, neighbour)`: sorted, each switch's ports are
        // contiguous and ascending.
        let mut edges: Vec<(u32, u64, u32)> = self
            .links
            .iter()
            .filter_map(|l| Some((index(l.src.sw)?, l.src.pt, index(l.dst.sw)?)))
            .collect();
        edges.sort_unstable();
        let out_at = slice_starts(ids.len(), edges.iter().map(|e| e.0));
        let into_at = slice_starts(ids.len(), edges.iter().map(|e| e.2));
        let mut fill = into_at.clone();
        let mut into = vec![0u32; edges.len()];
        for &(src, _, dst) in &edges {
            into[fill[dst as usize] as usize] = src;
            fill[dst as usize] += 1;
        }
        let out = edges.into_iter().map(|(_, pt, nb)| (pt, nb)).collect();
        SwitchGraph { ids, out_at, out, into_at, into }
    }

    /// Shortest-path next hops toward `dst_sw`: for every switch that can
    /// reach it, the out port of a deterministic shortest path (ties break
    /// toward the lowest `(neighbour distance, neighbour id, port)`).
    ///
    /// `dst_sw` itself is not in the map. Unreachable switches are absent.
    /// Builds the graph per call: for many destinations on one topology,
    /// build a [`switch_graph`](SimTopology::switch_graph) and ask it.
    pub fn next_hop_ports(&self, dst_sw: u64) -> BTreeMap<u64, u64> {
        self.switch_graph().next_hop_ports(dst_sw)
    }
}

/// The panic of a link whose source location already carries one.
fn duplicate_link(spec: &LinkSpec) -> ! {
    panic!(
        "duplicate link out of {}:{} (to {}:{}): a source location carries at most one link",
        spec.src.sw, spec.src.pt, spec.dst.sw, spec.dst.pt,
    )
}

/// Where each of `n` keys' entries start in a flat array grouped by key
/// (`n + 1` offsets, the last one the total), from one key per entry.
fn slice_starts(n: usize, keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut at = vec![0u32; n + 1];
    keys.for_each(|k| at[k as usize + 1] += 1);
    (0..n).for_each(|i| at[i + 1] += at[i]);
    at
}

/// A topology's inter-switch links over dense switch indices — what
/// [`SimTopology::next_hop_ports`] rebuilds per call, kept for callers that
/// route toward many destinations.
///
/// A switch's index is its position in the sorted, deduplicated
/// [`switches`](SwitchGraph::switches); both adjacencies are flat arrays
/// sliced per switch, so a breadth-first pass touches a distance array and a
/// frontier and no map.
#[derive(Clone, Debug)]
pub struct SwitchGraph {
    /// The declared switch ids, ascending, each once.
    ids: Vec<u64>,
    /// `out[out_at[i]..out_at[i + 1]]`: switch `i`'s `(out port, neighbour
    /// index)` pairs in ascending port order.
    out_at: Vec<u32>,
    out: Vec<(u64, u32)>,
    /// `into[into_at[i]..into_at[i + 1]]`: the switches with a link into `i`.
    into_at: Vec<u32>,
    into: Vec<u32>,
}

impl SwitchGraph {
    /// The switches of the graph in ascending id order, each once: the
    /// column order of [`next_hop_rows`](SwitchGraph::next_hop_rows).
    pub fn switches(&self) -> &[u64] {
        &self.ids
    }

    fn ports(&self, i: usize) -> &[(u64, u32)] {
        &self.out[self.out_at[i] as usize..self.out_at[i + 1] as usize]
    }

    fn sources(&self, i: usize) -> &[u32] {
        &self.into[self.into_at[i] as usize..self.into_at[i + 1] as usize]
    }

    /// [`SimTopology::next_hop_ports`] over the prebuilt graph.
    pub fn next_hop_ports(&self, dst_sw: u64) -> BTreeMap<u64, u64> {
        let row = self.next_hop_rows(&[dst_sw]);
        self.ids.iter().zip(row).filter_map(|(&sw, pt)| Some((sw, pt?))).collect()
    }

    /// Next hops toward each of `dsts` as one row-major matrix: cell
    /// `r * switches().len() + i` is the out port at `switches()[i]` toward
    /// `dsts[r]`, by the rule of [`SimTopology::next_hop_ports`] — `None` at
    /// the destination itself, at a switch that cannot reach it, and along
    /// the whole row of a destination that is not a switch of the graph.
    /// One breadth-first pass per row over a shared distance array and
    /// frontier.
    pub fn next_hop_rows(&self, dsts: &[u64]) -> Vec<Option<u64>> {
        const UNREACHED: u32 = u32::MAX;
        let n = self.ids.len();
        let mut rows = vec![None; dsts.len() * n];
        let mut dist = vec![UNREACHED; n];
        let mut frontier: Vec<u32> = Vec::with_capacity(n);
        for (row, &dst_sw) in rows.chunks_exact_mut(n.max(1)).zip(dsts) {
            let Ok(dst) = self.ids.binary_search(&dst_sw) else { continue };
            // Hop counts by BFS from the destination over reversed edges.
            dist.fill(UNREACHED);
            dist[dst] = 0;
            frontier.clear();
            frontier.push(dst as u32);
            let mut head = 0;
            while let Some(&sw) = frontier.get(head) {
                head += 1;
                let d = dist[sw as usize];
                for &p in self.sources(sw as usize) {
                    if dist[p as usize] == UNREACHED {
                        dist[p as usize] = d + 1;
                        frontier.push(p);
                    }
                }
            }
            // Each switch forwards out the port minimizing the deterministic
            // key. Indices order as ids do, and a switch's ports come in
            // ascending order, so the first port to reach the least
            // `(distance, neighbour)` is the least key.
            for (i, cell) in row.iter_mut().enumerate() {
                if i == dst {
                    continue;
                }
                let mut least = (UNREACHED, 0);
                for &(pt, nb) in self.ports(i) {
                    let key = (dist[nb as usize], nb);
                    if key < least {
                        (least, *cell) = (key, Some(pt));
                    }
                }
            }
        }
        rows
    }
}

impl SimTopology {
    /// The deterministic shortest path from `src_sw` to `dst_sw` as a link
    /// sequence, or `None` if unreachable (or `src_sw == dst_sw`, where the
    /// path is empty — represented as `Some` of an empty vector).
    pub fn route(&self, src_sw: u64, dst_sw: u64) -> Option<Vec<LinkSpec>> {
        if src_sw == dst_sw {
            return Some(Vec::new());
        }
        let graph = self.switch_graph();
        let next = graph.next_hop_rows(&[dst_sw]);
        let mut path = Vec::new();
        let mut at = src_sw;
        while at != dst_sw {
            let pt = next[graph.ids.binary_search(&at).ok()?]?;
            let link = *self.link_from(Loc::new(at, pt))?;
            at = link.dst.sw;
            path.push(link);
            if path.len() > self.links.len() {
                return None; // inconsistent next-hop map; avoid looping
            }
        }
        Some(path)
    }
}

/// Global timing parameters of a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimParams {
    /// Per-packet switch processing delay.
    pub switch_delay: SimTime,
    /// One-way latency between any switch and the controller.
    pub controller_latency: SimTime,
    /// Maximum queueing delay on a capacity-limited link before tail drop.
    pub max_queue_delay: SimTime,
    /// Extra on-the-wire bytes per packet (e.g. the NES runtime's tag and
    /// digest headers); added to the payload size when computing
    /// serialization delay on capacity-limited links.
    pub header_overhead: u32,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            switch_delay: SimTime::from_micros(5),
            controller_latency: SimTime::from_millis(2),
            max_queue_delay: SimTime::from_millis(50),
            header_overhead: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_helpers() {
        let topo = SimTopology::new([1, 2]).host(100, Loc::new(1, 2)).bilink(
            Loc::new(1, 1),
            Loc::new(2, 1),
            SimTime::from_micros(50),
            Some(1_000_000),
        );
        assert_eq!(topo.host_at(Loc::new(1, 2)), Some(100));
        assert_eq!(topo.host_at(Loc::new(9, 9)), None);
        let l = topo.link_from(Loc::new(1, 1)).unwrap();
        assert_eq!(l.dst, Loc::new(2, 1));
        assert_eq!(l.capacity, Some(1_000_000));
        assert!(topo.link_from(Loc::new(1, 3)).is_none());
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn host_switch_collision_panics() {
        let _ = SimTopology::new([1]).host(1, Loc::new(1, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate host attachment at 1:2")]
    fn duplicate_host_attachment_is_rejected() {
        let _ = SimTopology::new([1]).host(100, Loc::new(1, 2)).host(200, Loc::new(1, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate link out of 1:1")]
    fn duplicate_directed_link_is_rejected() {
        let lat = SimTime::from_micros(10);
        let _ = SimTopology::new([1, 2])
            .link(LinkSpec::new(Loc::new(1, 1), Loc::new(2, 1), lat))
            .link(LinkSpec::new(Loc::new(1, 1), Loc::new(2, 1), lat));
    }

    #[test]
    #[should_panic(expected = "duplicate link out of 1:1")]
    fn second_link_from_same_port_is_rejected() {
        // Not byte-identical links, but the same source port: still a
        // multigraph `link_from` would silently resolve arbitrarily.
        let lat = SimTime::from_micros(10);
        let _ = SimTopology::new([1, 2, 3])
            .link(LinkSpec::new(Loc::new(1, 1), Loc::new(2, 1), lat))
            .link(LinkSpec::new(Loc::new(1, 1), Loc::new(3, 1), lat));
    }

    /// A batch refuses the link a link-by-link build would have refused
    /// first — here the second out of 2:1, though the second out of 1:1
    /// sorts before it — and without a duplicate indexes every link as
    /// that build does.
    #[test]
    #[should_panic(expected = "duplicate link out of 2:1 (to 3:1)")]
    fn a_batch_refuses_the_link_a_link_by_link_build_refuses() {
        let lat = SimTime::from_micros(10);
        let spec = |a: (u64, u64), b: (u64, u64)| {
            LinkSpec::new(Loc::new(a.0, a.1), Loc::new(b.0, b.1), lat)
        };
        let batch = [spec((1, 1), (2, 1)), spec((2, 1), (1, 1)), spec((2, 2), (3, 1))];
        let one_by_one = batch.iter().fold(SimTopology::new([1, 2, 3]), |t, &l| t.link(l));
        assert_eq!(SimTopology::new([1, 2, 3]).extend_links(batch), one_by_one);
        let _ = SimTopology::new([1, 2, 3]).link(batch[0]).extend_links([
            batch[1],
            spec((2, 1), (3, 1)),
            spec((1, 1), (3, 2)),
        ]);
    }

    /// A 4-chain 1—2—3—4 (port 1 = right, port 2 = left).
    fn chain() -> SimTopology {
        let lat = SimTime::from_micros(10);
        SimTopology::new(1..=4)
            .bilink(Loc::new(1, 1), Loc::new(2, 2), lat, None)
            .bilink(Loc::new(2, 1), Loc::new(3, 2), lat, None)
            .bilink(Loc::new(3, 1), Loc::new(4, 2), lat, None)
    }

    #[test]
    fn adjacency_and_next_hops_on_a_chain() {
        let topo = chain();
        let adj = topo.switch_adjacency();
        assert_eq!(adj[&1], vec![(1, 2)]);
        assert_eq!(adj[&2], vec![(1, 3), (2, 1)]);
        let next = topo.next_hop_ports(4);
        assert_eq!(next.get(&1), Some(&1));
        assert_eq!(next.get(&2), Some(&1));
        assert_eq!(next.get(&3), Some(&1));
        assert_eq!(next.get(&4), None, "destination has no next hop");
        let back = topo.next_hop_ports(1);
        assert_eq!(back.get(&4), Some(&2));
        assert_eq!(back.get(&2), Some(&2));
    }

    #[test]
    fn route_walks_the_shortest_path() {
        let topo = chain();
        let path = topo.route(1, 4).expect("connected");
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].src, Loc::new(1, 1));
        assert_eq!(path[2].dst, Loc::new(4, 2));
        assert_eq!(topo.route(2, 2), Some(Vec::new()));
        // Disconnected switch: no route.
        let island = SimTopology::new([1, 2]);
        assert_eq!(island.route(1, 2), None);
    }

    #[test]
    fn a_link_to_an_undeclared_switch_is_not_an_edge() {
        // 1 -> 9 -> 3 is one hop shorter than 1 -> 2 -> 4 -> 3, but 9 was
        // never declared: nothing may be routed through it, toward it, or
        // get a distance from it.
        let lat = SimTime::from_micros(10);
        let topo = SimTopology::new([1, 2, 3, 4])
            .bilink(Loc::new(1, 1), Loc::new(2, 1), lat, None)
            .bilink(Loc::new(2, 2), Loc::new(4, 1), lat, None)
            .bilink(Loc::new(4, 2), Loc::new(3, 1), lat, None)
            .bilink(Loc::new(1, 2), Loc::new(9, 1), lat, None)
            .bilink(Loc::new(9, 2), Loc::new(3, 2), lat, None);
        let next = topo.next_hop_ports(3);
        assert_eq!(next, BTreeMap::from([(1, 1), (2, 2), (4, 2)]));
        assert_eq!(topo.route(1, 3).expect("connected without 9").len(), 3);
        assert!(topo.next_hop_ports(9).is_empty(), "9 is not a destination either");
        assert_eq!(topo.route(1, 9), None);
        assert_eq!(topo.switch_adjacency()[&1], vec![(1, 2)]);
        assert_eq!(topo.switch_graph().switches(), [1, 2, 3, 4]);
    }

    #[test]
    fn a_switch_declared_twice_is_one_switch() {
        let lat = SimTime::from_micros(10);
        let link = |t: SimTopology| {
            t.bilink(Loc::new(5, 1), Loc::new(7, 1), lat, None).bilink(
                Loc::new(7, 2),
                Loc::new(6, 1),
                lat,
                None,
            )
        };
        let (once, twice) =
            (link(SimTopology::new([5, 6, 7])), link(SimTopology::new([7, 5, 7, 6, 5])));
        assert_eq!(twice.switch_graph().switches(), [5, 6, 7]);
        for dst in [5, 6, 7] {
            assert_eq!(twice.next_hop_ports(dst), once.next_hop_ports(dst), "toward {dst}");
        }
        assert_eq!(twice.switch_adjacency(), once.switch_adjacency());
        assert_eq!(twice.route(5, 6), once.route(5, 6));
    }

    #[test]
    fn next_hop_rows_leave_unreachable_cells_empty() {
        // Two components {1, 2} and {3, 4}, and a one-way link 2 -> 3: 3 and
        // 4 are reachable from the left, nothing on the left from the right.
        let lat = SimTime::from_micros(10);
        let topo = SimTopology::new(1..=4)
            .bilink(Loc::new(1, 1), Loc::new(2, 1), lat, None)
            .bilink(Loc::new(3, 1), Loc::new(4, 1), lat, None)
            .link(LinkSpec::new(Loc::new(2, 2), Loc::new(3, 2), lat));
        let graph = topo.switch_graph();
        let rows = graph.next_hop_rows(&[4, 1, 8]);
        assert_eq!(rows[..4], [Some(1), Some(2), Some(1), None], "toward 4");
        assert_eq!(rows[4..8], [None, Some(1), None, None], "toward 1");
        assert_eq!(rows[8..], [None; 4], "8 is not a switch");
        assert_eq!(graph.next_hop_ports(1), BTreeMap::from([(2, 1)]));
        assert_eq!(topo.route(3, 1), None);
        assert!(SimTopology::new([]).switch_graph().next_hop_rows(&[1]).is_empty());
    }

    #[test]
    fn link_index_is_positional() {
        let topo = chain();
        let i = topo.link_index(Loc::new(2, 1), Loc::new(3, 2)).expect("present");
        assert_eq!(topo.links()[i].dst, Loc::new(3, 2));
        assert_eq!(topo.link_index(Loc::new(3, 2), Loc::new(2, 1)), Some(i + 1));
        assert_eq!(topo.link_index(Loc::new(1, 1), Loc::new(3, 2)), None);
    }

    #[test]
    fn default_params_sane() {
        let p = SimParams::default();
        assert!(p.switch_delay < p.controller_latency);
    }
}
