//! Parametric topology generators.
//!
//! Every generator returns a [`GenTopology`]: a [`SimTopology`] plus the
//! host list and a display name. Construction is fully deterministic — the
//! random Waxman generator draws from the vendored seeded [`rand`] shim, so
//! equal parameters always give byte-identical topologies.

use std::collections::BTreeMap;

use netkat::Loc;
use netsim::{LinkSpec, SimTime, SimTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First generated host id: keeps host ids disjoint from switch ids for any
/// realistically sized topology (the largest supported fat-tree has
/// `5·64²/4 = 5120` switches).
pub const HOST_BASE: u64 = 10_000;

/// Latency/capacity profile applied uniformly to a class of links.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkProfile {
    /// Propagation latency.
    pub latency: SimTime,
    /// Capacity in bytes per second; `None` = infinite.
    pub capacity: Option<u64>,
}

impl LinkProfile {
    /// A profile with the given latency and infinite capacity.
    pub fn new(latency: SimTime) -> LinkProfile {
        LinkProfile { latency, capacity: None }
    }

    /// Sets the capacity (builder style).
    pub fn with_capacity(mut self, bytes_per_sec: u64) -> LinkProfile {
        self.capacity = Some(bytes_per_sec);
        self
    }

    fn link(&self, src: Loc, dst: Loc) -> LinkSpec {
        LinkSpec { src, dst, latency: self.latency, capacity: self.capacity }
    }
}

impl Default for LinkProfile {
    /// 50 µs, infinite capacity — the latency the hand-built case-study
    /// topologies use.
    fn default() -> LinkProfile {
        LinkProfile::new(SimTime::from_micros(50))
    }
}

/// Per-tier link profiles for hierarchical (fat-tree) topologies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TierProfile {
    /// Latency of host attachment links.
    pub host_latency: SimTime,
    /// Edge ↔ aggregation links.
    pub edge_agg: LinkProfile,
    /// Aggregation ↔ core links.
    pub agg_core: LinkProfile,
}

impl Default for TierProfile {
    /// 10 µs host links, 20 µs edge↔agg, 50 µs agg↔core, all uncapped.
    fn default() -> TierProfile {
        TierProfile {
            host_latency: SimTime::from_micros(10),
            edge_agg: LinkProfile::new(SimTime::from_micros(20)),
            agg_core: LinkProfile::new(SimTime::from_micros(50)),
        }
    }
}

/// A generated topology: the simulation topology, its hosts, and a name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GenTopology {
    name: String,
    topo: SimTopology,
    hosts: Vec<u64>,
}

impl GenTopology {
    fn new(name: String, topo: SimTopology) -> GenTopology {
        let hosts = topo.hosts().map(|(h, _)| h).collect();
        GenTopology { name, topo, hosts }
    }

    /// Wraps an existing (e.g. hand-built) topology so routing and workload
    /// synthesis can run on it too.
    pub fn from_sim(name: impl Into<String>, topo: SimTopology) -> GenTopology {
        GenTopology::new(name.into(), topo)
    }

    /// A display name, e.g. `fat-tree(4)`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulation topology.
    pub fn sim(&self) -> &SimTopology {
        &self.topo
    }

    /// The host ids, in ascending order.
    pub fn hosts(&self) -> &[u64] {
        &self.hosts
    }

    /// A host's attachment location.
    pub fn attachment(&self, host: u64) -> Option<Loc> {
        self.topo.attachment(host)
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.topo.switches().len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of directed inter-switch links.
    pub fn link_count(&self) -> usize {
        self.topo.links().len()
    }
}

/// A linear chain of `n` switches, one host each.
///
/// Ports: 1 = toward the next switch, 2 = toward the previous, 3 = host.
/// Hosts are `HOST_BASE + i` for switch `i`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn linear(n: u64, profile: LinkProfile) -> GenTopology {
    assert!(n >= 1, "linear(n) needs n >= 1");
    let mut topo = SimTopology::new(1..=n);
    for sw in 1..=n {
        topo = topo.host(HOST_BASE + sw, Loc::new(sw, 3));
        if sw < n {
            topo = topo.bilink(
                Loc::new(sw, 1),
                Loc::new(sw + 1, 2),
                profile.latency,
                profile.capacity,
            );
        }
    }
    GenTopology::new(format!("linear({n})"), topo)
}

/// A ring of `n` switches, one host each.
///
/// Uses the Section 5.2 ring conventions: port 1 = clockwise neighbour,
/// port 2 = counterclockwise, port 3 = host; link `i` connects switch `i`'s
/// port 1 to switch `i+1`'s port 2 (wrapping). Hosts are `HOST_BASE + i`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn ring(n: u64, profile: LinkProfile) -> GenTopology {
    assert!(n >= 2, "ring(n) needs n >= 2");
    let mut topo = SimTopology::new(1..=n);
    for sw in 1..=n {
        topo = topo.host(HOST_BASE + sw, Loc::new(sw, 3));
        let next = sw % n + 1;
        topo = topo.bilink(Loc::new(sw, 1), Loc::new(next, 2), profile.latency, profile.capacity);
    }
    GenTopology::new(format!("ring({n})"), topo)
}

/// A `rows × cols` grid (mesh) of switches, one host each.
///
/// Switch at row `r`, column `c` (0-based) has id `r·cols + c + 1`.
/// Ports: 1 = north, 2 = south, 3 = east, 4 = west, 5 = host.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: u64, cols: u64, profile: LinkProfile) -> GenTopology {
    assert!(rows >= 1 && cols >= 1, "grid needs both dimensions >= 1");
    mesh(rows, cols, false, profile)
}

/// A `rows × cols` torus: the grid with wrap-around links in both
/// dimensions.
///
/// Same id/port conventions as [`grid`].
///
/// # Panics
///
/// Panics if either dimension is `< 2` (wrap-around would self-loop).
pub fn torus(rows: u64, cols: u64, profile: LinkProfile) -> GenTopology {
    assert!(rows >= 2 && cols >= 2, "torus needs both dimensions >= 2");
    mesh(rows, cols, true, profile)
}

const NORTH: u64 = 1;
const SOUTH: u64 = 2;
const EAST: u64 = 3;
const WEST: u64 = 4;

fn mesh(rows: u64, cols: u64, wrap: bool, profile: LinkProfile) -> GenTopology {
    let id = |r: u64, c: u64| r * cols + c + 1;
    let n = rows * cols;
    let mut topo = SimTopology::new(1..=n);
    for r in 0..rows {
        for c in 0..cols {
            let sw = id(r, c);
            topo = topo.host(HOST_BASE + sw, Loc::new(sw, 5));
            // Eastward edge (wrapping if a torus).
            if c + 1 < cols || wrap && cols > 1 {
                let e = id(r, (c + 1) % cols);
                topo = topo.bilink(
                    Loc::new(sw, EAST),
                    Loc::new(e, WEST),
                    profile.latency,
                    profile.capacity,
                );
            }
            // Southward edge.
            if r + 1 < rows || wrap && rows > 1 {
                let s = id((r + 1) % rows, c);
                topo = topo.bilink(
                    Loc::new(sw, SOUTH),
                    Loc::new(s, NORTH),
                    profile.latency,
                    profile.capacity,
                );
            }
        }
    }
    let kind = if wrap { "torus" } else { "grid" };
    GenTopology::new(format!("{kind}({rows}x{cols})"), topo)
}

/// A `k`-ary fat-tree (Al-Fares et al.): `k` pods of `k/2` edge and `k/2`
/// aggregation switches plus `(k/2)²` core switches — `5k²/4` switches in
/// total — and `k³/4` hosts, `k/2` per edge switch.
///
/// Ids: cores first (`1..=(k/2)²`), then per pod the aggregation switches
/// followed by the edge switches. Edge and aggregation switches use ports
/// `1..=k/2` for their up-links and `k/2+1..=k` for their down-links; core
/// switch ports `1..=k` lead to pods `0..k` in order.
///
/// # Panics
///
/// Panics unless `k` is even and `>= 2`.
pub fn fat_tree(k: u64, profile: TierProfile) -> GenTopology {
    assert!(k >= 2 && k % 2 == 0, "fat_tree(k) needs even k >= 2");
    let half = k / 2;
    let cores = half * half;
    let agg_id = |p: u64, a: u64| 1 + cores + p * k + a;
    let edge_id = |p: u64, e: u64| 1 + cores + p * k + half + e;
    let mut topo = SimTopology::new(1..=cores + k * k).with_host_latency(profile.host_latency);
    let mut links = Vec::new();
    for p in 0..k {
        for e in 0..half {
            // Edge up-links: edge port 1+a ↔ agg down port half+1+e.
            for a in 0..half {
                let up = Loc::new(edge_id(p, e), 1 + a);
                let down = Loc::new(agg_id(p, a), half + 1 + e);
                links.push(profile.edge_agg.link(up, down));
                links.push(profile.edge_agg.link(down, up));
            }
            // Hosts on edge down ports.
            for s in 0..half {
                let h = HOST_BASE + (p * half + e) * half + s;
                topo = topo.host(h, Loc::new(edge_id(p, e), half + 1 + s));
            }
        }
        // Aggregation up-links: agg a serves cores [a·half, (a+1)·half).
        for a in 0..half {
            for i in 0..half {
                let core = 1 + a * half + i;
                let up = Loc::new(agg_id(p, a), 1 + i);
                let down = Loc::new(core, 1 + p);
                links.push(profile.agg_core.link(up, down));
                links.push(profile.agg_core.link(down, up));
            }
        }
    }
    GenTopology::new(format!("fat-tree({k})"), topo.extend_links(links))
}

/// Parameters of the [`waxman`] random-graph generator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WaxmanParams {
    /// RNG seed: equal seeds give identical topologies.
    pub seed: u64,
    /// Edge density knob (`0 < α ≤ 1`): scales every edge probability.
    pub alpha: f64,
    /// Distance decay knob (`0 < β ≤ 1`): larger values keep long edges
    /// likely.
    pub beta: f64,
    /// Profile applied to every generated link.
    pub profile: LinkProfile,
}

impl Default for WaxmanParams {
    fn default() -> WaxmanParams {
        WaxmanParams { seed: 1, alpha: 0.4, beta: 0.4, profile: LinkProfile::default() }
    }
}

/// A seeded Waxman-style random graph over `n` switches, one host each.
///
/// Switches are placed uniformly on a 1000×1000 plane; each pair is linked
/// with probability `α·exp(−d / (β·L))` where `d` is their distance and `L`
/// the plane diagonal. The result is then made connected by deterministic
/// bridge edges between components. Ports are allocated densely per switch
/// (`1..`), with the host on the last port.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn waxman(n: u64, params: WaxmanParams) -> GenTopology {
    assert!(n >= 1, "waxman(n) needs n >= 1");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0..1_000u64) as f64, rng.gen_range(0..1_000u64) as f64))
        .collect();
    let diagonal = (2.0f64).sqrt() * 1_000.0;
    // Accept undirected edges with the Waxman probability.
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let (xi, yi) = points[i as usize];
            let (xj, yj) = points[j as usize];
            let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            let p = params.alpha * (-d / (params.beta * diagonal)).exp();
            let threshold = (p * 1_000_000.0) as u64;
            if rng.gen_range(0..1_000_000u64) < threshold {
                edges.push((i + 1, j + 1));
            }
        }
    }
    // Bridge components so every generated graph is usable as a network:
    // link each component's lowest switch to switch 1's component.
    let mut comp: Vec<u64> = (0..=n).collect();
    fn find(comp: &mut [u64], x: u64) -> u64 {
        let mut root = x;
        while comp[root as usize] != root {
            root = comp[root as usize];
        }
        let mut at = x;
        while comp[at as usize] != root {
            let next = comp[at as usize];
            comp[at as usize] = root;
            at = next;
        }
        root
    }
    for &(a, b) in &edges {
        let (ra, rb) = (find(&mut comp, a), find(&mut comp, b));
        comp[ra.max(rb) as usize] = ra.min(rb);
    }
    for sw in 2..=n {
        let (r1, rs) = (find(&mut comp, 1), find(&mut comp, sw));
        if rs != r1 {
            edges.push((1, sw));
            comp[rs as usize] = r1;
        }
    }
    edges.sort_unstable();
    // Dense per-switch port allocation, host on the last port.
    let mut next_port: BTreeMap<u64, u64> = (1..=n).map(|s| (s, 1)).collect();
    let alloc = |sw: u64, ports: &mut BTreeMap<u64, u64>| {
        let p = ports[&sw];
        ports.insert(sw, p + 1);
        p
    };
    let mut topo = SimTopology::new(1..=n);
    for (a, b) in edges {
        let pa = alloc(a, &mut next_port);
        let pb = alloc(b, &mut next_port);
        topo = topo.bilink(
            Loc::new(a, pa),
            Loc::new(b, pb),
            params.profile.latency,
            params.profile.capacity,
        );
    }
    for sw in 1..=n {
        let p = alloc(sw, &mut next_port);
        topo = topo.host(HOST_BASE + sw, Loc::new(sw, p));
    }
    GenTopology::new(format!("waxman({n},seed={})", params.seed), topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shape() {
        let g = linear(5, LinkProfile::default());
        assert_eq!(g.switch_count(), 5);
        assert_eq!(g.host_count(), 5);
        assert_eq!(g.link_count(), 8);
        assert_eq!(g.attachment(HOST_BASE + 3), Some(Loc::new(3, 3)));
        assert_eq!(g.name(), "linear(5)");
    }

    #[test]
    fn ring_shape() {
        let g = ring(6, LinkProfile::default());
        assert_eq!(g.switch_count(), 6);
        assert_eq!(g.link_count(), 12);
        // Clockwise port 1 of switch 6 wraps to switch 1's port 2.
        let l = g.sim().link_from(Loc::new(6, 1)).expect("wrap link");
        assert_eq!(l.dst, Loc::new(1, 2));
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(3, 4, LinkProfile::default());
        assert_eq!(g.switch_count(), 12);
        // Undirected edges: 3·3 horizontal + 2·4 vertical = 17 → 34 links.
        assert_eq!(g.link_count(), 34);
        let t = torus(3, 4, LinkProfile::default());
        // Torus: every switch has degree 4 → 2·12 undirected → 48 directed.
        assert_eq!(t.link_count(), 48);
    }

    #[test]
    fn fat_tree_counts() {
        for k in [2u64, 4, 6, 8] {
            let g = fat_tree(k, TierProfile::default());
            assert_eq!(g.switch_count() as u64, 5 * k * k / 4, "fat-tree({k}) switches");
            assert_eq!(g.host_count() as u64, k * k * k / 4, "fat-tree({k}) hosts");
            // Directed links: k³/2 edge↔agg + k³/2 agg↔core.
            assert_eq!(g.link_count() as u64, k * k * k, "fat-tree({k}) links");
        }
    }

    #[test]
    fn fat_tree_core_wiring_is_a_clean_bipartite_round_robin() {
        let g = fat_tree(4, TierProfile::default());
        // Every core switch has exactly k links (one per pod).
        let adj = g.sim().switch_adjacency();
        for core in 1..=4u64 {
            assert_eq!(adj[&core].len(), 4, "core {core} degree");
        }
    }

    #[test]
    fn waxman_is_seed_deterministic_and_connected() {
        let p = WaxmanParams::default();
        let a = waxman(24, p);
        let b = waxman(24, p);
        assert_eq!(a, b, "same seed, same topology");
        let c = waxman(24, WaxmanParams { seed: 2, ..p });
        assert_ne!(a, c, "different seed, different graph");
        // Connectivity: every switch routes to switch 1.
        let next = a.sim().next_hop_ports(1);
        assert_eq!(next.len(), 23);
    }
}
