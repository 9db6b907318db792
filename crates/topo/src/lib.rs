//! # edn-topo — parametric topology & workload generation
//!
//! The paper's evaluation runs on tiny hand-built topologies (one firewall
//! switch, a 4-switch ring). This crate is the scale unlock: it *generates*
//! topologies — fat-tree(k), grid/torus(m,n), ring(n), linear(n), and
//! seeded Waxman-style random graphs — as [`SimTopology`](netsim::SimTopology)
//! values with per-tier link profiles, synthesizes shortest-path forwarding
//! state for them, and layers seeded traffic matrices (uniform all-to-all,
//! hotspot, permutation) on top of the `netsim::traffic` scheduling
//! primitives. Everything is deterministic given the parameters and seed,
//! so scale benchmarks reproduce byte-for-byte.
//!
//! ```
//! use edn_topo::{fat_tree, shortest_path_config, synthesize, schedule,
//!                TierProfile, TrafficPattern, Workload};
//! use netsim::SimTime;
//!
//! // A 16-host fat-tree with all-pairs shortest-path forwarding…
//! let topo = fat_tree(4, TierProfile::default());
//! assert_eq!(topo.switch_count(), 20); // 5k²/4
//! assert_eq!(topo.host_count(), 16);   // k³/4
//! let config = shortest_path_config(&topo);
//! assert_eq!(config.rule_count(), 20 * 16);
//!
//! // …and a seeded permutation traffic matrix across it.
//! let workload =
//!     Workload { pattern: TrafficPattern::Permutation, seed: 7, ..Workload::default() };
//! let flows = synthesize(&topo, &workload);
//! assert_eq!(flows.len(), 16);
//! ```

#![warn(missing_docs)]

mod generate;
mod mobility;
mod route;
mod stream;
mod workload;

pub use generate::{
    fat_tree, grid, linear, ring, torus, waxman, GenTopology, LinkProfile, TierProfile,
    WaxmanParams, HOST_BASE,
};
pub use mobility::{
    free_port, mobile_twin, rehome, rehomed_rules, with_mobile_twin, MOBILE_TWIN_OFFSET,
};
pub use route::{
    all_hosts_connected, config_from_rules, per_switch, rules_toward, shortest_path_config,
    shortest_path_groups, RouteGroup,
};
pub use stream::{attach_stream, synthesize_arrivals, ArrivalModel};
pub use workload::{schedule, synthesize, TrafficPattern, Workload};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fat-tree(k) has exactly `5k²/4` switches, `k³/4` hosts, and every
        /// host pair is connected.
        #[test]
        fn fat_tree_invariants(half in 1u64..=4) {
            let k = 2 * half;
            let g = fat_tree(k, TierProfile::default());
            prop_assert_eq!(g.switch_count() as u64, 5 * k * k / 4);
            prop_assert_eq!(g.host_count() as u64, k * k * k / 4);
            prop_assert!(all_hosts_connected(&g));
        }

        /// Rings and grids are connected, and their shortest-path configs
        /// carry one rule per (switch, host) pair.
        #[test]
        fn flat_generators_are_connected(n in 2u64..=12) {
            for g in [ring(n, LinkProfile::default()), linear(n, LinkProfile::default())] {
                prop_assert!(all_hosts_connected(&g), "{} disconnected", g.name());
                let config = shortest_path_config(&g);
                prop_assert_eq!(config.rule_count(), (n * n) as usize);
            }
        }

        /// Torus routes never exceed the half-perimeter bound.
        #[test]
        fn torus_diameter_bound(rows in 2u64..=5, cols in 2u64..=5) {
            let g = torus(rows, cols, LinkProfile::default());
            let switches: Vec<u64> = g.sim().switches().to_vec();
            for &dst in &switches {
                for &src in &switches {
                    if src == dst { continue; }
                    let path = g.sim().route(src, dst).expect("torus is connected");
                    prop_assert!(
                        path.len() as u64 <= rows / 2 + cols / 2,
                        "route {src}->{dst} took {} hops", path.len()
                    );
                }
            }
        }

        /// Waxman graphs are connected (bridged) and seed-deterministic for
        /// any parameters.
        #[test]
        fn waxman_connected_and_deterministic(n in 2u64..=24, seed in 0u64..=5) {
            let params = WaxmanParams { seed, ..WaxmanParams::default() };
            let g = waxman(n, params);
            prop_assert!(all_hosts_connected(&g));
            prop_assert_eq!(&g, &waxman(n, params));
        }

        /// Workload synthesis only ever names hosts of the topology.
        #[test]
        fn workloads_stay_on_topology_hosts(n in 2u64..=10, seed in 0u64..=3) {
            let g = ring(n, LinkProfile::default());
            for pattern in [
                TrafficPattern::Uniform,
                TrafficPattern::Hotspot { hotspots: 2, bias_pct: 80 },
                TrafficPattern::Permutation,
            ] {
                let w = Workload { pattern, seed, flows: 16, ..Workload::default() };
                for f in synthesize(&g, &w) {
                    prop_assert!(g.hosts().contains(&f.src));
                    prop_assert!(g.hosts().contains(&f.dst));
                    prop_assert!(f.src != f.dst);
                }
            }
        }
    }
}
