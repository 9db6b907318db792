//! Shared glue for the case studies: symbol environments, topology
//! conversion, and canned run helpers.

use std::collections::BTreeMap;

use netkat::Value;
use netsim::{SimTime, SimTopology};
use stateful_netkat::NetworkSpec;

/// Host identifiers used across the paper's examples: `Hn` is numbered
/// `100 + n`, keeping host node ids disjoint from switch ids `1..=4`.
pub const H1: u64 = 101;
/// Host 2.
pub const H2: u64 = 102;
/// Host 3.
pub const H3: u64 = 103;
/// Host 4 (the "external" host in most examples).
pub const H4: u64 = 104;

/// The symbol environment mapping `H1..H4` for the Fig. 9 program sources.
pub fn host_env() -> BTreeMap<String, Value> {
    BTreeMap::from([
        ("H1".to_string(), H1),
        ("H2".to_string(), H2),
        ("H3".to_string(), H3),
        ("H4".to_string(), H4),
    ])
}

/// Converts a compile-time [`NetworkSpec`] into a simulation topology with
/// uniform link latency and optional link capacity.
pub fn sim_topology(
    spec: &NetworkSpec,
    link_latency: SimTime,
    capacity: Option<u64>,
) -> SimTopology {
    let mut topo = SimTopology::new(spec.switches.iter().copied());
    for &(host, at) in &spec.hosts {
        topo = topo.host(host, at);
    }
    for &(src, dst) in &spec.links {
        topo = topo.link(netsim::LinkSpec { src, dst, latency: link_latency, capacity });
    }
    topo
}

/// The paper's runtime for `nes` on `topo`, with the online Definition 6
/// checker attached before any traffic: the case studies' tests read its
/// verdict after the run.
#[cfg(test)]
pub(crate) fn checked_engine(
    nes: edn_core::NetworkEventStructure,
    topo: SimTopology,
    broadcast: bool,
) -> (netsim::Engine<nes_runtime::NesDataPlane>, edn_core::OnlineHandle) {
    let hosts = Box::new(netsim::traffic::ScenarioHosts::new());
    let mut engine =
        nes_runtime::nes_engine(nes.clone(), topo, netsim::SimParams::default(), broadcast, hosts);
    let handle = nes_runtime::attach_online_checker(&mut engine, &nes)
        .expect("the case study fits the online checker");
    (engine, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkat::Loc;

    #[test]
    fn topology_conversion_preserves_structure() {
        let spec = NetworkSpec::new([1, 4])
            .host(H1, Loc::new(1, 2))
            .host(H4, Loc::new(4, 2))
            .bilink(Loc::new(1, 1), Loc::new(4, 1));
        let topo = sim_topology(&spec, SimTime::from_micros(50), None);
        assert_eq!(topo.switches(), &[1, 4]);
        assert_eq!(topo.attachment(H1), Some(Loc::new(1, 2)));
        assert_eq!(topo.links().len(), 2);
    }

    #[test]
    fn env_maps_all_hosts() {
        let env = host_env();
        assert_eq!(env["H1"], H1);
        assert_eq!(env["H4"], H4);
        assert_eq!(env.len(), 4);
    }
}
