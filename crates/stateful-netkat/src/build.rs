//! Building ETSs (and on to NESs) from Stateful NetKAT programs.
//!
//! This is the `ETS(p)` construction at the end of Section 3.3: vertices are
//! reachable state vectors labelled with compiled configurations, edges come
//! from the event extraction of Fig. 6.

use std::collections::BTreeMap;
use std::fmt;

use edn_core::{Config, Ets, EtsError, Event, EventId};
use netkat::{compile_global, Field, Loc, NetkatError, TestConj, Value};

use crate::ast::{SPolicy, StateVec};
use crate::extract::{event_edges, project};

/// Bound on the number of reachable state vectors explored.
const MAX_STATES: usize = 4096;

/// The physical network a program runs on: switches, host attachments, and
/// inter-switch links.
///
/// # Examples
///
/// ```
/// use stateful_netkat::NetworkSpec;
/// use netkat::Loc;
/// let spec = NetworkSpec::new([1, 4])
///     .host(101, Loc::new(1, 2))
///     .host(104, Loc::new(4, 2))
///     .bilink(Loc::new(1, 1), Loc::new(4, 1));
/// assert_eq!(spec.switches, vec![1, 4]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetworkSpec {
    /// Switch identifiers.
    pub switches: Vec<u64>,
    /// Hosts: `(host id, attachment location)`.
    pub hosts: Vec<(u64, Loc)>,
    /// Directed inter-switch links.
    pub links: Vec<(Loc, Loc)>,
}

impl NetworkSpec {
    /// Creates a spec with the given switches.
    pub fn new<I: IntoIterator<Item = u64>>(switches: I) -> NetworkSpec {
        NetworkSpec { switches: switches.into_iter().collect(), ..NetworkSpec::default() }
    }

    /// Attaches a host (builder style).
    pub fn host(mut self, id: u64, attached: Loc) -> NetworkSpec {
        self.hosts.push((id, attached));
        self
    }

    /// Adds a unidirectional link (builder style).
    pub fn link(mut self, src: Loc, dst: Loc) -> NetworkSpec {
        self.links.push((src, dst));
        self
    }

    /// Adds both directions of a link (builder style).
    pub fn bilink(mut self, a: Loc, b: Loc) -> NetworkSpec {
        self.links.push((a, b));
        self.links.push((b, a));
        self
    }

    /// The configuration skeleton: links and hosts, no tables.
    pub fn base_config(&self) -> Config {
        let mut c = Config::new();
        for &(src, dst) in &self.links {
            c.add_link(src, dst);
        }
        for &(id, at) in &self.hosts {
            c.add_host(id, at);
        }
        c
    }
}

/// Errors during ETS/NES construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// NetKAT compilation of a projected configuration failed.
    Netkat(NetkatError),
    /// Event extraction failed (star divergence).
    Extraction(String),
    /// The reachable state space exceeded the exploration bound.
    StateSpaceTooLarge,
    /// More than 64 distinct events were extracted.
    TooManyEvents,
    /// The resulting transition system is ill-formed.
    Ets(EtsError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Netkat(e) => write!(f, "netkat compilation failed: {e}"),
            BuildError::Extraction(m) => write!(f, "event extraction failed: {m}"),
            BuildError::StateSpaceTooLarge => {
                write!(f, "more than {MAX_STATES} reachable state vectors")
            }
            BuildError::TooManyEvents => write!(f, "more than 64 distinct events"),
            BuildError::Ets(e) => write!(f, "ill-formed transition system: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<NetkatError> for BuildError {
    fn from(e: NetkatError) -> BuildError {
        BuildError::Netkat(e)
    }
}

impl From<EtsError> for BuildError {
    fn from(e: EtsError) -> BuildError {
        BuildError::Ets(e)
    }
}

/// Compiles `⟦p⟧~k` to a full [`Config`] on `spec`.
///
/// # Errors
///
/// Propagates NetKAT compilation errors.
pub fn project_config(p: &SPolicy, k: &[Value], spec: &NetworkSpec) -> Result<Config, BuildError> {
    let policy = project(p, k);
    let tables = compile_global(&policy, &spec.switches)?;
    let mut config = spec.base_config();
    for (sw, table) in tables.tables {
        config.install(sw, table);
    }
    Ok(config)
}

/// Builds the ETS of a program from the initial state vector `k0`
/// (Section 3.3's `ETS(p)`), restricted to reachable states.
///
/// Event identity follows the paper's renaming discipline: an edge's event
/// is identified by its `(ϕ, location, state writes)` triple, so the "same"
/// arrival writing different state values (the bandwidth cap's chain) yields
/// distinct renamed events, while one syntactic command reachable from
/// several states (the learning-switch diamond) yields a single event.
///
/// # Errors
///
/// Returns a [`BuildError`] on compilation failure, state-space explosion,
/// event overflow, or an ill-formed ETS.
pub fn build_ets(p: &SPolicy, k0: &[Value], spec: &NetworkSpec) -> Result<Ets, BuildError> {
    let width = p.state_width().max(k0.len());
    let mut initial: StateVec = k0.to_vec();
    initial.resize(width, 0);

    let mut vertex_of: BTreeMap<StateVec, usize> = BTreeMap::new();
    let mut configs: Vec<Config> = Vec::new();
    let mut order: Vec<StateVec> = Vec::new();

    let add_vertex = |k: &StateVec,
                      configs: &mut Vec<Config>,
                      order: &mut Vec<StateVec>,
                      vertex_of: &mut BTreeMap<StateVec, usize>|
     -> Result<usize, BuildError> {
        if let Some(&v) = vertex_of.get(k) {
            return Ok(v);
        }
        if vertex_of.len() >= MAX_STATES {
            return Err(BuildError::StateSpaceTooLarge);
        }
        let v = configs.len();
        configs.push(project_config(p, k, spec)?);
        order.push(k.clone());
        vertex_of.insert(k.clone(), v);
        Ok(v)
    };

    let v0 = add_vertex(&initial, &mut configs, &mut order, &mut vertex_of)?;

    type EventKey = (TestConj, Loc, Vec<(usize, Value)>);
    let mut event_of: BTreeMap<EventKey, EventId> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut edges: Vec<(usize, EventId, usize)> = Vec::new();

    let mut frontier = vec![initial];
    while let Some(k) = frontier.pop() {
        let from = vertex_of[&k];
        let (out_edges, _) =
            event_edges(p, &k, &TestConj::new()).map_err(BuildError::Extraction)?;
        for edge in out_edges {
            let mut to_vec = edge.to.clone();
            if to_vec.len() < width {
                to_vec.resize(width, 0);
            }
            let is_new = !vertex_of.contains_key(&to_vec);
            let to = add_vertex(&to_vec, &mut configs, &mut order, &mut vertex_of)?;
            if is_new {
                frontier.push(to_vec);
            }
            let key: EventKey = (edge.guard.clone(), edge.loc, edge.writes.clone());
            let id = match event_of.get(&key) {
                Some(&id) => id,
                None => {
                    if events.len() >= EventId::MAX_EVENTS {
                        return Err(BuildError::TooManyEvents);
                    }
                    let id = EventId::new(events.len());
                    let mut guard = edge.guard.clone();
                    guard.strip(Field::Switch);
                    guard.strip(Field::Port);
                    events.push(Event::new(id, guard.to_pred(), edge.loc));
                    event_of.insert(key, id);
                    id
                }
            };
            if from != to {
                edges.push((from, id, to));
            }
        }
    }
    edges.sort();
    edges.dedup();

    let ets = Ets { events, configs, edges, initial: v0 };
    ets.validate()?;
    Ok(ets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Env;

    use crate::parser::parse;

    fn env() -> Env<String, Value> {
        Env::from([("H1".to_string(), 101), ("H2".to_string(), 102), ("H4".to_string(), 104)])
    }

    /// The Fig. 8(a) firewall topology: hosts 101 (at 1:2) and 104 (at 4:2),
    /// switches 1 and 4 joined by 1:1 <-> 4:1.
    fn firewall_spec() -> NetworkSpec {
        NetworkSpec::new([1, 4])
            .host(101, Loc::new(1, 2))
            .host(104, Loc::new(4, 2))
            .bilink(Loc::new(1, 1), Loc::new(4, 1))
    }

    fn firewall_program() -> SPolicy {
        parse(
            "pt=2 & ip_dst=H4; pt<-1; (state=[0]; (1:1)->(4:1)<state<-[1]> \
             + state!=[0]; (1:1)->(4:1)); pt<-2 \
             + pt=2 & ip_dst=H1; state=[1]; pt<-1; (4:1)->(1:1); pt<-2",
            &env(),
        )
        .unwrap()
    }

    #[test]
    fn firewall_ets_shape() {
        let ets = build_ets(&firewall_program(), &[0], &firewall_spec()).unwrap();
        assert_eq!(ets.vertex_count(), 2);
        assert_eq!(ets.edges.len(), 1);
        assert_eq!(ets.events.len(), 1);
        let e = &ets.events[0];
        assert_eq!(e.loc, Loc::new(4, 1));
        // NES conversion succeeds and is locally determined.
        let nes = ets.to_nes().unwrap();
        assert_eq!(nes.event_sets().len(), 2);
        assert!(nes.is_locally_determined());
    }

    #[test]
    fn firewall_configs_differ_between_states() {
        let spec = firewall_spec();
        let p = firewall_program();
        let c0 = project_config(&p, &[0], &spec).unwrap();
        let c1 = project_config(&p, &[1], &spec).unwrap();
        assert_ne!(c0, c1);
        // In C1 switch 4 forwards replies: its table is larger.
        assert!(
            c1.table(4).map(|t| t.len()).unwrap_or(0) >= c0.table(4).map(|t| t.len()).unwrap_or(0)
        );
    }

    #[test]
    fn chain_program_renames_events() {
        // A two-step cap: same guard and location, different state writes.
        let p = parse(
            "pt=2 & ip_dst=H4; pt<-1; ( \
               state=[0]; (1:1)->(4:1)<state<-[1]> \
             + state=[1]; (1:1)->(4:1)<state<-[2]> \
             + state=[2]; (1:1)->(4:1)); pt<-2",
            &env(),
        )
        .unwrap();
        let ets = build_ets(&p, &[0], &firewall_spec()).unwrap();
        assert_eq!(ets.vertex_count(), 3);
        assert_eq!(ets.events.len(), 2, "renamed copies must be distinct events");
        let nes = ets.to_nes().unwrap();
        assert_eq!(nes.event_sets().len(), 3);
    }

    #[test]
    fn diamond_program_shares_events() {
        // Two independent one-shot events on different state slots.
        let p = parse(
            "ip_dst=H1; pt<-1; (1:1)->(4:1)<state(0)<-1>; pt<-2 \
             + ip_dst=H2; pt<-1; (1:1)->(4:1)<state(1)<-1>; pt<-2",
            &env(),
        )
        .unwrap();
        let ets = build_ets(&p, &[0, 0], &firewall_spec()).unwrap();
        // States: [0,0], [1,0], [0,1], [1,1].
        assert_eq!(ets.vertex_count(), 4);
        assert_eq!(ets.events.len(), 2, "each command is one event across all states");
        assert_eq!(ets.edges.len(), 4);
        let nes = ets.to_nes().unwrap();
        assert_eq!(nes.event_sets().len(), 4);
        assert!(nes.structure().verify_axioms());
    }

    #[test]
    fn cyclic_state_program_is_rejected() {
        let p = parse(
            "state=[0]; (1:1)->(4:1)<state<-[1]> + state=[1]; (4:1)->(1:1)<state<-[0]>",
            &env(),
        )
        .unwrap();
        let err = build_ets(&p, &[0], &firewall_spec()).unwrap_err();
        assert_eq!(err, BuildError::Ets(EtsError::HasCycle));
    }

    #[test]
    fn self_loop_writes_are_no_transitions() {
        // Writing the current value back is not a state change; the edge is
        // dropped (from == to), keeping the ETS loop-free.
        let p = parse("state=[1]; (1:1)->(4:1)<state<-[1]>", &env()).unwrap();
        let ets = build_ets(&p, &[1], &firewall_spec()).unwrap();
        assert_eq!(ets.vertex_count(), 1);
        assert!(ets.edges.is_empty());
    }
}
