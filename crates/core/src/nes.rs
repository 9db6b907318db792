//! Network event structures (Definition 5), each with everything about its
//! configurations that a plane or a checker over it reads (Section 4.1
//! installs each `g(X)` once; Theorem 1 judges those same configurations):
//! the one index of their tables, built with the NES, and the checker's
//! masks, built by the first checker attached. Neither holds per-run state.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::iter::Peekable;
use std::sync::{Arc, OnceLock};

use netkat::{ChainTables, FlowTable, FxBuildHasher, Loc};

use crate::config::Config;
use crate::estructure::EventStructure;
use crate::event::{Event, EventSet};
use crate::locality;
use crate::shared::{ConfigMasks, FxMap};

/// Errors in NES construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NesError {
    /// A reachable event-set of the event structure has no configuration.
    MissingConfig(EventSet),
    /// More events than an [`EventSet`] (and a packet digest) can name.
    TooManyEvents {
        /// Events asked for.
        got: usize,
        /// The most an event-set holds.
        limit: usize,
    },
}

impl fmt::Display for NesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NesError::MissingConfig(s) => {
                write!(f, "event-set {s} has no configuration assigned")
            }
            NesError::TooManyEvents { got, limit } => {
                write!(f, "{got} events exceed the {limit} an event-set can hold")
            }
        }
    }
}

impl std::error::Error for NesError {}

/// A network event structure `(E, con, ⊢, g)`: an event structure plus a map
/// `g` from event-sets to network configurations, the index of `g`'s
/// tables, and, once a checker is attached, the checker's masks over `g`.
/// Immutable and `Arc`-backed: a clone is a reference count.
///
/// # Examples
///
/// ```
/// use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
/// use netkat::{Loc, Pred};
/// let e0 = EventId::new(0);
/// let es = EventStructure::new(
///     vec![Event::new(e0, Pred::True, Loc::new(4, 1))],
///     [EventSet::singleton(e0)],
/// );
/// let g = [
///     (EventSet::empty(), Config::new()),
///     (EventSet::singleton(e0), Config::new()),
/// ];
/// let nes = NetworkEventStructure::new(es, g)?;
/// assert_eq!(nes.event_sets().len(), 2);
/// assert_eq!(nes.index_of(EventSet::singleton(e0)), Some(1));
/// // Neither configuration installs a table: the index has no rows.
/// assert_eq!((nes.tables().rows(), nes.table_rows().get(&4)), (0, None));
/// # Ok::<(), edn_core::NesError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NetworkEventStructure(Arc<Nes>);

#[derive(Debug)]
struct Nes {
    es: EventStructure,
    g: BTreeMap<EventSet, Config>,
    /// The reachable event-sets, sorted: column `i` of `tables`.
    sets: Vec<EventSet>,
    tables: Arc<ChainTables>,
    rows: HashMap<u64, u32, FxBuildHasher>,
    /// Each location with an event → the events there.
    located: FxMap<Loc, EventSet>,
    /// Built by the first checker attached, never by an unchecked run.
    masks: OnceLock<ConfigMasks>,
}

/// `configs`' tables, one column per configuration and one row per switch
/// with a table in any (ascending; the empty table where a configuration
/// has none), and the switch → row map.
///
/// Every configuration's tables ascend by switch, as the rows do, so the
/// rows are read by walking all of them in lockstep: one cursor per
/// configuration, advanced when its next table is the row's switch — no
/// search per cell.
pub(crate) fn index_tables(configs: &[&Config]) -> (ChainTables, HashMap<u64, u32, FxBuildHasher>) {
    let switches = switch_union(configs);
    let empty = &FlowTable::new();
    let cursors: Vec<RefCell<Peekable<_>>> =
        configs.iter().map(|c| RefCell::new(c.tables().peekable())).collect();
    let rows = switches.iter().map(|&sw| {
        cursors.iter().map(move |cursor| {
            let mut cursor = cursor.borrow_mut();
            cursor.next_if(|&(at, _)| at == sw).map_or(empty, |(_, table)| table)
        })
    });
    let tables = ChainTables::build(configs.len(), rows);
    (tables, switches.iter().enumerate().map(|(row, &sw)| (sw, row as u32)).collect())
}

/// The switches with a table in any of `configs`, ascending, each once. A
/// configuration whose switches are already all there (every one of a
/// campaign's after the first) adds nothing and copies nothing.
fn switch_union(configs: &[&Config]) -> Vec<u64> {
    let mut union: Vec<u64> = Vec::new();
    for config in configs {
        let mut known = union.iter();
        if config.switches().all(|sw| known.find(|&&k| k >= sw) == Some(&sw)) {
            continue;
        }
        union.extend(config.switches());
        union.sort_unstable();
        union.dedup();
    }
    union
}

impl NetworkEventStructure {
    /// Creates an NES, validating that `g` covers every reachable event-set,
    /// and indexes their configurations' tables ([`tables`](Self::tables)):
    /// the one [`ChainTables::build`] of every deployment of it.
    ///
    /// # Errors
    ///
    /// Returns [`NesError::MissingConfig`] if a reachable event-set of the
    /// structure has no configuration.
    pub fn new<I: IntoIterator<Item = (EventSet, Config)>>(
        es: EventStructure,
        g: I,
    ) -> Result<NetworkEventStructure, NesError> {
        let g: BTreeMap<EventSet, Config> = g.into_iter().collect();
        let sets = es.event_sets();
        let configs = sets
            .iter()
            .map(|s| g.get(s).ok_or(NesError::MissingConfig(*s)))
            .collect::<Result<Vec<&Config>, NesError>>()?;
        let (tables, rows) = index_tables(&configs);
        let mut located: FxMap<Loc, EventSet> = FxMap::default();
        for e in es.events() {
            let here = located.entry(e.loc).or_default();
            *here = here.insert(e.id);
        }
        let (tables, masks) = (Arc::new(tables), OnceLock::new());
        Ok(NetworkEventStructure(Arc::new(Nes { es, g, sets, tables, rows, located, masks })))
    }

    /// The underlying event structure.
    pub fn structure(&self) -> &EventStructure {
        &self.0.es
    }

    /// The events, indexed by [`EventId`](crate::EventId).
    pub fn events(&self) -> &[Event] {
        self.0.es.events()
    }

    /// The events located at `loc`, in id order: the ones a packet arriving
    /// there can fire.
    #[inline]
    pub fn events_at(&self, loc: Loc) -> impl Iterator<Item = &Event> {
        let here = self.0.located.get(&loc).copied().unwrap_or_default();
        here.iter().map(|e| self.0.es.event(e))
    }

    /// The configuration `g(X)` for event-set `X`.
    ///
    /// # Panics
    ///
    /// Panics if `X` is not a reachable event-set (construction guarantees
    /// coverage of reachable sets).
    pub fn config(&self, x: EventSet) -> &Config {
        self.0.g.get(&x).unwrap_or_else(|| panic!("event-set {x} has no configuration"))
    }

    /// The initial configuration `g(∅)`.
    pub fn initial_config(&self) -> &Config {
        self.config(EventSet::empty())
    }

    /// The reachable event-sets (Definition 4), sorted: the `i`-th is the
    /// index's column `i`, a deployment's tag `i`.
    pub fn event_sets(&self) -> &[EventSet] {
        &self.0.sets
    }

    /// `x`'s position in [`event_sets`](Self::event_sets), if reachable.
    #[inline]
    pub fn index_of(&self, x: EventSet) -> Option<usize> {
        self.0.sets.binary_search(&x).ok()
    }

    /// The tables, built with the NES: `g(X)`'s for `sw` (the empty table if
    /// none) at row `table_rows()[sw]`, column `index_of(X)`.
    #[inline]
    pub fn tables(&self) -> &Arc<ChainTables> {
        &self.0.tables
    }

    /// Each switch with a table in some `g(X)` → its row of [`tables`](Self::tables).
    pub fn table_rows(&self) -> &HashMap<u64, u32, FxBuildHasher> {
        &self.0.rows
    }

    /// The checker's masks over `g` (`shared.rs`), built by the first call,
    /// which panics past 64 reachable event-sets (the checker refuses those).
    pub(crate) fn masks(&self) -> &ConfigMasks {
        self.0.masks.get_or_init(|| {
            let configs: Vec<&Config> = self.0.sets.iter().map(|&x| self.config(x)).collect();
            ConfigMasks::build(&self.0.rows, &configs, self.0.es.events())
        })
    }

    /// The checker's masks, if a checker has been attached to this NES: one
    /// instance, whichever checker built it and however many read it.
    pub fn checker_masks(&self) -> Option<&ConfigMasks> {
        self.0.masks.get()
    }

    /// Whether the NES is locally-determined (Section 2): every
    /// minimally-inconsistent set, found exactly by
    /// [`minimally_inconsistent`](crate::minimally_inconsistent), lies on one switch.
    pub fn is_locally_determined(&self) -> bool {
        let es = &self.0.es;
        locality::minimally_inconsistent(es).iter().all(|set| {
            let mut switches = set.iter().map(|e| es.event(e).loc.sw);
            let first = switches.next();
            switches.all(|sw| Some(sw) == first)
        })
    }

    /// Total rule count over all configurations (for the optimizer and the
    /// evaluation tables).
    pub fn total_rules(&self) -> usize {
        self.0.g.values().map(Config::rule_count).sum()
    }
}

impl fmt::Display for NetworkEventStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.es)?;
        for (s, c) in &self.0.g {
            writeln!(f, "g({s}) = configuration with {} rules", c.rule_count())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use netkat::{Loc, Pred};

    fn one_event_structure() -> EventStructure {
        let e0 = EventId::new(0);
        EventStructure::new(
            vec![Event::new(e0, Pred::True, Loc::new(4, 1))],
            [EventSet::singleton(e0)],
        )
    }

    #[test]
    fn construction_requires_total_g() {
        let es = one_event_structure();
        let err = NetworkEventStructure::new(es.clone(), [(EventSet::empty(), Config::new())])
            .unwrap_err();
        assert_eq!(err, NesError::MissingConfig(EventSet::singleton(EventId::new(0))));
        let ok = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(EventId::new(0)), Config::new()),
            ],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn config_lookup() {
        let es = one_event_structure();
        let mut c1 = Config::new();
        c1.add_host(7, Loc::new(1, 1));
        let nes = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(EventId::new(0)), c1.clone()),
            ],
        )
        .unwrap();
        assert_eq!(nes.initial_config(), &Config::new());
        assert_eq!(nes.config(EventSet::singleton(EventId::new(0))), &c1);
    }

    #[test]
    fn locality_delegates() {
        let es = one_event_structure();
        let nes = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(EventId::new(0)), Config::new()),
            ],
        )
        .unwrap();
        assert!(nes.is_locally_determined());
    }
}
