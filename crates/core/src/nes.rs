//! Network event structures (Definition 5).

use std::collections::BTreeMap;
use std::fmt;

use crate::config::Config;
use crate::estructure::EventStructure;
use crate::event::{Event, EventSet};
use crate::locality;

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
/// `g` from event-sets to network configurations.
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
/// # Ok::<(), edn_core::NesError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NetworkEventStructure {
    es: EventStructure,
    g: BTreeMap<EventSet, Config>,
}

impl NetworkEventStructure {
    /// Creates an NES, validating that `g` covers every reachable event-set.
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
        for s in es.event_sets() {
            if !g.contains_key(&s) {
                return Err(NesError::MissingConfig(s));
            }
        }
        Ok(NetworkEventStructure { es, g })
    }

    /// The underlying event structure.
    pub fn structure(&self) -> &EventStructure {
        &self.es
    }

    /// The events, indexed by [`EventId`](crate::EventId).
    pub fn events(&self) -> &[Event] {
        self.es.events()
    }

    /// The configuration `g(X)` for event-set `X`.
    ///
    /// # Panics
    ///
    /// Panics if `X` is not a reachable event-set (construction guarantees
    /// coverage of reachable sets).
    pub fn config(&self, x: EventSet) -> &Config {
        self.g.get(&x).unwrap_or_else(|| panic!("event-set {x} has no configuration"))
    }

    /// The initial configuration `g(∅)`.
    pub fn initial_config(&self) -> &Config {
        self.config(EventSet::empty())
    }

    /// The reachable event-sets (Definition 4).
    pub fn event_sets(&self) -> Vec<EventSet> {
        self.es.event_sets()
    }

    /// Whether the NES is locally-determined (Section 2): every
    /// minimally-inconsistent set, found exactly by
    /// [`minimally_inconsistent`](crate::minimally_inconsistent), lies on one switch.
    pub fn is_locally_determined(&self) -> bool {
        locality::minimally_inconsistent(&self.es).iter().all(|set| {
            let mut switches = set.iter().map(|e| self.es.event(e).loc.sw);
            let first = switches.next();
            switches.all(|sw| Some(sw) == first)
        })
    }

    /// Total rule count over all configurations (for the optimizer and the
    /// evaluation tables).
    pub fn total_rules(&self) -> usize {
        self.g.values().map(Config::rule_count).sum()
    }
}

impl fmt::Display for NetworkEventStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.es)?;
        for (s, c) in &self.g {
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
