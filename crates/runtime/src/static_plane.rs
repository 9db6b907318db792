//! A static data plane: one fixed configuration, no tags, no events.
//!
//! This is the Fig. 16(a) reference point — "the initial (static)
//! configuration of the program running on un-modified OpenFlow 1.0
//! reference switches" — against which the NES runtime's overhead is
//! measured.

use edn_core::{Config, EventSet, EventStructure, NetworkEventStructure};
use netkat::{Loc, LocatedView, PacketArena, PacketId};
use netsim::{DataPlane, PlaneOut, SimTime};

use crate::deploy::{Hop, PerTagTables};
#[cfg(test)]
use crate::hop_props::{table_reference, StepResult};

/// A data plane that forwards under a single fixed [`Config`].
#[derive(Clone, Debug)]
pub struct StaticDataPlane {
    /// The configuration, as `g(∅)` of an NES with no events.
    nes: NetworkEventStructure,
    /// The configuration's tables, deployed as the one-tag layout every
    /// plane forwards through.
    deployment: PerTagTables,
    hop: Hop,
}

impl StaticDataPlane {
    /// Deploys the configuration.
    pub fn new(config: Config) -> StaticDataPlane {
        let events = EventStructure::new(Vec::new(), []);
        let nes = NetworkEventStructure::new(events, [(EventSet::empty(), config)])
            .expect("the empty structure reaches only `∅`, which has the configuration");
        let deployment = PerTagTables::deploy(&nes, &[]);
        StaticDataPlane { nes, deployment, hop: Hop::default() }
    }

    /// The deployed configuration.
    pub fn config(&self) -> &Config {
        self.nes.initial_config()
    }
}

impl DataPlane for StaticDataPlane {
    /// No events, so nothing to tell the controller.
    type Msg = ();

    /// A zero-copy [`LocatedView`] lookup under the one tag, forwarded by
    /// the table hop every plane shares, unstamped: `NesDataPlane::step`
    /// minus events. The owned transcription is `process_reference`.
    fn step(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        _from_host: bool,
        _now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut<()>,
    ) {
        let Some(slot) = self.deployment.slot(sw) else { return };
        let loc = Loc::new(sw, pt);
        let view = LocatedView { base: arena.get(packet), loc, tag: None };
        if let Some(rule) = self.deployment.lookup_on(slot, 0, &view) {
            self.hop.forward(rule, None, loc, packet, arena, &mut out.outputs);
        }
    }

    /// Reports this plane's fingerprint probe outcomes, summed over the
    /// per-switch tables, and the layout's size (one index and one cell per
    /// switch).
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.deployment.contribute_metrics(reg);
    }
}

/// The owned table application — the per-hop executable specification
/// [`step`](DataPlane::step) answers to: the linear `FlowTable::lookup_on`
/// scan of the configuration's own table, never the compiled index.
#[cfg(test)]
impl StaticDataPlane {
    pub(crate) fn process_reference(
        &self,
        sw: u64,
        pt: u64,
        packet: netkat::Packet,
    ) -> StepResult<()> {
        let outputs = table_reference(self.config().table(sw), Loc::new(sw, pt), packet);
        StepResult { outputs, notifications: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop_props::Stepper;
    use netkat::{Action, ActionSet, Field, FlowTable, Match, Packet, Rule};

    fn config() -> Config {
        let mut config = Config::new();
        config.install(
            1,
            FlowTable::from_rules([Rule::new(
                Match::new().with(Field::Port, 2),
                ActionSet::single(Action::assign(Field::Port, 3)),
            )]),
        );
        config
    }

    #[test]
    fn forwards_under_the_fixed_config() {
        let mut st = Stepper::default();
        let mut dp = StaticDataPlane::new(config());
        let r = st.step(&mut dp, 1, 2, Packet::new(), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.outputs[0].0, 3);
        assert!(r.notifications.is_empty());
        // Non-matching port drops.
        assert!(st.step(&mut dp, 1, 9, Packet::new(), true, SimTime::ZERO).outputs.is_empty());
        // Controller messages are inert.
        let mut out = PlaneOut::default();
        dp.on_notify((), SimTime::ZERO, &mut out);
        assert_eq!(out, PlaneOut::default());
    }
}
