//! A static data plane: one fixed configuration, no tags, no events.
//!
//! This is the Fig. 16(a) reference point — "the initial (static)
//! configuration of the program running on un-modified OpenFlow 1.0
//! reference switches" — against which the NES runtime's overhead is
//! measured.

use std::collections::BTreeMap;

use edn_core::Config;
use netkat::{CompiledTable, Field, Loc, LocatedView, Packet, PacketArena, PacketId};
use netsim::{CtrlMsg, DataPlane, PlaneOut, SimTime};

/// A data plane that forwards under a single fixed [`Config`].
#[derive(Clone, Debug)]
pub struct StaticDataPlane {
    config: Config,
    /// Per-switch compiled tables, built once at deployment.
    index: BTreeMap<u64, CompiledTable>,
    /// Reused `step` buffers (see `NesDataPlane`): lookup and output
    /// packets are built here; a steady-state hop allocates nothing.
    lookup_buf: Packet,
    out_buf: Packet,
}

impl StaticDataPlane {
    /// Deploys the configuration.
    pub fn new(config: Config) -> StaticDataPlane {
        let index = config
            .switches()
            .filter_map(|sw| config.table(sw).map(|t| (sw, t.compile())))
            .collect();
        StaticDataPlane { config, index, lookup_buf: Packet::new(), out_buf: Packet::new() }
    }

    /// The deployed configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }
}

impl DataPlane for StaticDataPlane {
    /// A zero-copy [`LocatedView`] lookup in the compiled index plus the
    /// identity-hop fast path — a hop whose writes change nothing forwards
    /// the input id without materializing or interning anything — and
    /// reused buffers for content-changing hops: `NesDataPlane::step` minus
    /// events. The owned transcription is `process_reference`.
    fn step(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        _from_host: bool,
        _now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut,
    ) {
        let loc = Loc::new(sw, pt);
        let base = arena.get(packet);
        let view = LocatedView { base, loc, tag: None };
        if let Some(rule) = self.index.get(&sw).and_then(|t| t.lookup_on(&view)) {
            if rule.actions.len() == 1 {
                let action = rule.actions.iter().next().expect("len 1");
                let mut out_pt = pt;
                let mut identity =
                    base.get(Field::Switch).is_none() && base.get(Field::Port).is_none();
                for (f, v) in action.writes() {
                    match f {
                        Field::Switch => {}
                        Field::Port => out_pt = v,
                        f if base.get(f) != Some(v) => identity = false,
                        _ => {}
                    }
                }
                if identity {
                    out.outputs.push((out_pt, packet));
                } else {
                    let mut buf = std::mem::take(&mut self.out_buf);
                    buf.clone_from(base);
                    buf.take_loc();
                    for (f, v) in action.writes() {
                        if !f.is_location() {
                            buf.set(f, v);
                        }
                    }
                    out.outputs.push((out_pt, arena.intern_ref(&buf)));
                    self.out_buf = buf;
                }
            } else if !rule.actions.is_empty() {
                // Multicast (rare): materialize the lookup packet and
                // `ActionSet::apply`'s sorted output set.
                let mut lookup = std::mem::take(&mut self.lookup_buf);
                lookup.clone_from(base);
                lookup.set_loc(loc);
                for mut cast in rule.actions.apply(&lookup) {
                    let (_, out_pt) = cast.take_loc();
                    out.outputs.push((out_pt.unwrap_or(pt), arena.intern(cast)));
                }
                self.lookup_buf = lookup;
            }
        }
    }

    fn on_notify(&mut self, _: CtrlMsg, _: SimTime, _: &mut PlaneOut) {}

    fn deliver(&mut self, _: u64, _: CtrlMsg, _: SimTime, _: &mut PlaneOut) {}

    /// Reports the compiled lookup index's fingerprint probe outcomes,
    /// summed over the per-switch tables, and the layout's size (one index
    /// and one slot per switch).
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        let (mut hits, mut fallbacks, mut rules) = (0u64, 0u64, 0u64);
        for table in self.index.values() {
            let (h, f) = table.lookup_stats();
            hits += h;
            fallbacks += f;
            rules += table.len() as u64;
        }
        reg.counter_add(edn_obs::Scope::Shard, "flowindex.fp_hits", hits);
        reg.counter_add(edn_obs::Scope::Shard, "flowindex.fp_fallbacks", fallbacks);
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.tables", self.index.len() as u64);
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.indexed_rules", rules);
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.slots", self.index.len() as u64);
    }
}

/// The owned table application — the per-hop executable specification
/// [`step`](DataPlane::step) answers to: the linear `FlowTable::lookup_on`
/// scan of the configuration's own table, never the compiled index.
#[cfg(test)]
impl StaticDataPlane {
    pub(crate) fn process_reference(&self, sw: u64, pt: u64, packet: Packet) -> netsim::StepResult {
        let mut lookup = packet;
        lookup.set_loc(Loc::new(sw, pt));
        let mut out = Vec::new();
        if let Some(rule) = self.config.table(sw).and_then(|t| t.lookup_on(&lookup)) {
            rule.actions.apply_into(&lookup, &mut out);
        }
        netsim::StepResult { outputs: netsim::table_outputs(pt, out), notifications: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop_props::Stepper;
    use netkat::{Action, ActionSet, Field, FlowTable, Match, Rule};

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
        dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO, &mut out);
        assert_eq!(out, PlaneOut::default());
    }
}
