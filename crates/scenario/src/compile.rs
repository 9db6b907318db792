//! Compiling a [`ScenarioSpec`] into runnable form: a topology (with mobile
//! twins for moved hosts), a chain-NES update campaign, engine action and
//! injection timelines, and the background traffic.
//!
//! The campaign's steps are synthesized from the spec:
//!
//! * each of the `updates` **generic steps** unblocks one seeded-chosen
//!   *victim* host — the initial configuration carries no rules toward the
//!   victims, and step `i` restores victim `i`'s shortest-path rules
//!   (successive policy rollouts, in the paper's event-driven-update
//!   framing);
//! * each `move_host` action becomes a **mobility step** re-pointing the
//!   host's rules at its twin attachment ([`edn_topo::rehomed_rules`]).
//!
//! Steps are driven by marker packets ([`nes_runtime::campaign_trigger`])
//! sent from the topology's first host to its second — two endpoints every
//! configuration routes — so the chain fires in order. When `probe` is set,
//! each step is followed by a probe **from the trigger's destination** to
//! the step's target host: the probe's sender has just received the
//! trigger, so the probe is causally after the firing, and a plane that
//! drops it under a stale configuration (the uncoordinated baseline mid
//! push) violates Definition 6 — the generalization of the paper's Fig. 10
//! counterexample that makes scenarios a differential oracle.

use std::collections::{BTreeMap, BTreeSet};

use edn_core::NetworkEventStructure;
use edn_topo::{
    config_from_rules, fat_tree, grid, linear, rehomed_rules, ring, shortest_path_groups,
    synthesize, synthesize_arrivals, torus, with_mobile_twin, ArrivalModel, GenTopology,
    LinkProfile, RouteGroup, TierProfile, Workload,
};
use nes_runtime::{campaign_nes, campaign_pred, campaign_trigger, CampaignStep};
use netkat::{Field, FlowTable, Loc, Packet, Rule};
use netsim::traffic::{udp_packet, UdpFlowSpec};
use netsim::{DataPlane, Engine, MetricsLevel, SimParams, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::spec::{
    validate, ActionKind, ModelSpec, ScenarioError, ScenarioSpec, TopologySpec, WorkloadSpec,
};

/// Gap between a campaign step's trigger and its probe: long enough for the
/// trigger to traverse any of the generated topologies, far shorter than
/// any realistic `update_delay`.
pub fn probe_delay() -> SimTime {
    SimTime::from_millis(5)
}

/// Flow-id base for probe packets — far above workload flow ids (`0..`) and
/// below trigger flow ids (`u64::MAX - step`).
pub const PROBE_FLOW_BASE: u64 = 1 << 62;

/// What a campaign step does, for reports and assertions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepTarget {
    /// The step restores routing toward this previously-blocked host.
    Unblock(u64),
    /// The step re-homes `host` to switch `to` (rules move to its twin).
    Move {
        /// The moving host's id.
        host: u64,
        /// Its new attachment switch.
        to: u64,
    },
}

impl StepTarget {
    /// The host whose connectivity the step changes (probe destination).
    pub fn host(&self) -> u64 {
        match *self {
            StepTarget::Unblock(h) => h,
            StepTarget::Move { host, .. } => host,
        }
    }
}

/// One planned campaign step: its trigger time and effect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlannedStep {
    /// When the step's trigger packet is injected.
    pub time: SimTime,
    /// What the step changes.
    pub target: StepTarget,
}

/// A scripted engine manipulation, resolved against the run topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineAction {
    /// Fail both directions of a link.
    FailBilink(SimTime, Loc, Loc),
    /// Restore both directions of a link.
    RestoreBilink(SimTime, Loc, Loc),
    /// Crash a switch (all inter-switch links down).
    Crash(SimTime, u64),
    /// Recover a crashed switch.
    Recover(SimTime, u64),
    /// Set the controller latency from an instant onward.
    CtrlLatency(SimTime, SimTime),
}

/// A scenario compiled into runnable form.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// The spec this was compiled from.
    pub spec: ScenarioSpec,
    /// The bare generated topology (no twins) — workload endpoints and the
    /// host list index into this.
    pub base: GenTopology,
    /// The run topology: `base` plus a mobile twin per moved host.
    pub run: GenTopology,
    /// The campaign as a chain network event structure.
    pub nes: NetworkEventStructure,
    /// The campaign's steps in firing order.
    pub steps: Vec<PlannedStep>,
    /// Engine manipulations, in spec order.
    pub actions: Vec<EngineAction>,
    /// Step trigger injections: `(time, injecting host, packet)`.
    pub triggers: Vec<(SimTime, u64, Packet)>,
    /// Causal probe injections: `(time, injecting host, packet)`.
    pub probes: Vec<(SimTime, u64, Packet)>,
    /// The background traffic.
    pub flows: Vec<UdpFlowSpec>,
    /// The run deadline (spec horizon, or computed).
    pub horizon: SimTime,
    /// The telemetry level the legs run at ([`MetricsLevel::Off`] unless
    /// the caller raises it); a lossy leg always runs at
    /// [`MetricsLevel::Full`], for its flight recorder.
    pub metrics: MetricsLevel,
}

/// The tables of one [`RouteGroup`]'s switches across the campaign's
/// states. While steps only add rules the group keeps one growing list and
/// a state is a length of it; a step that rewrites a rule starts the next
/// list from a copy. Frozen at the end, every state's table is a prefix
/// view of the list it was taken from — so a run of additive steps shares
/// one allocation, and the deployment one index ([`FlowTable::prefix`]).
///
/// The group's switches stay one list in every state: they route every host
/// of the topology alike, twins included, so an unblock adds the same rule
/// at each of them, and a move's re-pointed rule ([`rehomed_rules`], the
/// route toward the twin's attachment) is the twin's own, equal one.
struct SwitchLists {
    /// The lists in the order they were started; the last is still growing.
    lists: Vec<Vec<Rule>>,
    /// Per campaign state so far: which list, and how many of its rules.
    states: Vec<(usize, usize)>,
    /// The rules toward still-blocked victims, by victim.
    blocked: BTreeMap<u64, Rule>,
}

impl SwitchLists {
    /// Splits a switch's full routing rules into the initial table and the
    /// rules held back for `victims`. Twins are never addressed directly,
    /// so rules toward them are dropped.
    fn new(routing: Vec<Rule>, victims: &BTreeSet<u64>) -> SwitchLists {
        let mut initial = Vec::with_capacity(routing.len());
        let mut blocked = BTreeMap::new();
        for rule in routing {
            let dst = rule.pattern.get(Field::IpDst).expect("routing rules match ip_dst");
            if dst >= edn_topo::MOBILE_TWIN_OFFSET {
                continue;
            }
            if victims.contains(&dst) {
                blocked.insert(dst, rule);
            } else {
                initial.push(rule);
            }
        }
        SwitchLists { lists: vec![initial], states: Vec::new(), blocked }
    }

    fn growing(&mut self) -> &mut Vec<Rule> {
        self.lists.last_mut().expect("a switch always has a list")
    }

    /// Records the table as it stands as the next campaign state's.
    fn snapshot(&mut self) {
        let list = self.lists.len() - 1;
        self.states.push((list, self.lists[list].len()));
    }

    /// An unblock: the victim's rule goes last, so the table before it is a
    /// prefix of the table after. (Routing rules match distinct `ip_dst`s,
    /// so their order decides nothing.)
    fn unblock(&mut self, victim: u64) {
        if let Some(rule) = self.blocked.remove(&victim) {
            self.growing().push(rule);
        }
    }

    /// A move: the host's rule is re-pointed at `rehomed` (or removed when
    /// the twin is unreachable from here). Earlier states keep the list
    /// they saw; a switch whose rule does not change keeps growing its own.
    fn rehome(&mut self, host: u64, rehomed: Option<&Rule>) {
        let current = self.growing();
        let Some(at) = current.iter().position(|r| r.pattern.get(Field::IpDst) == Some(host))
        else {
            return;
        };
        if rehomed == Some(&current[at]) {
            return;
        }
        let mut next = current.clone();
        match rehomed {
            Some(rule) => next[at] = rule.clone(),
            None => {
                next.remove(at);
            }
        }
        self.lists.push(next);
    }

    /// The table of every recorded state, in order.
    fn into_tables(self) -> impl Iterator<Item = FlowTable> {
        let whole: Vec<FlowTable> = self.lists.into_iter().map(FlowTable::from_rules).collect();
        self.states.into_iter().map(move |(list, len)| whole[list].prefix(len))
    }
}

pub(crate) fn build_topology(spec: TopologySpec) -> GenTopology {
    match spec {
        TopologySpec::Ring(n) => ring(n, LinkProfile::default()),
        TopologySpec::Linear(n) => linear(n, LinkProfile::default()),
        TopologySpec::Grid(r, c) => grid(r, c, LinkProfile::default()),
        TopologySpec::Torus(r, c) => torus(r, c, LinkProfile::default()),
        TopologySpec::FatTree(k) => fat_tree(k, TierProfile::default()),
    }
}

fn build_flows(base: &GenTopology, seed: u64, w: &WorkloadSpec) -> Vec<UdpFlowSpec> {
    let workload = Workload {
        pattern: w.pattern,
        seed,
        flows: w.flows,
        packets_per_flow: w.packets_per_flow,
        interval: w.interval,
        size: w.size,
        start: w.start,
        spread: w.spread,
    };
    match w.model {
        ModelSpec::None => synthesize(base, &workload),
        ModelSpec::Pareto => synthesize_arrivals(
            base,
            &workload,
            &ArrivalModel::Pareto { alpha: 1.3, max_packets: workload.packets_per_flow.max(1) * 8 },
        ),
        ModelSpec::OnOff => synthesize_arrivals(
            base,
            &workload,
            &ArrivalModel::OnOff { burst_packets: 3, off: SimTime::from_millis(2) },
        ),
        ModelSpec::Diurnal => synthesize_arrivals(
            base,
            &workload,
            &ArrivalModel::Diurnal { periods: 2, trough_pct: 20 },
        ),
    }
}

impl CompiledScenario {
    /// Compiles a spec. Deterministic: equal specs compile to equal
    /// scenarios, byte for byte.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when the spec names structure the
    /// topology doesn't have (unknown links or switches, out-of-range host
    /// indices), needs more victims than there are spare hosts, or
    /// schedules two campaign steps at the same instant.
    pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, ScenarioError> {
        validate(spec)?;
        let base = build_topology(spec.topology);
        let hosts: Vec<u64> = base.hosts().to_vec();
        if hosts.len() < 2 {
            return Err(ScenarioError::Invalid(format!(
                "{} has {} hosts; scenarios need at least 2",
                base.name(),
                hosts.len()
            )));
        }
        let switches: BTreeSet<u64> = base.sim().switches().iter().copied().collect();

        // Mobility: validate the movers and extend the topology with twins.
        let mut movers: Vec<(SimTime, u64, u64)> = Vec::new(); // (at, host, to)
        for a in &spec.actions {
            if let ActionKind::MoveHost { host, to } = a.kind {
                if host < 2 || host >= hosts.len() {
                    return Err(ScenarioError::Invalid(format!(
                        "move_host host index {host} out of range 2..{}",
                        hosts.len()
                    )));
                }
                if !switches.contains(&to) {
                    return Err(ScenarioError::Invalid(format!(
                        "move_host target {to} is not a switch of {}",
                        base.name()
                    )));
                }
                let id = hosts[host];
                if movers.iter().any(|&(_, h, _)| h == id) {
                    return Err(ScenarioError::Invalid(format!("host {id} moves twice")));
                }
                movers.push((a.at, id, to));
            }
        }
        let mut run = base.clone();
        for &(_, host, to) in &movers {
            run = with_mobile_twin(&run, host, to);
        }

        // Victims: seeded draw from the hosts that are neither campaign
        // endpoints nor movers.
        let mover_ids: BTreeSet<u64> = movers.iter().map(|&(_, h, _)| h).collect();
        let mut pool: Vec<u64> =
            hosts[2..].iter().copied().filter(|h| !mover_ids.contains(h)).collect();
        if pool.len() < spec.campaign.updates {
            return Err(ScenarioError::Invalid(format!(
                "{} spare hosts cannot host {} update victims",
                pool.len(),
                spec.campaign.updates
            )));
        }
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5343_454e_4152_4f21); // "SCENARO!"
        pool.shuffle(&mut rng);
        let victims: Vec<u64> = pool[..spec.campaign.updates].to_vec();

        // The step plan: generic unblocks on the campaign grid, moves at
        // their action times, merged in time order.
        let mut steps: Vec<PlannedStep> = Vec::new();
        for (i, &v) in victims.iter().enumerate() {
            let at = spec.campaign.start.as_micros() + spec.campaign.spacing.as_micros() * i as u64;
            steps.push(PlannedStep {
                time: SimTime::from_micros(at),
                target: StepTarget::Unblock(v),
            });
        }
        for &(at, host, to) in &movers {
            steps.push(PlannedStep { time: at, target: StepTarget::Move { host, to } });
        }
        steps.sort_by_key(|s| s.time);
        for pair in steps.windows(2) {
            if pair[0].time == pair[1].time {
                return Err(ScenarioError::Invalid(format!(
                    "campaign steps {:?} and {:?} coincide at {:?}",
                    pair[0].target, pair[1].target, pair[0].time
                )));
            }
        }

        // Per-state configurations: full shortest paths, minus rules toward
        // still-blocked victims, with moved hosts' rules re-pointed at
        // their twins. Nothing is built per state but a length per group of
        // switches that route alike: see `SwitchLists`.
        let victim_set: BTreeSet<u64> = victims.iter().copied().collect();
        let mut tables: Vec<(Vec<u64>, SwitchLists)> = shortest_path_groups(&run)
            .into_iter()
            .map(|RouteGroup { switches, rules }| (switches, SwitchLists::new(rules, &victim_set)))
            .collect();
        tables.iter_mut().for_each(|(_, t)| t.snapshot());
        for step in &steps {
            match step.target {
                StepTarget::Unblock(victim) => {
                    tables.iter_mut().for_each(|(_, t)| t.unblock(victim));
                }
                StepTarget::Move { host, .. } => {
                    let rehomed = rehomed_rules(&run, host);
                    for (switches, t) in &mut tables {
                        let rule = rehomed.get(&switches[0]);
                        debug_assert!(switches.iter().all(|sw| rehomed.get(sw) == rule));
                        t.rehome(host, rule);
                    }
                }
            }
            tables.iter_mut().for_each(|(_, t)| t.snapshot());
        }
        // The links and hosts are every state's: built once, cloned per state.
        let skeleton = config_from_rules(&run, BTreeMap::new());
        let mut configs = vec![skeleton; steps.len() + 1];
        for (switches, lists) in tables {
            for (config, table) in configs.iter_mut().zip(lists.into_tables()) {
                for &sw in &switches {
                    config.install(sw, table.clone());
                }
            }
        }
        let mut configs = configs.into_iter();
        let initial = configs.next().expect("the initial state");
        let trigger_host = hosts[0];
        let trigger_dst = hosts[1];
        let trigger_loc = run.attachment(trigger_host).expect("generated hosts are attached");
        let campaign_steps = configs
            .enumerate()
            .map(|(i, config)| CampaignStep { trigger: campaign_pred(i), loc: trigger_loc, config })
            .collect();
        let nes = campaign_nes(initial, campaign_steps)
            .map_err(|e| ScenarioError::Invalid(format!("campaign NES rejected: {e:?}")))?;

        // Trigger and probe injections.
        let mut triggers = Vec::with_capacity(steps.len());
        let mut probes = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            triggers.push((
                step.time,
                trigger_host,
                campaign_trigger(trigger_host, trigger_dst, i),
            ));
            if spec.campaign.probe {
                probes.push((
                    step.time + probe_delay(),
                    trigger_dst,
                    udp_packet(trigger_dst, step.target.host(), PROBE_FLOW_BASE + i as u64, 0),
                ));
            }
        }

        // Engine actions, resolved against the run topology's links.
        let baseline = SimParams::default().controller_latency;
        let bilink = |a: u64, b: u64| {
            run.sim()
                .links()
                .iter()
                .find(|l| l.src.sw == a && l.dst.sw == b)
                .map(|l| (l.src, l.dst))
                .ok_or_else(|| {
                    ScenarioError::Invalid(format!("no link {a} ↔ {b} in {}", run.name()))
                })
        };
        let known_switch = |sw: u64| {
            switches.contains(&sw).then_some(sw).ok_or_else(|| {
                ScenarioError::Invalid(format!("{sw} is not a switch of {}", run.name()))
            })
        };
        let mut actions = Vec::new();
        for a in &spec.actions {
            match a.kind {
                ActionKind::FailLink { a: x, b: y } => {
                    let (src, dst) = bilink(x, y)?;
                    actions.push(EngineAction::FailBilink(a.at, src, dst));
                }
                ActionKind::RestoreLink { a: x, b: y } => {
                    let (src, dst) = bilink(x, y)?;
                    actions.push(EngineAction::RestoreBilink(a.at, src, dst));
                }
                ActionKind::CrashSwitch { sw } => {
                    actions.push(EngineAction::Crash(a.at, known_switch(sw)?));
                }
                ActionKind::RecoverSwitch { sw } => {
                    actions.push(EngineAction::Recover(a.at, known_switch(sw)?));
                }
                ActionKind::LatencySpike { latency, until } => {
                    // Clamped to the baseline: a spike models slowness,
                    // never a speed-up.
                    actions.push(EngineAction::CtrlLatency(a.at, latency.max(baseline)));
                    actions.push(EngineAction::CtrlLatency(until, baseline));
                }
                ActionKind::MoveHost { .. } => {} // already a campaign step
            }
        }

        // Background traffic over the *base* hosts (twins are reached via
        // their base address, never directly).
        let flows = build_flows(&base, spec.seed, &spec.workload);

        let horizon = if spec.horizon > SimTime::ZERO {
            spec.horizon
        } else {
            let mut last = SimTime::ZERO;
            for f in &flows {
                last = last.max(f.end);
            }
            for s in &steps {
                last = last.max(s.time + probe_delay());
            }
            for a in &spec.actions {
                last = last.max(a.at);
                if let ActionKind::LatencySpike { until, .. } = a.kind {
                    last = last.max(until);
                }
            }
            last + SimTime::from_secs(1)
        };

        Ok(CompiledScenario {
            spec: spec.clone(),
            base,
            run,
            nes,
            steps,
            actions,
            triggers,
            probes,
            flows,
            horizon,
            metrics: MetricsLevel::Off,
        })
    }

    /// Builds the coordinated (NES runtime) engine for this scenario: no
    /// controller broadcast, sink hosts.
    pub fn engine(&self) -> Engine<nes_runtime::NesDataPlane> {
        nes_runtime::nes_engine(
            self.nes.clone(),
            self.run.sim().clone(),
            SimParams::default(),
            false,
            Box::new(netsim::SinkHosts),
        )
    }

    /// [`engine`](CompiledScenario::engine) wrapped in the
    /// [`Reliable`](nes_runtime::Reliable) ack/retry layer — the
    /// deployment for lossy-channel runs. `budget` bounds retransmissions
    /// per message before the run degrades.
    pub fn reliable_engine_with(
        &self,
        budget: u32,
    ) -> Engine<nes_runtime::Reliable<nes_runtime::NesDataPlane>> {
        let topo = self.run.sim().clone();
        let compiled = nes_runtime::CompiledNes::compile(self.nes.clone());
        let plane = nes_runtime::NesDataPlane::new(compiled, topo.switches().to_vec(), false);
        let plane = nes_runtime::Reliable::with_budget(plane, budget);
        Engine::new(topo, SimParams::default(), plane, Box::new(netsim::SinkHosts))
    }

    /// Builds the uncoordinated-baseline engine: the spec's `update_delay`
    /// and seed drive the controller's push timing and order.
    pub fn uncoordinated(&self) -> Engine<nes_runtime::UncoordDataPlane> {
        nes_runtime::uncoordinated_engine(
            self.nes.clone(),
            self.run.sim().clone(),
            SimParams::default(),
            self.spec.campaign.update_delay,
            self.spec.seed,
            Box::new(netsim::SinkHosts),
        )
    }

    /// Applies the scripted engine actions (failures, recoveries, latency
    /// spikes) to an engine's timelines.
    pub fn apply_actions<D: DataPlane>(&self, engine: &mut Engine<D>) {
        for a in &self.actions {
            match *a {
                EngineAction::FailBilink(t, x, y) => engine.fail_bilink_at(t, x, y),
                EngineAction::RestoreBilink(t, x, y) => engine.restore_bilink_at(t, x, y),
                EngineAction::Crash(t, sw) => engine.crash_switch_at(t, sw),
                EngineAction::Recover(t, sw) => engine.recover_switch_at(t, sw),
                EngineAction::CtrlLatency(t, l) => engine.set_controller_latency_at(t, l),
            }
        }
    }

    /// Injects the campaign's triggers and probes.
    pub fn inject_campaign<D: DataPlane>(&self, engine: &mut Engine<D>) {
        for &(t, host, ref p) in self.triggers.iter().chain(&self.probes) {
            engine.inject_at(t, host, p.clone());
        }
    }

    /// Loads the background traffic — as a live streamed source
    /// (`stream = true`, single-threaded) or as pre-scheduled batch
    /// injections (byte-identical either way) — returning the datagram
    /// count.
    pub fn load_traffic<D: DataPlane>(&self, engine: &mut Engine<D>, stream: bool) -> u64 {
        if stream {
            edn_topo::attach_stream(engine, &self.flows)
        } else {
            edn_topo::schedule(engine, &self.flows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ScenarioGen;
    use crate::spec::{ActionSpec, CampaignSpec};

    /// How a campaign state routes one host's address.
    #[derive(Clone, Copy)]
    enum Reach {
        /// A victim not yet unblocked: no rule anywhere.
        Blocked,
        /// The shortest-path rules toward its attachment.
        Routed,
        /// The rules toward its mobile twin's attachment.
        Moved,
    }

    /// The per-state rules as `compile` built them before tables shared
    /// lists — every state filtered whole out of the full routing, one
    /// `Reach` per host — kept as the specification of what each state
    /// installs: initial state first, then one entry per step. The full
    /// routing is built per host from `rules_toward`, not by the grouped
    /// synthesis under test.
    fn reference_state_rules(c: &CompiledScenario) -> Vec<BTreeMap<u64, Vec<Rule>>> {
        let run = &c.run;
        let toward: Vec<BTreeMap<u64, Rule>> = run
            .hosts()
            .iter()
            .map(|&h| edn_topo::rules_toward(run, run.attachment(h).expect("attached"), h))
            .collect();
        let full: BTreeMap<u64, Vec<Rule>> = run
            .sim()
            .switches()
            .iter()
            .map(|&sw| (sw, toward.iter().filter_map(|rules| rules.get(&sw).cloned()).collect()))
            .collect();
        let slot_of: BTreeMap<u64, usize> = run.hosts().iter().copied().zip(0..).collect();
        let state_rules = |reach: &[Reach]| -> BTreeMap<u64, Vec<Rule>> {
            full.iter()
                .map(|(&sw, list)| {
                    let mut rules = Vec::new();
                    for r in list {
                        let dst = r.pattern.get(Field::IpDst).expect("routing rules match ip_dst");
                        // Twins are never addressed directly.
                        if dst >= edn_topo::MOBILE_TWIN_OFFSET {
                            continue;
                        }
                        match reach[slot_of[&dst]] {
                            Reach::Blocked => {}
                            Reach::Routed => rules.push(r.clone()),
                            Reach::Moved => rules.extend(rehomed_rules(run, dst).get(&sw).cloned()),
                        }
                    }
                    (sw, rules)
                })
                .collect()
        };
        let mut reach = vec![Reach::Routed; run.hosts().len()];
        for step in &c.steps {
            if let StepTarget::Unblock(v) = step.target {
                reach[slot_of[&v]] = Reach::Blocked;
            }
        }
        let mut states = vec![state_rules(&reach)];
        for step in &c.steps {
            reach[slot_of[&step.target.host()]] = match step.target {
                StepTarget::Unblock(_) => Reach::Routed,
                StepTarget::Move { .. } => Reach::Moved,
            };
            states.push(state_rules(&reach));
        }
        states
    }

    /// The address of a table's rule list, for "is this the same
    /// allocation?" (`None` for an empty table, which has nothing to share).
    fn list_of(table: &FlowTable) -> Option<*const Rule> {
        table.iter().next().map(std::ptr::from_ref)
    }

    /// A move between two unblocks: an additive run, a rewrite, and another
    /// additive run on the rewritten lists.
    fn move_between_unblocks() -> ScenarioSpec {
        ScenarioSpec {
            name: "unblock-move-unblock".to_string(),
            topology: TopologySpec::FatTree(4),
            // Unblocks at 100, 200 and 300 ms (the default grid).
            campaign: CampaignSpec { updates: 3, ..CampaignSpec::default() },
            actions: vec![ActionSpec {
                at: SimTime::from_millis(150),
                kind: ActionKind::MoveHost { host: 2, to: 20 },
            }],
            ..churn_spec()
        }
    }

    /// Every state installs the reference's rules (as a set: an unblocked
    /// victim's rule goes last, not where the full routing had it),
    /// consecutive states across an unblock are prefixes on one
    /// allocation, a move starts a new list exactly where it rewrites a
    /// rule, and switches whose initial tables are one list stay one list
    /// in every later state.
    #[test]
    fn states_share_lists_and_install_the_reference_rules() {
        let specs = (0..32).map(ScenarioGen::sample).chain([churn_spec(), move_between_unblocks()]);
        let (mut extended, mut restarted, mut shared_pairs) = (0, 0, 0);
        for spec in specs {
            let c = CompiledScenario::compile(&spec).unwrap();
            let sets = c.nes.event_sets();
            assert_eq!(sets.len(), c.steps.len() + 1, "{}: a chain of prefixes", spec.name);
            let reference = reference_state_rules(&c);
            for (&set, want) in sets.iter().zip(&reference) {
                let config = c.nes.config(set);
                assert!(config.switches().eq(want.keys().copied()), "{}: switches", spec.name);
                for (&sw, rules) in want {
                    let got: BTreeSet<&Rule> =
                        config.table(sw).expect("installed").iter().collect();
                    assert_eq!(got.len(), config.table(sw).unwrap().len(), "a rule twice");
                    assert_eq!(got, rules.iter().collect(), "{}: {set} at switch {sw}", spec.name);
                }
            }
            for (pair, step) in sets.windows(2).zip(&c.steps) {
                let (before, after) = (c.nes.config(pair[0]), c.nes.config(pair[1]));
                for sw in before.switches() {
                    let (old, new) = (before.table(sw).unwrap(), after.table(sw).unwrap());
                    let shared = list_of(old).is_none() || list_of(old) == list_of(new);
                    match step.target {
                        StepTarget::Unblock(_) => {
                            assert!(old.is_prefix_of(new), "{}: {step:?} at {sw}", spec.name);
                            assert!(new.len() <= old.len() + 1);
                            assert!(shared, "{}: {step:?} copied switch {sw}'s list", spec.name);
                            extended += usize::from(new.len() > old.len());
                        }
                        StepTarget::Move { .. } => {
                            assert_eq!(old == new, shared, "{}: {step:?} at {sw}", spec.name);
                            restarted += usize::from(!shared);
                        }
                    }
                }
            }
            let initial = c.nes.config(sets[0]);
            let list = |set, sw| c.nes.config(set).table(sw).and_then(list_of);
            let switches: Vec<u64> = initial.switches().collect();
            for (i, &a) in switches.iter().enumerate() {
                for &b in &switches[i + 1..] {
                    if list(sets[0], a).is_none() || list(sets[0], a) != list(sets[0], b) {
                        continue;
                    }
                    shared_pairs += 1;
                    for &set in &sets[1..] {
                        assert_eq!(
                            list(set, a),
                            list(set, b),
                            "{}: {a} and {b} at {set}",
                            spec.name
                        );
                    }
                }
            }
        }
        assert!(extended > 0 && restarted > 0, "{extended} extensions, {restarted} restarts");
        assert!(shared_pairs > 0, "no two switches started on one list");
    }

    fn churn_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "ring-churn".to_string(),
            seed: 11,
            topology: TopologySpec::Ring(6),
            horizon: SimTime::ZERO,
            workload: WorkloadSpec::default(),
            campaign: CampaignSpec { updates: 2, ..CampaignSpec::default() },
            channel: crate::spec::ChannelSpec::default(),
            actions: vec![
                ActionSpec {
                    at: SimTime::from_millis(130),
                    kind: ActionKind::FailLink { a: 1, b: 2 },
                },
                ActionSpec {
                    at: SimTime::from_millis(170),
                    kind: ActionKind::RestoreLink { a: 1, b: 2 },
                },
                ActionSpec {
                    at: SimTime::from_millis(250),
                    kind: ActionKind::MoveHost { host: 2, to: 5 },
                },
            ],
        }
    }

    #[test]
    fn compiles_the_campaign_chain() {
        let c = CompiledScenario::compile(&churn_spec()).unwrap();
        assert_eq!(c.steps.len(), 3, "2 unblocks + 1 move");
        assert_eq!(c.nes.structure().event_sets().len(), 4, "∅ + 3 prefixes");
        assert_eq!(c.triggers.len(), 3);
        assert_eq!(c.probes.len(), 3, "probe per step");
        assert_eq!(c.actions.len(), 2, "the move became a step, not an action");
        assert_eq!(c.run.host_count(), c.base.host_count() + 1, "one twin");
        assert!(c.horizon >= SimTime::from_secs(1));
        // Victims and movers never touch the campaign endpoints.
        let hosts = c.base.hosts().to_vec();
        for s in &c.steps {
            assert_ne!(s.target.host(), hosts[0]);
            assert_ne!(s.target.host(), hosts[1]);
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let (a, b) = (
            CompiledScenario::compile(&churn_spec()).unwrap(),
            CompiledScenario::compile(&churn_spec()).unwrap(),
        );
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.triggers, b.triggers);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.horizon, b.horizon);
    }

    #[test]
    fn rejects_impossible_structure() {
        let mut no_link = churn_spec();
        no_link.actions[0] = ActionSpec {
            at: SimTime::from_millis(130),
            kind: ActionKind::FailLink { a: 1, b: 4 }, // rings have no chords
        };
        assert!(matches!(CompiledScenario::compile(&no_link), Err(ScenarioError::Invalid(_))));

        let mut too_many = churn_spec();
        too_many.campaign.updates = 10; // ring(6) has only 6 hosts
        assert!(matches!(CompiledScenario::compile(&too_many), Err(ScenarioError::Invalid(_))));

        let mut bad_move = churn_spec();
        bad_move.actions[2] = ActionSpec {
            at: SimTime::from_millis(250),
            kind: ActionKind::MoveHost { host: 0, to: 5 }, // trigger host
        };
        assert!(matches!(CompiledScenario::compile(&bad_move), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn latency_spikes_clamp_to_baseline() {
        let mut spec = churn_spec();
        spec.actions.push(ActionSpec {
            at: SimTime::from_millis(300),
            kind: ActionKind::LatencySpike {
                latency: SimTime::from_micros(1), // below baseline
                until: SimTime::from_millis(400),
            },
        });
        let c = CompiledScenario::compile(&spec).unwrap();
        let baseline = SimParams::default().controller_latency;
        assert!(c.actions.iter().all(|a| match *a {
            EngineAction::CtrlLatency(_, l) => l >= baseline,
            _ => true,
        }));
    }
}
