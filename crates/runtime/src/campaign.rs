//! Rolling update campaigns: many successive event-driven updates as one
//! chain-shaped network event structure.
//!
//! The paper's case studies fire a *single* update per run. An operator's
//! day looks different: dozens of policy pushes against live traffic. A
//! campaign models that as a chain NES — events `e₀, e₁, …` with the
//! prefix-set family `{e₀}, {e₀,e₁}, …` — so update `i` can only fire
//! after updates `0..i`, the reachable event-sets are exactly the `n+1`
//! prefixes, and the whole campaign deploys through the unmodified runtime
//! (tags, digests, Theorem 1) and fits the online checker's windows for
//! `n ≤ 63`.
//!
//! Each step is triggered by a packet matching a step-specific predicate at
//! a fixed location; [`campaign_mark`]/[`campaign_trigger`] provide a
//! ready-made marker scheme (a reserved `Field::Vlan` value per step) that
//! ordinary workload traffic never carries, so steps advance exactly when
//! their trigger packet arrives.

use edn_core::{Config, Event, EventId, EventSet, EventStructure, NesError, NetworkEventStructure};
use netkat::{Field, Loc, Packet, Pred};
use netsim::traffic::udp_packet;

/// The most steps a campaign can chain: one event id each, and the online
/// checker's windows hold 63.
const MAX_STEPS: usize = 63;

/// Base `Field::Vlan` value for campaign trigger markers.
pub const CAMPAIGN_MARK_BASE: u64 = 0xCA00;

/// One step of a campaign: when a packet matching `trigger` arrives at
/// `loc` (and every earlier step has fired), the network moves to `config`.
#[derive(Clone, Debug)]
pub struct CampaignStep {
    /// The predicate whose arrival at `loc` fires this step.
    pub trigger: Pred,
    /// Where the trigger is detected (switch ingress).
    pub loc: Loc,
    /// The configuration the network runs after this step fires.
    pub config: Config,
}

/// Builds the chain NES of a campaign: `initial` is `g(∅)` and step `i`
/// (event `i`, enabled only after steps `0..i`) moves the network to
/// `steps[i].config`.
///
/// # Errors
///
/// Returns [`NesError::TooManyEvents`] if `steps` has more than 63 entries
/// (the event-id universe), and the underlying [`NesError`] if a
/// configuration is rejected.
pub fn campaign_nes(
    initial: Config,
    steps: Vec<CampaignStep>,
) -> Result<NetworkEventStructure, NesError> {
    if steps.len() > MAX_STEPS {
        return Err(NesError::TooManyEvents { got: steps.len(), limit: MAX_STEPS });
    }
    let events: Vec<Event> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| Event::new(EventId::new(i), s.trigger.clone(), s.loc))
        .collect();
    // The prefix-set family: {e0}, {e0,e1}, … — sequential enabling.
    let mut family = Vec::with_capacity(steps.len());
    let mut prefix = EventSet::empty();
    for i in 0..steps.len() {
        prefix = prefix.insert(EventId::new(i));
        family.push(prefix);
    }
    let es = EventStructure::new(events, family.iter().copied());
    let mut g = vec![(EventSet::empty(), initial)];
    for (set, step) in family.into_iter().zip(steps) {
        g.push((set, step.config));
    }
    NetworkEventStructure::new(es, g)
}

/// The `Field::Vlan` marker value identifying campaign step `i`.
pub fn campaign_mark(i: usize) -> u64 {
    CAMPAIGN_MARK_BASE + i as u64
}

/// A marker predicate for campaign step `i` (pair with the trigger host's
/// attachment as the step location).
pub fn campaign_pred(i: usize) -> Pred {
    Pred::test(Field::Vlan, campaign_mark(i))
}

/// The trigger packet for campaign step `i`: a `src → dst` datagram
/// carrying the step's marker. `dst` should be a host whose routing every
/// campaign configuration preserves, so the trigger's own trace stays
/// consistent under both the replaced and the new configuration.
pub fn campaign_trigger(src: u64, dst: u64, i: usize) -> Packet {
    udp_packet(src, dst, u64::MAX - i as u64, 0).with(Field::Vlan, campaign_mark(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{attach_online_checker, nes_engine};
    use netkat::{Action, ActionSet, FlowTable, Match, Rule};
    use netsim::{SimParams, SimTime, SimTopology, SinkHosts};

    /// One switch (1), hosts 100/101/102 at ports 1/2/3. The base config
    /// routes only to 100; step i unlocks routing to host 100+i+1.
    fn fixture(n: usize) -> (NetworkEventStructure, SimTopology) {
        let hosts: Vec<(u64, u64)> = (0..=n as u64).map(|i| (100 + i, 1 + i)).collect();
        let mk = |unlocked: usize| {
            let mut c = Config::new();
            let rules: Vec<Rule> = hosts[..=unlocked]
                .iter()
                .map(|&(h, pt)| {
                    Rule::new(
                        Match::new().with(Field::IpDst, h),
                        ActionSet::single(Action::assign(Field::Port, pt)),
                    )
                })
                .collect();
            c.install(1, FlowTable::from_rules(rules));
            for &(h, pt) in &hosts {
                c.add_host(h, Loc::new(1, pt));
            }
            c
        };
        let steps = (0..n)
            .map(|i| CampaignStep {
                trigger: campaign_pred(i),
                loc: Loc::new(1, 1),
                config: mk(i + 1),
            })
            .collect();
        let nes = campaign_nes(mk(0), steps).expect("chain NES builds");
        let mut topo = SimTopology::new([1]);
        for &(h, pt) in &hosts {
            topo = topo.host(h, Loc::new(1, pt));
        }
        (nes, topo)
    }

    #[test]
    fn chain_nes_has_prefix_event_sets() {
        let (nes, _) = fixture(3);
        let sets = nes.structure().event_sets();
        assert_eq!(sets.len(), 4, "∅ plus three prefixes");
        for (k, set) in sets.iter().enumerate() {
            assert_eq!(set.iter().count(), k, "set {k} is the length-{k} prefix");
        }
    }

    #[test]
    fn steps_fire_in_order_and_unlock_routing() {
        let (nes, topo) = fixture(2);
        let mut engine =
            nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(SinkHosts));
        let handle = attach_online_checker(&mut engine, &nes).expect("fits the window");
        // Probe to 102 before any step: dropped under g(∅).
        engine.inject_at(SimTime::from_millis(1), 100, udp_packet(100, 102, 1, 0));
        // Step 0 at 10 ms, its probe at 12 ms (unlocks 101, not 102).
        engine.inject_at(SimTime::from_millis(10), 100, campaign_trigger(100, 100, 0));
        engine.inject_at(SimTime::from_millis(12), 100, udp_packet(100, 101, 2, 0));
        // Step 1 at 20 ms; now 102 is routable.
        engine.inject_at(SimTime::from_millis(20), 100, campaign_trigger(100, 100, 1));
        engine.inject_at(SimTime::from_millis(22), 100, udp_packet(100, 102, 3, 0));
        let result = engine.run_until(SimTime::from_secs(1));
        assert_eq!(result.dataplane.fired_sequence().len(), 2, "both steps fired");
        assert_eq!(result.stats.delivered_to(101).count(), 1);
        assert_eq!(result.stats.delivered_to(102).count(), 1, "only the post-step probe lands");
        handle.verdict().expect("Theorem 1 covers campaigns");
    }

    #[test]
    fn a_sixty_fourth_step_is_an_error_not_a_panic() {
        let step = || CampaignStep {
            trigger: campaign_pred(0),
            loc: Loc::new(1, 1),
            config: Config::new(),
        };
        let err = campaign_nes(Config::new(), (0..64).map(|_| step()).collect()).unwrap_err();
        assert_eq!(err, NesError::TooManyEvents { got: 64, limit: 63 });
        assert_eq!(err.to_string(), "64 events exceed the 63 an event-set can hold");
        campaign_nes(Config::new(), (0..63).map(|_| step()).collect()).expect("63 steps fit");
    }

    #[test]
    fn out_of_order_trigger_does_not_fire() {
        let (nes, topo) = fixture(2);
        let mut engine = nes_engine(nes, topo, SimParams::default(), false, Box::new(SinkHosts));
        // Step 1's trigger arrives first: the chain forbids it.
        engine.inject_at(SimTime::from_millis(10), 100, campaign_trigger(100, 100, 1));
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(result.dataplane.fired_sequence().is_empty(), "e1 needs e0 first");
    }
}
