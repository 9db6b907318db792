//! Running compiled scenarios and reporting canonical results.
//!
//! Three legs, all fed identical traffic and campaign injections:
//!
//! * **coordinated, unchecked** — the NES runtime alone (the byte-identity
//!   leg: checking and streaming must not change a byte of its stats);
//! * **coordinated, checked** — the NES runtime with the online
//!   Definition 6 checker attached and optionally live streamed traffic;
//! * **uncoordinated, checked** — the Section 5.1 baseline under the same
//!   scenario, whose verdict the differential oracle compares against.
//!
//! [`differential`] packages the oracle: per Theorem 1 the coordinated
//! verdict must be `correct` on *every* scenario; the uncoordinated verdict
//! is allowed — and under probing usually observed — to be a violation.

use edn_core::OnlineViolation;
use netsim::{
    ChannelModel, DataPlane, Engine, MetricsLevel, Registry, RunResult, Stats, StatsMode,
};

use crate::compile::CompiledScenario;
use crate::spec::{ScenarioError, ScenarioSpec};

/// Options for a coordinated run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunOptions {
    /// Attach the online Definition 6 checker.
    pub check: bool,
    /// Feed traffic through a live [`WorkloadSource`](netsim::WorkloadSource)
    /// instead of batch pre-scheduling (byte-identical results).
    pub stream: bool,
    /// Control-channel override (`None` defers to the spec's `[channel]`
    /// section).
    pub channel: Option<ChannelModel>,
}

/// The result of one scenario leg.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioOutcome {
    /// Aggregate run statistics: the counters. A leg keeps no per-packet
    /// record, so [`Stats::deliveries`] is empty — drive
    /// [`CompiledScenario::engine`] yourself for it (and attach
    /// [`TraceBuilder::observer`](edn_core::TraceBuilder::observer) to it
    /// for the trace).
    pub stats: Stats,
    /// Background datagrams loaded.
    pub datagrams: u64,
    /// Campaign steps the runtime fired (coordinated legs only).
    pub fired: Option<usize>,
    /// The online checker's verdict, when one was attached.
    pub verdict: Option<Result<(), OnlineViolation>>,
    /// The reliability layer exhausted a retransmit budget: the run kept
    /// going but gave up on at least one control message (lossy legs only).
    pub degraded: bool,
    /// Flight-recorder dump captured when the run degraded — the
    /// message-level post-mortem (`drop`, `retry_exhausted`, …).
    pub flight_dump: Option<String>,
    /// The leg's finished telemetry registry, at
    /// [`CompiledScenario::metrics`] (a lossy leg's at
    /// [`MetricsLevel::Full`]); empty at [`MetricsLevel::Off`].
    pub metrics: Registry,
}

impl ScenarioOutcome {
    /// The verdict as a CSV-friendly word: `correct`, a violation name,
    /// `degraded` (budget exhaustion trumps the checker: a degraded run's
    /// violations are explained, not mysterious), or `unchecked`.
    pub fn verdict_name(&self) -> &'static str {
        if self.degraded {
            return "degraded";
        }
        match &self.verdict {
            None => "unchecked",
            Some(Ok(())) => "correct",
            Some(Err(v)) => v.name(),
        }
    }
}

/// The channel model a leg runs under: an explicit [`RunOptions::channel`]
/// override, else the spec's `[channel]` section seeded per scenario, so
/// different seeds see different fault patterns.
pub fn effective_channel(spec: &ScenarioSpec, opts: &RunOptions) -> ChannelModel {
    let seed = spec.seed ^ 0x4348_414e_5f45_444e; // "CHAN_EDN"
    opts.channel.unwrap_or_else(|| spec.channel.model(seed))
}

/// Runs the coordinated (NES runtime) leg of a scenario.
///
/// The effective channel model (see [`effective_channel`]) picks the
/// deployment: an ideal channel runs the bare runtime — byte-identical to
/// a build without the fault model — while a lossy channel wraps it in the
/// [`Reliable`](nes_runtime::Reliable) ack/retry layer, with the spec's
/// `retry_budget`, and forces full telemetry so a degraded run carries its
/// flight-recorder post-mortem.
///
/// # Panics
///
/// Panics if `opts.check` is set and the campaign exceeds the online
/// checker's windows (compilation already bounds steps at 63, so this
/// means a checker regression).
pub fn run_coordinated(c: &CompiledScenario, opts: &RunOptions) -> ScenarioOutcome {
    let model = effective_channel(&c.spec, opts);
    if model.is_ideal() {
        let engine = c.engine().with_channel(model).with_metrics(c.metrics);
        let (result, datagrams, verdict) = leg(c, engine, opts);
        ScenarioOutcome {
            stats: result.stats,
            datagrams,
            fired: Some(result.dataplane.fired_sequence().len()),
            verdict,
            degraded: false,
            flight_dump: None,
            metrics: result.metrics,
        }
    } else {
        let engine = c
            .reliable_engine_with(c.spec.channel.retry_budget)
            .with_channel(model)
            .with_metrics(MetricsLevel::Full);
        let flight = engine.flight_recorder();
        let (result, datagrams, verdict) = leg(c, engine, opts);
        let degraded = result.dataplane.degraded();
        ScenarioOutcome {
            stats: result.stats,
            datagrams,
            fired: Some(result.dataplane.inner().fired_sequence().len()),
            verdict,
            degraded,
            flight_dump: degraded.then(|| flight.map(|f| f.dump_json()).unwrap_or_default()),
            metrics: result.metrics,
        }
    }
}

/// The one place every leg goes through, whatever plane it deploys. It
/// puts the engine at the level a [`ScenarioOutcome`] reports and no higher:
/// the verdict comes from the *online* checker and the rest is a fired count
/// and counters, so the run keeps no per-packet stats streams (and, like
/// every engine unless asked, no trace). This is deliberately not an option
/// — a caller that wants the streams or the trace drives
/// [`CompiledScenario::engine`] itself, which keeps every delivery, and
/// attaches a trace recorder to it for the trace.
fn leg<D: DataPlane>(
    c: &CompiledScenario,
    engine: Engine<D>,
    opts: &RunOptions,
) -> (RunResult<D>, u64, Option<Result<(), OnlineViolation>>) {
    drive(c, engine.with_stats_mode(StatsMode::Counters), opts)
}

/// Attach the checker if asked, script the actions, load the traffic,
/// inject the campaign, run to the horizon. Returns the run, the datagrams
/// loaded and the checker's verdict.
fn drive<D: DataPlane>(
    c: &CompiledScenario,
    mut engine: Engine<D>,
    opts: &RunOptions,
) -> (RunResult<D>, u64, Option<Result<(), OnlineViolation>>) {
    let handle = opts.check.then(|| {
        nes_runtime::attach_online_checker(&mut engine, &c.nes)
            .expect("a ≤63-step campaign fits the online checker's windows")
    });
    c.apply_actions(&mut engine);
    let datagrams = c.load_traffic(&mut engine, opts.stream);
    c.inject_campaign(&mut engine);
    let result = engine.run_until(c.horizon);
    (result, datagrams, handle.map(|h| h.verdict()))
}

/// Runs the uncoordinated-baseline leg, always with the online checker
/// attached (its verdict is the differential oracle's other arm), over the
/// spec's channel ([`effective_channel`]). The baseline has no reliability
/// layer: on a lossy `[channel]` its dropped pushes surface as checker
/// violations — caught, not masked.
pub fn run_uncoordinated(c: &CompiledScenario) -> ScenarioOutcome {
    let opts = RunOptions { check: true, ..RunOptions::default() };
    let engine =
        c.uncoordinated().with_channel(effective_channel(&c.spec, &opts)).with_metrics(c.metrics);
    let (result, datagrams, verdict) = leg(c, engine, &opts);
    ScenarioOutcome {
        stats: result.stats,
        datagrams,
        fired: None,
        verdict,
        degraded: false,
        flight_dump: None,
        metrics: result.metrics,
    }
}

/// Both arms of the differential oracle for one scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DifferentialOutcome {
    /// The coordinated runtime's verdict (Theorem 1: always `Ok`).
    pub coordinated: Result<(), OnlineViolation>,
    /// The uncoordinated baseline's verdict under the same scenario.
    pub uncoordinated: Result<(), OnlineViolation>,
    /// Steps the coordinated runtime fired.
    pub fired: usize,
}

/// Compiles a spec and replays it through both planes with the online
/// checker attached to each: the generalized Fig. 10 experiment.
///
/// # Errors
///
/// Propagates compilation errors; running itself cannot fail.
pub fn differential(spec: &ScenarioSpec) -> Result<DifferentialOutcome, ScenarioError> {
    let c = CompiledScenario::compile(spec)?;
    let coordinated = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
    let uncoordinated = run_uncoordinated(&c);
    Ok(DifferentialOutcome {
        coordinated: coordinated.verdict.expect("checker attached"),
        uncoordinated: uncoordinated.verdict.expect("checker attached"),
        fired: coordinated.fired.expect("coordinated legs count firings"),
    })
}

/// Header for the canonical scenario CSV: simulated quantities only, so a
/// row is byte-identical across replays and result-neutral knobs.
pub fn stats_csv_header() -> &'static str {
    "datagrams,injected,events,delivered_packets,delivered_bytes,fired,verdict,\
     drop_no_rule,drop_dead_end,drop_queue_full,drop_link_down"
}

/// One canonical CSV row for a leg's outcome.
pub fn stats_csv_row(o: &ScenarioOutcome) -> String {
    let s = &o.stats;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{}",
        o.datagrams,
        s.injected,
        s.events_processed,
        s.delivered_packets,
        s.delivered_bytes,
        o.fired.map_or_else(|| "-".to_string(), |f| f.to_string()),
        o.verdict_name(),
        s.dropped[0],
        s.dropped[1],
        s.dropped[2],
        s.dropped[3],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        ActionKind, ActionSpec, CampaignSpec, ChannelSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
    };
    use netsim::SimTime;

    fn flap_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "flap".to_string(),
            seed: 5,
            topology: TopologySpec::Ring(5),
            horizon: SimTime::ZERO,
            workload: WorkloadSpec { flows: 6, ..WorkloadSpec::default() },
            campaign: CampaignSpec { updates: 2, ..CampaignSpec::default() },
            channel: ChannelSpec::default(),
            actions: vec![
                ActionSpec {
                    at: SimTime::from_millis(120),
                    kind: ActionKind::FailLink { a: 2, b: 3 },
                },
                ActionSpec {
                    at: SimTime::from_millis(160),
                    kind: ActionKind::RestoreLink { a: 2, b: 3 },
                },
            ],
        }
    }

    #[test]
    fn coordinated_is_correct_and_fires_every_step() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let out = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(out.verdict, Some(Ok(())), "Theorem 1 under churn");
        assert_eq!(out.fired, Some(2), "both steps fired");
        assert!(out.stats.delivered_packets > 0, "traffic flowed");
    }

    /// A leg reports counters, so leg-to-leg equality is counter equality;
    /// the per-packet strength this test always had is kept by replaying the
    /// same three legs on [`CompiledScenario::engine`] recording everything
    /// — full trace, every delivery — and tying the legs' counters
    /// to that.
    #[test]
    fn legs_agree_byte_for_byte() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let streamed_checked = RunOptions { check: true, stream: true, ..RunOptions::default() };
        let batch = run_coordinated(&c, &RunOptions::default());
        let replay = run_coordinated(&c, &RunOptions::default());
        let streamed = run_coordinated(&c, &streamed_checked);
        assert_eq!(batch.stats, replay.stats, "a replay must not change a byte");
        assert_eq!(batch.stats, streamed.stats, "streaming + checking must not either");
        assert_eq!(stats_csv_row(&replay), stats_csv_row(&batch), "canonical CSV agrees");
        assert!(batch.stats.deliveries.is_empty());

        let full = |opts: &RunOptions| {
            let mut engine = c.engine();
            let (observer, trace) = edn_core::TraceBuilder::observer();
            engine.set_observer(observer);
            let (result, _, _) = drive(&c, engine, opts);
            (trace.take(), result.stats)
        };
        let (trace, stats) = full(&RunOptions::default());
        assert!(!trace.is_empty() && !stats.deliveries.is_empty(), "the full drive records");
        assert_eq!(
            full(&RunOptions::default()),
            (trace.clone(), stats.clone()),
            "replay, per packet"
        );
        assert_eq!(
            full(&streamed_checked),
            (trace, stats.clone()),
            "streamed + checked, per packet"
        );
        assert_eq!(batch.stats, Stats { deliveries: Vec::new(), ..stats });
    }

    #[test]
    fn differential_oracle_separates_the_planes() {
        let outcome = differential(&flap_spec()).unwrap();
        assert_eq!(outcome.coordinated, Ok(()), "coordinated plane is always correct");
        assert_eq!(outcome.fired, 2);
        // The probes race the baseline's 200 ms pushes from a causally-after
        // sender: the stale plane must get caught.
        assert!(outcome.uncoordinated.is_err(), "the baseline violates Definition 6");
    }

    /// A spec-level lossy channel routes the coordinated leg through the
    /// reliability wrapper: the verdict stays `correct` (Theorem 1 carries
    /// over the lossy channel), every step fires, and the unchecked leg
    /// replays byte-identically.
    #[test]
    fn lossy_channel_stays_correct_and_replays_identically() {
        let mut spec = flap_spec();
        spec.channel =
            ChannelSpec { drop_pm: 60, dup_pm: 30, reorder_pm: 30, jitter_us: 40, retry_budget: 8 };
        let c = CompiledScenario::compile(&spec).unwrap();
        let checked = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(checked.verdict, Some(Ok(())), "reliability preserves Definition 6 under loss");
        assert_eq!(checked.fired, Some(2), "both steps still fire");
        assert!(!checked.degraded, "a generous budget never exhausts");
        let unchecked = run_coordinated(&c, &RunOptions::default());
        assert_eq!(unchecked.stats, checked.stats, "the checker must not change a byte");
        let replay = run_coordinated(&c, &RunOptions::default());
        assert_eq!(replay.stats, unchecked.stats, "lossy replay diverged");
        assert_eq!(stats_csv_row(&replay), stats_csv_row(&unchecked));
    }

    /// The baseline runs over the spec's `[channel]` too: a lossy section
    /// drops and duplicates its pushes, so the run processes a different
    /// number of events than on the same spec's perfect channel.
    #[test]
    fn uncoordinated_leg_runs_over_the_spec_channel() {
        let ideal = CompiledScenario::compile(&flap_spec()).unwrap();
        let mut spec = flap_spec();
        spec.channel =
            ChannelSpec { drop_pm: 60, dup_pm: 30, reorder_pm: 30, jitter_us: 40, retry_budget: 8 };
        let lossy = CompiledScenario::compile(&spec).unwrap();
        assert_ne!(
            run_uncoordinated(&lossy).stats.events_processed,
            run_uncoordinated(&ideal).stats.events_processed,
            "the baseline ignored its spec's lossy channel"
        );
    }

    /// An ideal `[channel]` spec (or none) must leave the bare runtime in
    /// place: explicitly overriding the channel to ideal reproduces the
    /// default leg byte for byte.
    #[test]
    fn ideal_override_is_byte_identical_to_default() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let default = run_coordinated(&c, &RunOptions::default());
        let ideal = run_coordinated(
            &c,
            &RunOptions { channel: Some(ChannelModel::ideal()), ..RunOptions::default() },
        );
        assert_eq!(ideal.stats, default.stats);
        assert_eq!(stats_csv_row(&ideal), stats_csv_row(&default));
    }

    /// A starved retransmit budget under heavy loss degrades *explicitly*:
    /// the verdict word flips to `degraded` and the outcome carries the
    /// flight-recorder dump naming the exhausted messages.
    #[test]
    fn starved_budget_degrades_explicitly_with_a_flight_dump() {
        let mut spec = flap_spec();
        spec.channel =
            ChannelSpec { drop_pm: 900, dup_pm: 0, reorder_pm: 0, jitter_us: 0, retry_budget: 0 };
        let c = CompiledScenario::compile(&spec).unwrap();
        let out = run_coordinated(&c, &RunOptions::default());
        assert!(out.degraded, "a zero budget under 90% loss must exhaust");
        assert_eq!(out.verdict_name(), "degraded");
        let dump = out.flight_dump.as_deref().expect("degraded runs carry the post-mortem");
        assert!(dump.contains("\"retry_exhausted\""), "dump names the cause: {dump}");
        assert!(dump.contains("\"drop\""), "dump shows the drops: {dump}");
    }

    /// What per-run state could disturb in a leg's report: the counters,
    /// the verdict, the plane's own probe counts and every `checker.*`
    /// metric (as exposition lines).
    type Report =
        (Stats, Option<Result<(), OnlineViolation>>, Option<u64>, Option<u64>, Vec<String>);

    fn report(out: ScenarioOutcome) -> Report {
        let probes = |name| out.metrics.counter(name);
        let exposition = out.metrics.render_prometheus();
        let checker = exposition.lines().filter(|l| l.starts_with("edn_checker_"));
        let (hits, fallbacks) = (probes("flowindex.fp_hits"), probes("flowindex.fp_fallbacks"));
        (out.stats, out.verdict, hits, fallbacks, checker.map(str::to_owned).collect())
    }

    /// `flap_spec` compiled anew, at the telemetry level that reports probes.
    fn compiled() -> CompiledScenario {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        CompiledScenario { metrics: MetricsLevel::Full, ..c }
    }

    const CHECKED: RunOptions = RunOptions { check: true, stream: false, channel: None };
    const UNCHECKED: RunOptions = RunOptions { check: false, stream: false, channel: None };

    /// An NES is built once and deployed many times, so everything a run
    /// changes must be the run's own. Two engines from one NES, back to
    /// back in both orders — the NES plane and the uncoordinated plane, a
    /// checked run and an unchecked one, two checked runs, and the
    /// uncoordinated checked run (which violates) and a correct one — each
    /// report what a run from an NES compiled for it alone reports. Probe
    /// counts kept in the shared index, or checker state kept in the NES's
    /// masks, would add the first run's to the second's.
    #[test]
    fn two_runs_from_one_nes_report_what_fresh_builds_report() {
        type Leg = fn(&CompiledScenario) -> Report;
        let checked: Leg = |c| report(run_coordinated(c, &CHECKED));
        let unchecked: Leg = |c| report(run_coordinated(c, &UNCHECKED));
        let baseline: Leg = |c| report(run_uncoordinated(c));
        let alone = checked(&compiled());
        assert!(alone.2.is_some_and(|hits| hits > 0), "lookups hit hash segments");
        assert!(!alone.4.is_empty(), "the checker reports its telemetry");
        assert!(baseline(&compiled()).1.is_some_and(|v| v.is_err()), "the baseline is caught");
        for (first, second) in [
            (checked, unchecked),
            (unchecked, checked),
            (unchecked, baseline),
            (baseline, unchecked),
            (checked, checked),
            (baseline, checked),
            (checked, baseline),
        ] {
            let c = compiled();
            let back_to_back = [first(&c), second(&c)];
            assert_eq!(back_to_back, [first(&compiled()), second(&compiled())]);
        }
    }

    /// The checker walks the same index the plane looks up in, and counts
    /// nothing: a verified run reports the probe counts of an unchecked one.
    #[test]
    fn the_checker_never_counts_into_the_planes_probes() {
        let (_, verdict, hits, fallbacks, _) = report(run_coordinated(&compiled(), &CHECKED));
        assert_eq!(verdict, Some(Ok(())));
        assert!(hits.is_some_and(|hits| hits > 0), "the lookups hit hash segments");
        let (_, _, bare_hits, bare_fallbacks, _) = report(run_coordinated(&compiled(), &UNCHECKED));
        assert_eq!((hits, fallbacks), (bare_hits, bare_fallbacks));
    }

    /// Every leg's plane holds the NES's one index — each adds a reference
    /// to it, none builds its own — and lets go of it when it is dropped.
    /// A checker reads the index and the masks through the NES it holds:
    /// the first checker builds the masks, a second reads that instance,
    /// and neither adds a reference to the index.
    #[test]
    fn every_leg_and_the_checker_hold_the_nes_index() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let index = c.nes.tables();
        let held = || std::sync::Arc::strong_count(index);
        assert_eq!(held(), 1, "only the NES holds its index");
        let mut engine = c.engine();
        let mut reliable = c.reliable_engine_with(8);
        let baseline = c.uncoordinated();
        assert_eq!(held(), 4, "each plane reads the NES's index");
        assert!(c.nes.checker_masks().is_none(), "no unchecked leg builds the masks");
        let handle = nes_runtime::attach_online_checker(&mut engine, &c.nes).unwrap();
        let masks = c.nes.checker_masks().map(std::ptr::from_ref).expect("the checker built them");
        let second = nes_runtime::attach_online_checker(&mut reliable, &c.nes).unwrap();
        assert_eq!(c.nes.checker_masks().map(std::ptr::from_ref), Some(masks), "one instance");
        assert_eq!(held(), 4, "the checkers read the index through the NES");
        let planes = [engine.finish().dataplane, reliable.finish().dataplane.inner().clone()];
        for plane in &planes {
            assert!(std::sync::Arc::ptr_eq(plane.compiled().nes().tables(), index));
        }
        assert!(handle.verdict().is_ok() && second.verdict().is_ok(), "a quiet run is correct");
        drop((planes, baseline));
        assert_eq!(held(), 1, "a finished run lets go of the index");
    }

    /// Every plane and checker over one NES reads it from its own run, so
    /// the NES must be shareable across threads.
    const _: fn() = || {
        fn shareable<T: Send + Sync>() {}
        shareable::<edn_core::NetworkEventStructure>();
    };

    #[test]
    fn verdict_names_are_csv_words() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let unchecked = run_coordinated(&c, &RunOptions::default());
        assert_eq!(unchecked.verdict_name(), "unchecked");
        let checked = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(checked.verdict_name(), "correct");
        let row = stats_csv_row(&checked);
        assert_eq!(row.split(',').count(), stats_csv_header().split(',').count());
    }
}
