//! The four workloads: two seeded input generators, and for each an
//! untraced driver (what a user calls, timed from outside) and a staged
//! driver (the same work, one span per public call).
//!
//! Each `*_verified` / `*_unchecked` pair comes from one generator and
//! differs in one thing: whether the online checker is attached (the
//! stream pair also in length — an unchecked event is ~20× cheaper, so it
//! needs more of them to be measurable).

use std::time::Instant;

use edn_core::{NetworkEventStructure, OnlineChecker, OnlineHandle, OnlineViolation};
use edn_obs::Registry;
use edn_scenario::{CompiledScenario, RunOptions};
use edn_topo::{attach_stream, fat_tree, synthesize, GenTopology, TierProfile, TrafficPattern};
use nes_runtime::{CompiledNes, NesDataPlane};
use netsim::traffic::{udp_packet, UdpFlowSpec};
use netsim::{
    Engine, MetricsLevel, RunResult, SimParams, SimTime, SinkHosts, Stats, StatsMode, TraceMode,
};

use crate::observer::{CheckerTimes, SharedTimes, TimingObserver};
use crate::span::Tracer;

/// A benchmark workload. The names are the ones `BENCHMARK.json` lists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CampaignVerified,
    CampaignUnchecked,
    StreamVerified,
    StreamUnchecked,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignVerified,
        Workload::CampaignUnchecked,
        Workload::StreamVerified,
        Workload::StreamUnchecked,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignVerified => "campaign_verified",
            Workload::CampaignUnchecked => "campaign_unchecked",
            Workload::StreamVerified => "stream_verified",
            Workload::StreamUnchecked => "stream_unchecked",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_campaign(self) -> bool {
        matches!(self, Workload::CampaignVerified | Workload::CampaignUnchecked)
    }

    /// Is the online Definition 6 checker attached?
    pub fn checked(self) -> bool {
        matches!(self, Workload::CampaignVerified | Workload::StreamVerified)
    }

    /// The verdict every repetition must end with.
    pub fn expected_verdict(self) -> &'static str {
        if self.checked() {
            "correct"
        } else {
            "unchecked"
        }
    }
}

/// Workload sizes. `--smoke` swaps [`SMOKE`] in; the code path is the same.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    /// Fat-tree arity of the campaign workloads.
    pub campaign_k: u64,
    /// Campaign length; every one of these updates must fire.
    pub updates: u64,
    /// Predicted events of a campaign run (see [`predicted_events`]).
    pub campaign_work: u64,
    /// Fat-tree arity of the stream workloads.
    pub stream_k: u64,
    /// Predicted events of `stream_verified`.
    pub verified_work: u64,
    /// Predicted events of `stream_unchecked`.
    pub unchecked_work: u64,
}

/// The committed sizes: fat-tree(8) × 20 updates × ≈39k events, and
/// fat-tree(8) at ≈30k checked / ≈400k unchecked events. ISSUE 11 asked
/// for the streams on fat-tree(12) at ≈301k / ≈4M (`fig18_verified_scale`'s
/// point); at those sizes a repetition lasts two to three seconds, a run
/// holds ten of them, and ten runs of the same code spread by 23–41 % on
/// the shared host. Repetitions of a tenth of a second put a yardstick
/// reading (`yardstick.rs`) close in time to each, and a hundred of them
/// in a run.
pub const FULL: Scale = Scale {
    campaign_k: 8,
    updates: 20,
    campaign_work: 40_000,
    stream_k: 8,
    verified_work: 30_000,
    unchecked_work: 400_000,
};

/// Seconds-long sizes for CI: fat-tree(4), 4 updates.
pub const SMOKE: Scale = Scale {
    campaign_k: 4,
    updates: 4,
    campaign_work: 2_000,
    stream_k: 4,
    verified_work: 4_000,
    unchecked_work: 40_000,
};

/// The stream workloads' flow sizes, in units of the smallest flow:
/// `fig18_verified_scale`'s Pareto shape (α = 1.3) with an elephant capped
/// at 64 mice, taken as the distribution's `n` evenly spaced quantiles
/// where the figure draws `n` samples. Every seed then offers the same
/// sizes and so the same load over time; what a seed changes is which
/// flow — which pair of hosts, which start — gets which size. Drawn sizes
/// moved `stream_verified` by 15 % between seeds at equal event counts
/// (few long flows are cheaper to check than many concurrent ones), and
/// under the figure's absolute cap of 64k datagrams one flow carried
/// 45–72 % of a run at three seeds in ten.
fn pareto_quantiles(n: usize) -> Vec<f64> {
    (0..n).map(|i| (1.0 - (i as f64 + 0.5) / n as f64).powf(-1.0 / 1.3).min(64.0)).collect()
}

/// What the crates are handed: generated from the seed, never the seed
/// itself.
pub enum Inputs {
    /// Scenario spec *text*.
    Campaign { text: String },
    /// A fat-tree arity, the traffic to synthesize over it, and each flow's
    /// datagram count, in synthesis order.
    Stream { k: u64, traffic: edn_topo::Workload, sizes: Vec<u64> },
}

/// Events one datagram of `flow` causes if it is not dropped: one
/// injection, one arrival per switch on the shortest path, one delivery.
fn events_per_datagram(gen: &GenTopology, flow: &UdpFlowSpec) -> u64 {
    let switch_of = |host| gen.attachment(host).expect("flows join generated hosts").sw;
    let links = gen.sim().route(switch_of(flow.src), switch_of(flow.dst));
    links.expect("fat-trees are connected").len() as u64 + 3
}

/// Events a run over `flows` would dispatch if nothing were dropped. The
/// generators size their traffic by this, so that different seeds shuffle
/// who talks to whom without changing how much work a run is (Pareto flow
/// sizes alone move it by a factor of two).
fn predicted_events(gen: &GenTopology, flows: &[UdpFlowSpec]) -> u64 {
    flows.iter().map(|f| f.datagram_count() * events_per_datagram(gen, f)).sum()
}

/// The `packets_per_flow` whose predicted work is nearest `target`, found
/// by rescaling from `nominal` (work is close to linear in it).
fn calibrate(nominal: u64, target: u64, mut work_at: impl FnMut(u64) -> u64) -> u64 {
    let (mut ppf, mut best) = (nominal, (u64::MAX, nominal));
    for _ in 0..6 {
        let work = work_at(ppf);
        best = best.min((work.abs_diff(target), ppf));
        let next = ((ppf as f64 * target as f64 / work.max(1) as f64).round() as u64).max(1);
        if next == ppf {
            break;
        }
        ppf = next;
    }
    eprintln!(
        "  packets_per_flow {} (predicted events {} off the target {target})",
        best.1, best.0
    );
    best.1
}

fn campaign_text(scale: &Scale, seed: u64, packets_per_flow: u64) -> String {
    let Scale { campaign_k: k, updates, .. } = *scale;
    // Traffic starts are spread over the whole campaign: every update
    // happens under live traffic.
    let spread_ms = 100 + 100 * (updates + 2);
    format!(
        "# generated by benchmark/src/workload.rs from --seed {seed}\n\
         [scenario]\n\
         name = \"campaign-fattree{k}\"\n\
         seed = {seed}\n\
         topology = \"fat_tree\"\n\
         size = {k}\n\
         horizon_ms = 0\n\
         \n\
         [workload]\n\
         pattern = \"permutation\"\n\
         packets_per_flow = {packets_per_flow}\n\
         spread_ms = {spread_ms}\n\
         model = \"pareto\"\n\
         \n\
         [campaign]\n\
         updates = {updates}\n\
         start_ms = 100\n\
         spacing_ms = 100\n\
         probe = true\n"
    )
}

fn compile_text(text: &str) -> CompiledScenario {
    let spec = edn_scenario::parse(text).expect("the generated spec parses");
    CompiledScenario::compile(&spec).expect("the generated spec compiles")
}

/// The seed's permutation of the hosts, every flow one datagram long until
/// [`sized`] gives it its length.
fn stream_traffic(k: u64, seed: u64) -> edn_topo::Workload {
    edn_topo::Workload {
        pattern: TrafficPattern::Permutation,
        seed,
        packets_per_flow: 1,
        flows: (k * k * k / 4) as usize,
        interval: SimTime::from_micros(100),
        ..edn_topo::Workload::default()
    }
}

/// The flows with their lengths set: `sizes[i]` datagrams for the `i`-th.
fn sized(mut flows: Vec<UdpFlowSpec>, sizes: &[u64]) -> Vec<UdpFlowSpec> {
    for (flow, &n) in flows.iter_mut().zip(sizes) {
        flow.end = flow.start + SimTime::from_micros(flow.interval.as_micros() * n);
    }
    flows
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`: the seed is the spec seed
    /// and the traffic seed, and picks the flow size that brings the
    /// predicted work nearest the scale's target.
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Inputs {
        if workload.is_campaign() {
            let work_at = |ppf| {
                let c = compile_text(&campaign_text(scale, seed, ppf));
                predicted_events(&c.base, &c.flows)
            };
            let ppf = calibrate(24, scale.campaign_work, work_at);
            Inputs::Campaign { text: campaign_text(scale, seed, ppf) }
        } else {
            let k = scale.stream_k;
            let gen = fat_tree(k, TierProfile::default());
            let target =
                if workload.checked() { scale.verified_work } else { scale.unchecked_work };
            let traffic = stream_traffic(k, seed);
            // `synthesize` shuffles the hosts, so dealing the quantiles out
            // in flow order gives every seed its own elephants.
            let flows = synthesize(&gen, &traffic);
            let shape = pareto_quantiles(flows.len());
            let per_unit =
                flows.iter().zip(&shape).map(|(f, q)| q * events_per_datagram(&gen, f) as f64);
            let unit = target as f64 / per_unit.sum::<f64>();
            let sizes: Vec<u64> =
                shape.iter().map(|q| ((q * unit).round() as u64).max(1)).collect();
            let work = predicted_events(&gen, &sized(flows, &sizes));
            eprintln!(
                "  smallest flow {} datagrams (predicted events {} off the target {target})",
                sizes[0],
                work.abs_diff(target)
            );
            Inputs::Stream { k, traffic, sizes }
        }
    }
}

/// The `Stats` counters every repetition of a workload must reproduce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counters {
    pub events_processed: u64,
    pub injected: u64,
    pub delivered_packets: u64,
    pub delivered_bytes: u64,
    pub dropped: [u64; 4],
}

impl Counters {
    fn of(stats: &Stats) -> Counters {
        Counters {
            events_processed: stats.events_processed,
            injected: stats.injected,
            delivered_packets: stats.delivered_packets,
            delivered_bytes: stats.delivered_bytes,
            dropped: stats.dropped,
        }
    }
}

/// What a repetition produced, for the correctness gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outcome {
    pub verdict: &'static str,
    /// Updates the runtime fired.
    pub fired: usize,
    pub counters: Counters,
}

/// One untraced repetition.
pub struct Timed {
    pub verdict_s: f64,
    pub setup_s: f64,
    pub outcome: Outcome,
}

pub fn verdict_word(verdict: Option<Result<(), OnlineViolation>>) -> &'static str {
    match verdict {
        None => "unchecked",
        Some(Ok(())) => "correct",
        Some(Err(v)) => v.name(),
    }
}

fn stream_horizon(flows: &[UdpFlowSpec]) -> SimTime {
    flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10)
}

/// The firewall's endpoints: the first and the last host.
fn firewall_ends(gen: &GenTopology) -> (u64, u64) {
    (gen.hosts()[0], *gen.hosts().last().expect("fat-trees have hosts"))
}

/// The packet that opens the firewall, 5 ms into the run.
fn inject_firewall_trigger(engine: &mut Engine<NesDataPlane>, inside: u64, outside: u64) {
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
}

impl Inputs {
    /// Updates the workload's NES carries; all of them must fire.
    pub fn updates(&self, scale: &Scale) -> usize {
        match self {
            Inputs::Campaign { .. } => scale.updates as usize,
            Inputs::Stream { .. } => 1,
        }
    }

    /// One repetition through the calls a user makes, timed from outside.
    pub fn run_untraced(&self, check: bool) -> Timed {
        match self {
            Inputs::Campaign { text } => {
                let opts = RunOptions { check, stream: true, ..RunOptions::default() };
                let t = Instant::now();
                let c = compile_text(text);
                let out = edn_scenario::run_coordinated(&c, &opts);
                let verdict = out.verdict_name();
                let verdict_s = t.elapsed().as_secs_f64();
                let outcome = Outcome {
                    verdict,
                    fired: out.fired.expect("coordinated runs count firings"),
                    counters: Counters::of(&out.stats),
                };
                drop((c, out));

                // Set-up is timed in a block of its own: `run_coordinated`
                // gives no way to stop between set-up and run.
                let t = Instant::now();
                let c = compile_text(text);
                let mut engine = c.engine();
                let handle = check.then(|| {
                    nes_runtime::attach_online_checker(&mut engine, &c.nes)
                        .expect("the campaign fits the checker")
                });
                c.apply_actions(&mut engine);
                c.load_traffic(&mut engine, true);
                c.inject_campaign(&mut engine);
                let setup_s = t.elapsed().as_secs_f64();
                drop((engine, handle, c));
                Timed { verdict_s, setup_s, outcome }
            }
            Inputs::Stream { k, traffic, sizes } => {
                let t = Instant::now();
                let gen = fat_tree(*k, TierProfile::default());
                let flows = sized(synthesize(&gen, traffic), sizes);
                let horizon = stream_horizon(&flows);
                let (inside, outside) = firewall_ends(&gen);
                let nes = edn_apps::generated::firewall_nes(&gen, inside, outside);
                let mut engine = nes_runtime::nes_engine(
                    nes.clone(),
                    gen.sim().clone(),
                    SimParams::default(),
                    false,
                    Box::new(SinkHosts),
                )
                .with_trace_mode(TraceMode::StatsOnly)
                .with_stats_mode(StatsMode::Counters);
                let handle = check.then(|| {
                    nes_runtime::attach_online_checker(&mut engine, &nes)
                        .expect("the firewall fits the checker")
                });
                attach_stream(&mut engine, &flows);
                inject_firewall_trigger(&mut engine, inside, outside);
                let setup_s = t.elapsed().as_secs_f64();
                engine.run(horizon);
                let result = engine.finish();
                let verdict = verdict_word(handle.map(|h| h.verdict()));
                let verdict_s = t.elapsed().as_secs_f64();
                let outcome = Outcome {
                    verdict,
                    fired: result.dataplane.fired_sequence().len(),
                    counters: Counters::of(&result.stats),
                };
                Timed { verdict_s, setup_s, outcome }
            }
        }
    }

    /// The negative control: the uncoordinated baseline under the same
    /// campaign. Its verdict must *not* be `correct`, or the checker has
    /// gone vacuous. `None` for the stream workloads, which have no
    /// baseline.
    pub fn baseline_verdict(&self) -> Option<&'static str> {
        match self {
            Inputs::Campaign { text } => {
                Some(edn_scenario::run_uncoordinated(&compile_text(text)).verdict_name())
            }
            Inputs::Stream { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The staged driver
// ---------------------------------------------------------------------------

/// Counts read at the layer boundaries in one traced repetition, keyed by
/// per-layer metric name. `None` is a registry series that was absent.
pub type Counts = Vec<(&'static str, Option<f64>)>;

/// One traced repetition's result.
pub struct Traced {
    pub outcome: Outcome,
    pub counts: Counts,
    /// Seconds from the repetition's start to where the untraced driver
    /// stops its `verdict_s` stopwatch — what the overhead figure compares.
    pub verdict_s: f64,
}

/// What a finished staged run still holds; dropping it is the teardown.
type Leftovers = (RunResult<NesDataPlane>, Option<TimedChecker>);

/// The online checker behind the timing wrapper, attached.
struct TimedChecker {
    handle: OnlineHandle,
    times: SharedTimes,
}

fn attach_timed_checker(
    tr: &mut Tracer,
    engine: &mut Engine<NesDataPlane>,
    nes: &NetworkEventStructure,
) -> TimedChecker {
    tr.span("core.checker.attach", || {
        let (observer, handle) = OnlineChecker::observer(nes).expect("the NES fits the checker");
        let (observer, times) = TimingObserver::wrap(observer);
        engine.set_observer(observer);
        TimedChecker { handle, times }
    })
}

/// `nes_engine` taken apart at its public seams, at full telemetry.
fn staged_engine(
    tr: &mut Tracer,
    nes: &NetworkEventStructure,
    gen: &GenTopology,
    counts: &mut Counts,
) -> Engine<NesDataPlane> {
    let compiled = tr.span("runtime.nes_compile", || CompiledNes::compile(nes.clone()));
    counts.push(("runtime.tags", Some(compiled.tag_count() as f64)));
    counts.push(("runtime.rules_total", Some(compiled.rule_breakdown().total() as f64)));
    let switches = gen.sim().switches().to_vec();
    let plane = tr.span("runtime.deploy", || NesDataPlane::new(compiled, switches, false));
    tr.span("netsim.engine_new", || {
        Engine::new(gen.sim().clone(), SimParams::default(), plane, Box::new(SinkHosts))
            .with_shards(netsim::shard_count_from_env())
            .with_metrics(MetricsLevel::Full)
    })
}

fn mean(reg: &Registry, hist: &str) -> Option<f64> {
    reg.histogram(hist).filter(|h| h.count() > 0).map(|h| h.sum() as f64 / h.count() as f64)
}

/// Run → finish → verdict, shared by both staged drivers.
fn staged_run(
    tr: &mut Tracer,
    mut engine: Engine<NesDataPlane>,
    checker: Option<TimedChecker>,
    horizon: SimTime,
    counts: &mut Counts,
) -> (Outcome, Leftovers) {
    let run = tr.enter("netsim.run");
    engine.run(horizon);
    tr.exit(run);
    let finish = tr.enter("netsim.finish");
    let result = engine.finish();
    tr.exit(finish);
    let verdict = match &checker {
        Some(c) => tr.span("core.checker.verdict", || verdict_word(Some(c.handle.verdict()))),
        None => verdict_word(None),
    };
    // No checker, no callbacks: the calls are a measured zero, the spans
    // simply do not exist.
    let times = checker.as_ref().map(|c| *c.times.lock().expect("the observer is gone"));
    if let Some(t) = times {
        tr.aggregate("core.checker.record", run, t.record_ns, t.record_calls);
        tr.aggregate("core.checker.other", run, t.other_ns, t.other_calls);
        tr.aggregate("core.checker.finish", finish, t.finish_ns, 1);
    }
    let CheckerTimes { record_calls, other_calls, .. } = times.unwrap_or_default();
    counts.push(("core.checker.record_calls", Some(record_calls as f64)));
    counts.push(("core.checker.other_calls", Some(other_calls as f64)));

    let outcome = Outcome {
        verdict,
        fired: result.dataplane.fired_sequence().len(),
        counters: Counters::of(&result.stats),
    };
    let reg = &result.metrics;
    let counter = |name: &str| reg.counter(name).map(|v| v as f64);
    let gauge = |name: &str| reg.gauge(name).map(|v| v as f64);
    let (hits, fallbacks) = (counter("flowindex.fp_hits"), counter("flowindex.fp_fallbacks"));
    counts.extend([
        ("runtime.fired", Some(outcome.fired as f64)),
        ("runtime.plane_ns_per_hop", mean(reg, "phase.lookup_ns")),
        ("netkat.fp_hits", hits),
        ("netkat.fp_fallbacks", fallbacks),
        (
            "netkat.fp_hit_ratio",
            hits.zip(fallbacks).filter(|(h, f)| h + f > 0.0).map(|(h, f)| h / (h + f)),
        ),
        ("netkat.arena_intern_hits", counter("arena.intern_hits")),
        ("netkat.arena_intern_misses", counter("arena.intern_misses")),
        ("netkat.arena_recycled", counter("arena.recycled_slots")),
        ("netkat.arena_slots_hw", gauge("arena.slots_hw")),
        ("netsim.events", Some(result.stats.events_processed as f64)),
        ("netsim.pump_ns_mean", mean(reg, "phase.pump_ns")),
        ("netsim.dispatch_ns_mean", mean(reg, "phase.dispatch_ns")),
        ("netsim.queue_depth_hw", gauge("engine.queue_depth_hw")),
        ("netsim.dispatch.inject", counter("engine.dispatch.inject")),
        ("netsim.dispatch.arrive", counter("engine.dispatch.arrive")),
        ("netsim.dispatch.notify", counter("engine.dispatch.notify")),
        ("netsim.dispatch.deliver", counter("engine.dispatch.deliver")),
        ("netsim.dispatch.timer", counter("engine.dispatch.timer")),
        ("netsim.drops_total", Some(result.stats.dropped.iter().sum::<u64>() as f64)),
        ("core.checker.live_nodes_hw", gauge("checker.live_nodes_hw")),
        ("core.checker.obligations_hw", gauge("checker.obligations_hw")),
        ("core.checker.retired_prefixes", counter("checker.retired_prefixes")),
    ]);
    (outcome, (result, checker))
}

impl Inputs {
    /// One repetition through the staged driver: the same work as
    /// [`run_untraced`](Inputs::run_untraced) with a span around each
    /// public call, the checker behind the timing wrapper, and the engine
    /// at `MetricsLevel::Full`. The caller has opened the repetition's
    /// root span.
    pub fn run_traced(&self, check: bool, tr: &mut Tracer) -> Traced {
        let mut counts = Counts::new();
        let started = Instant::now();
        let (outcome, verdict_s) = match self {
            Inputs::Campaign { text } => {
                let spec = tr.span("scenario.parse", || {
                    edn_scenario::parse(text).expect("the generated spec parses")
                });
                let c = tr.span("scenario.compile", || {
                    CompiledScenario::compile(&spec).expect("the generated spec compiles")
                });
                counts.extend([
                    ("scenario.steps", Some(c.steps.len() as f64)),
                    ("topo.switches", Some(c.run.switch_count() as f64)),
                    ("topo.hosts", Some(c.run.host_count() as f64)),
                ]);
                let opts = RunOptions { check, stream: true, ..RunOptions::default() };
                let channel = edn_scenario::effective_channel(&c.spec, &opts);
                let mut engine = staged_engine(tr, &c.nes, &c.run, &mut counts);
                engine = tr.span("netsim.engine_new", || engine.with_channel(channel));
                let checker = check.then(|| attach_timed_checker(tr, &mut engine, &c.nes));
                tr.span("scenario.inject", || c.apply_actions(&mut engine));
                let datagrams = tr.span("topo.load_traffic", || c.load_traffic(&mut engine, true));
                counts.push(("scenario.datagrams", Some(datagrams as f64)));
                tr.span("scenario.inject", || c.inject_campaign(&mut engine));
                let (outcome, rest) = staged_run(tr, engine, checker, c.horizon, &mut counts);
                // `run_coordinated` drops the plane before it returns.
                tr.span("netsim.teardown", || drop(rest));
                let verdict_s = started.elapsed().as_secs_f64();
                tr.span("harness.teardown", || drop((c, spec)));
                (outcome, verdict_s)
            }
            Inputs::Stream { k, traffic, sizes } => {
                let gen = tr.span("topo.generate", || fat_tree(*k, TierProfile::default()));
                counts.extend([
                    ("topo.switches", Some(gen.switch_count() as f64)),
                    ("topo.hosts", Some(gen.host_count() as f64)),
                ]);
                let flows = tr.span("topo.synthesize", || sized(synthesize(&gen, traffic), sizes));
                let horizon = stream_horizon(&flows);
                let (inside, outside) = firewall_ends(&gen);
                let nes = tr.span("apps.nes_build", || {
                    edn_apps::generated::firewall_nes(&gen, inside, outside)
                });
                let mut engine = staged_engine(tr, &nes, &gen, &mut counts);
                engine = tr.span("netsim.engine_new", || {
                    engine
                        .with_trace_mode(TraceMode::StatsOnly)
                        .with_stats_mode(StatsMode::Counters)
                });
                let checker = check.then(|| attach_timed_checker(tr, &mut engine, &nes));
                tr.span("topo.load_traffic", || attach_stream(&mut engine, &flows));
                tr.span("netsim.inject", || inject_firewall_trigger(&mut engine, inside, outside));
                let (outcome, rest) = staged_run(tr, engine, checker, horizon, &mut counts);
                let verdict_s = started.elapsed().as_secs_f64();
                tr.span("netsim.teardown", || drop(rest));
                tr.span("harness.teardown", || drop((nes, flows, gen)));
                (outcome, verdict_s)
            }
        };
        Traced { outcome, counts, verdict_s }
    }
}
