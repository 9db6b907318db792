//! The scenario specification: a declarative, text-serializable description
//! of a churn run.
//!
//! Scenarios are *data*. The text form is a small TOML subset — `[table]`
//! headers, `[[action]]` array-of-tables headers, `key = value` bindings
//! with integer, string, and boolean values, and `#` comments — parsed by a
//! hand-rolled reader so the workspace stays registry-free. [`parse`] and
//! [`ScenarioSpec::to_toml`] round-trip: `parse(&spec.to_toml()) == spec`.
//!
//! Grammar (all keys optional unless marked *required*):
//!
//! ```toml
//! [scenario]
//! name = "churn"         # label for reports
//! seed = 7               # drives victim choice, workload, baseline jitter
//! topology = "ring"      # required: ring|linear|grid|torus|fat_tree
//! size = 6               # required: n for ring/linear, rows, or k
//! size2 = 4              # cols — required for grid/torus only
//! horizon_ms = 0         # 0 = run until everything settles
//!
//! [workload]
//! pattern = "uniform"    # uniform|hotspot|permutation
//! flows = 8
//! packets_per_flow = 2
//! interval_us = 500
//! size_bytes = 512       # per datagram (0..=4294967295)
//! start_ms = 0
//! spread_ms = 10
//! model = "none"         # none|pareto|onoff|diurnal
//! hotspots = 2           # hotspot pattern only
//! bias_pct = 80          # hotspot pattern only (0..=255, capped at 100)
//!
//! [campaign]
//! updates = 2            # successive event-driven updates (≤ 63 with moves)
//! start_ms = 100
//! spacing_ms = 100
//! probe = true           # causal probes after each step (see compile)
//! update_delay_ms = 200  # uncoordinated baseline's push latency
//!
//! [channel]
//! drop_pm = 60           # control-channel loss, per mille (0..=1000)
//! dup_pm = 30            # duplication, per mille (0..=1000)
//! reorder_pm = 30        # reordering, per mille (0..=1000)
//! jitter_us = 40         # extra per-message delay bound, µs (0..=1000000)
//! retry_budget = 8       # retransmissions before the runtime degrades
//!                        #   (0..=4294967295)
//!
//! [[action]]
//! kind = "fail_link"     # fail_link|restore_link|crash_switch|
//! at_ms = 150            #   recover_switch|latency_spike|move_host
//! a = 1                  # bilink endpoints (switch ids)
//! b = 2
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use edn_topo::TrafficPattern;
use netsim::SimTime;

/// A failure while reading or validating a scenario spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScenarioError {
    /// A syntax or schema error in the spec text, with its 1-based line.
    Parse {
        /// 1-based line number of the offending text.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A well-formed spec that describes an impossible scenario.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, msg } => write!(f, "spec line {line}: {msg}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which generated topology the scenario runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologySpec {
    /// `ring(n)`.
    Ring(u64),
    /// `linear(n)`.
    Linear(u64),
    /// `grid(rows, cols)`.
    Grid(u64, u64),
    /// `torus(rows, cols)`.
    Torus(u64, u64),
    /// `fat_tree(k)`.
    FatTree(u64),
}

impl TopologySpec {
    /// The grammar's `topology` keyword.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Ring(_) => "ring",
            TopologySpec::Linear(_) => "linear",
            TopologySpec::Grid(..) => "grid",
            TopologySpec::Torus(..) => "torus",
            TopologySpec::FatTree(_) => "fat_tree",
        }
    }
}

/// How a flow's datagrams arrive in time — a named preset over
/// [`ArrivalModel`](edn_topo::ArrivalModel) (concrete parameters are chosen
/// by the compiler so specs stay scalar).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelSpec {
    /// Evenly spaced datagrams (no reshaping).
    None,
    /// Heavy-tailed flow sizes (Pareto, `alpha = 1.3`).
    Pareto,
    /// Bursty on/off sources.
    OnOff,
    /// Diurnal load curve.
    Diurnal,
}

impl ModelSpec {
    fn keyword(self) -> &'static str {
        match self {
            ModelSpec::None => "none",
            ModelSpec::Pareto => "pareto",
            ModelSpec::OnOff => "onoff",
            ModelSpec::Diurnal => "diurnal",
        }
    }
}

/// The scenario's background traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorkloadSpec {
    /// Traffic matrix shape.
    pub pattern: TrafficPattern,
    /// Flow count (ignored by [`TrafficPattern::Permutation`]).
    pub flows: usize,
    /// Datagrams per flow.
    pub packets_per_flow: u64,
    /// Gap between a flow's consecutive datagrams.
    pub interval: SimTime,
    /// Datagram payload bytes.
    pub size: u32,
    /// Earliest flow start.
    pub start: SimTime,
    /// Flow starts are jittered over `[start, start + spread)`.
    pub spread: SimTime,
    /// Arrival-time reshaping.
    pub model: ModelSpec,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            pattern: TrafficPattern::Uniform,
            flows: 8,
            packets_per_flow: 2,
            interval: SimTime::from_micros(500),
            size: 512,
            start: SimTime::ZERO,
            spread: SimTime::from_millis(10),
            model: ModelSpec::None,
        }
    }
}

/// The rolling update campaign riding on the scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CampaignSpec {
    /// Number of generic (victim-unblocking) update steps.
    pub updates: usize,
    /// When the first step's trigger is injected.
    pub start: SimTime,
    /// Gap between successive step triggers.
    pub spacing: SimTime,
    /// Inject a causally-after probe for every step (the differential
    /// oracle's witness traffic).
    pub probe: bool,
    /// The uncoordinated baseline's configuration push delay.
    pub update_delay: SimTime,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            updates: 0,
            start: SimTime::from_millis(100),
            spacing: SimTime::from_millis(100),
            probe: true,
            update_delay: SimTime::from_millis(200),
        }
    }
}

/// The scenario's control-channel fault model: per-mille fault
/// probabilities applied to every controller↔switch message, plus the
/// reliability layer's retransmission budget. The default is the ideal
/// (faultless) channel, which leaves the runtime unwrapped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelSpec {
    /// Per-mille probability a control message is dropped (both directions).
    pub drop_pm: u32,
    /// Per-mille probability a control message is duplicated.
    pub dup_pm: u32,
    /// Per-mille probability a control message is reordered (extra delay).
    pub reorder_pm: u32,
    /// Uniform extra per-message delay bound, in microseconds.
    pub jitter_us: u64,
    /// Retransmissions per message before the reliability layer gives up
    /// and the run degrades.
    pub retry_budget: u32,
}

impl Default for ChannelSpec {
    fn default() -> ChannelSpec {
        ChannelSpec { drop_pm: 0, dup_pm: 0, reorder_pm: 0, jitter_us: 0, retry_budget: 8 }
    }
}

impl ChannelSpec {
    /// True when the spec describes a faultless channel (budget aside).
    pub fn is_ideal(&self) -> bool {
        self.drop_pm == 0 && self.dup_pm == 0 && self.reorder_pm == 0 && self.jitter_us == 0
    }

    /// The spec as a symmetric [`netsim::ChannelModel`] seeded by `seed`.
    pub fn model(&self, seed: u64) -> netsim::ChannelModel {
        let dir = netsim::DirModel {
            drop_pm: self.drop_pm,
            dup_pm: self.dup_pm,
            reorder_pm: self.reorder_pm,
            jitter_us: self.jitter_us,
        };
        netsim::ChannelModel { to_ctrl: dir, to_switch: dir, seed }
    }
}

/// One scripted environment action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ActionSpec {
    /// When the action takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: ActionKind,
}

/// The kinds of scripted environment actions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionKind {
    /// Both directions of the inter-switch link `a ↔ b` go down.
    FailLink {
        /// One endpoint switch.
        a: u64,
        /// The other endpoint switch.
        b: u64,
    },
    /// Both directions of the inter-switch link `a ↔ b` come back.
    RestoreLink {
        /// One endpoint switch.
        a: u64,
        /// The other endpoint switch.
        b: u64,
    },
    /// Every inter-switch link at `sw` goes down (host links stay up).
    CrashSwitch {
        /// The crashing switch.
        sw: u64,
    },
    /// The inverse of [`ActionKind::CrashSwitch`].
    RecoverSwitch {
        /// The recovering switch.
        sw: u64,
    },
    /// Controller round-trips slow to `latency` until `until` (clamped to
    /// at least the baseline).
    LatencySpike {
        /// The spiked controller latency.
        latency: SimTime,
        /// When the latency returns to baseline.
        until: SimTime,
    },
    /// Host `host` (an index into the topology's host list) re-homes to
    /// switch `to` — deployed as one more campaign step at `at`.
    MoveHost {
        /// Index into the base topology's ascending host list (≥ 2: the
        /// first two hosts are the campaign's trigger source/sink).
        host: usize,
        /// Destination switch id.
        to: u64,
    },
}

impl ActionKind {
    /// The grammar's `kind` keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            ActionKind::FailLink { .. } => "fail_link",
            ActionKind::RestoreLink { .. } => "restore_link",
            ActionKind::CrashSwitch { .. } => "crash_switch",
            ActionKind::RecoverSwitch { .. } => "recover_switch",
            ActionKind::LatencySpike { .. } => "latency_spike",
            ActionKind::MoveHost { .. } => "move_host",
        }
    }
}

/// A complete declarative scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioSpec {
    /// Label for reports and CSV headers.
    pub name: String,
    /// Master seed: victim selection, workload synthesis, and the
    /// uncoordinated baseline's push jitter all derive from it.
    pub seed: u64,
    /// The topology the scenario runs on.
    pub topology: TopologySpec,
    /// Run deadline; [`SimTime::ZERO`] means "auto" (past the last flow,
    /// step, and action, plus a second of settling).
    pub horizon: SimTime,
    /// Background traffic.
    pub workload: WorkloadSpec,
    /// The update campaign.
    pub campaign: CampaignSpec,
    /// The control-channel fault model (default: ideal).
    pub channel: ChannelSpec,
    /// Scripted environment actions, in spec order.
    pub actions: Vec<ActionSpec>,
}

impl ScenarioSpec {
    /// Renders the spec back to its text form; [`parse`] inverts this.
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "[scenario]");
        let _ = writeln!(s, "name = \"{}\"", self.name);
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "topology = \"{}\"", self.topology.kind());
        match self.topology {
            TopologySpec::Ring(n) | TopologySpec::Linear(n) | TopologySpec::FatTree(n) => {
                let _ = writeln!(s, "size = {n}");
            }
            TopologySpec::Grid(r, c) | TopologySpec::Torus(r, c) => {
                let _ = writeln!(s, "size = {r}");
                let _ = writeln!(s, "size2 = {c}");
            }
        }
        let _ = writeln!(s, "horizon_ms = {}", self.horizon.as_micros() / 1000);
        let w = &self.workload;
        let _ = writeln!(s, "\n[workload]");
        let pattern = match w.pattern {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Hotspot { .. } => "hotspot",
            TrafficPattern::Permutation => "permutation",
        };
        let _ = writeln!(s, "pattern = \"{pattern}\"");
        if let TrafficPattern::Hotspot { hotspots, bias_pct } = w.pattern {
            let _ = writeln!(s, "hotspots = {hotspots}");
            let _ = writeln!(s, "bias_pct = {bias_pct}");
        }
        let _ = writeln!(s, "flows = {}", w.flows);
        let _ = writeln!(s, "packets_per_flow = {}", w.packets_per_flow);
        let _ = writeln!(s, "interval_us = {}", w.interval.as_micros());
        let _ = writeln!(s, "size_bytes = {}", w.size);
        let _ = writeln!(s, "start_ms = {}", w.start.as_micros() / 1000);
        let _ = writeln!(s, "spread_ms = {}", w.spread.as_micros() / 1000);
        let _ = writeln!(s, "model = \"{}\"", w.model.keyword());
        let c = &self.campaign;
        let _ = writeln!(s, "\n[campaign]");
        let _ = writeln!(s, "updates = {}", c.updates);
        let _ = writeln!(s, "start_ms = {}", c.start.as_micros() / 1000);
        let _ = writeln!(s, "spacing_ms = {}", c.spacing.as_micros() / 1000);
        let _ = writeln!(s, "probe = {}", c.probe);
        let _ = writeln!(s, "update_delay_ms = {}", c.update_delay.as_micros() / 1000);
        if self.channel != ChannelSpec::default() {
            let ch = &self.channel;
            let _ = writeln!(s, "\n[channel]");
            let _ = writeln!(s, "drop_pm = {}", ch.drop_pm);
            let _ = writeln!(s, "dup_pm = {}", ch.dup_pm);
            let _ = writeln!(s, "reorder_pm = {}", ch.reorder_pm);
            let _ = writeln!(s, "jitter_us = {}", ch.jitter_us);
            let _ = writeln!(s, "retry_budget = {}", ch.retry_budget);
        }
        for a in &self.actions {
            let _ = writeln!(s, "\n[[action]]");
            let _ = writeln!(s, "kind = \"{}\"", a.kind.keyword());
            let _ = writeln!(s, "at_ms = {}", a.at.as_micros() / 1000);
            match a.kind {
                ActionKind::FailLink { a, b } | ActionKind::RestoreLink { a, b } => {
                    let _ = writeln!(s, "a = {a}");
                    let _ = writeln!(s, "b = {b}");
                }
                ActionKind::CrashSwitch { sw } | ActionKind::RecoverSwitch { sw } => {
                    let _ = writeln!(s, "switch = {sw}");
                }
                ActionKind::LatencySpike { latency, until } => {
                    let _ = writeln!(s, "latency_ms = {}", latency.as_micros() / 1000);
                    let _ = writeln!(s, "until_ms = {}", until.as_micros() / 1000);
                }
                ActionKind::MoveHost { host, to } => {
                    let _ = writeln!(s, "host = {host}");
                    let _ = writeln!(s, "to_switch = {to}");
                }
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum Value {
    Int(u64),
    Str(String),
    Bool(bool),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
        }
    }
}

/// A parsed `[section]` body: keys with their line numbers, consumed by the
/// schema pass so leftovers can be reported as unknown keys.
#[derive(Default)]
struct Table {
    header_line: usize,
    map: BTreeMap<String, (usize, Value)>,
}

impl Table {
    fn int(&mut self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some((_, Value::Int(n))) => Ok(Some(n)),
            Some((line, v)) => Err(ScenarioError::Parse {
                line,
                msg: format!("`{key}` must be an integer, got a {}", v.type_name()),
            }),
        }
    }

    /// [`int`](Table::int) narrowed to `T`: a value `T` cannot hold is a
    /// parse error on its line, never a silent truncation.
    fn int_as<T: TryFrom<u64>>(&mut self, key: &str) -> Result<Option<T>, ScenarioError> {
        let line = self.map.get(key).map_or(self.header_line, |&(line, _)| line);
        let Some(n) = self.int(key)? else { return Ok(None) };
        T::try_from(n).map(Some).map_err(|_| ScenarioError::Parse {
            line,
            msg: format!("`{key}` = {n} is out of range for {}", std::any::type_name::<T>()),
        })
    }

    fn string(&mut self, key: &str) -> Result<Option<(usize, String)>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some((line, Value::Str(s))) => Ok(Some((line, s))),
            Some((line, v)) => Err(ScenarioError::Parse {
                line,
                msg: format!("`{key}` must be a string, got a {}", v.type_name()),
            }),
        }
    }

    fn boolean(&mut self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.map.remove(key) {
            None => Ok(None),
            Some((_, Value::Bool(b))) => Ok(Some(b)),
            Some((line, v)) => Err(ScenarioError::Parse {
                line,
                msg: format!("`{key}` must be a boolean, got a {}", v.type_name()),
            }),
        }
    }

    fn millis(&mut self, key: &str) -> Result<Option<SimTime>, ScenarioError> {
        Ok(self.int(key)?.map(SimTime::from_millis))
    }

    fn require_int(&mut self, key: &str, section: &str) -> Result<u64, ScenarioError> {
        let line = self.header_line;
        self.int(key)?.ok_or_else(|| ScenarioError::Parse {
            line,
            msg: format!("[{section}] is missing required key `{key}`"),
        })
    }

    fn finish(self, section: &str) -> Result<(), ScenarioError> {
        if let Some((key, (line, _))) = self.map.into_iter().next() {
            return Err(ScenarioError::Parse {
                line,
                msg: format!("unknown key `{key}` in [{section}]"),
            });
        }
        Ok(())
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ScenarioError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(inner) if !inner.contains('"') => Ok(Value::Str(inner.to_string())),
            _ => Err(ScenarioError::Parse { line, msg: format!("malformed string `{raw}`") }),
        };
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    raw.parse::<u64>().map(Value::Int).map_err(|_| ScenarioError::Parse {
        line,
        msg: format!("`{raw}` is not an integer, string, or boolean"),
    })
}

/// Parses the text form of a scenario. See the module docs for the grammar.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] (with the offending line) on syntax
/// errors, unknown sections or keys, wrong value types, or missing required
/// keys, and [`ScenarioError::Invalid`] on structurally impossible specs
/// (degenerate topology sizes, more than 63 campaign steps, inverted
/// latency-spike windows).
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        None,
        Scenario,
        Workload,
        Campaign,
        Channel,
        Action(usize),
    }
    let mut scenario = None::<Table>;
    let mut workload = None::<Table>;
    let mut campaign = None::<Table>;
    let mut channel = None::<Table>;
    let mut actions: Vec<Table> = Vec::new();
    let mut current = Section::None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let body = strip_comment(raw_line).trim();
        if body.is_empty() {
            continue;
        }
        if let Some(header) = body.strip_prefix("[[").and_then(|b| b.strip_suffix("]]")) {
            if header != "action" {
                return Err(ScenarioError::Parse {
                    line,
                    msg: format!("unknown array section `[[{header}]]` (only `[[action]]`)"),
                });
            }
            actions.push(Table { header_line: line, ..Table::default() });
            current = Section::Action(actions.len() - 1);
            continue;
        }
        if let Some(header) = body.strip_prefix('[').and_then(|b| b.strip_suffix(']')) {
            let slot = match header {
                "scenario" => &mut scenario,
                "workload" => &mut workload,
                "campaign" => &mut campaign,
                "channel" => &mut channel,
                _ => {
                    return Err(ScenarioError::Parse {
                        line,
                        msg: format!("unknown section `[{header}]`"),
                    })
                }
            };
            if slot.is_some() {
                return Err(ScenarioError::Parse {
                    line,
                    msg: format!("duplicate section `[{header}]`"),
                });
            }
            *slot = Some(Table { header_line: line, ..Table::default() });
            current = match header {
                "scenario" => Section::Scenario,
                "workload" => Section::Workload,
                "campaign" => Section::Campaign,
                _ => Section::Channel,
            };
            continue;
        }
        let Some((key, value)) = body.split_once('=') else {
            return Err(ScenarioError::Parse {
                line,
                msg: format!("expected `key = value`, got `{body}`"),
            });
        };
        let key = key.trim();
        if key.is_empty()
            || !key.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit())
        {
            return Err(ScenarioError::Parse { line, msg: format!("bad key `{key}`") });
        }
        let value = parse_value(value, line)?;
        let table = match current {
            Section::None => {
                return Err(ScenarioError::Parse {
                    line,
                    msg: "key binding before any section header".to_string(),
                })
            }
            Section::Scenario => scenario.as_mut().unwrap(),
            Section::Workload => workload.as_mut().unwrap(),
            Section::Campaign => campaign.as_mut().unwrap(),
            Section::Channel => channel.as_mut().unwrap(),
            Section::Action(i) => &mut actions[i],
        };
        if table.map.insert(key.to_string(), (line, value)).is_some() {
            return Err(ScenarioError::Parse { line, msg: format!("duplicate key `{key}`") });
        }
    }

    let mut scenario = scenario.ok_or(ScenarioError::Parse {
        line: 1,
        msg: "missing required section [scenario]".to_string(),
    })?;
    let name = scenario.string("name")?.map(|(_, s)| s).unwrap_or_else(|| "scenario".to_string());
    let seed = scenario.int("seed")?.unwrap_or(0);
    let (topo_line, topo_kind) = scenario.string("topology")?.ok_or(ScenarioError::Parse {
        line: scenario.header_line,
        msg: "[scenario] is missing required key `topology`".to_string(),
    })?;
    let size = scenario.require_int("size", "scenario")?;
    let topology = match topo_kind.as_str() {
        "ring" => TopologySpec::Ring(size),
        "linear" => TopologySpec::Linear(size),
        "fat_tree" => TopologySpec::FatTree(size),
        "grid" => TopologySpec::Grid(size, scenario.require_int("size2", "scenario")?),
        "torus" => TopologySpec::Torus(size, scenario.require_int("size2", "scenario")?),
        other => {
            return Err(ScenarioError::Parse {
                line: topo_line,
                msg: format!("unknown topology `{other}`"),
            })
        }
    };
    let horizon = scenario.millis("horizon_ms")?.unwrap_or(SimTime::ZERO);
    scenario.finish("scenario")?;

    let mut workload_spec = WorkloadSpec::default();
    if let Some(mut w) = workload {
        let hotspots = w.int("hotspots")?.unwrap_or(2) as usize;
        let bias_pct = w.int_as("bias_pct")?.unwrap_or(80);
        if let Some((line, p)) = w.string("pattern")? {
            workload_spec.pattern = match p.as_str() {
                "uniform" => TrafficPattern::Uniform,
                "hotspot" => TrafficPattern::Hotspot { hotspots, bias_pct },
                "permutation" => TrafficPattern::Permutation,
                other => {
                    return Err(ScenarioError::Parse {
                        line,
                        msg: format!("unknown traffic pattern `{other}`"),
                    })
                }
            };
        }
        if let Some(n) = w.int("flows")? {
            workload_spec.flows = n as usize;
        }
        if let Some(n) = w.int("packets_per_flow")? {
            workload_spec.packets_per_flow = n;
        }
        if let Some(n) = w.int("interval_us")? {
            workload_spec.interval = SimTime::from_micros(n);
        }
        if let Some(n) = w.int_as("size_bytes")? {
            workload_spec.size = n;
        }
        if let Some(t) = w.millis("start_ms")? {
            workload_spec.start = t;
        }
        if let Some(t) = w.millis("spread_ms")? {
            workload_spec.spread = t;
        }
        if let Some((line, m)) = w.string("model")? {
            workload_spec.model = match m.as_str() {
                "none" => ModelSpec::None,
                "pareto" => ModelSpec::Pareto,
                "onoff" => ModelSpec::OnOff,
                "diurnal" => ModelSpec::Diurnal,
                other => {
                    return Err(ScenarioError::Parse {
                        line,
                        msg: format!("unknown arrival model `{other}`"),
                    })
                }
            };
        }
        w.finish("workload")?;
    }

    let mut campaign_spec = CampaignSpec::default();
    if let Some(mut c) = campaign {
        if let Some(n) = c.int("updates")? {
            campaign_spec.updates = n as usize;
        }
        if let Some(t) = c.millis("start_ms")? {
            campaign_spec.start = t;
        }
        if let Some(t) = c.millis("spacing_ms")? {
            campaign_spec.spacing = t;
        }
        if let Some(b) = c.boolean("probe")? {
            campaign_spec.probe = b;
        }
        if let Some(t) = c.millis("update_delay_ms")? {
            campaign_spec.update_delay = t;
        }
        c.finish("campaign")?;
    }

    let mut channel_spec = ChannelSpec::default();
    if let Some(mut ch) = channel {
        if let Some(n) = ch.int_as("drop_pm")? {
            channel_spec.drop_pm = n;
        }
        if let Some(n) = ch.int_as("dup_pm")? {
            channel_spec.dup_pm = n;
        }
        if let Some(n) = ch.int_as("reorder_pm")? {
            channel_spec.reorder_pm = n;
        }
        if let Some(n) = ch.int("jitter_us")? {
            channel_spec.jitter_us = n;
        }
        if let Some(n) = ch.int_as("retry_budget")? {
            channel_spec.retry_budget = n;
        }
        ch.finish("channel")?;
    }

    let mut action_specs = Vec::with_capacity(actions.len());
    for mut a in actions {
        let header_line = a.header_line;
        let (kind_line, kind) = a.string("kind")?.ok_or(ScenarioError::Parse {
            line: header_line,
            msg: "[[action]] is missing required key `kind`".to_string(),
        })?;
        let at = a.millis("at_ms")?.ok_or(ScenarioError::Parse {
            line: header_line,
            msg: "[[action]] is missing required key `at_ms`".to_string(),
        })?;
        let kind = match kind.as_str() {
            "fail_link" => ActionKind::FailLink {
                a: a.require_int("a", "action")?,
                b: a.require_int("b", "action")?,
            },
            "restore_link" => ActionKind::RestoreLink {
                a: a.require_int("a", "action")?,
                b: a.require_int("b", "action")?,
            },
            "crash_switch" => ActionKind::CrashSwitch { sw: a.require_int("switch", "action")? },
            "recover_switch" => {
                ActionKind::RecoverSwitch { sw: a.require_int("switch", "action")? }
            }
            "latency_spike" => ActionKind::LatencySpike {
                latency: SimTime::from_millis(a.require_int("latency_ms", "action")?),
                until: SimTime::from_millis(a.require_int("until_ms", "action")?),
            },
            "move_host" => ActionKind::MoveHost {
                host: a.require_int("host", "action")? as usize,
                to: a.require_int("to_switch", "action")?,
            },
            other => {
                return Err(ScenarioError::Parse {
                    line: kind_line,
                    msg: format!("unknown action kind `{other}`"),
                })
            }
        };
        a.finish("action")?;
        action_specs.push(ActionSpec { at, kind });
    }

    let spec = ScenarioSpec {
        name,
        seed,
        topology,
        horizon,
        workload: workload_spec,
        campaign: campaign_spec,
        channel: channel_spec,
        actions: action_specs,
    };
    validate(&spec)?;
    Ok(spec)
}

/// The largest `[channel] jitter_us` a spec may ask for: one second, fifty
/// times the reliability layer's first retransmit timeout.
const MAX_JITTER_US: u64 = 1_000_000;

/// Structural validation shared by [`parse`] and the compiler's callers.
pub fn validate(spec: &ScenarioSpec) -> Result<(), ScenarioError> {
    match spec.topology {
        TopologySpec::Ring(n) if n < 3 => {
            return Err(ScenarioError::Invalid(format!("ring needs ≥ 3 switches, got {n}")))
        }
        TopologySpec::Linear(n) if n < 2 => {
            return Err(ScenarioError::Invalid(format!("linear needs ≥ 2 switches, got {n}")))
        }
        TopologySpec::Grid(r, c) | TopologySpec::Torus(r, c) if r < 2 || c < 2 => {
            return Err(ScenarioError::Invalid(format!("grid/torus needs ≥ 2×2, got {r}×{c}")))
        }
        TopologySpec::FatTree(k) if k < 4 || k % 2 != 0 => {
            return Err(ScenarioError::Invalid(format!("fat-tree needs even k ≥ 4, got {k}")))
        }
        _ => {}
    }
    let moves =
        spec.actions.iter().filter(|a| matches!(a.kind, ActionKind::MoveHost { .. })).count();
    if spec.campaign.updates + moves > 63 {
        return Err(ScenarioError::Invalid(format!(
            "campaigns are limited to 63 steps, got {} updates + {moves} moves",
            spec.campaign.updates
        )));
    }
    let ch = &spec.channel;
    for (key, pm) in [("drop_pm", ch.drop_pm), ("dup_pm", ch.dup_pm), ("reorder_pm", ch.reorder_pm)]
    {
        if pm > 1000 {
            return Err(ScenarioError::Invalid(format!(
                "channel {key} is a per-mille probability, got {pm} > 1000"
            )));
        }
    }
    if ch.jitter_us > MAX_JITTER_US {
        return Err(ScenarioError::Invalid(format!(
            "channel jitter_us is at most {MAX_JITTER_US} (one second), got {}",
            ch.jitter_us
        )));
    }
    for a in &spec.actions {
        if let ActionKind::LatencySpike { until, .. } = a.kind {
            if until <= a.at {
                return Err(ScenarioError::Invalid(format!(
                    "latency spike at {:?} must end after it starts (until {until:?})",
                    a.at
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kitchen_sink() -> ScenarioSpec {
        ScenarioSpec {
            name: "sink".to_string(),
            seed: 9,
            topology: TopologySpec::Grid(3, 2),
            horizon: SimTime::from_millis(1500),
            workload: WorkloadSpec {
                pattern: TrafficPattern::Hotspot { hotspots: 3, bias_pct: 70 },
                flows: 12,
                packets_per_flow: 3,
                interval: SimTime::from_micros(700),
                size: 256,
                start: SimTime::from_millis(5),
                spread: SimTime::from_millis(400),
                model: ModelSpec::Pareto,
            },
            campaign: CampaignSpec {
                updates: 2,
                start: SimTime::from_millis(90),
                spacing: SimTime::from_millis(110),
                probe: true,
                update_delay: SimTime::from_millis(250),
            },
            channel: ChannelSpec {
                drop_pm: 50,
                dup_pm: 20,
                reorder_pm: 10,
                jitter_us: 30,
                retry_budget: 6,
            },
            actions: vec![
                ActionSpec {
                    at: SimTime::from_millis(120),
                    kind: ActionKind::FailLink { a: 1, b: 2 },
                },
                ActionSpec {
                    at: SimTime::from_millis(200),
                    kind: ActionKind::RestoreLink { a: 1, b: 2 },
                },
                ActionSpec {
                    at: SimTime::from_millis(300),
                    kind: ActionKind::CrashSwitch { sw: 4 },
                },
                ActionSpec {
                    at: SimTime::from_millis(380),
                    kind: ActionKind::RecoverSwitch { sw: 4 },
                },
                ActionSpec {
                    at: SimTime::from_millis(400),
                    kind: ActionKind::LatencySpike {
                        latency: SimTime::from_millis(20),
                        until: SimTime::from_millis(500),
                    },
                },
                ActionSpec {
                    at: SimTime::from_millis(600),
                    kind: ActionKind::MoveHost { host: 3, to: 5 },
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_text() {
        let spec = kitchen_sink();
        let text = spec.to_toml();
        assert_eq!(parse(&text).expect("rendered specs parse"), spec);
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let spec = parse("[scenario]\ntopology = \"ring\"\nsize = 4\n").unwrap();
        assert_eq!(spec.name, "scenario");
        assert_eq!(spec.workload, WorkloadSpec::default());
        assert_eq!(spec.campaign, CampaignSpec::default());
        assert_eq!(spec.channel, ChannelSpec::default());
        assert!(spec.channel.is_ideal());
        assert!(spec.actions.is_empty());
        assert_eq!(spec.horizon, SimTime::ZERO);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a comment\n[scenario]  # trailing\nname = \"x # not a comment\"\ntopology = \"linear\"\nsize = 3\n";
        let spec = parse(text).unwrap();
        assert_eq!(spec.name, "x # not a comment");
        assert_eq!(spec.topology, TopologySpec::Linear(3));
    }

    #[test]
    fn rejects_unknown_keys_sections_and_kinds() {
        let base = "[scenario]\ntopology = \"ring\"\nsize = 4\n";
        for (text, needle) in [
            (format!("{base}bogus = 1\n"), "unknown key"),
            (format!("{base}[mystery]\n"), "unknown section"),
            (format!("{base}[[mystery]]\n"), "unknown array section"),
            (format!("{base}[[action]]\nkind = \"melt\"\nat_ms = 1\n"), "unknown action kind"),
            (format!("{base}[[action]]\nat_ms = 1\n"), "missing required key `kind`"),
            ("[scenario]\nsize = 4\n".to_string(), "required key `topology`"),
            (format!("{base}seed = \"seven\"\n"), "must be an integer"),
            (format!("{base}[scenario]\n"), "duplicate section"),
            ("flows = 1\n".to_string(), "before any section"),
        ] {
            let err = parse(&text).expect_err(&text).to_string();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn validates_structure() {
        for (text, needle) in [
            ("[scenario]\ntopology = \"ring\"\nsize = 2\n", "ring needs"),
            ("[scenario]\ntopology = \"fat_tree\"\nsize = 3\n", "fat-tree needs"),
            (
                "[scenario]\ntopology = \"ring\"\nsize = 4\n[campaign]\nupdates = 64\n",
                "limited to 63",
            ),
            (
                "[scenario]\ntopology = \"ring\"\nsize = 4\n[[action]]\nkind = \"latency_spike\"\nat_ms = 10\nlatency_ms = 5\nuntil_ms = 10\n",
                "must end after",
            ),
            (
                "[scenario]\ntopology = \"ring\"\nsize = 4\n[channel]\ndrop_pm = 1001\n",
                "per-mille",
            ),
        ] {
            let err = parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    /// Parses `key = value` in `[section]` of a ring spec, expecting the
    /// parse error a value `ty` cannot hold gets on its own line (5).
    fn assert_out_of_range(section: &str, key: &str, value: &str, ty: &str) {
        let text =
            format!("[scenario]\ntopology = \"ring\"\nsize = 4\n[{section}]\n{key} = {value}\n");
        let msg = format!("`{key}` = {value} is out of range for {ty}");
        assert_eq!(parse(&text), Err(ScenarioError::Parse { line: 5, msg }));
    }

    /// Truncated, 2^32 + 60 would read as 60 and pass `validate`.
    #[test]
    fn drop_pm_past_u32_is_rejected_not_truncated() {
        assert_out_of_range("channel", "drop_pm", "4294967356", "u32");
    }

    #[test]
    fn dup_pm_past_u32_is_rejected() {
        assert_out_of_range("channel", "dup_pm", "4294967296", "u32");
    }

    #[test]
    fn reorder_pm_past_u32_is_rejected() {
        assert_out_of_range("channel", "reorder_pm", "4294967296", "u32");
    }

    #[test]
    fn retry_budget_past_u32_is_rejected() {
        assert_out_of_range("channel", "retry_budget", "4294967296", "u32");
    }

    #[test]
    fn size_bytes_past_u32_is_rejected() {
        assert_out_of_range("workload", "size_bytes", "4294967296", "u32");
    }

    #[test]
    fn bias_pct_past_u8_is_rejected() {
        assert_out_of_range("workload", "bias_pct", "256", "u8");
    }

    /// The bound keeps every delay the channel model draws far from
    /// overflow.
    #[test]
    fn jitter_us_is_bounded() {
        let spec = |jitter: u64| {
            parse(&format!(
                "[scenario]\ntopology = \"ring\"\nsize = 4\n[channel]\njitter_us = {jitter}\n"
            ))
        };
        assert_eq!(spec(MAX_JITTER_US).map(|s| s.channel.jitter_us), Ok(MAX_JITTER_US));
        for jitter in [MAX_JITTER_US + 1, u64::MAX] {
            let err = spec(jitter).expect_err("past the bound").to_string();
            assert!(err.contains("jitter_us is at most 1000000"), "{err}");
        }
    }
}
