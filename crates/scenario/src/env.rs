//! The five `EDN_*` variables, parsed once.
//!
//! Only `scenario_run` and `fig18_verified_scale` honour the shell: each
//! calls [`RunEnv::from_process`] once, at the top of `main`, and passes the
//! values down — a level to [`CompiledScenario::metrics`](crate::CompiledScenario::metrics)
//! or `Engine::with_metrics`, a channel into the spec's `[channel]` section,
//! paths to its own writes. No library function reads the environment.

use netsim::{ChannelModel, DirModel, MetricsLevel, Registry};

use crate::spec::{ChannelSpec, ScenarioSpec};

/// The parsed `EDN_*` variables of one process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunEnv {
    /// `EDN_METRICS` (default [`MetricsLevel::Off`]).
    pub metrics: MetricsLevel,
    /// `EDN_METRICS_OUT`: where the finished registry is written, if set.
    pub metrics_out: Option<String>,
    /// `EDN_FLIGHT_OUT` (default `edn_flight.json`).
    pub flight_out: String,
    /// `EDN_CHANNEL=lossy`: [`ChannelModel::lossy`]'s preset as the
    /// `[channel]` section of a spec without one, with `EDN_RETRY_BUDGET`'s
    /// budget (default 8). `None` for `ideal`.
    pub channel: Option<ChannelSpec>,
}

impl RunEnv {
    /// Parses the five variables from `lookup` (name → value). An empty
    /// value means unset.
    ///
    /// # Errors
    ///
    /// The message to show the user for a malformed `EDN_METRICS`,
    /// `EDN_CHANNEL` or `EDN_RETRY_BUDGET`.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<RunEnv, String> {
        let var = |name: &str| lookup(name).filter(|v| !v.is_empty());
        let metrics = MetricsLevel::parse(var("EDN_METRICS").as_deref())?;
        let lossy = match var("EDN_CHANNEL").as_deref() {
            None | Some("ideal") => false,
            Some("lossy") => true,
            Some(v) => return Err(format!("EDN_CHANNEL must be ideal|lossy, got {v:?}")),
        };
        let retry_budget = match var("EDN_RETRY_BUDGET") {
            None => ChannelSpec::default().retry_budget,
            Some(v) => {
                v.parse().map_err(|_| format!("EDN_RETRY_BUDGET must be a number, got {v:?}"))?
            }
        };
        let DirModel { drop_pm, dup_pm, reorder_pm, jitter_us } = ChannelModel::lossy(0).to_ctrl;
        let preset = ChannelSpec { drop_pm, dup_pm, reorder_pm, jitter_us, retry_budget };
        Ok(RunEnv {
            metrics,
            metrics_out: var("EDN_METRICS_OUT"),
            flight_out: var("EDN_FLIGHT_OUT").unwrap_or_else(|| "edn_flight.json".to_string()),
            channel: lossy.then_some(preset),
        })
    }

    /// [`parse`](RunEnv::parse) over this process's environment: the only
    /// place an `EDN_*` variable is read.
    ///
    /// # Errors
    ///
    /// As [`parse`](RunEnv::parse).
    pub fn from_process() -> Result<RunEnv, String> {
        let vars = [
            ("EDN_METRICS", std::env::var("EDN_METRICS")),
            ("EDN_METRICS_OUT", std::env::var("EDN_METRICS_OUT")),
            ("EDN_FLIGHT_OUT", std::env::var("EDN_FLIGHT_OUT")),
            ("EDN_CHANNEL", std::env::var("EDN_CHANNEL")),
            ("EDN_RETRY_BUDGET", std::env::var("EDN_RETRY_BUDGET")),
        ];
        RunEnv::parse(|name| vars.iter().find(|(n, _)| *n == name)?.1.clone().ok())
    }

    /// Gives `spec` the `EDN_CHANNEL` section if its own channel is ideal.
    pub fn apply_channel(&self, spec: &mut ScenarioSpec) {
        if let Some(channel) = self.channel.filter(|_| spec.channel.is_ideal()) {
            spec.channel = channel;
        }
    }

    /// Writes `registry` where `EDN_METRICS_OUT` points, if it is set.
    ///
    /// # Errors
    ///
    /// The message to show the user, naming the variable and the path.
    pub fn write_metrics(&self, registry: &Registry) -> Result<(), String> {
        let Some(path) = &self.metrics_out else { return Ok(()) };
        registry.write_out(path).map_err(|e| format!("EDN_METRICS_OUT: cannot write `{path}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioGen;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Result<RunEnv, String> {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        RunEnv::parse(|name| map.get(name).map(|v| v.to_string()))
    }

    /// `EDN_CHANNEL=lossy EDN_RETRY_BUDGET=3`.
    fn lossy3() -> RunEnv {
        parse(&[("EDN_CHANNEL", "lossy"), ("EDN_RETRY_BUDGET", "3")]).unwrap()
    }

    #[test]
    fn unset_or_empty_gives_the_defaults_for_all_five() {
        let defaults = RunEnv {
            metrics: MetricsLevel::Off,
            metrics_out: None,
            flight_out: "edn_flight.json".to_string(),
            channel: None,
        };
        assert_eq!(parse(&[]), Ok(defaults.clone()));
        let all =
            ["EDN_METRICS", "EDN_METRICS_OUT", "EDN_FLIGHT_OUT", "EDN_CHANNEL", "EDN_RETRY_BUDGET"];
        assert_eq!(parse(&all.map(|name| (name, ""))), Ok(defaults));
    }

    #[test]
    fn the_paths_are_read() {
        let env = parse(&[("EDN_METRICS_OUT", "m.prom"), ("EDN_FLIGHT_OUT", "f.json")]).unwrap();
        assert_eq!(env.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(env.flight_out, "f.json");
    }

    #[test]
    fn parse_reads_unset_empty_and_every_level_and_rejects_typos() {
        assert_eq!(parse(&[]).unwrap().metrics, MetricsLevel::Off);
        assert_eq!(parse(&[("EDN_METRICS", "")]).unwrap().metrics, MetricsLevel::Off);
        for level in [MetricsLevel::Off, MetricsLevel::Counters, MetricsLevel::Full] {
            assert_eq!(parse(&[("EDN_METRICS", level.name())]).unwrap().metrics, level);
        }
        assert_eq!(
            parse(&[("EDN_METRICS", "ful")]),
            Err("EDN_METRICS must be off|counters|full, got \"ful\"".to_string())
        );
    }

    #[test]
    fn parse_reads_unset_empty_and_both_models_and_rejects_typos() {
        let channel = |v: &str| parse(&[("EDN_CHANNEL", v)]).map(|env| env.channel);
        assert_eq!(parse(&[]).unwrap().channel, None);
        assert_eq!(channel(""), Ok(None));
        assert_eq!(channel("ideal"), Ok(None));
        assert_eq!(channel("lossy").unwrap().map(|c| c.model(9)), Some(ChannelModel::lossy(9)));
        assert_eq!(
            channel("losy"),
            Err("EDN_CHANNEL must be ideal|lossy, got \"losy\"".to_string())
        );
    }

    #[test]
    fn retry_budget_parses_unset_empty_numbers_and_rejects_typos() {
        let budget = |v: &str| {
            let env = parse(&[("EDN_CHANNEL", "lossy"), ("EDN_RETRY_BUDGET", v)]).unwrap();
            env.channel.map(|c| c.retry_budget)
        };
        assert_eq!(
            parse(&[("EDN_CHANNEL", "lossy")]).unwrap().channel.map(|c| c.retry_budget),
            Some(8)
        );
        assert_eq!(budget(""), Some(8));
        assert_eq!(budget("0"), Some(0));
        assert_eq!(budget("12"), Some(12));
        assert_eq!(
            parse(&[("EDN_RETRY_BUDGET", "eight")]),
            Err("EDN_RETRY_BUDGET must be a number, got \"eight\"".to_string())
        );
    }

    /// `EDN_CHANNEL=lossy` is the lossy preset as a `[channel]` section:
    /// applied to an ideal spec, the spec's model is the preset's at every
    /// seed, and its budget is `EDN_RETRY_BUDGET`'s.
    #[test]
    fn lossy_applied_to_an_ideal_spec_is_the_preset() {
        let mut spec = ScenarioGen::sample(5);
        assert!(spec.channel.is_ideal());
        lossy3().apply_channel(&mut spec);
        for seed in [0, 7, u64::MAX] {
            assert_eq!(spec.channel.model(seed), ChannelModel::lossy(seed));
        }
        assert_eq!(spec.channel.retry_budget, 3);
    }

    #[test]
    fn a_spec_with_its_own_channel_is_left_untouched() {
        let mut spec = ScenarioGen::sample_lossy(5);
        lossy3().apply_channel(&mut spec);
        assert_eq!(spec, ScenarioGen::sample_lossy(5));
        let mut ideal = ScenarioGen::sample(5);
        parse(&[]).unwrap().apply_channel(&mut ideal);
        assert_eq!(ideal, ScenarioGen::sample(5), "EDN_CHANNEL unset changes nothing");
    }
}
