//! The metric catalogue, the one-line result the driver reads, and the
//! only place the benchmark writes files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::stats::Summary;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them. The fifth end-to-end figure, `fail_share`, is `failed /
/// attempted` of the result line: a metric may never read 0, and this one
/// always should.
pub const END_TO_END: [(&str, &str); 4] =
    [("verdict_s", "s"), ("setup_s", "s"), ("ns_per_event", "ns"), ("peak_rss_mb", "MB")];

/// Stages whose span `<name>` yields the per-layer metric `<name>_s`.
pub const STAGES: [&str; 17] = [
    "scenario.parse",
    "scenario.compile",
    "topo.generate",
    "topo.synthesize",
    "topo.load_traffic",
    "apps.nes_build",
    "runtime.nes_compile",
    "runtime.deploy",
    "netsim.engine_new",
    "netsim.run",
    "netsim.finish",
    "netsim.teardown",
    "core.checker.attach",
    "core.checker.record",
    "core.checker.other",
    "core.checker.finish",
    "core.checker.verdict",
];

/// `(name, unit)` of the per-layer metrics that are not stage times.
pub const LAYER_COUNTS: [(&str, &str); 41] = [
    ("scenario.steps", "count"),
    ("scenario.datagrams", "count"),
    ("topo.switches", "count"),
    ("topo.hosts", "count"),
    ("runtime.tags", "count"),
    ("runtime.rules_total", "count"),
    ("runtime.fired", "count"),
    ("runtime.updates_per_s", "1/s"),
    ("runtime.plane_ns_per_hop", "ns"),
    ("netkat.fp_hits", "count"),
    ("netkat.fp_fallbacks", "count"),
    ("netkat.fp_hit_ratio", "ratio"),
    ("netkat.arena_intern_hits", "count"),
    ("netkat.arena_intern_misses", "count"),
    ("netkat.arena_recycled", "count"),
    ("netkat.arena_slots_hw", "count"),
    ("netsim.events", "count"),
    ("netsim.run_ns_per_event", "ns"),
    ("netsim.pump_ns_mean", "ns"),
    ("netsim.dispatch_ns_mean", "ns"),
    ("netsim.queue_depth_hw", "count"),
    ("netsim.dispatch.inject", "count"),
    ("netsim.dispatch.arrive", "count"),
    ("netsim.dispatch.notify", "count"),
    ("netsim.dispatch.deliver", "count"),
    ("netsim.dispatch.timer", "count"),
    ("netsim.drops_total", "count"),
    ("core.checker.record_calls", "count"),
    ("core.checker.other_calls", "count"),
    ("core.checker.busy_s", "s"),
    ("core.checker.ns_per_event", "ns"),
    ("core.checker.busy_share", "share"),
    ("core.checker.live_nodes_hw", "count"),
    ("core.checker.obligations_hw", "count"),
    ("core.checker.retired_prefixes", "count"),
    ("obs.traced_total_s", "s"),
    ("obs.trace_overhead_share", "share"),
    ("obs.unattributed_share", "share"),
    ("harness.cold_verdict_s", "s"),
    ("harness.iqr_share", "share"),
    ("harness.host_slowdown", "ratio"),
];

/// Sampled wall-clock means: the only layer counts that may differ between
/// two repetitions over the same inputs.
pub const WALL_MEANS: [&str; 3] =
    ["runtime.plane_ns_per_hop", "netsim.pump_ns_mean", "netsim.dispatch_ns_mean"];

/// `(name, unit)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let stages = STAGES.iter().map(|s| (format!("{s}_s"), "s"));
    stages.chain(LAYER_COUNTS.iter().map(|&(n, u)| (n.to_string(), u))).collect()
}

/// One run's metric values; `None` is a series that was absent.
pub type Values = BTreeMap<String, Option<f64>>;

/// The last line of standard output: what the driver parses. A metric has
/// to be a number there, so an absent series reads 0; the trace file keeps
/// the `null`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &str)],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = values.get(name).unwrap_or_else(|| panic!("no value for metric {name}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            value.unwrap_or(0.0)
        );
    }
    out.push_str("}}");
    out
}

/// The values as a JSON object, absent series as `null`.
pub fn values_json(catalogue: &[(String, &str)], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = values[name].map_or_else(|| "null".to_string(), |v| v.to_string());
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("\n  }");
    out
}

/// A metric for people: its summary, then the samples in run order.
pub fn print_summary(name: &str, unit: &str, sample: &[f64]) -> Summary {
    let s = Summary::of(sample);
    eprintln!(
        "  {name:<30} {unit:<6} median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    );
    if s.n <= 64 {
        let samples: Vec<String> = sample.iter().map(|v| format!("{v:.4}")).collect();
        eprintln!("  {:<30} {:<6} samples {}", "", "", samples.join(" "));
    }
    s
}

pub fn print_value(name: &str, unit: &str, value: Option<f64>) {
    match value {
        Some(v) => eprintln!("  {name:<30} {unit:<6} {v}"),
        None => eprintln!("  {name:<30} {unit:<6} null"),
    }
}

/// `benchmark/`, fixed when the benchmark is built: it is built in the
/// checkout it measures.
fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Writes `benchmark/out/<file>` — the only place the benchmark writes.
///
/// # Panics
///
/// Panics if `file` is anything but a plain file name.
pub fn write_out(file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let plain = !file.is_empty()
        && file != "."
        && file != ".."
        && file.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    assert!(plain, "refusing to write outside benchmark/out/: `{file}`");
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// The text of `BENCHMARK.json`, which sits beside `benchmark/`.
pub fn benchmark_json() -> std::io::Result<String> {
    std::fs::read_to_string(benchmark_dir().join("../BENCHMARK.json"))
}

/// The `"name"` / `"unit"` pairs of the objects in `BENCHMARK.json`'s
/// array `section` (`unit` is empty where the objects have none). This is
/// not a JSON parser: it relies on the file's own layout — no brackets
/// inside the section's strings.
pub fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let Some(at) = json.find(&format!("\"{section}\"")) else { return Vec::new() };
    let body = &json[at..];
    let (Some(open), Some(close)) = (body.find('['), body.find(']')) else { return Vec::new() };
    body[open + 1..close]
        .split('{')
        .skip(1)
        .map(|object| (string_field(object, "name"), string_field(object, "unit")))
        .collect()
}

fn string_field(object: &str, key: &str) -> String {
    let Some(at) = object.find(&format!("\"{key}\"")) else { return String::new() };
    object[at + key.len() + 2..].split('"').nth(1).unwrap_or_default().to_string()
}

/// `run_seconds` of `BENCHMARK.json`.
pub fn declared_run_seconds(json: &str) -> Option<u64> {
    let rest = json.split("\"run_seconds\"").nth(1)?;
    rest.trim_start_matches([':', ' ']).split([',', '\n', '}']).next()?.trim().parse().ok()
}

/// What is wrong with the benchmark's names against `BENCHMARK.json`;
/// empty when they agree.
pub fn name_mismatches(json: &str, workloads: &[&str]) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut compare = |section: &str, ours: Vec<(String, String)>| {
        let theirs = declared(json, section);
        if theirs != ours {
            wrong.push(format!("{section}: BENCHMARK.json has {theirs:?}, the benchmark {ours:?}"));
        }
        for (name, unit) in &ours {
            let ok = |s: &str, extra: &str| {
                s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            if name.is_empty()
                || name.len() > 64
                || !ok(name, "_.-")
                || unit.len() > 16
                || !ok(unit, "_/%.-")
            {
                wrong.push(format!("{section}: `{name}` [{unit}] breaks the naming rule"));
            }
        }
    };
    let own = |pairs: &[(&str, &str)]| {
        pairs.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    compare("workloads", workloads.iter().map(|w| (w.to_string(), String::new())).collect());
    compare("end_to_end", own(&END_TO_END));
    compare("per_layer", per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect());
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn names_match_benchmark_json_and_the_naming_rule() {
        let json = benchmark_json().expect("BENCHMARK.json sits at the repo root");
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(name_mismatches(&json, &workloads), Vec::<String>::new());
        let seconds = declared_run_seconds(&json).expect("run_seconds is declared");
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn mismatches_and_bad_names_are_reported() {
        let json = r#"{"workloads": [{"name": "a b", "why": "x"}],
                       "end_to_end": [], "per_layer": []}"#;
        let wrong = name_mismatches(json, &["a b"]);
        assert!(wrong.iter().any(|w| w.contains("breaks the naming rule")), "{wrong:?}");
        assert!(wrong.iter().any(|w| w.starts_with("end_to_end:")), "{wrong:?}");
    }

    #[test]
    fn result_line_zeroes_absent_series_and_keeps_order() {
        let catalogue = vec![("b".to_string(), "s"), ("a".to_string(), "count")];
        let values = Values::from([("a".to_string(), None), ("b".to_string(), Some(1.25))]);
        assert_eq!(
            result_line(3, 0, &catalogue, &values),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 1.25, \"unit\": \"s\"}, \"a\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert!(result_line(3, 1, &catalogue, &values).starts_with("{\"correct\": false"));
        assert!(values_json(&catalogue, &values).contains("\"a\": {\"value\": null"));
    }

    #[test]
    #[should_panic(expected = "refusing to write outside benchmark/out/")]
    fn writes_stay_inside_the_output_directory() {
        let _ = write_out("../escape.json", "");
    }
}
