//! The metric registry: counters, high-water gauges, and power-of-two
//! log histograms, with a deterministic merge and deterministic export.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Determinism class of a metric.
///
/// The class decides which equivalence guarantee a metric carries — and
/// therefore which CI byte-identity checks may compare it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Scope {
    /// Derived from simulated time and event content only: byte-identical
    /// across replays and across the result-neutral knobs.
    Sim,
    /// Deterministic for a fixed build, not compared across knobs (queue
    /// depths, arena interning). The name is historical:
    /// exported snapshots label this section `shard`.
    Shard,
    /// Wall-clock samples; never expected to reproduce.
    Wall,
}

impl Scope {
    /// The lowercase label used in exports (`sim`, `shard`, `wall`).
    pub fn label(self) -> &'static str {
        match self {
            Scope::Sim => "sim",
            Scope::Shard => "shard",
            Scope::Wall => "wall",
        }
    }
}

/// A log-scale histogram with power-of-two buckets.
///
/// Bucket `0` holds the value `0`; bucket `i` (for `i >= 1`) holds values
/// in `[2^(i-1), 2^i - 1]` — i.e. values of bit length `i`. Observing and
/// merging are pure integer arithmetic, so merged histograms are exact
/// and order-independent: merge is associative and commutative (each
/// bucket, the count, and the sum add).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { buckets: [0; 65], count: 0, sum: 0 }
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds `other` into `self` (bucketwise addition).
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket holding the `num/den` quantile
    /// (integer rank `ceil(count * num / den)`, so `quantile(50, 100)` is
    /// a p50 upper bound and `quantile(99, 100)` a p99 upper bound).
    /// Returns `0` for an empty histogram.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count * num).div_ceil(den)).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(upper bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, &c)| (bucket_upper(i), c))
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// One registered metric value.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Value {
    /// Monotone counter; merge adds.
    Counter(u64),
    /// High-water gauge; merge takes the max.
    Gauge(u64),
    /// Log histogram; merge adds bucketwise. Boxed: a `Hist` is ~540
    /// bytes against the scalar variants' 8, and registries hold many
    /// more counters than histograms.
    Hist(Box<Hist>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Hist(_) => "histogram",
        }
    }
}

/// A deterministic collection of named metrics.
///
/// Names are stored in a sorted map and every exporter walks them in
/// name order, so two registries holding the same values render to
/// byte-identical text. [`merge`](Registry::merge) is commutative and
/// associative per metric (counters add, gauges max, histograms add
/// bucketwise).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<(Scope, String), Value>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Adds `v` to the counter `name` (creating it at zero).
    pub fn counter_add(&mut self, scope: Scope, name: &str, v: u64) {
        match self.entry(scope, name, || Value::Counter(0)) {
            Value::Counter(c) => *c += v,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Raises the high-water gauge `name` to at least `v`.
    pub fn gauge_max(&mut self, scope: Scope, name: &str, v: u64) {
        match self.entry(scope, name, || Value::Gauge(0)) {
            Value::Gauge(g) => *g = (*g).max(v),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Records one observation in the histogram `name`.
    pub fn hist_observe(&mut self, scope: Scope, name: &str, v: u64) {
        match self.entry(scope, name, || Value::Hist(Box::new(Hist::new()))) {
            Value::Hist(h) => h.observe(v),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Folds a whole pre-aggregated histogram into `name`.
    pub fn hist_merge(&mut self, scope: Scope, name: &str, h: &Hist) {
        match self.entry(scope, name, || Value::Hist(Box::new(Hist::new()))) {
            Value::Hist(mine) => mine.merge(h),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn entry(&mut self, scope: Scope, name: &str, init: impl FnOnce() -> Value) -> &mut Value {
        self.metrics.entry((scope, name.to_owned())).or_insert_with(init)
    }

    /// Folds `other` into `self`: counters add, gauges max, histograms
    /// merge bucketwise. Panics if the same name carries different metric
    /// kinds in the two registries.
    pub fn merge(&mut self, other: &Registry) {
        for ((scope, name), value) in &other.metrics {
            match value {
                Value::Counter(v) => self.counter_add(*scope, name, *v),
                Value::Gauge(v) => self.gauge_max(*scope, name, *v),
                Value::Hist(h) => self.hist_merge(*scope, name, h),
            }
        }
    }

    /// Current value of counter `name`, if registered (any scope).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.find(name).and_then(|v| match v {
            Value::Counter(c) => Some(*c),
            _ => None,
        })
    }

    /// Current value of gauge `name`, if registered (any scope).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.find(name).and_then(|v| match v {
            Value::Gauge(g) => Some(*g),
            _ => None,
        })
    }

    /// Histogram `name`, if registered (any scope).
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        self.find(name).and_then(|v| match v {
            Value::Hist(h) => Some(h.as_ref()),
            _ => None,
        })
    }

    fn find(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|((_, n), _)| n == name).map(|(_, v)| v)
    }

    /// JSON snapshot of every metric, grouped by scope, names sorted.
    ///
    /// Histograms export `count`, `sum`, p50/p99 bucket upper bounds, and
    /// the non-empty buckets.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, scope) in [Scope::Sim, Scope::Shard, Scope::Wall].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  \"{}\": {{", scope.label());
            let mut first = true;
            for ((s, name), value) in &self.metrics {
                if s != scope {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n    \"{name}\": ");
                match value {
                    Value::Counter(v) | Value::Gauge(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Value::Hist(h) => {
                        let _ = write!(
                            out,
                            "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                            h.count(),
                            h.sum(),
                            h.quantile(50, 100),
                            h.quantile(99, 100)
                        );
                        for (j, (upper, count)) in h.nonzero_buckets().enumerate() {
                            if j > 0 {
                                out.push_str(", ");
                            }
                            let _ = write!(out, "[{upper}, {count}]");
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// JSON snapshot of one scope only (the object that scope maps to in
    /// [`render_json`](Registry::render_json)); determinism checks compare
    /// the `sim` section alone with this.
    pub fn render_scope_json(&self, scope: Scope) -> String {
        let full = self.render_json();
        // Re-render from scratch rather than substring-matching: small,
        // and keeps the two exporters trivially consistent.
        let _ = full;
        let mut out = String::from("{");
        let mut first = true;
        for ((s, name), value) in &self.metrics {
            if *s != scope {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n  \"{name}\": ");
            match value {
                Value::Counter(v) | Value::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Hist(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                        h.count(),
                        h.sum(),
                        h.quantile(50, 100),
                        h.quantile(99, 100)
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Prometheus text exposition of every metric, names sorted.
    ///
    /// Metric names are prefixed `edn_` and suffixed with their scope
    /// label (`..._sim`, `..._shard`, `..._wall`); dots become
    /// underscores. Histograms export cumulative `_bucket{le=...}` lines
    /// plus `_sum` and `_count`, per the exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for ((scope, name), value) in &self.metrics {
            let flat = name.replace('.', "_");
            let full = format!("edn_{}_{}", flat, scope.label());
            match value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {full} counter");
                    let _ = writeln!(out, "{full} {v}");
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {full} gauge");
                    let _ = writeln!(out, "{full} {v}");
                }
                Value::Hist(h) => {
                    let _ = writeln!(out, "# TYPE {full} histogram");
                    let mut cum = 0;
                    for (upper, count) in h.nonzero_buckets() {
                        cum += count;
                        let _ = writeln!(out, "{full}_bucket{{le=\"{upper}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{full}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{full}_sum {}", h.sum());
                    let _ = writeln!(out, "{full}_count {}", h.count());
                }
            }
        }
        out
    }

    /// Writes a snapshot to `path`: a `.prom` or `.txt` extension selects
    /// Prometheus text exposition, anything else gets the JSON snapshot.
    ///
    /// # Errors
    ///
    /// The I/O error of the write, unchanged.
    pub fn write_out(&self, path: &str) -> std::io::Result<()> {
        let body = if path.ends_with(".prom") || path.ends_with(".txt") {
            self.render_prometheus()
        } else {
            self.render_json()
        };
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_and_quantiles() {
        let mut h = Hist::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.quantile(1, 100), 0); // rank 1 → the zero bucket
        assert_eq!(h.quantile(50, 100), 3); // rank 4 → bucket [2,3]
        assert_eq!(h.quantile(100, 100), u64::MAX);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 1));
        assert_eq!(*buckets.last().unwrap(), (u64::MAX, 1));
    }

    #[test]
    fn merge_semantics_per_kind() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add(Scope::Sim, "events", 3);
        b.counter_add(Scope::Sim, "events", 4);
        a.gauge_max(Scope::Shard, "queue.depth_hw", 9);
        b.gauge_max(Scope::Shard, "queue.depth_hw", 7);
        a.hist_observe(Scope::Sim, "latency_us", 10);
        b.hist_observe(Scope::Sim, "latency_us", 1000);
        a.merge(&b);
        assert_eq!(a.counter("events"), Some(7));
        assert_eq!(a.gauge("queue.depth_hw"), Some(9));
        assert_eq!(a.histogram("latency_us").unwrap().count(), 2);
    }

    #[test]
    fn renders_are_deterministic_and_scoped() {
        let mut r = Registry::new();
        r.counter_add(Scope::Sim, "drops.no_rule", 2);
        r.gauge_max(Scope::Wall, "phase.pump_us", 5);
        r.hist_observe(Scope::Sim, "latency_us", 3);
        assert_eq!(r.render_json(), r.clone().render_json());
        let sim = r.render_scope_json(Scope::Sim);
        assert!(sim.contains("drops.no_rule"));
        assert!(!sim.contains("phase.pump_us"));
        let prom = r.render_prometheus();
        assert!(prom.contains("edn_drops_no_rule_sim 2"));
        assert!(prom.contains("# TYPE edn_latency_us_sim histogram"));
        assert!(prom.contains("edn_latency_us_sim_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn empty_hist_quantile_is_zero() {
        assert_eq!(Hist::new().quantile(99, 100), 0);
    }

    /// The export picks its format from the extension, and an unwritable
    /// path — here a file under a directory that does not exist — is an
    /// error value, never a panic.
    #[test]
    fn write_out_picks_the_format_and_reports_an_unwritable_path() {
        let mut r = Registry::new();
        r.counter_add(Scope::Sim, "drops.no_rule", 2);
        let dir = std::env::temp_dir().join(format!("edn-obs-write-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in [("m.prom", r.render_prometheus()), ("m.json", r.render_json())] {
            let path = dir.join(name);
            r.write_out(path.to_str().unwrap()).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), body);
        }
        let missing = dir.join("no-such-dir").join("m.json");
        let err = r.write_out(missing.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
