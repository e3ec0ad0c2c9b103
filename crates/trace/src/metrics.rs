//! A registry of named counters, gauges and histograms.
//!
//! The simulator's statistics were scattered across subsystems — the
//! ledger's per-op stats, the fault subsystem's counters, the
//! adapter's drop count, the VM's structural state. The registry
//! unifies them behind one interface with a deterministic JSON dump:
//! entries are kept in a `BTreeMap`, so iteration (and the JSON) is
//! sorted by name regardless of insertion order.

use std::collections::BTreeMap;

use crate::json::{Layout, Writer};

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` (bucket 0 counts
/// zeros and ones). Fixed shape keeps recording allocation-free and
/// the JSON deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[b.min(63)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one (bucket-wise sum; min and
    /// max widen). The rollup layer uses this to aggregate per-host
    /// and per-VC distributions.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Approximate quantile (`q` in `[0, 1]`): the exclusive upper
    /// bound of the bucket holding the q-th sample, clamped to the
    /// observed max. Bucket resolution is a power of two, so this is
    /// an upper estimate within 2x — adequate for rollup reporting
    /// (exact per-sample quantiles live in the suites' distributions).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    fn write_json(&self, w: &mut Writer) {
        w.object(Layout::Line).key("type").str("histogram");
        w.key("count").num(self.count).key("sum").num(self.sum);
        w.key("min").num(self.min).key("max").num(self.max);
        w.key("buckets").object(Layout::Line);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            // Keyed by the bucket's exclusive upper bound.
            let upper = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
            w.key(&upper.to_string()).num(n);
        }
        w.end().end();
    }
}

/// A metric value. The histogram is boxed so the common counter/gauge
/// entries stay small.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A sample distribution.
    Histogram(Box<Histogram>),
}

/// A named collection of metrics with deterministic ordering.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `v` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, v: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += v,
            other => *other = Metric::Counter(v),
        }
    }

    /// Sets the counter `name` to `v`.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.entries.insert(name.to_string(), Metric::Counter(v));
    }

    /// Sets the gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.entries.insert(name.to_string(), Metric::Gauge(v));
    }

    /// Inserts a histogram under `name`.
    pub fn set_histogram(&mut self, name: &str, h: Histogram) {
        self.entries
            .insert(name.to_string(), Metric::Histogram(Box::new(h)));
    }

    /// Looks up a metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// The histogram under `name`, or `None` if absent or a different
    /// metric type. Tests use this to check rollup identities (a
    /// rolled-up histogram's count must equal the sum of its members').
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.entries.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The counter's value, or 0 if absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The rollup layer: aggregates every metric named
    /// `{group}<id>.{rest}` — where `<id>` is a maximal run of
    /// alphanumerics followed by a dot — into `{out}.{rest}` (counters
    /// sum, gauges sum, histograms merge), plus `{out}.members`
    /// counting the distinct ids seen. Used to collapse
    /// `host_3.busy_us` into `rollup.host.busy_us` and
    /// `switch.port_2.depth` into `rollup.port.depth` at fabric scale,
    /// where per-instance keys are too many to read. Returns the
    /// number of metrics rolled up.
    pub fn rollup(&mut self, group: &str, out: &str) -> usize {
        let mut rolled: BTreeMap<String, Metric> = BTreeMap::new();
        let mut members: std::collections::BTreeSet<String> = Default::default();
        let mut n = 0usize;
        for (name, m) in self.entries.iter() {
            let Some(tail) = name.strip_prefix(group) else {
                continue;
            };
            let id_len = tail
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .count();
            if id_len == 0 || !tail[id_len..].starts_with('.') {
                continue;
            }
            let (id, rest) = (&tail[..id_len], &tail[id_len + 1..]);
            members.insert(id.to_string());
            n += 1;
            let key = format!("{out}.{rest}");
            match (
                rolled.entry(key).or_insert_with(|| match m {
                    Metric::Counter(_) => Metric::Counter(0),
                    Metric::Gauge(_) => Metric::Gauge(0.0),
                    Metric::Histogram(_) => Metric::Histogram(Box::default()),
                }),
                m,
            ) {
                (Metric::Counter(acc), Metric::Counter(v)) => *acc += v,
                (Metric::Gauge(acc), Metric::Gauge(v)) => *acc += v,
                (Metric::Histogram(acc), Metric::Histogram(h)) => acc.merge(h),
                // Mixed types under one rolled-up key: keep the first.
                _ => {}
            }
        }
        if n > 0 {
            rolled.insert(
                format!("{out}.members"),
                Metric::Counter(members.len() as u64),
            );
        }
        self.entries.extend(rolled);
        n
    }

    /// Writes the registry as one pretty JSON object, keys sorted.
    pub fn write_json(&self, w: &mut Writer) {
        w.object(Layout::Pretty);
        for (name, m) in &self.entries {
            w.key(name);
            match m {
                Metric::Counter(c) => {
                    w.num(c);
                }
                // Gauges carry simulated microseconds and ratios; six
                // fractional digits is exact for the former and ample
                // for the latter, and keeps the format deterministic.
                Metric::Gauge(g) => {
                    w.num(format_args!("{g:.6}"));
                }
                Metric::Histogram(h) => h.write_json(w),
            }
        }
        w.end();
    }

    /// The registry as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(2);
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.add("copies", 2);
        r.add("copies", 3);
        r.set_counter("wires", 7);
        assert_eq!(r.counter("copies"), 5);
        assert_eq!(r.counter("wires"), 7);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn json_is_sorted_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("z.ratio", 0.5);
        r.add("a.count", 1);
        let j = r.to_json();
        let a = j.find("a.count").unwrap();
        let z = j.find("z.ratio").unwrap();
        assert!(a < z, "{j}");
        assert!(j.contains("\"z.ratio\": 0.500000"));
        assert_eq!(j, r.clone().to_json());
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.max(), 1000);
        let mut w = Writer::new(0);
        h.write_json(&mut w);
        let j = w.finish();
        // 0 and 1 land in the first bucket (upper bound 2); 2 and 3 in
        // the next (4); 4 in (8); 1000 in (1024).
        assert!(j.contains("\"2\":2"), "{j}");
        assert!(j.contains("\"4\":2"), "{j}");
        assert!(j.contains("\"8\":1"), "{j}");
        assert!(j.contains("\"1024\":1"), "{j}");
    }

    #[test]
    fn histogram_merge_and_quantile() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 2, 3, 4] {
            a.record(v);
        }
        for v in [100, 200] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), 310);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 200);
        // p50 of {1,2,3,4,100,200} lands in the [2,4) bucket.
        assert_eq!(a.quantile(0.5), 4);
        assert_eq!(a.quantile(1.0), 200);
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn rollup_aggregates_per_instance_groups() {
        let mut r = MetricsRegistry::new();
        r.set_counter("host_0.busy_us", 10);
        r.set_counter("host_1.busy_us", 32);
        r.set_gauge("host_0.clock_us", 1.5);
        r.set_gauge("host_1.clock_us", 2.5);
        let mut h = Histogram::new();
        h.record(7);
        r.set_histogram("host_0.depth", h.clone());
        r.set_histogram("host_1.depth", h);
        r.set_counter("host_a.busy_us", 99); // letter ids roll up too
        r.set_counter("host_0", 5); // no dot after the id: skipped
        let n = r.rollup("host_", "rollup.host");
        assert_eq!(n, 7);
        assert_eq!(r.counter("rollup.host.busy_us"), 141);
        assert_eq!(r.counter("rollup.host.members"), 3);
        match r.get("rollup.host.clock_us") {
            Some(Metric::Gauge(g)) => assert!((g - 4.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        match r.get("rollup.host.depth") {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn histogram_in_registry_renders_inline() {
        let mut h = Histogram::new();
        h.record(5);
        let mut r = MetricsRegistry::new();
        r.set_histogram("depth", h);
        let j = r.to_json();
        assert!(j.contains("\"depth\": {\"type\":\"histogram\""), "{j}");
    }
}
