//! Per-run metrics registry: catalogued counters, gauges and
//! log-bucketed histograms.
//!
//! Components record through typed [`Metric`] handles (usually via
//! [`crate::Sim::record`], which also feeds the timeline). Each handle
//! owns one slot, so a record is a vector index. The experiment layer
//! reads values back by handle or by name, or dumps the whole registry as
//! deterministic plain text. Recording is passive — it never schedules
//! events or touches the RNG — so enabling metrics cannot change
//! simulation results.
//!
//! The registry is off by default; every recording call returns after one
//! branch when disabled.

use crate::catalog::{strip_node_prefix, Metric, Sinks, METRICS};
use std::collections::BTreeMap;

/// Log-bucketed histogram of `u64` values (latencies in ns, sizes in
/// bytes, queue depths).
///
/// Bucket 0 holds the value 0; bucket `i` (i ≥ 1) holds values in
/// `[2^(i-1), 2^i)`. Quantiles are estimated by linear interpolation of
/// the target rank inside its bucket, clamped to the exactly-tracked
/// minimum and maximum, so `quantile(1.0)` is always the true max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// New empty histogram (65 buckets cover the full `u64` range).
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_for(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 1,
            64 => u64::MAX,
            _ => 1u64 << i,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_for(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimated q-quantile (`0.0..=1.0`), `None` when empty.
    ///
    /// Finds the bucket holding the nearest-rank sample, then linearly
    /// interpolates the rank's position across the bucket's value range;
    /// the estimate is clamped to the true `[min, max]`, and the extreme
    /// quantiles are exact: `quantile(0.0)` is the true minimum and
    /// `quantile(1.0)` the true maximum (interpolation alone could land
    /// mid-bucket below the max when the edge bucket holds several
    /// samples).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min as f64);
        }
        if q == 1.0 {
            return Some(self.max as f64);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = Self::bucket_lower(i) as f64;
                let width = (Self::bucket_upper(i) - Self::bucket_lower(i)) as f64;
                // Position of the rank inside this bucket, mid-sample.
                let frac = (rank - seen) as f64 - 0.5;
                let est = lower + width * (frac / c as f64);
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            seen += c;
        }
        Some(self.max as f64)
    }

    /// Median estimate (`quantile(0.5)`), 0.0 when empty.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }

    /// 95th-percentile estimate, 0.0 when empty.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95).unwrap_or(0.0)
    }

    /// 99th-percentile estimate, 0.0 when empty.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99).unwrap_or(0.0)
    }

    /// Fold another histogram into this one (bucket-wise addition; min,
    /// max, count and sum combine exactly).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(inclusive lower, exclusive upper, count)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower(i), Self::bucket_upper(i), c))
            .collect()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The registry state of one catalogued [`Metric`].
#[derive(Debug, Clone, Default, PartialEq)]
struct Slot {
    /// Whether the handle was ever recorded (a counter recorded with 0
    /// is still listed).
    touched: bool,
    /// Counter total or gauge level (no handle is both).
    value: u64,
    /// Gauge peak.
    peak: u64,
    histogram: Option<LogHistogram>,
}

/// The per-run metrics registry.
///
/// One instance lives on every [`crate::Sim`] (`sim.metrics`). Besides
/// the one slot per catalogued handle, it holds per-node counter
/// snapshots ([`Metrics::record_node`]) that read and dump as
/// `n<idx>.<name>`. Every listing is in name order, so [`Metrics::dump`]
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    enabled: bool,
    /// Indexed by [`Metric::slot`]; sized to the catalog when enabled.
    slots: Vec<Slot>,
    /// Per-node counter snapshots keyed by `(node, handle)`, each with
    /// its `n<idx>.` display name.
    nodes: BTreeMap<(u32, Metric), (String, u64)>,
}

impl Metrics {
    /// A registry that records nothing (the default on a fresh `Sim`).
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// A recording registry.
    pub fn enabled() -> Self {
        Metrics {
            enabled: true,
            slots: vec![Slot::default(); METRICS.len()],
            nodes: BTreeMap::new(),
        }
    }

    /// Whether recording calls have any effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Send `v` to each registry sink `m` declares: a counter adds it, a
    /// gauge takes it as its level (tracking the peak), a histogram
    /// records it. Timeline sinks are the
    /// [`crate::timeseries::TimelineRecorder`]'s business.
    #[inline]
    pub fn record(&mut self, m: Metric, v: u64) {
        if !self.enabled {
            return;
        }
        let sinks = m.sinks();
        let slot = &mut self.slots[m.slot()];
        slot.touched = true;
        if sinks.has(Sinks::COUNTER) {
            slot.value += v;
        }
        if sinks.has(Sinks::GAUGE) {
            slot.value = v;
            slot.peak = slot.peak.max(v);
        }
        if sinks.has(Sinks::HISTOGRAM) {
            slot.histogram
                .get_or_insert_with(LogHistogram::new)
                .record(v);
        }
    }

    /// Add `v` to node `node`'s snapshot of counter `m`, listed as
    /// `n<node>.<name>`. A no-op for handles without a counter sink.
    pub fn record_node(&mut self, m: Metric, node: u32, v: u64) {
        if !self.enabled || !m.sinks().has(Sinks::COUNTER) {
            return;
        }
        self.nodes
            .entry((node, m))
            .or_insert_with(|| (format!("n{node}.{}", m.name()), 0))
            .1 += v;
    }

    /// Counter `m` (0 when never recorded).
    pub fn count(&self, m: Metric) -> u64 {
        match self.slots.get(m.slot()) {
            Some(s) if m.sinks().has(Sinks::COUNTER) => s.value,
            _ => 0,
        }
    }

    /// Highest value gauge `m` ever held (0 when never recorded).
    pub fn peak(&self, m: Metric) -> u64 {
        self.slots.get(m.slot()).map_or(0, |s| s.peak)
    }

    /// The handle named `name` (no node prefix).
    fn lookup(name: &str) -> Option<Metric> {
        let i = METRICS.binary_search_by(|d| d.name.cmp(name)).ok()?;
        Metric::all().nth(i)
    }

    /// Counter by name, `n<idx>.`-prefixed for a node snapshot (0 when
    /// absent).
    pub fn counter(&self, name: &str) -> u64 {
        let base = strip_node_prefix(name);
        let Some(m) = Self::lookup(base) else {
            return 0;
        };
        if base.len() == name.len() {
            return self.count(m);
        }
        let node = name[1..name.len() - base.len() - 1].parse().ok();
        node.and_then(|n| self.nodes.get(&(n, m)))
            .map_or(0, |&(_, v)| v)
    }

    /// Highest value the gauge `name` ever held (0 when absent). Gauges
    /// have no per-node snapshots, so this is the peak of that one gauge.
    pub fn max_gauge_peak(&self, name: &str) -> u64 {
        Self::lookup(name).map_or(0, |m| self.peak(m))
    }

    /// Histogram by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.slots
            .get(Self::lookup(name)?.slot())?
            .histogram
            .as_ref()
    }

    /// Recorded slots declaring `sink`, in name order.
    fn with_sink(&self, sink: Sinks) -> impl Iterator<Item = (Metric, &Slot)> {
        Metric::all()
            .zip(&self.slots)
            .filter(move |(m, s)| s.touched && m.sinks().has(sink))
    }

    /// All counters, node snapshots included, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .with_sink(Sinks::COUNTER)
            .map(|(m, s)| (m.name(), s.value))
            .chain(self.nodes.values().map(|(n, x)| (n.as_str(), *x)))
            .collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v.into_iter()
    }

    /// Deterministic plain-text dump of the whole registry.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let counters: Vec<(&str, u64)> = self.counters().collect();
        if !counters.is_empty() {
            out.push_str("# counters\n");
            for (n, v) in counters {
                out.push_str(&format!("{n} {v}\n"));
            }
        }
        let gauges: Vec<_> = self.with_sink(Sinks::GAUGE).collect();
        if !gauges.is_empty() {
            out.push_str("# gauges (current peak)\n");
            for (m, s) in gauges {
                out.push_str(&format!("{} {} {}\n", m.name(), s.value, s.peak));
            }
        }
        let hists: Vec<_> = self
            .with_sink(Sinks::HISTOGRAM)
            .filter_map(|(m, s)| Some((m, s.histogram.as_ref()?)))
            .collect();
        if !hists.is_empty() {
            out.push_str("# histograms (count mean p50 p95 p99 max)\n");
            for (m, h) in hists {
                out.push_str(&format!(
                    "{} {} {:.1} {:.1} {:.1} {:.1} {}\n",
                    m.name(),
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max().unwrap_or(0),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::*;

    #[test]
    fn bucket_boundaries() {
        let mut h = LogHistogram::new();
        // 0 -> bucket 0; 1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8);
        // 1500 -> [1024,2048).
        for v in [0u64, 1, 2, 3, 4, 1500] {
            h.record(v);
        }
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1, 1), (1, 2, 1), (2, 4, 2), (4, 8, 1), (1024, 2048, 1)]
        );
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1500));
        assert!((h.mean() - 1510.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.record(1000); // all in bucket [512, 1024)
        }
        // Every sample is 1000: quantile estimates interpolate inside the
        // [512, 1024) bucket but clamp to the exact min/max of 1000.
        assert_eq!(h.quantile(0.0), Some(1000.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        assert_eq!(h.p50(), 1000.0);

        // Spread across two buckets: the median must fall in the lower
        // bucket's range and interpolation must be monotone in q.
        let mut h = LogHistogram::new();
        for _ in 0..50 {
            h.record(10); // [8, 16)
        }
        for _ in 0..50 {
            h.record(100); // [64, 128)
        }
        let p25 = h.quantile(0.25).unwrap();
        let p50 = h.quantile(0.5).unwrap();
        let p75 = h.quantile(0.75).unwrap();
        assert!((10.0..16.0).contains(&p25), "p25={p25}");
        assert!(p25 <= p50 && p50 <= p75, "{p25} {p50} {p75}");
        assert!((64.0..=100.0).contains(&p75), "p75={p75}");
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn merge_combines_exactly() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [1u64, 5, 9] {
            a.record(v);
        }
        for v in [0u64, 700] {
            b.record(v);
        }
        let mut all = LogHistogram::new();
        for v in [1u64, 5, 9, 0, 700] {
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(700));
        assert_eq!(a.sum(), 715);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = Metrics::disabled();
        m.record(CLIC_RETRANSMITS, 1);
        m.record(ETH_SWITCH_QUEUE_DEPTH, 5);
        m.record_node(OS_IRQS, 0, 3);
        assert!(!m.is_enabled());
        assert_eq!(m.counter("clic.retransmits"), 0);
        assert_eq!(m.max_gauge_peak("eth.switch.queue_depth"), 0);
        assert!(m.histogram("eth.switch.queue_depth").is_none());
        assert!(m.dump().is_empty());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = Metrics::enabled();
        m.record(CLIC_RETRANSMITS, 1);
        m.record(CLIC_RETRANSMITS, 2);
        for v in [3, 7, 2] {
            m.record(ETH_SWITCH_QUEUE_DEPTH, v);
        }
        assert_eq!(m.count(CLIC_RETRANSMITS), 3);
        assert_eq!(m.counter("clic.retransmits"), 3);
        assert_eq!(m.peak(ETH_SWITCH_QUEUE_DEPTH), 7);
        assert_eq!(m.max_gauge_peak("eth.switch.queue_depth"), 7);
        assert_eq!(m.histogram("eth.switch.queue_depth").unwrap().count(), 3);
        assert!(m.dump().contains("eth.switch.queue_depth 2 7\n"));
    }

    #[test]
    fn interned_and_string_paths_share_series() {
        // A handle write and a by-name read see one series, listed once.
        let mut m = Metrics::enabled();
        m.record(CLIC_RETRANSMITS, 2);
        m.record(CLIC_RETRANSMITS, 3);
        m.record(ETH_SWITCH_QUEUE_DEPTH, 9);
        m.record(ETH_SWITCH_QUEUE_DEPTH, 4);
        assert_eq!(m.counter("clic.retransmits"), 5);
        assert_eq!(m.max_gauge_peak("eth.switch.queue_depth"), 9);
        assert_eq!(m.histogram("eth.switch.queue_depth").unwrap().count(), 2);
        assert_eq!(m.dump().matches("clic.retransmits").count(), 1);
    }

    #[test]
    fn node_snapshots_read_and_list_under_their_prefix() {
        let mut m = Metrics::enabled();
        m.record(OS_IRQS, 1);
        m.record_node(OS_IRQS, 0, 2);
        m.record_node(OS_IRQS, 0, 3); // a second device on node 0 adds
        m.record_node(OS_IRQS, 10, 0);
        m.record_node(OS_IRQS, 2, 4);
        m.record_node(ETH_SWITCH_QUEUE_DEPTH, 0, 9); // no counter sink
        assert_eq!(m.counter("os.irqs"), 1);
        assert_eq!(m.counter("n0.os.irqs"), 5);
        assert_eq!(m.counter("n2.os.irqs"), 4);
        assert_eq!(m.counter("n3.os.irqs"), 0);
        assert_eq!(m.counter("n0.eth.switch.queue_depth"), 0);
        // Name order, and a snapshot at 0 is still listed.
        let names: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(
            names,
            vec![
                ("n0.os.irqs", 5),
                ("n10.os.irqs", 0),
                ("n2.os.irqs", 4),
                ("os.irqs", 1)
            ]
        );
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let mut m = Metrics::enabled();
        m.record(OS_SYSCALLS, 1);
        m.record(CLIC_DROPS_OOO, 0);
        m.record(CLIC_CWND, 4);
        m.record(HW_MEM_COPY_BYTES, 100);
        let d = m.dump();
        assert_eq!(d, m.clone().dump());
        assert_eq!(
            d,
            "# counters\nclic.drops.ooo 0\nos.syscalls 1\n\
             # gauges (current peak)\nclic.cwnd 4 4\n\
             # histograms (count mean p50 p95 p99 max)\n\
             hw.mem.copy_bytes 1 100.0 100.0 100.0 100.0 100\n"
        );
    }
}
