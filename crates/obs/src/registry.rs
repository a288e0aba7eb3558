//! The metrics sink: named counters, gauges, and histograms behind one
//! mutex, plus the span ring buffers and the `tm-metrics/v1` JSON writer.
//!
//! Names are `&'static str` by design: the instrumentation vocabulary is
//! fixed at compile time, map keys cost nothing to intern, and snapshots
//! iterate in `BTreeMap` order so the JSON document is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::histogram::Histogram;
use crate::span::{SpanRecord, SpanRing, RING_CAPACITY, RING_SHARDS};
use crate::METRICS_SCHEMA;

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    /// Counters added inside [`crate::scheduling_dependent`].
    sched_counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The process-wide observability sink an enabled
/// [`ObsHandle`](crate::ObsHandle) points at.
pub struct ObsSink {
    /// Creation time — span timestamps are microseconds since this instant.
    t0: Instant,
    metrics: Mutex<Metrics>,
    /// Span rings sharded by thread id, so concurrent workers rarely
    /// contend on one ring lock.
    rings: Vec<Mutex<SpanRing>>,
    /// Spans lost to ring overflow.
    dropped: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ObsSink {
    pub(crate) fn new() -> Self {
        ObsSink {
            t0: Instant::now(),
            metrics: Mutex::new(Metrics::default()),
            rings: (0..RING_SHARDS)
                .map(|_| Mutex::new(SpanRing::new(RING_CAPACITY)))
                .collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Creation time of the sink (span timestamps are relative to this).
    pub fn t0(&self) -> Instant {
        self.t0
    }

    pub(crate) fn counter_add(&self, name: &'static str, n: u64, sched: bool) {
        let mut m = lock(&self.metrics);
        let map = if sched {
            &mut m.sched_counters
        } else {
            &mut m.counters
        };
        let c = map.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    }

    pub(crate) fn gauge_set(&self, name: &'static str, v: u64) {
        lock(&self.metrics).gauges.insert(name, v);
    }

    pub(crate) fn observe(&self, name: &'static str, v: u64) {
        lock(&self.metrics)
            .histograms
            .entry(name)
            .or_default()
            .record(v);
    }

    pub(crate) fn push_span(&self, record: SpanRecord) {
        let ring = &self.rings[(record.tid as usize) % self.rings.len()];
        if !lock(ring).push(record) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = self
            .rings
            .iter()
            .flat_map(|r| lock(r).records().to_vec())
            .collect();
        // Open order breaks microsecond timestamp ties, so an enclosing
        // span sorts before the spans it contains.
        all.sort_by_key(|s| (s.ts_us, s.seq));
        all
    }

    pub(crate) fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        let m = lock(&self.metrics);
        Snapshot {
            counters: m.counters.clone(),
            sched_counters: m.sched_counters.clone(),
            gauges: m.gauges.clone(),
            histograms: m.histograms.clone(),
        }
    }
}

/// A point-in-time copy of every metric in a sink, iterable in
/// deterministic (name) order and renderable as `tm-metrics/v1` JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    sched_counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// The value of the deterministic counter `name`, if it was ever
    /// touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of the scheduling-dependent counter `name` (counted inside
    /// [`crate::scheduling_dependent`]), if it was ever touched.
    pub fn scheduling_dependent_counter(&self, name: &str) -> Option<u64> {
        self.sched_counters.get(name).copied()
    }

    /// The value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if it ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Renders the snapshot as a `tm-metrics/v1` JSON document: a stable
    /// schema tag, then `counters` (deterministic), `gauges` and
    /// `scheduling_dependent_counters` as flat objects and each
    /// histogram as `{count, sum, p50, p95, p99, buckets: [[index, n], …]}`
    /// (sparse buckets). Deterministic: names iterate in order and nothing
    /// depends on wall-clock time.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"schema\": \"");
        out.push_str(METRICS_SCHEMA);
        out.push_str("\",\n  \"counters\": {");
        push_map(&mut out, self.counters());
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, self.gauges());
        out.push_str("},\n  \"scheduling_dependent_counters\": {");
        push_map(&mut out, self.sched_counters.iter().map(|(&k, &v)| (k, v)));
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(name);
            out.push_str("\": {\"count\": ");
            out.push_str(&h.count().to_string());
            out.push_str(", \"sum\": ");
            out.push_str(&h.sum().to_string());
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                out.push_str(", \"");
                out.push_str(label);
                out.push_str("\": ");
                out.push_str(&h.quantile(q).to_string());
            }
            out.push_str(", \"buckets\": [");
            for (j, (idx, n)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{idx}, {n}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    for (i, (name, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        out.push_str(name);
        out.push_str("\": ");
        out.push_str(&v.to_string());
    }
}

#[cfg(test)]
mod tests {
    use crate::ObsHandle;

    #[test]
    fn snapshot_json_is_deterministic_and_tagged() {
        let obs = ObsHandle::install();
        obs.counter_add("b.two", 2);
        obs.counter_add("a.one", 1);
        obs.gauge_set("g", 3);
        obs.observe("lat", 5);
        obs.observe("lat", 9);
        let json = obs.snapshot().unwrap().to_json();
        assert!(json.contains("\"schema\": \"tm-metrics/v1\""), "{json}");
        // Counter names are emitted in sorted order.
        let a = json.find("a.one").unwrap();
        let b = json.find("b.two").unwrap();
        assert!(a < b, "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"sum\": 14"), "{json}");
        assert_eq!(json, obs.snapshot().unwrap().to_json());
    }

    #[test]
    fn empty_snapshot_still_renders() {
        let obs = ObsHandle::install();
        let json = obs.snapshot().unwrap().to_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
    }

    #[test]
    fn many_threads_fold_into_one_registry() {
        let obs = ObsHandle::install();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..250 {
                        obs.counter_add("hits", 1);
                        obs.observe("lat", 4);
                    }
                });
            }
        });
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("hits"), Some(1000));
        assert_eq!(snap.histogram("lat").unwrap().count(), 1000);
    }
}
