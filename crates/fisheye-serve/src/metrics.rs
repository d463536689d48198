//! The serving layer's observability registry.
//!
//! Sessions count admissions, frames, drops, ladder moves and pool
//! hits, and fold every engine [`FrameReport`] in. [`Registry`] is the
//! single sink: named counters, gauges and latency histograms behind
//! one lock, with a sorted [text snapshot](Registry::snapshot) as the
//! export format (the `serve-sim` CLI prints it verbatim; T5 parses
//! values out of it).
//!
//! Histograms use power-of-two microsecond buckets — 1 µs to ~1 hour
//! in 32 steps — which keeps `observe` allocation-free and gives
//! quantile estimates within 2× of the true value, plenty for the
//! p50/p99 degradation accounting the serving layer does.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use fisheye_core::engine::FrameReport;
use par_runtime::sync::Mutex;

/// Number of power-of-two µs buckets; the last one is a catch-all.
const BUCKETS: usize = 32;

/// A latency histogram: counts per power-of-two µs bucket plus exact
/// count/sum/max for means.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u128,
    max_us: u64,
}

impl Histogram {
    fn observe(&mut self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        // bucket k holds values in [2^(k-1), 2^k); 0 µs lands in bucket 0
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us += us as u128;
        self.max_us = self.max_us.max(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.sum_us / self.count as u128) as u64)
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us)
    }

    /// Fold `other`'s samples into this histogram: buckets and counts
    /// add, max takes the larger. This is what makes per-shard
    /// histograms mergeable at snapshot time without any shared lock
    /// on the observe path.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The samples recorded since `earlier` (an older copy of this
    /// same histogram): per-bucket saturating subtraction. The max is
    /// inherited from `self` — an upper bound, since the true window
    /// max is not recoverable — which keeps quantile estimates
    /// conservative. Used by the soak bench to compare an early
    /// latency window against a late one.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        for ((o, s), e) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter())
            .zip(earlier.buckets.iter())
        {
            *o = s.saturating_sub(*e);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum_us = self.sum_us.saturating_sub(earlier.sum_us);
        out.max_us = self.max_us;
        out
    }

    /// Quantile estimate (`q` in `0.0..=1.0`): the upper edge of the
    /// bucket holding the q-th sample, capped at the observed max —
    /// an overestimate by at most 2×.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if idx == 0 { 1 } else { 1u64 << idx };
                return Duration::from_micros(upper.min(self.max_us.max(1)));
            }
        }
        self.max()
    }
}

/// One named metric. The histogram is boxed so the common
/// counter/gauge entries stay word-sized in the map.
#[derive(Clone, Debug)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Histogram>),
}

/// The shared counter/gauge/histogram registry. Cheap to clone
/// (`Arc` inside); every clone feeds the same store. Thread-safe.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Apply `apply` to the metric `name`, created as `fresh()` when
    /// absent. The name is copied into the map only on creation, so an
    /// update to an existing metric allocates nothing.
    fn with_metric(
        &self,
        name: &str,
        fresh: impl FnOnce() -> Metric,
        apply: impl FnOnce(&mut Metric),
    ) {
        let mut m = self.metrics.lock();
        match m.get_mut(name) {
            Some(metric) => apply(metric),
            None => {
                let mut metric = fresh();
                apply(&mut metric);
                m.insert(name.to_string(), metric);
            }
        }
    }

    /// Add `n` to the counter `name` (created at zero on first use).
    /// If `name` currently holds a gauge or histogram the sample is
    /// dropped — a type clash is a programming error we surface in
    /// the snapshot rather than panic over.
    pub fn add(&self, name: &str, n: u64) {
        self.with_metric(
            name,
            || Metric::Counter(0),
            |m| {
                if let Metric::Counter(v) = m {
                    *v += n;
                }
            },
        );
    }

    /// Increment the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set the gauge `name` (same type-clash rule as [`Registry::add`]).
    pub fn gauge(&self, name: &str, value: f64) {
        self.with_metric(
            name,
            || Metric::Gauge(value),
            |m| {
                if let Metric::Gauge(v) = m {
                    *v = value;
                }
            },
        );
    }

    /// Record a duration sample into the histogram `name`.
    pub fn observe(&self, name: &str, d: Duration) {
        self.with_metric(
            name,
            || Metric::Histogram(Box::default()),
            |m| {
                if let Metric::Histogram(h) = m {
                    h.observe(d);
                }
            },
        );
    }

    /// Current value of a counter (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Current value of a gauge (`None` when absent).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A copy of the histogram `name` (`None` when absent).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.metrics.lock().get(name) {
            Some(Metric::Histogram(h)) => Some(h.as_ref().clone()),
            _ => None,
        }
    }

    /// Fold a [`FrameReport`] in under `prefix`: frame/row/tile/
    /// invalid-pixel counters, a latency sample, and every model
    /// key/value as a gauge.
    pub fn absorb_frame_report(&self, prefix: &str, report: &FrameReport) {
        self.inc(&format!("{prefix}.frames"));
        self.add(&format!("{prefix}.rows"), report.rows);
        self.add(&format!("{prefix}.tiles"), report.tiles);
        self.add(&format!("{prefix}.invalid_pixels"), report.invalid_pixels);
        self.observe(&format!("{prefix}.correct_us"), report.correct_time);
        for (k, v) in &report.model {
            self.gauge(&format!("{prefix}.model.{k}"), *v);
        }
    }

    /// Fold every metric of `other` into this registry: counters add,
    /// histograms [merge](Histogram::merge), gauges **add** (the
    /// useful default for per-shard totals like cache bytes or active
    /// sessions; non-additive gauges such as rates and ladder levels
    /// are the caller's to fix up after merging — see the shard
    /// layer's snapshot). Entries only in `other` are copied in.
    pub fn merge_from(&self, other: &Registry) {
        let theirs = other.metrics.lock().clone();
        let mut ours = self.metrics.lock();
        for (name, metric) in theirs {
            match ours.entry(name) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(metric);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), metric) {
                        (Metric::Counter(v), Metric::Counter(o)) => *v += o,
                        (Metric::Gauge(v), Metric::Gauge(o)) => *v += o,
                        (Metric::Histogram(h), Metric::Histogram(o)) => h.merge(&o),
                        // type clash: keep ours, same rule as add/gauge
                        _ => {}
                    }
                }
            }
        }
    }

    /// Sorted plain-text snapshot, one metric per line:
    ///
    /// ```text
    /// serve.admitted counter 8
    /// serve.degrade.level gauge 2
    /// serve.latency_us histogram count=960 mean_us=812 p50_us=1024 p99_us=4096 max_us=3977
    /// ```
    pub fn snapshot(&self) -> String {
        let m = self.metrics.lock();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name} counter {v}");
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "{name} gauge {v}");
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name} histogram count={} mean_us={} p50_us={} p99_us={} max_us={}",
                        h.count(),
                        h.mean().as_micros(),
                        h.quantile(0.5).as_micros(),
                        h.quantile(0.99).as_micros(),
                        h.max().as_micros(),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let r = Registry::new();
        r.inc("a.frames");
        r.add("a.frames", 4);
        r.gauge("a.level", 2.0);
        r.observe("a.lat", Duration::from_micros(900));
        r.observe("a.lat", Duration::from_micros(1100));
        assert_eq!(r.counter("a.frames"), 5);
        assert_eq!(r.gauge_value("a.level"), Some(2.0));
        let h = r.histogram("a.lat").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert!(h.mean() >= Duration::from_micros(900));
        let snap = r.snapshot();
        assert!(snap.contains("a.frames counter 5"), "{snap}");
        assert!(snap.contains("a.level gauge 2"), "{snap}");
        assert!(snap.contains("a.lat histogram count=2"), "{snap}");
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let r = Registry::new();
        for us in [100u64, 200, 400, 800, 10_000] {
            r.observe("lat", Duration::from_micros(us));
        }
        let h = r.histogram("lat").expect("histogram exists");
        let p50 = h.quantile(0.5).as_micros() as u64;
        let p99 = h.quantile(0.99).as_micros() as u64;
        assert!((200..=512).contains(&p50), "p50 {p50}");
        assert!(p99 >= 800, "p99 {p99}");
        assert!(p99 <= h.max().as_micros() as u64 * 2, "p99 {p99}");
        assert_eq!(h.max(), Duration::from_micros(10_000));
    }

    #[test]
    fn type_clash_drops_sample_instead_of_panicking() {
        let r = Registry::new();
        r.inc("x");
        r.observe("x", Duration::from_micros(5));
        r.gauge("x", 1.0); // gauge overwrites are allowed only on gauges
        assert_eq!(r.counter("x"), 1);
    }

    #[test]
    fn absorb_frame_report_flattens_model_kvs() {
        let r = Registry::new();
        let mut report = FrameReport::new("gpu");
        report.rows = 96;
        report.correct_time = Duration::from_micros(700);
        report.model.insert("model_fps".into(), 123.0);
        r.absorb_frame_report("serve.engine", &report);
        assert_eq!(r.counter("serve.engine.frames"), 1);
        assert_eq!(r.counter("serve.engine.rows"), 96);
        assert_eq!(r.gauge_value("serve.engine.model.model_fps"), Some(123.0));
    }

    #[test]
    fn merge_from_adds_counters_and_buckets() {
        let a = Registry::new();
        let b = Registry::new();
        a.add("n", 3);
        b.add("n", 4);
        b.inc("only_b");
        a.gauge("bytes", 100.0);
        b.gauge("bytes", 50.0);
        a.observe("lat", Duration::from_micros(100));
        b.observe("lat", Duration::from_micros(10_000));
        a.merge_from(&b);
        assert_eq!(a.counter("n"), 7);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge_value("bytes"), Some(150.0));
        let h = a.histogram("lat").expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Duration::from_micros(10_000));
        // b is untouched
        assert_eq!(b.counter("n"), 4);
    }

    #[test]
    fn diff_isolates_the_late_window() {
        let r = Registry::new();
        r.observe("lat", Duration::from_micros(100));
        let early = r.histogram("lat").expect("histogram");
        for _ in 0..10 {
            r.observe("lat", Duration::from_micros(5_000));
        }
        let late = r.histogram("lat").expect("histogram").diff(&early);
        assert_eq!(late.count(), 10);
        let p50 = late.quantile(0.5).as_micros() as u64;
        assert!(
            p50 >= 4096,
            "late window p50 {p50} must ignore the early sample"
        );
    }

    #[test]
    fn shared_clones_feed_one_store() {
        let r = Registry::new();
        let r2 = r.clone();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.inc("n");
                    }
                })
            })
            .collect();
        for t in threads {
            let _ = t.join();
        }
        assert_eq!(r2.counter("n"), 4000);
    }
}
