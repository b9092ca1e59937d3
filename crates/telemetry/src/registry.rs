//! The process-wide metrics registry: named counters, gauges, and log2
//! histograms, plus the `lsqca-metrics-v1` snapshot/merge layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use lsqca_json::Json;

/// Schema tag carried by every serialized [`MetricsSnapshot`].
pub const METRICS_SCHEMA: &str = "lsqca-metrics-v1";

/// Number of log2 histogram buckets: bucket 0 for the value 0, buckets
/// 1..=64 for `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log2 bucket index of `value`: 0 maps to bucket 0, any other `v` to
/// `64 - v.leading_zeros()` (so bucket `i >= 1` covers `[2^(i-1), 2^i)`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `index` (0 for buckets 0 and 1 is split:
/// bucket 0 holds exactly 0, bucket 1 starts at 1).
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the counter with an absolute value. Used by layers that
    /// keep their own per-instance atomics (the result store)
    /// and sync the process-wide total into the registry at snapshot time.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge (heartbeat lag, backoff state, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed log2 buckets (see [`bucket_index`]), with an exact
/// running sum and count alongside.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records `n` observations of `value` at once (bulk flush from a local,
    /// non-atomic histogram — the beat-attribution hook uses this).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Merges a whole bucket at once, preserving the exact foreign sum.
    pub fn merge_bucket(&self, index: usize, count: u64, sum: u64) {
        self.buckets[index.min(HISTOGRAM_BUCKETS - 1)].fetch_add(count, Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Absorbs a local, non-atomic bucket array plus its exact value sum in
    /// one pass — how hot loops flush per-run histograms without paying an
    /// atomic per observation.
    pub fn absorb(&self, buckets: &[u64], sum: u64) {
        let mut count = 0u64;
        for (index, &n) in buckets.iter().take(HISTOGRAM_BUCKETS).enumerate() {
            if n != 0 {
                self.buckets[index].fetch_add(n, Ordering::Relaxed);
                count += n;
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Freezes the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: trailing zero buckets are trimmed, so
/// `buckets.len() <= 65`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts (log2 buckets, trailing zeros trimmed).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Bucket-wise merge of another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    let mut map = map.lock().unwrap();
    if let Some(handle) = map.get(name) {
        return handle;
    }
    let handle: &'static T = Box::leak(Box::new(T::default()));
    map.insert(name.to_string(), handle);
    handle
}

/// Interns (or retrieves) the counter named `name`. Handles are `'static`:
/// resolve once, then bump with plain relaxed atomics.
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name)
}

/// Interns (or retrieves) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name)
}

/// Interns (or retrieves) the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name)
}

/// Freezes every registered metric into a [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        counters: reg
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect(),
        gauges: reg
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect(),
        histograms: reg
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect(),
    }
}

/// Malformed `lsqca-metrics-v1` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsError(pub String);

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {METRICS_SCHEMA} document: {}", self.0)
    }
}

impl std::error::Error for MetricsError {}

/// A frozen, mergeable view of the registry — the unit that crosses process
/// boundaries as `metrics-<shard>.json` and lands in `--metrics-out`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Log2 histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters and histograms are summed
    /// (cross-process totals), gauges are namespaced under `gauge_prefix`
    /// (pass `""` to keep names; a later write wins on collision) — a
    /// supervisor absorbing `metrics-3.json` passes `"shard.3."` so worker
    /// gauges stay distinguishable.
    pub fn absorb(&mut self, other: &MetricsSnapshot, gauge_prefix: &str) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(format!("{gauge_prefix}{name}"), *value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Renders the snapshot as a `lsqca-metrics-v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(METRICS_SCHEMA.to_string())),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::U64(*value))),
                ),
            ),
            (
                "gauges",
                Json::obj(
                    self.gauges
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::I64(*value))),
                ),
            ),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(name, hist)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("count", Json::U64(hist.count)),
                            ("sum", Json::U64(hist.sum)),
                            (
                                "buckets",
                                Json::Arr(hist.buckets.iter().map(|b| Json::U64(*b)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Decodes a `lsqca-metrics-v1` document, rejecting wrong schemas,
    /// missing sections, unknown keys, and malformed values — a corrupt
    /// shard metrics file must fail loudly here so the aggregator can warn
    /// and skip it rather than fold garbage into the totals.
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, MetricsError> {
        let Json::Obj(pairs) = json else {
            return Err(MetricsError("not an object".to_string()));
        };
        let mut snapshot = MetricsSnapshot::default();
        let mut seen_schema = false;
        let mut seen = [false; 3];
        for (key, value) in pairs {
            match key.as_str() {
                "schema" => {
                    seen_schema = true;
                    if value.as_str() != Some(METRICS_SCHEMA) {
                        return Err(MetricsError(format!(
                            "schema is {}, expected \"{METRICS_SCHEMA}\"",
                            value.compact()
                        )));
                    }
                }
                "counters" => {
                    seen[0] = true;
                    snapshot.counters = decode_map(value, "counters", |v| {
                        v.as_u64().ok_or("expected a non-negative integer")
                    })?;
                }
                "gauges" => {
                    seen[1] = true;
                    snapshot.gauges =
                        decode_map(value, "gauges", |v| v.as_i64().ok_or("expected an integer"))?;
                }
                "histograms" => {
                    seen[2] = true;
                    snapshot.histograms = decode_map(value, "histograms", decode_histogram)?;
                }
                other => {
                    return Err(MetricsError(format!("unknown key {other:?}")));
                }
            }
        }
        if !seen_schema {
            return Err(MetricsError("missing \"schema\"".to_string()));
        }
        for (idx, section) in ["counters", "gauges", "histograms"].iter().enumerate() {
            if !seen[idx] {
                return Err(MetricsError(format!("missing \"{section}\"")));
            }
        }
        Ok(snapshot)
    }
}

fn decode_map<T>(
    json: &Json,
    section: &str,
    decode: impl Fn(&Json) -> Result<T, &'static str>,
) -> Result<BTreeMap<String, T>, MetricsError> {
    let Json::Obj(pairs) = json else {
        return Err(MetricsError(format!("\"{section}\" is not an object")));
    };
    let mut map = BTreeMap::new();
    for (name, value) in pairs {
        let decoded =
            decode(value).map_err(|err| MetricsError(format!("{section}[{name:?}]: {err}")))?;
        if map.insert(name.clone(), decoded).is_some() {
            return Err(MetricsError(format!("{section}[{name:?}]: duplicate key")));
        }
    }
    Ok(map)
}

fn decode_histogram(json: &Json) -> Result<HistogramSnapshot, &'static str> {
    let Json::Obj(pairs) = json else {
        return Err("expected an object");
    };
    let mut hist = HistogramSnapshot::default();
    let mut seen = [false; 3];
    for (key, value) in pairs {
        match key.as_str() {
            "count" => {
                seen[0] = true;
                hist.count = value
                    .as_u64()
                    .ok_or("count: expected a non-negative integer")?;
            }
            "sum" => {
                seen[1] = true;
                hist.sum = value
                    .as_u64()
                    .ok_or("sum: expected a non-negative integer")?;
            }
            "buckets" => {
                seen[2] = true;
                let arr = value.as_array().ok_or("buckets: expected an array")?;
                if arr.len() > HISTOGRAM_BUCKETS {
                    return Err("buckets: more than 65 log2 buckets");
                }
                hist.buckets = arr
                    .iter()
                    .map(|b| b.as_u64().ok_or("buckets: expected non-negative integers"))
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err("unknown key"),
        }
    }
    if seen != [true; 3] {
        return Err("missing count/sum/buckets");
    }
    let bucket_total: u64 = hist.buckets.iter().sum();
    if bucket_total != hist.count {
        return Err("bucket totals disagree with count");
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_json::parse;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(bucket_index(low), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(high), i, "upper edge of bucket {i}");
            assert_eq!(bucket_lower_bound(i), low);
        }
    }

    #[test]
    fn histogram_records_land_in_their_buckets() {
        let hist = Histogram::default();
        for value in [0, 1, 2, 3, 9, u64::MAX] {
            hist.record(value);
        }
        hist.record_n(5, 10);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 16);
        assert_eq!(snap.sum, 15u64.wrapping_add(u64::MAX).wrapping_add(50));
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[3], 10); // 5 x10
        assert_eq!(snap.buckets[4], 1); // 9
        assert_eq!(snap.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn registry_interns_by_name() {
        let a = counter("test.registry.interned");
        a.add(2);
        counter("test.registry.interned").inc();
        assert_eq!(a.get(), 3);
        gauge("test.registry.gauge").set(-7);
        assert_eq!(gauge("test.registry.gauge").get(), -7);
        let snap = snapshot();
        assert_eq!(snap.counters["test.registry.interned"], 3);
        assert_eq!(snap.gauges["test.registry.gauge"], -7);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("sim.runs".to_string(), 42);
        snap.counters.insert("trace.lowered".to_string(), 0);
        snap.gauges.insert("shard.0.backoff_ms".to_string(), -1);
        snap.histograms.insert(
            "sim.beats.seek".to_string(),
            HistogramSnapshot {
                count: 3,
                sum: 12,
                buckets: vec![0, 1, 0, 2],
            },
        );
        let text = snap.to_json().pretty();
        let back = MetricsSnapshot::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let good = MetricsSnapshot::default().to_json().pretty();
        assert!(MetricsSnapshot::from_json(&parse(&good).unwrap()).is_ok());
        for bad in [
            r#"{"counters": {}, "gauges": {}, "histograms": {}}"#,
            r#"{"schema": "lsqca-metrics-v2", "counters": {}, "gauges": {}, "histograms": {}}"#,
            r#"{"schema": "lsqca-metrics-v1", "gauges": {}, "histograms": {}}"#,
            r#"{"schema": "lsqca-metrics-v1", "counters": {}, "gauges": {}, "histograms": {}, "extra": 1}"#,
            r#"{"schema": "lsqca-metrics-v1", "counters": {"x": -1}, "gauges": {}, "histograms": {}}"#,
            r#"{"schema": "lsqca-metrics-v1", "counters": {}, "gauges": {}, "histograms": {"h": {"count": 2, "sum": 0, "buckets": [1]}}}"#,
            r#"[1, 2]"#,
        ] {
            let json = parse(bad).unwrap();
            assert!(MetricsSnapshot::from_json(&json).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn absorb_sums_counters_and_namespaces_gauges() {
        let mut total = MetricsSnapshot::default();
        total.counters.insert("sim.runs".to_string(), 5);
        let mut shard = MetricsSnapshot::default();
        shard.counters.insert("sim.runs".to_string(), 7);
        shard.counters.insert("trace.lowered".to_string(), 2);
        shard.gauges.insert("restarts".to_string(), 1);
        shard.histograms.insert(
            "sim.beats.cx".to_string(),
            HistogramSnapshot {
                count: 1,
                sum: 4,
                buckets: vec![0, 0, 0, 1],
            },
        );
        total.absorb(&shard, "shard.3.");
        total.absorb(&shard, "shard.4.");
        assert_eq!(total.counters["sim.runs"], 19);
        assert_eq!(total.counters["trace.lowered"], 4);
        assert_eq!(total.gauges["shard.3.restarts"], 1);
        assert_eq!(total.gauges["shard.4.restarts"], 1);
        let merged = &total.histograms["sim.beats.cx"];
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 8);
        assert_eq!(merged.buckets, vec![0, 0, 0, 2]);
    }
}
