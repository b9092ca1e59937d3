//! The process-wide metrics registry: named counters and gauges, plus the
//! `lsqca-metrics-v2` snapshot/merge layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use lsqca_json::Json;

/// Schema tag carried by every serialized [`MetricsSnapshot`].
pub const METRICS_SCHEMA: &str = "lsqca-metrics-v2";

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

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
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
    }
}

/// Malformed `lsqca-metrics-v2` document.
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
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters are summed (cross-process
    /// totals), gauges are namespaced under `gauge_prefix`
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
    }

    /// Renders the snapshot as a `lsqca-metrics-v2` document.
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
        ])
    }

    /// Decodes a `lsqca-metrics-v2` document, rejecting wrong schemas (the
    /// v1 documents that carried histograms included), missing sections,
    /// unknown keys, and malformed values — a corrupt shard metrics file
    /// must fail loudly here so the aggregator can warn and skip it rather
    /// than fold garbage into the totals.
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, MetricsError> {
        let Json::Obj(pairs) = json else {
            return Err(MetricsError("not an object".to_string()));
        };
        let mut snapshot = MetricsSnapshot::default();
        let mut seen = [false; 3];
        for (key, value) in pairs {
            match key.as_str() {
                "schema" => {
                    seen[0] = true;
                    if value.as_str() != Some(METRICS_SCHEMA) {
                        return Err(MetricsError(format!(
                            "schema is {}, expected \"{METRICS_SCHEMA}\"",
                            value.compact()
                        )));
                    }
                }
                "counters" => {
                    seen[1] = true;
                    snapshot.counters = decode_map(value, "counters", |v| {
                        v.as_u64().ok_or("expected a non-negative integer")
                    })?;
                }
                "gauges" => {
                    seen[2] = true;
                    snapshot.gauges =
                        decode_map(value, "gauges", |v| v.as_i64().ok_or("expected an integer"))?;
                }
                other => {
                    return Err(MetricsError(format!("unknown key {other:?}")));
                }
            }
        }
        for (section, seen) in ["schema", "counters", "gauges"].iter().zip(seen) {
            if !seen {
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

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_json::parse;

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
        snap.counters.insert("sim.memory_walks".to_string(), 0);
        snap.gauges.insert("shard.0.backoff_ms".to_string(), -1);
        let text = snap.to_json().pretty();
        let back = MetricsSnapshot::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let good = MetricsSnapshot::default().to_json().pretty();
        assert!(MetricsSnapshot::from_json(&parse(&good).unwrap()).is_ok());
        for bad in [
            r#"{"counters": {}, "gauges": {}}"#,
            r#"{"schema": "lsqca-metrics-v3", "counters": {}, "gauges": {}}"#,
            r#"{"schema": "lsqca-metrics-v1", "counters": {}, "gauges": {}, "histograms": {}}"#,
            r#"{"schema": "lsqca-metrics-v2", "gauges": {}}"#,
            r#"{"schema": "lsqca-metrics-v2", "counters": {}, "gauges": {}, "extra": 1}"#,
            r#"{"schema": "lsqca-metrics-v2", "counters": {"x": -1}, "gauges": {}}"#,
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
        shard.counters.insert("sim.memory_walks".to_string(), 2);
        shard.gauges.insert("restarts".to_string(), 1);
        total.absorb(&shard, "shard.3.");
        total.absorb(&shard, "shard.4.");
        assert_eq!(total.counters["sim.runs"], 19);
        assert_eq!(total.counters["sim.memory_walks"], 4);
        assert_eq!(total.gauges["shard.3.restarts"], 1);
        assert_eq!(total.gauges["shard.4.restarts"], 1);
    }
}
