//! Unified telemetry for the sweep stack: a process-wide metrics registry
//! and low-overhead span tracing.
//!
//! Every layer of the stack (workload compilation, trace lowering, simulator
//! warm/execute, result store, sharded supervisor) reports through the same two
//! primitives:
//!
//! - **Metrics** ([`counter`], [`gauge`]): named atomics
//!   interned in a global registry. The hot path after the first lookup is a
//!   single relaxed `fetch_add`. [`snapshot`] freezes the registry into a
//!   [`MetricsSnapshot`] that serializes to the stable `lsqca-metrics-v2`
//!   JSON schema, round-trips through [`MetricsSnapshot::from_json`], and
//!   merges across processes with [`MetricsSnapshot::absorb`] — that is how
//!   shard-worker counters survive the process boundary (each worker writes
//!   `metrics-<shard>.json` into the store directory and the supervisor or
//!   `experiments merge` aggregates them).
//! - **Spans** ([`span`]): `(name, start, end)` intervals over a monotonic
//!   process clock, recorded into per-thread ring buffers. Disabled by
//!   default; when off, taking a span is one relaxed atomic load. Enabled
//!   spans cost one `Instant` read at open and a buffered push at close.
//!   [`take_spans`] drains every thread's buffer and [`chrome_trace`] renders
//!   the result as Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`).
//!
//! Nesting of spans is balanced by construction: [`SpanGuard`] is RAII, so a
//! span closes exactly once when its guard drops, in LIFO order per thread.

mod registry;
mod spans;

pub use registry::{
    counter, gauge, snapshot, Counter, Gauge, MetricsError, MetricsSnapshot, METRICS_SCHEMA,
};
pub use spans::{
    chrome_trace, dropped_spans, init_clock, now_ns, set_spans_enabled, span, spans_enabled,
    take_spans, SpanGuard, SpanRecord, SPAN_RING_CAPACITY,
};
