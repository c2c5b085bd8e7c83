//! Zero-cost-when-disabled instrumentation for the DualPar simulator.
//!
//! The paper's evaluation is built on per-slot I/O ratios, seek-distance
//! windows, mis-prefetch ratios, and LBN traces (Figs. 1/6/7). This crate
//! provides the observability substrate those analyses need:
//!
//! - a [`Registry`] of named **counters**, **gauges**, **histograms**, and
//!   **time series** (value samples keyed by simulated seconds — one point
//!   per EMC tick in the cluster);
//! - a ring-buffered structured event **trace** ([`TraceBuffer`] of
//!   [`TraceEvent`]) with JSONL export for offline analysis;
//! - a [`Telemetry`] facade combining both behind a [`TelemetryLevel`],
//!   whose record methods are `#[inline]` early-returns when disabled, so
//!   an instrumented hot path costs one predictable branch;
//! - a serializable [`TelemetrySnapshot`] for embedding in run reports.
//!
//! All registry storage is `BTreeMap`-backed, so snapshots and exports are
//! deterministic: the same simulation produces byte-identical output.
//!
//! Metric names are dot-separated paths (`"cache.read_hits"`,
//! `"emc.improvement"`). The catalogue of names the cluster emits lives in
//! `docs/TELEMETRY.md`.

#![deny(missing_docs)]

pub mod profile;
pub mod schema;
pub mod span;

pub use profile::{folded, CriticalPathHop, ProcStateRow, SpanProfile};
pub use span::{NameId, SpanId, SpanLog, SpanRecord};

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};

/// How much instrumentation to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryLevel {
    /// Record nothing; every instrumentation call is an early return.
    Off,
    /// Record counters, gauges, histograms, and time series.
    Counters,
    /// Everything in `Counters`, plus the structured event trace.
    Trace,
}

// Manual rather than derived: the vendored serde_derive stub's parser does
// not understand a `#[default]` variant attribute.
#[allow(clippy::derivable_impls)]
impl Default for TelemetryLevel {
    fn default() -> Self {
        TelemetryLevel::Off
    }
}

/// Configuration for a [`Telemetry`] instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct TelemetryConfig {
    /// Recording level.
    pub level: TelemetryLevel,
    /// Maximum trace events retained; older events are dropped (and
    /// counted) once the ring is full.
    pub trace_capacity: usize,
    /// Record spans (request lifecycle + process state intervals) into the
    /// [`SpanLog`]. Off by default: span volume scales with request count,
    /// so benches opt in explicitly (`dualpar profile` forces it on).
    pub spans: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Off,
            trace_capacity: 65_536,
            spans: false,
        }
    }
}

impl TelemetryConfig {
    /// Convenience: a config at the given level with default capacity.
    pub fn at(level: TelemetryLevel) -> Self {
        TelemetryConfig {
            level,
            ..TelemetryConfig::default()
        }
    }

    /// Convenience: enable span recording.
    pub fn with_spans(mut self) -> Self {
        self.spans = true;
        self
    }
}

/// One dynamically-typed field of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String (e.g. a mode or strategy label).
    Str(String),
}

/// A structured simulation event: a timestamp, a source component, an event
/// kind, and free-form fields. Serialized as one flat JSON object per line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time in seconds.
    pub t: f64,
    /// Emitting component (`"emc"`, `"disk"`, `"cache"`, ...).
    pub component: &'static str,
    /// Event kind within the component (`"mode"`, `"tick"`, `"phase"`, ...).
    pub kind: &'static str,
    /// Event payload, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// Start an event at simulated second `t`.
    pub fn new(t: f64, component: &'static str, kind: &'static str) -> Self {
        TraceEvent {
            t,
            component,
            kind,
            fields: Vec::new(),
        }
    }

    /// Attach an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, FieldValue::U64(value)));
        self
    }

    /// Attach a signed-integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, FieldValue::I64(value)));
        self
    }

    /// Attach a floating-point field.
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, FieldValue::F64(value)));
        self
    }

    /// Attach a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, FieldValue::Str(value.into())));
        self
    }

    /// Render the event as one JSONL line (no trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        push_f64(out, self.t);
        out.push_str(",\"component\":");
        push_json_str(out, self.component);
        out.push_str(",\"kind\":");
        push_json_str(out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            push_json_str(out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => out.push_str(&v.to_string()),
                FieldValue::I64(v) => out.push_str(&v.to_string()),
                FieldValue::F64(v) => push_f64(out, *v),
                FieldValue::Str(s) => push_json_str(out, s),
            }
        }
        out.push('}');
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = v.to_string();
        out.push_str(&s);
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Bounded ring of [`TraceEvent`]s. When full, the oldest events are
/// discarded and counted in [`TraceBuffer::dropped`], so a long run keeps
/// the most recent window rather than aborting or growing without bound.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            buf: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Write all retained events as JSON Lines.
    pub fn export_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::new();
        for ev in &self.buf {
            line.clear();
            ev.write_jsonl(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

/// Named metric storage: counters, gauges, histograms, and time series.
///
/// All maps are `BTreeMap`s so iteration (and therefore snapshots and JSON
/// output) is deterministic regardless of insertion order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

/// Welford accumulator plus fixed log-buckets for histogram-style metrics.
///
/// The bucket key keeps a positive sample's IEEE-754 exponent and top two
/// mantissa bits (`bits >> 50`), so each octave splits into four buckets
/// and a quantile's representative (the bucket's lower edge) is within 25%
/// of the true sample. Pure bit arithmetic — no libm — so quantiles are
/// deterministic across hosts. Zero, negative, and non-finite samples land
/// in bucket 0 with representative 0.0 (the cluster only observes
/// non-negative durations and sizes).
#[derive(Debug, Clone)]
struct Hist {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    buckets: BTreeMap<u64, u64>,
}

fn bucket_key(x: f64) -> u64 {
    if x > 0.0 && x.is_finite() {
        x.to_bits() >> 50
    } else {
        0
    }
}

fn bucket_rep(key: u64) -> f64 {
    if key == 0 {
        0.0
    } else {
        f64::from_bits(key << 50)
    }
}

impl Hist {
    fn new() -> Self {
        Hist {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
        }
    }

    fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        *self.buckets.entry(bucket_key(x)).or_insert(0) += 1;
    }

    /// The bucket representative at or above rank `ceil(q * n)`, clamped to
    /// `[1, n]`. Deterministic: same samples, same answer, any order.
    fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut cum = 0u64;
        for (&key, &count) in &self.buckets {
            cum += count;
            if cum >= rank {
                return bucket_rep(key);
            }
        }
        bucket_rep(self.buckets.keys().next_back().copied().unwrap_or(0))
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.n,
            mean: if self.n == 0 { 0.0 } else { self.mean },
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
            stddev: if self.n < 2 {
                0.0
            } else {
                (self.m2 / (self.n - 1) as f64).sqrt()
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `n` to the counter `name` (creating it at zero).
    pub fn count(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Raise gauge `name` to `v` if `v` is larger (high-water mark).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = g.max(v),
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Current value of gauge `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Record `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.hists.get_mut(name) {
            Some(h) => h.push(v),
            None => {
                let mut h = Hist::new();
                h.push(v);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Summary of histogram `name`, if it has any samples.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.hists.get(name).map(Hist::summary)
    }

    /// Append the point `(t, v)` to time series `name`.
    pub fn sample(&mut self, name: &str, t: f64, v: f64) {
        match self.series.get_mut(name) {
            Some(s) => s.push((t, v)),
            None => {
                self.series.insert(name.to_string(), vec![(t, v)]);
            }
        }
    }

    /// The points of time series `name` (empty if never sampled).
    pub fn series(&self, name: &str) -> &[(f64, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Snapshot every metric into a serializable, deterministic form.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            series: self.series.clone(),
            trace_events: 0,
            trace_dropped: 0,
        }
    }
}

/// Serializable summary of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub stddev: f64,
    /// Median from the fixed log-bucket scheme (bucket lower edge, within
    /// 25% of the true sample; 0 when empty).
    pub p50: f64,
    /// 90th percentile, same scheme.
    pub p90: f64,
    /// 99th percentile, same scheme.
    pub p99: f64,
}

/// A deterministic, serializable snapshot of a [`Telemetry`] instance,
/// embedded in run reports. The raw event trace is intentionally *not*
/// included (it can be large); export it separately as JSONL. The snapshot
/// records how many events were retained and dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Time-series points `(t_seconds, value)` by name.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
    /// Trace events retained in the ring at snapshot time.
    pub trace_events: u64,
    /// Trace events dropped because the ring was full.
    pub trace_dropped: u64,
}

/// The instrumentation facade: a [`Registry`] plus a [`TraceBuffer`] behind
/// a [`TelemetryLevel`]. All record methods early-return when the level
/// does not cover them, so instrumented code pays one branch when disabled.
///
/// Callers that must build a *dynamic* metric name (`format!`-style) should
/// guard on [`Telemetry::enabled`] first so the allocation is also skipped
/// when off; static-name calls can be made unconditionally.
#[derive(Debug, Clone)]
pub struct Telemetry {
    level: TelemetryLevel,
    spans_on: bool,
    registry: Registry,
    trace: TraceBuffer,
    spans: SpanLog,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// Build from a config.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        Telemetry {
            level: cfg.level,
            spans_on: cfg.spans && cfg.level != TelemetryLevel::Off,
            registry: Registry::new(),
            trace: TraceBuffer::new(cfg.trace_capacity),
            spans: SpanLog::new(),
        }
    }

    /// A no-op instance (level `Off`).
    pub fn disabled() -> Self {
        Telemetry {
            level: TelemetryLevel::Off,
            spans_on: false,
            registry: Registry::new(),
            trace: TraceBuffer::new(0),
            spans: SpanLog::new(),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether metrics are being recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != TelemetryLevel::Off
    }

    /// Whether the event trace is being recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.level == TelemetryLevel::Trace
    }

    /// Add `n` to counter `name`.
    #[inline]
    pub fn count(&mut self, name: &str, n: u64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.registry.count(name, n);
    }

    /// Record `v` into histogram `name`.
    #[inline]
    pub fn observe(&mut self, name: &str, v: f64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.registry.observe(name, v);
    }

    /// Append `(t, v)` to time series `name`.
    #[inline]
    pub fn sample(&mut self, name: &str, t: f64, v: f64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.registry.sample(name, t, v);
    }

    /// Set gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.registry.gauge_set(name, v);
    }

    /// Raise gauge `name` to `v` if larger.
    #[inline]
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        if self.level == TelemetryLevel::Off {
            return;
        }
        self.registry.gauge_max(name, v);
    }

    /// Record a trace event at simulated second `t`. The `build` closure
    /// runs only when tracing is on, so field construction (allocation,
    /// formatting) costs nothing otherwise.
    #[inline]
    pub fn event(
        &mut self,
        t: f64,
        component: &'static str,
        kind: &'static str,
        build: impl FnOnce(TraceEvent) -> TraceEvent,
    ) {
        if self.level != TelemetryLevel::Trace {
            return;
        }
        self.trace.push(build(TraceEvent::new(t, component, kind)));
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.spans_on
    }

    /// Open a span named `name` covering simulated time from `at`, under
    /// `parent` ([`SpanId::INVALID`] for a root), correlated by `key`.
    /// Returns [`SpanId::INVALID`] (a no-op handle) when spans are off.
    ///
    /// `stamp` is the *current* queue time and only stamps the mirrored
    /// trace event, keeping the trace monotone; `at` is the authoritative
    /// span boundary and may lie in the future (the engine opens spans for
    /// completions it schedules ahead of time), carried as the `at` payload
    /// field — the same convention `pec/suspend` events use.
    #[inline]
    pub fn span_open(
        &mut self,
        stamp: f64,
        at: f64,
        name: &'static str,
        parent: SpanId,
        key: u64,
    ) -> SpanId {
        if !self.spans_on {
            return SpanId::INVALID;
        }
        let id = self.spans.open(name, parent, key, at);
        if self.level == TelemetryLevel::Trace {
            let mut ev = TraceEvent::new(stamp, "span", "open")
                .u64("id", id.0)
                .str("name", name)
                .u64("key", key)
                .f64("at", at);
            if parent.is_valid() {
                ev = ev.u64("parent", parent.0);
            }
            self.trace.push(ev);
        }
        id
    }

    /// Close span `id` at simulated second `at`; `stamp` as in
    /// [`Telemetry::span_open`]. No-op for [`SpanId::INVALID`].
    #[inline]
    pub fn span_close(&mut self, stamp: f64, id: SpanId, at: f64) {
        if !self.spans_on || !id.is_valid() {
            return;
        }
        self.spans.close(id, at);
        if self.level == TelemetryLevel::Trace {
            self.trace.push(
                TraceEvent::new(stamp, "span", "close")
                    .u64("id", id.0)
                    .f64("at", at),
            );
        }
    }

    /// Read access to the span log.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Read access to the metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Read access to the event trace.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Snapshot all metrics; `None` when the level is `Off`.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        if self.level == TelemetryLevel::Off {
            return None;
        }
        let mut snap = self.registry.snapshot();
        snap.trace_events = self.trace.len() as u64;
        snap.trace_dropped = self.trace.dropped();
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("io.bytes_read"), 0);
        r.count("io.bytes_read", 10);
        r.count("io.bytes_read", 5);
        r.count("io.bytes_written", 1);
        assert_eq!(r.counter("io.bytes_read"), 15);
        assert_eq!(r.counter("io.bytes_written"), 1);
    }

    #[test]
    fn histogram_summary_matches_welford() {
        let mut r = Registry::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.observe("lat", x);
        }
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count, 8);
        assert!((h.mean - 5.0).abs() < 1e-12);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 9.0);
        assert!((h.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        // Log-bucket quantiles: rank-4 of 8 lands in the 4.0 bucket; 9.0
        // falls in the [8.0, 10.0) bucket whose representative is 8.0.
        assert_eq!(h.p50, 4.0);
        assert_eq!(h.p90, 8.0);
        assert_eq!(h.p99, 8.0);
    }

    #[test]
    fn quantiles_are_order_independent_and_bounded() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let xs = [0.0013, 7.25, 0.5, 1e-9, 42.0, 0.5, 3.0, 0.0];
        for &x in &xs {
            a.push(x);
        }
        for &x in xs.iter().rev() {
            b.push(x);
        }
        // Welford mean/m2 accumulate in float order; only the bucket-based
        // quantiles are exactly order-independent.
        let (sa, sb) = (a.summary(), b.summary());
        assert_eq!((sa.p50, sa.p90, sa.p99), (sb.p50, sb.p90, sb.p99));
        // Representative is the bucket's lower edge: within 25% below the
        // true quantile sample.
        assert!(sa.p99 <= 42.0 && sa.p99 >= 42.0 * 0.75);
        assert_eq!(Hist::new().summary().p50, 0.0);
    }

    #[test]
    fn bucket_rep_is_lower_edge_within_25_percent() {
        for &x in &[1e-12, 0.001, 0.37, 1.0, 1.999, 5.0, 123.456, 9e9] {
            let rep = bucket_rep(bucket_key(x));
            assert!(rep <= x, "rep {rep} above sample {x}");
            assert!(rep > x * 0.75, "rep {rep} more than 25% below {x}");
        }
        assert_eq!(bucket_rep(bucket_key(0.0)), 0.0);
        assert_eq!(bucket_rep(bucket_key(-3.0)), 0.0);
        assert_eq!(bucket_rep(bucket_key(f64::NAN)), 0.0);
        assert_eq!(bucket_rep(bucket_key(f64::INFINITY)), 0.0);
    }

    #[test]
    fn empty_histogram_is_none_and_gauges_default() {
        let r = Registry::new();
        assert!(r.histogram("nope").is_none());
        assert_eq!(r.gauge("nope"), 0.0);
    }

    #[test]
    fn gauge_max_is_high_water_mark() {
        let mut r = Registry::new();
        r.gauge_max("dirty", 10.0);
        r.gauge_max("dirty", 4.0);
        r.gauge_max("dirty", 12.0);
        assert_eq!(r.gauge("dirty"), 12.0);
        r.gauge_set("dirty", 1.0);
        assert_eq!(r.gauge("dirty"), 1.0);
    }

    #[test]
    fn series_preserves_order() {
        let mut r = Registry::new();
        r.sample("emc.improvement", 1.0, 0.5);
        r.sample("emc.improvement", 2.0, 1.5);
        assert_eq!(r.series("emc.improvement"), &[(1.0, 0.5), (2.0, 1.5)]);
    }

    #[test]
    fn snapshot_is_deterministic_under_insertion_order() {
        let mut a = Registry::new();
        a.count("b", 2);
        a.count("a", 1);
        a.observe("h2", 1.0);
        a.observe("h1", 2.0);
        let mut b = Registry::new();
        b.observe("h1", 2.0);
        b.observe("h2", 1.0);
        b.count("a", 1);
        b.count("b", 2);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.counters, sb.counters);
        assert_eq!(sa.histograms, sb.histograms);
        assert_eq!(
            sa.counters.keys().collect::<Vec<_>>(),
            vec!["a", "b"],
            "BTreeMap order"
        );
    }

    #[test]
    fn trace_ring_drops_oldest() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5u64 {
            t.push(TraceEvent::new(i as f64, "x", "k").u64("i", i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.iter().next().unwrap();
        assert_eq!(first.fields[0], ("i", FieldValue::U64(2)));
    }

    #[test]
    fn jsonl_escapes_and_shapes() {
        let ev = TraceEvent::new(1.5, "emc", "mode")
            .u64("program", 3)
            .f64("ratio", 2.0)
            .i64("delta", -4)
            .str("label", "a\"b\\c\nd");
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"t\":1.5,\"component\":\"emc\",\"kind\":\"mode\",\
             \"program\":3,\"ratio\":2.0,\"delta\":-4,\
             \"label\":\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::disabled();
        t.count("x", 1);
        t.observe("y", 1.0);
        t.sample("z", 0.0, 1.0);
        t.event(0.0, "a", "b", |e| e.u64("f", 1));
        let id = t.span_open(0.0, 0.0, "proc.compute", SpanId::INVALID, 1);
        assert_eq!(id, SpanId::INVALID);
        t.span_close(1.0, id, 1.0);
        assert_eq!(t.registry().counter("x"), 0);
        assert!(t.snapshot().is_none());
        assert!(t.trace().is_empty());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_are_opt_in_and_mirrored_to_trace() {
        // Counters level without the spans flag: nothing recorded.
        let mut t = Telemetry::new(&TelemetryConfig::at(TelemetryLevel::Counters));
        let id = t.span_open(0.0, 0.0, "req.life", SpanId::INVALID, 9);
        assert!(!id.is_valid());
        assert!(!t.spans_enabled());

        // Counters + spans: recorded in the log, not in the trace.
        let mut t = Telemetry::new(&TelemetryConfig::at(TelemetryLevel::Counters).with_spans());
        let id = t.span_open(0.0, 0.0, "req.life", SpanId::INVALID, 9);
        assert!(id.is_valid());
        t.span_close(0.5, id, 2.0);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans().open_count(), 0);
        assert!(t.trace().is_empty());

        // Trace + spans: mirrored as span/open + span/close events with the
        // authoritative time in the `at` payload.
        let mut t = Telemetry::new(&TelemetryConfig::at(TelemetryLevel::Trace).with_spans());
        let root = t.span_open(0.0, 0.0, "proc.compute", SpanId::INVALID, 3);
        let child = t.span_open(0.25, 1.0, "req.life", root, 9);
        t.span_close(0.25, child, 2.0);
        t.span_close(3.0, root, 3.0);
        assert_eq!(t.trace().len(), 4);
        let evs: Vec<&TraceEvent> = t.trace().iter().collect();
        assert_eq!((evs[0].component, evs[0].kind), ("span", "open"));
        assert_eq!((evs[2].component, evs[2].kind), ("span", "close"));
        assert!(evs[1]
            .fields
            .iter()
            .any(|(k, v)| *k == "parent" && *v == FieldValue::U64(root.0)));
        assert!(evs[1]
            .fields
            .iter()
            .any(|(k, v)| *k == "at" && *v == FieldValue::F64(1.0)));
    }

    #[test]
    fn event_closure_only_runs_when_tracing() {
        let mut ran = false;
        let mut t = Telemetry::new(&TelemetryConfig::at(TelemetryLevel::Counters));
        t.event(0.0, "a", "b", |e| {
            ran = true;
            e
        });
        assert!(!ran, "closure must not run below Trace level");
        let mut t = Telemetry::new(&TelemetryConfig::at(TelemetryLevel::Trace));
        t.event(0.0, "a", "b", |e| {
            ran = true;
            e
        });
        assert!(ran);
        assert_eq!(t.trace().len(), 1);
        assert_eq!(t.snapshot().unwrap().trace_events, 1);
    }
}
