//! The thread-safe metrics registry and its three metric kinds.
//!
//! One process-wide default registry lives behind [`registry`]. A thread
//! that has installed a [`crate::Scope`] records into that scope's own
//! registry instead; see [`crate::scope`] for the routing rules.
//!
//! # Labels
//!
//! A metric series is identified by a full name of the form
//! `base{key="value",...}`. The labeled helpers ([`counter_with`],
//! [`observe_with`], …) build that full name for you with proper
//! Prometheus escaping of label values, validate the base and label names
//! against the Prometheus charset (a panic-free [`MetricNameError`]
//! otherwise), and enforce a bounded-cardinality guard: once a base name
//! has [`MAX_LABEL_SETS`] distinct label sets, further sets fold into a
//! single `base{overflow="true"}` series and the clamp is counted by
//! `qukit_obs_label_cardinality_limited_total` — an unbounded label value
//! (a user id, say) cannot grow the registry without bound.

use crate::span::{TraceEvent, TRACE_CAPACITY};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Recording gate. Bit 0 is the process-wide switch of [`set_enabled`];
/// the bits above count the scope guards installed on any thread, in
/// units of [`SCOPE_UNIT`]. With neither, every record call is a single
/// relaxed load plus a predictable branch.
pub(crate) static GATE: AtomicUsize = AtomicUsize::new(0);

/// The process-wide switch's bit in [`GATE`].
const SWITCH: usize = 1;

/// What one installed scope guard adds to [`GATE`].
pub(crate) const SCOPE_UNIT: usize = 2;

/// Turns recording into the process default registry on or off and
/// returns the previous setting, so a caller can restore it. Threads with
/// an installed [`crate::Scope`] record into their scope either way.
pub fn set_enabled(on: bool) -> bool {
    let before = if on {
        crate::span::init_epoch();
        GATE.fetch_or(SWITCH, Ordering::SeqCst)
    } else {
        GATE.fetch_and(!SWITCH, Ordering::SeqCst)
    };
    before & SWITCH != 0
}

/// Whether recording is enabled on this thread: the process-wide switch
/// is on, or a [`crate::Scope`] is installed here.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        0 => false,
        gate => gate & SWITCH != 0 || crate::scope::installed_here(),
    }
}

/// Runs `f` on the registry this thread records into: its installed
/// scope's, else the process default.
pub(crate) fn with_current<R>(f: impl FnOnce(&MetricsRegistry) -> R) -> R {
    if GATE.load(Ordering::Relaxed) >= SCOPE_UNIT {
        if let Some(scoped) = crate::scope::installed() {
            return f(&scoped);
        }
    }
    f(registry())
}

/// Default histogram buckets for durations in seconds (1 µs … 1 s, with an
/// implicit `+Inf` overflow bucket).
pub const DURATION_BUCKETS: [f64; 10] =
    [1e-6, 5e-6, 2.5e-5, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1.0];

/// Maximum distinct label sets per base metric name before the
/// cardinality guard folds new sets into `base{overflow="true"}`.
pub const MAX_LABEL_SETS: usize = 64;

/// A rejected metric or label name: which name and why. Registration
/// never panics on bad names; the fallible `try_*` APIs return this and
/// the infallible ones count the rejection into
/// `qukit_obs_invalid_metric_names_total` and hand back a detached metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricNameError {
    /// The offending name as given.
    pub name: String,
    /// What rule it broke.
    pub reason: &'static str,
}

impl std::fmt::Display for MetricNameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid metric name {:?}: {}", self.name, self.reason)
    }
}

impl std::error::Error for MetricNameError {}

/// Validates a bare metric name against the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn validate_metric_name(name: &str) -> Result<(), MetricNameError> {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return Err(MetricNameError { name: name.to_owned(), reason: "empty name" });
    };
    if !(first.is_ascii_alphabetic() || first == '_' || first == ':') {
        return Err(MetricNameError {
            name: name.to_owned(),
            reason: "must start with [a-zA-Z_:]",
        });
    }
    if chars.any(|c| !(c.is_ascii_alphanumeric() || c == '_' || c == ':')) {
        return Err(MetricNameError {
            name: name.to_owned(),
            reason: "contains characters outside [a-zA-Z0-9_:]",
        });
    }
    Ok(())
}

/// Validates a label name (`[a-zA-Z_][a-zA-Z0-9_]*`).
pub fn validate_label_name(name: &str) -> Result<(), MetricNameError> {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return Err(MetricNameError { name: name.to_owned(), reason: "empty label name" });
    };
    if !(first.is_ascii_alphabetic() || first == '_')
        || chars.any(|c| !(c.is_ascii_alphanumeric() || c == '_'))
    {
        return Err(MetricNameError {
            name: name.to_owned(),
            reason: "label names match [a-zA-Z_][a-zA-Z0-9_]*",
        });
    }
    Ok(())
}

/// Validates a full series name: a bare base, or `base{...}` (the label
/// body itself is trusted — use [`labeled_name`] to build one safely).
fn validate_series_name(name: &str) -> Result<(), MetricNameError> {
    match name.find('{') {
        None => validate_metric_name(name),
        Some(open) => {
            validate_metric_name(&name[..open])?;
            if !name.ends_with('}') {
                return Err(MetricNameError {
                    name: name.to_owned(),
                    reason: "unterminated label body",
                });
            }
            Ok(())
        }
    }
}

/// Escapes a label value for the Prometheus text format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Builds the full series name `base{key="value",...}` with validated
/// names and escaped values. With no labels, returns the bare base.
pub fn labeled_name(base: &str, labels: &[(&str, &str)]) -> Result<String, MetricNameError> {
    validate_metric_name(base)?;
    if labels.is_empty() {
        return Ok(base.to_owned());
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (index, (key, value)) in labels.iter().enumerate() {
        validate_label_name(key)?;
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    out.push('}');
    Ok(out)
}

/// Name of the series new label sets fold into once a base hits
/// [`MAX_LABEL_SETS`].
fn overflow_name(base: &str) -> String {
    format!("{base}{{overflow=\"true\"}}")
}

/// Counts registered series of `base` (labeled sets only).
fn label_set_count<T>(map: &BTreeMap<String, Arc<T>>, base: &str) -> usize {
    let prefix = format!("{base}{{");
    map.range(prefix.clone()..).take_while(|(k, _)| k.starts_with(prefix.as_str())).count()
}

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta`; a no-op while recording is disabled on this thread.
    #[inline]
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A float metric that can move in both directions (stored as `f64` bits
/// in an atomic, updated by compare-and-swap).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge; a no-op while recording is disabled.
    pub fn set(&self, value: f64) {
        if enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative); a no-op while recording is disabled.
    pub fn add(&self, delta: f64) {
        if !enabled() {
            return;
        }
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: cumulative-style export, Prometheus-shaped.
///
/// Bucket `i` counts observations `v <= bounds[i]` that fell in no earlier
/// bucket; one extra overflow bucket catches everything beyond the last
/// bound (exported as `+Inf`).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    state: Mutex<HistogramState>,
}

#[derive(Debug)]
struct HistogramState {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let buckets = vec![0u64; sorted.len() + 1];
        Self { bounds: sorted, state: Mutex::new(HistogramState { buckets, count: 0, sum: 0.0 }) }
    }

    /// Records one observation; a no-op while recording is disabled.
    pub fn observe(&self, value: f64) {
        if !enabled() {
            return;
        }
        let index = self.bounds.iter().position(|b| value <= *b).unwrap_or(self.bounds.len());
        let mut state = self.state.lock().expect("histogram lock");
        state.buckets[index] += 1;
        state.count += 1;
        state.sum += value;
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(duration.as_secs_f64());
    }

    /// Upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// A point-in-time copy of the histogram contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let state = self.state.lock().expect("histogram lock");
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: state.buckets.clone(),
            count: state.count,
            sum: state.sum,
        }
    }
}

/// A frozen copy of one histogram's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets; an implicit `+Inf` bucket follows.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation inside the bucket holding the target rank — the
    /// standard Prometheus `histogram_quantile` recipe. Returns 0 for
    /// an empty histogram. Ranks falling in the `+Inf` overflow bucket
    /// report the largest finite bound (a lower-bound estimate), since
    /// the bucket has no upper edge to interpolate toward.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.buckets.iter().enumerate() {
            let next = cumulative + bucket_count;
            if (next as f64) >= rank && bucket_count > 0 {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: no finite upper edge.
                    return *self.bounds.last().expect("bounds nonempty");
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let fraction = (rank - cumulative as f64) / bucket_count as f64;
                return lower + fraction * (upper - lower);
            }
            cumulative = next;
        }
        *self.bounds.last().expect("bounds nonempty")
    }
}

/// A frozen copy of the whole registry plus the trace buffer, consumed by
/// the exporters in [`crate::export`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → contents.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Completed spans, oldest first (bounded by [`crate::TRACE_CAPACITY`]).
    pub trace: Vec<crate::span::TraceEvent>,
    /// Base metric name → HELP text (see [`describe`]).
    pub help: BTreeMap<String, String>,
}

impl Snapshot {
    /// Whether nothing at all was recorded (HELP text alone is metadata,
    /// not a recording).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.trace.is_empty()
    }
}

/// Registry of every named metric plus its own bounded span ring buffer.
/// The process default lives behind [`registry`]; each [`crate::Scope`]
/// owns another.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
    trace: Mutex<VecDeque<TraceEvent>>,
    trace_dropped: AtomicU64,
}

impl MetricsRegistry {
    /// Returns (registering on first use) the counter with this name.
    /// An invalid name yields a detached counter and is counted into
    /// `qukit_obs_invalid_metric_names_total` (see [`Self::try_counter`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.try_counter(name).unwrap_or_else(|_| self.rejected_counter())
    }

    /// Fallible registration: rejects names outside the Prometheus
    /// charset with a typed error instead of panicking or registering.
    pub fn try_counter(&self, name: &str) -> Result<Arc<Counter>, MetricNameError> {
        validate_series_name(name)?;
        let mut map = self.counters.lock().expect("counter map lock");
        if let Some(existing) = map.get(name) {
            return Ok(Arc::clone(existing));
        }
        let created = Arc::new(Counter::default());
        map.insert(name.to_owned(), Arc::clone(&created));
        Ok(created)
    }

    /// The labeled counter `base{labels…}`, subject to the cardinality
    /// guard: past [`MAX_LABEL_SETS`] distinct sets the overflow series
    /// is returned instead.
    pub fn try_counter_with(
        &self,
        base: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Counter>, MetricNameError> {
        let full = labeled_name(base, labels)?;
        let mut map = self.counters.lock().expect("counter map lock");
        if let Some(existing) = map.get(&full) {
            return Ok(Arc::clone(existing));
        }
        let name = if !labels.is_empty() && label_set_count(&map, base) >= MAX_LABEL_SETS {
            map.entry("qukit_obs_label_cardinality_limited_total".to_owned()).or_default().inc();
            overflow_name(base)
        } else {
            full
        };
        Ok(Arc::clone(map.entry(name).or_default()))
    }

    /// Returns (registering on first use) the gauge with this name; the
    /// same invalid-name policy as [`Self::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.try_gauge(name).unwrap_or_else(|_| {
            self.note_rejected_name();
            Arc::new(Gauge::default())
        })
    }

    /// Fallible gauge registration (typed error on a bad name).
    pub fn try_gauge(&self, name: &str) -> Result<Arc<Gauge>, MetricNameError> {
        validate_series_name(name)?;
        let mut map = self.gauges.lock().expect("gauge map lock");
        if let Some(existing) = map.get(name) {
            return Ok(Arc::clone(existing));
        }
        let created = Arc::new(Gauge::default());
        map.insert(name.to_owned(), Arc::clone(&created));
        Ok(created)
    }

    /// The labeled gauge `base{labels…}`, cardinality-guarded.
    pub fn try_gauge_with(
        &self,
        base: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Gauge>, MetricNameError> {
        let full = labeled_name(base, labels)?;
        let mut map = self.gauges.lock().expect("gauge map lock");
        if let Some(existing) = map.get(&full) {
            return Ok(Arc::clone(existing));
        }
        let name = if !labels.is_empty() && label_set_count(&map, base) >= MAX_LABEL_SETS {
            self.note_rejected_series();
            overflow_name(base)
        } else {
            full
        };
        Ok(Arc::clone(map.entry(name).or_default()))
    }

    /// Returns (registering on first use) the histogram with this name.
    /// The bounds of the first registration win; later callers share it.
    /// The same invalid-name policy as [`Self::counter`].
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.try_histogram(name, bounds).unwrap_or_else(|_| {
            self.note_rejected_name();
            Arc::new(Histogram::new(bounds))
        })
    }

    /// Fallible histogram registration (typed error on a bad name).
    pub fn try_histogram(
        &self,
        name: &str,
        bounds: &[f64],
    ) -> Result<Arc<Histogram>, MetricNameError> {
        validate_series_name(name)?;
        Ok(self.histogram_unchecked(name.to_owned(), bounds))
    }

    /// The labeled histogram `base{labels…}`, cardinality-guarded.
    pub fn try_histogram_with(
        &self,
        base: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Result<Arc<Histogram>, MetricNameError> {
        let full = labeled_name(base, labels)?;
        {
            let map = self.histograms.lock().expect("histogram map lock");
            if let Some(existing) = map.get(&full) {
                return Ok(Arc::clone(existing));
            }
            if !labels.is_empty() && label_set_count(&map, base) >= MAX_LABEL_SETS {
                drop(map);
                self.note_rejected_series();
                return Ok(self.histogram_unchecked(overflow_name(base), bounds));
            }
        }
        Ok(self.histogram_unchecked(full, bounds))
    }

    fn histogram_unchecked(&self, name: String, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map lock");
        if let Some(existing) = map.get(&name) {
            return Arc::clone(existing);
        }
        let created = Arc::new(Histogram::new(bounds));
        map.insert(name, Arc::clone(&created));
        created
    }

    fn rejected_counter(&self) -> Arc<Counter> {
        self.note_rejected_name();
        Arc::new(Counter::default())
    }

    fn note_rejected_name(&self) {
        self.counters
            .lock()
            .expect("counter map lock")
            .entry("qukit_obs_invalid_metric_names_total".to_owned())
            .or_default()
            .inc();
    }

    fn note_rejected_series(&self) {
        self.counters
            .lock()
            .expect("counter map lock")
            .entry("qukit_obs_label_cardinality_limited_total".to_owned())
            .or_default()
            .inc();
    }

    /// Attaches Prometheus HELP text to a base metric name; rendered by
    /// the text exporter (with escaping). Last write wins.
    pub fn describe(&self, name: &str, help: &str) {
        self.help.lock().expect("help map lock").insert(name.to_owned(), help.to_owned());
    }

    /// Appends a completed span to the ring buffer, evicting (and
    /// counting) the oldest event once [`TRACE_CAPACITY`] is reached.
    pub(crate) fn push_event(&self, event: TraceEvent) {
        let mut buffer = self.trace.lock().expect("trace buffer lock");
        if buffer.len() == TRACE_CAPACITY {
            buffer.pop_front();
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
        }
        buffer.push_back(event);
    }

    /// Copies the trace buffer, oldest event first.
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.trace.lock().expect("trace buffer lock").iter().cloned().collect()
    }

    /// Drains the trace buffer, oldest event first.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.trace.lock().expect("trace buffer lock").drain(..).collect()
    }

    /// Trace events evicted from the full ring buffer since the last
    /// [`Self::reset`].
    pub fn trace_events_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// Freezes every metric plus the trace buffer into a [`Snapshot`].
    /// The ring buffer's eviction count is surfaced as the
    /// `qukit_obs_trace_events_dropped_total` counter whenever any trace
    /// activity happened, so every exporter reports trace loss.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .expect("counter map lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.value()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.value()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map lock")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        let trace = self.trace();
        let dropped = self.trace_events_dropped();
        if dropped > 0 || !trace.is_empty() {
            counters.insert("qukit_obs_trace_events_dropped_total".to_owned(), dropped);
        }
        let help = self.help.lock().expect("help map lock").clone();
        Snapshot { counters, gauges, histograms, trace, help }
    }

    /// Drops every registered metric (HELP text included) and clears the
    /// trace buffer and its drop counter.
    pub fn reset(&self) {
        self.counters.lock().expect("counter map lock").clear();
        self.gauges.lock().expect("gauge map lock").clear();
        self.histograms.lock().expect("histogram map lock").clear();
        self.help.lock().expect("help map lock").clear();
        self.trace.lock().expect("trace buffer lock").clear();
        self.trace_dropped.store(0, Ordering::Relaxed);
    }
}

/// The process-wide default registry: where recording goes on threads
/// without an installed [`crate::Scope`]. Always the default, even on a
/// thread with a scope; use [`crate::Scope::registry`] for a scope's.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

// The free functions below act on this thread's current registry: its
// installed scope's, else the process default.

/// Handle to the named counter (for hot loops that cache it).
pub fn counter(name: &str) -> Arc<Counter> {
    with_current(|registry| registry.counter(name))
}

/// Handle to the named, labeled counter (cardinality-guarded; invalid
/// names yield a detached counter, counted as rejected).
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    with_current(|registry| {
        registry.try_counter_with(name, labels).unwrap_or_else(|_| registry.rejected_counter())
    })
}

/// Adds `delta` to the named counter.
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        counter(name).add(delta);
    }
}

/// Adds one to the named counter.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Adds `delta` to the named, labeled counter.
pub fn counter_add_with(name: &str, labels: &[(&str, &str)], delta: u64) {
    if enabled() {
        counter_with(name, labels).add(delta);
    }
}

/// Adds one to the named, labeled counter.
pub fn counter_inc_with(name: &str, labels: &[(&str, &str)]) {
    counter_add_with(name, labels, 1);
}

/// Handle to the named gauge.
pub fn gauge(name: &str) -> Arc<Gauge> {
    with_current(|registry| registry.gauge(name))
}

/// Sets the named gauge.
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        gauge(name).set(value);
    }
}

/// Sets the named, labeled gauge.
pub fn gauge_set_with(name: &str, labels: &[(&str, &str)], value: f64) {
    if enabled() {
        with_current(|registry| match registry.try_gauge_with(name, labels) {
            Ok(gauge) => gauge.set(value),
            Err(_) => registry.note_rejected_name(),
        });
    }
}

/// Adds `delta` (may be negative) to the named gauge.
pub fn gauge_add(name: &str, delta: f64) {
    if enabled() {
        gauge(name).add(delta);
    }
}

/// Handle to the named histogram with the given bounds (first
/// registration wins).
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    with_current(|registry| registry.histogram(name, bounds))
}

/// Records one observation into the named histogram, registering it with
/// [`DURATION_BUCKETS`] on first use.
pub fn observe(name: &str, value: f64) {
    if enabled() {
        histogram(name, &DURATION_BUCKETS).observe(value);
    }
}

/// Records one observation into the named, labeled histogram
/// ([`DURATION_BUCKETS`] on first use, cardinality-guarded).
pub fn observe_with(name: &str, labels: &[(&str, &str)], value: f64) {
    if enabled() {
        with_current(|registry| {
            match registry.try_histogram_with(name, labels, &DURATION_BUCKETS) {
                Ok(hist) => hist.observe(value),
                Err(_) => registry.note_rejected_name(),
            }
        });
    }
}

/// Records a duration in seconds into the named histogram.
pub fn observe_duration(name: &str, duration: Duration) {
    observe(name, duration.as_secs_f64());
}

/// Attaches Prometheus HELP text to a base metric name.
pub fn describe(name: &str, help: &str) {
    with_current(|registry| registry.describe(name, help));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let snapshot = HistogramSnapshot {
            bounds: vec![1.0, 2.0, 4.0],
            // 10 observations <=1, 10 in (1,2], none in (2,4], 0 overflow.
            buckets: vec![10, 10, 0, 0],
            count: 20,
            sum: 25.0,
        };
        // Rank 10 is the last observation of the first bucket.
        assert!((snapshot.quantile(0.5) - 1.0).abs() < 1e-9);
        // Rank 15 sits halfway through the (1,2] bucket.
        assert!((snapshot.quantile(0.75) - 1.5).abs() < 1e-9);
        assert!((snapshot.quantile(1.0) - 2.0).abs() < 1e-9);
        // q clamps instead of panicking.
        assert!(snapshot.quantile(-1.0) <= snapshot.quantile(2.0));
    }

    #[test]
    fn quantile_edge_cases() {
        let empty =
            HistogramSnapshot { bounds: vec![1.0], buckets: vec![0, 0], count: 0, sum: 0.0 };
        assert_eq!(empty.quantile(0.5), 0.0);
        // Everything overflowed: report the largest finite bound.
        let overflow = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            buckets: vec![0, 0, 5],
            count: 5,
            sum: 50.0,
        };
        assert_eq!(overflow.quantile(0.5), 2.0);
    }

    #[test]
    fn counters_are_exact_under_contention() {
        let _guard = crate::test_lock();
        set_enabled(true);
        crate::reset();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                thread::spawn(|| {
                    let counter = counter("qukit_obs_test_contended_total");
                    for _ in 0..PER_THREAD {
                        counter.inc();
                    }
                    gauge_add("qukit_obs_test_gauge", 1.0);
                    observe("qukit_obs_test_hist_seconds", 1e-5);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        let snapshot = registry().snapshot();
        assert_eq!(
            snapshot.counters["qukit_obs_test_contended_total"],
            THREADS as u64 * PER_THREAD
        );
        assert_eq!(snapshot.gauges["qukit_obs_test_gauge"], THREADS as f64);
        assert_eq!(snapshot.histograms["qukit_obs_test_hist_seconds"].count, THREADS as u64);
        crate::reset();
        set_enabled(false);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let _guard = crate::test_lock();
        set_enabled(true);
        let hist = Histogram::new(&[1.0, 2.0, 4.0]);
        // On-boundary values land in their own bucket (v <= bound).
        hist.observe(1.0);
        hist.observe(2.0);
        hist.observe(4.0);
        // Interior values land in the first bucket whose bound is >= v.
        hist.observe(0.5);
        hist.observe(3.0);
        // Beyond the last bound lands in the +Inf overflow bucket.
        hist.observe(100.0);
        let snap = hist.snapshot();
        assert_eq!(snap.bounds, vec![1.0, 2.0, 4.0]);
        assert_eq!(snap.buckets, vec![2, 1, 2, 1]);
        assert_eq!(snap.count, 6);
        assert!((snap.sum - 110.5).abs() < 1e-12);
        assert!((snap.mean() - 110.5 / 6.0).abs() < 1e-12);
        set_enabled(false);
    }

    #[test]
    fn disabled_recording_is_invisible() {
        let _guard = crate::test_lock();
        set_enabled(false);
        let counter = Counter::default();
        counter.add(5);
        assert_eq!(counter.value(), 0);
        let gauge = Gauge::default();
        gauge.set(3.0);
        gauge.add(1.0);
        assert_eq!(gauge.value(), 0.0);
        let hist = Histogram::new(&[1.0]);
        hist.observe(0.5);
        assert_eq!(hist.snapshot().count, 0);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let hist = Histogram::new(&[4.0, 1.0, 2.0, 1.0, f64::INFINITY]);
        assert_eq!(hist.bounds(), &[1.0, 2.0, 4.0]);
        assert_eq!(hist.snapshot().buckets.len(), 4);
    }

    #[test]
    fn metric_name_validation_is_typed_and_panic_free() {
        assert!(validate_metric_name("qukit_core_jobs_total").is_ok());
        assert!(validate_metric_name("_leading:colon_ok").is_ok());
        let err = validate_metric_name("1starts_with_digit").expect_err("digit start");
        assert_eq!(err.name, "1starts_with_digit");
        assert!(validate_metric_name("has-dash").is_err());
        assert!(validate_metric_name("").is_err());
        assert!(validate_label_name("tenant").is_ok());
        assert!(validate_label_name("bad-label").is_err());
        assert!(validate_label_name("").is_err());
    }

    #[test]
    fn invalid_names_register_nothing_and_are_counted() {
        let _guard = crate::test_lock();
        set_enabled(true);
        let registry = MetricsRegistry::default();
        assert!(registry.try_counter("spaced name").is_err());
        // The infallible path hands back a detached metric; only the
        // rejection counter lands in the snapshot.
        let detached = registry.counter("spaced name");
        detached.add(5);
        let snapshot = registry.snapshot();
        assert!(!snapshot.counters.contains_key("spaced name"));
        assert_eq!(snapshot.counters["qukit_obs_invalid_metric_names_total"], 1);
        set_enabled(false);
    }

    #[test]
    fn labeled_names_escape_prometheus_specials() {
        let name =
            labeled_name("qukit_test_total", &[("tenant", "a\"b\\c\nd"), ("priority", "high")])
                .expect("valid");
        assert_eq!(name, "qukit_test_total{tenant=\"a\\\"b\\\\c\\nd\",priority=\"high\"}");
        assert!(labeled_name("qukit_test_total", &[("bad-key", "v")]).is_err());
        assert!(labeled_name("bad name", &[("k", "v")]).is_err());
        assert_eq!(labeled_name("base_total", &[]).expect("bare"), "base_total");
    }

    #[test]
    fn cardinality_guard_folds_into_overflow_series() {
        let _guard = crate::test_lock();
        set_enabled(true);
        let registry = MetricsRegistry::default();
        for i in 0..(MAX_LABEL_SETS + 10) {
            let value = format!("tenant-{i}");
            let counter = registry
                .try_counter_with("qukit_test_card_total", &[("tenant", value.as_str())])
                .expect("valid name");
            counter.inc();
        }
        let snapshot = registry.snapshot();
        let series: Vec<&String> =
            snapshot.counters.keys().filter(|k| k.starts_with("qukit_test_card_total{")).collect();
        // MAX_LABEL_SETS real series plus the single overflow series.
        assert_eq!(series.len(), MAX_LABEL_SETS + 1);
        assert_eq!(snapshot.counters["qukit_test_card_total{overflow=\"true\"}"], 10);
        assert_eq!(snapshot.counters["qukit_obs_label_cardinality_limited_total"], 10);
        set_enabled(false);
    }

    #[test]
    fn help_text_survives_snapshot_and_reset() {
        let registry = MetricsRegistry::default();
        registry.describe("qukit_test_total", "what it counts");
        assert_eq!(registry.snapshot().help["qukit_test_total"], "what it counts");
        registry.reset();
        assert!(registry.snapshot().help.is_empty());
    }
}
