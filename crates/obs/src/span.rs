//! Lightweight spans: monotonic timing, parent/child nesting per thread,
//! causal trace contexts, and a bounded ring-buffer event log.
//!
//! # Trace contexts
//!
//! A [`TraceContext`] names a position in a causal tree: the trace it
//! belongs to and the span new children should attach under. Contexts are
//! minted by mixing a process-global counter with [`crate::rng::mix64`] —
//! the one seeded-RNG helper of the stack — so ids are deterministic per process
//! run and carry no wall-clock or host state. Propagation is explicit:
//! [`TraceContext::attach`] installs a context on the current thread and
//! restores the previous one when the guard drops, and every [`Span`]
//! opened while a context is attached records the context's trace id and
//! links to the innermost open span as its parent.
//!
//! Ids are 53-bit so they survive a JSON number roundtrip exactly.

use crate::registry::{enabled, with_current, DURATION_BUCKETS};
use crate::rng::mix64;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Capacity of each registry's trace ring buffer; the oldest events are
/// dropped once it is full (counted by [`trace_events_dropped`]).
pub const TRACE_CAPACITY: usize = 4096;

/// One completed span, as stored in the trace ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name, dot-separated by convention (`"transpile.pass"`).
    pub name: String,
    /// Free-form `key=value` detail string (may be empty).
    pub detail: String,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: usize,
    /// Start time in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Trace this span belongs to (0 = no trace context attached).
    pub trace_id: u64,
    /// This span's own id (0 only for legacy/untraced events).
    pub span_id: u64,
    /// Id of the enclosing span (0 = root of its trace/thread).
    pub parent_id: u64,
}

impl TraceEvent {
    /// An event with zeroed ids — convenience for tests and decoding of
    /// pre-tracing snapshots.
    pub fn untraced(
        name: impl Into<String>,
        detail: impl Into<String>,
        depth: usize,
        start_us: u64,
        duration_us: u64,
    ) -> Self {
        Self {
            name: name.into(),
            detail: detail.into(),
            depth,
            start_us,
            duration_us,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Pins the trace epoch to "now" if it is not set yet. Called by
/// [`crate::set_enabled`] and [`crate::Scope::install`] so timestamps
/// taken before the first span (a job's `submitted_at`, say) cannot
/// precede the epoch.
pub(crate) fn init_epoch() {
    let _ = epoch();
}

/// Number of trace events silently evicted from the current registry's
/// ring buffer (this thread's scope, else the process default) since its
/// last reset. Surfaced in snapshots as the
/// `qukit_obs_trace_events_dropped_total` counter.
pub fn trace_events_dropped() -> u64 {
    with_current(|registry| registry.trace_events_dropped())
}

/// Fixed seed for the id sequence: deterministic per process run, no
/// ambient state.
const ID_SEED: u64 = 0x71c9_4a2f_8e5d_3b07;

static ID_SEQUENCE: AtomicU64 = AtomicU64::new(0);

/// Mints the next process-unique 53-bit id (never 0). 53 bits so an id
/// survives a JSON `f64` number roundtrip exactly.
pub fn next_id() -> u64 {
    loop {
        let n = ID_SEQUENCE.fetch_add(1, Ordering::Relaxed);
        let id = mix64(n.wrapping_add(ID_SEED)) >> 11;
        if id != 0 {
            return id;
        }
    }
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// (trace_id, span_id) of the innermost attached context/open span.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A causal position: the trace being recorded and the span under which
/// new child spans attach. See the module docs for the propagation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole tree (one per job in the executor).
    pub trace_id: u64,
    /// The span new children link to as their parent.
    pub span_id: u64,
}

impl TraceContext {
    /// Mints a fresh trace. The root span id equals the trace id, so the
    /// root context can be reconstructed from the trace id alone (this is
    /// what makes journaled trace ids recovery-stable).
    pub fn mint() -> Self {
        let id = next_id();
        Self { trace_id: id, span_id: id }
    }

    /// The root context of an existing trace (e.g. one replayed from a
    /// journal): children attach directly under the trace root.
    pub fn root_of(trace_id: u64) -> Self {
        Self { trace_id, span_id: trace_id }
    }

    /// The context installed on the current thread, if any.
    pub fn current() -> Option<Self> {
        let (trace_id, span_id) = CURRENT.with(Cell::get);
        if trace_id == 0 {
            None
        } else {
            Some(Self { trace_id, span_id })
        }
    }

    /// Installs this context on the current thread; the returned guard
    /// restores the previous context when dropped. Attach explicitly on
    /// every thread that continues a trace (workers, timeout helpers).
    pub fn attach(self) -> ContextGuard {
        let prev = CURRENT.with(|c| c.replace((self.trace_id, self.span_id)));
        ContextGuard { prev }
    }
}

/// RAII restore for [`TraceContext::attach`]. Not `Send`: a context is a
/// per-thread property.
#[derive(Debug)]
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An RAII timing scope. Created by [`crate::span!`]; records a
/// [`TraceEvent`] (and optionally a histogram observation) when dropped.
///
/// When recording is disabled at creation time the span is inert: no clock
/// read, no allocation, nothing recorded on drop.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: String,
    detail: String,
    metric: Option<String>,
    depth: usize,
    start_us: u64,
    start: Instant,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    prev_current: (u64, u64),
}

impl Span {
    /// Opens a span (inert while recording is disabled). The span adopts
    /// the thread's current [`TraceContext`] (if any) and becomes the
    /// current parent for spans opened inside it on this thread.
    pub fn new(name: impl Into<String>, detail: impl Into<String>) -> Self {
        if !enabled() {
            return Self::inert();
        }
        let depth = DEPTH.with(|d| {
            let current = d.get();
            d.set(current + 1);
            current
        });
        let span_id = next_id();
        let (trace_id, parent_id) = CURRENT.with(Cell::get);
        let prev_current = CURRENT.with(|c| c.replace((trace_id, span_id)));
        let reference = epoch();
        let start = Instant::now();
        let start_us = start.duration_since(reference).as_micros() as u64;
        Self {
            inner: Some(SpanInner {
                name: name.into(),
                detail: detail.into(),
                metric: None,
                depth,
                start_us,
                start,
                trace_id,
                span_id,
                parent_id,
                prev_current,
            }),
        }
    }

    /// A span that records nothing (what [`Span::new`] returns while
    /// recording is disabled).
    pub fn inert() -> Self {
        Self { inner: None }
    }

    /// Also observes the span duration into the named histogram
    /// (registered with [`DURATION_BUCKETS`]) when the span closes, in the
    /// same registry as the span's event.
    pub fn with_metric(mut self, histogram: &str) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.metric = Some(histogram.to_owned());
        }
        self
    }

    /// This span's id (0 for inert spans) — use it to parent manual
    /// events onto a live span.
    pub fn span_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.span_id)
    }

    /// Time elapsed since the span opened (zero for inert spans).
    pub fn elapsed(&self) -> Duration {
        self.inner.as_ref().map(|inner| inner.start.elapsed()).unwrap_or_default()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let duration = inner.start.elapsed();
        DEPTH.with(|d| d.set(inner.depth));
        CURRENT.with(|c| c.set(inner.prev_current));
        with_current(|registry| {
            if let Some(metric) = &inner.metric {
                registry.histogram(metric, &DURATION_BUCKETS).observe(duration.as_secs_f64());
            }
            registry.push_event(TraceEvent {
                name: inner.name,
                detail: inner.detail,
                depth: inner.depth,
                start_us: inner.start_us,
                duration_us: duration.as_micros() as u64,
                trace_id: inner.trace_id,
                span_id: inner.span_id,
                parent_id: inner.parent_id,
            });
        });
    }
}

/// Records a completed span with explicit timing and explicit ids, for
/// phases whose start and end happen on different threads (a job's
/// queued-time span, the whole-job root span). A no-op while recording is
/// disabled. `start` instants predating the trace epoch clamp to 0.
#[allow(clippy::too_many_arguments)]
pub fn record_span_at(
    name: impl Into<String>,
    detail: impl Into<String>,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    depth: usize,
    start: Instant,
    duration: Duration,
) {
    if !enabled() {
        return;
    }
    let start_us = start.checked_duration_since(epoch()).unwrap_or_default().as_micros() as u64;
    let event = TraceEvent {
        name: name.into(),
        detail: detail.into(),
        depth,
        start_us,
        duration_us: duration.as_micros() as u64,
        trace_id,
        span_id,
        parent_id,
    };
    with_current(|registry| registry.push_event(event));
}

/// Copies the current registry's trace buffer (this thread's scope, else
/// the process default), oldest event first.
pub fn snapshot_trace() -> Vec<TraceEvent> {
    with_current(|registry| registry.trace())
}

/// Drains the current registry's trace buffer, oldest event first.
pub fn drain_trace() -> Vec<TraceEvent> {
    with_current(|registry| registry.drain_trace())
}

/// Opens a [`Span`]: `span!("transpile.pass", pass = name)`.
///
/// The first argument is the span name; the remaining `key = value` pairs
/// are rendered into the detail string with `Display`. Bind the result
/// (`let _span = span!(...)`) so the scope ends where you expect. While
/// recording is disabled nothing is formatted or timed.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::Span::new($name, String::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::Span::new(
                $name,
                vec![$(format!(concat!(stringify!($key), "={}"), $value)),+].join(" "),
            )
        } else {
            $crate::Span::inert()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn spans_nest_and_log_in_completion_order() {
        let _guard = crate::test_lock();
        set_enabled(true);
        crate::reset();
        {
            let _outer = crate::span!("test.outer", layer = "a");
            let _inner = crate::span!("test.inner");
        }
        let trace = drain_trace();
        assert_eq!(trace.len(), 2);
        // Inner closes first.
        assert_eq!(trace[0].name, "test.inner");
        assert_eq!(trace[0].depth, 1);
        assert_eq!(trace[1].name, "test.outer");
        assert_eq!(trace[1].depth, 0);
        assert_eq!(trace[1].detail, "layer=a");
        assert!(trace[1].start_us <= trace[0].start_us);
        // Even without an attached context, parent links connect spans.
        assert_eq!(trace[0].parent_id, trace[1].span_id);
        assert_eq!(trace[1].trace_id, 0);
        crate::reset();
        set_enabled(false);
    }

    #[test]
    fn with_metric_observes_duration_histogram() {
        let _guard = crate::test_lock();
        set_enabled(true);
        crate::reset();
        {
            let _span = Span::new("test.metric", "").with_metric("qukit_obs_test_span_seconds");
        }
        let snapshot = crate::registry().snapshot();
        assert_eq!(snapshot.histograms["qukit_obs_test_span_seconds"].count, 1);
        crate::reset();
        set_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        set_enabled(false);
        crate::registry().drain_trace();
        {
            let span = crate::span!("test.disabled", ignored = 1);
            assert_eq!(span.elapsed(), Duration::ZERO);
            assert_eq!(span.span_id(), 0);
        }
        assert!(snapshot_trace().is_empty());
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let _guard = crate::test_lock();
        set_enabled(true);
        crate::reset();
        assert_eq!(trace_events_dropped(), 0);
        for i in 0..(TRACE_CAPACITY + 10) {
            let _span = crate::span!("test.flood", index = i);
        }
        let trace = drain_trace();
        assert_eq!(trace.len(), TRACE_CAPACITY);
        // The oldest events were dropped, and the loss is counted.
        assert_eq!(trace[0].detail, "index=10");
        assert_eq!(trace_events_dropped(), 10);
        crate::reset();
        assert_eq!(trace_events_dropped(), 0);
        set_enabled(false);
    }

    #[test]
    fn contexts_attach_propagate_and_restore() {
        let _guard = crate::test_lock();
        set_enabled(true);
        crate::reset();
        assert_eq!(TraceContext::current(), None);
        let root = TraceContext::mint();
        assert_eq!(root.span_id, root.trace_id);
        {
            let _attached = root.attach();
            assert_eq!(TraceContext::current(), Some(root));
            {
                let _span = crate::span!("test.ctx.child");
                // The open span became the current parent.
                let inner = TraceContext::current().expect("context");
                assert_eq!(inner.trace_id, root.trace_id);
                assert_ne!(inner.span_id, root.span_id);
            }
            assert_eq!(TraceContext::current(), Some(root));
        }
        assert_eq!(TraceContext::current(), None);
        let trace = drain_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].trace_id, root.trace_id);
        assert_eq!(trace[0].parent_id, root.span_id);
        assert_ne!(trace[0].span_id, 0);
        crate::reset();
        set_enabled(false);
    }

    #[test]
    fn id_sequence_is_pinned() {
        let ids: Vec<u64> = (0..3).map(|n| mix64(ID_SEED.wrapping_add(n)) >> 11).collect();
        assert_eq!(ids, vec![4_887_013_969_417_564, 6_181_415_891_578_793, 721_042_498_122_977]);
    }

    #[test]
    fn minted_ids_are_unique_nonzero_and_json_safe() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(id < (1 << 53), "id fits in an f64 mantissa");
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn record_span_at_clamps_pre_epoch_starts() {
        let _guard = crate::test_lock();
        set_enabled(true);
        crate::reset();
        let early = Instant::now();
        record_span_at("test.manual", "k=v", 7, 9, 0, 0, early, Duration::from_micros(25));
        let trace = drain_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].trace_id, 7);
        assert_eq!(trace[0].span_id, 9);
        assert_eq!(trace[0].duration_us, 25);
        crate::reset();
        set_enabled(false);
    }
}
