//! Observability scopes: a private registry installed on a thread.
//!
//! A [`Scope`] owns a fresh [`MetricsRegistry`]: its own counters, gauges,
//! histograms, and span ring buffer. [`Scope::install`] makes it the
//! current registry of the calling thread until the returned guard drops.
//! While a scope is installed on a thread, everything recorded there goes
//! to the scope — every free function (`counter_add`, `observe`,
//! `gauge_set`, …), every `span!` and its span-metric histogram — and
//! [`crate::enabled`] is true on that thread whatever the process-wide
//! switch says. Threads without a scope record into the process default
//! behind [`crate::registry`], gated by [`crate::set_enabled`].
//!
//! Scopes are how one command, executor, or test counts only its own
//! work while others run in the same process. Work that hops threads
//! carries the scope the same way it carries a [`crate::TraceContext`]:
//! capture [`Scope::current`] before the hop and install it on the other
//! side.
//!
//! While no scope is installed anywhere, the disabled path stays one
//! relaxed atomic load and a branch: the thread-local is read only once
//! the process-wide count of installed scope guards is nonzero.

use crate::registry::{MetricsRegistry, Snapshot, GATE, SCOPE_UNIT};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

thread_local! {
    /// The registry of the scope installed on this thread, if any.
    static INSTALLED: RefCell<Option<Arc<MetricsRegistry>>> = const { RefCell::new(None) };
}

/// Whether a scope is installed on the calling thread.
pub(crate) fn installed_here() -> bool {
    INSTALLED.try_with(|slot| slot.borrow().is_some()).unwrap_or(false)
}

/// The registry of the scope installed on the calling thread, if any.
pub(crate) fn installed() -> Option<Arc<MetricsRegistry>> {
    INSTALLED.try_with(|slot| slot.borrow().clone()).ok().flatten()
}

/// A handle to a private metrics registry; clones share it.
///
/// # Examples
///
/// ```
/// let scope = qukit_obs::Scope::new();
/// {
///     let _installed = scope.install();
///     qukit_obs::counter_inc("qukit_demo_scoped_total");
/// }
/// assert_eq!(scope.snapshot().counters["qukit_demo_scoped_total"], 1);
/// assert!(!qukit_obs::registry().snapshot().counters.contains_key("qukit_demo_scoped_total"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scope {
    registry: Arc<MetricsRegistry>,
}

impl Scope {
    /// A scope with an empty registry of its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scope installed on the calling thread, if any — capture it
    /// before handing work to another thread.
    pub fn current() -> Option<Self> {
        if GATE.load(Ordering::Relaxed) < SCOPE_UNIT {
            return None;
        }
        installed().map(|registry| Self { registry })
    }

    /// Installs this scope on the calling thread; the returned guard
    /// restores the previously installed scope (or none) when dropped.
    pub fn install(&self) -> ScopeGuard {
        crate::span::init_epoch();
        let prev = INSTALLED.with(|slot| slot.replace(Some(Arc::clone(&self.registry))));
        GATE.fetch_add(SCOPE_UNIT, Ordering::SeqCst);
        ScopeGuard { prev, _per_thread: PhantomData }
    }

    /// The scope's own registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Freezes the scope's metrics and trace buffer.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// RAII removal for [`Scope::install`]. Not `Send`: an installed scope is
/// a per-thread property.
#[derive(Debug)]
pub struct ScopeGuard {
    prev: Option<Arc<MetricsRegistry>>,
    _per_thread: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = INSTALLED.try_with(|slot| *slot.borrow_mut() = prev);
        GATE.fetch_sub(SCOPE_UNIT, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scoped_recording_stays_in_its_scope() {
        let scope = Scope::new();
        {
            let _installed = scope.install();
            assert!(crate::enabled());
            crate::counter_add("qukit_obs_test_scoped_total", 2);
            crate::gauge_set("qukit_obs_test_scoped_gauge", 1.5);
            crate::observe("qukit_obs_test_scoped_seconds", 1e-4);
            crate::counter_inc_with("qukit_obs_test_scoped_labeled_total", &[("tenant", "a")]);
            let _span = crate::span!("test.scoped", step = 1);
        }
        let snapshot = scope.snapshot();
        assert_eq!(snapshot.counters["qukit_obs_test_scoped_total"], 2);
        assert_eq!(snapshot.gauges["qukit_obs_test_scoped_gauge"], 1.5);
        assert_eq!(snapshot.histograms["qukit_obs_test_scoped_seconds"].count, 1);
        assert_eq!(snapshot.counters["qukit_obs_test_scoped_labeled_total{tenant=\"a\"}"], 1);
        assert_eq!(snapshot.trace.len(), 1);
        assert_eq!(snapshot.trace[0].name, "test.scoped");
        // Nothing leaked into the process default.
        let default = crate::registry().snapshot();
        assert!(!default.counters.contains_key("qukit_obs_test_scoped_total"));
        assert!(!default.trace.iter().any(|event| event.name == "test.scoped"));
    }

    #[test]
    fn span_metric_histograms_go_to_the_scope() {
        let scope = Scope::new();
        {
            let _installed = scope.install();
            let _span = crate::Span::new("test.scoped.metric", "")
                .with_metric("qukit_obs_test_scoped_span_seconds");
        }
        assert_eq!(scope.snapshot().histograms["qukit_obs_test_scoped_span_seconds"].count, 1);
        let default = crate::registry().snapshot();
        assert!(!default.histograms.contains_key("qukit_obs_test_scoped_span_seconds"));
    }

    #[test]
    fn guards_nest_and_restore_the_previous_scope() {
        let outer = Scope::new();
        let inner = Scope::new();
        assert!(Scope::current().is_none());
        {
            let _outer = outer.install();
            {
                let _inner = inner.install();
                crate::counter_inc("qukit_obs_test_nested_total");
            }
            crate::counter_inc("qukit_obs_test_nested_total");
            crate::counter_inc("qukit_obs_test_nested_total");
            let current = Scope::current().expect("outer scope installed");
            assert!(std::ptr::eq(current.registry(), outer.registry()));
        }
        assert!(Scope::current().is_none());
        assert_eq!(inner.snapshot().counters["qukit_obs_test_nested_total"], 1);
        assert_eq!(outer.snapshot().counters["qukit_obs_test_nested_total"], 2);
    }

    #[test]
    fn scopes_on_concurrent_threads_do_not_mix() {
        let scopes: Vec<Scope> = (0..4).map(|_| Scope::new()).collect();
        let handles: Vec<_> = scopes
            .iter()
            .enumerate()
            .map(|(index, scope)| {
                let scope = scope.clone();
                std::thread::spawn(move || {
                    let _installed = scope.install();
                    for _ in 0..=index {
                        crate::counter_inc("qukit_obs_test_threaded_total");
                        std::thread::sleep(Duration::from_micros(50));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        for (index, scope) in scopes.iter().enumerate() {
            let recorded = scope.snapshot().counters["qukit_obs_test_threaded_total"];
            assert_eq!(recorded, index as u64 + 1);
        }
    }

    #[test]
    fn a_scope_elsewhere_does_not_enable_this_thread() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        let scope = Scope::new();
        let _installed = scope.install();
        let other = std::thread::spawn(|| {
            crate::counter_inc("qukit_obs_test_unscoped_total");
            (crate::enabled(), Scope::current().is_none())
        })
        .join()
        .expect("thread panicked");
        assert_eq!(other, (false, true));
        let default = crate::registry().snapshot();
        assert!(!default.counters.contains_key("qukit_obs_test_unscoped_total"));
    }

    #[test]
    fn set_enabled_reports_the_previous_switch() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        assert!(!crate::set_enabled(true));
        assert!(crate::set_enabled(true));
        assert!(crate::set_enabled(false));
        assert!(!crate::enabled());
    }
}
