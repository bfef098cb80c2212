//! The thread-local instrumentation scope.
//!
//! A scope binds `(collector, trial)` to the current thread so that
//! instrumentation sites deep in the crossbar / attack code can emit
//! events with no plumbing: they call the free functions [`count`],
//! [`observe`] and [`span`], which look up the ambient scope and forward
//! to its collector. With no scope installed the functions are a
//! thread-local read plus an `Option` check — effectively free — which
//! is what lets the hot paths stay instrumented unconditionally.
//!
//! Scopes nest (a stack per thread); the innermost wins. A scope is
//! installed with [`with_scope`] and removed when the closure returns,
//! including on panic.
//!
//! Scopes do **not** cross thread boundaries: work spawned onto other
//! threads (e.g. by `xbar_linalg::par::for_each_chunk`) is not
//! observed. The instrumented call sites in this workspace all run on
//! the thread that owns the trial, so per-trial counters stay
//! thread-count-invariant.

use std::cell::RefCell;
use std::sync::Arc;

use crate::{Collector, SpanToken};

struct ActiveScope {
    collector: Arc<dyn Collector>,
    trial: Option<u64>,
}

thread_local! {
    static SCOPES: RefCell<Vec<ActiveScope>> = const { RefCell::new(Vec::new()) };
}

/// Pops the scope pushed by [`with_scope`], also on unwind.
struct PopOnDrop;

impl Drop for PopOnDrop {
    fn drop(&mut self) {
        SCOPES.with(|scopes| {
            scopes.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `(collector, trial)` installed as the current thread's
/// instrumentation scope.
pub fn with_scope<R>(
    collector: Arc<dyn Collector>,
    trial: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    SCOPES.with(|scopes| {
        scopes.borrow_mut().push(ActiveScope { collector, trial });
    });
    let _pop = PopOnDrop;
    f()
}

fn with_active<R>(f: impl FnOnce(&ActiveScope) -> R) -> Option<R> {
    SCOPES.with(|scopes| scopes.borrow().last().map(f))
}

/// Adds `delta` to counter `name` in the ambient scope (no-op without
/// a scope).
pub fn count(name: &str, delta: u64) {
    with_active(|scope| scope.collector.counter_add(scope.trial, name, delta));
}

/// Records one observation of value series `name` in the ambient scope
/// (no-op without a scope).
pub fn observe(name: &str, value: f64) {
    with_active(|scope| scope.collector.observe(scope.trial, name, value));
}

/// Opens a span named `name` in the ambient scope; the span closes when
/// the returned guard drops. Without a scope the guard is inert.
pub fn span(name: &'static str) -> SpanGuard {
    let open = with_active(|scope| OpenSpan {
        collector: scope.collector.clone(),
        trial: scope.trial,
        name,
        token: scope.collector.span_begin(scope.trial, name),
    });
    SpanGuard { open }
}

struct OpenSpan {
    collector: Arc<dyn Collector>,
    trial: Option<u64>,
    name: &'static str,
    token: SpanToken,
}

/// Closes its span on drop. Returned by [`span`].
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            open.collector.span_end(open.trial, open.name, open.token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counters;

    #[test]
    fn events_without_a_scope_are_dropped() {
        count("nobody", 1);
        observe("nobody", 1.0);
        drop(span("nobody"));
    }

    #[test]
    fn scope_routes_events_to_its_trial() {
        let counters = Arc::new(Counters::new());
        let collector: Arc<dyn Collector> = counters.clone();
        with_scope(collector, Some(7), || {
            count("q", 2);
            observe("p", 0.25);
            let _span = span("work");
        });
        let obs = counters.take_trial(7);
        assert_eq!(obs.counter("q"), 2);
        assert_eq!(obs.values.get("p").unwrap().count, 1);
        assert_eq!(obs.spans.get("work").unwrap().count, 1);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Arc::new(Counters::new());
        let inner = Arc::new(Counters::new());
        with_scope(outer.clone() as Arc<dyn Collector>, Some(0), || {
            count("n", 1);
            with_scope(inner.clone() as Arc<dyn Collector>, Some(1), || {
                count("n", 10);
            });
            count("n", 1);
        });
        assert_eq!(outer.take_trial(0).counter("n"), 2);
        assert_eq!(inner.take_trial(1).counter("n"), 10);
    }

    #[test]
    fn scope_pops_on_panic() {
        let counters = Arc::new(Counters::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scope(counters.clone() as Arc<dyn Collector>, Some(3), || {
                panic!("boom")
            })
        }));
        assert!(result.is_err());
        // The scope is gone: this count goes nowhere.
        count("after", 1);
        assert!(counters.take_trial(3).is_empty());
    }

    #[test]
    fn scope_is_per_thread() {
        let counters = Arc::new(Counters::new());
        with_scope(counters.clone() as Arc<dyn Collector>, Some(0), || {
            std::thread::scope(|scope| {
                scope.spawn(|| count("elsewhere", 5));
            });
            count("here", 1);
        });
        let obs = counters.take_trial(0);
        assert_eq!(obs.counter("here"), 1);
        assert_eq!(obs.counter("elsewhere"), 0);
    }
}
