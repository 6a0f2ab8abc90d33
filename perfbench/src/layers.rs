//! The benchmark's own per-layer timers.
//!
//! A [`span`] wraps one call into a layer's public API. Spans nest per
//! thread: each records its total time and its self time (total minus
//! the time of the spans opened inside it), so a layer's self time never
//! double-counts a child layer. Recording is off unless the run is
//! traced; a disabled span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLES: Mutex<BTreeMap<&'static str, Vec<Sample>>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Child time accumulated under each open span, innermost last.
    static CHILDREN: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall time from open to close.
    pub total: f64,
    /// `total` minus the spans opened inside this one on the same thread.
    pub own: f64,
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named after the layer call it wraps.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None };
    }
    CHILDREN.with(|c| c.borrow_mut().push(0.0));
    Span {
        name,
        start: Some(Instant::now()),
    }
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total = start.elapsed().as_secs_f64();
        let children = CHILDREN.with(|c| {
            let mut stack = c.borrow_mut();
            let children = stack.pop().unwrap_or(0.0);
            if let Some(parent) = stack.last_mut() {
                *parent += total;
            }
            children
        });
        record(
            self.name,
            Sample {
                total,
                own: (total - children).max(0.0),
            },
        );
    }
}

/// Records a sample measured elsewhere (e.g. a per-call time derived
/// from a timed batch).
pub fn record(name: &'static str, sample: Sample) {
    if enabled() {
        let mut all = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        all.entry(name).or_default().push(sample);
    }
}

/// Takes every recorded sample, leaving the recorder empty.
pub fn take() -> BTreeMap<&'static str, Vec<Sample>> {
    std::mem::take(&mut *SAMPLES.lock().unwrap_or_else(|e| e.into_inner()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_disabled_spans_are_free() {
        set_enabled(true);
        take();
        {
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(20));
            timed("inner", || std::thread::sleep(Duration::from_millis(30)));
        }
        set_enabled(false);
        timed("ignored", || ());
        let all = take();
        assert!(!all.contains_key("ignored"));
        let outer = all["outer"][0];
        let inner = all["inner"][0];
        assert!(inner.total >= 0.030 && (inner.total - inner.own).abs() < 1e-12);
        assert!(outer.total >= inner.total + 0.020);
        assert!((outer.own - (outer.total - inner.total)).abs() < 1e-9);
    }
}
