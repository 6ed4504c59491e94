//! Observability substrate for the Incognito workspace.
//!
//! The paper's entire evaluation (§4.2, Figures 9–12) is an accounting
//! exercise: count table scans, rollups, and nodes searched, and time each
//! phase. This crate is the shared instrumentation layer that makes those
//! numbers first-class across the stack:
//!
//! * [`MetricsRegistry`] — named atomic counters and timers, snapshotted to
//!   an immutable [`MetricsSnapshot`] that supports `diff`.
//! * [`Span`] — RAII monotonic-clock timing; a no-op unless observation is
//!   enabled.
//! * [`Json`] / [`RunReport`] — a hand-rolled (zero-dependency) JSON value
//!   with writer and parser, and the `BENCH_<name>.json` report builder the
//!   bench bins emit alongside their CSVs.
//! * [`trace`] — hierarchical trace trees: nesting [`TraceSpan`]s with
//!   key/value args, exported as Chrome Trace Event Format JSON for
//!   Perfetto / `chrome://tracing` (gated by its own flag, see the module
//!   docs).
//! * [`mem`] — a tracking `#[global_allocator]` wrapping `System`:
//!   per-thread and global allocation counters (live bytes, peak
//!   high-water, alloc counts) that trace spans attribute to themselves
//!   (see the module docs for the always-on-counting / opt-in-attribution
//!   split).
//! * [`Rng`] — a tiny deterministic PRNG (xoshiro256\*\*) used by the data
//!   generators and property-style tests, so the workspace needs no
//!   external `rand` crate. It lives here, at the bottom of the dependency
//!   graph, because every layer's tests want it and a dev-dependency from
//!   `incognito-hierarchy` on `incognito-data` would cycle.
//!
//! # Overhead contract
//!
//! All recording funnels through a single process-global `AtomicBool`
//! (relaxed load). When observation is **disabled** (the default) every
//! probe — counter adds included — is one relaxed load and a branch;
//! instrumented code records at *call* granularity (one add of `n_rows` per
//! scan, never one per row), so the disabled cost is unmeasurable against
//! any real scan or group-by. Benchmarks and examples opt in with
//! [`set_enabled`]`(true)`.

// `deny`, not `forbid`: the `mem` module needs `unsafe impl GlobalAlloc`
// (scoped allow in that file); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub mod json;
pub mod mem;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod span;
pub mod trace;

pub use json::{Json, JsonError};
pub use mem::MemStats;
pub use metrics::{
    CounterHandle, GaugeHandle, MetricValue, MetricsRegistry, MetricsSnapshot, TimerHandle,
    TimerValue,
};
pub use report::RunReport;
pub use rng::Rng;
pub use span::Span;
pub use trace::{TraceRecord, TraceSpan};

/// Process-global switch for all observation. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn observation on or off globally. Instrumentation probes compiled
/// into the engines become live (or revert to no-ops) immediately.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is observation currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry that the engine probes record into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Add `v` to the named global counter. No-op while observation is
/// disabled — one relaxed atomic load.
#[inline]
pub fn add(name: &str, v: u64) {
    if enabled() {
        global().counter(name).add(v);
    }
}

/// Increment the named global counter by one (see [`add`]).
#[inline]
pub fn incr(name: &str) {
    add(name, 1);
}

/// Set the named global gauge to `v` (occupancy-style metrics: cache
/// entries, resident bytes). No-op while observation is disabled.
#[inline]
pub fn gauge_set(name: &str, v: i64) {
    if enabled() {
        global().gauge(name).set(v);
    }
}

/// Add `v` (possibly negative) to the named global gauge. No-op while
/// observation is disabled.
#[inline]
pub fn gauge_add(name: &str, v: i64) {
    if enabled() {
        global().gauge(name).add(v);
    }
}

/// Open a timing span against the named global timer. Returns an inert
/// span (no clock read, nothing recorded on drop) while observation is
/// disabled.
#[inline]
pub fn span(name: &str) -> Span {
    if enabled() {
        Span::active(global().timer(name))
    } else {
        Span::inert()
    }
}

/// Snapshot the global registry (works whether or not observation is
/// currently enabled — it reads whatever has been recorded so far).
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Reset every metric in the global registry to zero. Handy between
/// repetitions in benchmarks; prefer [`MetricsSnapshot::diff`] when runs
/// may interleave.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global enabled flag is shared across the test binary, so this
    // single test exercises the whole disabled/enabled protocol serially.
    #[test]
    fn global_probes_respect_the_enabled_flag() {
        set_enabled(false);
        add("lib.test.counter", 5);
        {
            let _s = span("lib.test.span");
        }
        let before = snapshot();
        assert_eq!(before.counter("lib.test.counter"), 0);
        assert_eq!(before.timer("lib.test.span").count, 0);

        set_enabled(true);
        add("lib.test.counter", 5);
        incr("lib.test.counter");
        {
            let _s = span("lib.test.span");
        }
        set_enabled(false);

        let after = snapshot();
        assert_eq!(after.counter("lib.test.counter"), 6);
        let t = after.timer("lib.test.span");
        assert_eq!(t.count, 1);

        let d = after.diff(&before);
        assert_eq!(d.counter("lib.test.counter"), 6);
        assert_eq!(d.timer("lib.test.span").count, 1);
    }
}
