//! Named atomic counters and gauges, and immutable snapshots of them.
//!
//! A [`MetricsRegistry`] is a lazily-populated map from metric name to an
//! atomic cell. Handles ([`CounterHandle`], [`GaugeHandle`]) are cheap
//! `Arc` clones — look one up once and record against it lock-free; the
//! registry lock is only taken on first registration and on snapshot.
//!
//! Durations are not metrics: a trace span ([`crate::trace`]) records
//! each timed interval, and [`crate::trace::profile`] folds them into
//! per-name count, total, self and max time.
//!
//! Gauges ([`GaugeHandle`]) are signed set/add cells for occupancy-style
//! metrics — cache entries, resident bytes — where the *current level*
//! matters, not a monotone total. `diff` keeps the later snapshot's value
//! for them, since occupancy is a point-in-time reading.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

#[derive(Default)]
struct CounterCell {
    value: AtomicU64,
}

/// A cheap, clonable handle onto one registered counter.
#[derive(Clone)]
pub struct CounterHandle {
    cell: Arc<CounterCell>,
}

impl CounterHandle {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.cell.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct GaugeCell {
    value: AtomicI64,
}

/// A cheap, clonable handle onto one registered gauge.
#[derive(Clone)]
pub struct GaugeHandle {
    cell: Arc<GaugeCell>,
}

impl GaugeHandle {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.value.store(v, Ordering::Relaxed);
    }

    /// Add `v` (possibly negative) to the gauge.
    #[inline]
    pub fn add(&self, v: i64) {
        self.cell.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
        }
    }
}

/// A registry of named metrics. Create one per scope of interest, or use
/// the process-global one via [`crate::global`].
#[derive(Default)]
pub struct MetricsRegistry {
    cells: RwLock<BTreeMap<String, Cell>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Handle for the named counter, registering it on first use.
    ///
    /// Panics if `name` is already registered as a gauge — metric names
    /// are typed, and mixing kinds under one name is an instrumentation
    /// bug worth failing loudly on.
    pub fn counter(&self, name: &str) -> CounterHandle {
        if let Some(cell) = self.cells.read().unwrap().get(name) {
            return match cell {
                Cell::Counter(c) => CounterHandle { cell: c.clone() },
                other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
            };
        }
        let mut cells = self.cells.write().unwrap();
        let cell = cells
            .entry(name.to_owned())
            .or_insert_with(|| Cell::Counter(Arc::new(CounterCell::default())));
        match cell {
            Cell::Counter(c) => CounterHandle { cell: c.clone() },
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Handle for the named gauge, registering it on first use. Panics if
    /// `name` is already registered as another kind.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        if let Some(cell) = self.cells.read().unwrap().get(name) {
            return match cell {
                Cell::Gauge(g) => GaugeHandle { cell: g.clone() },
                other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
            };
        }
        let mut cells = self.cells.write().unwrap();
        let cell = cells
            .entry(name.to_owned())
            .or_insert_with(|| Cell::Gauge(Arc::new(GaugeCell::default())));
        match cell {
            Cell::Gauge(g) => GaugeHandle { cell: g.clone() },
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Immutable copy of every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.cells.read().unwrap();
        let values = cells
            .iter()
            .map(|(name, cell)| {
                let value = match cell {
                    Cell::Counter(c) => MetricValue::Counter(c.value.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => MetricValue::Gauge(g.value.load(Ordering::Relaxed)),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        let cells = self.cells.read().unwrap();
        for cell in cells.values() {
            match cell {
                Cell::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Cell::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            }
        }
    }
}

/// One metric's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A signed occupancy level (cache entries, resident bytes).
    Gauge(i64),
}

/// An immutable, ordered copy of a registry's metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metrics were captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The named counter's value, defaulting to 0 when absent. Panics if
    /// the name is registered as another kind.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            None => 0,
            Some(MetricValue::Counter(v)) => *v,
            Some(_) => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The named gauge's level, defaulting to 0 when absent. Panics if the
    /// name is registered as another kind.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.values.get(name) {
            None => 0,
            Some(MetricValue::Gauge(v)) => *v,
            Some(_) => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// `self - earlier`, per metric. Counters subtract (saturating); a
    /// gauge is a point-in-time level, so the later snapshot's value is
    /// kept. Metrics absent from `earlier` pass through unchanged.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, v)| {
                let dv = match (v, earlier.values.get(name)) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), dv)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("scans");
        c.add(3);
        c.incr();
        reg.counter("scans").add(6); // same cell via re-lookup
        assert_eq!(c.get(), 10);
        assert_eq!(reg.snapshot().counter("scans"), 10);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn reset_zeroes_without_invalidating_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        c.add(9);
        reg.reset();
        assert_eq!(reg.snapshot().counter("n"), 0);
        c.add(1);
        assert_eq!(reg.snapshot().counter("n"), 1);
    }

    #[test]
    fn gauges_set_add_and_keep_later_value_in_diff() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("cache.entries");
        g.set(10);
        g.add(5);
        g.add(-3);
        assert_eq!(g.get(), 12);
        let early = reg.snapshot();
        assert_eq!(early.gauge("cache.entries"), 12);
        assert_eq!(early.gauge("absent"), 0);
        g.set(7);
        let late = reg.snapshot();
        // Occupancy is point-in-time: diff keeps the later level.
        assert_eq!(late.diff(&early).gauge("cache.entries"), 7);
        reg.reset();
        assert_eq!(reg.snapshot().gauge("cache.entries"), 0);
    }

    #[test]
    fn diff_subtracts_counters() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        let early = reg.snapshot();
        reg.counter("a").add(5);
        reg.counter("b").add(1);
        let d = reg.snapshot().diff(&early);
        assert_eq!(d.counter("a"), 5);
        assert_eq!(d.counter("b"), 1);
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn gauge_counter_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("y");
        reg.counter("y");
    }
}
