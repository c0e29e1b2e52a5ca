//! Lightweight measurement utilities used by the benchmark harness and by
//! property tests that validate scheduling invariants from event logs.
//!
//! # Memory ordering
//!
//! Every atomic in this module uses `Ordering::Relaxed`, and that is a
//! deliberate contract, not an oversight: all updates are single-location
//! atomic RMWs (`fetch_add` / `fetch_max`), so no increment can be lost
//! regardless of ordering — Relaxed only permits *reordering* against
//! other memory, never torn or dropped RMWs. Nothing here is used to
//! publish data: readers treat the values as advisory telemetry, and a
//! multi-field read (e.g. [`Histogram::mean`], which divides `sum` by the
//! bucket total) may observe a momentarily inconsistent cross-field
//! snapshot while writers race. Code that needs a happens-before edge
//! must get it from the runtime's own synchronization (parking, channel
//! handoff), never from these counters.
//!
//! A second contract covers the CAS-loop updates, [`Histogram`]'s running
//! maximum and the saturating adds of [`Histogram::merge`]: those use
//! `fetch_update(Relaxed, Relaxed, ..)` — a CAS loop whose closure reads
//! only the prior value of the same location it writes.
//! Relaxed is sufficient for the same single-location reason as above:
//! CAS failure reloads the current value, so a racing update can make the
//! loop retry but never publish a value computed from a stale read, and
//! the success/failure orderings need not fence anything because no
//! *other* location's data is being published through the word.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A monotonically increasing counter, cheap to share across processes.
///
/// ```
/// use alps_runtime::metrics::Counter;
/// let c = Counter::new();
/// c.add(2);
/// c.incr();
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A log-bucketed histogram of `u64` samples (e.g. wait times in ticks).
///
/// Buckets are powers of two: bucket *i* holds samples in
/// `[2^i, 2^(i+1))`, with bucket 0 holding 0 and 1. Percentile estimates
/// return the upper bound of the bucket containing the requested rank —
/// coarse, but dependency-free and lock-free on the record path.
///
/// ```
/// use alps_runtime::metrics::Histogram;
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) >= 2);
/// assert!(h.max() >= 100);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Kept to a single unconditional RMW (the bucket
    /// increment): the count is derived from the buckets, and the sum/max
    /// updates are skipped when they would not change anything — `record`
    /// sits on the per-call fast path of the object layer.
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()).saturating_sub(1).min(63) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        if v != 0 {
            self.sum.fetch_add(v, Ordering::Relaxed);
            // Conditional-update idiom (see the module doc's second
            // ordering contract): the closure returns `None` when the
            // current max already covers `v`, which skips the write —
            // and the RMW — entirely on the common path; a losing race
            // reloads and re-decides, so no larger value is ever
            // overwritten by a smaller one.
            let _ = self
                .max
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
                    (v > prev).then_some(v)
                });
        }
    }

    /// Number of recorded samples (sum over the buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / c as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Fold another histogram into this one, bucket by bucket. Built for
    /// the multi-process case — a coordinator summing per-connection or
    /// per-process histograms that each ran for a long time — so every
    /// addition **saturates** instead of wrapping: a counter pinned at
    /// `u64::MAX` reads as "a lot", while a wrapped one reads as "almost
    /// nothing" and silently inverts every derived percentile. `other` may
    /// be concurrently recording; this reads a relaxed snapshot (the same
    /// advisory-telemetry contract as every reader in this module).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v != 0 {
                let _ = mine.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
                    Some(prev.saturating_add(v))
                });
            }
        }
        let s = other.sum.load(Ordering::Relaxed);
        if s != 0 {
            let _ = self
                .sum
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
                    Some(prev.saturating_add(s))
                });
        }
        let m = other.max.load(Ordering::Relaxed);
        let _ = self
            .max
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
                (m > prev).then_some(m)
            });
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0 < p <= 100`). Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max()
    }
}

/// A timestamped event log for invariant checking in tests.
///
/// Property tests record semantic events (reader entered, writer entered,
/// …) with the runtime clock, then replay the log to assert safety
/// invariants such as "no reader overlaps a writer".
///
/// ```
/// use alps_runtime::metrics::EventLog;
/// let log: EventLog<&'static str> = EventLog::new();
/// log.record(10, "start");
/// log.record(20, "stop");
/// let evs = log.snapshot();
/// assert_eq!(evs, vec![(10, "start"), (20, "stop")]);
/// ```
#[derive(Debug)]
pub struct EventLog<E> {
    events: Mutex<Vec<(u64, E)>>,
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventLog<E> {
    /// New empty log.
    pub fn new() -> EventLog<E> {
        EventLog {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Append an event at time `t`.
    pub fn record(&self, t: u64, e: E) {
        self.events.lock().push((t, e));
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Clone> EventLog<E> {
    /// Copy of all events in record order.
    pub fn snapshot(&self) -> Vec<(u64, E)> {
        self.events.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 11, "clones share state");
    }

    #[test]
    fn histogram_zero_and_one_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn histogram_mean_and_max() {
        let h = Histogram::new();
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert!((h.mean() - 4.0).abs() < 1e-9);
        assert_eq!(h.max(), 6);
    }

    #[test]
    fn histogram_percentiles_are_monotonic() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn histogram_merge_folds_counts_and_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [2u64, 4] {
            a.record(v);
        }
        for v in [8u64, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 1000);
        assert!((a.mean() - (2.0 + 4.0 + 8.0 + 1000.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        let a = Histogram::new();
        let b = Histogram::new();
        // Drive one bucket and the sum near the top, then fold in more:
        // a wrapping add would land near zero and invert every percentile.
        a.buckets[3].store(u64::MAX - 1, Ordering::Relaxed);
        a.sum.store(u64::MAX - 1, Ordering::Relaxed);
        b.buckets[3].store(10, Ordering::Relaxed);
        b.sum.store(10, Ordering::Relaxed);
        b.max.store(12, Ordering::Relaxed);
        a.merge(&b);
        assert_eq!(a.buckets[3].load(Ordering::Relaxed), u64::MAX);
        assert_eq!(a.sum.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(a.max(), 12);
    }

    #[test]
    fn event_log_round_trip() {
        let log = EventLog::new();
        assert!(log.is_empty());
        log.record(1, 'a');
        log.record(2, 'b');
        assert_eq!(log.len(), 2);
        assert_eq!(log.snapshot(), vec![(1, 'a'), (2, 'b')]);
    }
}
