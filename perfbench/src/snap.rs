//! Per-layer counters read from the program's public stats snapshots.

use alps_core::ObjectStats;
use alps_runtime::metrics::Histogram;

use crate::runner::{metric, Metric};

/// Counters summed from one or more `ObjectStats` snapshots. Histogram
/// means are carried as sums so snapshots of several shards add up.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoreSnap {
    calls: f64,
    mgr_wakeups: f64,
    drain_n: f64,
    drain_sum: f64,
    spin: f64,
    park: f64,
    lane_pushes: f64,
    accept_n: f64,
    accept_sum: f64,
    service_n: f64,
    service_sum: f64,
    retries: f64,
    timeouts: f64,
    restarts: f64,
}

impl CoreSnap {
    pub fn add(&mut self, s: &ObjectStats) {
        let n = |h: &Histogram| h.count() as f64;
        let sum = |h: &Histogram| h.mean() * h.count() as f64;
        self.calls += s.calls() as f64;
        self.mgr_wakeups += s.mgr_wakeups() as f64;
        self.drain_n += n(s.drain_batch());
        self.drain_sum += sum(s.drain_batch());
        self.spin += s.spin_resolved() as f64;
        self.park += s.park_resolved() as f64;
        self.lane_pushes += s.lane_pushes() as f64;
        self.accept_n += n(s.accept_wait());
        self.accept_sum += sum(s.accept_wait());
        self.service_n += n(s.service_time());
        self.service_sum += sum(s.service_time());
        self.retries += s.retries() as f64;
        self.timeouts += s.timeouts() as f64;
        self.restarts += s.restarts() as f64;
    }

    /// Add another snapshot's counters (e.g. one reported by a server).
    pub fn absorb(&mut self, other: &CoreSnap) {
        let mut other = other.clone();
        for (a, b) in self.fields().into_iter().zip(other.fields()) {
            *a += *b;
        }
    }

    fn fields(&mut self) -> [&mut f64; 14] {
        [
            &mut self.calls,
            &mut self.mgr_wakeups,
            &mut self.drain_n,
            &mut self.drain_sum,
            &mut self.spin,
            &mut self.park,
            &mut self.lane_pushes,
            &mut self.accept_n,
            &mut self.accept_sum,
            &mut self.service_n,
            &mut self.service_sum,
            &mut self.retries,
            &mut self.timeouts,
            &mut self.restarts,
        ]
    }

    /// Space-separated fields, for the server child's report.
    pub fn to_line(&self) -> String {
        let mut copy = self.clone();
        let v: Vec<String> = copy.fields().iter().map(|f| f.to_string()).collect();
        v.join(" ")
    }

    pub fn from_line(line: &str) -> Option<CoreSnap> {
        let mut snap = CoreSnap::default();
        let mut words = line.split_whitespace();
        for f in snap.fields() {
            *f = words.next()?.parse().ok()?;
        }
        words.next().is_none().then_some(snap)
    }

    /// The `core.*` per-layer metrics except `core.call_self_us`.
    /// Histogram times are runtime ticks, which are µs on real executors.
    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| (b > 0.0).then(|| a / b);
        vec![
            metric(
                "core.mgr_wakeups_per_call",
                "ratio",
                ratio(self.mgr_wakeups, self.calls),
            ),
            metric(
                "core.drain_batch_mean",
                "calls",
                ratio(self.drain_sum, self.drain_n),
            ),
            metric(
                "core.spin_share",
                "ratio",
                ratio(self.spin, self.spin + self.park),
            ),
            metric(
                "core.lane_share",
                "ratio",
                ratio(self.lane_pushes, self.calls),
            ),
            metric(
                "core.accept_wait_mean_us",
                "us",
                ratio(self.accept_sum, self.accept_n),
            ),
            metric(
                "core.service_mean_us",
                "us",
                ratio(self.service_sum, self.service_n),
            ),
            metric(
                "core.retries_per_call",
                "ratio",
                ratio(self.retries, self.calls),
            ),
            metric("core.timeouts", "count", Some(self.timeouts)),
            metric("core.restarts", "count", Some(self.restarts)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_round_trips() {
        let mut a = CoreSnap {
            calls: 10.0,
            drain_sum: 2.5,
            restarts: 1.0,
            ..CoreSnap::default()
        };
        assert_eq!(CoreSnap::from_line(&a.to_line()), Some(a.clone()));
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.calls, 20.0);
        assert_eq!(CoreSnap::from_line("1 2 3"), None);
        assert_eq!(CoreSnap::from_line(&format!("{} 7", b.to_line())), None);
    }
}
