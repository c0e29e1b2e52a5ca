//! Spans recorded by the benchmark's own code around the calls it makes
//! into each layer. They stay in memory during a run and are written out
//! once, at exit. Only durations are compared, so spans recorded by the
//! server child need no clock alignment with the parent.

use std::collections::HashMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use crate::measure::median;

/// Marks a request id whose spans are recorded. Both the untraced and the
/// traced runs pass a request id as a call argument, so both run the same
/// program; only this bit differs.
pub const TRACED: u64 = 1 << 62;

/// One timed interval: `call` in a caller, `body` in an entry body, or
/// `setup.*` around a set-up step.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request id (for `setup.*`, the set-up repetition).
    pub req: u64,
    /// Start, in ns since this process's first span.
    pub start_ns: u64,
    pub dur_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's span epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A span that started at `start_ns` and ends now.
pub fn close(name: &'static str, req: u64, start_ns: u64) -> Span {
    Span {
        name,
        req,
        start_ns,
        dur_ns: now_ns().saturating_sub(start_ns),
    }
}

/// Median over request ids that have both an `outer` and an `inner` span
/// of their duration difference, in µs: the outer span's self time when
/// the inner span is its only child.
pub fn median_self_us(spans: &[Span], outer: &str, inner: &str) -> Option<f64> {
    let inner: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == inner)
        .map(|s| (s.req, s.dur_ns))
        .collect();
    let selfs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == outer)
        .filter_map(|s| Some(s.dur_ns.saturating_sub(*inner.get(&s.req)?) as f64 / 1e3))
        .collect();
    median(&selfs)
}

/// Median duration in ms of the spans named `name`.
pub fn median_ms(spans: &[Span], name: &str) -> Option<f64> {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    median(&d)
}

/// Write spans as CSV (`name,req,start_ns,dur_ns`) under a `#` header.
pub fn write_csv(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {header}")?;
    writeln!(w, "name,req,start_ns,dur_ns")?;
    for s in spans {
        writeln!(w, "{},{},{},{}", s.name, s.req, s.start_ns, s.dur_ns)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, req: u64, dur_ns: u64) -> Span {
        Span {
            name,
            req,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_joins_by_request_id() {
        let spans = [
            span("call", 1, 5_000),
            span("call", 2, 9_000),
            span("call", 3, 7_000),
            span("body", 2, 1_000),
            span("body", 1, 2_000),
        ];
        // Request 3 has no body span and is left out: selfs are 3 and 8 µs.
        assert_eq!(median_self_us(&spans, "call", "body"), Some(5.5));
        assert_eq!(median_self_us(&spans[..3], "call", "body"), None);
        assert_eq!(median_ms(&spans, "body"), Some(0.0015));
    }
}
