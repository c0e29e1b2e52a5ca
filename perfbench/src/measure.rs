//! The benchmark's own statistics: the seeded input generator, latency
//! reservoirs, percentiles from raw samples, and medians over windows.
//!
//! Nothing here comes from `alps_runtime::metrics`: its `Histogram` keeps
//! log2 buckets, which cannot resolve a change smaller than 2×.

/// SplitMix64: a small, fast, seedable generator. The benchmark derives
/// every key and operation stream from it, so one `--seed` always yields
/// the same calls.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed` (one stream per
    /// caller, so callers draw independent sequences).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Inverse-CDF sampler over a fixed set of keys with Zipf(s) weights by
/// rank: the key at rank r has weight 1/(r+1)^s.
#[derive(Clone, Debug)]
pub struct Zipf {
    keys: Vec<i64>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// `keys[i]` has popularity rank `ranks[i]` (0 = most popular); a
    /// subset of a larger ranking keeps its global ranks.
    pub fn over(keys: Vec<i64>, ranks: &[usize], s: f64) -> Zipf {
        assert!(!keys.is_empty() && keys.len() == ranks.len());
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = ranks
            .iter()
            .map(|&r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { keys, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> i64 {
        let u = rng.next_f64();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[i]
    }
}

/// A fixed-capacity uniform sample (Vitter's algorithm R) of one caller's
/// latencies in one window. The capacity keeps the benchmark's own memory
/// independent of the program's speed, so `peak_rss_mb` tracks the
/// program and not the number of calls it completed.
#[derive(Clone, Debug)]
pub struct Reservoir {
    seen: u64,
    buf: Vec<u32>,
    rng: Rng,
}

/// Latency samples kept per caller per window.
pub const RESERVOIR_CAP: usize = 16_384;

impl Reservoir {
    pub fn new(stream: u64) -> Reservoir {
        Reservoir {
            seen: 0,
            buf: Vec::new(),
            rng: Rng::new(0x5EED_0F5A_3B1E, stream),
        }
    }

    /// Offer one latency in nanoseconds (saturating at `u32::MAX`).
    pub fn push(&mut self, ns: u64) {
        let v = u32::try_from(ns).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.buf.len() < RESERVOIR_CAP {
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(RESERVOIR_CAP);
            }
            self.buf.push(v);
        } else {
            let j = self.rng.below(self.seen);
            if (j as usize) < RESERVOIR_CAP {
                self.buf[j as usize] = v;
            }
        }
    }
}

/// A percentile read from raw samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The sample value at the percentile.
    pub value: f64,
    /// Raw samples that entered the computation.
    pub samples: usize,
    /// Raw samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `[0, 1]`) over weighted samples: the
/// smallest value whose cumulative weight reaches `q` of the total. With
/// unit weights this is the textbook nearest-rank percentile. Each
/// caller's reservoir is weighted by `seen / kept`, so callers that
/// completed more calls count for more, exactly as in the full stream.
pub fn weighted_percentile(samples: &mut [(u32, f64)], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by_key(|s| s.0);
    let total: f64 = samples.iter().map(|s| s.1).sum();
    let target = q * total;
    let mut acc = 0.0;
    for (i, &(v, w)) in samples.iter().enumerate() {
        acc += w;
        // Relative slack absorbs float rounding in the running sum.
        if acc >= target * (1.0 - 1e-12) {
            return Some(Pct {
                value: f64::from(v),
                samples: samples.len(),
                beyond: samples.len() - 1 - i,
            });
        }
    }
    let last = samples.len() - 1;
    Some(Pct {
        value: f64::from(samples[last].0),
        samples: samples.len(),
        beyond: 0,
    })
}

/// Pool the reservoirs of every caller for one window into weighted
/// samples.
pub fn pool(reservoirs: &[&Reservoir]) -> Vec<(u32, f64)> {
    let mut out = Vec::new();
    for r in reservoirs {
        if r.buf.is_empty() {
            continue;
        }
        let w = r.seen as f64 / r.buf.len() as f64;
        out.extend(r.buf.iter().map(|&v| (v, w)));
    }
    out
}

/// Median of a non-empty list (mean of the two middle values when even).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_streams() {
        let zipf = Zipf::over((0..64).collect(), &(0..64).collect::<Vec<_>>(), 1.0);
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..10_000)
                .map(|_| (zipf.sample(&mut r), r.below(100)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(8, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
    }

    #[test]
    fn zipf_ranks_by_popularity() {
        let zipf = Zipf::over(vec![10, 20, 30], &[0, 1, 2], 1.0);
        let mut r = Rng::new(1, 0);
        let mut counts = [0u32; 3];
        for _ in 0..60_000 {
            counts[(zipf.sample(&mut r) / 10 - 1) as usize] += 1;
        }
        // Weights 1, 1/2, 1/3 → shares 6/11, 3/11, 2/11.
        let share = |c: u32| f64::from(c) / 60_000.0;
        assert!((share(counts[0]) - 6.0 / 11.0).abs() < 0.01);
        assert!((share(counts[1]) - 3.0 / 11.0).abs() < 0.01);
        assert!((share(counts[2]) - 2.0 / 11.0).abs() < 0.01);
    }

    #[test]
    fn percentiles_of_known_inputs() {
        let mut s: Vec<(u32, f64)> = (1..=100).rev().map(|v| (v, 1.0)).collect();
        let p50 = weighted_percentile(&mut s, 0.50).unwrap();
        let p99 = weighted_percentile(&mut s, 0.99).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(weighted_percentile(&mut s, 1.0).unwrap().value, 100.0);
        assert_eq!(weighted_percentile(&mut s, 0.0).unwrap().value, 1.0);

        let mut s: Vec<(u32, f64)> = (1..=1000).map(|v| (v, 1.0)).collect();
        let p99 = weighted_percentile(&mut s, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));

        // A sample of weight 3 stands for three calls.
        let mut s = vec![(1, 1.0), (2, 3.0)];
        assert_eq!(weighted_percentile(&mut s, 0.25).unwrap().value, 1.0);
        assert_eq!(weighted_percentile(&mut s, 0.26).unwrap().value, 2.0);
        assert!(weighted_percentile(&mut [], 0.5).is_none());
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(0);
        let n = 10 * RESERVOIR_CAP as u64;
        for v in 0..n {
            r.push(v);
        }
        assert_eq!(r.seen, n);
        assert_eq!(r.buf.len(), RESERVOIR_CAP);
        let mut s = pool(&[&r]);
        let p50 = weighted_percentile(&mut s, 0.5).unwrap().value;
        assert!((p50 / n as f64 - 0.5).abs() < 0.02, "p50 {p50}");
    }

    #[test]
    fn median_of_known_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
