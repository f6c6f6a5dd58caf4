//! Fixed-bucket log-scale histograms with quantile readout.
//!
//! The bucket grid is fixed at construction (no rebalancing, no allocation
//! after the first record): `SUB` buckets per octave spanning `2^MIN_EXP ..
//! 2^MAX_EXP`, plus one underflow bucket (which also absorbs zero and
//! negative values) and one overflow bucket. With `SUB = 4` the relative
//! quantile resolution is `2^(1/4) - 1 ~ 19%` — plenty for latency/size
//! distributions that span orders of magnitude.

use crate::json::Json;

/// Sub-buckets per octave (power of two).
const SUB: i32 = 4;
/// Smallest representable exponent: values below `2^MIN_EXP` underflow.
const MIN_EXP: i32 = -32;
/// Largest representable exponent: values at or above `2^MAX_EXP` overflow.
const MAX_EXP: i32 = 64;
/// Regular buckets between the bounds.
const N_REGULAR: usize = ((MAX_EXP - MIN_EXP) * SUB) as usize;
/// Total buckets: underflow + regular + overflow.
const N_BUCKETS: usize = N_REGULAR + 2;

/// A log-scale histogram (see the module docs for the bucket layout).
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; N_BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; N_BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// Bucket index of a value: 0 = underflow (incl. zero/negative/NaN),
/// `N_BUCKETS - 1` = overflow.
fn bucket_of(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let idx = (v.log2() * SUB as f64).floor() as i64 - (MIN_EXP * SUB) as i64;
    if idx < 0 {
        0
    } else if idx >= N_REGULAR as i64 {
        N_BUCKETS - 1
    } else {
        idx as usize + 1
    }
}

/// Geometric midpoint of a regular bucket (its representative value).
fn bucket_mid(idx: usize) -> f64 {
    debug_assert!((1..=N_REGULAR).contains(&idx));
    let lo_exp = (idx as f64 - 1.0) / SUB as f64 + MIN_EXP as f64;
    2.0f64.powf(lo_exp + 0.5 / SUB as f64)
}

impl Histogram {
    pub fn record(&mut self, v: f64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0 <= q <= 1`): the representative value of the
    /// bucket containing the `ceil(q * count)`-th smallest observation,
    /// clamped to the observed `[min, max]`. Resolution is one bucket
    /// (`~19%` relative); exact for `q = 0` and `q = 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let rep = if idx == 0 {
                    self.min
                } else if idx == N_BUCKETS - 1 {
                    self.max
                } else {
                    bucket_mid(idx)
                };
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one. The bucket grid is identical by
    /// construction, so this is exact: bucket-wise addition plus merged
    /// count/sum/min/max.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON object with the summary statistics and standard quantiles.
    pub fn to_json(&self) -> Json {
        let (min, max) = if self.count == 0 { (0.0, 0.0) } else { (self.min, self.max) };
        Json::obj([
            ("count", self.count.into()),
            ("mean", self.mean().into()),
            ("min", min.into()),
            ("max", max.into()),
            ("p50", self.quantile(0.5).into()),
            ("p95", self.quantile(0.95).into()),
            ("p99", self.quantile(0.99).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert a quantile is within one bucket (~19% relative) of `expect`.
    fn assert_close(got: f64, expect: f64, what: &str) {
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.20, "{what}: got {got}, expected ~{expect} (rel {rel:.3})");
    }

    #[test]
    fn quantiles_of_uniform_distribution() {
        // 1..=10000 uniformly: p50 ~ 5000, p95 ~ 9500, p99 ~ 9900.
        let mut h = Histogram::default();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 10_000);
        assert_close(h.quantile(0.50), 5_000.0, "p50");
        assert_close(h.quantile(0.95), 9_500.0, "p95");
        assert_close(h.quantile(0.99), 9_900.0, "p99");
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 10_000.0);
        assert!((h.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_log_uniform_distribution() {
        // Powers of 2 from 2^0 to 2^19, one each: p50 between 2^9 and 2^10.
        let mut h = Histogram::default();
        for e in 0..20 {
            h.record(2f64.powi(e));
        }
        let p50 = h.quantile(0.5);
        assert!((2f64.powi(9) * 0.8..=2f64.powi(10) * 1.2).contains(&p50), "p50 = {p50}");
        assert_close(h.quantile(0.95), 2f64.powi(18), "p95");
    }

    #[test]
    fn quantiles_of_bimodal_distribution() {
        // 90 fast (~1ms) + 10 slow (~1s): p50 in the fast mode, p95/p99 in
        // the slow mode — the classic latency-histogram shape.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1e-3);
        }
        for _ in 0..10 {
            h.record(1.0);
        }
        assert_close(h.quantile(0.50), 1e-3, "p50");
        assert_close(h.quantile(0.95), 1.0, "p95");
        assert_close(h.quantile(0.99), 1.0, "p99");
    }

    #[test]
    fn constant_distribution_is_exact() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(42.0);
        }
        // All mass in one bucket; clamping to [min, max] makes it exact.
        assert_eq!(h.quantile(0.5), 42.0);
        assert_eq!(h.quantile(0.99), 42.0);
        assert_eq!(h.min(), 42.0);
        assert_eq!(h.max(), 42.0);
    }

    #[test]
    fn nonpositive_and_extreme_values_do_not_lose_mass() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e-300); // underflows the grid
        h.record(1e300); // overflows the grid
        assert_eq!(h.count(), 4);
        // Quantiles stay within the observed range.
        for q in [0.1, 0.5, 0.9] {
            let v = h.quantile(q);
            assert!((-5.0..=1e300).contains(&v), "q{q} = {v}");
        }
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.to_json().line().contains("\"count\":0"));
    }
}
