//! Deterministic fixed-bucket histogram/quantile sketches.
//!
//! Fleet-scale aggregation (ISSUE 10) must not hold whole-population
//! vectors: a 100k-device fleet's straggler percentiles were previously
//! computed by sorting a `Vec<u64>` of every device's wall-clock. A
//! [`Sketch`] replaces that vector with a fixed array of log-spaced
//! buckets — HdrHistogram-style, 32 sub-buckets per octave — so memory is
//! O(1) per distribution regardless of population size, and quantile
//! estimates carry a pinned relative error bound of 1/32.
//!
//! Determinism is load-bearing: bucket counts are pure functions of the
//! recorded values, and [`Sketch::merge`] is a bucket-wise sum, which is
//! commutative and associative. Per-worker sketches merged in *any* order
//! therefore equal the sketch of the whole population recorded serially —
//! the property that keeps the fleet report byte-identical at any
//! `--jobs` width.
//!
//! ## Error bound (pinned by proptest in `tests/streaming.rs`)
//!
//! Values below [`LINEAR_MAX`] land in exact unit buckets. A larger value
//! `v` with most-significant bit `m` lands in a bucket of width
//! `2^(m-5)`, whose lower bound `L` satisfies `L ≥ 32 · 2^(m-5)`; hence
//!
//! ```text
//! quantile(q) ≤ exact_percentile(q) ≤ quantile(q) + quantile(q)/32
//! ```
//!
//! where `exact_percentile` is [`crate::agg::percentile`] over the sorted
//! population at the same floor-index rank. The sketch's quantiles are
//! monotone in `q` and never exceed the exactly-tracked [`Sketch::max`].

/// Sub-buckets per octave: 32 (5 bits), giving relative error ≤ 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Values strictly below this are recorded exactly (unit-width buckets).
pub const LINEAR_MAX: u64 = 2 * SUB; // 64

/// Total bucket count: 64 exact + 32 per octave for msb 6..=63.
pub const BUCKETS: usize = (LINEAR_MAX as usize) + 32 * (64 - (SUB_BITS as usize + 1));

/// Bucket index for a value. Exact below [`LINEAR_MAX`]; otherwise the
/// value's top `SUB_BITS + 1` significant bits select the bucket.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB; // 0..32 within the octave
    LINEAR_MAX as usize + ((msb - SUB_BITS - 1) * 32 + sub as u32) as usize
}

/// Smallest value mapping to bucket `idx` — the quantile estimate for any
/// sample in that bucket (estimate ≤ sample, within sample/32 of it).
fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_MAX as usize;
    let octave = (rel / 32) as u32;
    let sub = (rel % 32) as u64;
    (SUB + sub) << (octave + 1)
}

/// A bounded-memory distribution sketch over `u64` samples.
///
/// ~15 KB flat, independent of how many samples it absorbs.
#[derive(Clone)]
pub struct Sketch {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
    min: u64,
    sum: u64,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sketch")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("sum", &self.sum)
            .finish_non_exhaustive()
    }
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u64; BUCKETS]),
            count: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Absorbs one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
        self.sum = self.sum.saturating_add(v);
    }

    /// Bucket-wise sum of another sketch into this one. Commutative and
    /// associative: merging per-worker sketches in any order reproduces
    /// the serially-recorded population sketch exactly.
    pub fn merge(&mut self, other: &Sketch) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample (0 on an empty sketch).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample (0 on an empty sketch).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Quantile estimate at integer percent `q` (clamped to 100), using
    /// the same floor-index rank as [`crate::agg::percentile`]:
    /// `rank = (count - 1) * q / 100`. Returns the lower bound of the
    /// bucket holding the rank-th sample, so the estimate never exceeds
    /// the exact percentile and is monotone in `q`. 0 on an empty sketch.
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count - 1) * q.min(100) / 100;
        if rank == self.count - 1 {
            // The top rank is the maximum, which is tracked exactly.
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                // The floor of the first bucket can undershoot the exact
                // minimum only within the same 1/32 bound; clamp to the
                // tracked min so quantile(0) is exact.
                return bucket_floor(idx).max(self.min());
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::percentile;

    #[test]
    fn empty_sketch_is_all_zeros() {
        let s = Sketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.min(), 0);
        for q in [0, 50, 99, 100] {
            assert_eq!(s.quantile(q), 0);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = Sketch::new();
        for v in [0u64, 1, 5, 31, 63] {
            s.record(v);
        }
        assert_eq!(s.quantile(0), 0);
        assert_eq!(s.quantile(50), 5);
        assert_eq!(s.quantile(100), 63);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 63);
        assert_eq!(s.sum(), 100);
    }

    #[test]
    fn bucket_roundtrip_floor_is_a_lower_bound_within_a_32nd() {
        for v in (0..200u64)
            .chain((1u64..60).map(|k| 1u64 << k))
            .chain((1u64..60).map(|k| (1u64 << k) + (1 << k) / 3))
            .chain([u64::MAX, u64::MAX / 2, 1_000_000_007])
        {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v, "floor {floor} > value {v}");
            assert!(
                v - floor <= floor / 32,
                "bucket too wide at {v}: floor {floor}"
            );
        }
    }

    #[test]
    fn quantiles_match_exact_percentiles_within_bound() {
        let mut s = Sketch::new();
        let mut pop: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 11).collect();
        for &v in &pop {
            s.record(v);
        }
        pop.sort_unstable();
        for q in [0u64, 10, 50, 90, 99, 100] {
            let exact = percentile(&pop, q);
            let est = s.quantile(q);
            assert!(est <= exact, "q{q}: est {est} > exact {exact}");
            assert!(
                exact <= est + est / 32,
                "q{q}: est {est} too far from {exact}"
            );
        }
        // Monotone and bounded by the exact max.
        assert!(s.quantile(50) <= s.quantile(90));
        assert!(s.quantile(90) <= s.quantile(99));
        assert!(s.quantile(99) <= s.max());
        assert_eq!(s.quantile(100), s.max());
    }

    #[test]
    fn merge_equals_serial_recording_in_any_order() {
        let pop: Vec<u64> = (0..300u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) >> 20)
            .collect();
        let mut serial = Sketch::new();
        for &v in &pop {
            serial.record(v);
        }
        // Three shards, merged in a non-worker order.
        let mut shards: Vec<Sketch> = (0..3).map(|_| Sketch::new()).collect();
        for (i, &v) in pop.iter().enumerate() {
            shards[i % 3].record(v);
        }
        let mut merged = Sketch::new();
        for k in [2usize, 0, 1] {
            merged.merge(&shards[k]);
        }
        assert_eq!(merged.count(), serial.count());
        assert_eq!(merged.max(), serial.max());
        assert_eq!(merged.min(), serial.min());
        assert_eq!(merged.sum(), serial.sum());
        for q in 0..=100u64 {
            assert_eq!(merged.quantile(q), serial.quantile(q), "q{q}");
        }
    }
}
