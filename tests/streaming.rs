//! Property-based pins for the bounded-memory streaming primitives
//! (ISSUE 10): the [`Sketch`] quantile error bound its module docs
//! promise, merge/serial equivalence, and progress-snapshot totality.
//!
//! * **Error bound** — for any population and any integer percent `q`,
//!   `quantile(q) ≤ exact ≤ quantile(q) + quantile(q)/32`, where `exact`
//!   is [`agg::percentile`] over the sorted population at the same
//!   floor-index rank. This is the bound the fleet report's straggler
//!   percentiles inherit from the fleet engine's per-worker sketches in
//!   place of a whole-population vector.
//! * **Exact extremes** — `quantile(0)` is the exact minimum and
//!   `quantile(100)` the exact maximum; both are tracked outside the
//!   buckets, so the report's min/max columns carry no sketch error.
//! * **Merge ≡ serial** — partitioning the samples arbitrarily across
//!   per-worker sketches and merging reproduces the serially-recorded
//!   sketch exactly (count, sum, extremes, and every quantile), the
//!   property that makes the streamed fleet report byte-identical at any
//!   `--jobs` width.

use easeio_repro::easeio_trace::agg::percentile;
use easeio_repro::easeio_trace::{ProgressSnapshot, Sketch};
use proptest::prelude::*;

/// Samples spanning the sketch's exact range, every octave up to 2^61,
/// and the all-equal / tiny-population degenerate shapes.
fn populations() -> impl Strategy<Value = Vec<u64>> {
    let wide = (0u64..1024, 0u32..52).prop_map(|(base, shift)| base << shift);
    prop_oneof![
        proptest::collection::vec(wide, 1..200),
        // All-equal: every quantile must collapse to the one value.
        (1usize..50, 0u64..1 << 40).prop_map(|(n, v)| vec![v; n]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The documented 1/32 relative error bound, at every integer
    /// percent, against the exact floor-index percentile.
    #[test]
    fn sketch_quantiles_are_within_the_pinned_error_bound(values in populations()) {
        let mut sketch = Sketch::new();
        for &v in &values {
            sketch.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in 0..=100u64 {
            let est = sketch.quantile(q);
            let exact = percentile(&sorted, q);
            prop_assert!(
                est <= exact,
                "q={q}: estimate {est} overshoots exact {exact}"
            );
            prop_assert!(
                exact <= est + est / 32,
                "q={q}: exact {exact} outside bound {est} + {}",
                est / 32
            );
        }
    }

    /// The extremes are tracked exactly, and the estimates never leave
    /// the [min, max] envelope or decrease in `q`.
    #[test]
    fn sketch_extremes_are_exact_and_quantiles_monotone(values in populations()) {
        let mut sketch = Sketch::new();
        for &v in &values {
            sketch.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sketch.min(), sorted[0]);
        prop_assert_eq!(sketch.max(), *sorted.last().unwrap());
        prop_assert_eq!(sketch.quantile(0), sorted[0]);
        prop_assert_eq!(sketch.quantile(100), *sorted.last().unwrap());
        prop_assert_eq!(sketch.count(), values.len() as u64);
        let mut prev = 0u64;
        for q in 0..=100u64 {
            let est = sketch.quantile(q);
            prop_assert!(est >= prev, "quantile({q}) = {est} < quantile({}) = {prev}", q - 1);
            prop_assert!(est <= sketch.max());
            prev = est;
        }
    }

    /// Merging per-worker sketches (any partition, any order) equals
    /// recording the whole population serially.
    #[test]
    fn merged_worker_sketches_equal_the_serial_sketch(
        values in populations(),
        workers in 1usize..9,
    ) {
        let mut serial = Sketch::new();
        for &v in &values {
            serial.record(v);
        }
        // Deal samples round-robin across `workers` sketches, then merge
        // in reverse order to rule out order dependence.
        let mut shards = vec![Sketch::new(); workers];
        for (i, &v) in values.iter().enumerate() {
            shards[i % workers].record(v);
        }
        let mut merged = Sketch::new();
        for shard in shards.iter().rev() {
            merged.merge(shard);
        }
        prop_assert_eq!(merged.count(), serial.count());
        prop_assert_eq!(merged.sum(), serial.sum());
        prop_assert_eq!(merged.min(), serial.min());
        prop_assert_eq!(merged.max(), serial.max());
        for q in 0..=100u64 {
            prop_assert_eq!(merged.quantile(q), serial.quantile(q), "q = {}", q);
        }
    }

    /// Progress snapshots render totally: any counter combination yields
    /// a well-formed stderr line and a parseable JSONL record, and the
    /// ETA extrapolation never divides by zero or overshoots the phase.
    #[test]
    fn progress_snapshots_render_for_any_counters(
        done in 0u64..1 << 20,
        extra in 0u64..1 << 20,
        wave in 0u64..100,
        waves in 0u64..100,
        elapsed_ms in 0u64..1 << 24,
    ) {
        let s = ProgressSnapshot {
            phase: "devices".into(),
            done,
            total: done + extra,
            wave,
            waves,
            elapsed_ms,
        };
        let line = s.stderr_line();
        prop_assert!(line.starts_with("progress: devices "), "{}", line);
        let json = s.to_json_line();
        let parsed = easeio_repro::easeio_trace::parse_json(&json)
            .map_err(|e| TestCaseError::fail(format!("bad JSON {json}: {e}")))?;
        prop_assert_eq!(
            parsed.get("done").and_then(easeio_repro::easeio_trace::Value::as_u64),
            Some(done)
        );
        if let Some(eta) = s.eta_ms() {
            prop_assert!(extra > 0 && s.rate_per_sec() > 0);
            // ETA is remaining work over observed throughput, exactly.
            prop_assert_eq!(eta, extra * 1000 / s.rate_per_sec());
        }
    }
}
