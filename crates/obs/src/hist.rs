//! Log-linear (HDR-style) latency histogram.
//!
//! Values are bucketed exactly below [`LINEAR_MAX`] and log-linearly above:
//! each power-of-two range is split into [`SUB_BUCKETS`] equal-width linear
//! sub-buckets, giving a worst-case relative quantisation error of
//! `1 / SUB_BUCKETS` (6.25%) across the full `u64` range — plenty for
//! distinguishing p99 from p999 while keeping the bucket array small enough
//! (976 slots) to shard per-thread.
//!
//! The record path is a single relaxed `fetch_add` on the caller's home
//! shard plus one for the running sum; shards are merged only at snapshot
//! time, so merging N per-thread shards yields *exactly* the same counts (and
//! therefore the same percentiles) as if every sample had gone into a single
//! shard. The proptest in this module pins that property down.

use crate::flight::NUM_STAGES;
#[cfg(not(feature = "obs-off"))]
use crate::PaddedU64;
use crate::SHARDS;
#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::sync::{Mutex, OnceLock};

/// Values below this are bucketed exactly (bucket index == value).
pub const LINEAR_MAX: u64 = 16;

/// Linear sub-buckets per power-of-two range.
pub const SUB_BUCKETS: usize = 16;

const SUB_SHIFT: u32 = 4; // log2(SUB_BUCKETS)

/// Total bucket count: 16 exact buckets + 16 sub-buckets for each of the 60
/// power-of-two ranges `[2^4, 2^5) .. [2^63, u64::MAX]`.
pub const NUM_BUCKETS: usize = LINEAR_MAX as usize + (64 - SUB_SHIFT as usize) * SUB_BUCKETS;

/// Maps a value to its bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_SHIFT here
    let sub = ((v >> (exp - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
    LINEAR_MAX as usize + (exp - SUB_SHIFT) as usize * SUB_BUCKETS + sub
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let group = (idx - LINEAR_MAX as usize) / SUB_BUCKETS;
    let sub = (idx - LINEAR_MAX as usize) % SUB_BUCKETS;
    let exp = group as u32 + SUB_SHIFT;
    (1u64 << exp) + sub as u64 * (1u64 << (exp - SUB_SHIFT))
}

/// Representative value reported for a bucket (its midpoint).
pub fn bucket_value(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        return idx as u64;
    }
    let group = (idx - LINEAR_MAX as usize) / SUB_BUCKETS;
    let sub = (idx - LINEAR_MAX as usize) % SUB_BUCKETS;
    let exp = group as u32 + SUB_SHIFT;
    let width = 1u64 << (exp - SUB_SHIFT);
    let lower = (1u64 << exp) + sub as u64 * width;
    lower + (width - 1) / 2
}

#[cfg(not(feature = "obs-off"))]
struct Shard {
    buckets: Box<[AtomicU64]>,
    sum: PaddedU64,
}

#[cfg(not(feature = "obs-off"))]
impl Shard {
    fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Shard {
            buckets: buckets.into_boxed_slice(),
            sum: PaddedU64::default(),
        }
    }
}

/// A tail exemplar: the most recent request that landed in a bucket at or
/// above the exemplar threshold, carrying enough context (flight-recorder
/// trace id + per-stage self-times) to attribute that bucket's latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// Flight-recorder trace id of the exemplified request.
    pub trace_id: u64,
    /// The exact recorded value (not the bucket representative).
    pub value: u64,
    /// Global insertion stamp; larger is newer. Shard merging keeps the
    /// maximum stamp per bucket, so the merge is exactly "newest wins" —
    /// the same answer a single unsharded store would give.
    pub stamp: u64,
    /// Per-stage self-times of the exemplified request, indexed like
    /// [`crate::Stage::ALL`].
    pub stage_self_ns: [u64; NUM_STAGES],
}

/// Per-histogram exemplar slots: one `(shard, bucket)` grid, populated only
/// for values at or above the threshold (the tail — a cold path, so a slot
/// mutex is fine; the warm record path never touches this).
#[cfg(not(feature = "obs-off"))]
struct ExemplarStore {
    threshold: AtomicU64,
    stamp: AtomicU64,
    slots: Vec<Mutex<Option<Exemplar>>>,
}

#[cfg(not(feature = "obs-off"))]
impl ExemplarStore {
    fn attach(&self, shard: usize, v: u64, trace_id: u64, stage_self_ns: &[u64; NUM_STAGES]) {
        if v < self.threshold.load(Ordering::Relaxed) {
            return;
        }
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[shard * NUM_BUCKETS + bucket_index(v)];
        let mut guard = slot.lock().unwrap_or_else(|p| p.into_inner());
        if guard.as_ref().is_none_or(|e| e.stamp < stamp) {
            *guard = Some(Exemplar {
                trace_id,
                value: v,
                stamp,
                stage_self_ns: *stage_self_ns,
            });
        }
    }
}

/// Sharded log-linear histogram. See the module docs for the bucket layout.
#[derive(Default)]
pub struct Histogram {
    #[cfg(not(feature = "obs-off"))]
    shards: Vec<Shard>,
    #[cfg(not(feature = "obs-off"))]
    exemplars: OnceLock<ExemplarStore>,
}

impl Histogram {
    pub fn new() -> Self {
        #[cfg(not(feature = "obs-off"))]
        {
            Histogram {
                shards: (0..SHARDS).map(|_| Shard::new()).collect(),
                exemplars: OnceLock::new(),
            }
        }
        #[cfg(feature = "obs-off")]
        Histogram {}
    }

    /// Turn on exemplar capture for values `>= threshold` (calling again
    /// just updates the threshold). Allocates the slot grid once; recording
    /// below the threshold stays a pure atomic path.
    pub fn enable_exemplars(&self, threshold: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            let store = self.exemplars.get_or_init(|| ExemplarStore {
                threshold: AtomicU64::new(threshold),
                stamp: AtomicU64::new(0),
                slots: (0..SHARDS * NUM_BUCKETS)
                    .map(|_| Mutex::new(None))
                    .collect(),
            });
            store.threshold.store(threshold, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = threshold;
    }

    /// Record one sample and, when exemplars are enabled and `v` clears the
    /// threshold, retain it as the bucket's newest exemplar.
    #[inline]
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64, stage_self_ns: &[u64; NUM_STAGES]) {
        self.record(v);
        #[cfg(not(feature = "obs-off"))]
        if let Some(store) = self.exemplars.get() {
            store.attach(crate::shard_idx(), v, trace_id, stage_self_ns);
        }
        #[cfg(feature = "obs-off")]
        let _ = (trace_id, stage_self_ns);
    }

    /// Exemplar-capturing twin of [`record_in_shard`](Self::record_in_shard)
    /// — test hook for exercising the exemplar merge deterministically.
    #[doc(hidden)]
    pub fn record_exemplar_in_shard(
        &self,
        shard: usize,
        v: u64,
        trace_id: u64,
        stage_self_ns: &[u64; NUM_STAGES],
    ) {
        self.record_in_shard(shard, v);
        #[cfg(not(feature = "obs-off"))]
        if let Some(store) = self.exemplars.get() {
            store.attach(shard % SHARDS, v, trace_id, stage_self_ns);
        }
        #[cfg(feature = "obs-off")]
        let _ = (shard, trace_id, stage_self_ns);
    }

    /// Merge exemplars across shards: for every bucket with at least one
    /// exemplar, the newest (maximum stamp) wins — exactly what a single
    /// unsharded store would hold. Returns `(bucket_index, exemplar)` pairs
    /// in bucket order.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        #[cfg(not(feature = "obs-off"))]
        {
            let Some(store) = self.exemplars.get() else {
                return Vec::new();
            };
            let mut out = Vec::new();
            for bucket in 0..NUM_BUCKETS {
                let mut best: Option<Exemplar> = None;
                for shard in 0..SHARDS {
                    let guard = store.slots[shard * NUM_BUCKETS + bucket]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner());
                    if let Some(e) = *guard {
                        if best.as_ref().is_none_or(|b| b.stamp < e.stamp) {
                            best = Some(e);
                        }
                    }
                }
                if let Some(e) = best {
                    out.push((bucket, e));
                }
            }
            out
        }
        #[cfg(feature = "obs-off")]
        Vec::new()
    }

    /// Record one sample. Two relaxed atomic adds on the caller's home shard.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            let shard = &self.shards[crate::shard_idx()];
            shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            shard.sum.0.fetch_add(v, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Record into an explicit shard — test/bench hook for exercising the
    /// shard-merge path deterministically from a single thread.
    #[doc(hidden)]
    pub fn record_in_shard(&self, shard: usize, v: u64) {
        let shard = shard % SHARDS;
        #[cfg(not(feature = "obs-off"))]
        {
            let shard = &self.shards[shard];
            shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            shard.sum.0.fetch_add(v, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = (shard, v);
    }

    /// Merge all shards into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        #[cfg(not(feature = "obs-off"))]
        {
            let mut counts = vec![0u64; NUM_BUCKETS];
            let mut total = 0u64;
            let mut sum = 0u64;
            for shard in &self.shards {
                for (acc, b) in counts.iter_mut().zip(shard.buckets.iter()) {
                    let c = b.load(Ordering::Relaxed);
                    *acc += c;
                    total += c;
                }
                sum += shard.sum.0.load(Ordering::Relaxed);
            }
            HistogramSnapshot { counts, total, sum }
        }
        #[cfg(feature = "obs-off")]
        HistogramSnapshot {
            counts: vec![0u64; NUM_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

/// An owned, immutable merge of a histogram's shards.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Value at quantile `q` in `[0, 1]` (bucket representative). Returns 0
    /// for an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank of the target sample, 1-based, matching the "nearest-rank"
        // definition the bench harness uses
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(idx);
            }
        }
        bucket_value(NUM_BUCKETS - 1)
    }

    /// Per-bucket difference against an earlier snapshot of the same
    /// histogram — used to isolate the samples recorded in a window of time.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(earlier.counts.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total = counts.iter().sum();
        HistogramSnapshot {
            counts,
            total,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_is_monotonic_and_exact_below_linear_max() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_value(v as usize), v);
        }
        let mut last = 0usize;
        for exp in 4..63 {
            for off in [0u64, 1, 7, (1 << exp) - 1] {
                let v = (1u64 << exp) + off.min((1 << exp) - 1);
                let idx = bucket_index(v);
                assert!(idx >= last, "index must not decrease: v={v} idx={idx}");
                assert!(idx < NUM_BUCKETS);
                last = idx;
            }
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_value_relative_error_bounded() {
        // representative is within one sub-bucket width of the true value
        for &v in &[17u64, 100, 999, 12_345, 987_654, 10u64.pow(9), u64::MAX / 3] {
            let rep = bucket_value(bucket_index(v));
            let err = rep.abs_diff(v) as f64 / v as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "v={v} rep={rep} err={err}"
            );
        }
    }

    #[test]
    fn percentile_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        if !crate::enabled() {
            assert_eq!(snap.count(), 0);
            return;
        }
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum(), 500_500);
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = snap.percentile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "q={q} got={got} err={err}");
        }
    }

    #[test]
    fn delta_isolates_new_samples() {
        let h = Histogram::new();
        h.record(10);
        h.record(10_000);
        let before = h.snapshot();
        for _ in 0..100 {
            h.record(500);
        }
        let d = h.snapshot().delta(&before);
        if crate::enabled() {
            assert_eq!(d.count(), 100);
            assert_eq!(d.sum(), 50_000);
            assert_eq!(bucket_index(d.percentile(0.5)), bucket_index(500));
        }
    }

    #[test]
    fn exemplars_respect_threshold_and_newest_wins() {
        let h = Histogram::new();
        assert!(h.exemplars().is_empty(), "no exemplars before enabling");
        h.enable_exemplars(100);
        h.record_with_exemplar(50, 1, &[0; NUM_STAGES]); // below threshold
        h.record_with_exemplar(5_000, 2, &[7; NUM_STAGES]);
        h.record_with_exemplar(5_001, 3, &[9; NUM_STAGES]); // same bucket, newer
        let ex = h.exemplars();
        if !crate::enabled() {
            assert!(ex.is_empty());
            return;
        }
        assert_eq!(ex.len(), 1);
        let (bucket, e) = ex[0];
        assert_eq!(bucket, bucket_index(5_001));
        assert_eq!(e.trace_id, 3);
        assert_eq!(e.value, 5_001);
        assert_eq!(e.stage_self_ns, [9; NUM_STAGES]);
    }

    proptest! {
        /// Satellite: merged per-thread shards must report the same p50/p99
        /// as a single-shard oracle within one bucket's relative error.
        #[test]
        fn merged_shards_match_single_shard_oracle(
            samples in proptest::collection::vec(1u64..1_000_000_000, 1..400),
        ) {
            if !crate::enabled() {
                return Ok(());
            }
            let sharded = Histogram::new();
            let oracle = Histogram::new();
            for (i, &v) in samples.iter().enumerate() {
                sharded.record_in_shard(i % SHARDS, v);
                oracle.record_in_shard(0, v);
            }
            let a = sharded.snapshot();
            let b = oracle.snapshot();
            prop_assert_eq!(a.count(), b.count());
            prop_assert_eq!(a.sum(), b.sum());
            for q in [0.5f64, 0.9, 0.99, 0.999] {
                let (pa, pb) = (a.percentile(q), b.percentile(q));
                // merging is exact at bucket granularity, so the two must
                // agree to the bucket — stronger than the one-bucket bound
                prop_assert_eq!(pa, pb, "q={}", q);
            }
            // and both must track the true nearest-rank percentile within
            // one sub-bucket of relative error
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5f64, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let got = a.percentile(q);
                let err = got.abs_diff(truth) as f64 / truth as f64;
                prop_assert!(
                    err <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                    "q={} truth={} got={} err={}", q, truth, got, err
                );
            }
        }

        /// Satellite: exemplars merged across shards must equal a
        /// single-shard oracle — newest (max stamp) wins per bucket, and
        /// both must agree with a sequential last-writer-wins model.
        #[test]
        fn merged_exemplars_match_single_shard_oracle(
            samples in proptest::collection::vec(1u64..1_000_000, 1..300),
        ) {
            if !crate::enabled() {
                return Ok(());
            }
            let sharded = Histogram::new();
            let oracle = Histogram::new();
            sharded.enable_exemplars(0);
            oracle.enable_exemplars(0);
            let mut model = std::collections::BTreeMap::new();
            for (i, &v) in samples.iter().enumerate() {
                let trace_id = i as u64 + 1;
                let stages = [v; NUM_STAGES];
                sharded.record_exemplar_in_shard(i % SHARDS, v, trace_id, &stages);
                oracle.record_exemplar_in_shard(0, v, trace_id, &stages);
                model.insert(bucket_index(v), (trace_id, v));
            }
            let a = sharded.exemplars();
            let b = oracle.exemplars();
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.len(), model.len());
            for (((ba, ea), (bb, eb)), (bm, (tid, v))) in
                a.iter().zip(b.iter()).zip(model.iter())
            {
                prop_assert_eq!(ba, bb);
                prop_assert_eq!(ba, bm);
                prop_assert_eq!(ea.trace_id, eb.trace_id);
                prop_assert_eq!(ea.trace_id, *tid);
                prop_assert_eq!(ea.value, *v);
                prop_assert_eq!(ea.stamp, eb.stamp);
            }
        }
    }
}
