//! Per-request cost profiles and per-deployment aggregates.
//!
//! The flight recorder ([`crate::flight`]) is the one per-request record: it
//! accumulates each request's [`CostProfile`] — what the request *did*
//! (rows scanned, bytes decoded, storage seeks, pre-aggregation hits) and
//! where its time went (exact stage self-times) — and
//! [`FlightScope::finish`](crate::FlightScope::finish) hands it back. The
//! engine folds it per deployment into the [`ProfileStore`], which answers
//! "what does this *deployment* cost on average", rendered in an
//! `EXPLAIN ANALYZE` style. [`CostProfile`] is `Copy` and fixed-size, so
//! the warm path stays allocation-free.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::flight::{Stage, NUM_STAGES};
use crate::labels::{LabelId, LabelRegistry, MAX_LABEL_SLOTS};

/// What one request did, in fixed-size counters. The `stage_ns` slots are
/// indexed by [`Stage::index`] and hold the flight recorder's exact
/// self-time attribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// Rows visited by window scans and seeks (storage-layer attribution).
    pub rows_scanned: u64,
    /// Encoded bytes copied into the scan arena.
    pub bytes_decoded: u64,
    /// Storage index seeks.
    pub storage_seeks: u64,
    /// Windows served by the pre-aggregation fast path.
    pub preagg_hits: u64,
    /// Windows that fell back to a raw scan despite a pre-aggregator.
    pub preagg_skips: u64,
    /// Transient-fault retries.
    pub retries: u64,
    /// Replica failovers.
    pub failovers: u64,
    /// 1 when the request entered degraded (buckets-only) mode.
    pub degraded: u64,
    /// High-water mark of the request scratch arena, in bytes.
    pub scratch_high_water_bytes: u64,
    /// Exclusive per-stage self time, `sum + other <= total_ns`.
    pub stage_ns: [u64; NUM_STAGES],
    /// End-to-end request time.
    pub total_ns: u64,
}

impl CostProfile {
    /// Sum of the per-stage self times.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Time outside every instrumented stage:
    /// `stage_sum_ns() + other_ns() == total_ns`.
    pub fn other_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.stage_sum_ns())
    }

    /// Accumulate `other` into `self` (high-water fields take the max).
    pub fn merge(&mut self, other: &CostProfile) {
        self.rows_scanned += other.rows_scanned;
        self.bytes_decoded += other.bytes_decoded;
        self.storage_seeks += other.storage_seeks;
        self.preagg_hits += other.preagg_hits;
        self.preagg_skips += other.preagg_skips;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.degraded += other.degraded;
        self.scratch_high_water_bytes = self
            .scratch_high_water_bytes
            .max(other.scratch_high_water_bytes);
        for (a, b) in self.stage_ns.iter_mut().zip(other.stage_ns.iter()) {
            *a += *b;
        }
        self.total_ns += other.total_ns;
    }
}

// ---------------------------------------------------------------------------
// Per-deployment aggregates
// ---------------------------------------------------------------------------

/// One deployment's running totals. Cache-line aligned so two deployments
/// folding concurrently never false-share.
#[repr(align(64))]
#[derive(Default)]
struct SlotAgg {
    requests: AtomicU64,
    rows_scanned: AtomicU64,
    bytes_decoded: AtomicU64,
    storage_seeks: AtomicU64,
    preagg_hits: AtomicU64,
    preagg_skips: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    degraded: AtomicU64,
    scratch_high_water: AtomicU64,
    stage_ns: [AtomicU64; NUM_STAGES],
    total_ns: AtomicU64,
}

/// Fixed-size per-deployment profile aggregates, indexed by
/// [`LabelId`] slot. Bounded memory by construction: `MAX_LABEL_SLOTS`
/// cache-line-aligned slots, no maps.
pub struct ProfileStore {
    slots: Box<[SlotAgg]>,
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileStore {
    pub fn new() -> Self {
        ProfileStore {
            slots: (0..MAX_LABEL_SLOTS).map(|_| SlotAgg::default()).collect(),
        }
    }

    /// The process-wide store the online engine folds into.
    pub fn global() -> &'static ProfileStore {
        static GLOBAL: OnceLock<ProfileStore> = OnceLock::new();
        GLOBAL.get_or_init(ProfileStore::new)
    }

    /// Fold one finished request profile into `id`'s running totals.
    pub fn fold(&self, id: LabelId, p: &CostProfile) {
        #[cfg(not(feature = "obs-off"))]
        {
            let s = &self.slots[id.index()];
            s.requests.fetch_add(1, Ordering::Relaxed);
            s.rows_scanned.fetch_add(p.rows_scanned, Ordering::Relaxed);
            s.bytes_decoded
                .fetch_add(p.bytes_decoded, Ordering::Relaxed);
            s.storage_seeks
                .fetch_add(p.storage_seeks, Ordering::Relaxed);
            s.preagg_hits.fetch_add(p.preagg_hits, Ordering::Relaxed);
            s.preagg_skips.fetch_add(p.preagg_skips, Ordering::Relaxed);
            s.retries.fetch_add(p.retries, Ordering::Relaxed);
            s.failovers.fetch_add(p.failovers, Ordering::Relaxed);
            s.degraded.fetch_add(p.degraded, Ordering::Relaxed);
            s.scratch_high_water
                .fetch_max(p.scratch_high_water_bytes, Ordering::Relaxed);
            for (slot, v) in s.stage_ns.iter().zip(p.stage_ns.iter()) {
                slot.fetch_add(*v, Ordering::Relaxed);
            }
            s.total_ns.fetch_add(p.total_ns, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = (id, p);
    }

    /// `(request count, accumulated profile)` for `id`'s slot.
    pub fn aggregate(&self, id: LabelId) -> (u64, CostProfile) {
        let s = &self.slots[id.index()];
        let mut p = CostProfile {
            rows_scanned: s.rows_scanned.load(Ordering::Relaxed),
            bytes_decoded: s.bytes_decoded.load(Ordering::Relaxed),
            storage_seeks: s.storage_seeks.load(Ordering::Relaxed),
            preagg_hits: s.preagg_hits.load(Ordering::Relaxed),
            preagg_skips: s.preagg_skips.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            scratch_high_water_bytes: s.scratch_high_water.load(Ordering::Relaxed),
            stage_ns: [0; NUM_STAGES],
            total_ns: s.total_ns.load(Ordering::Relaxed),
        };
        for (i, slot) in s.stage_ns.iter().enumerate() {
            p.stage_ns[i] = slot.load(Ordering::Relaxed);
        }
        (s.requests.load(Ordering::Relaxed), p)
    }

    /// Sum `aggregate` over every slot (the reconciliation side of the
    /// `workload_profile` gate: must match the global counters).
    pub fn aggregate_all(&self) -> (u64, CostProfile) {
        let mut requests = 0u64;
        let mut total = CostProfile::default();
        for i in 0..MAX_LABEL_SLOTS {
            let (r, p) = self.aggregate(LabelId::from_index(i));
            requests += r;
            total.merge(&p);
        }
        // merge() sums total_ns but maxes high-water; both are what the
        // reconciliation wants.
        (requests, total)
    }

    /// `EXPLAIN ANALYZE`-style render of one deployment's accumulated
    /// profile, resolved against the process-wide deployment registry.
    /// Renders a clean "no samples" section when the deployment never
    /// served a request (or is unknown).
    pub fn render_explain_analyze(&self, deployment: &str) -> String {
        let id = LabelRegistry::deployments().lookup(deployment);
        let (requests, p) = match id {
            Some(id) => self.aggregate(id),
            None => (0, CostProfile::default()),
        };
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE deployment \"{deployment}\"");
        if requests == 0 {
            let _ = writeln!(out, "  (no samples)");
            return out;
        }
        let avg_us = p.total_ns as f64 / requests as f64 / 1_000.0;
        let _ = writeln!(
            out,
            "  requests={requests}  total={:.2}ms  avg={avg_us:.1}us/req",
            p.total_ns as f64 / 1e6
        );
        let denom = p.total_ns.max(1) as f64;
        for stage in Stage::ALL {
            let ns = p.stage_ns[stage.index()];
            let _ = writeln!(
                out,
                "  stage {:<16} total={:>10.3}ms  avg={:>8.1}us  ({:>4.1}%)",
                stage.name(),
                ns as f64 / 1e6,
                ns as f64 / requests as f64 / 1e3,
                100.0 * ns as f64 / denom,
            );
        }
        let other = p.other_ns();
        let _ = writeln!(
            out,
            "  stage {:<16} total={:>10.3}ms  avg={:>8.1}us  ({:>4.1}%)",
            "other",
            other as f64 / 1e6,
            other as f64 / requests as f64 / 1e3,
            100.0 * other as f64 / denom,
        );
        let _ = writeln!(
            out,
            "  rows scanned      {}  ({:.1}/req)",
            p.rows_scanned,
            p.rows_scanned as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  bytes decoded     {}  ({:.1}/req)",
            p.bytes_decoded,
            p.bytes_decoded as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  storage seeks     {}  ({:.1}/req)",
            p.storage_seeks,
            p.storage_seeks as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  preagg            {} hits, {} skips",
            p.preagg_hits, p.preagg_skips
        );
        let _ = writeln!(
            out,
            "  resilience        {} retries, {} failovers, {} degraded",
            p.retries, p.failovers, p.degraded
        );
        let _ = writeln!(
            out,
            "  scratch high-water {} bytes",
            p.scratch_high_water_bytes
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enabled;

    #[test]
    fn store_folds_and_renders() {
        let store = ProfileStore::new();
        let reg = LabelRegistry::new();
        let id = reg.resolve("d1");
        let mut p = CostProfile {
            rows_scanned: 10,
            total_ns: 1_000_000,
            ..Default::default()
        };
        p.stage_ns[Stage::StorageSeek.index()] = 600_000;
        store.fold(id, &p);
        store.fold(id, &p);
        let (requests, agg) = store.aggregate(id);
        if enabled() {
            assert_eq!(requests, 2);
            assert_eq!(agg.rows_scanned, 20);
            assert_eq!(agg.stage_ns[Stage::StorageSeek.index()], 1_200_000);
            let (all_req, all) = store.aggregate_all();
            assert_eq!(all_req, 2);
            assert_eq!(all.total_ns, 2_000_000);
        }
    }

    #[test]
    fn explain_analyze_handles_no_samples() {
        let store = ProfileStore::new();
        let text = store.render_explain_analyze("never-deployed");
        assert!(text.contains("EXPLAIN ANALYZE deployment \"never-deployed\""));
        assert!(text.contains("(no samples)"));
    }
}
