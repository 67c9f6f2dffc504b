//! The per-request record: an always-on flight recorder plus slow-query
//! post-mortems.
//!
//! **Every** request carries one pooled [`Recorder`] holding three things:
//!
//! * exact per-[`Stage`] self-times, marked by [`span`];
//! * the request's cost counters ([`CostProfile`]: storage seeks, rows
//!   scanned, bytes decoded, pre-aggregation hits and skips, retries,
//!   failovers, degraded);
//! * a fixed-size binary event ring ([`RING_EVENTS`] entries, last-N
//!   semantics) of stage enters/exits, seeks, scan lengths, pre-aggregation
//!   hits, fault injections, retries and deadline probes.
//!
//! The recorder lives in the pooled per-request scratch, so the warm path
//! performs **zero heap allocations**: recording one event is a
//! thread-local check plus an array write. Deeply nested code (the SQL
//! cache, the storage layer) records through the free functions [`span`],
//! [`event`], [`add_rows_scanned`] and [`add_bytes_decoded`] without
//! threading a handle through every signature; outside a [`FlightScope`]
//! they record nothing.
//!
//! [`FlightScope::finish`] hands back the request's [`FlightSummary`],
//! whose [`CostProfile`] the engine folds into the per-deployment
//! [`ProfileStore`](crate::ProfileStore) (EXPLAIN ANALYZE). On fast success
//! the ring is simply *dropped* (overwritten by the next request). When a
//! request times out, degrades, fails over, errors, or exceeds the
//! slow-query threshold, the engine *dumps* it as a structured
//! [`PostMortem`] into a bounded process-wide slow-query log, queryable via
//! [`slow_log`] / [`crate::Registry::slow_queries`] and rendered by
//! [`render_report`] (the `obs_report` tool).
//!
//! # Exact attribution
//!
//! Per-stage self-times are maintained *incrementally* as events arrive (a
//! fixed stage stack plus a time cursor), not reconstructed from the ring —
//! so attribution stays exact even after the ring wraps. The invariant every
//! summary and post-mortem upholds: `sum(stage_ns) + other_ns == total_ns`,
//! where `other` is time outside any instrumented stage.
//!
//! Under the `obs-off` feature every record path in this module compiles to
//! an inlined no-op and [`Recorder`] carries no state.

use crate::profile::CostProfile;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Events retained per request. The ring keeps the **last** `RING_EVENTS`
/// events (older ones are overwritten and counted in `dropped_events`), since
/// the moments just before a deadline fires matter most.
pub const RING_EVENTS: usize = 64;

/// Post-mortems retained in the process-wide slow-query log (FIFO eviction).
pub const SLOW_LOG_CAPACITY: usize = 256;

/// Attribution slots: one per [`Stage`] (time outside every stage is
/// reported separately as "other").
pub const NUM_STAGES: usize = Stage::ALL.len();

/// Default slow-query threshold: the paper's 20 ms decision-serving budget.
pub const DEFAULT_SLOW_QUERY_THRESHOLD_NS: u64 = 20_000_000;

/// Pipeline stages a request moves through. Mirrors the execution order in
/// `online::engine::execute_request`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// SQL parsing and physical-plan construction.
    Plan,
    /// Plan-cache probe (hit or miss).
    CacheLookup,
    /// Choosing the window path (pre-aggregated vs. raw scan) and routing.
    WindowDispatch,
    /// Skiplist / disk seeks and row collection.
    StorageSeek,
    /// Window aggregate evaluation.
    Aggregate,
    /// Projecting and encoding the output row.
    Encode,
}

impl Stage {
    /// All stages in pipeline order; `ALL[s.index()] == s`.
    pub const ALL: [Stage; 6] = [
        Stage::Plan,
        Stage::CacheLookup,
        Stage::WindowDispatch,
        Stage::StorageSeek,
        Stage::Aggregate,
        Stage::Encode,
    ];

    /// Dense index of this stage, `0..Stage::ALL.len()` — the recorder's
    /// attribution slot.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::CacheLookup => "cache_lookup",
            Stage::WindowDispatch => "window_dispatch",
            Stage::StorageSeek => "storage_seek",
            Stage::Aggregate => "aggregate",
            Stage::Encode => "encode",
        }
    }
}

/// What happened inside a request, one event per record call. Kinds that
/// are also cost counters (seeks, pre-aggregation hits and skips, retries,
/// failovers, degraded) bump the request's [`CostProfile`] as they land.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A pipeline stage began (`a` = [`Stage`] index).
    StageEnter,
    /// A pipeline stage ended (`a` = [`Stage`] index).
    StageExit,
    /// A storage index seek (`a` = index id).
    StorageSeek,
    /// One window scan completed (`b` = rows visited).
    ScanRows,
    /// Pre-aggregation served the window (`a` = window id).
    PreaggHit,
    /// Pre-aggregation could not serve the window (`a` = window id).
    PreaggSkip,
    /// A chaos fault fired (`a` = injection-point index, `b` = delay ns).
    FaultInjected,
    /// A transient error triggered a retry (`b` = attempt number).
    Retry,
    /// A read failed over to a replica.
    Failover,
    /// A deadline probe ran (`b` = remaining budget ns).
    DeadlineProbe,
    /// The request entered degraded mode.
    Degraded,
    /// Plan cache hit.
    PlanCacheHit,
    /// Plan cache miss (full plan build).
    PlanCacheMiss,
    /// A window was served by its compiled bytecode program (`a` = window
    /// id).
    CompiledWindow,
    /// A window fell back to the interpreted path because its plan did not
    /// specialize (`a` = window id).
    CompiledFallback,
}

impl FlightEventKind {
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::StageEnter => "stage_enter",
            FlightEventKind::StageExit => "stage_exit",
            FlightEventKind::StorageSeek => "storage_seek",
            FlightEventKind::ScanRows => "scan_rows",
            FlightEventKind::PreaggHit => "preagg_hit",
            FlightEventKind::PreaggSkip => "preagg_skip",
            FlightEventKind::FaultInjected => "fault_injected",
            FlightEventKind::Retry => "retry",
            FlightEventKind::Failover => "failover",
            FlightEventKind::DeadlineProbe => "deadline_probe",
            FlightEventKind::Degraded => "degraded",
            FlightEventKind::PlanCacheHit => "plan_cache_hit",
            FlightEventKind::PlanCacheMiss => "plan_cache_miss",
            FlightEventKind::CompiledWindow => "compiled_window",
            FlightEventKind::CompiledFallback => "compiled_fallback",
        }
    }
}

/// One recorded event: a nanosecond timestamp relative to request start plus
/// two payload words whose meaning depends on the kind.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    pub t_ns: u64,
    pub kind: FlightEventKind,
    pub a: u32,
    pub b: u64,
}

#[cfg(not(feature = "obs-off"))]
const EMPTY_EVENT: FlightEvent = FlightEvent {
    t_ns: 0,
    kind: FlightEventKind::StageEnter,
    a: 0,
    b: 0,
};

/// Stage-stack depth tracked for attribution. Deeper nesting than this keeps
/// counting time against the deepest tracked stage.
#[cfg(not(feature = "obs-off"))]
const STACK_DEPTH: usize = 8;

#[cfg(not(feature = "obs-off"))]
struct Inner {
    t0: Instant,
    trace_id: u64,
    ring: [FlightEvent; RING_EVENTS],
    /// Events currently held (`<= RING_EVENTS`).
    len: usize,
    /// Next write slot (== oldest event once the ring has wrapped).
    next: usize,
    dropped: u64,
    stack: [u8; STACK_DEPTH],
    depth: usize,
    cursor_ns: u64,
    faults: u32,
    /// Stage self-times and cost counters, accumulated as events land.
    cost: CostProfile,
}

#[cfg(not(feature = "obs-off"))]
impl Inner {
    fn new(t0: Instant) -> Box<Inner> {
        Box::new(Inner {
            t0,
            trace_id: 0,
            ring: [EMPTY_EVENT; RING_EVENTS],
            len: 0,
            next: 0,
            dropped: 0,
            stack: [0; STACK_DEPTH],
            depth: 0,
            cursor_ns: 0,
            faults: 0,
            cost: CostProfile::default(),
        })
    }

    fn reset(&mut self, trace_id: u64, t0: Instant) {
        self.t0 = t0;
        self.trace_id = trace_id;
        self.len = 0;
        self.next = 0;
        self.dropped = 0;
        self.depth = 0;
        self.cursor_ns = 0;
        self.faults = 0;
        self.cost = CostProfile::default();
    }

    /// Charge the interval since the cursor to the innermost open stage.
    #[inline]
    fn charge(&mut self, t_ns: u64) {
        // The innermost tracked stage: the last of the first `depth` slots
        // (deeper nesting keeps charging the deepest tracked stage).
        if let Some((&stage, _)) = self.stack.iter().zip(0..self.depth).next_back() {
            if let Some(slot) = self.cost.stage_ns.get_mut(usize::from(stage)) {
                *slot += t_ns.saturating_sub(self.cursor_ns);
            }
        }
        self.cursor_ns = t_ns;
    }

    // HOT: one event per scan/probe/stage transition — array writes only.
    #[inline]
    fn log_event(&mut self, kind: FlightEventKind, a: u32, b: u64) {
        let t_ns = self.t0.elapsed().as_nanos() as u64;
        match kind {
            FlightEventKind::StageEnter => {
                self.charge(t_ns);
                if let Some(slot) = self.stack.get_mut(self.depth) {
                    *slot = a as u8;
                }
                self.depth += 1;
            }
            FlightEventKind::StageExit => {
                self.charge(t_ns);
                self.depth = self.depth.saturating_sub(1);
            }
            FlightEventKind::StorageSeek => self.cost.storage_seeks += 1,
            FlightEventKind::PreaggHit => self.cost.preagg_hits += 1,
            FlightEventKind::PreaggSkip => self.cost.preagg_skips += 1,
            FlightEventKind::Retry => self.cost.retries += 1,
            FlightEventKind::Failover => self.cost.failovers += 1,
            FlightEventKind::Degraded => self.cost.degraded = 1,
            FlightEventKind::FaultInjected => self.faults += 1,
            _ => {}
        }
        if let Some(slot) = self.ring.get_mut(self.next) {
            *slot = FlightEvent { t_ns, kind, a, b };
        }
        self.next = (self.next + 1) % RING_EVENTS;
        if self.len < RING_EVENTS {
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    fn events(&self) -> Vec<FlightEvent> {
        let start = if self.len == RING_EVENTS {
            self.next
        } else {
            0
        };
        (0..self.len)
            .map(|i| self.ring[(start + i) % RING_EVENTS])
            .collect()
    }
}

#[cfg(not(feature = "obs-off"))]
thread_local! {
    static FLIGHT: std::cell::RefCell<Option<Box<Inner>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(not(feature = "obs-off"))]
fn next_trace_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Recorder + scope
// ---------------------------------------------------------------------------

/// The pooled per-request recorder handle. Lives inside the engine's request
/// scratch so its one ring allocation happens when a pooled scratch is first
/// used (warm-up), never on the steady-state path. Under `obs-off` this is a
/// zero-sized no-op.
#[derive(Default)]
pub struct Recorder {
    #[cfg(not(feature = "obs-off"))]
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a full post-mortem dump from the events still held by this
    /// recorder. Cold path: allocates freely. Returns `None` when the
    /// summary does not belong to this recorder's last flight (or under
    /// `obs-off`).
    pub fn post_mortem(&self, outcome: Outcome, summary: &FlightSummary) -> Option<PostMortem> {
        #[cfg(not(feature = "obs-off"))]
        {
            if !summary.active {
                return None;
            }
            let inner = self.inner.as_ref()?;
            if inner.trace_id != summary.trace_id {
                return None;
            }
            let cost = &summary.cost;
            Some(PostMortem {
                trace_id: summary.trace_id,
                outcome,
                culprit: summary.culprit(),
                total_ns: cost.total_ns,
                stage_self_ns: cost.stage_ns,
                other_ns: cost.other_ns(),
                retries: cost.retries,
                failovers: cost.failovers,
                faults: summary.faults,
                dropped_events: summary.dropped_events,
                events: inner.events(),
                note: String::new(),
            })
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (outcome, summary);
            None
        }
    }
}

/// Per-request accounting produced by [`FlightScope::finish`]. Fixed-size
/// (no heap) so the engine can inspect it on the warm path before deciding
/// whether to dump.
#[derive(Clone, Copy, Debug)]
pub struct FlightSummary {
    /// False when this scope was nested inside another (or under `obs-off`);
    /// all other fields are zero then.
    pub active: bool,
    pub trace_id: u64,
    /// What the request did and where its time went: exclusive self time
    /// per [`Stage`], end-to-end time, and the cost counters.
    pub cost: CostProfile,
    pub faults: u32,
    pub dropped_events: u64,
}

impl FlightSummary {
    fn inactive() -> Self {
        FlightSummary {
            active: false,
            trace_id: 0,
            cost: CostProfile::default(),
            faults: 0,
            dropped_events: 0,
        }
    }

    /// The stage that consumed the most self-time, or `"other"` when
    /// un-instrumented time dominates.
    pub fn culprit(&self) -> &'static str {
        let (mut best, mut best_ns) = ("other", self.cost.other_ns());
        for (i, &ns) in self.cost.stage_ns.iter().enumerate() {
            if ns > best_ns {
                best = Stage::ALL[i].name();
                best_ns = ns;
            }
        }
        best
    }
}

/// Installs a [`Recorder`] as the thread's active flight recorder for one
/// request. Panic-safe: dropping the scope (normally via
/// [`finish`](Self::finish), or by unwinding) uninstalls the recorder and
/// returns its ring to the pooled handle. A scope entered while another is
/// active on the same thread is passive — its events and cost counters land
/// in the outer request's recorder.
pub struct FlightScope<'a> {
    #[cfg(not(feature = "obs-off"))]
    rec: &'a mut Recorder,
    #[cfg(not(feature = "obs-off"))]
    armed: bool,
    #[cfg(feature = "obs-off")]
    _rec: std::marker::PhantomData<&'a mut Recorder>,
}

impl<'a> FlightScope<'a> {
    /// Begin recording into `rec` for a request that started at `t0` (the
    /// request's one clock: every event time and the summary's total are
    /// measured from it). Allocates the ring the first time a given recorder
    /// is used; warm reuse is allocation-free.
    #[inline]
    pub fn enter(rec: &'a mut Recorder, t0: Instant) -> Self {
        #[cfg(not(feature = "obs-off"))]
        {
            let already = FLIGHT.with(|f| f.borrow().is_some());
            if already {
                return FlightScope { rec, armed: false };
            }
            let mut inner = rec.inner.take().unwrap_or_else(|| Inner::new(t0));
            inner.reset(next_trace_id(), t0);
            FLIGHT.with(|f| *f.borrow_mut() = Some(inner));
            FlightScope { rec, armed: true }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (rec, t0);
            FlightScope {
                _rec: std::marker::PhantomData,
            }
        }
    }

    /// Stop recording and return the request's accounting. The event ring
    /// stays inside the recorder (for [`Recorder::post_mortem`]) until the
    /// next [`enter`](Self::enter) resets it.
    #[inline]
    #[cfg_attr(feature = "obs-off", allow(unused_mut))]
    pub fn finish(mut self) -> FlightSummary {
        #[cfg(not(feature = "obs-off"))]
        {
            if !self.armed {
                return FlightSummary::inactive();
            }
            self.armed = false;
            let Some(mut inner) = FLIGHT.with(|f| f.borrow_mut().take()) else {
                return FlightSummary::inactive();
            };
            let total_ns = inner.t0.elapsed().as_nanos() as u64;
            // A stage left open (panic inside a span, or a timeout surfacing
            // mid-stage) is charged through to the end of the request.
            if inner.depth > 0 {
                inner.charge(total_ns);
            }
            inner.cost.total_ns = total_ns;
            let summary = FlightSummary {
                active: true,
                trace_id: inner.trace_id,
                cost: inner.cost,
                faults: inner.faults,
                dropped_events: inner.dropped,
            };
            self.rec.inner = Some(inner);
            summary
        }
        #[cfg(feature = "obs-off")]
        FlightSummary::inactive()
    }
}

impl Drop for FlightScope<'_> {
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        if self.armed {
            // Unwound without finish(): uninstall so a later request on this
            // thread cannot write into a dead ring, and keep the allocation.
            if let Some(inner) = FLIGHT.with(|f| f.borrow_mut().take()) {
                self.rec.inner = Some(inner);
            }
        }
    }
}

/// Apply `f` to the thread's active recorder, if any.
#[cfg(not(feature = "obs-off"))]
#[inline]
fn with_active(f: impl FnOnce(&mut Inner)) {
    FLIGHT.with(|cell| {
        if let Some(inner) = cell.borrow_mut().as_mut() {
            f(inner);
        }
    });
}

/// Record one event into the thread's active flight recorder, if any.
/// Outside a [`FlightScope`] this is a thread-local check and nothing else.
// HOT: called per scan / per probe / per stage transition, never per row.
#[inline]
pub fn event(kind: FlightEventKind, a: u32, b: u64) {
    #[cfg(not(feature = "obs-off"))]
    with_active(|inner| inner.log_event(kind, a, b));
    #[cfg(feature = "obs-off")]
    let _ = (kind, a, b);
}

/// Add `rows` visited by one storage scan to the active request's cost.
#[inline]
pub fn add_rows_scanned(rows: u64) {
    #[cfg(not(feature = "obs-off"))]
    with_active(|inner| inner.cost.rows_scanned += rows);
    #[cfg(feature = "obs-off")]
    let _ = rows;
}

/// Add `bytes` of encoded rows decoded for the active request to its cost.
#[inline]
pub fn add_bytes_decoded(bytes: u64) {
    #[cfg(not(feature = "obs-off"))]
    with_active(|inner| inner.cost.bytes_decoded += bytes);
    #[cfg(feature = "obs-off")]
    let _ = bytes;
}

/// Run `f` as `stage` of the active request: one enter and one exit event
/// on the thread's flight recorder, which charges the time in between (less
/// nested stages) to `stage`. Outside a [`FlightScope`] this is two
/// thread-local checks and nothing else.
#[inline]
pub fn span<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    event(FlightEventKind::StageEnter, stage.index() as u32, 0);
    let out = f();
    event(FlightEventKind::StageExit, stage.index() as u32, 0);
    out
}

// ---------------------------------------------------------------------------
// Slow-query threshold
// ---------------------------------------------------------------------------

static SLOW_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_QUERY_THRESHOLD_NS);

/// Requests at or above this duration dump a post-mortem even on success.
pub fn slow_query_threshold_ns() -> u64 {
    SLOW_THRESHOLD_NS.load(Ordering::Relaxed)
}

/// Change the slow-query threshold. `0` dumps every request (report tooling);
/// `u64::MAX` disables duration-triggered dumps.
pub fn set_slow_query_threshold_ns(ns: u64) {
    SLOW_THRESHOLD_NS.store(ns, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Post-mortems + slow-query log
// ---------------------------------------------------------------------------

/// Why a request was dumped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The deadline budget was exhausted (`Error::Timeout`).
    Timeout,
    /// The request failed with a non-timeout error.
    Failed,
    /// The request succeeded but entered degraded mode.
    Degraded,
    /// The request succeeded but failed over to a replica.
    Failover,
    /// The request succeeded but exceeded the slow-query threshold.
    Slow,
    /// The consistency sentinel's oracle replay disagreed bit-for-bit with
    /// the row this request served.
    Divergence,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Timeout => "timeout",
            Outcome::Failed => "failed",
            Outcome::Degraded => "degraded",
            Outcome::Failover => "failover",
            Outcome::Slow => "slow",
            Outcome::Divergence => "consistency_divergence",
        }
    }
}

/// A dumped request: exact per-stage attribution plus the retained event
/// ring. `sum(stage_self_ns) + other_ns == total_ns` always holds.
#[derive(Clone, Debug)]
pub struct PostMortem {
    pub trace_id: u64,
    pub outcome: Outcome,
    /// The stage that consumed the most self-time (or `"other"`).
    pub culprit: &'static str,
    pub total_ns: u64,
    pub stage_self_ns: [u64; NUM_STAGES],
    pub other_ns: u64,
    pub retries: u64,
    pub failovers: u64,
    pub faults: u32,
    /// Events overwritten after the ring filled.
    pub dropped_events: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Free-form annotation (empty for engine dumps). Consistency
    /// divergences carry both row encodings here so the mismatch is
    /// diagnosable straight from the log.
    pub note: String,
}

impl PostMortem {
    /// Human-readable dump, one attribution line per stage plus the ring.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "post-mortem trace={} outcome={} culprit={} total={:.3}ms \
             retries={} failovers={} faults={}",
            self.trace_id,
            self.outcome.name(),
            self.culprit,
            ms(self.total_ns),
            self.retries,
            self.failovers,
            self.faults,
        );
        if !self.note.is_empty() {
            let _ = writeln!(out, "  note: {}", self.note);
        }
        for (i, &ns) in self.stage_self_ns.iter().enumerate() {
            let pct = 100.0 * ns as f64 / self.total_ns.max(1) as f64;
            let _ = writeln!(
                out,
                "  stage {:<16} {:>10.3}ms {:>5.1}%",
                Stage::ALL[i].name(),
                ms(ns),
                pct
            );
        }
        let pct = 100.0 * self.other_ns as f64 / self.total_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "  stage {:<16} {:>10.3}ms {:>5.1}%",
            "other",
            ms(self.other_ns),
            pct
        );
        let _ = writeln!(
            out,
            "  events ({} retained, {} dropped):",
            self.events.len(),
            self.dropped_events
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "    +{:>10.3}ms {:<14} a={} b={}",
                ms(e.t_ns),
                e.kind.name(),
                e.a,
                e.b
            );
        }
        out
    }

    /// JSON dump with the same fields as [`render_text`](Self::render_text).
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"outcome\":\"{}\",\"culprit\":\"{}\",\"total_ns\":{},",
            self.trace_id,
            self.outcome.name(),
            self.culprit,
            self.total_ns
        );
        let _ = write!(out, "\"stages\":{{");
        for (i, &ns) in self.stage_self_ns.iter().enumerate() {
            let _ = write!(out, "\"{}\":{ns},", Stage::ALL[i].name());
        }
        let _ = write!(out, "\"other\":{}}},", self.other_ns);
        let _ = write!(
            out,
            "\"retries\":{},\"failovers\":{},\"faults\":{},\"dropped_events\":{},\"note\":\"{}\",\"events\":[",
            self.retries,
            self.failovers,
            self.faults,
            self.dropped_events,
            crate::escape_json_string(&self.note)
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.t_ns,
                e.kind.name(),
                e.a,
                e.b
            );
        }
        out.push_str("]}");
        out
    }
}

/// A bounded FIFO of post-mortems ([`SLOW_LOG_CAPACITY`], oldest evicted
/// first) plus a count of every publication. The engine publishes into the
/// process-wide instance behind the free functions below; unit tests use
/// private instances so they never race each other on shared state.
struct SlowLog {
    ring: Mutex<VecDeque<PostMortem>>,
    published: AtomicU64,
}

impl SlowLog {
    fn new() -> Self {
        SlowLog {
            ring: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            published: AtomicU64::new(0),
        }
    }

    fn global() -> &'static SlowLog {
        static GLOBAL: OnceLock<SlowLog> = OnceLock::new();
        GLOBAL.get_or_init(SlowLog::new)
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, VecDeque<PostMortem>> {
        self.ring.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn publish(&self, pm: PostMortem) {
        #[cfg(not(feature = "obs-off"))]
        {
            self.published.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.ring();
            if ring.len() == SLOW_LOG_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(pm);
        }
        #[cfg(feature = "obs-off")]
        let _ = pm;
    }

    fn retained(&self) -> Vec<PostMortem> {
        self.ring().iter().cloned().collect()
    }

    fn published_total(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    fn render_report(&self, json: bool) -> String {
        let log = self.retained();
        if json {
            let items: Vec<String> = log.iter().map(PostMortem::render_json).collect();
            return format!(
                "{{\"published_total\":{},\"retained\":{},\"slow_queries\":[{}]}}",
                self.published_total(),
                log.len(),
                items.join(",")
            );
        }
        let mut out = format!(
            "slow-query log: {} retained of {} published (threshold {:.3}ms)\n",
            log.len(),
            self.published_total(),
            slow_query_threshold_ns() as f64 / 1e6
        );
        for pm in &log {
            out.push_str(&pm.render_text());
        }
        out
    }
}

#[cfg(not(feature = "obs-off"))]
fn postmortems_counter() -> &'static std::sync::Arc<crate::Counter> {
    static C: OnceLock<std::sync::Arc<crate::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        crate::Registry::global().counter(
            "openmldb_obs_postmortems_total",
            "post-mortems dumped into the slow-query log",
        )
    })
}

/// Publish a post-mortem into the process-wide slow-query log (cold path).
pub fn publish(pm: PostMortem) {
    #[cfg(not(feature = "obs-off"))]
    postmortems_counter().inc();
    SlowLog::global().publish(pm);
}

/// Retained post-mortems, oldest first.
pub fn slow_log() -> Vec<PostMortem> {
    SlowLog::global().retained()
}

/// Total post-mortems ever published (survives ring eviction).
pub fn published_total() -> u64 {
    SlowLog::global().published_total()
}

/// Drop all retained post-mortems (tests and bench harnesses).
pub fn clear_slow_log() {
    SlowLog::global().ring().clear();
}

/// Render the slow-query log as a report. Text mode leads with a one-line
/// summary; JSON mode emits `{"published_total":..,"slow_queries":[..]}`.
pub fn render_report(json: bool) -> String {
    SlowLog::global().render_report(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    fn sleep_us(us: u64) {
        let t = std::time::Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn attribution_sums_to_total_and_survives_ring_wrap() {
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec, Instant::now());
        span(Stage::Plan, || sleep_us(200));
        // Flood the ring well past capacity: attribution must stay exact.
        for i in 0..(RING_EVENTS as u64 * 3) {
            event(FlightEventKind::DeadlineProbe, 0, i);
        }
        span(Stage::StorageSeek, || {
            event(FlightEventKind::ScanRows, 0, 123);
            sleep_us(200)
        });
        let summary = scope.finish();
        assert!(summary.active);
        assert!(summary.trace_id > 0);
        let sum: u64 = summary.cost.stage_ns.iter().sum();
        assert_eq!(sum + summary.cost.other_ns(), summary.cost.total_ns);
        assert!(summary.cost.stage_ns[Stage::Plan.index()] >= 200_000);
        assert!(summary.cost.stage_ns[Stage::StorageSeek.index()] >= 200_000);
        assert!(summary.dropped_events > 0);

        let pm = rec.post_mortem(Outcome::Slow, &summary).unwrap();
        assert_eq!(pm.trace_id, summary.trace_id);
        assert_eq!(
            pm.stage_self_ns.iter().sum::<u64>() + pm.other_ns,
            pm.total_ns
        );
        assert_eq!(pm.events.len(), RING_EVENTS);
        // last-N semantics: the newest event is the StorageSeek exit
        assert_eq!(pm.events.last().unwrap().kind, FlightEventKind::StageExit);
        let text = pm.render_text();
        assert!(text.contains("stage storage_seek"));
        let json = pm.render_json();
        assert!(json.contains("\"culprit\""));
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn nested_stages_attribute_self_time_only() {
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec, Instant::now());
        span(Stage::WindowDispatch, || {
            sleep_us(150);
            span(Stage::Aggregate, || sleep_us(150));
        });
        let summary = scope.finish();
        let dispatch = summary.cost.stage_ns[Stage::WindowDispatch.index()];
        let agg = summary.cost.stage_ns[Stage::Aggregate.index()];
        assert!(dispatch >= 150_000, "dispatch self {dispatch}");
        assert!(agg >= 150_000, "agg self {agg}");
        // exclusive times: the parent does not also absorb the child
        assert!(
            summary.cost.stage_sum_ns() <= summary.cost.total_ns,
            "self-times exceed total"
        );
    }

    #[test]
    fn nested_scope_is_passive_and_events_land_in_outer_ring() {
        let mut outer = Recorder::new();
        let mut inner = Recorder::new();
        let scope = FlightScope::enter(&mut outer, Instant::now());
        add_rows_scanned(1);
        let nested = FlightScope::enter(&mut inner, Instant::now());
        event(FlightEventKind::PreaggHit, 7, 0);
        event(FlightEventKind::StorageSeek, 0, 0);
        add_rows_scanned(10);
        add_bytes_decoded(64);
        let ns = nested.finish();
        assert!(!ns.active, "nested scope must be passive");
        assert_eq!(ns.cost, CostProfile::default());
        add_rows_scanned(100);
        let summary = scope.finish();
        assert!(inner.post_mortem(Outcome::Slow, &ns).is_none());
        if !crate::enabled() {
            assert!(!summary.active);
            return;
        }
        // Events and cost counters recorded inside the nested scope land in
        // the outer request's recorder.
        assert_eq!(summary.cost.rows_scanned, 111);
        assert_eq!(summary.cost.bytes_decoded, 64);
        assert_eq!(summary.cost.storage_seeks, 1);
        assert_eq!(summary.cost.preagg_hits, 1);
        let pm = outer.post_mortem(Outcome::Slow, &summary).unwrap();
        assert!(pm
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::PreaggHit && e.a == 7));
    }

    #[test]
    fn finish_returns_the_recorded_cost_profile() {
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec, Instant::now());
        span(Stage::StorageSeek, || {
            event(FlightEventKind::StorageSeek, 3, 0);
            event(FlightEventKind::StorageSeek, 3, 0);
            add_rows_scanned(40);
            add_bytes_decoded(512);
        });
        span(Stage::WindowDispatch, || {
            event(FlightEventKind::PreaggHit, 0, 0);
            event(FlightEventKind::PreaggSkip, 1, 0);
            span(Stage::Aggregate, || ());
        });
        event(FlightEventKind::Retry, 1, 0);
        event(FlightEventKind::Retry, 2, 0);
        event(FlightEventKind::Failover, 1, 0);
        // Degraded is a per-request flag, not a count.
        event(FlightEventKind::Degraded, 0, 0);
        event(FlightEventKind::Degraded, 0, 0);
        let summary = scope.finish();
        if !crate::enabled() {
            assert!(!summary.active);
            assert_eq!(summary.cost, CostProfile::default());
            return;
        }
        let cost = summary.cost;
        assert_eq!(
            cost,
            CostProfile {
                rows_scanned: 40,
                bytes_decoded: 512,
                storage_seeks: 2,
                preagg_hits: 1,
                preagg_skips: 1,
                retries: 2,
                failovers: 1,
                degraded: 1,
                scratch_high_water_bytes: 0,
                stage_ns: cost.stage_ns,
                total_ns: cost.total_ns,
            }
        );
        assert_eq!(cost.stage_sum_ns() + cost.other_ns(), cost.total_ns);
        assert!(cost.stage_sum_ns() <= cost.total_ns);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn unwinding_uninstalls_the_recorder() {
        let mut rec = Recorder::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = FlightScope::enter(&mut rec, Instant::now());
            panic!("boom");
        }));
        assert!(r.is_err());
        // the thread-local must be clean: a fresh scope arms normally
        let mut rec2 = Recorder::new();
        let scope = FlightScope::enter(&mut rec2, Instant::now());
        assert!(scope.finish().active);
    }

    #[test]
    fn events_outside_scope_are_noops() {
        event(FlightEventKind::ScanRows, 0, 99);
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec, Instant::now());
        let summary = scope.finish();
        if crate::enabled() {
            assert!(summary.active);
            let pm = rec.post_mortem(Outcome::Slow, &summary).unwrap();
            assert!(pm.events.is_empty());
        } else {
            assert!(!summary.active);
            assert!(rec.post_mortem(Outcome::Slow, &summary).is_none());
        }
    }

    #[test]
    fn slow_log_publish_retain_and_render() {
        let slow = SlowLog::new();
        let pm = PostMortem {
            trace_id: 99,
            outcome: Outcome::Timeout,
            culprit: "storage_seek",
            total_ns: 1_000_000,
            stage_self_ns: [0; NUM_STAGES],
            other_ns: 1_000_000,
            retries: 1,
            failovers: 0,
            faults: 2,
            dropped_events: 0,
            events: vec![],
            note: "served=[1] oracle=[2]".into(),
        };
        slow.publish(pm);
        if crate::enabled() {
            assert_eq!(slow.published_total(), 1);
            let log = slow.retained();
            assert_eq!(log.last().unwrap().trace_id, 99);
            let report = slow.render_report(false);
            assert!(report.contains("outcome=timeout"));
            assert!(report.contains("note: served=[1] oracle=[2]"));
            let json = slow.render_report(true);
            assert!(json.contains("\"outcome\":\"timeout\""));
            assert!(json.contains("\"note\":\"served=[1] oracle=[2]\""));
        } else {
            assert!(slow.retained().is_empty());
        }
    }

    #[test]
    fn slow_log_is_bounded() {
        if !crate::enabled() {
            return;
        }
        let slow = SlowLog::new();
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            slow.publish(PostMortem {
                trace_id: i as u64,
                outcome: Outcome::Slow,
                culprit: "other",
                total_ns: 1,
                stage_self_ns: [0; NUM_STAGES],
                other_ns: 1,
                retries: 0,
                failovers: 0,
                faults: 0,
                dropped_events: 0,
                events: vec![],
                note: String::new(),
            });
        }
        let log = slow.retained();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        assert_eq!(log[0].trace_id, 5);
        assert_eq!(slow.published_total(), SLOW_LOG_CAPACITY as u64 + 5);
    }

    #[test]
    fn threshold_roundtrip() {
        let orig = slow_query_threshold_ns();
        set_slow_query_threshold_ns(5);
        assert_eq!(slow_query_threshold_ns(), 5);
        set_slow_query_threshold_ns(orig);
    }
}
