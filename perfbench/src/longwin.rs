//! `longwin_ingest`: a 1:1 mix of persisting and read-only requests on a
//! durable database, against a 30-day pre-aggregated window.
//!
//! One table `t1` of 200k rows over 30 days with 100 keys at Zipf 1.0,
//! durable through `Database::recover` with the default `WalOptions`
//! (4 MiB segments, fsync every 32 appends). The deployment has a 30-day
//! sum/count/avg window under `long_windows="w1:1d"` and a 10 s raw window
//! whose `distinct_count(category)` and `sum(v * quantity)` take the
//! interpreted fold. The working set exceeds the CPU caches; writes go
//! through the skiplist, the binlog's async apply into the buckets and the
//! WAL, and reads sit beside them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use openmldb_bench::alloc_counter::allocations;
use openmldb_core::{Database, DurabilityOptions};
use openmldb_online::{execute_request_materialized, TableProvider};
use openmldb_storage::WalOptions;
use openmldb_types::{Result, Row};
use openmldb_workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::data::{
    load, max_ts, mem_bytes_per_row, request_row, rows_close, stream_rows, stream_table, StreamSpec,
};
use crate::layers::{
    finish_trace, online_layers, plan_cache_hit_ratio, traced_request, zero_unmeasured,
};
use crate::load::{closed_loop, open_loop, ClosedLoopResult, OpenLoopResult, RealClock};
use crate::probe::HostProbe;
use crate::replay::Replayer;
use crate::report::Outcome;
use crate::stats::{mean, median, ratio, Summary};
use crate::trace::Tracer;
use crate::{Args, ScratchDir};

/// Open-loop arrival rate, ops/s (half persisting, half read-only): about a
/// tenth of the seed's closed-loop capacity on a 2-vCPU host. A quarter
/// (6000 ops/s) let the single generator fall behind whenever the host
/// slowed, and the tail then grew without bound. A constant, never derived
/// at run time.
pub const RATE: f64 = 2_000.0;
const SPEC: StreamSpec = StreamSpec {
    rows: 200_000,
    keys: 100,
    zipf_s: 1.0,
    // 30 days over 200k rows.
    ts_step_ms: 30 * 86_400_000 / 200_000,
};
/// Request timestamps advance this much per op, so that persisted ops
/// arrive at the history's density. Time then crosses many 1 h buckets in
/// a run, which keeps the pre-aggregate's raw edges at a steady size
/// however many ops a run issues.
const OP_TS_STEP_MS: i64 = SPEC.ts_step_ms / 2;
const DEPLOYMENT: &str = "longwin";
const SQL: &str = "SELECT id, k, sum(v) OVER w1 AS s30, count(v) OVER w1 AS c30, \
     avg(v) OVER w1 AS a30, distinct_count(category) OVER w2 AS dc10, \
     sum(v * quantity) OVER w2 AS sq10 FROM t1 WINDOW \
     w1 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW), \
     w2 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW)";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Each phase is split into this many rounds, interleaved.
const ROUNDS: usize = 40;
const WARMUP: usize = 500;
/// Read-after-flush checks against the reference path.
const CHECKS: usize = 200;
/// Every n-th op (by op index) is replayed in a traced run; odd, so the
/// sample alternates between persisting and read-only ops.
const TRACE_EVERY: u64 = 15;
const KEY_TABLE: usize = 1 << 16;

/// The op stream: op `i` persists when `i` is even and only reads when odd;
/// its key is Zipf-distributed and its timestamp moves forward.
struct Ops {
    keys: Vec<i64>,
    anchor: i64,
}

impl Ops {
    fn row(&self, i: u64) -> Row {
        let key = self.keys[i as usize % KEY_TABLE];
        request_row(
            20_000_000 + i as i64,
            key,
            self.anchor + OP_TS_STEP_MS * (i as i64 + 1),
        )
    }

    fn is_write(i: u64) -> bool {
        i.is_multiple_of(2)
    }
}

fn serve(db: &Database, i: u64, row: &Row) -> Result<Row> {
    if Ops::is_write(i) {
        db.request(DEPLOYMENT, row)
    } else {
        db.request_readonly(DEPLOYMENT, row)
    }
}

/// Generate, bulk-load into a fresh durable directory, reopen it with the
/// default WAL options, and deploy. Returns the database and the deploy
/// time in ms.
fn setup(rows: &[Row], dir: &PathBuf) -> (Database, f64) {
    {
        // The bulk load defers fsync to segment rotation; the reopened
        // database serves with the defaults.
        let bulk = Database::recover_with(
            dir,
            DurabilityOptions {
                wal: WalOptions {
                    group_commit: u64::MAX,
                    ..WalOptions::default()
                },
                ..DurabilityOptions::default()
            },
        )
        .expect("fresh durable directory");
        let table = stream_table("t1");
        load(&table, rows, None);
        bulk.register_table(Arc::new(table)).expect("register t1");
        bulk.sync_durable().expect("bulk sync");
    }
    let db = Database::recover(dir).expect("reopen with default WalOptions");
    let t = Instant::now();
    db.deploy(&format!(
        "DEPLOY {DEPLOYMENT} OPTIONS(long_windows=\"w1:1d\") AS {SQL}"
    ))
    .expect("longwin deploys");
    (db, t.elapsed().as_secs_f64() * 1e3)
}

/// One timed set-up: generate, load, reopen and deploy in a fresh
/// directory. Returns the database, its directory, the deploy time in ms,
/// the history's last timestamp and the set-up time in s.
fn timed_setup(seed: u64, dir: PathBuf) -> (Database, PathBuf, f64, i64, f64) {
    let t = Instant::now();
    let rows = stream_rows(SPEC, seed, 0);
    let (db, deploy_ms) = setup(&rows, &dir);
    (db, dir, deploy_ms, max_ts(&rows), t.elapsed().as_secs_f64())
}

pub fn run(args: &Args, scratch: &ScratchDir) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let (db, dir, deploy_ms, anchor, setup_s) = timed_setup(args.seed, scratch.fresh("db"));
    let mut setups = vec![setup_s];
    let dep = db.deployment(DEPLOYMENT).expect("deployed");
    let t1 = db.table("t1").expect("t1");
    let preagg = dep.preaggs[0].clone().expect("w1 is pre-aggregated");

    let zipf = Zipf::new(SPEC.keys, SPEC.zipf_s);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x10A6);
    let ops = Ops {
        keys: (0..KEY_TABLE)
            .map(|_| zipf.sample(&mut rng) as i64)
            .collect(),
        anchor,
    };
    let next = AtomicU64::new(0);
    let issue = |n: u64| -> Vec<(u64, Row)> {
        let i = next.fetch_add(n, Ordering::Relaxed);
        (i..i + n).map(|i| (i, ops.row(i))).collect()
    };
    for (i, row) in issue(WARMUP as u64) {
        out.failed += u64::from(serve(&db, i, &row).is_err());
    }
    out.attempted += WARMUP as u64;

    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let wal = t1.replicator().wal().expect("durable table has a WAL");
    let (wal0, len0) = (wal.written_bytes(), t1.replicator().len());
    let (q0, raw0, hits0) = (
        preagg.queries(),
        preagg.raw_rows_scanned(),
        preagg.level_hits(),
    );
    let probe = HostProbe::start();
    let clock = RealClock::start();
    let mut rp = Replayer::new(&dep);
    let mut backlog = Vec::new();
    let (mut plain, mut traced) = (OpenLoopResult::default(), OpenLoopResult::default());
    let mut plain_writes = Vec::new();
    let (mut one, mut peak) = (ClosedLoopResult::default(), ClosedLoopResult::default());
    let mut allocs = 0u64;
    let closed = |_: usize, _: u64| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        serve(&db, i, &ops.row(i)).is_ok()
    };
    for _ in 0..ROUNDS {
        let share = if args.trace { 0.25 } else { 0.5 };
        let n = (RATE * args.seconds * share / ROUNDS as f64) as usize;
        let rows = issue(n as u64);
        // Start every open-loop phase with the binlog applied, so that the
        // backlog the closed loop left, which grows as the host speeds up,
        // does not compete with the timed reads.
        t1.replicator().flush();
        let a0 = allocations();
        plain.extend(open_loop(&clock, RATE, n, |j| {
            serve(&db, rows[j].0, &rows[j].1).is_ok()
        }));
        allocs += allocations() - a0;
        plain_writes.extend(rows.iter().map(|(i, _)| Ops::is_write(*i)));
        if !args.trace {
            let phase = args.phase(0.25 / ROUNDS as f64);
            one.add(closed_loop(1, phase, closed));
            peak.add(closed_loop(threads, phase, closed));
        } else {
            let rows = issue(n as u64);
            traced.extend(open_loop(&clock, RATE, n, |j| {
                let (i, row) = (rows[j].0, &rows[j].1);
                backlog.push(t1.replicator().undelivered() as f64);
                if !i.is_multiple_of(TRACE_EVERY) {
                    return serve(&db, i, row).is_ok();
                }
                // A persisting request is `request_readonly` then a put into
                // its base table; the traced op makes the two calls itself so
                // the put is timed on the durable table.
                traced_request(&mut tr, &mut rp, i, &db, &dep, row, || {
                    db.request_readonly(DEPLOYMENT, row)
                })
                .and_then(|_| {
                    if Ops::is_write(i) {
                        tr.span("storage.put", None, i, || t1.put(row))?;
                        tr.span("storage.wal_sync", None, i, || t1.replicator().sync_wal())?;
                    }
                    Ok(())
                })
                .is_ok()
            }));
        }
    }
    let host = probe.finish();
    // The other set-ups run after the timed rounds: each writes and fsyncs a
    // 12 MB WAL, and its writeback would spill into the next round.
    while setups.len() < SETUPS {
        let (extra, extra_dir, _, _, secs) =
            timed_setup(args.seed, scratch.fresh(&format!("db{}", setups.len())));
        setups.push(secs);
        drop(extra);
        let _ = std::fs::remove_dir_all(extra_dir);
    }
    out.attempted +=
        (plain.latency_ms.len() + traced.latency_ms.len()) as u64 + one.completed + peak.completed;
    out.failed += plain.failed + traced.failed + one.failed + peak.failed;
    let all = Summary::of(plain.latency_ms.clone());
    let late = Summary::of(plain.late_ms.clone());
    let split = |write: bool| -> Summary {
        Summary::of(
            plain_writes
                .iter()
                .zip(&plain.latency_ms)
                .filter(|(w, _)| **w == write)
                .map(|(_, &l)| l)
                .collect(),
        )
    };
    let (reads, writes) = (split(false), split(true));

    if !args.trace {
        out.metric("setup_s", median(&setups));
        // Reads and writes form two latency modes; the p50 of their mix
        // falls between them and jumps. The gated figure is the read (feature
        // serving) latency; writes are reported beside it.
        out.metric("p50_ms", reads.p50);
        out.note("qps_1c", one.rate(), "ops/s");
        out.metric("peak_qps", peak.rate());
        out.metric("allocs_per_op", allocs as f64 / all.samples as f64);
        out.metric("mem_bytes_per_row", mem_bytes_per_row(&db));
        for (name, s) in [("req", &reads), ("write", &writes)] {
            out.note(format!("{name}_p50_ms"), s.p50, "ms");
            out.note(format!("{name}_p95_ms"), s.p95.unwrap_or(f64::NAN), "ms");
        }
        out.note("req_p99_ms", reads.p99.unwrap_or(f64::NAN), "ms");
        out.note("open_loop.samples", all.samples as f64, "count");
        out.note("open_loop.rate", RATE, "ops/s");
        out.note("gen.late_p95_ms", late.p95.unwrap_or(f64::NAN), "ms");
        out.note("closed_loop.threads", threads as f64, "count");
        out.note("host.stall_frac", host.stall_frac(), "ratio");
        out.note("host.gaps", host.gaps as f64, "count");
    } else {
        let dq = (preagg.queries() - q0) as f64;
        let dhits: u64 = preagg
            .level_hits()
            .iter()
            .zip(&hits0)
            .map(|(a, b)| a - b)
            .sum();
        online_layers(&mut out, &tr, rp.counts);
        let table = crate::trace::layer_table(tr.spans());
        out.metric("sql.deploy_ms", deploy_ms);
        out.metric("sql.plan_cache_hit_ratio", plan_cache_hit_ratio(&db));
        out.metric("storage.binlog_backlog_mean", mean(&backlog));
        out.metric(
            "storage.binlog_backlog_max",
            backlog.iter().copied().fold(0.0, f64::max),
        );
        out.metric(
            "storage.wal_bytes_per_row",
            ratio(
                (wal.written_bytes() - wal0) as f64,
                (t1.replicator().len() - len0) as f64,
            ),
        );
        out.metric(
            "storage.wal_sync_us",
            table.get("storage.wal_sync").map_or(0.0, |r| r.mean_us()),
        );
        out.metric(
            "exec.compiled_window_share",
            ratio(
                dep.program().compiled_windows() as f64,
                dep.query.windows.len() as f64,
            ),
        );
        out.metric(
            "online.preagg_raw_rows_per_query",
            ratio((preagg.raw_rows_scanned() - raw0) as f64, dq),
        );
        out.metric("online.preagg_level_hits", ratio(dhits as f64, dq));
        out.metric("gen.late_p95_ms", late.p95.unwrap_or(0.0));
        out.metric("req_p99_ms", reads.p99.unwrap_or(0.0));
        out.metric(
            "trace.overhead_frac",
            Summary::of(traced.latency_ms).p50 / all.p50 - 1.0,
        );
        out.metric("host.stall_frac", host.stall_frac());
    }

    // Correctness, outside the timed phases: with the binlog applied, the
    // served row matches the materializing reference (pre-aggregation
    // reorders float adds, hence the relative tolerance).
    for (i, row) in issue(CHECKS as u64) {
        out.attempted += 1;
        t1.replicator().flush();
        match (
            db.request_readonly(DEPLOYMENT, &row),
            execute_request_materialized(&db, &dep, &row),
        ) {
            (Ok(served), Ok(reference)) if rows_close(&served, &reference) => {}
            (Ok(served), Ok(reference)) => {
                out.mismatch(format!("op {i}: served {served:?} reference {reference:?}"))
            }
            (served, reference) => out.mismatch(format!("op {i}: {served:?} / {reference:?}")),
        }
        if Ops::is_write(i) {
            out.failed += u64::from(db.insert_row("t1", &row).is_err());
        }
    }

    // Clean close, then recovery: the recovered binlog is byte-identical.
    t1.replicator().flush();
    let before = db.sync_durable().and_then(|_| db.table_digest("t1"));
    drop((t1, dep, preagg));
    drop(db);
    let t = Instant::now();
    let recovered = Database::recover(&dir);
    let recover_s = t.elapsed().as_secs_f64();
    out.attempted += 1;
    match (before, recovered) {
        (Ok(before), Ok(db2)) => {
            let rows = db2.table("t1").map_or(0, |t| t.row_count());
            if db2.table_digest("t1").ok() != Some(before) {
                out.mismatch("t1 digest differs after recovery".into());
            }
            out.note("recover_s", recover_s, "s");
            if args.trace {
                out.metric("core.recover_rows_per_s", rows as f64 / recover_s);
            }
        }
        (before, recovered) => out.mismatch(format!(
            "recovery check failed: digest {:?}, recover {:?}",
            before.err(),
            recovered.err()
        )),
    }
    let _ = std::fs::remove_dir_all(&dir);

    if args.trace {
        finish_trace(&mut out, &tr, &args.workload);
        zero_unmeasured(&mut out);
    }
    out
}
