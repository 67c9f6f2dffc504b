//! `fig06_read`: read-only request mode over the paper's Fig 6 MicroBench.
//!
//! Three 20k-row stream tables with 20 uniform keys; one 60 s `ROWS_RANGE`
//! window (sum/count/max of `v`, about 300 rows per window) plus one LAST
//! JOIN. The working set fits in cache, and the request path skips
//! pre-aggregation, the binlog, the WAL and the offline engine: time goes to
//! the scan, the compiled kernel and per-request overhead.

use std::time::Instant;

use openmldb_bench::alloc_counter::allocations;
use openmldb_bench::scenarios::micro_sql;
use openmldb_core::Database;
use openmldb_online::execute_request_materialized;
use openmldb_types::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{
    max_ts, mem_bytes_per_row, micro_db, request_row, rows_identical, stream_rows, StreamSpec,
};
use crate::layers::{
    finish_trace, online_layers, plan_cache_hit_ratio, traced_request, zero_unmeasured,
};
use crate::load::{closed_loop, open_loop, ClosedLoopResult, OpenLoopResult, RealClock};
use crate::probe::HostProbe;
use crate::replay::Replayer;
use crate::report::Outcome;
use crate::stats::{median, ratio, Summary};
use crate::trace::Tracer;
use crate::Args;

/// Open-loop arrival rate, ops/s: about a quarter of the seed's two-client
/// closed-loop capacity on a 2-vCPU host. A constant, never derived at run
/// time, so it does not move when capacity does.
pub const RATE: f64 = 20_000.0;
const SPEC: StreamSpec = StreamSpec {
    rows: 20_000,
    keys: 20,
    zipf_s: 0.0,
    ts_step_ms: 10,
};
const DEPLOYMENT: &str = "fig06";
/// Set-ups per run, spread over the rounds; `setup_s` is their median.
const SETUPS: usize = 9;
/// Each phase is split into this many rounds, interleaved.
const ROUNDS: usize = 40;
const POOL: usize = 4_096;
const WARMUP: usize = 2_000;
/// Every n-th open-loop response is checked against the reference path.
const CHECK_EVERY: usize = 97;
/// Every n-th op is replayed in a traced run.
const TRACE_EVERY: usize = 64;

/// Build the database and deploy; returns it with the deploy time in ms.
fn setup(seed: u64, tracer: Option<&mut Tracer>) -> (Database, f64) {
    let db = micro_db(SPEC, seed, tracer);
    let t = Instant::now();
    db.deploy(&format!(
        "DEPLOY {DEPLOYMENT} AS {}",
        micro_sql(1, 1, 60_000, false)
    ))
    .expect("fig06 deploys");
    (db, t.elapsed().as_secs_f64() * 1e3)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let (db, deploy_ms) = setup(args.seed, args.trace.then_some(&mut tr));
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let dep = db.deployment(DEPLOYMENT).expect("deployed");

    let anchor = max_ts(&stream_rows(SPEC, args.seed, 0));
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF06);
    let pool: Vec<Row> = (0..POOL)
        .map(|i| {
            request_row(
                10_000_000 + i as i64,
                rng.gen_range(0..SPEC.keys as i64),
                anchor + (i % 100) as i64,
            )
        })
        .collect();
    let serve = |i: usize| db.request_readonly(DEPLOYMENT, &pool[i % POOL]);
    for i in 0..WARMUP {
        out.failed += u64::from(serve(i).is_err());
    }
    out.attempted += WARMUP as u64;

    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let probe = HostProbe::start();
    let clock = RealClock::start();
    let mut checks: Vec<(usize, Row)> = Vec::new();
    let mut rp = Replayer::new(&dep);
    let (mut plain, mut traced) = (OpenLoopResult::default(), OpenLoopResult::default());
    let (mut one, mut peak) = (ClosedLoopResult::default(), ClosedLoopResult::default());
    let mut allocs = 0u64;
    let mut issued = 0usize;
    for round in 0..ROUNDS {
        if !args.trace {
            let ops = (RATE * args.seconds * 0.5 / ROUNDS as f64) as usize;
            checks.reserve(ops / CHECK_EVERY + 1);
            let a0 = allocations();
            let r = open_loop(&clock, RATE, ops, |j| match serve(issued + j) {
                Ok(row) => {
                    if j % CHECK_EVERY == 0 {
                        checks.push(((issued + j) % POOL, row));
                    }
                    true
                }
                Err(_) => false,
            });
            allocs += allocations() - a0;
            issued += ops;
            plain.extend(r);
            let phase = args.phase(0.25 / ROUNDS as f64);
            one.add(closed_loop(1, phase, |_, seq| serve(seq as usize).is_ok()));
            peak.add(closed_loop(threads, phase, |t, seq| {
                serve(seq as usize * threads + t).is_ok()
            }));
        } else {
            let ops = (RATE * args.seconds * 0.25 / ROUNDS as f64) as usize;
            plain.extend(open_loop(&clock, RATE, ops, |j| serve(issued + j).is_ok()));
            issued += ops;
            let r = open_loop(&clock, RATE, ops, |j| {
                let i = issued + j;
                if !i.is_multiple_of(TRACE_EVERY) {
                    return serve(i).is_ok();
                }
                let request = &pool[i % POOL];
                let res = traced_request(&mut tr, &mut rp, i as u64, &db, &dep, request, || {
                    db.request_readonly(DEPLOYMENT, request)
                });
                res.map(|row| checks.push((i % POOL, row))).is_ok()
            });
            issued += ops;
            traced.extend(r);
        }
        // Spread the remaining set-ups evenly over the rounds.
        while setups.len() < 1 + (SETUPS - 1) * (round + 1) / ROUNDS {
            let t = Instant::now();
            drop(setup(args.seed, None));
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let host = probe.finish();
    out.attempted +=
        (plain.latency_ms.len() + traced.latency_ms.len()) as u64 + one.completed + peak.completed;
    out.failed += plain.failed + traced.failed + one.failed + peak.failed;
    let lat = Summary::of(plain.latency_ms.clone());
    let late = Summary::of(plain.late_ms.clone());

    if !args.trace {
        out.metric("setup_s", median(&setups));
        out.metric("p50_ms", lat.p50);
        out.note("qps_1c", one.rate(), "ops/s");
        out.metric("peak_qps", peak.rate());
        out.metric("allocs_per_op", allocs as f64 / lat.samples as f64);
        out.metric("mem_bytes_per_row", mem_bytes_per_row(&db));
        out.note("req_p50_ms", lat.p50, "ms");
        out.note("req_p95_ms", lat.p95.unwrap_or(f64::NAN), "ms");
        out.note("req_p99_ms", lat.p99.unwrap_or(f64::NAN), "ms");
        out.note("open_loop.samples", lat.samples as f64, "count");
        out.note("open_loop.rate", RATE, "ops/s");
        out.note("gen.late_p95_ms", late.p95.unwrap_or(f64::NAN), "ms");
        out.note("closed_loop.threads", threads as f64, "count");
        out.note("host.stall_frac", host.stall_frac(), "ratio");
        out.note("host.gaps", host.gaps as f64, "count");
    } else {
        online_layers(&mut out, &tr, rp.counts);
        out.metric("sql.deploy_ms", deploy_ms);
        out.metric("sql.plan_cache_hit_ratio", plan_cache_hit_ratio(&db));
        out.metric(
            "exec.compiled_window_share",
            ratio(
                dep.program().compiled_windows() as f64,
                dep.query.windows.len() as f64,
            ),
        );
        out.metric("gen.late_p95_ms", late.p95.unwrap_or(0.0));
        out.metric("req_p99_ms", lat.p99.unwrap_or(0.0));
        out.metric(
            "trace.overhead_frac",
            Summary::of(traced.latency_ms).p50 / lat.p50 - 1.0,
        );
        out.metric("host.stall_frac", host.stall_frac());
        finish_trace(&mut out, &tr, &args.workload);
        zero_unmeasured(&mut out);
    }

    // Correctness, outside the timed phases: the served rows are
    // bit-identical to the materializing reference path.
    for (idx, served) in &checks {
        out.attempted += 1;
        match execute_request_materialized(&db, &dep, &pool[*idx]) {
            Ok(reference) if rows_identical(served, &reference) => {}
            Ok(reference) => out.mismatch(format!(
                "request {idx}: served {served:?} reference {reference:?}"
            )),
            Err(e) => out.mismatch(format!("request {idx}: reference failed: {e}")),
        }
    }
    out.note("checks", checks.len() as f64, "count");
    out
}
