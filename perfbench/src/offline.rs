//! `offline_backfill`: offline batch over three 50k-row MicroBench tables
//! (100 keys, Zipf 1.0): four windows of 10–40 s with `UNION t2, t3` plus
//! one LAST JOIN, on the default `OfflineOptions` (parallel windows on
//! `nproc` threads). It exercises the offline sweep, parallel window
//! compute, the concat join and key skew, and bypasses every online layer
//! while timed. Its op is one full backfill query.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use openmldb_bench::alloc_counter::allocations;
use openmldb_bench::scenarios::micro_sql;
use openmldb_core::Database;
use openmldb_offline::{compute_windows, concat_join, sweep_window, OfflineOptions, Tables};
use openmldb_online::TableProvider;
use openmldb_types::{Row, RowBatch, Value};

use crate::data::{
    max_ts, mem_bytes_per_row, micro_db, request_row, rows_close, stream_rows, StreamSpec, STREAMS,
};
use crate::layers::{
    finish_trace, online_layers, plan_cache_hit_ratio, traced_request, zero_unmeasured,
};
use crate::load::{closed_loop, ClosedLoopResult};
use crate::probe::HostProbe;
use crate::replay::Replayer;
use crate::report::Outcome;
use crate::stats::{mean, median, ratio};
use crate::trace::{layer_table, LayerRow, Tracer};
use crate::Args;

const SPEC: StreamSpec = StreamSpec {
    rows: 50_000,
    keys: 100,
    zipf_s: 1.0,
    ts_step_ms: 10,
};
const DEPLOYMENT: &str = "backfill";
/// Set-ups per run, spread over the rounds; `setup_s` is their median.
const SETUPS: usize = 5;
/// Each phase is split into this many rounds, interleaved.
const ROUNDS: usize = 4;
/// Online/offline consistency probes, one per key.
const PROBES: usize = 50;

fn serial() -> OfflineOptions {
    OfflineOptions {
        parallel_windows: false,
        threads: 1,
        ..OfflineOptions::default()
    }
}

fn as_values(b: &RowBatch) -> Vec<Vec<Value>> {
    b.rows.iter().map(|r| r.values().to_vec()).collect()
}

/// Build the database and deploy; returns it with the deploy time in ms.
fn setup(seed: u64, sql: &str, tracer: Option<&mut Tracer>) -> (Database, f64) {
    let db = micro_db(SPEC, seed, tracer);
    let t = Instant::now();
    db.deploy(&format!("DEPLOY {DEPLOYMENT} AS {sql}"))
        .expect("backfill deploys");
    (db, t.elapsed().as_secs_f64() * 1e3)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let sql = micro_sql(4, 1, 10_000, true);
    let t0 = Instant::now();
    let (db, deploy_ms) = setup(args.seed, &sql, args.trace.then_some(&mut tr));
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let dep = db.deployment(DEPLOYMENT).expect("deployed");
    let parallel = OfflineOptions::default();
    let query = |opts: &OfflineOptions| db.offline_query_with(&sql, opts);

    // Warm-up query, kept as the reference for the serial run.
    out.attempted += 1;
    let reference = match query(&parallel) {
        Ok(b) => b,
        Err(e) => {
            out.failed += 1;
            out.mismatch(format!("warm-up backfill failed: {e}"));
            return out;
        }
    };

    let probe = HostProbe::start();
    let first_serial: Mutex<Option<RowBatch>> = Mutex::new(None);
    // Query durations in ms: parallel untraced, and (traced run) parallel
    // traced.
    let durations = Mutex::new(Vec::new());
    let timed = |opts: &OfflineOptions| {
        let t = Instant::now();
        let res = query(opts);
        durations
            .lock()
            .expect("no panics while held")
            .push(t.elapsed().as_secs_f64() * 1e3);
        res
    };
    let (mut one, mut peak) = (ClosedLoopResult::default(), ClosedLoopResult::default());
    let mut allocs = 0u64;
    let q = &dep.query;
    let by_window = q.aggregates_by_window();
    let (mut speedups, mut traced_ms) = (Vec::new(), Vec::new());
    let mut req = 0u64;
    for round in 0..ROUNDS {
        if !args.trace {
            let a0 = allocations();
            peak.add(closed_loop(1, args.phase(0.75 / ROUNDS as f64), |_, _| {
                timed(&parallel).is_ok()
            }));
            allocs += allocations() - a0;
            one.add(closed_loop(
                1,
                args.phase(0.25 / ROUNDS as f64),
                |_, _| match query(&serial()) {
                    Ok(b) => {
                        first_serial
                            .lock()
                            .expect("no panics while held")
                            .get_or_insert(b);
                        true
                    }
                    Err(_) => false,
                },
            ));
        } else {
            peak.add(closed_loop(1, args.phase(0.25 / ROUNDS as f64), |_, _| {
                timed(&parallel).is_ok()
            }));
            let deadline = Instant::now() + args.phase(0.25 / ROUNDS as f64);
            let first = req;
            while req == first || Instant::now() < deadline {
                req += 1;
                let t = Instant::now();
                let real = tr.span("offline.query", None, req, || query(&parallel));
                traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                out.failed += u64::from(real.is_err());
                let root = tr.begin("replay", None, req);
                let mut tables = Tables::new();
                tr.span("storage.snapshot", Some(root), req, || {
                    for name in STREAMS.iter().chain(["dim0"].iter()) {
                        let t = db.table(name).expect("loaded table");
                        tables.insert(name.to_string(), t.scan_all(0).expect("in-memory scan"));
                    }
                });
                let base = &tables[q.base_table.as_str()];
                let mut results = vec![Vec::new(); q.windows.len()];
                let t_serial = Instant::now();
                for (wid, ids) in by_window
                    .iter()
                    .enumerate()
                    .filter(|(_, ids)| !ids.is_empty())
                {
                    results[wid] = tr
                        .span("offline.sweep", Some(root), req, || {
                            sweep_window(q, &q.windows[wid], &tables, base, ids, parallel.mode)
                        })
                        .expect("sweep");
                }
                let serial_s = t_serial.elapsed().as_secs_f64();
                let joined = tr.span("offline.concat_join", Some(root), req, || {
                    concat_join(base, &results)
                });
                std::hint::black_box(joined);
                tr.end(root);
                let t_par = Instant::now();
                let par = tr.span("offline.compute_windows", None, req, || {
                    compute_windows(q, &tables, base, &parallel)
                });
                speedups.push(serial_s / t_par.elapsed().as_secs_f64());
                if par.map(|p| p != results).unwrap_or(true) {
                    out.mismatch(format!(
                        "query {req}: parallel window results differ from serial sweeps"
                    ));
                }
            }
        }
        // Spread the remaining set-ups evenly over the rounds.
        while setups.len() < 1 + (SETUPS - 1) * (round + 1) / ROUNDS {
            let t = Instant::now();
            drop(setup(args.seed, &sql, None));
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let host = probe.finish();
    out.attempted += peak.completed + one.completed;
    out.failed += peak.failed + one.failed;
    let durations = durations.into_inner().expect("no panics while held");
    if !args.trace {
        out.metric("setup_s", median(&setups));
        out.metric("p50_ms", median(&durations));
        out.note("qps_1c", one.rate(), "ops/s");
        out.metric("peak_qps", peak.rate());
        out.metric("allocs_per_op", ratio(allocs as f64, peak.completed as f64));
        out.metric("mem_bytes_per_row", mem_bytes_per_row(&db));
        out.note("batch_s", median(&durations) / 1e3, "s");
        out.note("queries.parallel", peak.completed as f64, "count");
        out.note("queries.serial", one.completed as f64, "count");
        out.note("rows_per_query", reference.rows.len() as f64, "count");
        out.note("host.stall_frac", host.stall_frac(), "ratio");
        out.note("host.gaps", host.gaps as f64, "count");
    } else {
        let table = layer_table(tr.spans());
        let ms = |name: &str| table.get(name).map_or(0.0, LayerRow::mean_us) / 1e3;
        out.metric("offline.sweep_ms", ms("offline.sweep"));
        out.metric("offline.parallel_speedup", mean(&speedups));
        out.metric("offline.concat_join_ms", ms("offline.concat_join"));
        out.metric(
            "trace.overhead_frac",
            median(&traced_ms) / median(&durations) - 1.0,
        );
        let base_rows = stream_rows(SPEC, args.seed, 0);
        let mut per_key: HashMap<i64, usize> = HashMap::new();
        for r in &base_rows {
            if let Value::Bigint(k) = r.values()[1] {
                *per_key.entry(k).or_default() += 1;
            }
        }
        let largest = per_key.values().copied().max().unwrap_or(0);
        out.metric(
            "offline.skew_max_share",
            ratio(largest as f64, base_rows.len() as f64),
        );
        out.metric("sql.deploy_ms", deploy_ms);
        out.metric(
            "exec.compiled_window_share",
            ratio(
                dep.program().compiled_windows() as f64,
                q.windows.len() as f64,
            ),
        );
        out.metric("host.stall_frac", host.stall_frac());
    }

    // Correctness, outside the timed phases. 1: the serial engine agrees
    // with the parallel one.
    let serial_batch = match first_serial.into_inner().expect("no panics while held") {
        Some(b) => Ok(b),
        None => query(&serial()),
    };
    out.attempted += 1;
    match serial_batch {
        Ok(s)
            if openmldb_bench::harness::results_close(
                &[as_values(&s)],
                &[as_values(&reference)],
            ) => {}
        Ok(_) => out.mismatch("serial and parallel backfills differ".into()),
        Err(e) => out.mismatch(format!("serial backfill failed: {e}")),
    }

    // 2: online request mode answers a tuple exactly as the offline
    // backfill computes the same tuple once stored. One probe per key, all
    // after the generated history, so no probe is in another's window.
    let anchor = max_ts(&stream_rows(SPEC, args.seed, 0));
    let probes: Vec<Row> = (0..PROBES)
        .map(|j| request_row(90_000_000 + j as i64, j as i64, anchor + 1 + j as i64))
        .collect();
    let mut rp = Replayer::new(&dep);
    let mut online = Vec::with_capacity(PROBES);
    for (j, p) in probes.iter().enumerate() {
        out.attempted += 1;
        let served = if args.trace {
            traced_request(&mut tr, &mut rp, 1_000_000 + j as u64, &db, &dep, p, || {
                db.request_readonly(DEPLOYMENT, p)
            })
        } else {
            db.request_readonly(DEPLOYMENT, p)
        };
        match served {
            Ok(row) => online.push(row),
            Err(e) => out.mismatch(format!("probe {j}: online request failed: {e}")),
        }
    }
    for p in &probes {
        if let Err(e) = db.insert_row("t1", p) {
            out.mismatch(format!("probe insert failed: {e}"));
        }
    }
    out.attempted += 1;
    match query(&parallel) {
        Ok(batch) => {
            let by_id: HashMap<i64, &Row> = batch
                .rows
                .iter()
                .filter_map(|r| match r.values()[0] {
                    Value::Bigint(id) => Some((id, r)),
                    _ => None,
                })
                .collect();
            for (p, served) in probes.iter().zip(&online) {
                let Value::Bigint(id) = p.values()[0] else {
                    unreachable!("probe ids are BIGINT")
                };
                match by_id.get(&id) {
                    Some(offline) if rows_close(served, offline) => {}
                    Some(offline) => {
                        out.mismatch(format!("probe {id}: online {served:?} offline {offline:?}"))
                    }
                    None => out.mismatch(format!("probe {id}: missing from the backfill")),
                }
            }
        }
        Err(e) => out.mismatch(format!("backfill after probes failed: {e}")),
    }
    out.note("consistency_probes", online.len() as f64, "count");

    if args.trace {
        online_layers(&mut out, &tr, rp.counts);
        out.metric("sql.plan_cache_hit_ratio", plan_cache_hit_ratio(&db));
        finish_trace(&mut out, &tr, &args.workload);
        zero_unmeasured(&mut out);
    }
    out
}
