//! Turning a trace into the per-layer metrics, and the pieces every
//! workload shares: the traced online op and the metrics of layers a
//! workload does not touch.

use std::collections::BTreeMap;

use openmldb_core::Database;
use openmldb_online::Deployment;
use openmldb_types::{Result, Row};

use crate::replay::{ReplayCounts, Replayer};
use crate::report::{Outcome, PER_LAYER};
use crate::stats::{mean, ratio};
use crate::trace::{layer_table, LayerRow, Span, SpanId, Tracer};

/// Serve `request` through `call` under an `online.request` span, then
/// replay it layer by layer under the same request id. Returns the call's
/// result.
pub fn traced_request(
    tr: &mut Tracer,
    rp: &mut Replayer,
    req: u64,
    db: &Database,
    dep: &Deployment,
    request: &Row,
    call: impl FnOnce() -> Result<Row>,
) -> Result<Row> {
    let out = tr.span("online.request", None, req, call)?;
    rp.replay(tr, req, db, dep, request)?;
    Ok(out)
}

/// Per request id: the real call's duration minus the durations of its
/// replay's children, in microseconds.
pub fn unattributed_us(spans: &[Span]) -> Vec<f64> {
    let mut real: BTreeMap<u64, u64> = BTreeMap::new();
    let mut replay: BTreeMap<SpanId, u64> = BTreeMap::new();
    let mut children: BTreeMap<SpanId, u64> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        match (s.name, s.parent) {
            ("online.request", None) => {
                real.insert(s.req, s.dur_ns());
            }
            ("replay", None) => {
                replay.insert(id, s.req);
            }
            (_, Some(p)) => *children.entry(p).or_default() += s.dur_ns(),
            _ => {}
        }
    }
    replay
        .iter()
        .filter_map(|(id, req)| {
            let real = *real.get(req)? as f64;
            let kids = children.get(id).copied().unwrap_or(0) as f64;
            Some((real - kids) / 1_000.0)
        })
        .collect()
}

/// Fill the storage, types, exec and online timings a trace of online
/// requests yields.
pub fn online_layers(out: &mut Outcome, tr: &Tracer, counts: ReplayCounts) {
    let table = layer_table(tr.spans());
    let us = |name: &str| table.get(name).map_or(0.0, LayerRow::mean_us);
    out.metric("storage.scan_us", us("storage.scan"));
    out.metric(
        "storage.rows_per_scan",
        ratio(counts.rows_scanned as f64, counts.scans as f64),
    );
    out.metric("storage.join_probe_us", us("storage.join_probe"));
    out.metric("storage.put_us", us("storage.put"));
    out.metric("types.decode_us", us("types.decode"));
    out.metric(
        "types.bytes_decoded_per_req",
        ratio(counts.bytes_decoded as f64, counts.replays as f64),
    );
    out.metric("exec.fold_us", us("exec.fold"));
    out.metric("exec.interp_fold_us", us("exec.interp_fold"));
    out.metric("online.request_us", us("online.request"));
    out.metric("online.unattributed_us", mean(&unattributed_us(tr.spans())));
    out.metric("online.preagg_query_us", us("online.preagg_query"));
}

/// Hit ratio of `db`'s plan cache over its whole life (each run builds a
/// fresh database, so this is the run's own delta).
pub fn plan_cache_hit_ratio(db: &Database) -> f64 {
    let (hits, misses) = db.plan_cache_stats();
    ratio(hits as f64, (hits + misses) as f64)
}

/// Report every per-layer metric the workload did not measure as 0 (the
/// layer is not on its path).
pub fn zero_unmeasured(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        if !out.metrics.iter().any(|(n, _)| *n == name) {
            out.metric(name, 0.0);
        }
    }
}

/// Print the per-layer table of a trace and write its spans out.
pub fn finish_trace(out: &mut Outcome, tr: &Tracer, workload: &str) {
    let table = layer_table(tr.spans());
    println!("== per-layer self time ({workload}) ==");
    println!(
        "  {:<22} {:>8} {:>12} {:>12}",
        "span", "count", "mean_us", "total_ms"
    );
    for (name, row) in &table {
        println!(
            "  {name:<22} {:>8} {:>12.3} {:>12.3}",
            row.count,
            row.mean_us(),
            row.self_ns as f64 / 1e6
        );
    }
    let un = unattributed_us(tr.spans());
    println!(
        "  {:<22} {:>8} {:>12.3}",
        "unattributed",
        un.len(),
        mean(&un)
    );
    let path = std::path::Path::new(".bench_out").join(format!("trace-{workload}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => out.note(format!("trace write failed: {e}"), 0.0, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_real_call_minus_replay_children() {
        let s = |name, parent, req, start_ns, end_ns| Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        };
        let spans = vec![
            s("online.request", None, 5, 0, 10_000),
            s("replay", None, 5, 10_000, 19_000),
            s("storage.scan", Some(1), 5, 10_000, 14_000),
            s("exec.fold", Some(1), 5, 14_000, 18_000),
            s("types.decode", None, 5, 19_000, 20_000),
        ];
        assert_eq!(unattributed_us(&spans), vec![2.0]);
    }
}
