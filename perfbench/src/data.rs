//! Seeded inputs. Every table is generated in-process by
//! `openmldb_workload` from the run's `--seed`; the engine only ever sees
//! the generated rows.

use std::sync::Arc;

use openmldb_core::Database;
use openmldb_online::TableProvider;
use openmldb_storage::{DataTable, IndexSpec, MemTable, Ttl};
use openmldb_types::{Row, Value};
use openmldb_workload::{micro_rows, micro_schema, MicroConfig};

use crate::trace::Tracer;

/// Stream tables of the paper's MicroBench (Fig 6).
pub const STREAMS: [&str; 3] = ["t1", "t2", "t3"];
const CATEGORIES: [&str; 6] = ["shoes", "bags", "shirts", "phones", "books", "toys"];
/// Every n-th load put is timed in a traced run.
const PUT_SAMPLE: usize = 64;

/// The shape of one generated stream table.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub rows: usize,
    pub keys: usize,
    pub zipf_s: f64,
    pub ts_step_ms: i64,
}

/// Rows of stream table `table_no` for `seed`.
pub fn stream_rows(spec: StreamSpec, seed: u64, table_no: u64) -> Vec<Row> {
    micro_rows(&MicroConfig {
        rows: spec.rows,
        distinct_keys: spec.keys,
        key_skew: spec.zipf_s,
        ts_step_ms: spec.ts_step_ms,
        seed: seed.wrapping_mul(1_000_003).wrapping_add(table_no),
        ..Default::default()
    })
}

/// An empty MicroBench stream table indexed by `(k, ts)`.
pub fn stream_table(name: &str) -> MemTable {
    MemTable::new(
        name,
        micro_schema(),
        vec![IndexSpec {
            name: "by_k".into(),
            key_cols: vec![1],
            ts_col: Some(5),
            ttl: Ttl::Unlimited,
        }],
    )
    .expect("static index spec")
}

/// Load `rows` through `DataTable::put`. With a tracer, every
/// [`PUT_SAMPLE`]-th put is recorded as a `storage.put` span.
pub fn load(table: &dyn DataTable, rows: &[Row], mut tracer: Option<&mut Tracer>) {
    for (i, row) in rows.iter().enumerate() {
        match tracer.as_deref_mut() {
            Some(tr) if i % PUT_SAMPLE == 0 => {
                tr.span("storage.put", None, i as u64, || table.put(row))
            }
            _ => table.put(row),
        }
        .expect("generated rows fit the schema");
    }
}

/// The MicroBench database: three stream tables plus one dimension table
/// `dim0` keyed like the streams (the LAST JOIN target).
pub fn micro_db(spec: StreamSpec, seed: u64, mut tracer: Option<&mut Tracer>) -> Database {
    let db = Database::new();
    for (no, name) in STREAMS.iter().enumerate() {
        let table = stream_table(name);
        load(
            &table,
            &stream_rows(spec, seed, no as u64),
            tracer.as_deref_mut(),
        );
        db.register_table(Arc::new(table))
            .expect("registering on an in-memory database cannot fail");
    }
    db.execute(
        "CREATE TABLE dim0 (k BIGINT, w0 DOUBLE, updated TIMESTAMP, INDEX(KEY=k, TS=updated))",
    )
    .expect("dim ddl");
    let dim = db.table("dim0").expect("just created");
    for k in 0..spec.keys as i64 {
        let w = 0.5 + (seed.wrapping_add(k as u64) % 97) as f64;
        dim.put(&Row::new(vec![
            Value::Bigint(k),
            Value::Double(w),
            Value::Timestamp(1),
        ]))
        .expect("dim row");
    }
    db
}

/// A request tuple in the stream schema; the non-key columns are a pure
/// function of `id`.
pub fn request_row(id: i64, key: i64, ts: i64) -> Row {
    Row::new(vec![
        Value::Bigint(id),
        Value::Bigint(key),
        Value::Double(1.0 + (id.rem_euclid(499)) as f64 * 0.75),
        Value::string(CATEGORIES[id.rem_euclid(6) as usize]),
        Value::Int(1 + id.rem_euclid(4) as i32),
        Value::Timestamp(ts),
    ])
}

/// Greatest timestamp among `rows` (column 5).
pub fn max_ts(rows: &[Row]) -> i64 {
    rows.iter().map(|r| r.ts_at(5)).max().unwrap_or(0)
}

/// `Σ mem_used / Σ row_count` over every table of `db`.
pub fn mem_bytes_per_row(db: &Database) -> f64 {
    let (mut bytes, mut rows) = (0usize, 0usize);
    for name in db.table_names() {
        let t = db.table(&name).expect("listed table");
        bytes += t.mem_used();
        rows += t.row_count();
    }
    crate::stats::ratio(bytes as f64, rows as f64)
}

/// Bit-identical row comparison (doubles compared by their bits).
pub fn rows_identical(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| match (x, y) {
                (Value::Double(p), Value::Double(q)) => p.to_bits() == q.to_bits(),
                _ => x == y,
            })
}

/// Row comparison with a relative tolerance on doubles; everything else
/// must match exactly.
pub fn rows_close(a: &Row, b: &Row) -> bool {
    openmldb_bench::harness::results_close(
        &[vec![a.values().to_vec()]],
        &[vec![b.values().to_vec()]],
    )
}
