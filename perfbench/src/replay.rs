//! Layer replay of one online request.
//!
//! After a sampled request has been served by the real public call, the
//! replay repeats its layer calls on the same inputs and in the engine's
//! order (`openmldb_online::engine::execute_streaming`): LAST JOIN probes,
//! then per window either the pre-aggregate query or the scan followed by
//! the compiled kernel or the interpreted fold. Each call is one child span
//! of a `replay` span carrying the request's id, so
//! `real call − Σ replay children` is the time no layer accounts for
//! (scratch pooling, observability, response build).
//!
//! Decoding is not on the streaming path, which folds raw row bytes; its
//! cost over the same scanned rows is recorded as a separate root span.

use openmldb_core::Database;
use openmldb_exec::{EntryOrder, ScanEntry, WindowAggSet, WindowState};
use openmldb_online::{Deployment, TableProvider};
use openmldb_sql::Frame;
use openmldb_types::{CompactCodec, KeyValue, Result, Row, RowCodec, Value};

use crate::trace::{SpanId, Tracer};

/// Work counted by replays, for the per-layer ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub replays: u64,
    pub scans: u64,
    pub rows_scanned: u64,
    pub bytes_decoded: u64,
}

/// Reusable replay buffers for one deployment.
pub struct Replayer {
    codec: CompactCodec,
    by_window: Vec<Vec<usize>>,
    arena: Vec<u8>,
    entries: Vec<ScanEntry>,
    /// Every row scanned by the current replay, as `(start, len)` in
    /// `arena`.
    scanned: Vec<(usize, usize)>,
    states: Vec<Option<WindowState>>,
    sets: Vec<Option<WindowAggSet>>,
    out: Vec<Value>,
    pub counts: ReplayCounts,
}

impl Replayer {
    pub fn new(dep: &Deployment) -> Replayer {
        let q = &dep.query;
        Replayer {
            codec: CompactCodec::new(q.base_schema.clone()),
            by_window: q.aggregates_by_window(),
            arena: Vec::new(),
            entries: Vec::new(),
            scanned: Vec::new(),
            states: (0..q.windows.len()).map(|_| None).collect(),
            sets: (0..q.windows.len()).map(|_| None).collect(),
            out: Vec::new(),
            counts: ReplayCounts::default(),
        }
    }

    /// Replay `request` under a `replay` span (id `req`), then decode its
    /// scanned rows under a `types.decode` span. Returns the replay span.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        db: &Database,
        dep: &Deployment,
        request: &Row,
    ) -> Result<SpanId> {
        let root = tr.begin("replay", None, req);
        self.arena.clear();
        self.scanned.clear();
        let res = self.layers(tr, root, req, db, dep, request);
        tr.end(root);
        res?;
        self.counts.replays += 1;
        let codec = &self.codec;
        let arena = &self.arena;
        let scanned = &self.scanned;
        tr.span("types.decode", None, req, || -> Result<()> {
            for &(start, len) in scanned {
                std::hint::black_box(codec.decode(&arena[start..start + len])?);
            }
            Ok(())
        })?;
        self.counts.bytes_decoded += self.scanned.iter().map(|&(_, l)| l as u64).sum::<u64>();
        Ok(root)
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        req: u64,
        db: &Database,
        dep: &Deployment,
        request: &Row,
    ) -> Result<()> {
        let q = &dep.query;
        let parent = Some(root);
        let mut combined = request.values().to_vec();
        for join in &q.joins {
            let table = db.table(&join.table).expect("deployed join table");
            let right: Vec<usize> = join.eq_pairs.iter().map(|&(_, r)| r).collect();
            let index = table
                .find_index(&right, join.order_col)
                .expect("join index");
            let key: Vec<KeyValue> = join
                .eq_pairs
                .iter()
                .map(|&(l, _)| KeyValue::from(&combined[l]))
                .collect();
            let hit = tr.span("storage.join_probe", parent, req, || {
                table.latest(index, &key)
            })?;
            match hit {
                Some(row) => combined.extend(row.values().iter().cloned()),
                None => combined.extend((0..join.schema.len()).map(|_| Value::Null)),
            }
        }

        for (wid, window) in q.windows.iter().enumerate() {
            if self.by_window[wid].is_empty() {
                continue;
            }
            let anchor = request.ts_at(window.order_col);
            let key: Vec<KeyValue> = window
                .partition_cols
                .iter()
                .map(|&c| KeyValue::from(&request.values()[c]))
                .collect();
            let include_request = !window.exclude_current_row;
            let tables: Vec<&str> = (!window.instance_not_in_window)
                .then_some(q.base_table.as_str())
                .into_iter()
                .chain(window.union_tables.iter().map(String::as_str))
                .collect();

            if let (Some(preagg), Frame::RowsRange { preceding_ms }, false) = (
                &dep.preaggs[wid],
                window.frame,
                window.instance_not_in_window,
            ) {
                let extra = include_request.then_some(request);
                let raw = |lo: i64, hi: i64| -> Result<Vec<Row>> {
                    let mut rows = Vec::new();
                    for name in std::iter::once(q.base_table.as_str())
                        .chain(window.union_tables.iter().map(String::as_str))
                    {
                        let t = db.table(name).expect("deployed window table");
                        let index = t
                            .find_index(&window.partition_cols, Some(window.order_col))
                            .expect("window index");
                        rows.extend(
                            t.range_projected(index, &key, lo, hi, None)?
                                .into_iter()
                                .map(|(_, r)| r),
                        );
                    }
                    Ok(rows)
                };
                let outs = tr.span("online.preagg_query", parent, req, || {
                    preagg.query_with_extra_row(&key, anchor - preceding_ms, anchor, extra, raw)
                })?;
                std::hint::black_box(outs);
                continue;
            }

            let per_table_limit = match window.frame {
                Frame::Rows { preceding } => {
                    Some(preceding as usize + usize::from(!include_request))
                }
                _ => None,
            };
            let lower = match window.frame {
                Frame::RowsRange { preceding_ms } => anchor - preceding_ms,
                _ => i64::MIN,
            };
            let arena = &mut self.arena;
            let entries = &mut self.entries;
            entries.clear();
            tr.span("storage.scan", parent, req, || -> Result<()> {
                let mut seq = 0usize;
                for name in &tables {
                    let t = db.table(name).expect("deployed window table");
                    let index = t
                        .find_index(&window.partition_cols, Some(window.order_col))
                        .expect("window index");
                    t.scan_window(
                        index,
                        &key,
                        lower,
                        anchor,
                        per_table_limit,
                        &mut |ts, data| {
                            let start = arena.len();
                            arena.extend_from_slice(data);
                            entries.push(ScanEntry {
                                ts,
                                seq,
                                start,
                                len: data.len(),
                            });
                            seq += 1;
                            true
                        },
                    )?;
                }
                Ok(())
            })?;
            self.counts.scans += 1;
            self.counts.rows_scanned += self.entries.len() as u64;
            self.scanned
                .extend(self.entries.iter().map(|e| (e.start, e.len)));

            let codec = &self.codec;
            let arena = &self.arena;
            let entries = &mut self.entries;
            let out = &mut self.out;
            if let Some(wp) = dep.program().window(wid) {
                let state = self.states[wid].get_or_insert_with(|| wp.new_state());
                tr.span("exec.fold", parent, req, || -> Result<()> {
                    let n = entries.len();
                    let first = wp.first_in_frame(n + usize::from(include_request));
                    let order = if entries.windows(2).all(|w| w[0].ts > w[1].ts) {
                        EntryOrder::ReversedScan
                    } else {
                        entries.sort_unstable_by_key(|e| (e.ts, e.seq));
                        EntryOrder::Ascending
                    };
                    let total = n + usize::from(include_request);
                    let req_row = (include_request && first < total).then(|| request.values());
                    wp.run(
                        state,
                        entries,
                        first.min(n),
                        order,
                        arena,
                        req_row,
                        codec,
                        &mut || Ok(()),
                    )?;
                    out.clear();
                    wp.outputs_into(state, arena, req_row, out)
                })?;
            } else {
                let set = match &mut self.sets[wid] {
                    Some(set) => set,
                    slot => {
                        let refs: Vec<_> = self.by_window[wid]
                            .iter()
                            .map(|&i| &q.aggregates[i])
                            .collect();
                        slot.insert(WindowAggSet::new(&refs)?)
                    }
                };
                tr.span("exec.interp_fold", parent, req, || -> Result<()> {
                    set.reset();
                    entries.sort_unstable_by_key(|e| (e.ts, e.seq));
                    let mut first = 0usize;
                    if let Frame::Rows { preceding } = window.frame {
                        first = (entries.len() + usize::from(include_request))
                            .saturating_sub(preceding as usize + 1);
                    }
                    if let Some(maxsize) = window.maxsize {
                        first = first.max(
                            (entries.len() + usize::from(include_request)).saturating_sub(maxsize),
                        );
                    }
                    for e in entries.iter().skip(first) {
                        set.update_view(&codec.view(e.bytes(arena))?)?;
                    }
                    if include_request {
                        set.update(request.values())?;
                    }
                    out.clear();
                    set.outputs_into(out);
                    Ok(())
                })?;
            }
        }
        Ok(())
    }
}
