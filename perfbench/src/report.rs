//! The run's result: metrics by name and unit, the human-readable report,
//! and the final JSON line.

/// End-to-end metrics, printed by every untraced run (`--trace 0`). Every
/// workload reports every one of them; what "op" means per workload is in
/// `layers.json`. Single-client throughput (`qps_1c`) is a report line
/// only: on a 2-vCPU host its run-to-run spread reaches 0.2.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("peak_qps", "ops/s"),
    ("allocs_per_op", "count"),
    ("mem_bytes_per_row", "B"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("sql.deploy_ms", "ms"),
    ("sql.plan_cache_hit_ratio", "ratio"),
    ("storage.scan_us", "us"),
    ("storage.rows_per_scan", "count"),
    ("storage.join_probe_us", "us"),
    ("storage.put_us", "us"),
    ("storage.binlog_backlog_mean", "count"),
    ("storage.binlog_backlog_max", "count"),
    ("storage.wal_bytes_per_row", "B"),
    ("storage.wal_sync_us", "us"),
    ("types.decode_us", "us"),
    ("types.bytes_decoded_per_req", "B"),
    ("exec.fold_us", "us"),
    ("exec.interp_fold_us", "us"),
    ("exec.compiled_window_share", "ratio"),
    ("online.request_us", "us"),
    ("online.unattributed_us", "us"),
    ("online.preagg_query_us", "us"),
    ("online.preagg_raw_rows_per_query", "count"),
    ("online.preagg_level_hits", "count"),
    ("offline.sweep_ms", "ms"),
    ("offline.parallel_speedup", "ratio"),
    ("offline.concat_join_ms", "ms"),
    ("offline.skew_max_share", "ratio"),
    ("core.recover_rows_per_s", "1/s"),
    ("host.stall_frac", "ratio"),
    ("gen.late_p95_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Ops that errored or were refused.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    pub mismatches: Vec<String>,
    /// Metrics by name (untraced: end-to-end; traced: per-layer).
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed with the report but not part of the JSON line.
    pub context: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.context.push((name.into(), value, unit));
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// The final JSON line over `expected` metrics, or an error naming a
    /// metric that is missing, repeated or not a finite number.
    pub fn json_line(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            let mut found = self.metrics.iter().filter(|(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some((_, v)), None) if v.is_finite() => *v,
                (Some((_, v)), None) => return Err(format!("metric {name} is {v}")),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} reported twice")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed + self.mismatches.len() as u64,
            fields.join(", ")
        ))
    }

    /// Human-readable report: metrics, then context, then mismatches.
    pub fn print_report(&self, title: &str, expected: &[(&str, &str)]) {
        println!("== perfbench {title} ==");
        for (name, unit) in expected {
            if let Some((_, v)) = self.metrics.iter().find(|(n, _)| n == name) {
                println!("  {name:<34} {v:>16.6} {unit}");
            }
        }
        for (name, v, unit) in &self.context {
            println!("  {name:<34} {v:>16.6} {unit}");
        }
        let failed = self.failed + self.mismatches.len() as u64;
        let fail_frac = crate::stats::ratio(failed as f64, self.attempted as f64);
        println!("  {:<34} {fail_frac:>16.6} ratio", "fail_frac");
        println!(
            "  attempted {} failed {} mismatches {}",
            self.attempted,
            self.failed,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(10) {
            println!("  MISMATCH {m}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_expected_metric_once() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        o.metric("a", 1.5);
        o.metric("b", 2.0);
        let line = o.json_line(&[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(o.json_line(&[("c", "ms")]).is_err());
        o.metric("a", 3.0);
        assert!(o.json_line(&[("a", "ms")]).is_err());
    }

    #[test]
    fn mismatches_count_as_failed() {
        let mut o = Outcome {
            attempted: 4,
            ..Default::default()
        };
        o.metric("a", f64::NAN);
        assert!(o.json_line(&[("a", "ms")]).is_err());
        o.metrics.clear();
        o.metric("a", 1.0);
        o.mismatch("row 3".into());
        assert!(!o.correct());
        assert!(o
            .json_line(&[("a", "ms")])
            .unwrap()
            .contains("\"failed\": 1"));
    }

    #[test]
    fn layer_map_documents_every_per_layer_metric() {
        let doc = include_str!("../layers.json");
        for (name, _) in PER_LAYER.iter().chain(END_TO_END.iter()) {
            assert!(
                doc.contains(&format!("\"{name}\"")),
                "{name} missing from layers.json"
            );
        }
    }
}
