//! The repository benchmark: one command, three workloads, every metric by
//! name and unit, outputs checked for correctness.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig06_read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `fig06_read` — read-only request mode over the Fig 6 MicroBench.
//! * `longwin_ingest` — persisting and read-only requests against a
//!   30-day pre-aggregated window on a durable (WAL-backed) database.
//! * `offline_backfill` — offline batch over three MicroBench tables.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing. `--trace 1`
//! replays 1 in N ops layer by layer and prints the per-layer metrics; its
//! spans are written to `.bench_out/trace-<workload>.jsonl`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any correctness failure exits with code 1.

mod data;
mod fig06;
mod layers;
mod load;
mod longwin;
mod offline;
mod probe;
mod replay;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// `share` of the measured time, as a duration.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

const WORKLOADS: [&str; 3] = ["fig06_read", "longwin_ingest", "offline_backfill"];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0.5..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for durable state, under the working directory,
/// removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: &str) -> std::io::Result<ScratchDir> {
        let dir = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match ScratchDir::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create .bench_tmp: {e}");
            std::process::exit(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "fig06_read" => fig06::run(&args),
        "longwin_ingest" => longwin::run(&args, &scratch),
        _ => offline::run(&args),
    };
    drop(scratch);
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    outcome.print_report(
        &format!(
            "{} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        expected,
    );
    let line = match outcome.json_line(expected) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    };
    println!("{line}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload longwin_ingest --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("longwin_ingest", 7, 10.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload fig06_read --trace 2").is_err());
        assert!(args("--workload fig06_read --seed").is_err());
        assert!(args("--seed 1").is_err());
    }
}
