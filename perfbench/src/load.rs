//! Load generators.
//!
//! * The open loop issues op `i` at its due time `start + i / rate`
//!   whatever happened before, and charges each op from its due time, so a
//!   stall is paid by every op that queued behind it (no coordinated
//!   omission). One thread issues every op.
//! * The closed loop runs `threads` clients back to back and counts
//!   completions over the phase's elapsed time.
//!
//! Workloads split each phase into rounds interleaved across the whole run:
//! the host's speed changes on a scale of seconds, and interleaving gives
//! every metric the same mix of fast and slow periods.

use std::time::{Duration, Instant};

/// Time source of the open loop; tests substitute a simulated clock.
pub trait Clock {
    fn now(&self) -> Duration;
    fn wait_until(&self, t: Duration);
}

pub struct RealClock(Instant);

impl RealClock {
    pub fn start() -> RealClock {
        RealClock(Instant::now())
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    /// Sleeps while the due time is far off, then spins: the inter-op gap
    /// at the benchmark's rates is tens of microseconds, below the sleep
    /// granularity.
    fn wait_until(&self, t: Duration) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let left = t - now;
            if left > Duration::from_micros(1_500) {
                std::thread::sleep(left - Duration::from_millis(1));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Per-op timings of one open-loop phase, in milliseconds.
#[derive(Debug, Default)]
pub struct OpenLoopResult {
    /// Completion minus due time.
    pub latency_ms: Vec<f64>,
    /// Actual start minus due time: how late the generator ran.
    pub late_ms: Vec<f64>,
    pub failed: u64,
}

impl OpenLoopResult {
    /// Append a later phase at the same rate.
    pub fn extend(&mut self, other: OpenLoopResult) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.failed += other.failed;
    }
}

/// Issue `ops` operations at `rate` per second. `op(i)` returns whether the
/// operation succeeded.
pub fn open_loop<C: Clock>(
    clock: &C,
    rate: f64,
    ops: usize,
    mut op: impl FnMut(usize) -> bool,
) -> OpenLoopResult {
    let mut out = OpenLoopResult {
        latency_ms: Vec::with_capacity(ops),
        late_ms: Vec::with_capacity(ops),
        failed: 0,
    };
    let origin = clock.now();
    for i in 0..ops {
        let due = origin + Duration::from_secs_f64(i as f64 / rate);
        clock.wait_until(due);
        let started = clock.now();
        let ok = op(i);
        let done = clock.now();
        out.late_ms.push(ms(started - due));
        out.latency_ms.push(ms(done - due));
        out.failed += u64::from(!ok);
    }
    out
}

/// Throughput of one closed-loop phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedLoopResult {
    pub completed: u64,
    pub failed: u64,
    /// From the start to the last completion.
    pub elapsed: Duration,
}

impl ClosedLoopResult {
    /// Combine phases run at different times into one.
    pub fn add(&mut self, other: ClosedLoopResult) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
    }

    /// Completed ops per second.
    pub fn rate(&self) -> f64 {
        crate::stats::ratio(self.completed as f64, self.elapsed.as_secs_f64())
    }
}

/// Run `threads` clients back to back for `dur`; `op(thread, seq)` returns
/// whether the operation succeeded. An op that starts before the deadline
/// is finished and counted, and the phase lasts until it completes.
pub fn closed_loop(
    threads: usize,
    dur: Duration,
    op: impl Fn(usize, u64) -> bool + Sync,
) -> ClosedLoopResult {
    let start = Instant::now();
    let end = start + dur;
    let per_thread: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                s.spawn(move || {
                    let (mut done, mut failed) = (0u64, 0u64);
                    while Instant::now() < end {
                        failed += u64::from(!op(t, done));
                        done += 1;
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    ClosedLoopResult {
        completed: per_thread.iter().map(|(d, _)| d).sum(),
        failed: per_thread.iter().map(|(_, f)| f).sum(),
        elapsed: start.elapsed(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Simulated time: ops advance it explicitly, waiting jumps ahead.
    struct SimClock(Cell<Duration>);

    impl Clock for SimClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn wait_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_ops_queued_behind_it() {
        let clock = SimClock(Cell::new(Duration::ZERO));
        let us = Duration::from_micros;
        // 1000 ops/s: one due every 1 ms. Each op takes 100 us, except op 3,
        // which stalls for 3.5 ms.
        let r = open_loop(&clock, 1_000.0, 8, |i| {
            let cost = if i == 3 { us(3_500) } else { us(100) };
            clock.0.set(clock.0.get() + cost);
            true
        });
        let lat: Vec<u64> = r
            .latency_ms
            .iter()
            .map(|m| (m * 1e3).round() as u64)
            .collect();
        // Op 3 ends at 6.5 ms. Op 4 (due 4) starts at 6.5 and ends at 6.6:
        // charged 2.6 ms. Op 5 (due 5) ends 6.7 (1.7 ms), op 6 (due 6) ends
        // 6.8 (0.8 ms); op 7 is on schedule again.
        assert_eq!(lat, vec![100, 100, 100, 3_500, 2_600, 1_700, 800, 100]);
        let late: Vec<u64> = r.late_ms.iter().map(|m| (m * 1e3).round() as u64).collect();
        assert_eq!(late, vec![0, 0, 0, 0, 2_500, 1_600, 700, 0]);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn failures_are_counted() {
        let clock = SimClock(Cell::new(Duration::ZERO));
        let r = open_loop(&clock, 100.0, 10, |i| i % 5 != 0);
        assert_eq!(r.failed, 2);
        assert_eq!(r.latency_ms.len(), 10);
    }

    #[test]
    fn closed_loop_counts_every_op_once() {
        let calls = AtomicU64::new(0);
        let r = closed_loop(2, Duration::from_millis(60), |_, _| {
            let n = calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
            !n.is_multiple_of(7)
        });
        let n = calls.load(Ordering::Relaxed);
        assert_eq!(r.completed, n);
        assert_eq!(
            r.failed,
            (0..n).filter(|i| i.is_multiple_of(7)).count() as u64
        );
        assert!(r.elapsed >= Duration::from_millis(60));
        let mut total = r;
        total.add(r);
        assert_eq!(total.completed, 2 * n);
        assert_eq!(total.rate(), r.rate());
    }
}
