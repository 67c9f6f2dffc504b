//! Host-noise probe: a thread that spins in short windows and records every
//! gap of at least [`GAP`] between two consecutive clock reads — time the
//! thread was not running. It spins 1 ms in every 10 ms so that it takes a
//! tenth of one core from the workload beside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Smallest gap counted as a stall.
pub const GAP: Duration = Duration::from_micros(100);
const SPIN: Duration = Duration::from_millis(1);
const PAUSE: Duration = Duration::from_millis(9);

#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeStats {
    /// Wall time spent inside spin windows.
    pub observed: Duration,
    /// Part of `observed` lost to gaps of at least [`GAP`].
    pub stalled: Duration,
    pub gaps: u64,
}

impl ProbeStats {
    /// Share of observed time the probe thread was stalled.
    pub fn stall_frac(&self) -> f64 {
        crate::stats::ratio(self.stalled.as_secs_f64(), self.observed.as_secs_f64())
    }
}

pub struct HostProbe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ProbeStats>,
}

impl HostProbe {
    pub fn start() -> HostProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut stats = ProbeStats::default();
            while !flag.load(Ordering::Relaxed) {
                let window = Instant::now();
                let mut last = window;
                loop {
                    let now = Instant::now();
                    let gap = now - last;
                    if gap >= GAP {
                        stats.stalled += gap;
                        stats.gaps += 1;
                    }
                    last = now;
                    if now - window >= SPIN {
                        break;
                    }
                }
                stats.observed += last - window;
                std::thread::sleep(PAUSE);
            }
            stats
        });
        HostProbe { stop, handle }
    }

    pub fn finish(self) -> ProbeStats {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("host probe panicked")
    }
}
