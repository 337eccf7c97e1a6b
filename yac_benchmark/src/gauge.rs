//! The host-speed gauge, and the CPU-time stopwatch the end-to-end
//! metrics are scaled with.
//!
//! The benchmark runs on shared machines whose speed drifts by a tenth
//! or more over minutes as their neighbours' load changes, and process
//! CPU time drifts with wall time, so no statistic of the program's own
//! timings can tell a slower program from a slower machine. The gauge
//! times a fixed kernel of the benchmark's own — a set-associative LRU
//! tag array fed a hashed address stream, on `WORKERS` threads — between
//! the program's operations, and every end-to-end time is reported at
//! the speed of a reference host, one on which a gauge sample takes
//! `REFERENCE_MS`. Only the CPU-bound share of a timed phase is rescaled
//! (see [`scale`]); time spent waiting — a server's timed park, say — is
//! reported as measured.
//!
//! The kernel is no part of the program under test, so a change to the
//! program moves the scaled times and not the gauge.

use crate::stats::{derive_seed, median};
use crate::WORKERS;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Duration of one gauge sample on the reference host, in milliseconds:
/// the unit every scaled time is expressed in. It is about the sample's
/// median on the two-core host the benchmark was built on.
pub const REFERENCE_MS: f64 = 20.0;

/// How often the batch workloads sample the gauge between operations.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(500);

const STEPS: u64 = 2_000_000;
const SETS: usize = 512;
const WAYS: usize = 8;

/// The gauge's samples so far.
pub struct Gauge {
    samples_ms: Vec<f64>,
    last: Instant,
}

impl Gauge {
    /// A gauge with no samples yet.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge {
            samples_ms: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Times one run of the kernel on `WORKERS` threads at once. Call it
    /// right after CPU-bound work: just after an idle spell a core runs
    /// the kernel up to twice as slow, which would read as a slow host.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for lane in 0..WORKERS as u64 {
                scope.spawn(move || std::hint::black_box(kernel(lane)));
            }
        });
        self.last = Instant::now();
        self.samples_ms
            .push((self.last - start).as_secs_f64() * 1e3);
    }

    /// Samples when the last sample is `SAMPLE_EVERY` old.
    pub fn sample_when_due(&mut self) {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// Samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median sample duration in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// This host's speed relative to the reference host: above 1 when
    /// the gauge ran faster than `REFERENCE_MS`.
    ///
    /// # Panics
    ///
    /// Panics before the first sample.
    #[must_use]
    pub fn speed(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }
}

/// The gauge kernel for one thread: a `SETS` × `WAYS` LRU tag array,
/// which fits a core's L1 cache, fed addresses that mostly fall in a
/// small hot region. Among the kernels tried (integer hashing, dependent
/// reads from 2 and 64 MiB tables, this one) its speed followed both
/// batch workloads' most closely. Returns the hit count so the work
/// cannot be optimised away.
fn kernel(lane: u64) -> u64 {
    let mut tags = vec![[0u64; WAYS]; SETS];
    let mut z = lane;
    let mut hits = 0;
    for i in 0..STEPS {
        z = derive_seed(z, i);
        let addr = if z & 3 == 0 {
            z >> 20
        } else {
            (z >> 40) & 0x3fff
        };
        let set = &mut tags[addr as usize % SETS];
        let tag = addr / SETS as u64;
        match set.iter().position(|&t| t == tag) {
            Some(way) => {
                hits += 1;
                set[..=way].rotate_right(1);
            }
            None => {
                set.rotate_right(1);
                set[0] = tag;
            }
        }
    }
    hits
}

/// The factor that takes a measured time to the reference host's speed:
/// the CPU-bound share `cpu_share` of it runs `speed` times as fast
/// here as there, the rest is waiting and does not depend on the host.
#[must_use]
pub fn scale(cpu_share: f64, speed: f64) -> f64 {
    1.0 - cpu_share + cpu_share * speed
}

/// Wall and process CPU time of a timed phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall-clock time.
    pub wall: f64,
    /// CPU time of every thread of the process, 0 where the platform
    /// does not report it.
    pub cpu: f64,
}

impl Timing {
    /// The share of the wall time the process kept a core busy: CPU time
    /// over wall time, at most 1 (two busy cores are as CPU-bound as
    /// one).
    #[must_use]
    pub fn cpu_share(&self) -> f64 {
        if self.wall > 0.0 {
            (self.cpu / self.wall).min(1.0)
        } else {
            0.0
        }
    }
}

impl AddAssign for Timing {
    fn add_assign(&mut self, other: Timing) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// Times a phase in wall and process CPU time.
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<f64>,
}

impl Stopwatch {
    /// Starts timing.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// The time since `start`.
    #[must_use]
    pub fn stop(&self) -> Timing {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = match (self.cpu, process_cpu_s()) {
            (Some(start), Some(end)) => end - start,
            _ => 0.0,
        };
        Timing { wall, cpu }
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the process so far (every thread, live
/// or ended), from `/proc/self/stat`; `None` where that is not readable.
fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_S)
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name, field
/// 2, is in parentheses and may itself hold spaces and parentheses, so
/// fields are counted from the last `)`: utime and stime are fields 14
/// and 15.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_parse_past_odd_command_names() {
        let line = "4242 (yac (x) y) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 17 0 0 20 0 3 0 100 1000 200";
        assert_eq!(cpu_ticks(line), Some(267));
        assert_eq!(cpu_ticks("4242 (short) R 1"), None);
        assert_eq!(cpu_ticks("no parenthesis"), None);
        assert!(process_cpu_s().is_some(), "Linux reports process CPU time");
    }

    #[test]
    fn only_the_cpu_bound_share_is_rescaled() {
        assert_eq!(scale(0.0, 0.5), 1.0);
        assert_eq!(scale(1.0, 0.5), 0.5);
        assert_eq!(scale(0.5, 2.0), 1.5);
        let t = Timing {
            wall: 2.0,
            cpu: 3.8,
        };
        assert_eq!(t.cpu_share(), 1.0);
        let t = Timing {
            wall: 2.0,
            cpu: 0.5,
        };
        assert_eq!(t.cpu_share(), 0.25);
        assert_eq!(Timing::default().cpu_share(), 0.0);
    }

    #[test]
    fn the_kernel_is_deterministic_per_lane() {
        assert_eq!(kernel(1), kernel(1));
        assert_ne!(kernel(0), kernel(1));
    }
}
