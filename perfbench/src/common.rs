//! Pieces every workload shares: the seeded generator, statement classes,
//! latency samples, process CPU and host steal, and the result record.

use mammoth_types::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// splitmix64: small, seedable, and the same on every platform, so a seed
/// names exactly one set of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The statement classes every workload runs. Each has its own latency
/// median among the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Point,
    Agg,
    Group,
    Join,
    Topn,
    Insert,
    Delete,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Point,
        Class::Agg,
        Class::Group,
        Class::Join,
        Class::Topn,
        Class::Insert,
        Class::Delete,
    ];
    pub const READS: [Class; 5] = [
        Class::Point,
        Class::Agg,
        Class::Group,
        Class::Join,
        Class::Topn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Agg => "agg",
            Class::Group => "group",
            Class::Join => "join",
            Class::Topn => "topn",
            Class::Insert => "insert",
            Class::Delete => "delete",
        }
    }
}

/// One round: the multiset of classes every round of a workload runs, in
/// a per-round seeded order. Whole rounds keep each class's share of the
/// statements identical in every run, whatever the seed or run length.
pub fn round(rng: &mut Rng, mix: &[(Class, usize)]) -> Vec<Class> {
    let mut r: Vec<Class> = mix
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect();
    rng.shuffle(&mut r);
    r
}

/// Sorted-on-demand latency samples, in microseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_us(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (nearest rank); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        Some(v[idx])
    }

    /// Median: the mean of the two middle samples for an even count.
    pub fn median(&self) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then
/// fourteen `long` counters this benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// User+system CPU in whole microseconds, as getrusage(2) reports it.
fn rusage_us(who: i32) -> u64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for this target
    // (repr(C), same field layout), and `who` is one of the two values
    // getrusage(2) defines; the call writes only into `u`.
    if unsafe { getrusage(who, &mut u) } != 0 {
        return 0;
    }
    let t = |v: &Timeval| (v.sec * 1_000_000 + v.usec) as u64;
    t(&u.utime) + t(&u.stime)
}

/// User+system CPU of the whole process in seconds: every thread,
/// including threads that already exited and the in-process servers.
/// Steal time is not charged to it.
pub fn process_cpu_s() -> f64 {
    rusage_us(RUSAGE_SELF) as f64 / 1e6
}

/// Process CPU in whole microseconds, for per-statement differences.
pub fn process_cpu_us() -> u64 {
    rusage_us(RUSAGE_SELF)
}

/// User+system CPU of the calling thread in seconds. The benchmark
/// subtracts what its own thread spends building statements and checking
/// answers from the process CPU, so CPU figures charge only the program.
pub fn thread_cpu_s() -> f64 {
    rusage_us(RUSAGE_THREAD) as f64 / 1e6
}

/// Host-wide CPU steal in seconds, from the `cpu` line of `/proc/stat`.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(0.0, |t| t / 100.0)
}

/// Integer view of a result cell (`INT`, `BIGINT`, counts); `None` for NULL.
pub fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::I8(x) => Some(*x as i64),
        Value::I16(x) => Some(*x as i64),
        Value::I32(x) => Some(*x as i64),
        Value::I64(x) => Some(*x),
        Value::Oid(x) => Some(*x as i64),
        _ => None,
    }
}

/// Integer rows of a result table, for comparison with a model answer.
pub fn int_rows(rows: &[Vec<Value>]) -> Vec<Vec<Option<i64>>> {
    rows.iter()
        .map(|r| r.iter().map(int_of).collect())
        .collect()
}

/// What one run measured, before it becomes the result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the benchmark's own model.
    pub wrong: u64,
    pub lat: BTreeMap<Class, Samples>,
    /// Process CPU of each timed statement, by class.
    pub cpu: BTreeMap<Class, Samples>,
    pub timed_wall_s: f64,
    pub timed_cpu_s: f64,
    /// Process CPU seconds of each repeated set-up (`setup_s` is their
    /// median).
    pub setups: Vec<f64>,
    /// Wall seconds of the same set-ups, printed for reference.
    pub setup_walls: Vec<f64>,
    /// Per-layer metrics of a traced run, by registered name.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn record(&mut self, class: Class, d: Duration, cpu_us: u64) {
        self.lat.entry(class).or_default().push(d);
        self.cpu.entry(class).or_default().push_us(cpu_us as f64);
    }

    /// Count a finished statement: `ok` false for an error from the
    /// program, `right` false for an answer the model disagrees with.
    pub fn tally(&mut self, ok: bool, right: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        } else if !right {
            self.wrong += 1;
            eprintln!("WRONG ANSWER: {what}");
        }
    }
}

/// Process CPU and wall seconds of one set-up call.
pub fn setup_cost<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c0, t0) = (process_cpu_s(), Instant::now());
    let out = f();
    (out, process_cpu_s() - c0, t0.elapsed().as_secs_f64())
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}
