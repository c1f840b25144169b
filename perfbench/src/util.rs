//! Shared helpers: seeded order, order statistics, peak memory and the
//! outcome ledger every workload fills.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// splitmix64: the seeded stream behind every request order.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a tag, so phases and clients get
    /// independent orders from one `--seed`.
    pub fn derived(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `0..n` in seeded order.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

/// FNV-1a over a request order: the self-test's evidence that a new
/// seed reorders requests.
pub fn order_digest(order: &[usize]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &i in order {
        for b in (i as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in (0, 1]; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `setup` at least `reps` times and for at least `window`; return
/// the median wall and the last result. Set-up takes milliseconds, so a
/// few samples would catch one moment of a shared machine.
pub fn timed_setup<T>(reps: usize, window: Duration, mut setup: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < reps.max(1) || start.elapsed() < window {
        let begin = Instant::now();
        last = Some(std::hint::black_box(setup()));
        walls.push(begin.elapsed().as_secs_f64());
    }
    (median(&walls), last.expect("at least one repetition"))
}

/// Run `pass` at least `min` times, and again while the next pass is
/// predicted (from the last one) to end before `deadline`. Returns the
/// pass walls.
pub fn repeat_passes(
    min: usize,
    deadline: Instant,
    mut pass: impl FnMut(usize) -> Duration,
) -> Vec<Duration> {
    let mut walls: Vec<Duration> = Vec::new();
    loop {
        let k = walls.len();
        if k >= min {
            let last = walls.last().copied().unwrap_or_default();
            if Instant::now() + last > deadline {
                return walls;
            }
        }
        walls.push(pass(k));
    }
}

/// Attempts and failures of one run. A wrong answer, an error, a
/// truncation or a broken work-conservation guard is a failure; it is
/// never a latency sample.
#[derive(Default)]
pub struct Outcomes {
    inner: Mutex<OutcomeInner>,
}

#[derive(Default)]
struct OutcomeInner {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Outcomes {
    /// Record one checked operation; returns `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        let mut inner = self.inner.lock().expect("outcome ledger poisoned");
        inner.attempted += 1;
        if !ok {
            inner.failed += 1;
            if inner.notes.len() < 20 {
                inner.notes.push(what());
            }
        }
        ok
    }

    pub fn totals(&self) -> (u64, u64, Vec<String>) {
        let inner = self.inner.lock().expect("outcome ledger poisoned");
        (inner.attempted, inner.failed, inner.notes.clone())
    }
}
