//! Small statistics and process probes: medians, output digests, peak
//! RSS and the CPU calibration loop.

use std::time::Instant;

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `xs` (0 when empty).
pub fn quantile<T: Copy + Into<f64>>(xs: &[T], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.iter().map(|&x| x.into()).collect();
    let k = ((v.len() - 1) as f64 * q) as usize;
    *v.select_nth_unstable_by(k, f64::total_cmp).1
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU-bound loop (xorshift over a small table), timed in ns per
/// iteration: a drift probe, never used to rescale a metric.
pub fn calib_ns_per_iter() -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut table = [0u64; 256];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let start = Instant::now();
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x & 255) as usize;
        table[slot] = table[slot].wrapping_add(i ^ x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Order-sensitive FNV-1a digest of a sequence of byte strings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeqDigest {
    pub hash: u64,
    pub count: u64,
}

impl SeqDigest {
    pub fn new() -> SeqDigest {
        SeqDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    pub fn add(&mut self, item: u64) {
        for b in item.to_le_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.count += 1;
    }
}

/// Order-insensitive multiset digest: a sum of mixed item hashes, so a
/// retraction subtracts exactly what its row added.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BagDigest {
    pub sum: u64,
    pub count: i64,
}

impl BagDigest {
    pub fn add(&mut self, item: u64) {
        self.sum = self.sum.wrapping_add(crate::gen::mix(item));
        self.count += 1;
    }

    pub fn remove(&mut self, item: u64) {
        self.sum = self.sum.wrapping_sub(crate::gen::mix(item));
        self.count -= 1;
    }
}
