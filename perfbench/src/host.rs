//! Host facts recorded with every run: peak RSS, the effective two-thread
//! parallelism of the machine, and the speed of the host's vCPU as a
//! fixed reference kernel sees it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Operations per sample of the reference kernel (about 10 ms).
const REFERENCE_OPS: u64 = 20_000;

/// Median time of one reference-kernel sample on the host the baseline was
/// recorded on (see `perfbench/README.md`). A sample's time over this is
/// how much slower than nominal the host ran when it was taken.
pub const REFERENCE_NOMINAL_S: f64 = 9.5e-3;

/// The reference kernel: [`REFERENCE_OPS`] inserts and lookups on a fresh
/// `BTreeMap` and `HashMap` with short-lived `Vec`s, the kind of work the
/// simulators spend their time on. Its input is fixed and it uses none of
/// the repository's crates, so a change to them cannot change its speed;
/// only the host can.
fn reference_kernel() -> u64 {
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut x = black_box(12_345u64);
    let mut sum = 0u64;
    for i in 0..REFERENCE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 50_000, i);
        hashed.insert(x % 70_000, vec![i; (x % 5) as usize]);
        if let Some(v) = ordered.get(&((x >> 3) % 50_000)) {
            sum = sum.wrapping_add(*v);
        }
        let short: Vec<u64> = (0..x % 64).collect();
        sum = sum.wrapping_add(black_box(short).len() as u64);
    }
    black_box(sum.wrapping_add(hashed.len() as u64))
}

/// Seconds one reference-kernel sample takes now.
pub fn time_reference() -> f64 {
    let t = Instant::now();
    reference_kernel();
    t.elapsed().as_secs_f64()
}

/// Process high-water resident set size in MB (`VmHWM` from
/// `/proc/self/status`); NaN where that file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A pure-ALU spin of `iters` xorshift steps.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn time_spin(iters: u64) -> Duration {
    let t = Instant::now();
    spin(iters);
    t.elapsed()
}

/// Effective parallelism of two threads: the same calibrated spin run
/// alone and then on two threads at once, as `2 · t_single / t_pair`.
/// 2.0 means two whole cores; 1.0 means the two threads share one.
pub fn parallelism_ratio() -> f64 {
    let mut iters = 1u64 << 18;
    while time_spin(iters) < Duration::from_millis(25) {
        iters *= 2;
    }
    let single: Vec<f64> = (0..3).map(|_| time_spin(iters).as_secs_f64()).collect();
    let pair: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                let h = s.spawn(|| spin(iters));
                spin(iters);
                h.join().expect("spin thread panicked");
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * crate::stats::median(&single) / crate::stats::median(&pair)
}
