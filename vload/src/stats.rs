//! Order statistics over raw samples, and the process-level readings
//! (resident memory, timer cost, the noisy-box canary).

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, nearest-rank.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` as a float (mean of the middle pair when even).
pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median of integer samples (sorts in place).
pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    quantile_sorted(values, 0.5)
}

/// `VmRSS` of this process in MB (10⁶ bytes), from `/proc/self/status`.
/// `None` where procfs is absent.
pub fn resident_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Median wall time of `f` in nanoseconds per call: `rounds` rounds of
/// `iters` back-to-back calls, each round timed as a whole so the timer's
/// own cost is amortised over `iters`.
pub fn time_ns(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&mut per_call)
}

/// The noisy-box canary: wall time of a fixed dependent arithmetic chain.
/// It touches no memory and makes no system call, so on a quiet pinned CPU
/// it reads the same before and after the measured phase; a reading that
/// moved means the box was disturbed, whatever the benchmark numbers say.
pub fn spin_ns() -> f64 {
    time_ns(9, 1, || {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..200_000u64 {
            x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
        }
        black_box(x);
    })
}

/// Cost of one `Instant::now()` pair — what every recorded sample pays.
pub fn timer_ns() -> f64 {
    time_ns(9, 10_000, || {
        let t = Instant::now();
        black_box(t.elapsed());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&mut [9, 1, 5]), 5);
    }
}
