//! Sample statistics, process CPU time and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of `v` (sorted copy; mean of the two middle samples when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it, and the
/// percentile it stands at. With fewer than eleven samples, the maximum.
pub fn tail(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0);
    }
    let i = n - 11;
    (s[i], 100.0 * i as f64 / (n - 1) as f64)
}

/// Median wall time of `reps` calls of `f` (after one warm-up call).
pub fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    Duration::from_nanos(ns[ns.len() / 2] as u64)
}

/// User + system CPU time of the whole process, from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 (1-based), i.e. 11 and 12 after the name.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    Duration::from_nanos(ticks * (1_000_000_000 / USER_HZ))
}

/// Unit of `/proc` CPU times: the kernel's USER_HZ, 100 on every Linux ABI.
const USER_HZ: u64 = 100;

/// Runs `f` and returns its result with the share of all CPUs' time the
/// hypervisor gave to other guests meanwhile (steal, from `/proc/stat`;
/// 0 on bare metal).
pub fn with_steal<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let jiffies = || {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu user nice system idle iowait irq softirq steal ...
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        (f.get(7).copied().unwrap_or(0), f.iter().sum::<u64>())
    };
    let (s0, t0) = jiffies();
    let r = f();
    let (s1, t1) = jiffies();
    (r, (s1 - s0) as f64 / (t1 - t0).max(1) as f64)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Formats the final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, v, m.unit
        )
        .expect("write to string");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (t, p) = tail(&v);
        assert_eq!(t, 89.0);
        assert!((p - 89.0 / 99.0 * 100.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_time_advances() {
        let a = process_cpu();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > a);
    }
}
