//! The fast-end estimator, the percentile picker, and the process's
//! CPU time and peak memory as the kernel accounts them.

use std::time::Duration;

/// The median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolated between the two nearest
/// ranks; 0 for none.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    #[allow(clippy::cast_precision_loss)]
    let rank = q * last as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let below = rank.floor() as usize;
    let above = (below + 1).min(last);
    #[allow(clippy::cast_precision_loss)]
    let share = rank - below as f64;
    sorted[below] * (1.0 - share) + sorted[above] * share
}

/// The most samples [`fast_end`] averages.
const FAST_SAMPLES: usize = 3;

/// What the ledger reports for a quantity measured once per repetition:
/// the mean of the three best samples (the highest rates, the lowest
/// costs), or of the best third of fewer than nine. Other tenants of a
/// shared host slow a repetition down and never speed it up, for seconds
/// to minutes at a time, so a run's median moves with how much of the run
/// they disturbed, and so does its best tenth when they leave less than a
/// tenth of it alone. Over windows of recorded repetitions the spread
/// between runs kept falling as the estimator moved towards the best
/// sample (README, "Measured spread"); three samples, so that one
/// mistimed repetition does not set the result alone.
pub fn fast_end(values: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if higher_is_better {
        sorted.reverse();
    }
    let best = &sorted[..(sorted.len() / 3).clamp(1, FAST_SAMPLES).min(sorted.len())];
    #[allow(clippy::cast_precision_loss)]
    let count = best.len().max(1) as f64;
    best.iter().sum::<f64>() / count
}

/// The nearest-rank percentile `per_mille`/1000 of `sorted`; 0 for none.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    sorted[(last * per_mille + 500) / 1000]
}

/// The tail percentiles a report may quote, as (label, per mille).
const TAILS: [(&str, usize); 2] = [("p90", 900), ("p99", 990)];

/// The highest tail percentile that still has at least ten of `samples`
/// beyond it, or `None` when even p90 has not (fewer than 100 samples).
pub fn highest_tail(samples: usize) -> Option<(&'static str, usize)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, per_mille)| samples * (1000 - per_mille) >= 10 * 1000)
        .copied()
}

pub fn sorted_millis(latencies: &[Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// `USER_HZ`: the unit of the CPU times in `/proc/self/stat`. It is part
/// of the Linux ABI and 100 on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of this process, all threads, living and
/// ended, in seconds.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_cpu_seconds(&stat).ok_or_else(|| "unreadable /proc/self/stat".to_string())
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is in parentheses and may hold spaces;
    // utime and stime are fields 14 and 15.
    let after_comm = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    #[allow(clippy::cast_precision_loss)]
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM`: the peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_peak_rss_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_end_is_the_mean_of_the_best_three() {
        let costs: Vec<f64> = (0..=20).map(f64::from).collect();
        assert_eq!(fast_end(&costs, false), 1.0);
        assert_eq!(fast_end(&costs, true), 19.0);
        // The best third of fewer than nine samples.
        assert_eq!(fast_end(&[5.0, 1.0, 2.0, 3.0, 4.0], false), 1.0);
        assert_eq!(fast_end(&[5.0, 1.0, 2.0, 3.0, 4.0, 6.0], true), 5.5);
        assert_eq!(fast_end(&[7.0], true), 7.0);
        assert_eq!(fast_end(&[], false), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 51.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(("p90", 900)));
        assert_eq!(highest_tail(999), Some(("p90", 900)));
        assert_eq!(highest_tail(1_000), Some(("p99", 990)));
        assert_eq!(highest_tail(100_000), Some(("p99", 990)));
    }

    #[test]
    fn proc_parsers_read_the_kernel_formats() {
        let stat = "42 (bench ledger) R 1 42 42 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 1000 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert!(process_cpu_seconds().is_ok_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_ok_and(|mb| mb > 0.0));
    }
}
