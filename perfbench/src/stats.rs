//! Pure helpers behind the reported numbers: the median and tail rule for
//! timings, CPU accounting from `/proc`, and the failure tally. Kept free
//! of any workload so the rules can be unit-tested on their own.

use std::fmt;

/// A timing distribution summarised the way every timing is reported: the
/// median, the tail, and how many samples both rest on.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// The tail: see [`tail_percentile`].
    pub tail: Option<Tail>,
}

/// The highest percentile a sample set supports, and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// Candidate tail percentiles, highest first.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// At least this many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (`NaN` for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
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

/// Interquartile mean: the mean after dropping the lowest and highest
/// `n / 4` samples (`NaN` for an empty slice).
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest percentile in {99.9, 99, 95, 90, 75, 50} with at least
/// [`TAIL_BEYOND`] samples strictly beyond its rank, with the sample at
/// that rank (nearest-rank: the `ceil(p/100 * n)`-th smallest). `None`
/// when even the median has fewer than ten samples beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PCTS.iter().find_map(|&pct| {
        let rank = nearest_rank(pct, n);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: v[rank - 1],
        })
    })
}

/// Nearest-rank percentile: the `ceil(pct/100 * n)`-th smallest sample
/// (`NaN` for an empty slice).
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(pct, v.len());
    v.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN)
}

/// `ceil(pct/100 * n)`, immune to the rounding of `pct/100` (99.9% of
/// 10 000 is rank 9990, not 9991).
fn nearest_rank(pct: f64, n: usize) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Samples per latency batch: the fewest that leave ten samples beyond
/// the p99.
pub const P99_BATCH: usize = 100 * TAIL_BEYOND;

/// Summarises a sample set.
pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        n: xs.len(),
        median: median(xs),
        tail: tail_percentile(xs),
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "median {:.4} (n={})", self.median, self.n)?;
        if let Some(t) = self.tail {
            write!(f, ", p{} {:.4}", t.pct, t.value)?;
        }
        Ok(())
    }
}

/// Clock ticks per second of the `/proc` CPU fields (`USER_HZ`, fixed at
/// 100 by the Linux user-space ABI).
pub const USER_HZ: f64 = 100.0;

/// CPU seconds read from one `/proc/<pid>/stat` line: the process's own
/// user+system time (fields 14–15) and that of its reaped children (fields
/// 16–17).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// utime + stime, seconds.
    pub own: f64,
    /// cutime + cstime, seconds: children that have exited and been
    /// waited for.
    pub reaped_children: f64,
}

impl CpuTimes {
    /// Own plus reaped-children CPU seconds.
    pub fn total(&self) -> f64 {
        self.own + self.reaped_children
    }
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); fields 14..=17 are indices 11..=14.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Option<f64> { f.get(i)?.parse::<u64>().ok().map(|t| t as f64) };
    Some(CpuTimes {
        own: (tick(11)? + tick(12)?) / USER_HZ,
        reaped_children: (tick(13)? + tick(14)?) / USER_HZ,
    })
}

/// Parent pid (field 4) of a `/proc/<pid>/stat` line.
pub fn parse_ppid(line: &str) -> Option<u32> {
    let rest = &line[line.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// CPU times of this process, including reaped children.
pub fn self_cpu() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat is readable and well formed")
}

/// Own CPU seconds of this process's live children (processes whose
/// parent is this process), found by scanning `/proc`. Used where worker
/// processes outlive the measured operation and so are not yet reaped.
pub fn live_children_cpu() -> f64 {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    dir.filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .bytes()
                .all(|b| b.is_ascii_digit())
        })
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter(|line| parse_ppid(line) == Some(me))
        .filter_map(|line| parse_stat(&line))
        .map(|c| c.own)
        .sum()
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status has VmHWM")
}

/// Operations attempted and how many failed. A failure is an operation
/// that errored, was refused, or produced output that failed its check;
/// each counts once however many of these it hit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub reasons: Vec<String>,
}

/// How one operation ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Ran and passed its check.
    Ok,
    /// Refused before running (e.g. submission backpressure).
    Refused(String),
    /// Ran and errored.
    Errored(String),
    /// Ran, but its output failed the correctness check.
    Wrong(String),
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        let reason = match outcome {
            Outcome::Ok => return,
            Outcome::Refused(r) => format!("refused: {r}"),
            Outcome::Errored(r) => format!("errored: {r}"),
            Outcome::Wrong(r) => format!("wrong: {r}"),
        };
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Records a correctness check of an operation as its own attempt:
    /// `Ok` when `pass`, otherwise `Wrong(what)`.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        self.record(if pass {
            Outcome::Ok
        } else {
            Outcome::Wrong(what())
        });
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rules must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly ten beyond; p99.9
        // would leave one.
        let t = tail_percentile(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // 999 samples: p99 is rank 990 with nine beyond, so p95.
        let t = tail_percentile(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 950.0));
        // 10 000 samples support p99.9.
        let t = tail_percentile(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        // 100 samples: p90 leaves exactly ten.
        let t = tail_percentile(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 90.0));
    }

    #[test]
    fn tail_absent_below_twenty_samples() {
        assert_eq!(tail_percentile(&ramp(19)), None);
        let t = tail_percentile(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn interquartile_mean_trims_quarters() {
        assert_eq!(interquartile_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&ramp(8)), 4.5);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(200);
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert!(percentile(&[], 99.0).is_nan());
    }

    #[test]
    fn summary_states_the_sample_count() {
        let s = summarize(&ramp(1000));
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.to_string(), "median 500.5000 (n=1000), p99 990.0000");
    }

    #[test]
    fn failed_jobs_land_in_the_tail() {
        // A failed job is recorded as an infinite latency: with 990 fast
        // jobs, ten failures are exactly the samples beyond the p99, an
        // eleventh makes the p99 itself a failure.
        let mut lat = vec![1.0; 990];
        lat.extend([f64::INFINITY; 10]);
        assert_eq!(percentile(&lat, 99.0), 1.0);
        lat[0] = f64::INFINITY;
        assert_eq!(percentile(&lat, 99.0), f64::INFINITY);
        assert_eq!(median(&lat), 1.0);
    }

    #[test]
    fn stat_fields_include_reaped_children() {
        // Fields: pid (comm) state ppid ... utime=14 stime=15 cutime=16
        // cstime=17; the comm holds a space and a parenthesis.
        let line = "4242 (perf bench) (x)) R 17 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 50 700 300 20 0 3 0 123 4096 10 18446744073709551615";
        let c = parse_stat(line).unwrap();
        assert_eq!(c.own, 3.0);
        assert_eq!(c.reaped_children, 10.0);
        assert_eq!(c.total(), 13.0);
        assert_eq!(parse_ppid(line), Some(17));
    }

    #[test]
    fn reaped_child_cpu_shows_in_self_stat() {
        // A child that burns CPU and is waited for must appear in this
        // process's cutime+cstime.
        let before = self_cpu();
        let status = std::process::Command::new("sh")
            .arg("-c")
            .arg("i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done")
            .status()
            .expect("spawn sh");
        assert!(status.success());
        let after = self_cpu();
        assert!(
            after.reaped_children - before.reaped_children >= 0.05,
            "child CPU not accounted: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn self_stat_and_rss_read() {
        assert!(self_cpu().own >= 0.0);
        assert!(rss_peak_mb() > 0.0);
    }

    #[test]
    fn tally_counts_refused_errored_and_wrong() {
        let mut t = Tally::default();
        t.record(Outcome::Ok);
        t.record(Outcome::Refused("backpressure".into()));
        t.record(Outcome::Errored("mesh down".into()));
        t.check(false, || "coverage (3, 1) != (3, 0)".into());
        t.check(true, || unreachable!());
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(t.failed_frac(), 0.6);
        assert_eq!(t.reasons.len(), 3);
        assert!(t.reasons[0].starts_with("refused"));
        assert!(t.reasons[2].starts_with("wrong"));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
