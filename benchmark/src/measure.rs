//! The measurement core every workload shares: order statistics with a
//! sample-count rule, the host fingerprint, and the operation log that
//! turns per-operation times into the end-to-end timing metrics.

use std::time::Duration;

/// Sorts a copy of `values` ascending.
///
/// # Panics
///
/// Panics on NaN — a timing can never be one.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice, linearly
/// interpolated between the two nearest ranks (the rule Python's
/// `statistics.quantiles(..., method="inclusive")` and NumPy use).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile of unsorted values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail quantile, refused (`None`) unless at least [`MIN_BEYOND`]
/// samples lie beyond it — so nobody prints a p99 of 40 samples or a
/// p999 that is really the maximum.
pub fn tail_quantile(sorted: &[f64], p: f64) -> Option<f64> {
    // The epsilon keeps 100 * (1 - 0.9) from reading 9.999... .
    let beyond = (sorted.len() as f64 * (1.0 - p) + 1e-9).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| quantile(sorted, p))
}

/// Median and 90th percentile of each chunk of samples, then the
/// median of each across the chunks.
///
/// A chunk is a burst, or a one-second window of a steady run. A host
/// stall slows one chunk; pooled, its samples would all sit in the
/// tail and *be* the 90th percentile, whereas the median across chunks
/// ignores it. `None` without samples; the p90 is `None` when no chunk
/// is large enough for one ([`tail_quantile`]).
pub fn p50_p90_across(chunks: &[Vec<f64>]) -> Option<(f64, Option<f64>)> {
    let chunks: Vec<Vec<f64>> = chunks
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| sorted(c))
        .collect();
    let p50s: Vec<f64> = chunks.iter().map(|c| quantile(c, 0.5)).collect();
    let p90s: Vec<f64> = chunks
        .iter()
        .filter_map(|c| tail_quantile(c, 0.9))
        .collect();
    (!p50s.is_empty()).then(|| (median(&p50s), (!p90s.is_empty()).then(|| median(&p90s))))
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The machine the numbers were taken on. Printed with every output:
/// a result taken with more worker threads than hardware threads
/// measures the host's scheduler as much as the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Host {
    /// Hardware threads available to this process.
    pub host_threads: usize,
    /// Cores of the machine model of every *executed* deployment, hence
    /// worker threads the threaded executor spawns.
    pub worker_threads: usize,
}

impl Host {
    /// Reads the hardware thread count and derives the worker count.
    pub fn detect() -> Self {
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host::with_threads(host_threads)
    }

    /// `W = clamp(host_threads, 2, 4)`: at least two so that cores
    /// exchange objects at all, at most four so that a run fits the
    /// time box on a large host too.
    pub fn with_threads(host_threads: usize) -> Self {
        Host {
            host_threads,
            worker_threads: host_threads.clamp(2, 4),
        }
    }

    /// Whether the workers outnumber the hardware threads.
    pub fn oversubscribed(&self) -> bool {
        self.worker_threads > self.host_threads
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`), or
/// `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Times of closed-loop operations, grouped by what the operation did.
///
/// A closed-loop workload repeats a *pass* over its programs; programs
/// differ in cost by an order of magnitude, and for planning the cost
/// also depends on the synthesis seed, so a percentile over the raw mix
/// would describe the mix, not the system. Each operation is therefore
/// filed under `(program, slot)` — `slot` being the seed slot, 0 when
/// the workload has one input per program — and compared only with
/// repetitions of the same work.
#[derive(Clone, Debug)]
pub struct OpLog {
    slots: usize,
    /// `cells[program * slots + slot]`: milliseconds of each repetition.
    cells: Vec<Vec<f64>>,
}

impl OpLog {
    /// A log for `programs` programs with `slots` inputs each.
    pub fn new(programs: usize, slots: usize) -> Self {
        OpLog {
            slots,
            cells: vec![Vec::new(); programs * slots],
        }
    }

    /// Files one operation's time, milliseconds.
    pub fn record(&mut self, program: usize, slot: usize, took_ms: f64) {
        self.cells[program * self.slots + slot].push(took_ms);
    }

    /// Operations recorded.
    pub fn count(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Total measured time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.cells.iter().flatten().sum::<f64>() / 1e3
    }

    /// Median time of one program: the mean over its slots of the
    /// per-slot median. `None` until every slot has a sample.
    pub fn program_ms(&self, program: usize) -> Option<f64> {
        let cells = &self.cells[program * self.slots..(program + 1) * self.slots];
        if cells.iter().any(Vec::is_empty) {
            return None;
        }
        Some(cells.iter().map(|c| median(c)).sum::<f64>() / self.slots as f64)
    }

    /// Median time of one pass: the sum over programs of
    /// [`Self::program_ms`].
    pub fn pass_p50_ms(&self) -> Option<f64> {
        (0..self.cells.len() / self.slots)
            .map(|p| self.program_ms(p))
            .sum()
    }

    /// Every operation's time divided by the median of its own cell,
    /// ascending: how much slower than usual each repetition was.
    pub fn slowdowns(&self) -> Vec<f64> {
        let mut ratios = Vec::with_capacity(self.count());
        for cell in self.cells.iter().filter(|c| !c.is_empty()) {
            let m = median(cell);
            ratios.extend(cell.iter().map(|v| v / m));
        }
        sorted(&ratios)
    }

    /// The pass time at the 90th percentile of slowdown: the median
    /// pass scaled by the p90 of [`Self::slowdowns`]. `None` when fewer
    /// than [`MIN_BEYOND`] operations lie beyond it.
    pub fn pass_p90_ms(&self) -> Option<f64> {
        Some(self.pass_p50_ms()? * tail_quantile(&self.slowdowns(), 0.9)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_quantile(&hundred, 0.9).is_some());
        assert!(tail_quantile(&hundred, 0.99).is_none(), "p99 of 100");
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail_quantile(&ninety_nine, 0.9).is_none());
        let ten_k: Vec<f64> = (0..10_000).map(f64::from).collect();
        let p999 = tail_quantile(&ten_k, 0.999).expect("ten samples beyond");
        assert!(p999 < 9_999.0, "p999 must not be the maximum");
        assert!(tail_quantile(&ten_k[..9_999], 0.999).is_none());
    }

    #[test]
    fn one_slow_chunk_does_not_set_the_tail() {
        let usual: Vec<f64> = (1..=100).map(f64::from).collect();
        let stalled: Vec<f64> = usual.iter().map(|v| v * 10.0).collect();
        let chunks = vec![usual.clone(), usual.clone(), stalled, usual.clone(), usual];
        let (p50, p90) = p50_p90_across(&chunks).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9 && (p90.unwrap() - 90.1).abs() < 1e-9);
        // Pooled, the stalled chunk would own the tail.
        let pooled = sorted(&chunks.concat());
        assert!(quantile(&pooled, 0.9) > 200.0);
        // A chunk too small for a p90 still has a median.
        assert_eq!(p50_p90_across(&[vec![1.0; 50]]), Some((1.0, None)));
        assert_eq!(p50_p90_across(&[vec![]]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn host_fingerprint_clamps_workers() {
        assert_eq!(Host::with_threads(1).worker_threads, 2);
        assert!(Host::with_threads(1).oversubscribed());
        assert_eq!(Host::with_threads(2).worker_threads, 2);
        assert!(!Host::with_threads(2).oversubscribed());
        assert_eq!(Host::with_threads(64).worker_threads, 4);
        assert!(Host::detect().host_threads >= 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }

    #[test]
    fn op_log_compares_like_with_like() {
        // Two programs, two slots; program 1 is 10x program 0 and its
        // slot 1 is 2x its slot 0. One repetition of the cheap program
        // is 1.5x slow.
        let mut log = OpLog::new(2, 2);
        for rep in 0..60 {
            log.record(0, 0, if rep == 7 { 1.5 } else { 1.0 });
            log.record(0, 1, 1.0);
            log.record(1, 0, 10.0);
            log.record(1, 1, 20.0);
        }
        assert_eq!(log.count(), 240);
        assert!((log.program_ms(0).unwrap() - 1.0).abs() < 1e-9);
        assert!((log.program_ms(1).unwrap() - 15.0).abs() < 1e-9);
        assert!((log.pass_p50_ms().unwrap() - 16.0).abs() < 1e-9);
        // The mix of 1 ms and 20 ms operations does not register as a
        // tail: every operation but one ran at its cell's median.
        assert!((log.pass_p90_ms().unwrap() - 16.0).abs() < 1e-9);
        assert!((log.slowdowns().last().unwrap() - 1.5).abs() < 1e-9);
        assert!((log.busy_s() - (60.0 * 32.0 + 0.5) / 1e3).abs() < 1e-9);
    }

    #[test]
    fn op_log_refuses_until_every_cell_is_sampled() {
        let mut log = OpLog::new(1, 2);
        log.record(0, 0, 1.0);
        assert!(log.pass_p50_ms().is_none());
        log.record(0, 1, 1.0);
        assert!(log.pass_p50_ms().is_some());
        assert!(log.pass_p90_ms().is_none(), "two samples carry no p90");
    }
}
