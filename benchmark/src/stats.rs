//! The one estimator every timing in the benchmark goes through:
//! nearest-rank percentiles over the raw samples, reported as a median plus
//! the highest percentile that still has at least ten samples beyond it.

use crate::Res;
use std::hint::black_box;
use std::time::Instant;

/// Percentiles a tail may be reported at. The ladder is coarse on purpose:
/// a run that collects a few more or fewer samples than the last one must
/// not hop to a neighbouring percentile and report a different quantity.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
/// The epsilon keeps `p·n/100` values that are whole numbers in exact
/// arithmetic (99 % of 1000) from rounding up through float slop.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `NaN` when it is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest rung of [`TAIL_LADDER`] with at least [`MIN_BEYOND`] samples
/// beyond it among `n`; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - nearest_rank(n, p).min(n) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// Splits `samples` into at most `windows` consecutive chunks of equal size
/// (the last may be shorter).
pub fn split(samples: &[f64], windows: usize) -> Vec<&[f64]> {
    samples.chunks(samples.len().div_ceil(windows.max(1)).max(1)).collect()
}

/// The supported tail percentile of every window: `(percentile, values)`.
/// The percentile is the one the shortest window supports, so every window
/// reports the same quantity.
pub fn window_tails(windows: &[&[f64]]) -> (f64, Vec<f64>) {
    let shortest = windows.iter().map(|w| w.len()).min().unwrap_or(0);
    let tail_p = tail_percentile(shortest);
    (tail_p, windows.iter().map(|w| percentile(w, tail_p)).collect())
}

/// The median of every window.
pub fn window_medians(windows: &[&[f64]]) -> Vec<f64> {
    windows.iter().map(|w| median(w)).collect()
}

/// The reading of the quietest window: the lowest of per-window timings.
///
/// Interference on a shared host only ever slows a window down (on the
/// reference host the two vCPUs are hyperthreads of one core, and whenever
/// the sibling is busy everything takes 1.5–1.7 × as long, for a fraction of
/// a second or for several), so the quietest window is the one that says
/// most about the code. Pooled over the run, the same spells moved medians by
/// 20–70 % between otherwise identical runs; over ten seeds the lowest of ten
/// window medians spread 2–3 %, the third lowest 4–7 %, their median 4–8 %.
pub fn quietest(window_values: &[f64]) -> f64 {
    window_values.iter().copied().fold(f64::NAN, f64::min)
}

/// [`quietest`] for rates, where the quietest window reads highest.
pub fn quietest_rate(window_values: &[f64]) -> f64 {
    window_values.iter().copied().fold(f64::NAN, f64::max)
}

/// The quiet end as a lower quartile (nearest rank) rather than the lowest
/// value: for per-window tail percentiles and for set-up repetitions. One
/// window in twenty or so has a *luckily* short tail (two closed-loop clients
/// fall into step, say, and the 95th percentile drops by a quarter), and a
/// single set-up is one sample, not a median; the minimum would report the
/// lucky one in some runs and not in others.
pub fn quiet_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// Nearest-rank percentile of `samples` (any order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Nearest-rank median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median seconds of `reps` calls of `f` after one warm-up call. The
/// result of each call is kept from the optimizer and dropped off the clock.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    black_box(f()?);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let result = f()?;
        samples.push(start.elapsed().as_secs_f64());
        black_box(result);
    }
    Ok(median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 90.0), 9.0);
        assert_eq!(percentile_sorted(&sorted, 91.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        // Odd count: the middle element, not an interpolation.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn whole_number_ranks_do_not_round_up() {
        // 99 % of 1000 is rank 990 exactly, 99.9 % is 999.
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(1000, 99.9), 999);
        assert_eq!(nearest_rank(8000, 99.0), 7920);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly 10 beyond; 999 leaves 9.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        // p95 needs n - ceil(.95 n) >= 10, i.e. n >= 200.
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        // p75 needs 40, p50 needs 20; below that the median is all there is.
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(23), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn the_quiet_windows_ignore_slow_spells() {
        let mut samples: Vec<f64> = (0..1000).map(|i| 10.0 + f64::from(i % 100) / 100.0).collect();
        // Six windows of ten run three times slower.
        for (i, s) in samples.iter_mut().enumerate() {
            if (100..500).contains(&i) || i >= 800 {
                *s *= 3.0;
            }
        }
        let windows = split(&samples, 10);
        assert_eq!(windows.len(), 10);
        let (p, tails) = window_tails(&windows);
        // 100 samples per window support p90; the slow windows do not move it.
        assert_eq!((p, quiet_quartile(&tails)), (90.0, 10.89));
        assert_eq!(quietest(&window_medians(&windows)), 10.49);
        // Pooled, the same spells own the median.
        assert!(median(&samples) > 30.0);
        // One luckily short tail in ten does not become the reading.
        assert_eq!(quiet_quartile(&[5.0, 9.0, 9.1, 9.2, 9.3, 9.4, 9.5, 14.0, 15.0, 16.0]), 9.1);
        assert_eq!(quietest_rate(&[90.0, 100.0, 60.0, 95.0]), 100.0);
        assert!(quietest(&[]).is_nan());
        // Uneven split: 7 samples in 3 windows of 3, 3 and 1.
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        let lens: Vec<usize> = split(&seven, 3).iter().map(|w| w.len()).collect();
        assert_eq!(lens, [3, 3, 1]);
        assert_eq!(window_tails(&[]).0, 50.0);
    }
}
