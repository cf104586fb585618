//! Per-channel mini-batch statistics.
//!
//! Batch Normalization during training needs, for every channel `c`, the
//! mean and (biased) variance of all `N × H × W` activations of that channel
//! across the mini-batch. The paper's Mean/Variance Fusion (MVF) replaces
//! the classic two-pass computation (one sweep for the mean, one for the
//! variance) with the single-sweep identity `Var[X] = E[X²] − E[X]²`.
//!
//! This module provides three interchangeable implementations —
//! [`channel_stats_two_pass`], [`channel_stats_one_pass`] and
//! [`channel_stats_welford`] — plus the raw Σx / Σx² accumulators
//! ([`ChannelAccumulator`]) that the fused `CONV + sub-BN1` kernel updates
//! while it writes its output feature map.
//!
//! Every sweep here but Welford's walks the channels two at a time: the two
//! planes of a channel pair go through one two-plane kernel
//! (`simd::sum_sq_f64_pair` and its siblings), whose two independent f64
//! add chains hide each other's latency where one chain per plane bound
//! the sweep. Each plane still gets exactly its single-plane sums, so every
//! statistic keeps its bits; an odd last channel pairs with an empty plane.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::simd::{self, active_isa};
use crate::tensor::Tensor;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_map_collect};

/// How many channels each worker should take for planes of `per_channel`
/// activations (each costing a few f64 operations).
fn channels_per_thread(per_channel: usize) -> usize {
    min_items_per_thread(per_channel.saturating_mul(4))
}

/// Planes `2·pair` and `2·pair + 1` of sample `ni` — the second one empty
/// past the last channel, where the two-plane kernels sum it to zero.
fn plane_pair(x: &Tensor, ni: usize, pair: usize) -> (&[f32], &[f32]) {
    let c = 2 * pair;
    (x.channel_plane(ni, c), if c + 1 < x.shape().c() { x.channel_plane(ni, c + 1) } else { &[] })
}

/// `f(pair)` for every channel pair across worker threads, flattened back
/// to one value per channel (an odd last channel drops its pair's second).
fn map_channel_pairs<T: Send>(
    channels: usize,
    per_channel: usize,
    f: impl Fn(usize) -> [T; 2] + Sync,
) -> Vec<T> {
    let pairs = parallel_map_collect(channels.div_ceil(2), channels_per_thread(2 * per_channel), f);
    pairs.into_iter().flatten().take(channels).collect()
}

/// Per-channel mean and biased variance over a mini-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStats {
    /// Per-channel mean, `E[X]`.
    pub mean: Vec<f32>,
    /// Per-channel biased variance, `E[(X − E[X])²]`.
    pub var: Vec<f32>,
    /// Number of elements each channel's statistics were computed over
    /// (`N × H × W`).
    pub count: usize,
}

impl ChannelStats {
    /// Creates zeroed statistics for `channels` channels.
    pub fn zeros(channels: usize) -> Self {
        ChannelStats { mean: vec![0.0; channels], var: vec![0.0; channels], count: 0 }
    }

    /// Number of channels covered.
    pub fn channels(&self) -> usize {
        self.mean.len()
    }

    /// Largest absolute difference in mean or variance against `other`.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] when the channel counts
    /// differ.
    pub fn max_abs_diff(&self, other: &ChannelStats) -> Result<f32> {
        if self.channels() != other.channels() {
            return Err(TensorError::InvalidArgument(format!(
                "channel count mismatch: {} vs {}",
                self.channels(),
                other.channels()
            )));
        }
        let mut worst = 0.0f32;
        for c in 0..self.channels() {
            worst = worst.max((self.mean[c] - other.mean[c]).abs());
            worst = worst.max((self.var[c] - other.var[c]).abs());
        }
        Ok(worst)
    }
}

/// Running Σx and Σx² accumulators per channel.
///
/// This is the state the fused `CONV1-(sub-BN1)` kernel maintains: each
/// output value produced by the convolution is accumulated into the sums of
/// its channel, so mean and variance are available when the convolution
/// finishes without re-reading the output feature map (Section 3.2 of the
/// paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelAccumulator {
    sum: Vec<f64>,
    sq_sum: Vec<f64>,
    count: usize,
}

impl ChannelAccumulator {
    /// Creates an accumulator for `channels` channels.
    pub fn new(channels: usize) -> Self {
        ChannelAccumulator { sum: vec![0.0; channels], sq_sum: vec![0.0; channels], count: 0 }
    }

    /// Number of channels tracked.
    pub fn channels(&self) -> usize {
        self.sum.len()
    }

    /// Number of per-channel elements accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Accumulates one activation of channel `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[inline]
    pub fn push(&mut self, c: usize, value: f32) {
        let v = f64::from(value);
        self.sum[c] += v;
        self.sq_sum[c] += v * v;
    }

    /// Records that `per_channel_count` elements have been accumulated into
    /// every channel (call once per sample / batch rather than per element
    /// to keep `push` cheap).
    pub fn add_count(&mut self, per_channel_count: usize) {
        self.count += per_channel_count;
    }

    /// Accumulates one sample's `C` contiguous channel planes: each channel
    /// gets its plane's [`simd::sum_sq_f64`] subtotal, the planes taken two
    /// channels at a time by `simd::sum_sq_f64_pair`. Counts nothing —
    /// see [`ChannelAccumulator::add_count`].
    ///
    /// # Panics
    /// Panics if `planes` is not `C` planes of one length.
    pub fn push_sample(&mut self, planes: &[f32]) {
        let channels = self.channels();
        assert!(
            channels > 0 && planes.len().is_multiple_of(channels),
            "{} values are not {channels} planes",
            planes.len()
        );
        let plane_len = planes.len() / channels;
        // Runs on the caller's thread, so the scoped `with_isa` override (if
        // any) is honoured here.
        let isa = active_isa();
        for (pair, two) in planes.chunks(2 * plane_len.max(1)).enumerate() {
            let (a, b) = two.split_at(plane_len.min(two.len()));
            let sums = simd::sum_sq_f64_pair(isa, a, b);
            for (c, (s, q)) in (2 * pair..channels).zip(sums) {
                self.sum[c] += s;
                self.sq_sum[c] += q;
            }
        }
    }

    /// Accumulates every channel of an NCHW tensor, with the per-channel
    /// sums computed across worker threads (one partial Σx/Σx² per channel,
    /// combined in channel order — the two-pass tree reduction that mirrors
    /// the paper's per-thread-block reduction on GPU). The result is
    /// identical for any `BNFF_THREADS` because each channel's planes are
    /// accumulated in the same mini-batch order a serial sweep uses. The
    /// unit of work is a channel pair, whose two planes of each sample go
    /// through one two-plane kernel: per channel the plane sums of
    /// [`simd::sum_sq_f64`], bit for bit.
    ///
    /// # Errors
    /// Returns an error for non-4-D or empty inputs.
    pub fn from_tensor(x: &Tensor) -> Result<Self> {
        let (channels, per_channel) = per_channel_count(x.shape())?;
        let n = x.shape().n();
        // Resolved on the caller's thread and captured by value: pool
        // workers don't inherit the caller's `with_isa` override.
        let isa = active_isa();
        let partials = map_channel_pairs(channels, per_channel, |pair| {
            let mut sums = [(0.0f64, 0.0f64); 2];
            for ni in 0..n {
                // Per-plane subtotals first, matching `push_sample`.
                let (a, b) = plane_pair(x, ni, pair);
                for (acc, (s, q)) in sums.iter_mut().zip(simd::sum_sq_f64_pair(isa, a, b)) {
                    acc.0 += s;
                    acc.1 += q;
                }
            }
            sums
        });
        let mut acc = ChannelAccumulator::new(channels);
        for (c, (s, q)) in partials.into_iter().enumerate() {
            acc.sum[c] = s;
            acc.sq_sum[c] = q;
        }
        acc.count = per_channel;
        Ok(acc)
    }

    /// Merges another accumulator into this one (used when per-thread
    /// accumulators are reduced, mirroring the paper's per-thread-block
    /// reduction on GPU).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] when the channel counts
    /// differ.
    pub fn merge(&mut self, other: &ChannelAccumulator) -> Result<()> {
        if self.channels() != other.channels() {
            return Err(TensorError::InvalidArgument(format!(
                "cannot merge accumulators with {} and {} channels",
                self.channels(),
                other.channels()
            )));
        }
        for c in 0..self.channels() {
            self.sum[c] += other.sum[c];
            self.sq_sum[c] += other.sq_sum[c];
        }
        self.count += other.count;
        Ok(())
    }

    /// Finalizes the accumulator into mean / variance statistics using
    /// `Var[X] = E[X²] − E[X]²`.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if nothing was accumulated.
    pub fn finalize(&self) -> Result<ChannelStats> {
        if self.count == 0 {
            return Err(TensorError::InvalidArgument(
                "cannot finalize an empty accumulator".to_string(),
            ));
        }
        let n = self.count as f64;
        let mut mean = Vec::with_capacity(self.channels());
        let mut var = Vec::with_capacity(self.channels());
        for c in 0..self.channels() {
            let m = self.sum[c] / n;
            // Clamp at zero: E[X²] − E[X]² can go very slightly negative in
            // floating point when the variance is tiny.
            let v = (self.sq_sum[c] / n - m * m).max(0.0);
            mean.push(m as f32);
            var.push(v as f32);
        }
        Ok(ChannelStats { mean, var, count: self.count })
    }
}

fn per_channel_count(shape: &Shape) -> Result<(usize, usize)> {
    shape.expect_nchw()?;
    let per_channel = shape.n() * shape.h() * shape.w();
    if per_channel == 0 {
        return Err(TensorError::InvalidShape {
            reason: "statistics require a non-empty mini-batch".to_string(),
            shape: shape.clone(),
        });
    }
    Ok((shape.c(), per_channel))
}

/// Classic two-pass statistics: one sweep for the mean, a second sweep for
/// the variance. This models the *baseline* BN implementation whose extra
/// memory sweep MVF removes.
///
/// # Errors
/// Returns an error for non-4-D or empty inputs.
pub fn channel_stats_two_pass(x: &Tensor) -> Result<ChannelStats> {
    let (channels, per_channel) = per_channel_count(x.shape())?;
    let n = x.shape().n();
    // Resolved on the caller's thread and captured by value: pool workers
    // don't inherit the caller's `with_isa` override.
    let isa = active_isa();
    // First sweep: per-channel mean, one worker partial per channel pair.
    let mean: Vec<f64> = map_channel_pairs(channels, per_channel, |pair| {
        let mut m = [0.0f64; 2];
        for ni in 0..n {
            let (a, b) = plane_pair(x, ni, pair);
            for (m, s) in m.iter_mut().zip(simd::sum_f64_pair(isa, a, b)) {
                *m += s;
            }
        }
        m.map(|m| m / per_channel as f64)
    });
    // Second sweep: per-channel variance around the finished mean.
    let var: Vec<f64> = map_channel_pairs(channels, per_channel, |pair| {
        let means = [mean[2 * pair], mean.get(2 * pair + 1).copied().unwrap_or(0.0)];
        let mut v_acc = [0.0f64; 2];
        for ni in 0..n {
            let (a, b) = plane_pair(x, ni, pair);
            for (v, d) in v_acc.iter_mut().zip(simd::sq_dev_sum_f64_pair(isa, a, b, means)) {
                *v += d;
            }
        }
        v_acc.map(|v| v / per_channel as f64)
    });
    Ok(ChannelStats {
        mean: mean.into_iter().map(|m| m as f32).collect(),
        var: var.into_iter().map(|v| v as f32).collect(),
        count: per_channel,
    })
}

/// Single-pass statistics using `Var[X] = E[X²] − E[X]²` (the paper's MVF).
///
/// # Errors
/// Returns an error for non-4-D or empty inputs.
pub fn channel_stats_one_pass(x: &Tensor) -> Result<ChannelStats> {
    ChannelAccumulator::from_tensor(x)?.finalize()
}

/// Numerically robust single-pass statistics using Welford's online
/// algorithm. Used as the "gold" reference when quantifying the floating
/// point error MVF introduces.
///
/// # Errors
/// Returns an error for non-4-D or empty inputs.
pub fn channel_stats_welford(x: &Tensor) -> Result<ChannelStats> {
    let (channels, per_channel) = per_channel_count(x.shape())?;
    let n = x.shape().n();
    // Welford's recurrence is sequential in its update order, so each
    // channel stays a serial chain; channels are independent and fan out.
    let per_channel_stats: Vec<(f64, f64)> =
        parallel_map_collect(channels, channels_per_thread(per_channel), |c| {
            let mut mean = 0.0f64;
            let mut m2 = 0.0f64;
            let mut count = 0.0f64;
            for ni in 0..n {
                for &v in x.channel_plane(ni, c) {
                    count += 1.0;
                    let value = f64::from(v);
                    let delta = value - mean;
                    mean += delta / count;
                    m2 += delta * (value - mean);
                }
            }
            (mean, if count > 0.0 { m2 / count } else { 0.0 })
        });
    Ok(ChannelStats {
        mean: per_channel_stats.iter().map(|&(m, _)| m as f32).collect(),
        var: per_channel_stats.iter().map(|&(_, v)| v as f32).collect(),
        count: per_channel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::with_isa;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..shape.volume()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn constant_tensor_has_zero_variance() {
        let x = Tensor::filled(Shape::nchw(4, 3, 2, 2), 2.5);
        for stats in [
            channel_stats_two_pass(&x).unwrap(),
            channel_stats_one_pass(&x).unwrap(),
            channel_stats_welford(&x).unwrap(),
        ] {
            for c in 0..3 {
                assert!((stats.mean[c] - 2.5).abs() < 1e-6);
                assert!(stats.var[c].abs() < 1e-6);
            }
            assert_eq!(stats.count, 4 * 2 * 2);
        }
    }

    #[test]
    fn all_three_methods_agree_on_random_data() {
        let x = random_tensor(Shape::nchw(8, 5, 7, 6), 42);
        let two = channel_stats_two_pass(&x).unwrap();
        let one = channel_stats_one_pass(&x).unwrap();
        let wel = channel_stats_welford(&x).unwrap();
        assert!(two.max_abs_diff(&one).unwrap() < 1e-4);
        assert!(two.max_abs_diff(&wel).unwrap() < 1e-4);
    }

    #[test]
    fn known_values() {
        // Channel 0: [1, 2, 3, 4] -> mean 2.5, var 1.25
        // Channel 1: [0, 0, 0, 8] -> mean 2.0, var 12.0
        let x =
            Tensor::from_vec(Shape::nchw(1, 2, 2, 2), vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 8.0])
                .unwrap();
        let stats = channel_stats_two_pass(&x).unwrap();
        assert!((stats.mean[0] - 2.5).abs() < 1e-6);
        assert!((stats.var[0] - 1.25).abs() < 1e-6);
        assert!((stats.mean[1] - 2.0).abs() < 1e-6);
        assert!((stats.var[1] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn accumulator_merge_matches_single() {
        let x = random_tensor(Shape::nchw(4, 3, 4, 4), 7);
        let full = channel_stats_one_pass(&x).unwrap();

        // Split the batch over two accumulators and merge, emulating the
        // per-thread-block reduction described for the GPU implementation.
        let mut a = ChannelAccumulator::new(3);
        let mut b = ChannelAccumulator::new(3);
        for ni in 0..4 {
            let target = if ni < 2 { &mut a } else { &mut b };
            target.push_sample(&x.as_slice()[ni * 3 * 16..][..3 * 16]);
        }
        a.add_count(2 * 16);
        b.add_count(2 * 16);
        a.merge(&b).unwrap();
        let merged = a.finalize().unwrap();
        assert!(full.max_abs_diff(&merged).unwrap() < 1e-5);
    }

    #[test]
    fn accumulator_push_individual_elements() {
        let mut acc = ChannelAccumulator::new(1);
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            acc.push(0, v);
        }
        acc.add_count(4);
        let stats = acc.finalize().unwrap();
        assert!((stats.mean[0] - 2.5).abs() < 1e-6);
        assert!((stats.var[0] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn empty_accumulator_cannot_finalize() {
        let acc = ChannelAccumulator::new(4);
        assert!(acc.finalize().is_err());
    }

    #[test]
    fn merge_channel_mismatch_fails() {
        let mut a = ChannelAccumulator::new(2);
        let b = ChannelAccumulator::new(3);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn non_nchw_input_is_rejected() {
        let x = Tensor::zeros(Shape::matrix(3, 4));
        assert!(channel_stats_two_pass(&x).is_err());
        assert!(channel_stats_one_pass(&x).is_err());
        assert!(channel_stats_welford(&x).is_err());
    }

    #[test]
    fn stats_diff_channel_mismatch() {
        let a = ChannelStats::zeros(2);
        let b = ChannelStats::zeros(3);
        assert!(a.max_abs_diff(&b).is_err());
    }

    /// The channel-pair walks — `from_tensor`, the two-pass sweeps and
    /// `push_sample` — equal the per-channel fold of single-plane sums bit
    /// for bit on every tier, odd channel counts included.
    #[test]
    fn channel_pairs_equal_the_per_channel_fold() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for isa in simd::test_isas() {
            for c in [1usize, 3, 5, 13] {
                for n in [1usize, 3] {
                    let label = format!("{isa} C={c} N={n}");
                    let x = random_tensor(Shape::nchw(n, c, 5, 7), 11 + c as u64);
                    let per_channel = (n * 35) as f64;
                    let (mut sum, mut sq_sum) = (vec![0.0f64; c], vec![0.0f64; c]);
                    let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
                    for ci in 0..c {
                        let (mut m, mut v) = (0.0f64, 0.0f64);
                        for ni in 0..n {
                            let (s, q) = simd::sum_sq_f64(isa, x.channel_plane(ni, ci));
                            sum[ci] += s;
                            sq_sum[ci] += q;
                            m += simd::sum_f64(isa, x.channel_plane(ni, ci));
                        }
                        let m = m / per_channel;
                        for ni in 0..n {
                            v += simd::sq_dev_sum_f64(isa, x.channel_plane(ni, ci), m);
                        }
                        (mean[ci], var[ci]) = (m as f32, (v / per_channel) as f32);
                    }
                    let acc = with_isa(isa, || ChannelAccumulator::from_tensor(&x)).unwrap();
                    assert_eq!(bits(&acc.sum), bits(&sum), "from_tensor Σx {label}");
                    assert_eq!(bits(&acc.sq_sum), bits(&sq_sum), "from_tensor Σx² {label}");
                    let mut pushed = ChannelAccumulator::new(c);
                    for ni in 0..n {
                        let sample = &x.as_slice()[ni * c * 35..][..c * 35];
                        with_isa(isa, || pushed.push_sample(sample));
                    }
                    assert_eq!(bits(&pushed.sum), bits(&sum), "push_sample Σx {label}");
                    assert_eq!(bits(&pushed.sq_sum), bits(&sq_sum), "push_sample Σx² {label}");
                    let two = with_isa(isa, || channel_stats_two_pass(&x)).unwrap();
                    assert_eq!(bits32(&two.mean), bits32(&mean), "two-pass mean {label}");
                    assert_eq!(bits32(&two.var), bits32(&var), "two-pass var {label}");
                }
            }
        }
    }

    #[test]
    fn variance_never_negative_in_one_pass() {
        // Large offset makes E[X²] − E[X]² catastrophically cancel; the
        // one-pass implementation must clamp at zero.
        let x = Tensor::filled(Shape::nchw(2, 1, 8, 8), 10_000.0);
        let stats = channel_stats_one_pass(&x).unwrap();
        assert!(stats.var[0] >= 0.0);
    }
}
