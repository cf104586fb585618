//! The weight gradient of a convolution whose windows are read in place: a
//! register-tiled correlation over one staged sample.
//!
//! `d_W[co][j] += Σ_pos d_out_n[co][pos] · x̃_n[base_j + off(pos)]`, where
//! `j = (ci, kh, kw)` is a row of the column matrix, `base_j` is where that
//! row starts in the sample ([`Im2colView::rows_in_place`], the table the
//! forward GEMM reads `B` through) and `off(pos) = oh·in_w + ow`. The
//! reduction axis — the output positions — is the contiguous axis of *both*
//! operands, so the sum is a dot product vectorised along `ow`: nothing is
//! packed, nothing is transposed and no tile row is zero padding, where the
//! GEMM form `d_out_n · im2col(x̃_n)ᵀ` gathers a transposed
//! `(Ho·Wo) × (C·Kh·Kw)` slab per sample.
//!
//! One tile is [`R`]` × `[`T`] elements of `d_W` — twelve 8-lane
//! accumulators, three window vectors and one `d_out` vector fill the
//! sixteen ymm registers, 7 loads per 12 FMAs — swept over every position of
//! the sample eight consecutive `ow` at a time, then reduced horizontally
//! and added into `d_W`. Ragged `C_out` and `C·Kh·Kw` tails are smaller
//! tiles of the same body.
//!
//! ## The AVX-512 tier: two AVX2 tiles per zmm
//!
//! Under [`SimdIsa::Avx512`] the output channels are swept [`R2`] at a time
//! (the `C_out mod 8` left over finish on the `R`-channel tiles above): one
//! tile is `8 × T` elements of `d_W` in twelve 16-lane accumulators, where
//! zmm `acc[p][t]` holds the AVX2 accumulator of `(co0 + p, j0 + t)` in its
//! low half and that of `(co0 + p + 4, j0 + t)` in its high half. Per step
//! each window row is one `broadcast_f64x4` of its 8 values into both
//! halves, and each channel pair `(p, p + 4)` one aligned 512-bit load from
//! a copy of the tile's `d_out_n` planes interleaved `[pair][step][16]`
//! (8 positions of channel `p`, then the same 8 of channel `p + 4`) — laid
//! once per sample in a 64-byte-aligned scratch the caller keeps per sample
//! group — then 12 FMAs and no shuffle. Every lane therefore sums the
//! products the AVX2 kernel sums in that lane, one FMA each, in the same
//! order, from zero. The reduction is the AVX2 `hadd` tree run on both
//! halves at once: `hadd` works per 128-bit quarter, so a zmm `hadd` built
//! from two in-quarter shuffles and one add is the ymm one twice, the same
//! adds in the same order. [`add_tile`] therefore adds the AVX2 kernel's
//! sums, and `d_W` carries its bits on this tier too.
//!
//! ## Summation order
//!
//! Per `(co, j)` a sample's products are summed in eight lane partials (lane
//! `ow mod 8`, positions in ascending order), the partials are combined as
//! `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, and that sum is added
//! to `d_W[co][j]` — whatever tile the element fell in. The AVX2 body and
//! its scalar twin keep the same partials and the same tree, so they differ
//! only where FMA contracts `d·x + acc` into one rounding (see
//! [`crate::dispatch`]).
//!
//! ## The load contract
//!
//! The vector loads are unchecked. Their bound —
//! `max(base) + (out_h − 1)·in_w + out_w ≤ sample.len()`,
//! `d_out_n.len() = C_out·out_h·out_w` and, on the AVX-512 tier, room for
//! the interleaved planes past the scratch's first 64-byte boundary — is
//! `assert!`ed (release builds too) once per sample in
//! [`WindowCorrelation::accumulate`], never per load.

use crate::gemm::Im2colView;
use bnff_tensor::simd::SimdIsa;

/// Output channels per register tile.
const R: usize = 4;

/// Output channels per AVX-512 register tile: two `R`-channel tiles, one
/// per half of every zmm accumulator.
const R2: usize = 2 * R;

/// Column-matrix rows `(ci, kh, kw)` per register tile.
const T: usize = 3;

/// Output positions per step: one 256-bit vector of `f32`.
const LANES: usize = 8;

/// One convolution call's weight-gradient correlation, set up once and run
/// per sample: the offset tables are built once — only the sample and its
/// output gradient change between runs.
pub(crate) struct WindowCorrelation {
    /// `base_j` for every row `j = (ci, kh, kw)` of the column matrix.
    bases: Vec<usize>,
    /// `off(pos)` of every eighth output position, in position order.
    steps: Vec<usize>,
    /// One past the last sample element a window reads:
    /// `max(base) + (out_h − 1)·in_w + out_w`.
    reach: usize,
}

/// What the tiles of one sample sweep. Only
/// [`WindowCorrelation::accumulate`] builds one, after asserting the bound
/// the unchecked loads rely on.
struct Sweep<'a> {
    sample: &'a [f32],
    d_out_n: &'a [f32],
    bases: &'a [usize],
    steps: &'a [usize],
}

impl WindowCorrelation {
    /// The correlation over the windows of `view` (whose `sample` is not
    /// read), or `None` when the view's windows cannot be read in place and
    /// its weight gradient stays with the gathering GEMM.
    pub(crate) fn new(view: &Im2colView<'_>) -> Option<Self> {
        let bases = view.rows_in_place()?;
        // `out_w` is a multiple of 8: no step crosses an output row.
        let steps: Vec<usize> = (0..view.out_h * view.out_w)
            .step_by(LANES)
            .map(|pos| pos / view.out_w * view.in_w + pos % view.out_w)
            .collect();
        let reach = bases.iter().max()? + steps.iter().max()? + LANES;
        Some(WindowCorrelation { bases, steps, reach })
    }

    /// The `C_out` channels the AVX-512 tier sweeps in [`R2`]-channel
    /// tiles under `isa`: every whole tile's worth, or none on other tiers.
    fn wide_channels(isa: SimdIsa, c_out: usize) -> usize {
        match isa {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdIsa::Avx512 => c_out - c_out % R2,
            _ => 0,
        }
    }

    /// The length of the `pairs` scratch [`WindowCorrelation::accumulate`]
    /// needs for `c_out` output channels under `isa`: the interleaved
    /// planes of the wide tiles plus room to start them on a 64-byte
    /// boundary — zero when no tile is wide.
    pub(crate) fn pairs_len(&self, isa: SimdIsa, c_out: usize) -> usize {
        match Self::wide_channels(isa, c_out) {
            0 => 0,
            wide => wide * self.steps.len() * LANES + (64 / size_of::<f32>() - 1),
        }
    }

    /// `d_w += d_out_n ⋆ sample`: `d_w` is the row-major `C_out × (C·Kh·Kw)`
    /// gradient, `d_out_n` the sample's `C_out × out_h × out_w` output
    /// gradient, `sample` the staged `x̃_n` the view's offsets index, and
    /// `pairs` scratch of at least [`WindowCorrelation::pairs_len`] values
    /// (its contents are overwritten).
    ///
    /// # Panics
    /// When an operand does not have the extent the geometry states — the
    /// whole safety contract of the vector bodies' unchecked loads.
    pub(crate) fn accumulate(
        &self,
        isa: SimdIsa,
        sample: &[f32],
        d_out_n: &[f32],
        d_w: &mut [f32],
        pairs: &mut [f32],
    ) {
        let (rows, cols) = (self.bases.len(), self.steps.len() * LANES);
        let wide = Self::wide_channels(isa, d_w.len() / rows);
        // Values before the scratch's first 64-byte boundary.
        let aligned = pairs.as_ptr().addr().wrapping_neg() % 64 / size_of::<f32>();
        assert!(
            self.reach <= sample.len()
                && d_w.len().is_multiple_of(rows)
                && d_out_n.len() == d_w.len() / rows * cols
                && (wide == 0 || aligned + wide * cols <= pairs.len()),
            "a correlated window must lie inside its sample, d_out_n hold a plane per row of d_w, \
             and pairs the interleaved planes"
        );
        let sweep = Sweep { sample, d_out_n, bases: &self.bases, steps: &self.steps };
        let (d_w_wide, d_w_rest) = d_w.split_at_mut(wide * rows);
        if wide > 0 {
            let pairs = &mut pairs[aligned..aligned + wide * cols];
            interleave(&d_out_n[..wide * cols], cols, pairs);
            // Eight planes of `d_out_n`, interleaved, stay in L1 while every
            // window row of the sample streams past them.
            let tiles = d_w_wide.chunks_exact_mut(R2 * rows).zip(pairs.chunks_exact(R2 * cols));
            for (d_w_rows, pairs) in tiles {
                sweep.channels_wide(isa, pairs, d_w_rows);
            }
        }
        // R planes of `d_out_n` stay in L1 while every window row of the
        // sample streams past them.
        for (tile, d_w_rows) in d_w_rest.chunks_mut(R * rows).enumerate() {
            let co0 = wide + tile * R;
            match d_w_rows.len() / rows {
                4 => sweep.channels::<4>(isa, co0, d_w_rows),
                3 => sweep.channels::<3>(isa, co0, d_w_rows),
                2 => sweep.channels::<2>(isa, co0, d_w_rows),
                _ => sweep.channels::<1>(isa, co0, d_w_rows),
            }
        }
    }
}

/// Lays the [`R2`]-channel tiles of `d_out` (`C × cols`, `C` a multiple of
/// `R2`) out as the AVX-512 tile reads them: per tile `[pair][step][16]`,
/// where pair `p` holds, step by step, 8 positions of the tile's channel
/// `p` and then the same 8 of channel `p + R`.
fn interleave(d_out: &[f32], cols: usize, pairs: &mut [f32]) {
    let tiles = pairs.chunks_exact_mut(R2 * cols).zip(d_out.chunks_exact(R2 * cols));
    for (tile_pairs, planes) in tiles {
        let (low, high) = planes.split_at(R * cols);
        let channels = low.chunks_exact(cols).zip(high.chunks_exact(cols));
        for (pair, (low, high)) in tile_pairs.chunks_exact_mut(2 * cols).zip(channels) {
            let steps = low.chunks_exact(LANES).zip(high.chunks_exact(LANES));
            for (dst, (low, high)) in pair.chunks_exact_mut(2 * LANES).zip(steps) {
                dst[..LANES].copy_from_slice(low);
                dst[LANES..].copy_from_slice(high);
            }
        }
    }
}

/// `d_w_rows[r][j0 + t] += sums[r][t]` over the `RR × TT` tile at `j0`.
#[inline(always)]
fn add_tile<const RR: usize, const TT: usize>(
    d_w_rows: &mut [f32],
    j0: usize,
    sums: [[f32; TT]; RR],
) {
    let rows = d_w_rows.len() / RR;
    for (row, sums) in d_w_rows.chunks_exact_mut(rows).zip(sums) {
        for (slot, sum) in row[j0..j0 + TT].iter_mut().zip(sums) {
            *slot += sum;
        }
    }
}

impl Sweep<'_> {
    /// Adds the sample's contribution to the `RR` rows `co0..` of `d_W`,
    /// dispatching to the resolved ISA.
    fn channels<const RR: usize>(&self, isa: SimdIsa, co0: usize, d_w_rows: &mut [f32]) {
        match isa {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
                // SAFETY: `Avx2Fma` and `Avx512` imply runtime-verified
                // avx2+fma support.
                unsafe { avx2::channels::<RR>(self, co0, d_w_rows) }
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            SimdIsa::Avx2Fma | SimdIsa::Avx512 => self.channels_scalar::<RR>(co0, d_w_rows),
            SimdIsa::Scalar => self.channels_scalar::<RR>(co0, d_w_rows),
        }
    }

    /// Adds the sample's contribution to one [`R2`]-channel tile of `d_W`
    /// on the AVX-512 tier, reading `d_out_n` through the tile's
    /// interleaved `pairs` (64-byte aligned, `R2 · cols` values).
    fn channels_wide(&self, isa: SimdIsa, pairs: &[f32], d_w_rows: &mut [f32]) {
        match isa {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdIsa::Avx512 => {
                // SAFETY: `Avx512` implies runtime-verified avx512f (and
                // avx2+fma) support; `accumulate` asserted the sweep's bound
                // and cut `pairs` at a 64-byte boundary to this tile's
                // `R2 · cols` interleaved values.
                unsafe { avx512::channels(self, pairs, d_w_rows) }
            }
            _ => unreachable!("only the AVX-512 tier sweeps 8-channel tiles"),
        }
    }

    /// The portable twin of [`avx2::channels`].
    fn channels_scalar<const RR: usize>(&self, co0: usize, d_w_rows: &mut [f32]) {
        let rows = self.bases.len();
        for j0 in (0..rows).step_by(T) {
            match rows - j0 {
                1 => add_tile(d_w_rows, j0, self.tile_scalar::<RR, 1>(co0, j0)),
                2 => add_tile(d_w_rows, j0, self.tile_scalar::<RR, 2>(co0, j0)),
                _ => add_tile(d_w_rows, j0, self.tile_scalar::<RR, T>(co0, j0)),
            }
        }
    }

    /// The portable twin of [`avx2::tile`]: the same eight lane partials per
    /// `(co, j)` in `[f32; 8]` arrays, the same combine tree.
    fn tile_scalar<const RR: usize, const TT: usize>(
        &self,
        co0: usize,
        j0: usize,
    ) -> [[f32; TT]; RR] {
        let cols = self.steps.len() * LANES;
        let mut acc = [[[0.0f32; LANES]; TT]; RR];
        for (step, x_at) in self.steps.iter().enumerate() {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let d = &self.d_out_n[(co0 + r) * cols + step * LANES..][..LANES];
                for (t, lanes) in acc_row.iter_mut().enumerate() {
                    let x = &self.sample[self.bases[j0 + t] + x_at..][..LANES];
                    for ((lane, d), x) in lanes.iter_mut().zip(d).zip(x) {
                        *lane += *d * *x;
                    }
                }
            }
        }
        acc.map(|acc_row| {
            acc_row.map(|l| ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])))
        })
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use super::{add_tile, Sweep, LANES, T};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Every tile of the `RR` rows `co0..` of `d_W`, in one function so
    /// that a tile's horizontal reduction overlaps the next tile's sweep.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn channels<const RR: usize>(s: &Sweep<'_>, co0: usize, d_w_rows: &mut [f32]) {
        let rows = s.bases.len();
        for j0 in (0..rows).step_by(T) {
            match rows - j0 {
                1 => add_tile(d_w_rows, j0, tile::<RR, 1>(s, co0, j0)),
                2 => add_tile(d_w_rows, j0, tile::<RR, 2>(s, co0, j0)),
                _ => add_tile(d_w_rows, j0, tile::<RR, T>(s, co0, j0)),
            }
        }
    }

    /// The AVX2+FMA tile: `RR × TT` accumulators of eight lane partials
    /// each; every step loads `TT` window vectors and, per output channel,
    /// one `d_out` vector for `TT` FMAs. The accumulators of one output
    /// channel are then reduced together: two rounds of `hadd` leave
    /// `(l0 + l1) + (l2 + l3)` and `(l4 + l5) + (l6 + l7)` of each in the
    /// two 128-bit halves, whose sum is the stated tree.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn tile<const RR: usize, const TT: usize>(
        s: &Sweep<'_>,
        co0: usize,
        j0: usize,
    ) -> [[f32; TT]; RR] {
        let cols = s.steps.len() * LANES;
        let mut x_rows = [s.sample.as_ptr(); TT];
        for (row, base) in x_rows.iter_mut().zip(&s.bases[j0..j0 + TT]) {
            *row = row.wrapping_add(*base);
        }
        let mut d_rows = [s.d_out_n.as_ptr(); RR];
        for (r, row) in d_rows.iter_mut().enumerate() {
            *row = row.wrapping_add((co0 + r) * cols);
        }
        let mut acc = [[_mm256_setzero_ps(); TT]; RR];
        for (step, x_at) in s.steps.iter().enumerate() {
            let mut x = [_mm256_setzero_ps(); TT];
            for (x, row) in x.iter_mut().zip(&x_rows) {
                // SAFETY: `accumulate` asserted `reach ≤ sample.len()`, and
                // `reach = max(base) + max(step) + 8`, so the 8 f32 at
                // `base + step` lie inside `s.sample`.
                *x = unsafe { _mm256_loadu_ps(row.add(*x_at)) };
            }
            for (acc_row, row) in acc.iter_mut().zip(&d_rows) {
                // SAFETY: `accumulate` asserted that `d_out_n` holds one
                // plane of `cols = 8·steps` per row of `d_W`, and rows
                // `co0 .. co0 + RR` of `d_W` exist, so the 8 f32 at
                // `(co0 + r)·cols + 8·step` lie inside `s.d_out_n`.
                let d = unsafe { _mm256_loadu_ps(row.add(step * LANES)) };
                for (lanes, x) in acc_row.iter_mut().zip(&x) {
                    *lanes = _mm256_fmadd_ps(d, *x, *lanes);
                }
            }
        }
        let mut sums = [[0.0f32; TT]; RR];
        for (sums, a) in sums.iter_mut().zip(&acc) {
            // Slots past `TT` repeat accumulator 0; their sums are dropped.
            let pairs =
                _mm256_hadd_ps(_mm256_hadd_ps(a[0], a[1 % TT]), _mm256_hadd_ps(a[2 % TT], a[0]));
            let halves =
                _mm_add_ps(_mm256_castps256_ps128(pairs), _mm256_extractf128_ps::<1>(pairs));
            let mut tree = [0.0f32; 4];
            // SAFETY: `tree` holds the four f32 the store writes.
            unsafe { _mm_storeu_ps(tree.as_mut_ptr(), halves) };
            sums.copy_from_slice(&tree[..TT]);
        }
        sums
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx512 {
    use super::{add_tile, Sweep, LANES, R, R2, T};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Every tile of one [`R2`]-channel block of `d_W`, the AVX-512 twin of
    /// [`super::avx2::channels`] over two of its `R`-channel blocks at
    /// once.
    ///
    /// # Safety
    /// The CPU must support avx512f (and so avx2+fma). `s` must be a sweep
    /// whose bound [`super::WindowCorrelation::accumulate`] asserted, and
    /// `pairs` must start on a 64-byte boundary and hold the block's
    /// `R2 · cols` values interleaved by [`super::interleave`] (`cols` the
    /// sample's output positions), which the aligned loads read.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn channels(s: &Sweep<'_>, pairs: &[f32], d_w_rows: &mut [f32]) {
        debug_assert!(pairs.as_ptr().addr().is_multiple_of(64));
        debug_assert_eq!(pairs.len(), R2 * s.steps.len() * LANES);
        let rows = s.bases.len();
        for j0 in (0..rows).step_by(T) {
            // SAFETY (all three): this function's contract is the tile's.
            match rows - j0 {
                1 => add_tile(d_w_rows, j0, unsafe { tile::<1>(s, pairs, j0) }),
                2 => add_tile(d_w_rows, j0, unsafe { tile::<2>(s, pairs, j0) }),
                _ => add_tile(d_w_rows, j0, unsafe { tile::<T>(s, pairs, j0) }),
            }
        }
    }

    /// The `R2 × TT` tile at `j0`: zmm `acc[p][t]` carries the AVX2
    /// accumulator of channel `p` in its low half and of channel `p + R` in
    /// its high half. Every step broadcasts `TT` window vectors into both
    /// halves and loads each channel pair once, for `R · TT` FMAs; both
    /// halves are then reduced by the AVX2 tree at once.
    ///
    /// # Safety
    /// As for [`channels`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const TT: usize>(s: &Sweep<'_>, pairs: &[f32], j0: usize) -> [[f32; TT]; R2] {
        let pair_len = 2 * s.steps.len() * LANES;
        let mut x_rows = [s.sample.as_ptr(); TT];
        for (row, base) in x_rows.iter_mut().zip(&s.bases[j0..j0 + TT]) {
            *row = row.wrapping_add(*base);
        }
        let mut acc = [[_mm512_setzero_ps(); TT]; R];
        for (step, x_at) in s.steps.iter().enumerate() {
            let mut x = [_mm512_setzero_ps(); TT];
            for (x, row) in x.iter_mut().zip(&x_rows) {
                // SAFETY: `accumulate` asserted `reach ≤ sample.len()`, and
                // `reach = max(base) + max(step) + 8`, so the 8 f32 at
                // `base + step` lie inside `s.sample`.
                let window = unsafe { _mm256_loadu_pd(row.add(*x_at).cast::<f64>()) };
                *x = _mm512_castpd_ps(_mm512_broadcast_f64x4(window));
            }
            for (p, acc_row) in acc.iter_mut().enumerate() {
                // SAFETY: pair `p`'s step `step` is the 16 values at
                // `(p·steps + step)·16 < R · 2·cols = pairs.len()`, and
                // `pairs` starts on a 64-byte boundary (the contract), so
                // the aligned load reads inside it.
                let d =
                    unsafe { _mm512_load_ps(pairs.as_ptr().add(p * pair_len + step * 2 * LANES)) };
                for (lanes, x) in acc_row.iter_mut().zip(&x) {
                    *lanes = _mm512_fmadd_ps(d, *x, *lanes);
                }
            }
        }
        let mut sums = [[0.0f32; TT]; R2];
        for (p, a) in acc.iter().enumerate() {
            // The AVX2 tree on both halves at once: per 128-bit quarter,
            // `hadd` is the same adds in the same order, so the low half
            // ends as the tree of channel `p` and the high half as that of
            // channel `p + R`. Slots past `TT` repeat accumulator 0; their
            // sums are dropped.
            let pairs = hadd(hadd(a[0], a[1 % TT]), hadd(a[2 % TT], a[0]));
            // Quarter 0 (2) of the sum is quarter 0 + 1 (2 + 3) of `pairs`.
            let halves = _mm512_add_ps(pairs, _mm512_shuffle_f32x4::<0b10_11_00_01>(pairs, pairs));
            let mut tree = [0.0f32; 16];
            // SAFETY: `tree` holds the sixteen f32 the store writes.
            unsafe { _mm512_storeu_ps(tree.as_mut_ptr(), halves) };
            sums[p].copy_from_slice(&tree[..TT]);
            sums[p + R].copy_from_slice(&tree[LANES..LANES + TT]);
        }
        sums
    }

    /// `_mm256_hadd_ps` in every 128-bit quarter of a zmm:
    /// `[a1 + a0, a3 + a2, b1 + b0, b3 + b2]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn hadd(a: __m512, b: __m512) -> __m512 {
        _mm512_add_ps(
            _mm512_shuffle_ps::<0b11_01_11_01>(a, b),
            _mm512_shuffle_ps::<0b10_00_10_00>(a, b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{active_isa, with_isa};

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The AVX-512 tier sweeps 8-channel tiles in zmm channel pairs; every
    /// element of `d_W` must carry the bits the AVX2 tiles give it.
    /// `C_out ∈ 1..=17` runs no wide tile, one, then two, each followed by
    /// every 4/3/2/1-channel tail. 1×1 kernels over 3, 4 and 5 channels put
    /// the column rows on every residue mod 3; 3×3 kernels have 9 or 18.
    /// Two samples are accumulated into one `d_W` that starts non-zero, and
    /// the scratch starts one value past its allocation so the 64-byte
    /// boundary has to be found.
    #[test]
    fn avx512_tier_matches_avx2_bit_for_bit() {
        if with_isa(SimdIsa::Avx512, active_isa) != SimdIsa::Avx512 {
            eprintln!("skipping the AVX-512 correlation check: this host lacks avx512f");
            return;
        }
        let value = |i: usize, salt: usize| (((i * 37 + salt) % 29) as f32 - 14.0) * 0.0371;
        let shapes = [(1usize, 3usize), (1, 4), (1, 5), (3, 1), (3, 2)];
        for (kernel, channels) in shapes {
            for out_w in [8usize, 16, 32] {
                for out_h in [1usize, 3, 8] {
                    let (in_h, in_w) = (out_h + kernel - 1, out_w + kernel - 1);
                    let view = Im2colView {
                        sample: &[],
                        channels,
                        in_h,
                        in_w,
                        kernel_h: kernel,
                        kernel_w: kernel,
                        stride: 1,
                        out_h,
                        out_w,
                    };
                    let correlation = WindowCorrelation::new(&view).expect("reads in place");
                    let rows = channels * kernel * kernel;
                    let samples: Vec<Vec<f32>> = (0..2)
                        .map(|n| (0..channels * in_h * in_w).map(|i| value(i, 7 + n)).collect())
                        .collect();
                    for c_out in 1..=17usize {
                        let d_outs: Vec<Vec<f32>> = (0..2)
                            .map(|n| (0..c_out * out_h * out_w).map(|i| value(i, 3 + n)).collect())
                            .collect();
                        let run = |isa: SimdIsa| {
                            let mut d_w: Vec<f32> =
                                (0..c_out * rows).map(|i| value(i, 5)).collect();
                            let mut scratch = vec![f32::NAN; correlation.pairs_len(isa, c_out) + 1];
                            for (sample, d_out) in samples.iter().zip(&d_outs) {
                                correlation.accumulate(
                                    isa,
                                    sample,
                                    d_out,
                                    &mut d_w,
                                    &mut scratch[1..],
                                );
                            }
                            d_w
                        };
                        let want = with_isa(SimdIsa::Avx2Fma, || run(SimdIsa::Avx2Fma));
                        let got = with_isa(SimdIsa::Avx512, || run(SimdIsa::Avx512));
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{kernel}×{kernel} over {channels} channels, {out_h}×{out_w} → {c_out}"
                        );
                    }
                }
            }
        }
    }
}
