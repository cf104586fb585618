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
//! The AVX2 loads are unaligned and unchecked. Their bound —
//! `max(base) + (out_h − 1)·in_w + out_w ≤ sample.len()` and
//! `d_out_n.len() = C_out·out_h·out_w` — is `assert!`ed (release builds too)
//! once per sample in [`WindowCorrelation::accumulate`], never per load.

use crate::gemm::Im2colView;
use bnff_tensor::simd::SimdIsa;

/// Output channels per register tile.
const R: usize = 4;

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

    /// `d_w += d_out_n ⋆ sample`: `d_w` is the row-major `C_out × (C·Kh·Kw)`
    /// gradient, `d_out_n` the sample's `C_out × out_h × out_w` output
    /// gradient, `sample` the staged `x̃_n` the view's offsets index.
    ///
    /// # Panics
    /// When an operand does not have the extent the geometry states — the
    /// whole safety contract of the AVX2 body's unchecked loads.
    pub(crate) fn accumulate(
        &self,
        isa: SimdIsa,
        sample: &[f32],
        d_out_n: &[f32],
        d_w: &mut [f32],
    ) {
        let (rows, cols) = (self.bases.len(), self.steps.len() * LANES);
        assert!(
            self.reach <= sample.len()
                && d_w.len().is_multiple_of(rows)
                && d_out_n.len() == d_w.len() / rows * cols,
            "a correlated window must lie inside its sample, and d_out_n hold a plane per row of d_w"
        );
        let sweep = Sweep { sample, d_out_n, bases: &self.bases, steps: &self.steps };
        // R planes of `d_out_n` stay in L1 while every window row of the
        // sample streams past them.
        for (tile, d_w_rows) in d_w.chunks_mut(R * rows).enumerate() {
            let co0 = tile * R;
            match d_w_rows.len() / rows {
                4 => sweep.channels::<4>(isa, co0, d_w_rows),
                3 => sweep.channels::<3>(isa, co0, d_w_rows),
                2 => sweep.channels::<2>(isa, co0, d_w_rows),
                _ => sweep.channels::<1>(isa, co0, d_w_rows),
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
    pub fn channels<const RR: usize>(s: &Sweep<'_>, co0: usize, d_w_rows: &mut [f32]) {
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
