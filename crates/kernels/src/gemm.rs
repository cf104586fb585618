//! Cache-blocked general matrix multiply: `A` packed into panels, `B` packed
//! into strips or read where it lies.
//!
//! Convolutions and the fully-connected layer are lowered to this GEMM,
//! mirroring how MKL-DNN / CUTLASS execute them in the paper's reference
//! implementations. The paper's whole argument is about keeping
//! mini-batch operands in on-chip memory, so the GEMM — the hottest loop in
//! the workspace — uses the classic three-level blocking of
//! GotoBLAS/BLIS instead of streaming whole matrices:
//!
//! * The `k` dimension is split into [`KC`]-deep slabs and the `n` dimension
//!   into [`NC`]-wide slabs; each `KC × NC` slab of `B` is consumed as
//!   `KC × NR` strips that stay cache-resident while every row block of the
//!   output reuses them.
//! * The `m` dimension is split into [`MC`]-row blocks; each `MC × KC` block
//!   of `A` is packed into `KC × MR` panels by the worker that owns those
//!   output rows — or, for a convolution, all of `A` is packed once per call
//!   and shared by its samples.
//! * A register microkernel multiplies the first `R ≤` [`MR`] rows of one
//!   packed `A` panel against one `B` strip (two whole ones at a time on
//!   the AVX-512 tier) — `R` is the panel's live rows,
//!   so a ragged last panel (`m mod MR ≠ 0`) costs only its own rows —
//!   accumulates the `R ×` [`NR`] tile over the whole `k`-slab in
//!   registers, and then writes that tile into `C` itself: `c = α·acc` on
//!   the first slab of a `β = 0` multiply (never reading `C`), `c = c +
//!   α·acc` on later slabs or at `β = 1`, `c = β·c + α·acc` otherwise — a
//!   separate multiply and add, one rounding each, on every ISA.
//!
//! ## What is packed and what is read in place
//!
//! The microkernel has one contract for `B`: row `kk` of the strip's two
//! 8-lane halves is at `base[0] + rows[kk]` and `base[1] + rows[kk]` of some
//! slice. A *packed* strip (`rows[kk] = kk·NR`, the halves 8 apart) is one
//! instance; an operand whose rows already lie contiguous in memory is
//! another, and then nothing is copied:
//!
//! * a row-major `B` (`rows[kk] = kk·n`) — [`gemm`], [`gemm_tn`] and every
//!   pointwise convolution — while few enough `A` panels sweep each strip
//!   that packing would not pay back (`m ≤ 36`, see `IN_PLACE_MAX_PANELS`);
//! * a convolution's column matrix, which is *virtual* — an [`Im2colView`]
//!   names the sample and the window geometry — when the view has stride 1
//!   and an output width that is a multiple of 8: row `(ci, kh, kw)` is
//!   then the sample itself shifted by `(ci·H + kh)·W + kw`, and neither
//!   half of an `NR`-aligned strip crosses an output row.
//!
//! A view has no padding: every window it names lies inside its sample.
//! Convolution padding is [`crate::conv`]'s business — it stages a padded
//! sample inside a zero border and hands over the view of the bordered
//! copy — so nothing in this module clips a window or tests a coordinate
//! against an edge.
//!
//! Everything else goes through the packer, which is also the only place a
//! window is ever *expanded*: transposed operands, strided or ragged-width
//! views (one segment copy, or strided read, per packed row and output-row
//! run), the transposed form of such a view for its weight gradient (a view
//! that reads in place has none: `crate::correlate` sums its weight
//! gradient over the same row offsets without a multiply), and the ragged
//! last strip of an operand that is otherwise read in place (reading it
//! there would run past the operand's last row). Packed values and in-place
//! values are the same bits consumed in the same order, so which of the
//! two happened never shows in a result. The im2col column matrix is never
//! written either way. Packing buffers are recycled through a shared
//! [`bnff_tensor::pool::SharedBufferPool`], so steady-state training steps
//! pack into storage carved out by earlier calls instead of `malloc`.
//!
//! ## SIMD dispatch and the load contract
//!
//! The register microkernel comes in three flavours selected per GEMM call
//! by [`bnff_tensor::simd::active_isa`] (scoped
//! [`bnff_tensor::simd::with_isa`] override → `BNFF_SIMD` env → CPU
//! detection), each monomorphized for every `R` in `1..=MR`:
//!
//! * the portable scalar loop (3 × 8 sub-tiles);
//! * an AVX2+FMA kernel that keeps the `R × NR` tile in `2R` `__m256`
//!   accumulators (twelve for a whole panel) and writes them to `C`
//!   straight from the registers — with masked loads and stores for the
//!   halves of a ragged strip's rows;
//! * on the AVX-512 tier, a *pair* kernel, `microkernel2`: the packed GEMM
//!   walks whole strips two at a time and multiplies the `R × 2·NR` tile in `2R`
//!   `__m512` accumulators, one 512-bit vector per strip row — one load
//!   when the strip's halves are adjacent, two 256-bit loads joined when an
//!   8-wide output row splits them. An odd or ragged last strip goes
//!   through the AVX2 kernel.
//!
//! The pair kernel's bits are the AVX2 kernel's. Lane `l` of a strip's
//! 512-bit accumulator is lane `l mod 8` of the AVX2 kernel's accumulator
//! for half `l / 8`: the same products, one FMA each, in ascending `k` from
//! zero. The write-back is the same `Fold` — a separate multiply and add,
//! never fused — and needs no mask, because a pair only ever holds whole
//! strips. Every other kernel is unchanged on that tier.
//!
//! The vector kernels' `B` loads are *unaligned* and unchecked — an
//! in-place row starts wherever the window does. Their bound,
//! `max(base) + max(rows) + 8 ≤ len`, is `assert!`ed (release builds too)
//! once per strip and `k`-slab when the `Strip` is built, never per load;
//! when `base[1] = base[0] + 8` it also bounds the pair kernel's 16-lane
//! loads. Their `C` loads and stores are bounded the same way, by one
//! assert per tile (per pair of tiles) that it lies inside the worker's
//! rows of `C`. Packed strips live in 32-byte-aligned
//! [`bnff_tensor::simd::AlignedBuf`] storage so that none of their 256-bit
//! loads straddles a cache line. The ISA is resolved once on the calling
//! thread and passed by value into the pool workers.
//!
//! ## Determinism
//!
//! Work is partitioned across the `bnff-parallel` pool at *problem-granular*
//! block boundaries: worker splits are aligned to the [`MC`] grid
//! ([`bnff_parallel::parallel_row_blocks_mut`]), every `C` element is owned
//! by exactly one worker, and the accumulation order per element (`KC` slabs
//! outer, registers inner) depends only on the problem shape. Results are
//! therefore bit-identical for any `BNFF_THREADS` *within each dispatch
//! path*, which `crates/kernels/tests/parallel_determinism.rs` locks in.
//! Between the scalar and the vector paths the last bits may differ (FMA
//! contracts `a·b + c` into one rounding);
//! `crates/kernels/tests/simd_equivalence.rs` bounds the gap. The AVX2 and
//! AVX-512 paths give the same bits.
//!
//! The pre-blocking row-streaming implementation is kept as
//! [`gemm_streaming`], the independent reference the packed engine is
//! tested against.

use crate::error::KernelError;
use crate::im2col::conv_out_dim;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_row_blocks_mut, parallel_rows_mut};
use bnff_tensor::pool::SharedBufferPool;
use bnff_tensor::simd::{active_isa, AlignedBuf, SimdIsa};

/// Microkernel tile height: rows of `C` accumulated in registers at once.
pub const MR: usize = 6;

/// Microkernel tile width: columns of `C` accumulated in registers at once.
/// `MR × NR = 6 × 16` fills the AVX2 register file: twelve `__m256`
/// accumulators plus two `B` vectors and one `A` broadcast use 15 of the 16
/// architectural ymm registers (the BLIS sgemm shape for Haswell-class
/// cores). The AVX-512 tier keeps two such tiles, one row of each per
/// `__m512`, in the same count of zmm registers.
pub const NR: usize = 16;

/// Rows of `A` packed per block: an `MC × KC` packed panel (96 KiB of f32,
/// `MC` divisible by `MR`) sized for a per-core L2.
pub const MC: usize = 96;

/// Depth of the packed slabs: one `KC × NR` strip of packed `B` (16 KiB)
/// stays L1-resident across a whole column of microkernel calls.
pub const KC: usize = 256;

/// Columns of `B` packed per slab: a `KC × NC` packed slab (1 MiB) stays
/// LLC-resident while every row block of the output sweeps it.
pub const NC: usize = 1024;

/// Tile edge of the legacy row-streaming kernel ([`gemm_streaming`]); also
/// the working-set parameter `bnff-memsim` uses to model the pre-blocking
/// access pattern.
pub const STREAM_TILE: usize = 48;

/// Packing scratch recycled across GEMM calls (and training steps). The
/// bound comfortably covers one `KC × NC` packed `B` slab plus one packed
/// `A` panel per worker at any realistic core count, while capping what an
/// oversized one-off multiply can leave behind.
static PACK_POOL: SharedBufferPool = SharedBufferPool::bounded(32 << 20);

/// `(hits, takes)` of the shared packing-buffer pool — how often a GEMM
/// found its panels already allocated by an earlier call.
pub fn pack_pool_reuse() -> (usize, usize) {
    PACK_POOL.hits_and_takes()
}

/// How the elements of an operand are laid out relative to the logical
/// matrix the multiply consumes.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    /// The logical matrix itself, row-major.
    Normal(&'a [f32]),
    /// The transpose of the logical matrix, row-major (so logical `(i, j)`
    /// lives at `data[j * rows + i]`).
    Transposed(&'a [f32]),
    /// A convolution's im2col column matrix, described by its geometry and
    /// gathered from the input sample during packing (B side only).
    Im2col(Im2colView<'a>),
    /// The transpose of that column matrix (`(Ho·Wo) × (C·Kh·Kw)`), gathered
    /// the same way (B side only) — the weight gradient's operand.
    Im2colT(Im2colView<'a>),
}

/// A *virtual* `B` operand for the convolution GEMMs: the im2col column
/// matrix of one sample, described by its geometry instead of being
/// materialized. The geometry has no padding — `out = (in − K)/stride + 1`
/// per axis, every window inside the sample; a padded convolution points
/// the view at a copy of its sample staged inside a zero border
/// ([`crate::conv`]). A stride-1 view whose output width is a multiple of 8
/// is read by the microkernel where it lies — row `(ci, kh, kw)` of the
/// column matrix is the sample shifted by `(ci·H + kh)·W + kw`. For any
/// other view the B-packer expands the windows, and it is the only place
/// that ever does: every packed row `(ci, kh, kw)` moves each run of
/// output columns within one output row with one segment copy (a strided
/// read past stride 1) — straight from the sample's `C × H × W` planes into
/// the `KC × NR` strips the microkernel consumes. Either way the
/// microkernel consumes, in the same order, the bits a materialized column
/// matrix would hold, so [`gemm_im2col`] is bit-identical to the two-step
/// `im2col → gemm` lowering while the `(C·Kh·Kw) × (Ho·Wo)` matrix is never
/// written. The forward pass, the weight gradient (through the transposed
/// form, or — read in place — as a correlation over the same row offsets)
/// and the stride-1 input gradient (a forward convolution of `d_out` with
/// the rotated weights) all read their windows through this view.
#[derive(Debug, Clone, Copy)]
pub struct Im2colView<'a> {
    /// One sample's `C × H × W` values, contiguous.
    pub sample: &'a [f32],
    /// Input channels `C`.
    pub channels: usize,
    /// Input height `H`.
    pub in_h: usize,
    /// Input width `W`.
    pub in_w: usize,
    /// Filter height `Kh`.
    pub kernel_h: usize,
    /// Filter width `Kw`.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Output height `Ho`.
    pub out_h: usize,
    /// Output width `Wo`.
    pub out_w: usize,
}

/// Packs the `mc × kc` block of logical `A` starting at `(row0, pc)` into
/// `kc × MR` panels: panel `ir` holds rows `row0 + ir*MR ..` with the `k`
/// index outermost, so the microkernel reads `MR` consecutive values per
/// step. Rows beyond `mc` are zero-padded so that every panel keeps that
/// layout; the microkernel of a ragged last panel multiplies only its live
/// rows and never reads the padding.
fn pack_a(a: Operand<'_>, m: usize, row0: usize, mc: usize, pc: usize, kc: usize, out: &mut [f32]) {
    let panels = mc.div_ceil(MR);
    for ir in 0..panels {
        let panel = &mut out[ir * kc * MR..(ir + 1) * kc * MR];
        match a {
            // Row-major A: the panel's MR rows advance in lockstep, one
            // contiguous MR-wide step per `kk`; rows past the block read a
            // zero row, so padding is written in the same pass.
            Operand::Normal(data) => {
                let cols = data.len() / m;
                let mut rows = [&ZERO_ROW[..kc]; MR];
                let live = MR.min(mc - ir * MR);
                for (i, row) in rows.iter_mut().enumerate().take(live) {
                    let start = (row0 + ir * MR + i) * cols + pc;
                    *row = &data[start..start + kc];
                }
                for (kk, step) in panel.chunks_exact_mut(MR).enumerate() {
                    for (slot, row) in step.iter_mut().zip(&rows) {
                        *slot = row[kk];
                    }
                }
            }
            // Transposed storage: logical column `kk` is a contiguous row of
            // the buffer, which is exactly one packed step.
            Operand::Transposed(data) => {
                let t_cols = m;
                for kk in 0..kc {
                    let src_row = &data[(pc + kk) * t_cols..(pc + kk + 1) * t_cols];
                    let step = &mut panel[kk * MR..(kk + 1) * MR];
                    for (i, slot) in step.iter_mut().enumerate() {
                        let row = row0 + ir * MR + i;
                        *slot = if row < row0 + mc { src_row[row] } else { 0.0 };
                    }
                }
            }
            Operand::Im2col(_) | Operand::Im2colT(_) => {
                unreachable!("im2col operands only appear on the B side of a multiply")
            }
        }
    }
}

/// Packs the `kc × nc` slab of logical `B` starting at `(pc, jc)` into
/// `kc × NR` strips (strip `jr` holds columns `jc + jr*NR ..`, `k`
/// outermost). Columns beyond `nc` are zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b_strip(
    b: Operand<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    jr: usize,
    strip: &mut [f32],
) {
    let col0 = jc + jr * NR;
    let nr_eff = NR.min(jc + nc - col0);
    match b {
        Operand::Normal(data) => {
            debug_assert_eq!(data.len(), k * n);
            for kk in 0..kc {
                let src = &data[(pc + kk) * n + col0..(pc + kk) * n + col0 + nr_eff];
                let step = &mut strip[kk * NR..(kk + 1) * NR];
                step[..nr_eff].copy_from_slice(src);
                step[nr_eff..].fill(0.0);
            }
        }
        Operand::Transposed(data) => {
            // Stored n × k: logical column j is the buffer's row j.
            for kk in 0..kc {
                let step = &mut strip[kk * NR..(kk + 1) * NR];
                for (j, slot) in step.iter_mut().enumerate() {
                    *slot = if j < nr_eff { data[(col0 + j) * k + pc + kk] } else { 0.0 };
                }
            }
        }
        Operand::Im2col(v) => pack_im2col_strip(&v, pc, col0, nr_eff, strip),
        Operand::Im2colT(v) => pack_im2col_t_strip(&v, pc, kc, col0, nr_eff, strip),
    }
}

impl Im2colView<'_> {
    /// Whether the column matrix is the sample itself (a pointwise window:
    /// `1×1` at stride 1), so the GEMM can read it in place.
    fn is_identity(&self) -> bool {
        (self.kernel_h, self.kernel_w, self.stride) == (1, 1, 1)
    }

    /// Checks the view's geometry — a positive stride, each output extent
    /// equal to `(in − K)/stride + 1` for a filter that fits the input —
    /// and that it describes a `rows × cols` column matrix. Everything the
    /// packer and the in-place reads index by is derived from these fields,
    /// so nothing downstream re-checks them.
    fn check_geometry(&self, rows: usize, cols: usize) -> Result<()> {
        let axes = [(self.in_h, self.kernel_h, self.out_h), (self.in_w, self.kernel_w, self.out_w)];
        for (extent, kernel, out) in axes {
            let expected = conv_out_dim(extent, kernel, self.stride, 0)?;
            if out != expected {
                return Err(KernelError::ShapeMismatch(format!(
                    "im2col view states an output extent of {out}, its window geometry gives {expected}"
                )));
            }
        }
        if rows != self.channels * self.kernel_h * self.kernel_w || cols != self.out_h * self.out_w
        {
            return Err(KernelError::ShapeMismatch(format!(
                "im2col view ({}·{}·{} rows, {}·{} cols) does not describe a {rows}x{cols} matrix",
                self.channels, self.kernel_h, self.kernel_w, self.out_h, self.out_w
            )));
        }
        Ok(())
    }

    /// [`Im2colView::check_geometry`], and that the sample has the stated
    /// extent.
    fn check(&self, rows: usize, cols: usize) -> Result<()> {
        self.check_geometry(rows, cols)?;
        check_len(self.sample.len(), self.channels, self.in_h * self.in_w, "im2col sample")
    }

    /// Whether every full strip of the column matrix can be read where it
    /// lies: at stride 1, row `(ci, kh, kw)` is the sample shifted by
    /// `(ci·H + kh)·W + kw`, and with `out_w` a multiple of 8 neither
    /// 8-lane half of an `NR`-aligned strip crosses an output row.
    fn reads_in_place(&self) -> bool {
        self.stride == 1 && self.out_w.is_multiple_of(8)
    }

    /// Where each row `(ci, kh, kw)` of the column matrix starts in the
    /// sample, when the view [reads in place](Self::reads_in_place): the
    /// table the forward GEMM reads `B` through and the weight-gradient
    /// correlation ([`crate::correlate`]) reads its windows through.
    pub(crate) fn rows_in_place(&self) -> Option<Vec<usize>> {
        let rows = self.channels * self.kernel_h * self.kernel_w;
        self.reads_in_place().then(|| {
            (0..rows)
                .map(|row| {
                    let (ci, kh, kw) = self.window_of(row);
                    (ci * self.in_h + kh) * self.in_w + kw
                })
                .collect()
        })
    }

    /// Splits a column-matrix row index into `(ci, kh, kw)`.
    fn window_of(&self, row: usize) -> (usize, usize, usize) {
        let taps = self.kernel_h * self.kernel_w;
        (row / taps, (row / self.kernel_w) % self.kernel_h, row % self.kernel_w)
    }

    /// Advances `(ci, kh, kw)` to the next column-matrix row.
    fn next_window(&self, (ci, kh, kw): (usize, usize, usize)) -> (usize, usize, usize) {
        if kw + 1 < self.kernel_w {
            (ci, kh, kw + 1)
        } else if kh + 1 < self.kernel_h {
            (ci, kh + 1, 0)
        } else {
            (ci + 1, 0, 0)
        }
    }

    /// The input row `ih` of channel `ci`.
    #[inline(always)]
    fn input_row(&self, ci: usize, ih: usize) -> &[f32] {
        let start = (ci * self.in_h + ih) * self.in_w;
        &self.sample[start..start + self.in_w]
    }
}

/// Splits the output positions `start .. start + count` (row-major over an
/// `out_w`-wide map) into runs that stay inside one output row and are at
/// most `NR` long: `(offset from start, oh, ow0, len)`.
fn row_runs(
    out_w: usize,
    start: usize,
    count: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut offset = 0;
    std::iter::from_fn(move || {
        let pos = start + offset;
        let (oh, ow0) = (pos / out_w, pos % out_w);
        let len = (out_w - ow0).min(count - offset).min(NR);
        let run = (offset, oh, ow0, len);
        offset += len;
        (len > 0).then_some(run)
    })
}

/// One run of a packed strip's columns: `len` consecutive output positions
/// of one output row, starting at the strip's lane `lane`. `ih0`/`iw0` are
/// the input coordinates tap `(0, 0)` of the run's first window reads, so
/// tap `(kh, kw)` of window `t` reads `(ih0 + kh, iw0 + kw + t·stride)`.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    lane: usize,
    len: usize,
    ih0: usize,
    iw0: usize,
}

/// `dst[t] = row[iw + t·stride]`: one segment copy at stride 1 (fixed-size
/// when it fills a whole `NR`-wide step), one strided read otherwise. Every
/// tap lies inside the row — a view has no padding to clip. Inlined into
/// the packers: this body is their whole inner loop.
#[inline(always)]
fn gather_row(row: &[f32], iw: usize, stride: usize, dst: &mut [f32]) {
    if stride == 1 {
        let src = &row[iw..iw + dst.len()];
        match (<&mut [f32; NR]>::try_from(&mut *dst), <&[f32; NR]>::try_from(src)) {
            (Ok(dst), Ok(src)) => *dst = *src,
            _ => dst.copy_from_slice(src),
        }
    } else {
        for (slot, src) in dst.iter_mut().zip(row[iw..].iter().step_by(stride)) {
            *slot = *src;
        }
    }
}

/// Packs one `kc × NR` strip of an im2col column matrix straight from the
/// sample. The strip's `nr_eff` columns are consecutive output positions,
/// i.e. at most `NR` runs of one output row each, resolved once per strip;
/// every packed row `(ci, kh, kw)` then moves each run with one
/// [`gather_row`].
fn pack_im2col_strip(v: &Im2colView<'_>, pc: usize, col0: usize, nr_eff: usize, strip: &mut [f32]) {
    let mut runs = [Run::default(); NR];
    let mut n_runs = 0;
    for (lane, oh, ow0, len) in row_runs(v.out_w, col0, nr_eff) {
        runs[n_runs] = Run { lane, len, ih0: oh * v.stride, iw0: ow0 * v.stride };
        n_runs += 1;
    }
    let mut window = v.window_of(pc);
    for step in strip.chunks_exact_mut(NR) {
        let (ci, kh, kw) = window;
        for run in &runs[..n_runs] {
            let dst = &mut step[run.lane..run.lane + run.len];
            gather_row(v.input_row(ci, run.ih0 + kh), run.iw0 + kw, v.stride, dst);
        }
        step[nr_eff..].fill(0.0);
        window = v.next_window(window);
    }
}

/// Packs one `kc × NR` strip of the *transposed* column matrix: the strip's
/// columns are `nr_eff` consecutive rows `(ci, kh, kw)` of the column
/// matrix and its `kc` steps are consecutive output positions. Up to `NR`
/// positions of one output row at a time, each lane's run is gathered into
/// a lane-major tile by the same [`gather_row`] as the forward packer, and
/// the tile is written out transposed.
fn pack_im2col_t_strip(
    v: &Im2colView<'_>,
    pc: usize,
    kc: usize,
    col0: usize,
    nr_eff: usize,
    strip: &mut [f32],
) {
    let mut windows = [(0usize, 0usize, 0usize); NR];
    let mut window = v.window_of(col0);
    for slot in &mut windows[..nr_eff] {
        *slot = window;
        window = v.next_window(window);
    }
    // Lanes past `nr_eff` are never gathered into and stay zero.
    let mut tile = [[0.0f32; NR]; NR];
    for (kk, oh, ow0, len) in row_runs(v.out_w, pc, kc) {
        for (lane, &(ci, kh, kw)) in tile.iter_mut().zip(&windows[..nr_eff]) {
            let row = v.input_row(ci, oh * v.stride + kh);
            gather_row(row, ow0 * v.stride + kw, v.stride, &mut lane[..len]);
        }
        for (t, step) in strip[kk * NR..(kk + len) * NR].chunks_exact_mut(NR).enumerate() {
            for (slot, lane) in step.iter_mut().zip(&tile) {
                *slot = lane[t];
            }
        }
    }
}

/// Row offsets of a packed strip: step `kk` starts `kk·NR` into it.
static PACKED_ROWS: [usize; KC] = {
    let mut rows = [0; KC];
    let mut kk = 0;
    while kk < KC {
        rows[kk] = kk * NR;
        kk += 1;
    }
    rows
};

/// The zero row [`pack_a`] reads for panel rows past the end of `A`.
static ZERO_ROW: [f32; KC] = [0.0; KC];

/// The row offsets of one `k`-slab's strips, with how far past a strip's
/// base they reach (`max(rows) + 8` lanes) — taken once per slab so that
/// checking a strip costs one comparison.
#[derive(Clone, Copy)]
struct SlabRows<'a> {
    rows: &'a [usize],
    reach: usize,
}

impl<'a> SlabRows<'a> {
    fn new(rows: &'a [usize]) -> Self {
        SlabRows { rows, reach: rows.iter().max().map_or(0, |last| last + 8) }
    }
}

/// One `kc × NR` strip of `B` as the microkernels read it: the 8 lanes of
/// half `h` of row `kk` are `data[base[h] + rows[kk]..][..8]`. A packed
/// strip is the special case `base = [start, start + 8]`,
/// `rows = PACKED_ROWS`; an operand read in place points `data` at the
/// operand itself.
struct Strip<'a> {
    data: &'a [f32],
    base: [usize; 2],
    rows: &'a [usize],
}

impl<'a> Strip<'a> {
    /// The assert is the whole safety contract of the vector microkernels'
    /// unchecked loads and runs in release builds — once per strip and
    /// slab, never per load. With `base[1] = base[0] + 8` it also bounds
    /// the AVX-512 kernel's one 16-lane load per row.
    fn new(data: &'a [f32], base: [usize; 2], slab: SlabRows<'a>) -> Self {
        assert!(
            base[0].max(base[1]) + slab.reach <= data.len(),
            "a B strip must lie inside its operand"
        );
        Strip { data, base, rows: slab.rows }
    }
}

/// How a microkernel call folds its tile of sums `acc` into `C`, each
/// element evaluated left to right with one rounding per operation — a
/// multiply and an add, never a fused multiply-add — on every ISA.
#[derive(Clone, Copy)]
enum Fold {
    /// `c = α·acc`: the first `k`-slab of a `β = 0` multiply. `C` is never
    /// read, so a recycled buffer full of garbage — or NaNs — is fine.
    Store,
    /// `c = c + α·acc`: every later slab, and the first one when `β = 1`.
    Add,
    /// `c = β·c + α·acc`: the first slab for any other `β`.
    Blend(f32),
}

impl Fold {
    /// The fold of slab `pc` of `c = α·A·B + β·c`.
    fn for_slab(pc: usize, beta: f32) -> Self {
        if pc > 0 || beta == 1.0 {
            Fold::Add
        } else if beta == 0.0 {
            Fold::Store
        } else {
            Fold::Blend(beta)
        }
    }

    /// One element of the fold — the scalar kernel's write-back, and the
    /// arithmetic the AVX2 kernel's vector write-back rounds exactly like.
    #[inline(always)]
    fn apply(self, alpha: f32, c: &mut f32, acc: f32) {
        match self {
            Fold::Store => *c = alpha * acc,
            Fold::Add => *c += alpha * acc,
            Fold::Blend(beta) => *c = beta * *c + alpha * acc,
        }
    }
}

/// Where one microkernel call's `R × cols` tile lies in a worker's rows of
/// `C` — row `i` is `c[at + i·ldc..][..cols]`, `cols ≤ NR` (only a packed
/// strip is ever ragged; a pair of whole strips has a second tile `NR`
/// columns right of the first) — and how the call folds its sums into it.
#[derive(Clone, Copy)]
struct Tile {
    at: usize,
    ldc: usize,
    cols: usize,
    alpha: f32,
    fold: Fold,
}

/// Multiplies the first `R` rows of one `kc × MR` packed `A` panel against
/// one `kc`-row `B` strip and folds the `R × tile.cols` product straight
/// into `c`, on the resolved ISA. A ragged last panel (`R < MR`) costs only
/// its own rows: it keeps the `MR`-wide packed layout and [`pack_a`]'s zero
/// padding rows, but nothing multiplies them.
#[inline]
fn microkernel<const R: usize>(
    isa: SimdIsa,
    a_panel: &[f32],
    b: &Strip<'_>,
    c: &mut [f32],
    tile: Tile,
) {
    const { assert!(R >= 1 && R <= MR, "a microkernel covers 1..=MR panel rows") };
    // The whole safety contract of the AVX2 microkernel's unchecked `C`
    // loads and stores; it runs in release builds — once per tile, never
    // per store.
    assert!(
        tile.cols <= NR && tile.at + (R - 1) * tile.ldc + tile.cols <= c.len(),
        "a C tile must lie inside the worker's rows"
    );
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => {
            // SAFETY: `SimdIsa::Avx2Fma` and `SimdIsa::Avx512` are only ever
            // produced after `is_x86_feature_detected!` confirmed avx2+fma
            // at runtime, and the assert above is the tile bound the kernel
            // requires.
            unsafe { avx2::microkernel::<R>(a_panel, b, c, tile) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma | SimdIsa::Avx512 => microkernel_scalar::<R>(a_panel, b, c, tile),
        SimdIsa::Scalar => microkernel_scalar::<R>(a_panel, b, c, tile),
    }
}

/// [`microkernel`] over two whole `B` strips side by side — `b[1]` holds
/// the `NR` columns after `b[0]`'s — on the AVX-512 tier: the `R × 2·NR`
/// product is folded into `c` as two `R × NR` tiles, the second `NR`
/// columns right of `tile.at`. Only [`gemm_packed`] pairs strips, and only
/// under [`SimdIsa::Avx512`].
#[inline]
fn microkernel2<const R: usize>(
    isa: SimdIsa,
    a_panel: &[f32],
    b: [&Strip<'_>; 2],
    c: &mut [f32],
    tile: Tile,
) {
    const { assert!(R >= 1 && R <= MR, "a microkernel covers 1..=MR panel rows") };
    // The whole safety contract of the AVX-512 microkernel's unchecked `C`
    // loads and stores; it runs in release builds — once per pair of
    // tiles, never per store.
    assert!(
        tile.cols == NR && tile.at + (R - 1) * tile.ldc + 2 * NR <= c.len(),
        "both C tiles of a strip pair must lie inside the worker's rows"
    );
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx512 => {
            // SAFETY: `SimdIsa::Avx512` is only ever produced after
            // `is_x86_feature_detected!` confirmed avx2, fma and avx512f at
            // runtime, and the assert above is the bound on both tiles the
            // kernel requires.
            unsafe { avx512::microkernel2::<R>(a_panel, b, c, tile) }
        }
        _ => unreachable!("B strips are paired only under AVX-512"),
    }
}

/// One microkernel call over the first `R` rows of `a_panel`: against `b`
/// alone, or against `b` and the strip right of it when `next` pairs them.
#[inline]
fn panel_tile<const R: usize>(
    isa: SimdIsa,
    a_panel: &[f32],
    b: &Strip<'_>,
    next: Option<&Strip<'_>>,
    c: &mut [f32],
    tile: Tile,
) {
    match next {
        Some(next) => microkernel2::<R>(isa, a_panel, [b, next], c, tile),
        None => microkernel::<R>(isa, a_panel, b, c, tile),
    }
}

/// Rows of the portable kernel's register sub-tile.
const SUB_ROWS: usize = 3;

/// Lanes of one half of a strip row.
const LANES: usize = NR / 2;

/// The portable register microkernel — same contract as the AVX2 one. A
/// full 6×16 accumulator tile (96 f32) spills out of the baseline SSE
/// register file, so the panel is swept once per sub-tile of up to
/// [`SUB_ROWS`] × [`LANES`] (register-resident under auto-vectorization),
/// one 8-lane half of the strip at a time. Each `C` element still
/// accumulates its products in ascending `kk` order — fixed by the
/// operands, never by the thread count, and independent of the tile shape,
/// so this path is bit-identical to the historical 4×8 kernel; the
/// repeated panel reads stay in L1.
fn microkernel_scalar<const R: usize>(a_panel: &[f32], b: &Strip<'_>, c: &mut [f32], tile: Tile) {
    for i0 in (0..R).step_by(SUB_ROWS) {
        match R - i0 {
            1 => sub_tile::<1>(a_panel, b, i0, c, tile),
            2 => sub_tile::<2>(a_panel, b, i0, c, tile),
            _ => sub_tile::<SUB_ROWS>(a_panel, b, i0, c, tile),
        }
    }
}

/// Panel rows `i0..i0 + H` of the portable kernel against each half of the
/// strip that holds columns of the tile, folded into `C` once its sums are
/// complete.
#[inline(always)]
fn sub_tile<const H: usize>(a_panel: &[f32], b: &Strip<'_>, i0: usize, c: &mut [f32], tile: Tile) {
    for (half, base) in b.base.into_iter().enumerate() {
        let cols = tile.cols.saturating_sub(half * LANES).min(LANES);
        if cols == 0 {
            break;
        }
        let mut sums = [[0.0f32; LANES]; H];
        for (a_frag, row) in a_panel.chunks_exact(MR).zip(b.rows) {
            let lanes: &[f32; LANES] =
                b.data[base + row..base + row + LANES].try_into().expect("LANES-long slice");
            for (i, sum_row) in sums.iter_mut().enumerate() {
                let av = a_frag[i0 + i];
                for (slot, bv) in sum_row.iter_mut().zip(lanes) {
                    *slot += av * *bv;
                }
            }
        }
        for (i, sum_row) in sums.iter().enumerate() {
            let at = tile.at + (i0 + i) * tile.ldc + half * LANES;
            for (cv, &sum) in c[at..at + cols].iter_mut().zip(sum_row) {
                tile.fold.apply(tile.alpha, cv, sum);
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use super::{Fold, Strip, Tile, LANES, MR};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The AVX2+FMA microkernel: the `R × 16` tile lives in `2R` `__m256`
    /// accumulators (twelve at `R = MR`); each `kk` step broadcasts `R` `A`
    /// scalars, issues two unaligned 256-bit loads — the strip's two halves
    /// of `B` row `kk`, wherever [`Strip`] says they lie — and `2R` FMAs.
    /// FMA contracts `a·b + acc` into one rounding, so this path is *not*
    /// bit-identical to the scalar kernel — equivalence is bounded by
    /// `tests/simd_equivalence.rs` instead. The tile then goes from the
    /// registers into `C` with a separate multiply and add per
    /// [`Fold`] (the `α` multiply skipped at `α = 1`, which is exact); the
    /// halves of a ragged strip's rows through masked loads and stores.
    ///
    /// # Safety
    /// The CPU must support avx2+fma, and `tile` must lie inside `c`:
    /// `tile.cols ≤ NR` and `tile.at + (R − 1)·tile.ldc + tile.cols ≤
    /// c.len()`, as [`super::microkernel`] asserts before every call.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel<const R: usize>(
        a_panel: &[f32],
        b: &Strip<'_>,
        c: &mut [f32],
        tile: Tile,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        let halves = b.base.map(|base| b.data.as_ptr().wrapping_add(base));
        for (a_frag, &row) in a_panel.chunks_exact(MR).zip(b.rows) {
            let a_frag: &[f32; MR] = a_frag.try_into().expect("chunks_exact yields MR values");
            // SAFETY: `Strip::new` asserted `base[h] + row + 8 <= data.len()`
            // for both halves and every `row` of `b.rows`, so each load
            // reads 8 f32 inside `b.data`.
            let (b0, b1) = unsafe {
                (_mm256_loadu_ps(halves[0].add(row)), _mm256_loadu_ps(halves[1].add(row)))
            };
            for (accs, &av) in acc.iter_mut().zip(a_frag) {
                let ai = _mm256_set1_ps(av);
                accs[0] = _mm256_fmadd_ps(ai, b0, accs[0]);
                accs[1] = _mm256_fmadd_ps(ai, b1, accs[1]);
            }
        }
        // How many lanes of each half of a row lie inside the tile.
        let lanes = [tile.cols.min(LANES), tile.cols.saturating_sub(LANES)];
        let alpha = _mm256_set1_ps(tile.alpha);
        for (i, sums) in acc.iter().enumerate() {
            for (h, (&sum, &live)) in sums.iter().zip(&lanes).enumerate() {
                if live == 0 {
                    continue;
                }
                // SAFETY: `live > 0` puts this half's first lane at column
                // `8h < tile.cols`, so the offset lies inside the tile that
                // `super::microkernel` asserted lies inside `c`.
                let dst = unsafe { c.as_mut_ptr().add(tile.at + i * tile.ldc + h * LANES) };
                let prod = if tile.alpha == 1.0 { sum } else { _mm256_mul_ps(alpha, sum) };
                let value = match tile.fold {
                    Fold::Store => prod,
                    // SAFETY (both reads): the `live` lanes at `dst` are the
                    // rest of this half's tile row, inside `c` by the
                    // per-tile assert in `super::microkernel`.
                    Fold::Add => _mm256_add_ps(unsafe { read(dst, live) }, prod),
                    Fold::Blend(beta) => {
                        let old = unsafe { read(dst, live) };
                        _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(beta), old), prod)
                    }
                };
                // SAFETY: as for the reads — the per-tile assert in
                // `super::microkernel` keeps the `live` lanes at `dst` inside
                // `c`.
                unsafe { write(dst, live, value) }
            }
        }
    }

    /// The mask that selects the `live` leading lanes of a vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lane_mask(live: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(live as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// The `live` leading lanes at `dst`, the rest as zero: one plain load
    /// for a whole half, a masked one — touching only those lanes — for a
    /// ragged strip's.
    ///
    /// # Safety
    /// The CPU must support avx2, and the `live ≤ 8` values at `dst` must
    /// lie inside one allocation.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn read(dst: *const f32, live: usize) -> __m256 {
        // SAFETY: the caller guarantees the `live` values the load touches
        // (all eight when `live == LANES`, the masked ones otherwise).
        unsafe {
            if live == LANES {
                _mm256_loadu_ps(dst)
            } else {
                _mm256_maskload_ps(dst, lane_mask(live))
            }
        }
    }

    /// Writes the `live` leading lanes of `value` to `dst`, the way
    /// [`read`] reads them.
    ///
    /// # Safety
    /// As for [`read`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn write(dst: *mut f32, live: usize, value: __m256) {
        // SAFETY: the caller guarantees the `live` values the store touches.
        unsafe {
            if live == LANES {
                _mm256_storeu_ps(dst, value)
            } else {
                _mm256_maskstore_ps(dst, lane_mask(live), value)
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx512 {
    use super::{Fold, Strip, Tile, LANES, MR, NR};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The AVX-512 microkernel: [`super::avx2::microkernel`] over two whole
    /// strips at once, each `B` row of a strip one 512-bit vector, so the
    /// `R × 2·NR` tile lives in `2R` `__m512` accumulators (twelve at
    /// `R = MR`; with two `B` vectors and one `A` broadcast, 15 of the 32
    /// zmm registers). Lanes `0..8` of strip `s`'s vector are its half 0
    /// and lanes `8..16` its half 1, so lane `l` of accumulator `[i][s]`
    /// holds exactly the sum the AVX2 kernel keeps in lane `l mod 8` of its
    /// accumulator `[i][l / 8]` for strip `s`: the same products, one FMA
    /// each, in ascending `k`, from zero. The write-back is the AVX2
    /// kernel's [`Fold`] arithmetic — the `α` multiply skipped at `α = 1`,
    /// then a separate multiply and add with the same operand order — and
    /// needs no mask, because a pair only ever holds whole strips. Every
    /// `C` element therefore carries the AVX2 kernel's bits.
    ///
    /// # Safety
    /// The CPU must support avx512f, and both tiles must lie inside `c`:
    /// `tile.at + (R − 1)·tile.ldc + 2·NR ≤ c.len()`, as
    /// [`super::microkernel2`] asserts before every call.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel2<const R: usize>(
        a_panel: &[f32],
        b: [&Strip<'_>; 2],
        c: &mut [f32],
        tile: Tile,
    ) {
        let acc = if b.iter().all(|strip| strip.base[1] == strip.base[0] + LANES) {
            sums::<R, true>(a_panel, b)
        } else {
            sums::<R, false>(a_panel, b)
        };
        let alpha = _mm512_set1_ps(tile.alpha);
        for (i, row) in acc.iter().enumerate() {
            for (s, &sum) in row.iter().enumerate() {
                // SAFETY: strip `s`'s tile row `i` is the 16 values at
                // `tile.at + i·ldc + s·NR`, inside `c` by the per-pair
                // assert in `super::microkernel2`.
                let dst = unsafe { c.as_mut_ptr().add(tile.at + i * tile.ldc + s * NR) };
                let prod = if tile.alpha == 1.0 { sum } else { _mm512_mul_ps(alpha, sum) };
                let value = match tile.fold {
                    Fold::Store => prod,
                    // SAFETY (both reads): the 16 values at `dst` are this
                    // tile row, inside `c` as above.
                    Fold::Add => _mm512_add_ps(unsafe { _mm512_loadu_ps(dst) }, prod),
                    Fold::Blend(beta) => {
                        let old = unsafe { _mm512_loadu_ps(dst) };
                        _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(beta), old), prod)
                    }
                };
                // SAFETY: as for the reads — the tile row at `dst` lies
                // inside `c`.
                unsafe { _mm512_storeu_ps(dst, value) }
            }
        }
    }

    /// The `R × 2·NR` sums of one pair of strips. `ADJACENT` says both
    /// strips' halves lie 8 lanes apart — a packed strip, a row-major `B`,
    /// a view whose output rows are at least 16 wide — so each row is one
    /// 512-bit load; otherwise (an 8-wide output row splits every strip)
    /// the two 256-bit halves are loaded and joined.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn sums<const R: usize, const ADJACENT: bool>(
        a_panel: &[f32],
        b: [&Strip<'_>; 2],
    ) -> [[__m512; 2]; R] {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        // Loops, not `array::map`: a closure here inherits avx512f, so it
        // cannot be inlined into `map`'s body, and depending on how the
        // crate's codegen units fall it stays an outlined call per
        // microkernel call — a few percent of a small-`k` multiply.
        let mut halves = [[std::ptr::null::<f32>(); 2]; 2];
        for (strip_halves, strip) in halves.iter_mut().zip(b) {
            for (half, base) in strip_halves.iter_mut().zip(strip.base) {
                *half = strip.data.as_ptr().wrapping_add(base);
            }
        }
        let rows = a_panel.chunks_exact(MR).zip(b[0].rows).zip(b[1].rows);
        for ((a_frag, &row0), &row1) in rows {
            let a_frag: &[f32; MR] = a_frag.try_into().expect("chunks_exact yields MR values");
            // SAFETY: `Strip::new` asserted `base[h] + row + 8 <= data.len()`
            // for both halves of each strip and every `row` of its table.
            // Adjacent halves (`base[1] = base[0] + 8`) make that
            // `base[0] + row + 16 <= data.len()`, the 16 values one load
            // reads; split halves are read 8 values each.
            let (b0, b1) = unsafe {
                if ADJACENT {
                    (
                        _mm512_loadu_ps(halves[0][0].add(row0)),
                        _mm512_loadu_ps(halves[1][0].add(row1)),
                    )
                } else {
                    (join(halves[0], row0), join(halves[1], row1))
                }
            };
            for (accs, &av) in acc.iter_mut().zip(a_frag) {
                let ai = _mm512_set1_ps(av);
                accs[0] = _mm512_fmadd_ps(ai, b0, accs[0]);
                accs[1] = _mm512_fmadd_ps(ai, b1, accs[1]);
            }
        }
        acc
    }

    /// The 8 lanes at `halves[0] + row` below the 8 at `halves[1] + row`.
    ///
    /// # Safety
    /// The CPU must support avx512f, and both runs of 8 values must lie
    /// inside one allocation.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn join(halves: [*const f32; 2], row: usize) -> __m512 {
        // SAFETY: the caller guarantees both 8-value runs.
        let (lo, hi) =
            unsafe { (_mm256_loadu_ps(halves[0].add(row)), _mm256_loadu_ps(halves[1].add(row))) };
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(
            _mm512_castps_pd(_mm512_castps256_ps512(lo)),
            _mm256_castps_pd(hi),
        ))
    }
}

/// The left operand of a multiply: packed block by block by the worker that
/// owns those output rows, or all of it packed ahead by [`pack_a_whole`]
/// (a convolution multiplies every sample by the same weights).
#[derive(Clone, Copy)]
enum Lhs<'a> {
    Operand(Operand<'a>),
    Packed(&'a [f32]),
}

/// Packs all of logical `A` (`m × k`): slab `pc` starts at `pc · m_pad`
/// (`m_pad` = `m` rounded up to whole `MR` panels) and holds the panels of
/// rows `0..m` in order, so the panels of the `MC` block at `row0` start
/// `row0 / MR` panels in.
fn pack_a_whole(a: Operand<'_>, m: usize, k: usize) -> AlignedBuf {
    let m_pad = m.div_ceil(MR) * MR;
    let mut packed = PACK_POOL.take_aligned_dirty(m_pad * k);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        pack_a(a, m, 0, m, pc, kc, &mut packed[pc * m_pad..(pc + kc) * m_pad]);
    }
    packed
}

/// A plain row-major `B` is read in place only while at most this many `A`
/// panels sweep each of its strips (`m ≤ 36`). Packing a strip costs about
/// as much as two sweeps of it and buys every later sweep aligned L1 hits
/// whatever the row pitch — a pitch of 1–4 KiB, as in a power-of-two GEMM
/// or a 32×32 feature map, lands a strip's rows in a handful of L1 sets.
/// Measured on `m × 1024 × 256` (4 KiB pitch, one thread, the microkernel
/// writing `C` itself): in place is 1.8× ahead at `m = 8`, 1.4× at 16,
/// 1.2× at 24, 7 % at 32–36, level at 48 and 20–35 % behind from 64; at
/// 256³ it is 20 % behind. Admitting `m = 48` would buy a tie, so the bound
/// stays at six panels.
const IN_PLACE_MAX_PANELS: usize = 6;

impl<'a> Operand<'a> {
    /// Where each of the `k` rows of the `k × n` right operand of an
    /// `m`-row multiply starts, when its rows lie contiguous in memory and
    /// reading them there pays — then the microkernel reads every full
    /// strip where it lies and only a ragged last strip is packed — or
    /// `None` when every strip goes through the packer. A window view's
    /// packer is a gather, dearer than any number of sweeps saves, so a
    /// view that can be read in place always is.
    fn rows_in_place(&self, m: usize, k: usize, n: usize) -> Option<Vec<usize>> {
        match self {
            Operand::Normal(_) if m <= IN_PLACE_MAX_PANELS * MR => {
                Some((0..k).map(|kk| kk * n).collect())
            }
            Operand::Im2col(v) => v.rows_in_place(),
            _ => None,
        }
    }

    /// The storage and the start of the 8 lanes at column `col` of row 0 of
    /// an operand [`Operand::rows_in_place`] returned offsets for.
    fn lanes_in_place(&self, col: usize) -> (&'a [f32], usize) {
        match *self {
            Operand::Normal(data) => (data, col),
            Operand::Im2col(v) => (v.sample, (col / v.out_w) * v.in_w + col % v.out_w),
            _ => unreachable!("only row-contiguous operands are read in place"),
        }
    }
}

/// The packed GEMM driver: `c = alpha * A·B + beta * c` over logical
/// `m × k` and `k × n` operands in whatever storage [`Lhs`] and [`Operand`]
/// describe; `b_rows` is `b.rows_in_place(m, k, n)`, passed in so that a
/// convolution builds the table once for all its samples.
/// BLAS semantics for `beta == 0.0`: `c` is overwritten without being read
/// (so recycled buffers full of garbage — or NaNs — are fine).
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Lhs<'_>,
    b: Operand<'_>,
    b_rows: Option<&[usize]>,
    beta: f32,
    c: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    // Resolve the dispatch path once, on the calling thread (thread-local
    // `with_isa` overrides do not propagate into pool workers), and carry
    // the value into every closure below.
    let isa = active_isa();
    if k == 0 || alpha == 0.0 {
        // No product term: the call degenerates to the beta scaling.
        if beta == 0.0 {
            c.fill(0.0);
        } else if beta != 1.0 {
            parallel_rows_mut(c, n, min_items_per_thread(n), |_, block| {
                for v in block.iter_mut() {
                    *v *= beta;
                }
            });
        }
        return;
    }
    let m_pad = m.div_ceil(MR) * MR;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(NR);
        // Full strips of a row-contiguous B are read where they lie; the
        // rest — every strip of any other operand, the ragged last strip of
        // this one (reading it in place would run past the operand's last
        // row) — are packed.
        let in_place = if b_rows.is_some() { nc / NR } else { 0 };
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let strip_len = kc * NR;
            // Strips are disjoint rows of the packed buffer, so the fan-out
            // is pure data movement. The dirty take skips the pool's zero
            // fill — packing overwrites every lane (padding included).
            // Aligned storage keeps a packed strip's 32-byte loads from
            // straddling cache lines.
            let mut packed_b = if strips > in_place {
                PACK_POOL.take_aligned_dirty((strips - in_place) * strip_len)
            } else {
                AlignedBuf::new()
            };
            parallel_rows_mut(
                packed_b.as_mut_slice(),
                strip_len,
                min_items_per_thread(strip_len),
                |first_strip, block| {
                    for (s_local, strip) in block.chunks_mut(strip_len).enumerate() {
                        let jr = in_place + first_strip + s_local;
                        pack_b_strip(b, k, n, pc, kc, jc, nc, jr, strip);
                    }
                },
            );
            let packed_rows = SlabRows::new(&PACKED_ROWS[..kc]);
            let rows = b_rows.map_or(packed_rows, |rows| SlabRows::new(&rows[pc..pc + kc]));
            let strip_at = |jr: usize| {
                if jr < in_place {
                    let col0 = jc + jr * NR;
                    let ((data, lo), (_, hi)) =
                        (b.lanes_in_place(col0), b.lanes_in_place(col0 + 8));
                    Strip::new(data, [lo, hi], rows)
                } else {
                    let start = (jr - in_place) * strip_len;
                    Strip::new(&packed_b, [start, start + 8], packed_rows)
                }
            };
            // One worker per run of whole MC row blocks; each packs its own
            // A panels (unless they were packed ahead) and owns its C rows
            // outright.
            let min_rows = min_items_per_thread(2 * kc * nc);
            // The first k-slab *stores* `alpha·A·B + beta·c` (never reading
            // `c` when beta == 0, so recycled garbage is fine); later slabs
            // accumulate. This keeps C at 2·⌈k/KC⌉ − 1 passes — exactly
            // what the memsim blocked model charges.
            let fold = Fold::for_slab(pc, beta);
            parallel_row_blocks_mut(c, n, MC, min_rows, |first_row, c_rows| {
                let rows = c_rows.len() / n;
                let mut own_panels = match a {
                    Lhs::Operand(_) => PACK_POOL.take_aligned_dirty(MC.div_ceil(MR) * MR * kc),
                    Lhs::Packed(_) => AlignedBuf::new(),
                };
                let mut r0 = 0;
                while r0 < rows {
                    let mc = MC.min(rows - r0);
                    let panels = mc.div_ceil(MR);
                    let packed_a = match a {
                        Lhs::Operand(a) => {
                            pack_a(a, m, first_row + r0, mc, pc, kc, own_panels.as_mut_slice());
                            own_panels.as_slice()
                        }
                        Lhs::Packed(whole) => &whole[pc * m_pad + (first_row + r0) * kc..],
                    };
                    // A short panel would make the microkernel stop early
                    // (wrong sums, not unsoundness): every panel below is a
                    // `kc·MR` slice, matching the strips' `kc` rows.
                    assert!(packed_a.len() >= panels * kc * MR, "packed A holds kc-deep panels");
                    let mut jr = 0;
                    while jr < strips {
                        let b_strip = strip_at(jr);
                        let col0 = jc + jr * NR;
                        let nr_eff = NR.min(jc + nc - col0);
                        // Under AVX-512 whole strips go two to a call; an
                        // odd or ragged last strip goes alone.
                        let paired = isa == SimdIsa::Avx512 && col0 + 2 * NR <= jc + nc;
                        let next = paired.then(|| strip_at(jr + 1));
                        for ir in 0..panels {
                            let a_panel = &packed_a[ir * kc * MR..(ir + 1) * kc * MR];
                            let at = (r0 + ir * MR) * n + col0;
                            let tile = Tile { at, ldc: n, cols: nr_eff, alpha, fold };
                            let (b, next, c) = (&b_strip, next.as_ref(), &mut *c_rows);
                            match MR.min(mc - ir * MR) {
                                1 => panel_tile::<1>(isa, a_panel, b, next, c, tile),
                                2 => panel_tile::<2>(isa, a_panel, b, next, c, tile),
                                3 => panel_tile::<3>(isa, a_panel, b, next, c, tile),
                                4 => panel_tile::<4>(isa, a_panel, b, next, c, tile),
                                5 => panel_tile::<5>(isa, a_panel, b, next, c, tile),
                                _ => panel_tile::<MR>(isa, a_panel, b, next, c, tile),
                            }
                        }
                        jr += 1 + usize::from(paired);
                    }
                    r0 += mc;
                }
                PACK_POOL.give_aligned(own_panels);
            });
            PACK_POOL.give_aligned(packed_b);
        }
    }
}

/// `gemm_packed` over two plain operands: `A` packed per row block, `B`
/// read in place where its rows allow.
#[allow(clippy::too_many_arguments)]
fn multiply(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand<'_>,
    b: Operand<'_>,
    beta: f32,
    c: &mut [f32],
) {
    let b_rows = b.rows_in_place(m, k, n);
    gemm_packed(m, n, k, alpha, Lhs::Operand(a), b, b_rows.as_deref(), beta, c);
}

/// One convolution call's multiply `c = alpha · A·im2col(sample) + beta · c`,
/// set up once and run per sample: `A` (the weights) is packed into panels
/// ahead, and the row-offset table of a column matrix that is read in place
/// is built once — only the sample changes between runs. The panels go back
/// to the packing pool on drop.
pub(crate) struct Im2colGemm {
    m: usize,
    n: usize,
    k: usize,
    panels: AlignedBuf,
    geometry: Im2colView<'static>,
    b_rows: Option<Vec<usize>>,
}

/// The operand a view is multiplied as: a pointwise view's column matrix is
/// the sample itself.
fn im2col_operand(view: Im2colView<'_>) -> Operand<'_> {
    if view.is_identity() {
        Operand::Normal(view.sample)
    } else {
        Operand::Im2col(view)
    }
}

impl Im2colGemm {
    /// Prepares `A · im2col(·)` for the `m × (C·Kh·Kw)` row-major `a` and
    /// the window geometry of `view` (whose `sample` is not read).
    ///
    /// # Errors
    /// Returns [`KernelError::ShapeMismatch`] when `a` or the view's
    /// geometry is inconsistent.
    pub(crate) fn new(m: usize, a: &[f32], view: &Im2colView<'_>) -> Result<Self> {
        let geometry = Im2colView { sample: &[], ..*view };
        let (k, n) = (view.channels * view.kernel_h * view.kernel_w, view.out_h * view.out_w);
        check_len(a.len(), m, k, "a")?;
        geometry.check_geometry(k, n)?;
        let b_rows = im2col_operand(geometry).rows_in_place(m, k, n);
        Ok(Im2colGemm { m, n, k, panels: pack_a_whole(Operand::Normal(a), m, k), geometry, b_rows })
    }

    /// `c = alpha · A·im2col(sample) + beta · c`.
    ///
    /// # Errors
    /// Returns [`KernelError::ShapeMismatch`] when `sample` or `c` does not
    /// have the extent the geometry states.
    pub(crate) fn run(&self, sample: &[f32], alpha: f32, beta: f32, c: &mut [f32]) -> Result<()> {
        let view = Im2colView { sample, ..self.geometry };
        check_len(sample.len(), view.channels, view.in_h * view.in_w, "im2col sample")?;
        check_len(c.len(), self.m, self.n, "c")?;
        let (a, b) = (Lhs::Packed(&self.panels), im2col_operand(view));
        gemm_packed(self.m, self.n, self.k, alpha, a, b, self.b_rows.as_deref(), beta, c);
        Ok(())
    }
}

impl Drop for Im2colGemm {
    fn drop(&mut self) {
        PACK_POOL.give_aligned(std::mem::take(&mut self.panels));
    }
}

fn check_len(len: usize, rows: usize, cols: usize, name: &str) -> Result<()> {
    if len != rows * cols {
        return Err(KernelError::ShapeMismatch(format!(
            "{name} has {len} elements, expected {rows}x{cols}"
        )));
    }
    Ok(())
}

/// `c = alpha * a·b + beta * c` where `a` is `m×k`, `b` is `k×n` and `c` is
/// `m×n`, all row-major. `beta == 0.0` overwrites `c` without reading it.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when the slice lengths do not
/// match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(b.len(), k, n, "b")?;
    check_len(c.len(), m, n, "c")?;
    multiply(m, n, k, alpha, Operand::Normal(a), Operand::Normal(b), beta, c);
    Ok(())
}

/// `c = a·bᵀ` where `a` is `m×k` and `b` is `n×k` (`c` is overwritten).
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when slice lengths do not match.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(b.len(), n, k, "b")?;
    check_len(c.len(), m, n, "c")?;
    multiply(m, n, k, 1.0, Operand::Normal(a), Operand::Transposed(b), 0.0, c);
    Ok(())
}

/// `c = aᵀ·b` where `a` is `k×m` and `b` is `k×n` (`c` is overwritten).
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when slice lengths do not match.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<()> {
    check_len(a.len(), k, m, "a")?;
    check_len(b.len(), k, n, "b")?;
    check_len(c.len(), m, n, "c")?;
    multiply(m, n, k, 1.0, Operand::Transposed(a), Operand::Normal(b), 0.0, c);
    Ok(())
}

/// `c = alpha * a·B + beta * c` where `a` is `m×k` row-major and `B` is the
/// `k×n` im2col column matrix described by an [`Im2colView`] — read in
/// place or gathered during packing, never materialized. Bit-identical to
/// materializing the column matrix and calling [`gemm`]: the microkernel
/// consumes bitwise equal values in the same accumulation order. A
/// pointwise view's column matrix is the sample itself.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when the slice lengths or the
/// view's geometry do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_im2col(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: Im2colView<'_>,
    beta: f32,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(c.len(), m, n, "c")?;
    b.check(k, n)?;
    Im2colGemm::new(m, a, &b)?.run(b.sample, alpha, beta, c)
}

/// `c += a·Bᵀ` where `a` is `m×k` row-major and `B` is the `n×k` im2col
/// column matrix described by an [`Im2colView`]: the weight-gradient GEMM
/// `d_W += d_out · colᵀ`, accumulating into `c` so a run of samples sums
/// inside the multiply.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when the slice lengths or the
/// view's geometry do not match the given dimensions.
pub(crate) fn gemm_nt_im2col_acc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Im2colView<'_>,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(c.len(), m, n, "c")?;
    b.check(n, k)?;
    let b = if b.is_identity() { Operand::Transposed(b.sample) } else { Operand::Im2colT(b) };
    multiply(m, n, k, 1.0, Operand::Normal(a), b, 1.0, c);
    Ok(())
}

/// The pre-blocking implementation: row blocks stream `b` straight from the
/// source matrix with a [`STREAM_TILE`]-edge loop tiling and no packing.
/// Kept (unchanged) as the independent reference the tests compare the
/// packed engine against.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when the slice lengths do not
/// match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_streaming(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(b.len(), k, n, "b")?;
    check_len(c.len(), m, n, "c")?;
    parallel_rows_mut(c, n, min_items_per_thread(n.saturating_mul(k)), |first_row, c_block| {
        if beta != 1.0 {
            for v in c_block.iter_mut() {
                *v *= beta;
            }
        }
        let rows = c_block.len() / n;
        for i0 in (0..rows).step_by(STREAM_TILE) {
            let i_max = (i0 + STREAM_TILE).min(rows);
            for k0 in (0..k).step_by(STREAM_TILE) {
                let k_max = (k0 + STREAM_TILE).min(k);
                for j0 in (0..n).step_by(STREAM_TILE) {
                    let j_max = (j0 + STREAM_TILE).min(n);
                    for i in i0..i_max {
                        for kk in k0..k_max {
                            let aik = alpha * a[(first_row + i) * k + kk];
                            if aik == 0.0 {
                                continue;
                            }
                            let brow = &b[kk * n + j0..kk * n + j_max];
                            let crow = &mut c_block[i * n + j0..i * n + j_max];
                            for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                                *cv += aik * *bv;
                            }
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::{col_shape, im2col};
    use bnff_graph::op::Conv2dAttrs;
    use bnff_tensor::simd::with_isa;
    use bnff_tensor::{Shape, Tensor};

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    /// The exported blocking constants are a public contract: `bnff-memsim`
    /// imports `KC`/`NC`/`STREAM_TILE` to model the engines' DRAM traffic,
    /// and the packed core assumes the relations below. Locking them here
    /// means a future retune cannot silently break either consumer.
    #[test]
    fn blocking_constants_hold_their_invariants() {
        // The AVX2 microkernel loads B in aligned 8-lane vectors and the MC
        // grid splits on whole microtile rows.
        assert_eq!(NR % 8, 0, "NR must be a whole number of 8-float lanes");
        assert_eq!(MC % MR, 0, "the MC row grid must split on MR microtiles");
        // Slabs nest: a KC×NR strip inside a KC×NC slab.
        assert_eq!(NC % NR, 0, "packed B slabs must hold whole NR strips");
        // Every packed B strip starts 32-byte aligned within an aligned
        // buffer: kc·NR f32 is a whole number of 32-byte lanes for any kc.
        assert_eq!((NR * std::mem::size_of::<f32>()) % 32, 0);
        // The streaming model's tile must stay meaningful: nonzero, and no
        // larger than the cache-blocked panel height it predates.
        const { assert!(STREAM_TILE > 0 && STREAM_TILE <= MC) };
    }

    #[test]
    fn matches_naive_small() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut c = vec![0.0; 4];
        gemm(2, 2, 3, 1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_eq!(c, naive(2, 2, 3, &a, &b));
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_across_blocking_edges() {
        // Sizes straddling MR/NR, MC, KC and (via columns) several strips.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (MR - 1, NR - 1, 3),
            (MR + 1, NR + 1, KC + 7),
            (MC + 5, 2 * NR + 3, 50),
            (70, 65, 50),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c).unwrap();
            let reference = naive(m, n, k, &a, &b);
            for (x, y) in c.iter().zip(reference.iter()) {
                assert!((x - y).abs() < 1e-2, "{m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn alpha_beta_scaling() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity 2x2
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![1.0, 1.0, 1.0, 1.0];
        gemm(2, 2, 2, 2.0, &a, &b, 0.5, &mut c).unwrap();
        assert_eq!(c, vec![4.5, 6.5, 8.5, 10.5]);
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![f32::NAN; 4];
        gemm(2, 2, 2, 1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_eq!(c, b);
    }

    /// Each `KC` slab's bare product `A[:, slab]·B[slab, :]` — `α = 1`,
    /// `β = 0`: the microkernel's sums, written unscaled.
    fn slab_products(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<Vec<f32>> {
        (0..k)
            .step_by(KC)
            .map(|pc| {
                let kc = KC.min(k - pc);
                let a_slab: Vec<f32> =
                    a.chunks_exact(k).flat_map(|row| &row[pc..pc + kc]).copied().collect();
                let mut product = vec![f32::NAN; m * n];
                gemm(m, n, kc, 1.0, &a_slab, &b[pc * n..(pc + kc) * n], 0.0, &mut product).unwrap();
                product
            })
            .collect()
    }

    /// The microkernel multiplies only the `R` rows of a ragged last panel
    /// and writes `C` itself. Every row of an `m`-row product must carry
    /// the bits the same row gets inside whole panels (the same `A` with
    /// extra rows up to a multiple of `MR`), and those must be the slabs'
    /// bare products folded element by element as the write-back contract
    /// says — a separate multiply and add per arm — for every `R`, ragged
    /// strips (`n = 40` leaves a whole 8-lane half, `21` and `45` a masked
    /// one in either half), one `k`-slab and two, and each `(α, β)` arm
    /// (`(0.7, 1.3)` because a power-of-two `β` scales `c` exactly and
    /// would hide a fused multiply-add). `β = 0` must never read the NaNs
    /// it overwrites.
    #[test]
    fn ragged_panels_and_strips_match_whole_panels_bit_for_bit() {
        // Inexact values, so that any change of rounding shows in the bits.
        let value = |i: usize, salt: usize| (((i * 37 + salt) % 29) as f32 - 14.0) * 0.0371;
        let shapes = [16usize, 21, 40, 45, 1024].into_iter().flat_map(|n| [(n, 16), (n, 288)]);
        for isa in crate::dispatch::test_isas() {
            with_isa(isa, || {
                for (n, k) in shapes.clone() {
                    let b: Vec<f32> = (0..k * n).map(|i| value(i, 3)).collect();
                    for m in 1..=13usize {
                        let m_pad = m.div_ceil(MR) * MR;
                        let a: Vec<f32> = (0..m_pad * k).map(|i| value(i, 11)).collect();
                        let slabs = slab_products(m_pad, n, k, &a, &b);
                        for (alpha, beta) in
                            [(1.0f32, 0.0f32), (1.0, 1.0), (1.5, 2.0), (2.0, 0.5), (0.7, 1.3)]
                        {
                            let label = format!("{isa:?} {m}x{n}x{k} α {alpha} β {beta}");
                            let c0: Vec<f32> = (0..m_pad * n)
                                .map(|i| if beta == 0.0 { f32::NAN } else { value(i, 5) })
                                .collect();
                            let mut want = c0.clone();
                            for (slab, product) in slabs.iter().enumerate() {
                                for (c, &p) in want.iter_mut().zip(product) {
                                    *c = match (slab, beta) {
                                        (0, 0.0) => alpha * p,
                                        (0, 1.0) | (1.., _) => *c + alpha * p,
                                        _ => beta * *c + alpha * p,
                                    };
                                }
                            }
                            let mut whole = c0.clone();
                            gemm(m_pad, n, k, alpha, &a, &b, beta, &mut whole).unwrap();
                            assert_eq!(bits(&whole), bits(&want), "{label}: whole panels");
                            let mut ragged = c0[..m * n].to_vec();
                            gemm(m, n, k, alpha, &a[..m * k], &b, beta, &mut ragged).unwrap();
                            assert_eq!(bits(&ragged), bits(&whole[..m * n]), "{label}");
                            assert!(ragged.iter().all(|v| !v.is_nan()), "{label} read C");
                        }
                    }
                }
            });
        }
    }

    /// The AVX-512 tier multiplies whole strips two at a time in 512-bit
    /// registers; every element must carry the bits the AVX2 kernel gives
    /// it. `n = 16` is one lone strip, 32 one pair, 48 a pair and a lone
    /// strip, 21 and 45 end in a ragged strip, 1024 is 32 pairs; `k = 288`
    /// takes a second `k`-slab. The strips are read in place (a row-major
    /// `B` under few panels, halves adjacent), packed (a transposed `B`),
    /// and read from windows whose 8-wide output rows split every strip's
    /// halves (`out_w = 8`) or keep them adjacent (`out_w ∈ {16, 32}`).
    #[test]
    fn avx512_tier_matches_avx2_bit_for_bit() {
        if with_isa(SimdIsa::Avx512, active_isa) != SimdIsa::Avx512 {
            eprintln!("skipping the AVX-512 tier check: this host lacks avx512f");
            return;
        }
        let value = |i: usize, salt: usize| (((i * 37 + salt) % 29) as f32 - 14.0) * 0.0371;
        let blends = [(1.0f32, 0.0f32), (1.0, 1.0), (1.5, 2.0), (2.0, 0.5), (0.7, 1.3)];
        let both = |label: &str, beta: f32, run: &dyn Fn() -> Vec<f32>| {
            let want = with_isa(SimdIsa::Avx2Fma, run);
            let got = with_isa(SimdIsa::Avx512, run);
            assert_eq!(bits(&got), bits(&want), "{label}");
            if beta == 0.0 {
                assert!(got.iter().all(|v| !v.is_nan()), "{label} read C");
            }
        };
        for n in [16usize, 21, 32, 45, 48, 1024] {
            for k in [16usize, 288] {
                let b: Vec<f32> = (0..k * n).map(|i| value(i, 3)).collect();
                let b_t: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
                for m in 1..=13usize {
                    let a: Vec<f32> = (0..m * k).map(|i| value(i, 11)).collect();
                    for (alpha, beta) in blends {
                        let c0: Vec<f32> = (0..m * n)
                            .map(|i| if beta == 0.0 { f32::NAN } else { value(i, 5) })
                            .collect();
                        both(&format!("{m}x{n}x{k} α {alpha} β {beta}"), beta, &|| {
                            let mut c = c0.clone();
                            gemm(m, n, k, alpha, &a, &b, beta, &mut c).unwrap();
                            c
                        });
                    }
                    both(&format!("packed {m}x{n}x{k}"), 0.0, &|| {
                        let mut c = vec![f32::NAN; m * n];
                        gemm_nt(m, n, k, &a, &b_t, &mut c).unwrap();
                        c
                    });
                }
            }
        }
        for (channels, out_h, out_w) in
            [(4usize, 6usize, 8usize), (32, 5, 8), (4, 3, 16), (32, 2, 32)]
        {
            let (in_h, in_w) = (out_h + 2, out_w + 2);
            let sample: Vec<f32> = (0..channels * in_h * in_w).map(|i| value(i, 7)).collect();
            let view = Im2colView {
                sample: &sample,
                channels,
                in_h,
                in_w,
                kernel_h: 3,
                kernel_w: 3,
                stride: 1,
                out_h,
                out_w,
            };
            assert!(view.reads_in_place());
            let (k, n) = (channels * 9, out_h * out_w);
            for m in [1usize, 5, 8, 13] {
                let a: Vec<f32> = (0..m * k).map(|i| value(i, 13)).collect();
                for (alpha, beta) in blends {
                    let c0: Vec<f32> = (0..m * n)
                        .map(|i| if beta == 0.0 { f32::NAN } else { value(i, 17) })
                        .collect();
                    let label = format!("im2col {channels}x{in_h}x{in_w} m {m} α {alpha} β {beta}");
                    both(&label, beta, &|| {
                        let mut c = c0.clone();
                        gemm_im2col(m, n, k, alpha, &a, view, beta, &mut c).unwrap();
                        c
                    });
                }
            }
        }
    }

    #[test]
    fn k_zero_only_scales() {
        let mut c = vec![2.0, 4.0];
        gemm(1, 2, 0, 1.0, &[], &[], 0.5, &mut c).unwrap();
        assert_eq!(c, vec![1.0, 2.0]);
        gemm_nt(1, 2, 0, &[], &[], &mut c).unwrap();
        assert_eq!(c, vec![0.0, 0.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        assert!(gemm(2, 2, 3, 1.0, &a, &b, 0.0, &mut c).is_err());
        assert!(gemm_streaming(2, 2, 3, 1.0, &a, &b, 0.0, &mut c).is_err());
    }

    #[test]
    fn transposed_variants() {
        // a: 2x3, b: 3x2; compute a·b via gemm_nt with b transposed (2x3).
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let bt = vec![7.0, 9.0, 11.0, 8.0, 10.0, 12.0]; // (3x2)^T = 2x3
        let mut c = vec![0.0; 4];
        gemm_nt(2, 2, 3, &a, &bt, &mut c).unwrap();
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);

        // aᵀ·b where a is 3x2 (so aᵀ is 2x3).
        let a_t_input = vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // 3x2 storing aᵀ
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut c2 = vec![0.0; 4];
        gemm_tn(2, 2, 3, &a_t_input, &b, &mut c2).unwrap();
        assert_eq!(c2, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_cross_blocking_edges() {
        let (m, n, k) = (MC + 3, NR * 3 + 2, KC + 5);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
        let reference = naive(m, n, k, &a, &b);

        // b stored transposed (n × k).
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut c).unwrap();
        for (x, y) in c.iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-2, "nt: {x} vs {y}");
        }

        // a stored transposed (k × m).
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c2 = vec![0.0; m * n];
        gemm_tn(m, n, k, &at, &b, &mut c2).unwrap();
        for (x, y) in c2.iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-2, "tn: {x} vs {y}");
        }
    }

    #[test]
    fn streaming_reference_matches_packed() {
        let (m, n, k) = (37, 53, 29);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.125).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 23 % 19) as f32 - 9.0) * 0.25).collect();
        let mut packed = vec![0.25; m * n];
        let mut streamed = vec![0.25; m * n];
        gemm(m, n, k, 1.5, &a, &b, 2.0, &mut packed).unwrap();
        gemm_streaming(m, n, k, 1.5, &a, &b, 2.0, &mut streamed).unwrap();
        for (x, y) in packed.iter().zip(streamed.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Sample 0 of `x` the way [`crate::conv`] hands a padded sample to the
    /// GEMM — every plane inside a zero border of `attrs.pad` rows and
    /// columns — with the geometry of `attrs`' windows over that copy (the
    /// caller points `sample` at it).
    fn bordered(x: &Tensor, attrs: &Conv2dAttrs) -> (Vec<f32>, Im2colView<'static>) {
        let (c, h, w, pad) = (x.shape().c(), x.shape().h(), x.shape().w(), attrs.pad);
        let (rows, cols) = (h + 2 * pad, w + 2 * pad);
        let mut staged = vec![0.0f32; c * rows * cols];
        for (p, plane) in x.as_slice()[..c * h * w].chunks_exact(h * w).enumerate() {
            for (r, row) in plane.chunks_exact(w).enumerate() {
                let at = (p * rows + pad + r) * cols + pad;
                staged[at..at + w].copy_from_slice(row);
            }
        }
        let geometry = Im2colView {
            sample: &[],
            channels: c,
            in_h: rows,
            in_w: cols,
            kernel_h: attrs.kernel_h,
            kernel_w: attrs.kernel_w,
            stride: attrs.stride,
            out_h: (rows - attrs.kernel_h) / attrs.stride + 1,
            out_w: (cols - attrs.kernel_w) / attrs.stride + 1,
        };
        (staged, geometry)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gemm_im2col_is_bit_identical_to_materialized() {
        // The element-wise `im2col` is the oracle, and it pads by clipping:
        // multiplying by the matrix it writes and reading the bordered
        // sample through the view — in place or through the packer, as the
        // geometry decides — must feed the microkernel bitwise-equal
        // operands, for the column matrix and its transpose, on each ISA.
        for isa in crate::dispatch::test_isas() {
            with_isa(isa, || {
                for (in_c, in_h, in_w, attrs) in crate::im2col::test_geometries() {
                    let label = format!("{isa:?} c{in_c} {in_h}x{in_w} {attrs:?}");
                    let x = Tensor::from_vec(
                        Shape::nchw(1, in_c, in_h, in_w),
                        (0..in_c * in_h * in_w)
                            .map(|i| ((i * 31 % 23) as f32 - 11.0) * 0.37)
                            .collect(),
                    )
                    .unwrap();
                    let col = im2col(&x, 0, &attrs).unwrap();
                    let (k, n) = col_shape(x.shape(), &attrs).unwrap();
                    let m = attrs.out_channels;
                    let (staged, geometry) = bordered(&x, &attrs);
                    let view = Im2colView { sample: &staged, ..geometry };

                    let a: Vec<f32> =
                        (0..m * k).map(|i| ((i * 29 % 17) as f32 - 8.0) * 0.21).collect();
                    let mut expected = vec![0.0f32; m * n];
                    gemm(m, n, k, 1.0, &a, &col, 0.0, &mut expected).unwrap();
                    let mut fused = vec![f32::NAN; m * n];
                    gemm_im2col(m, n, k, 1.0, &a, view, 0.0, &mut fused).unwrap();
                    assert_eq!(bits(&fused), bits(&expected), "{label}");

                    // a · colᵀ, accumulated into zeros: equal values (the
                    // `0 + x` of the accumulate can only turn a −0.0 into
                    // +0.0).
                    let a_t: Vec<f32> =
                        (0..m * n).map(|i| ((i * 23 % 19) as f32 - 9.0) * 0.17).collect();
                    let mut expected_t = vec![0.0f32; m * k];
                    gemm_nt(m, k, n, &a_t, &col, &mut expected_t).unwrap();
                    let mut fused_t = vec![0.0f32; m * k];
                    gemm_nt_im2col_acc(m, k, n, &a_t, view, &mut fused_t).unwrap();
                    assert_eq!(fused_t, expected_t, "transposed {label}");
                }
            });
        }
    }

    #[test]
    fn gemm_im2col_rejects_inconsistent_views() {
        // A `same` 3×3 over 3×4×4, staged in its one-deep border.
        let attrs = Conv2dAttrs::same_3x3(2);
        let x = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        let (staged, geometry) = bordered(&x, &attrs);
        let view = Im2colView { sample: &staged, ..geometry };
        let a = vec![0.0f32; 2 * 27];
        let mut c = vec![0.0f32; 2 * 16];
        assert!(gemm_im2col(2, 16, 27, 1.0, &a, view, 0.0, &mut c).is_ok());
        // k disagrees with the view's row count.
        assert!(gemm_im2col(2, 16, 26, 1.0, &a[..52], view, 0.0, &mut c).is_err());
        // Sample shorter than C·H·W.
        let short = Im2colView { sample: &staged[..staged.len() - 1], ..view };
        assert!(gemm_im2col(2, 16, 27, 1.0, &a, short, 0.0, &mut c).is_err());
        // A zero stride has no column matrix.
        let stuck = Im2colView { stride: 0, ..view };
        assert!(gemm_im2col(2, 16, 27, 1.0, &a, stuck, 0.0, &mut c).is_err());
        // The same windows over the sample without its border: a view has
        // no padding, so 4×4 outputs of a 3×3 over 4×4 do not exist.
        let bare = Im2colView { sample: x.as_slice(), in_h: 4, in_w: 4, ..view };
        assert!(gemm_im2col(2, 16, 27, 1.0, &a, bare, 0.0, &mut c).is_err());
        assert!(gemm_nt_im2col_acc(2, 27, 16, &c, bare, &mut vec![0.0f32; 2 * 27]).is_err());
    }

    /// The in-place reads index the sample by the view's fields alone, so a
    /// view whose extents do not follow from its own window geometry must
    /// be turned away — the `rows`/`cols` products agreeing is not enough.
    #[test]
    fn gemm_im2col_rejects_malformed_geometry() {
        let sample = vec![1.0f32; 2 * 6 * 8];
        // A valid 3×3 over 2×6×8: 4×6 outputs, read in place.
        let view = Im2colView {
            sample: &sample,
            channels: 2,
            in_h: 6,
            in_w: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            out_h: 4,
            out_w: 6,
        };
        let a = vec![0.5f32; 3 * 2 * 49];
        let mut c = vec![0.0f32; 3 * 64];
        assert!(gemm_im2col(3, 24, 18, 1.0, &a[..54], view, 0.0, &mut c[..72]).is_ok());
        let mismatch = |view: Im2colView<'_>, n: usize, k: usize, c: &mut [f32]| {
            let result = gemm_im2col(3, n, k, 1.0, &a[..3 * k], view, 0.0, &mut c[..3 * n]);
            matches!(result, Err(KernelError::ShapeMismatch(_)))
        };
        // The right `out_h·out_w`, the wrong `out_w`: 3×8 instead of 4×6.
        assert!(mismatch(Im2colView { out_h: 3, out_w: 8, ..view }, 24, 18, &mut c));
        // An output larger than the windows that fit: 8×8 from a 6×8 input.
        assert!(mismatch(Im2colView { out_h: 8, out_w: 8, ..view }, 64, 18, &mut c));
        // A filter larger than the padded input.
        let wide = Im2colView { kernel_h: 7, kernel_w: 7, out_h: 1, out_w: 2, ..view };
        assert!(mismatch(wide, 2, 98, &mut c));
    }

    /// A plain `B` is read in place while few panels sweep it; a transposed
    /// one never is. (That the in-place path then takes no `B` slab from the
    /// pool is pinned in `tests/pack_pool.rs`, which has the pool to itself.)
    #[test]
    fn in_place_rule_follows_the_shape() {
        let data = vec![0.0f32; 64 * 64];
        let rows = |m, k, n| Operand::Normal(&data[..k * n]).rows_in_place(m, k, n);
        assert_eq!(rows(8, 3, 16), Some(vec![0, 16, 32]));
        assert!(rows(IN_PLACE_MAX_PANELS * MR, 4, 16).is_some());
        assert!(rows(IN_PLACE_MAX_PANELS * MR + 1, 4, 16).is_none(), "many sweeps: pack");
        assert!(Operand::Transposed(&data).rows_in_place(8, 4, 16).is_none());
    }

    #[test]
    fn pack_pool_is_reused_across_calls() {
        let a = vec![1.0f32; 16 * 16];
        let b = vec![1.0f32; 16 * 16];
        let mut c = vec![0.0f32; 16 * 16];
        gemm(16, 16, 16, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let (_, takes_before) = pack_pool_reuse();
        gemm(16, 16, 16, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let (hits_after, takes_after) = pack_pool_reuse();
        assert!(takes_after > takes_before);
        assert!(hits_after > 0, "second identical GEMM must reuse pack buffers");
    }
}
