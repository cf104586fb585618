//! Per-shape convolution timings: for each distinct convolution of
//! `densenet_cifar(batch, 8, 2, 10)` — the model the benchmark trains — the
//! forward pass, the weight gradient and the input gradient, each as the
//! median of 9 runs on one thread, in ms and GFLOP/s. A second table does
//! the same for `resnet_cifar(batch, 1, 10)`, the other model this
//! repository trains (its stride-1 3×3 rows read their windows in place,
//! its stride-2 rows do not). A third covers six strided or ragged-width
//! shapes no benchmark workload runs (ResNet-style downsampling and
//! 28²/14²/7² maps, a 7×7 stem) — the ones whose windows the GEMM's packer
//! expands. A fourth times the step's streaming passes at the DenseNet
//! shapes of the same batch — 2×2/2 average pooling forward and backward
//! over 16×32² maps, one- and two-pass BN statistics, the normalize sweep
//! and the recomputing BN backward over 32×32² — in ms and GB/s (the bytes
//! each pass reads and writes, over its time). Each table's header names
//! the SIMD dispatch tier it ran on (`isa <name>`) and where its operands
//! lie (`address mod 64`: malloc placement alone can move a row by
//! 15–30 %), and each table ends with one line `bits <hex>`: a digest of
//! the bits of every result of every one of its rows — which depend on that
//! tier. These are the tables
//! convolution work is sized and checked with; they read the public model
//! builders and kernel entry points only, so the file runs unchanged against
//! any commit, and equal digests on two commits mean equal results.
//!
//! Run with `cargo run --release --example conv_shapes -- --batch 64`.

use bnff::graph::op::{Conv2dAttrs, OpKind, PoolAttrs};
use bnff::graph::Graph;
use bnff::kernels::batchnorm::{
    bn_statistics, norm_backward_inplace, normalize_sweep_into, BnParams,
};
use bnff::kernels::conv::{
    conv2d_backward_input, conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward,
    conv2d_forward_into,
};
use bnff::kernels::dispatch::active_isa;
use bnff::kernels::pool::{avg_pool_backward_into, avg_pool_forward_into};
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use std::hint::black_box;
use std::time::Instant;

const RUNS: usize = 9;

/// Where every table's digest starts: the FNV-1a offset basis.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Median wall time of `RUNS` calls of `f`, in milliseconds, after one
/// untimed call that fills the packing pools.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[RUNS / 2]
}

/// FNV-1a over the bit patterns of `values`, continuing from `digest`.
fn fold_bits(digest: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(digest, |hash, byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Where `t`'s data starts, modulo one 64-byte cache line.
fn line_offset(t: &Tensor) -> usize {
    t.as_slice().as_ptr() as usize % 64
}

/// The table's title with the ISA it runs on, then the column names; each
/// row ends with where its input and output gradient lie (`address mod 64`).
fn print_header(title: &str) {
    println!("{title}, isa {}", active_isa());
    println!(
        "{:>22} {:>3} {:>2}  {:>16}  {:>16}  {:>16}  x,g mod 64",
        "input -> out k", "s/p", "x", "forward", "weight grad", "input grad"
    );
}

/// Times the three passes of one convolution on one thread, prints its row
/// and returns the three medians in ms; the bits of the three results
/// (output, `d_W`, and `d_x` onto zeros) are folded into `digest`.
fn measure(
    input: &Shape,
    attrs: &Conv2dAttrs,
    count: usize,
    digest: &mut u64,
) -> Result<[f64; 3], Box<dyn std::error::Error>> {
    let mut init = Initializer::seeded(7);
    let x = init.uniform(input.clone(), -1.0, 1.0);
    let w = init.uniform(
        Shape::nchw(attrs.out_channels, input.c(), attrs.kernel_h, attrs.kernel_w),
        -1.0,
        1.0,
    );
    let mut out = conv2d_forward(&x, &w, None, attrs)?;
    let d_out = init.uniform(out.shape().clone(), -1.0, 1.0);
    let mut d_x = Tensor::zeros(input.clone());
    let gflop =
        2.0 * (out.shape().volume() * input.c() * attrs.kernel_h * attrs.kernel_w) as f64 / 1e9;
    let ms = with_threads(1, || {
        [
            median_ms(|| {
                conv2d_forward_into(black_box(&x), &w, None, attrs, &mut out)
                    .expect("forward shapes agree");
            }),
            median_ms(|| {
                black_box(
                    conv2d_backward_weights(black_box(&x), &d_out, attrs, false)
                        .expect("weight-gradient shapes agree"),
                );
            }),
            median_ms(|| {
                conv2d_backward_input_into(black_box(&d_out), &w, attrs, &mut d_x)
                    .expect("input-gradient shapes agree");
            }),
        ]
    });
    black_box(&d_x);
    let (d_w, _) = conv2d_backward_weights(&x, &d_out, attrs, false)?;
    let d_x = conv2d_backward_input(&d_out, &w, input, attrs)?;
    for result in [&out, &d_w, &d_x] {
        *digest = fold_bits(*digest, result.as_slice());
    }
    let cell = |ms: f64| format!("{ms:7.3} ms {:5.1}", gflop / ms * 1e3);
    println!(
        "{:>3}x{:<2}x{:<2} -> {:>3} {}x{} {:>3} {:>2}  {}  {}  {}  {:>2},{:>2}",
        input.c(),
        input.h(),
        input.w(),
        attrs.out_channels,
        attrs.kernel_h,
        attrs.kernel_w,
        format!("{}/{}", attrs.stride, attrs.pad),
        count,
        cell(ms[0]),
        cell(ms[1]),
        cell(ms[2]),
        line_offset(&x),
        line_offset(&d_out),
    );
    Ok(ms)
}

/// One row per distinct convolution of `graph`, the three passes summed
/// over all its convolution layers, and the digest of every row's results.
fn model_table(name: &str, graph: &Graph) -> Result<(), Box<dyn std::error::Error>> {
    // Distinct (input shape, attributes) in graph order, with how many
    // layers share each.
    let mut shapes: Vec<(Shape, Conv2dAttrs, usize)> = Vec::new();
    for node in graph.nodes() {
        if let OpKind::Conv2d(attrs) = node.op {
            let input = &graph.node(node.inputs[0])?.output_shape;
            match shapes.iter_mut().find(|(shape, a, _)| shape == input && *a == attrs) {
                Some(known) => known.2 += 1,
                None => shapes.push((input.clone(), attrs, 1)),
            }
        }
    }
    print_header(&format!(
        "{name}: {} distinct convolutions, one thread, median of {RUNS}",
        shapes.len()
    ));
    let mut total = [0.0f64; 3];
    let mut digest = DIGEST_SEED;
    for (input, attrs, count) in shapes {
        let ms = measure(&input, &attrs, count, &mut digest)?;
        for (sum, ms) in total.iter_mut().zip(ms) {
            *sum += ms * count as f64;
        }
    }
    println!(
        "all layers (ms x layer count): forward {:.1} ms, weight grad {:.1} ms, input grad {:.1} ms",
        total[0], total[1], total[2]
    );
    println!("bits {digest:016x}");
    Ok(())
}

/// The streaming passes of the DenseNet step at `batch`, one thread: each
/// row the median time of one pass and the bytes it reads and writes over
/// that time, then the digest of every result.
fn streaming_table(batch: usize) -> Result<(), Box<dyn std::error::Error>> {
    const EPSILON: f32 = 1e-5;
    let mut init = Initializer::seeded(11);
    let pool_in = init.uniform(Shape::nchw(batch, 16, 32, 32), -1.0, 1.0);
    let pool_attrs = PoolAttrs::new(2, 2, 0);
    let mut pooled = Tensor::zeros(Shape::nchw(batch, 16, 16, 16));
    let pool_grad = init.uniform(pooled.shape().clone(), -1.0, 1.0);
    let mut pool_dx = Tensor::zeros(pool_in.shape().clone());
    let x = init.uniform(Shape::nchw(batch, 32, 32, 32), -1.0, 1.0);
    let grad = init.uniform(x.shape().clone(), -1.0, 1.0);
    let stats = bn_statistics(&x, true)?;
    // γ = σ makes the backward's scale 1, so the repeated in-place runs
    // keep the gradient's magnitude.
    let gamma = stats.var.iter().map(|v| (v + EPSILON).sqrt()).collect();
    let params = BnParams::new(gamma, (0..32).map(|c| c as f32 * 0.01 - 0.1).collect())?;
    let mut y = Tensor::zeros(x.shape().clone());
    let mut g = grad.clone();
    println!(
        "streaming passes at batch {batch}, one thread, median of {RUNS}, isa {}",
        active_isa()
    );
    println!(
        "address mod 64: pool x {}, y {}, dy {}, dx {}; bn x {}, y {}, g {}",
        line_offset(&pool_in),
        line_offset(&pooled),
        line_offset(&pool_grad),
        line_offset(&pool_dx),
        line_offset(&x),
        line_offset(&y),
        line_offset(&g),
    );
    let (big, small, bn) =
        ((pool_in.len() * 4) as f64, (pooled.len() * 4) as f64, (x.len() * 4) as f64);
    let row = |name: &str, bytes: f64, ms: f64| {
        println!("{name:>40}  {ms:7.3} ms {:6.1} GB/s", bytes / ms / 1e6);
    };
    with_threads(1, || {
        let ms = median_ms(|| {
            avg_pool_forward_into(black_box(&pool_in), &pool_attrs, &mut pooled)
                .expect("pooling shapes agree");
        });
        row("avg pool 2x2/2 forward 16x32x32", big + small, ms);
        let ms = median_ms(|| {
            avg_pool_backward_into(black_box(&pool_grad), &pool_attrs, &mut pool_dx)
                .expect("pooling shapes agree");
        });
        row("avg pool 2x2/2 backward 16x32x32", small + big, ms);
        for (name, one_pass, sweeps) in [("one-pass", true, 1.0), ("two-pass", false, 2.0)] {
            let ms = median_ms(|| {
                black_box(bn_statistics(black_box(&x), one_pass).expect("statistics shapes agree"));
            });
            row(&format!("bn_statistics {name} 32x32x32"), sweeps * bn, ms);
        }
        let ms = median_ms(|| {
            normalize_sweep_into(black_box(&x), &stats, &params, EPSILON, true, None, &mut y)
                .expect("normalize shapes agree");
        });
        row("normalize_sweep_into relu 32x32x32", 2.0 * bn, ms);
        // Two passes, each reading `g` and `x` and writing `g`.
        let ms = median_ms(|| {
            black_box(
                norm_backward_inplace(&mut g, black_box(&x), &stats, &params, EPSILON, true)
                    .expect("backward shapes agree"),
            );
        });
        row("norm_backward_inplace relu 32x32x32", 6.0 * bn, ms);
    });
    let mut g = grad.clone();
    let d_params = norm_backward_inplace(&mut g, &x, &stats, &params, EPSILON, true)?;
    let two_pass = bn_statistics(&x, false)?;
    let mut digest = DIGEST_SEED;
    for result in [
        pooled.as_slice(),
        pool_dx.as_slice(),
        &stats.mean,
        &stats.var,
        &two_pass.mean,
        &two_pass.var,
        y.as_slice(),
        g.as_slice(),
        &d_params.d_gamma,
        &d_params.d_beta,
    ] {
        digest = fold_bits(digest, result);
    }
    println!("bits {digest:016x}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let batch = match args.as_slice() {
        [] => 64,
        [flag, value] if flag == "--batch" => value.parse()?,
        _ => return Err("usage: conv_shapes [--batch N]".into()),
    };
    model_table(&format!("densenet_cifar({batch}, 8, 2, 10)"), &densenet_cifar(batch, 8, 2, 10)?)?;
    println!();
    model_table(&format!("resnet_cifar({batch}, 1, 10)"), &resnet_cifar(batch, 1, 10)?)?;

    // Strided or ragged-width: `(C, H = W, C_out, K, stride, pad)`.
    let packed: [(usize, usize, usize, usize, usize, usize); 6] = [
        (16, 32, 32, 3, 2, 1),
        (32, 16, 64, 3, 2, 1),
        (16, 28, 16, 3, 1, 1),
        (32, 14, 32, 3, 1, 1),
        (64, 7, 64, 3, 1, 1),
        (3, 32, 16, 7, 2, 3),
    ];
    println!();
    print_header(&format!(
        "strided / ragged-width shapes at batch {batch} (windows expanded by the packer)"
    ));
    let mut digest = DIGEST_SEED;
    for (c, hw, out_c, k, stride, pad) in packed {
        let attrs = Conv2dAttrs::new(out_c, k, stride, pad);
        measure(&Shape::nchw(batch, c, hw, hw), &attrs, 1, &mut digest)?;
    }
    println!("bits {digest:016x}");
    println!();
    streaming_table(batch)
}
