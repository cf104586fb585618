//! Per-shape convolution timings: for each distinct convolution of
//! `densenet_cifar(batch, 8, 2, 10)` — the model the benchmark trains — the
//! forward pass, the weight gradient and the input gradient, each as the
//! median of 9 runs on one thread, in ms and GFLOP/s. A second table does
//! the same for `resnet_cifar(batch, 1, 10)`, the other model this
//! repository trains (its stride-1 3×3 rows read their windows in place,
//! its stride-2 rows do not). A third covers six strided or ragged-width
//! shapes no benchmark workload runs (ResNet-style downsampling and
//! 28²/14²/7² maps, a 7×7 stem) — the ones whose windows the GEMM's packer
//! expands. Each table's header names the SIMD dispatch tier it ran on
//! (`isa <name>`), and each table ends with one line `bits <hex>`: a digest
//! of the bits of all three results of every one of its rows — which
//! depend on that tier. These are the tables
//! convolution work is sized and checked with; they read the public model
//! builders and kernel entry points only, so the file runs unchanged against
//! any commit, and equal digests on two commits mean equal results.
//!
//! Run with `cargo run --release --example conv_shapes -- --batch 64`.

use bnff::graph::op::{Conv2dAttrs, OpKind};
use bnff::graph::Graph;
use bnff::kernels::conv::{
    conv2d_backward_input, conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward,
    conv2d_forward_into,
};
use bnff::kernels::dispatch::active_isa;
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

/// The table's title with the ISA it runs on, then the column names.
fn print_header(title: &str) {
    println!("{title}, isa {}", active_isa());
    println!(
        "{:>22} {:>3} {:>2}  {:>16}  {:>16}  {:>16}",
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
        "{:>3}x{:<2}x{:<2} -> {:>3} {}x{} {:>3} {:>2}  {}  {}  {}",
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
    Ok(())
}
