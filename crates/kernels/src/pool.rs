//! Spatial pooling layers: max, average and global average pooling.

use crate::batchnorm::min_planes_per_thread;
use crate::error::KernelError;
use crate::im2col::conv_out_dim;
use crate::Result;
use bnff_graph::op::PoolAttrs;
use bnff_parallel::{parallel_rows_mut, parallel_rows_mut2};
use bnff_tensor::{Shape, Tensor};

/// What the max-pooling backward pass needs from the forward pass: the
/// output shape plus the argmax indices (linear indices into each input
/// channel plane). The pooled output itself is *not* retained, so the
/// executor's liveness plan can release it at its last forward use.
#[derive(Debug, Clone)]
pub struct MaxPoolState {
    /// Shape of the pooled output.
    pub output_shape: Shape,
    /// For every output element, the linear index (within its input plane)
    /// of the maximum that produced it.
    pub argmax: Vec<usize>,
}

fn pooled_shape(x: &Tensor, attrs: &PoolAttrs) -> Result<(usize, usize)> {
    x.shape().expect_nchw()?;
    let oh = conv_out_dim(x.shape().h(), attrs.kernel, attrs.stride, attrs.pad)?;
    let ow = conv_out_dim(x.shape().w(), attrs.kernel, attrs.stride, attrs.pad)?;
    Ok((oh, ow))
}

/// Max-pooling forward pass, returning the pooled output and the backward
/// state.
///
/// # Errors
/// Returns an error if the input is not 4-D or the window does not fit.
pub fn max_pool_forward(x: &Tensor, attrs: &PoolAttrs) -> Result<(Tensor, MaxPoolState)> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let mut output = Tensor::zeros(Shape::nchw(x.shape().n(), x.shape().c(), oh, ow));
    let state = max_pool_forward_argmax_into(x, attrs, &mut output)?;
    Ok((output, state))
}

/// [`max_pool_forward`] into a caller-provided output tensor, returning the
/// backward state. Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the input is not 4-D, the window does not fit, or
/// `out` has the wrong shape.
pub fn max_pool_forward_argmax_into(
    x: &Tensor,
    attrs: &PoolAttrs,
    out: &mut Tensor,
) -> Result<MaxPoolState> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    check_pooled_output(out, &Shape::nchw(n, c, oh, ow))?;
    let mut argmax = vec![0usize; n * c * oh * ow];
    // One task per `(sample, channel)` plane; output values and argmax
    // indices for a plane occupy matching contiguous runs.
    let plane_out = oh * ow;
    let min_planes = min_planes_per_thread(plane_out * attrs.kernel * attrs.kernel);
    parallel_rows_mut2(
        out.as_mut_slice(),
        plane_out,
        &mut argmax,
        plane_out,
        min_planes,
        |first_plane, out_block, arg_block| {
            for (p_local, (out_plane, arg_plane)) in
                out_block.chunks_mut(plane_out).zip(arg_block.chunks_mut(plane_out)).enumerate()
            {
                let p = first_plane + p_local;
                let plane = x.channel_plane(p / c, p % c);
                for po in 0..oh {
                    for qo in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for kh in 0..attrs.kernel {
                            let ih = (po * attrs.stride + kh) as isize - attrs.pad as isize;
                            if ih < 0 || ih as usize >= h {
                                continue;
                            }
                            for kw in 0..attrs.kernel {
                                let iw = (qo * attrs.stride + kw) as isize - attrs.pad as isize;
                                if iw < 0 || iw as usize >= w {
                                    continue;
                                }
                                let idx = ih as usize * w + iw as usize;
                                if plane[idx] > best {
                                    best = plane[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out_plane[po * ow + qo] = best;
                        arg_plane[po * ow + qo] = best_idx;
                    }
                }
            }
        },
    );
    Ok(MaxPoolState { output_shape: out.shape().clone(), argmax })
}

/// Checks a caller-provided pooling output against the shape the input
/// pools to.
fn check_pooled_output(out: &Tensor, expected: &Shape) -> Result<()> {
    if out.shape() != expected {
        return Err(KernelError::ShapeMismatch(format!(
            "pool output tensor is {}, input pools to {expected}",
            out.shape()
        )));
    }
    Ok(())
}

/// Inference-only max-pooling forward pass into a caller-provided output
/// tensor: no argmax state is materialized (frozen graphs never run a
/// backward pass). Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the input is not 4-D, the window does not fit, or
/// `out` has the wrong shape.
pub fn max_pool_forward_into(x: &Tensor, attrs: &PoolAttrs, out: &mut Tensor) -> Result<()> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (c, h, w) = (x.shape().c(), x.shape().h(), x.shape().w());
    check_pooled_output(out, &Shape::nchw(x.shape().n(), c, oh, ow))?;
    let plane_out = oh * ow;
    let min_planes = min_planes_per_thread(plane_out * attrs.kernel * attrs.kernel);
    parallel_rows_mut(out.as_mut_slice(), plane_out.max(1), min_planes, |first_plane, block| {
        for (p_local, out_plane) in block.chunks_mut(plane_out.max(1)).enumerate() {
            let p = first_plane + p_local;
            let plane = x.channel_plane(p / c, p % c);
            for po in 0..oh {
                for qo in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for kh in 0..attrs.kernel {
                        let ih = (po * attrs.stride + kh) as isize - attrs.pad as isize;
                        if ih < 0 || ih as usize >= h {
                            continue;
                        }
                        for kw in 0..attrs.kernel {
                            let iw = (qo * attrs.stride + kw) as isize - attrs.pad as isize;
                            if iw < 0 || iw as usize >= w {
                                continue;
                            }
                            let idx = ih as usize * w + iw as usize;
                            if plane[idx] > best {
                                best = plane[idx];
                            }
                        }
                    }
                    out_plane[po * ow + qo] = best;
                }
            }
        }
    });
    Ok(())
}

/// Max-pooling backward pass: routes each output gradient to the input
/// position that won the max.
///
/// # Errors
/// Returns an error if the shapes are inconsistent with the forward state.
pub fn max_pool_backward(
    d_y: &Tensor,
    state: &MaxPoolState,
    input_shape: &Shape,
) -> Result<Tensor> {
    let mut d_x = Tensor::zeros(input_shape.clone());
    max_pool_backward_into(d_y, state, &mut d_x)?;
    Ok(d_x)
}

/// [`max_pool_backward`] into a caller-provided gradient tensor of the
/// pooling input's shape. Every element of `d_x` is overwritten.
///
/// # Errors
/// Returns an error if the shapes are inconsistent with the forward state.
pub fn max_pool_backward_into(d_y: &Tensor, state: &MaxPoolState, d_x: &mut Tensor) -> Result<()> {
    d_y.shape().expect_same(&state.output_shape).map_err(KernelError::Tensor)?;
    let (c, plane_in) = check_pool_gradient(d_y, d_x)?;
    let plane_out = d_y.shape().h() * d_y.shape().w();
    parallel_rows_mut(
        d_x.as_mut_slice(),
        plane_in.max(1),
        min_planes_per_thread(plane_out),
        |first_plane, block| {
            for (p_local, plane) in block.chunks_mut(plane_in.max(1)).enumerate() {
                let p = first_plane + p_local;
                let grads = d_y.channel_plane(p / c, p % c);
                let args = &state.argmax[p * plane_out..(p + 1) * plane_out];
                plane.fill(0.0);
                for (&arg, &g) in args.iter().zip(grads.iter()) {
                    plane[arg] += g;
                }
            }
        },
    );
    Ok(())
}

/// Checks that `d_x` can hold the input gradient of a pooling whose output
/// gradient is `d_y` (same batch and channels), returning the channel count
/// and the input plane length.
fn check_pool_gradient(d_y: &Tensor, d_x: &Tensor) -> Result<(usize, usize)> {
    d_y.shape().expect_nchw()?;
    d_x.shape().expect_nchw()?;
    let (dy, dx) = (d_y.shape(), d_x.shape());
    if dy.n() != dx.n() || dy.c() != dx.c() {
        return Err(KernelError::ShapeMismatch(format!(
            "pooling gradient {dy} does not match the input gradient {dx}"
        )));
    }
    Ok((dx.c(), dx.h() * dx.w()))
}

/// Average-pooling forward pass (count includes padding positions excluded,
/// i.e. the divisor is the number of valid input positions in the window).
///
/// # Errors
/// Returns an error if the input is not 4-D or the window does not fit.
pub fn avg_pool_forward(x: &Tensor, attrs: &PoolAttrs) -> Result<Tensor> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (n, c) = (x.shape().n(), x.shape().c());
    let mut output = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    avg_pool_forward_into(x, attrs, &mut output)?;
    Ok(output)
}

/// [`avg_pool_forward`] into a caller-provided output tensor. Every element
/// of `out` is overwritten.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn avg_pool_forward_into(x: &Tensor, attrs: &PoolAttrs, out: &mut Tensor) -> Result<()> {
    let (oh, ow) = pooled_shape(x, attrs)?;
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    check_pooled_output(out, &Shape::nchw(n, c, oh, ow))?;
    let plane_out = oh * ow;
    let min_planes = min_planes_per_thread(plane_out * attrs.kernel * attrs.kernel);
    parallel_rows_mut(out.as_mut_slice(), plane_out, min_planes, |first_plane, block| {
        for (p_local, out_plane) in block.chunks_mut(plane_out).enumerate() {
            let p = first_plane + p_local;
            let plane = x.channel_plane(p / c, p % c);
            for po in 0..oh {
                for qo in 0..ow {
                    let mut acc = 0.0f32;
                    let mut count = 0usize;
                    for kh in 0..attrs.kernel {
                        let ih = (po * attrs.stride + kh) as isize - attrs.pad as isize;
                        if ih < 0 || ih as usize >= h {
                            continue;
                        }
                        for kw in 0..attrs.kernel {
                            let iw = (qo * attrs.stride + kw) as isize - attrs.pad as isize;
                            if iw < 0 || iw as usize >= w {
                                continue;
                            }
                            acc += plane[ih as usize * w + iw as usize];
                            count += 1;
                        }
                    }
                    out_plane[po * ow + qo] = if count > 0 { acc / count as f32 } else { 0.0 };
                }
            }
        }
    });
    Ok(())
}

/// Average-pooling backward pass.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn avg_pool_backward(d_y: &Tensor, input_shape: &Shape, attrs: &PoolAttrs) -> Result<Tensor> {
    let mut d_x = Tensor::zeros(input_shape.clone());
    avg_pool_backward_into(d_y, attrs, &mut d_x)?;
    Ok(d_x)
}

/// [`avg_pool_backward`] into a caller-provided gradient tensor of the
/// pooling input's shape. Every element of `d_x` is overwritten: each plane
/// is zeroed, then every window adds `share = g / count` to its valid
/// positions in window order (`count` being the number of valid positions,
/// as in the forward pass).
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn avg_pool_backward_into(d_y: &Tensor, attrs: &PoolAttrs, d_x: &mut Tensor) -> Result<()> {
    let (c, plane_in) = check_pool_gradient(d_y, d_x)?;
    let (h, w) = (d_x.shape().h(), d_x.shape().w());
    let (oh, ow) = (d_y.shape().h(), d_y.shape().w());
    if pooled_shape(d_x, attrs)? != (oh, ow) {
        return Err(KernelError::ShapeMismatch(format!(
            "pooling gradient is {}, input {} pools to {oh}x{ow}",
            d_y.shape(),
            d_x.shape()
        )));
    }
    let (kernel, stride, pad) = (attrs.kernel, attrs.stride, attrs.pad);
    // The kernel taps of output index `o` that land inside an axis of `len`.
    let taps = |o: usize, len: usize| {
        let start = o * stride;
        let lo = pad.saturating_sub(start);
        lo..(len + pad).saturating_sub(start).min(kernel).max(lo)
    };
    let min_planes = min_planes_per_thread(oh * ow * kernel * kernel);
    parallel_rows_mut(d_x.as_mut_slice(), plane_in.max(1), min_planes, |first_plane, block| {
        for (p_local, plane) in block.chunks_mut(plane_in.max(1)).enumerate() {
            let p = first_plane + p_local;
            let grads = d_y.channel_plane(p / c, p % c);
            plane.fill(0.0);
            if stride == kernel && pad == 0 {
                // Disjoint windows that all fit (the transitions' 2×2/2
                // pooling): every covered element receives exactly one add.
                let share_scale = (kernel * kernel) as f32;
                for (po, g_row) in grads.chunks_exact(ow.max(1)).enumerate() {
                    for row in plane[po * kernel * w..].chunks_exact_mut(w).take(kernel) {
                        for (window, &g) in row.chunks_exact_mut(kernel).zip(g_row) {
                            let share = g / share_scale;
                            for v in window {
                                *v += share;
                            }
                        }
                    }
                }
                continue;
            }
            for po in 0..oh {
                let rows = taps(po, h);
                for qo in 0..ow {
                    let cols = taps(qo, w);
                    let count = rows.len() * cols.len();
                    if count == 0 {
                        continue;
                    }
                    let share = grads[po * ow + qo] / count as f32;
                    for kh in rows.clone() {
                        let row = &mut plane[(po * stride + kh - pad) * w..][..w];
                        for v in &mut row[qo * stride + cols.start - pad..][..cols.len()] {
                            *v += share;
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

/// Global average pooling forward: reduces every channel plane to a single
/// value, producing an `N × C × 1 × 1` tensor.
///
/// # Errors
/// Returns an error if the input is not 4-D.
pub fn global_avg_pool_forward(x: &Tensor) -> Result<Tensor> {
    x.shape().expect_nchw()?;
    let mut out = Tensor::zeros(Shape::nchw(x.shape().n(), x.shape().c(), 1, 1));
    global_avg_pool_forward_into(x, &mut out)?;
    Ok(out)
}

/// [`global_avg_pool_forward`] into a caller-provided `N × C × 1 × 1`
/// output tensor; every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the input is not 4-D or `out` has the wrong shape.
pub fn global_avg_pool_forward_into(x: &Tensor, out: &mut Tensor) -> Result<()> {
    x.shape().expect_nchw()?;
    let (n, c) = (x.shape().n(), x.shape().c());
    let expected = Shape::nchw(n, c, 1, 1);
    if out.shape() != &expected {
        return Err(KernelError::ShapeMismatch(format!(
            "output tensor is {}, global average pooling produces {expected}",
            out.shape()
        )));
    }
    let plane_len = (x.shape().h() * x.shape().w()) as f32;
    let min_planes = min_planes_per_thread(x.shape().h() * x.shape().w());
    parallel_rows_mut(out.as_mut_slice(), 1, min_planes, |first_plane, block| {
        for (p_local, slot) in block.iter_mut().enumerate() {
            let p = first_plane + p_local;
            let sum: f32 = x.channel_plane(p / c, p % c).iter().sum();
            *slot = sum / plane_len;
        }
    });
    Ok(())
}

/// Global average pooling backward.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn global_avg_pool_backward(d_y: &Tensor, input_shape: &Shape) -> Result<Tensor> {
    let mut d_x = Tensor::zeros(input_shape.clone());
    global_avg_pool_backward_into(d_y, &mut d_x)?;
    Ok(d_x)
}

/// [`global_avg_pool_backward`] into a caller-provided gradient tensor of
/// the pooling input's shape. Every element of `d_x` is overwritten.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn global_avg_pool_backward_into(d_y: &Tensor, d_x: &mut Tensor) -> Result<()> {
    let (c, plane_in) = check_pool_gradient(d_y, d_x)?;
    let plane_len = plane_in as f32;
    parallel_rows_mut(
        d_x.as_mut_slice(),
        plane_in.max(1),
        min_planes_per_thread(plane_in),
        |first_plane, block| {
            for (p_local, plane) in block.chunks_mut(plane_in.max(1)).enumerate() {
                let p = first_plane + p_local;
                plane.fill(d_y.at(p / c, p % c, 0, 0) / plane_len);
            }
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_maximum() {
        let x = Tensor::from_vec(
            Shape::nchw(1, 1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let (output, state) = max_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).unwrap();
        assert_eq!(output.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(state.output_shape, Shape::nchw(1, 1, 2, 2));
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let (_, state) = max_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).unwrap();
        let d_y = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![7.0]).unwrap();
        let d_x = max_pool_backward(&d_y, &state, x.shape()).unwrap();
        assert_eq!(d_x.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_matches_mean() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = avg_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
        let d_y = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![4.0]).unwrap();
        let d_x = avg_pool_backward(&d_y, x.shape(), &PoolAttrs::new(2, 2, 0)).unwrap();
        assert_eq!(d_x.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_into_overwrites_recycled_buffers() {
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let attrs = PoolAttrs::new(2, 2, 0);
        let mut out = Tensor::filled(Shape::nchw(1, 1, 1, 1), f32::NAN);
        avg_pool_forward_into(&x, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[2.5]);
        let mut bad = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(avg_pool_forward_into(&x, &attrs, &mut bad).is_err());
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        )
        .unwrap();
        let y = global_avg_pool_forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[2.5, 25.0]);
        let d_y = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![4.0, 8.0]).unwrap();
        let d_x = global_avg_pool_backward(&d_y, x.shape()).unwrap();
        assert_eq!(d_x.channel_plane(0, 0), &[1.0; 4]);
        assert_eq!(d_x.channel_plane(0, 1), &[2.0; 4]);
    }

    #[test]
    fn padded_max_pool_shape() {
        let x = Tensor::ones(Shape::nchw(2, 3, 112, 112));
        let (output, state) = max_pool_forward(&x, &PoolAttrs::new(3, 2, 1)).unwrap();
        assert_eq!(output.shape(), &Shape::nchw(2, 3, 56, 56));
        assert_eq!(state.output_shape, Shape::nchw(2, 3, 56, 56));
    }

    #[test]
    fn non_nchw_is_rejected() {
        let x = Tensor::zeros(Shape::matrix(4, 4));
        assert!(max_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).is_err());
        assert!(avg_pool_forward(&x, &PoolAttrs::new(2, 2, 0)).is_err());
        assert!(global_avg_pool_forward(&x).is_err());
    }

    #[test]
    fn max_pool_into_matches_stateful_forward() {
        use bnff_tensor::init::Initializer;
        let x = Initializer::seeded(31).uniform(Shape::nchw(2, 3, 7, 7), -2.0, 2.0);
        let attrs = PoolAttrs::new(3, 2, 1);
        let (reference, _state) = max_pool_forward(&x, &attrs).unwrap();
        let mut out = Tensor::filled(reference.shape().clone(), f32::NAN);
        max_pool_forward_into(&x, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        let mut bad = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        assert!(max_pool_forward_into(&x, &attrs, &mut bad).is_err());
    }
}
