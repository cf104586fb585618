//! Channel ropes: one NCHW feature map held as several tensors side by side
//! along the channel axis.
//!
//! A DenseNet concatenation's value is its inputs' tensors in channel order.
//! The training executor keeps it that way — a *rope* — instead of copying
//! them into one buffer: every consumer that reads a feature map plane by
//! plane (channel statistics, the normalize sweep, the BN backward sweeps,
//! a convolution's per-sample staging) walks the rope's planes, channel by
//! channel ([`ChannelRope::channel_planes`]) or in NCHW order
//! ([`ChannelRope::planes_from`], [`ChannelRope::sample_planes`]), each
//! from whichever part holds its channel. A plain tensor is the one-part
//! rope ([`From<&Tensor>`]).
//!
//! A rope's gradient is its parts' gradients. A [`GradPart`] names one and
//! takes its channel range of a gradient of the whole rope: it overwrites a
//! part that holds no contribution yet and adds into one that does.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// An NCHW feature map held as one or more tensors laid end to end along
/// the channel axis. Borrowed and `Copy`: building one copies no plane.
#[derive(Debug, Clone, Copy)]
pub struct ChannelRope<'a> {
    parts: Parts<'a>,
    channels: usize,
}

#[derive(Debug, Clone, Copy)]
enum Parts<'a> {
    One(&'a Tensor),
    Many(&'a [&'a Tensor]),
}

impl<'a> From<&'a Tensor> for ChannelRope<'a> {
    /// The one-part rope of a tensor. Nothing is checked here; every reader
    /// validates the rope's [`shape`](ChannelRope::shape) first.
    fn from(x: &'a Tensor) -> Self {
        let channels = if x.shape().is_nchw() { x.shape().c() } else { 0 };
        ChannelRope { parts: Parts::One(x), channels }
    }
}

impl<'a> ChannelRope<'a> {
    /// The rope of `parts` in channel order.
    ///
    /// # Errors
    /// Returns an error when `parts` is empty, a part is not 4-D, or the
    /// parts disagree in batch or spatial extent.
    pub fn new(parts: &'a [&'a Tensor]) -> Result<Self> {
        let [first, rest @ ..] = parts else {
            return Err(TensorError::InvalidArgument("a rope needs at least one part".to_string()));
        };
        first.shape().expect_nchw()?;
        let (n, h, w) = (first.shape().n(), first.shape().h(), first.shape().w());
        let mut channels = first.shape().c();
        for part in rest {
            let shape = part.shape();
            shape.expect_nchw()?;
            if (shape.n(), shape.h(), shape.w()) != (n, h, w) {
                return Err(TensorError::ShapeMismatch {
                    expected: Shape::nchw(n, shape.c(), h, w),
                    got: shape.clone(),
                });
            }
            channels += shape.c();
        }
        let parts = if rest.is_empty() { Parts::One(first) } else { Parts::Many(parts) };
        Ok(ChannelRope { parts, channels })
    }

    fn first(&self) -> &'a Tensor {
        match self.parts {
            Parts::One(x) => x,
            Parts::Many(parts) => parts[0],
        }
    }

    /// The shape of the feature map the parts make up.
    pub fn shape(&self) -> Shape {
        match self.parts {
            Parts::One(x) => x.shape().clone(),
            Parts::Many(_) => Shape::nchw(self.n(), self.channels, self.h(), self.w()),
        }
    }

    /// Mini-batch size.
    pub fn n(&self) -> usize {
        self.first().shape().n()
    }

    /// Channels, summed over the parts.
    pub fn c(&self) -> usize {
        self.channels
    }

    /// Plane height.
    pub fn h(&self) -> usize {
        self.first().shape().h()
    }

    /// Plane width.
    pub fn w(&self) -> usize {
        self.first().shape().w()
    }

    /// The tensor itself when the rope has one part.
    pub fn tensor(&self) -> Option<&'a Tensor> {
        match self.parts {
            Parts::One(x) => Some(x),
            Parts::Many(_) => None,
        }
    }

    /// The parts in channel order.
    pub fn parts(&self) -> impl Iterator<Item = &'a Tensor> + 'a {
        let (one, many) = match self.parts {
            Parts::One(x) => (Some(x), &[][..]),
            Parts::Many(parts) => (None, parts),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// The part that holds channel `ci`, and the channel's index in it.
    ///
    /// # Panics
    /// Panics if `ci` is out of range.
    fn locate(&self, ci: usize) -> (&'a Tensor, usize) {
        let mut local = ci;
        for part in self.parts() {
            let c = part.shape().c();
            if local < c {
                return (part, local);
            }
            local -= c;
        }
        panic!("channel {ci} is past the rope's {} channels", self.channels)
    }

    /// The `N` planes of channel `ci`, in sample order. The part is looked
    /// up once per channel, not once per plane.
    ///
    /// # Panics
    /// Panics if `ci` is out of range.
    pub fn channel_planes(&self, ci: usize) -> impl Iterator<Item = &'a [f32]> + 'a {
        let (part, local) = self.locate(ci);
        (0..self.n()).map(move |ni| part.channel_plane(ni, local))
    }

    /// Every plane from plane `first` on, in NCHW order (plane `p` is
    /// channel `p % C` of sample `p / C`), walking the parts in order.
    pub fn planes_from(&self, first: usize) -> impl Iterator<Item = &'a [f32]> + 'a {
        let (rope, c) = (*self, self.channels.max(1));
        (first / c..self.n()).flat_map(move |ni| rope.sample_planes(ni)).skip(first % c)
    }

    /// The `C` planes of sample `ni`, in channel order.
    pub fn sample_planes(&self, ni: usize) -> impl Iterator<Item = &'a [f32]> + 'a {
        self.parts().flat_map(move |part| {
            let plane = part.shape().h() * part.shape().w();
            let sample = part.len() / part.shape().n().max(1);
            part.as_slice()[ni * sample..(ni + 1) * sample].chunks_exact(plane.max(1))
        })
    }

    /// Writes the rope into one contiguous tensor of its shape — the copy a
    /// concatenation makes when a consumer needs its value in one buffer.
    ///
    /// # Errors
    /// Returns an error if `out` does not have the rope's shape.
    pub fn copy_into(&self, out: &mut Tensor) -> Result<()> {
        self.shape().expect_same(out.shape())?;
        let sample = out.len() / self.n().max(1);
        if sample == 0 {
            return Ok(());
        }
        for (ni, dst) in out.as_mut_slice().chunks_exact_mut(sample).enumerate() {
            let mut at = 0;
            for part in self.parts() {
                let len = part.len() / self.n();
                dst[at..at + len].copy_from_slice(&part.as_slice()[ni * len..(ni + 1) * len]);
                at += len;
            }
        }
        Ok(())
    }
}

/// One part of a rope's gradient: the part's gradient tensor, and whether
/// it already holds a contribution (`add`) or is a dirty buffer that the
/// first contribution overwrites.
#[derive(Debug)]
pub struct GradPart<'a> {
    /// The part's gradient, of the part's shape.
    pub grad: &'a mut Tensor,
    /// Add into `grad` instead of overwriting it.
    pub add: bool,
}

impl GradPart<'_> {
    /// Takes this part's share of `grad`, a gradient of the whole rope whose
    /// channels from `offset` on are this part's: copied in when the part
    /// holds nothing yet, added (`a + b`, element-wise) when it does.
    ///
    /// # Errors
    /// Returns an error if `grad` has no such channel range.
    pub fn take_channels(&mut self, grad: &Tensor, offset: usize) -> Result<()> {
        let (src, dst) = (grad.shape(), self.grad.shape());
        src.expect_nchw()?;
        dst.expect_nchw()?;
        if (src.n(), src.h(), src.w()) != (dst.n(), dst.h(), dst.w()) || offset + dst.c() > src.c()
        {
            return Err(TensorError::ShapeMismatch { expected: src.clone(), got: dst.clone() });
        }
        let (n, channels) = (dst.n(), dst.c());
        for ni in 0..n {
            for cj in 0..channels {
                let from = grad.channel_plane(ni, offset + cj);
                let to = self.grad.channel_plane_mut(ni, cj);
                if self.add {
                    to.iter_mut().zip(from).for_each(|(d, &s)| *d += s);
                } else {
                    to.copy_from_slice(from);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(shape: Shape, from: f32) -> Tensor {
        let data = (0..shape.volume()).map(|i| from + i as f32).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn planes_come_from_the_part_that_holds_the_channel() {
        let (a, b) = (ramp(Shape::nchw(2, 1, 2, 2), 0.0), ramp(Shape::nchw(2, 2, 2, 2), 100.0));
        let parts = [&a, &b];
        let rope = ChannelRope::new(&parts).unwrap();
        assert_eq!(rope.shape(), Shape::nchw(2, 3, 2, 2));
        assert!(rope.tensor().is_none());
        let mut whole = Tensor::filled(rope.shape(), f32::NAN);
        rope.copy_into(&mut whole).unwrap();
        let whole = &whole;
        let whole_planes = |ni: usize| (0..3).map(move |ci| whole.channel_plane(ni, ci));
        for ni in 0..2 {
            let planes: Vec<&[f32]> = rope.sample_planes(ni).collect();
            assert_eq!(planes, whole_planes(ni).collect::<Vec<_>>());
        }
        for ci in 0..3 {
            let planes: Vec<&[f32]> = rope.channel_planes(ci).collect();
            assert_eq!(planes, [whole.channel_plane(0, ci), whole.channel_plane(1, ci)]);
        }
        let nchw: Vec<&[f32]> = (0..2).flat_map(whole_planes).collect();
        for first in 0..=6 {
            assert_eq!(rope.planes_from(first).collect::<Vec<_>>(), nchw[first..], "from {first}");
        }
        let one = ChannelRope::from(&a);
        assert!(std::ptr::eq(one.tensor().unwrap(), &a));
        assert_eq!(one.channel_planes(0).nth(1).unwrap(), a.channel_plane(1, 0));
    }

    #[test]
    fn mismatched_or_missing_parts_are_rejected() {
        let (a, b) =
            (Tensor::zeros(Shape::nchw(2, 1, 2, 2)), Tensor::zeros(Shape::nchw(2, 1, 4, 4)));
        assert!(ChannelRope::new(&[&a, &b]).is_err());
        assert!(ChannelRope::new(&[]).is_err());
        let flat = Tensor::zeros(Shape::vector(4));
        assert!(ChannelRope::new(&[&a, &flat]).is_err());
        let mut wrong = Tensor::zeros(Shape::nchw(2, 2, 2, 2));
        assert!(ChannelRope::from(&a).copy_into(&mut wrong).is_err());
    }

    #[test]
    fn parts_take_their_channels_overwriting_or_adding() {
        let grad = ramp(Shape::nchw(2, 3, 1, 2), 1.0);
        let mut fresh = Tensor::filled(Shape::nchw(2, 1, 1, 2), f32::NAN);
        let mut held = Tensor::filled(Shape::nchw(2, 2, 1, 2), 0.5);
        GradPart { grad: &mut fresh, add: false }.take_channels(&grad, 0).unwrap();
        GradPart { grad: &mut held, add: true }.take_channels(&grad, 1).unwrap();
        assert_eq!(fresh.as_slice(), &[1.0, 2.0, 7.0, 8.0]);
        assert_eq!(held.as_slice(), &[3.5, 4.5, 5.5, 6.5, 9.5, 10.5, 11.5, 12.5]);
        assert!(GradPart { grad: &mut held, add: true }.take_channels(&grad, 2).is_err());
    }
}
