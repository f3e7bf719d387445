//! Convolution layers.

use crate::module::{Layer, Module};
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{init, Result, Var};
use rand::Rng;

/// 2-D convolution layer with weight `[out, in, k, k]`.
///
/// The LMM-IR circuit encoder stacks `7×7` convolutions (first stage) and
/// `3×3` convolutions (deeper stages), each followed by batch-norm and ReLU.
#[derive(Debug)]
pub struct Conv2d {
    weight: Var,
    bias: Option<Var>,
    spec: ConvSpec,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
}

impl Conv2d {
    /// Creates a conv layer with Kaiming-uniform init.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: ConvSpec,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Var::parameter(init::kaiming_uniform(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = bias.then(|| {
            let bound = 1.0 / (fan_in.max(1) as f32).sqrt();
            Var::parameter(init::uniform(&[out_channels], bound, rng))
        });
        Conv2d {
            weight,
            bias,
            spec,
            in_channels,
            out_channels,
            kernel,
        }
    }

    /// "Same" convolution: stride 1 with padding `kernel / 2`.
    #[must_use]
    pub fn same(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Conv2d::new(
            in_channels,
            out_channels,
            kernel,
            ConvSpec::new(1, kernel / 2),
            true,
            rng,
        )
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Var) -> Result<Var> {
        x.conv2d(&self.weight, self.bias.as_ref(), self.spec)
    }
}

impl Layer for Conv2d {
    fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

/// Transposed 2-D convolution (deconvolution) with weight `[in, out, k, k]`.
///
/// The LMM-IR decoder uses four stride-2 deconvolutions to recover the
/// spatial resolution of the IR-drop map.
#[derive(Debug)]
pub struct ConvTranspose2d {
    weight: Var,
    bias: Option<Var>,
    spec: ConvSpec,
    in_channels: usize,
    out_channels: usize,
}

impl ConvTranspose2d {
    /// Creates a transposed-conv layer with Kaiming-uniform init.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: ConvSpec,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Var::parameter(init::kaiming_uniform(
            &[in_channels, out_channels, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = bias.then(|| {
            let bound = 1.0 / (fan_in.max(1) as f32).sqrt();
            Var::parameter(init::uniform(&[out_channels], bound, rng))
        });
        ConvTranspose2d {
            weight,
            bias,
            spec,
            in_channels,
            out_channels,
        }
    }

    /// Standard ×2 upsampling deconvolution (kernel 2, stride 2).
    #[must_use]
    pub fn upsample2(in_channels: usize, out_channels: usize, rng: &mut impl Rng) -> Self {
        ConvTranspose2d::new(in_channels, out_channels, 2, ConvSpec::new(2, 0), true, rng)
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Module for ConvTranspose2d {
    fn forward(&self, x: &Var) -> Result<Var> {
        x.conv_transpose2d(&self.weight, self.bias.as_ref(), self.spec)
    }
}

impl Layer for ConvTranspose2d {
    fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_conv_preserves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::same(3, 8, 7, &mut rng);
        let x = Var::constant(Tensor::zeros(&[2, 3, 16, 16]));
        let y = c.forward(&x).unwrap();
        assert_eq!(y.dims(), vec![2, 8, 16, 16]);
    }

    #[test]
    fn strided_conv_halves() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::new(1, 4, 3, ConvSpec::new(2, 1), true, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 1, 16, 16]));
        assert_eq!(c.forward(&x).unwrap().dims(), vec![1, 4, 8, 8]);
    }

    #[test]
    fn upsample2_doubles() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = ConvTranspose2d::upsample2(4, 2, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 4, 8, 8]));
        assert_eq!(d.forward(&x).unwrap().dims(), vec![1, 2, 16, 16]);
    }

    #[test]
    fn conv_then_deconv_round_trips_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::new(2, 6, 2, ConvSpec::new(2, 0), true, &mut rng);
        let d = ConvTranspose2d::upsample2(6, 2, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 2, 12, 12]));
        let y = d.forward(&c.forward(&x).unwrap()).unwrap();
        assert_eq!(y.dims(), vec![1, 2, 12, 12]);
    }

    #[test]
    fn gradients_reach_conv_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::same(1, 2, 3, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 1, 4, 4]));
        c.forward(&x).unwrap().sum().backward();
        for p in c.parameters() {
            assert!(p.grad().is_some());
        }
    }
}
