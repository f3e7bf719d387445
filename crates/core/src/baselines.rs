//! Baseline predictors from Table III: the ICCAD-2023 contest winners,
//! IREDGe and IRPnet, re-implemented on the same substrate so the
//! comparison isolates modelling choices rather than frameworks. The three
//! U-Nets are presets of the one [`UNetPredictor`]; IRPnet is its own CNN.

use crate::arch::ArchSpec;
use crate::model::IrPredictor;
use crate::pointcloud::PointCloud;
use crate::zoo::{UNetConfig, UNetPredictor};
use lmmir_nn::{BatchNorm2d, Conv2d, Layer, Module};
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{Result, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A baseline U-Net family's preset ([`UNetConfig::quick`]) at a given size
/// and seed.
fn unet_preset(arch: ArchSpec, input_size: usize, seed: u64) -> UNetPredictor {
    UNetPredictor::new(UNetConfig {
        input_size,
        seed,
        ..UNetConfig::quick(arch)
    })
}

/// IREDGe (Chhabria et al., ASP-DAC 2021): a plain encoder-decoder over the
/// three basic channels — no attention, no netlist, no extra features.
#[must_use]
pub fn iredge(input_size: usize, seed: u64) -> UNetPredictor {
    unet_preset(ArchSpec::Iredge, input_size, seed)
}

/// Contest 1st-place style model: U-Net with the extended feature set and
/// attention gates, notably wider than the others (the paper's TAT column
/// shows it ~5× slower than the rest).
#[must_use]
pub fn first_place(input_size: usize, seed: u64) -> UNetPredictor {
    unet_preset(ArchSpec::FirstPlace, input_size, seed)
}

/// Contest 2nd-place style model: lighter U-Net with the extended feature
/// set (their edge came from heavy data generation, not model size).
#[must_use]
pub fn second_place(input_size: usize, seed: u64) -> UNetPredictor {
    unet_preset(ArchSpec::SecondPlace, input_size, seed)
}

/// IRPnet (Meng et al., DATE 2024): a physics-window CNN operating at full
/// resolution with shape-adaptive local kernels and no downsampling.
///
/// Faithful to its physics-constrained design, it consumes only the current
/// map (IR ≈ local effective resistance × local current): it has neither
/// pad-distance information nor a global receptive field, which is exactly
/// why the paper observes it failing to generalize to the hidden cases.
#[derive(Debug)]
pub struct IrpNet {
    input_size: usize,
    convs: Vec<Conv2d>,
    pub(crate) norms: Vec<BatchNorm2d>,
    out: Conv2d,
}

impl IrpNet {
    /// Builds IRPnet with `width` channels and `depth` local conv layers.
    #[must_use]
    pub fn new(width: usize, depth: usize, input_size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut convs = Vec::new();
        let mut norms = Vec::new();
        for i in 0..depth {
            let in_ch = if i == 0 { 1 } else { width };
            convs.push(Conv2d::new(
                in_ch,
                width,
                3,
                ConvSpec::new(1, 1),
                true,
                &mut rng,
            ));
            norms.push(BatchNorm2d::new(width));
        }
        let out = Conv2d::new(width, 1, 1, ConvSpec::new(1, 0), true, &mut rng);
        // Small-init the regression head (see `UNetDecoder::new`).
        for p in out.parameters() {
            p.update_value(|t| t.map_inplace(|v| v * 0.05));
        }
        IrpNet {
            input_size,
            convs,
            norms,
            out,
        }
    }
}

/// Default IRPnet preset used by the harness.
#[must_use]
pub fn irpnet(input_size: usize, seed: u64) -> IrpNet {
    IrpNet::new(16, 4, input_size, seed)
}

impl IrPredictor for IrpNet {
    fn arch(&self) -> ArchSpec {
        ArchSpec::IrpNet
    }

    fn input_channels(&self) -> usize {
        1
    }

    fn input_size(&self) -> usize {
        self.input_size
    }

    fn forward(&self, images: &Var, _cloud: Option<&PointCloud>) -> Result<Var> {
        let mut h = images.clone();
        for (c, n) in self.convs.iter().zip(&self.norms) {
            h = n.forward(&c.forward(&h)?)?.relu();
        }
        self.out.forward(&h)
    }
}

impl Layer for IrpNet {
    fn children(&self) -> Vec<&dyn Layer> {
        let mut c: Vec<&dyn Layer> = Vec::new();
        for (conv, norm) in self.convs.iter().zip(&self.norms) {
            c.push(conv);
            c.push(norm);
        }
        c.push(&self.out);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::Tensor;

    #[test]
    fn baseline_shapes() {
        let x3 = Var::constant(Tensor::zeros(&[1, 3, 16, 16]));
        let x6 = Var::constant(Tensor::zeros(&[1, 6, 16, 16]));
        for (m, x) in [
            (&iredge(16, 0) as &dyn IrPredictor, &x3),
            (&first_place(16, 0) as &dyn IrPredictor, &x6),
            (&second_place(16, 0) as &dyn IrPredictor, &x6),
        ] {
            let y = m.forward(x, None).unwrap();
            assert_eq!(y.dims(), vec![1, 1, 16, 16], "{}", m.name());
            assert!(!m.uses_netlist());
        }
        let x1 = Var::constant(Tensor::zeros(&[1, 1, 16, 16]));
        let irp = irpnet(16, 0);
        assert_eq!(irp.input_channels(), 1);
        let y = irp.forward(&x1, None).unwrap();
        assert_eq!(y.dims(), vec![1, 1, 16, 16]);
    }

    #[test]
    fn first_place_is_heaviest_unet() {
        let count = |m: &dyn IrPredictor| {
            m.parameters()
                .iter()
                .map(|p| p.value().numel())
                .sum::<usize>()
        };
        let first = count(&first_place(16, 0));
        let second = count(&second_place(16, 0));
        let ired = count(&iredge(16, 0));
        assert!(first > second, "1st place should out-weigh 2nd place");
        assert!(second > ired, "2nd place carries extra-feature stem");
    }

    #[test]
    fn irpnet_has_no_downsampling() {
        // Output must match input resolution even for odd sizes (no pools).
        let irp = irpnet(20, 0);
        let x = Var::constant(Tensor::zeros(&[1, 1, 19, 23]));
        let y = irp.forward(&x, None).unwrap();
        assert_eq!(y.dims(), vec![1, 1, 19, 23]);
    }

    #[test]
    fn baselines_train_mode_toggles() {
        let m = iredge(16, 0);
        m.set_training(false);
        let x = Var::constant(Tensor::ones(&[1, 3, 16, 16]));
        // Eval mode must be deterministic across calls.
        let a = m.forward(&x, None).unwrap().to_tensor();
        let b = m.forward(&x, None).unwrap().to_tensor();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn gradients_flow_through_all_baselines() {
        let x1 = Var::constant(Tensor::ones(&[1, 1, 8, 8]));
        let irp = irpnet(8, 3);
        irp.forward(&x1, None).unwrap().sum().backward();
        assert!(irp.parameters().iter().all(|p| p.grad().is_some()));
    }
}
