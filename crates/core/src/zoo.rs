//! The U-Net model zoo: one predictor, five families.
//!
//! IREDGe, the two ICCAD-2023 contest winners, the CFIRSTNET-style
//! comprehensive-feature U-Net (arXiv:2502.12168) and WACA-UNet
//! (arXiv:2507.19197) are the same encoder/decoder trunk
//! ([`crate::blocks::UNet`]) with one thing varied — feature stack, width
//! plan, attention gates on the skips, or a weak-aware channel-attention
//! block ([`lmmir_nn::ChannelAttention`]) on every encoder feature. So they
//! are one type, [`UNetPredictor`], over one [`UNetConfig`];
//! [`UNetConfig::quick`] holds the per-family presets and
//! [`crate::ArchSpec`] keeps selecting the family.
//!
//! Like every predictor, a `UNetPredictor` names its parts once
//! ([`lmmir_nn::Layer::children`]); parameters, buffers, train/eval mode
//! and int8 quantization all derive from that list.

use crate::arch::{ArchConfig, ArchSpec};
use crate::blocks::UNet;
use crate::model::IrPredictor;
use crate::pointcloud::PointCloud;
use lmmir_nn::{Layer, Module};
use lmmir_tensor::{Result, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a U-Net family member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UNetConfig {
    /// The family this model presents as (name, feature stack, checkpoint
    /// entry).
    pub arch: ArchSpec,
    /// Input image channels (the family's feature-stack size).
    pub in_channels: usize,
    /// Encoder/decoder channel plan; `len - 1` pooling stages.
    pub widths: Vec<usize>,
    /// Stem kernel size.
    pub stem_kernel: usize,
    /// Attention gates on the decoder skips (contest 1st place).
    pub attention_gates: bool,
    /// Squeeze-excitation reduction ratio of a channel-attention block on
    /// every encoder feature (WACA-UNet); `None` for a plain trunk.
    pub channel_attention: Option<usize>,
    /// Square input size the model trains at.
    pub input_size: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl UNetConfig {
    /// The family table, at the 48 px of the other `quick()` models (the
    /// three baselines are described at their presets in
    /// [`crate::baselines`]; CFIRSTNET is a plain trunk betting entirely on
    /// the comprehensive stack, WACA-UNet adds channel attention to it).
    fn family(arch: ArchSpec) -> Option<Self> {
        let (in_channels, widths, stem_kernel, attention_gates, channel_attention, seed) =
            match arch {
                ArchSpec::Iredge => (3, [6, 12, 24], 3, false, None, 0),
                ArchSpec::FirstPlace => (6, [24, 48, 96], 7, true, None, 0),
                ArchSpec::SecondPlace => (6, [8, 16, 32], 3, false, None, 0),
                ArchSpec::CfirstNet => (8, [8, 16, 32], 3, false, None, 0xCF12),
                ArchSpec::WacaUnet => (8, [8, 16, 32], 3, false, Some(4), 0x3ACA),
                _ => return None,
            };
        Some(UNetConfig {
            arch,
            in_channels,
            widths: widths.to_vec(),
            stem_kernel,
            attention_gates,
            channel_attention,
            input_size: 48,
            seed,
        })
    }

    /// Laptop-scale preset of a U-Net family — what a checkpoint without a
    /// recorded configuration rebuilds (at its recorded size).
    ///
    /// # Panics
    ///
    /// Panics when `arch` is not one of the five U-Net families.
    #[must_use]
    pub fn quick(arch: ArchSpec) -> Self {
        UNetConfig::family(arch).unwrap_or_else(|| panic!("{} is not a U-Net", arch.name()))
    }

    /// Validates internal consistency (pooling divisibility, non-empty
    /// plan) and that the family can carry the trunk: a `config.*` entry
    /// records neither gates nor the presence of channel attention, so
    /// those are fixed by the family that owns the entry.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let name = self.arch.name();
        let family = UNetConfig::family(self.arch).ok_or(format!("{name} is not a U-Net"))?;
        if self.widths.len() < 2 {
            return Err("need at least two widths (one pooling stage)".to_string());
        }
        let pools = self.widths.len() - 1;
        if self.input_size % (1 << pools) != 0 {
            return Err(format!(
                "input size {} not divisible by 2^{pools}",
                self.input_size
            ));
        }
        if self.in_channels == 0 {
            return Err("in_channels must be positive".to_string());
        }
        if self.channel_attention == Some(0) {
            return Err("reduction must be positive".to_string());
        }
        if self.arch.config_entry().is_some()
            && (self.attention_gates != family.attention_gates
                || self.channel_attention.is_some() != family.channel_attention.is_some())
        {
            return Err(format!(
                "{name}'s checkpoint entry cannot record this gate/attention choice"
            ));
        }
        Ok(())
    }
}

/// A U-Net family member: the shared trunk over one feature stack.
#[derive(Debug)]
pub struct UNetPredictor {
    cfg: UNetConfig,
    trunk: UNet,
}

impl UNetPredictor {
    /// Builds the model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`UNetConfig::validate`]) — configurations are programmer-supplied;
    /// checkpoint-supplied ones go through [`ArchSpec::build`], which
    /// validates first.
    #[must_use]
    pub fn new(cfg: UNetConfig) -> Self {
        cfg.validate().expect("valid U-Net configuration");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let trunk = UNet::new(
            cfg.in_channels,
            &cfg.widths,
            cfg.stem_kernel,
            cfg.channel_attention,
            cfg.attention_gates,
            &mut rng,
        );
        UNetPredictor { cfg, trunk }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &UNetConfig {
        &self.cfg
    }
}

impl IrPredictor for UNetPredictor {
    fn arch(&self) -> ArchSpec {
        self.cfg.arch
    }

    fn input_channels(&self) -> usize {
        self.cfg.in_channels
    }

    fn input_size(&self) -> usize {
        self.cfg.input_size
    }

    /// `None` for the baseline presets: they own no `config.*` entry and
    /// rebuild from name, channel count and input size.
    fn arch_config(&self) -> Option<ArchConfig> {
        self.cfg
            .arch
            .config_entry()
            .map(|_| ArchConfig::UNet(self.cfg.clone()))
    }

    fn forward(&self, images: &Var, _cloud: Option<&PointCloud>) -> Result<Var> {
        self.trunk.forward(images)
    }
}

impl Layer for UNetPredictor {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.trunk]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::Tensor;

    fn tiny_cfirst() -> UNetConfig {
        UNetConfig {
            widths: vec![4, 8],
            input_size: 16,
            ..UNetConfig::quick(ArchSpec::CfirstNet)
        }
    }

    fn tiny_waca() -> UNetConfig {
        UNetConfig {
            widths: vec![4, 8],
            channel_attention: Some(2),
            input_size: 16,
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        }
    }

    #[test]
    fn forward_shapes_and_identity() {
        let x = Var::constant(Tensor::zeros(&[1, 8, 16, 16]));
        let c = UNetPredictor::new(tiny_cfirst());
        assert_eq!(c.forward(&x, None).unwrap().dims(), vec![1, 1, 16, 16]);
        assert_eq!(c.arch(), ArchSpec::CfirstNet);
        assert_eq!(c.name(), "CFIRSTNET");
        assert!(!c.uses_netlist(), "the netlist feeds features, not forward");
        assert_eq!(c.arch_config(), Some(ArchConfig::UNet(tiny_cfirst())));
        let w = UNetPredictor::new(tiny_waca());
        assert_eq!(w.forward(&x, None).unwrap().dims(), vec![1, 1, 16, 16]);
        assert_eq!(w.arch(), ArchSpec::WacaUnet);
        assert_eq!(w.name(), "WACA-UNet");
        assert_eq!(w.arch_config(), Some(ArchConfig::UNet(tiny_waca())));
    }

    #[test]
    fn waca_attention_adds_parameters_over_cfirst() {
        let c = UNetPredictor::new(tiny_cfirst());
        let w = UNetPredictor::new(tiny_waca());
        assert!(
            w.parameters().len() > c.parameters().len(),
            "one attention block per encoder level must show up"
        );
        let per_level = 4; // two linear layers with bias each
        assert_eq!(
            w.parameters().len() - c.parameters().len(),
            per_level * tiny_waca().widths.len()
        );
    }

    #[test]
    fn deterministic_construction() {
        let (a, b) = (
            UNetPredictor::new(tiny_waca()),
            UNetPredictor::new(tiny_waca()),
        );
        let (pa, pb) = (a.parameters(), b.parameters());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.value().data(), y.value().data());
        }
    }

    #[test]
    fn gradients_flow_everywhere() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Var::constant(lmmir_tensor::init::uniform(&[1, 8, 16, 16], 1.0, &mut rng));
        for m in [
            UNetPredictor::new(tiny_cfirst()),
            UNetPredictor::new(tiny_waca()),
        ] {
            m.forward(&x, None).unwrap().sum().backward();
            let missing = m.parameters().iter().filter(|p| p.grad().is_none()).count();
            assert_eq!(missing, 0, "{}: every parameter gets gradient", m.name());
        }
    }

    #[test]
    fn config_validation() {
        for arch in [
            ArchSpec::Iredge,
            ArchSpec::FirstPlace,
            ArchSpec::SecondPlace,
            ArchSpec::CfirstNet,
            ArchSpec::WacaUnet,
        ] {
            assert!(UNetConfig::quick(arch).validate().is_ok());
        }
        let bad = |cfg: UNetConfig| cfg.validate().is_err();
        assert!(bad(UNetConfig {
            input_size: 47,
            ..UNetConfig::quick(ArchSpec::CfirstNet)
        }));
        assert!(bad(UNetConfig {
            channel_attention: Some(0),
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        }));
        assert!(bad(UNetConfig {
            widths: vec![8],
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        }));
        // What `config.cfirstnet` / `config.waca` cannot record is fixed.
        assert!(bad(UNetConfig {
            channel_attention: Some(4),
            ..UNetConfig::quick(ArchSpec::CfirstNet)
        }));
        assert!(bad(UNetConfig {
            channel_attention: None,
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        }));
        assert!(bad(UNetConfig {
            attention_gates: true,
            ..UNetConfig::quick(ArchSpec::CfirstNet)
        }));
        assert!(bad(UNetConfig {
            arch: ArchSpec::LmmIr,
            ..UNetConfig::quick(ArchSpec::Iredge)
        }));
    }

    #[test]
    fn quantize_covers_trunk_and_attention() {
        let c = UNetPredictor::new(tiny_cfirst());
        let w = UNetPredictor::new(tiny_waca());
        let (qc, qw) = (c.quantize(), w.quantize());
        assert!(qc > 0);
        assert_eq!(
            qw,
            qc + 2 * tiny_waca().widths.len(),
            "each attention block quantizes its two linear layers"
        );
    }
}
