//! The LMM-IR model: circuit encoder + LNT + cross-attention fusion +
//! multimodal decoder (paper §III, Fig. 2).

use crate::blocks::{UNetDecoder, UNetEncoder};
use crate::lnt::{Lnt, LntConfig};
use crate::pointcloud::PointCloud;
use lmmir_nn::{Conv2d, Layer, Linear, Module, MultiHeadAttention};
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{Result, TensorError, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Common interface of every IR-drop predictor in the reproduction
/// (LMM-IR and all baselines), so the trainer and the benchmark harness
/// treat them uniformly.
///
/// A predictor is a [`Layer`]: its parts, parameters, buffers, train/eval
/// switch and int8 switch are the one walk every layer has, and a
/// checkpoint is its [`lmmir_nn::state_dict`]. `Layer`'s `Send + Sync`
/// supertrait means one loaded model serves every inference lane of
/// `lmmir-serve` at once (a forward only reads its state; see
/// [`lmmir_tensor::Var`]).
pub trait IrPredictor: Layer {
    /// The architecture descriptor this model is an instance of — the
    /// single identity the registry, the checkpoint layer and the benchmark
    /// harness dispatch on.
    fn arch(&self) -> crate::arch::ArchSpec;

    /// Model name as used in the paper's tables (derived from the
    /// descriptor; never override).
    fn name(&self) -> &'static str {
        self.arch().name()
    }

    /// Number of input image channels the model expects.
    fn input_channels(&self) -> usize;

    /// Square input size the model was configured for.
    fn input_size(&self) -> usize;

    /// Whether the model consumes the netlist modality.
    fn uses_netlist(&self) -> bool {
        false
    }

    /// The full family-tagged configuration, for models that carry one.
    /// Baselines return `None` — their architecture is fully determined by
    /// name, channel count and input size. A checkpoint serializes this into
    /// a `config.*` entry, so a trained non-`quick()` model reconstructs
    /// exactly.
    fn arch_config(&self) -> Option<crate::arch::ArchConfig> {
        None
    }

    /// Predicts an IR-drop map `[N, 1, H, W]` from images `[N, C, H, W]`
    /// and (for multimodal models) the netlist point cloud.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs.
    fn forward(&self, images: &Var, cloud: Option<&PointCloud>) -> Result<Var>;
}

/// Cross-attention fusion of circuit tokens (queries) with netlist tokens
/// (keys/values), as in the paper's "Netlist & Image Alignment and fusion"
/// stage.
#[derive(Debug)]
pub struct FusionModule {
    kv_proj: Linear,
    cross: MultiHeadAttention,
    mix: Conv2d,
}

impl FusionModule {
    /// Builds a fusion module for a bottleneck of `channels` and netlist
    /// tokens of width `lnt_dim`.
    #[must_use]
    pub fn new(channels: usize, lnt_dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        FusionModule {
            kv_proj: Linear::new(lnt_dim, channels, true, rng),
            cross: MultiHeadAttention::new(channels, heads, rng),
            mix: Conv2d::new(channels, channels, 1, ConvSpec::new(1, 0), true, rng),
        }
    }

    /// Fuses netlist tokens into the bottleneck feature map (residual):
    /// every spatial position attends over all netlist tokens.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for a non-singleton batch (the
    /// cloud is per-sample) or mismatched widths.
    pub fn fuse(&self, bottleneck: &Var, tokens: &Var) -> Result<Var> {
        let d = bottleneck.dims();
        if d.len() != 4 || d[0] != 1 {
            return Err(TensorError::InvalidShape {
                dims: d,
                reason: "fusion expects a [1, C, H, W] bottleneck".to_string(),
            });
        }
        let (c, h, w) = (d[1], d[2], d[3]);
        let q = bottleneck.reshape(&[1, c, h * w])?.permute(&[0, 2, 1])?;
        let kv = self.kv_proj.forward(tokens)?;
        let fused = self.cross.forward_qkv(&q, &kv, &kv)?;
        let fused = fused.permute(&[0, 2, 1])?.reshape(&[1, c, h, w])?;
        let residual = bottleneck.add(&fused)?;
        Ok(self.mix.forward(&residual)?.relu())
    }
}

impl Layer for FusionModule {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.kv_proj, &self.cross, &self.mix]
    }
}

/// Configuration of the LMM-IR model.
///
/// The ablation switches map to the paper's Fig. 4 configurations:
/// `use_lnt = false` → "W-LNT"; `use_attention_gates = false` → "W-Att";
/// both off and 3 input channels → "EC" (plain encoder-decoder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmmIrConfig {
    /// Input image channels (6 for the paper's extended stack).
    pub in_channels: usize,
    /// Encoder/decoder channel plan; `len - 1` pooling stages.
    pub widths: Vec<usize>,
    /// Stem kernel size (7 in the paper).
    pub stem_kernel: usize,
    /// LNT hyper-parameters.
    pub lnt: LntConfig,
    /// Enable the netlist branch + fusion.
    pub use_lnt: bool,
    /// Enable attention gates on decoder skips.
    pub use_attention_gates: bool,
    /// Square input size the model trains at (512 in the paper).
    pub input_size: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl LmmIrConfig {
    /// Laptop-scale preset for the reproduction harness.
    #[must_use]
    pub fn quick() -> Self {
        LmmIrConfig {
            in_channels: 6,
            widths: vec![12, 24, 48],
            stem_kernel: 7,
            lnt: LntConfig::quick(),
            use_lnt: true,
            use_attention_gates: true,
            input_size: 48,
            seed: 0xA11CE,
        }
    }

    /// Paper-scale preset (512×512 inputs, 4 pooling stages, full LNT).
    #[must_use]
    pub fn paper() -> Self {
        LmmIrConfig {
            in_channels: 6,
            widths: vec![64, 128, 256, 512, 512],
            stem_kernel: 7,
            lnt: LntConfig::paper(),
            use_lnt: true,
            use_attention_gates: true,
            input_size: 512,
            seed: 0xA11CE,
        }
    }

    /// Validates internal consistency (pooling divisibility, non-empty plan).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> std::result::Result<(), String> {
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
        Ok(())
    }
}

/// The LMM-IR model.
#[derive(Debug)]
pub struct LmmIr {
    cfg: LmmIrConfig,
    encoder: UNetEncoder,
    lnt: Option<Lnt>,
    fusion: Option<FusionModule>,
    decoder: UNetDecoder,
}

impl LmmIr {
    /// Builds the model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`LmmIrConfig::validate`]) — configurations are programmer-supplied.
    #[must_use]
    pub fn new(cfg: LmmIrConfig) -> Self {
        cfg.validate().expect("valid LMM-IR configuration");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let encoder = UNetEncoder::new(cfg.in_channels, &cfg.widths, cfg.stem_kernel, &mut rng);
        let bottleneck = *cfg.widths.last().expect("non-empty widths");
        let (lnt, fusion) = if cfg.use_lnt {
            let lnt = Lnt::new(cfg.lnt, &mut rng);
            let heads = cfg.lnt.heads.min(bottleneck);
            let heads = (1..=heads).rev().find(|h| bottleneck % h == 0).unwrap_or(1);
            (
                Some(lnt),
                Some(FusionModule::new(
                    bottleneck,
                    cfg.lnt.d_model,
                    heads,
                    &mut rng,
                )),
            )
        } else {
            (None, None)
        };
        let decoder = UNetDecoder::new(&cfg.widths, 1, cfg.use_attention_gates, &mut rng);
        LmmIr {
            cfg,
            encoder,
            lnt,
            fusion,
            decoder,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &LmmIrConfig {
        &self.cfg
    }
}

impl IrPredictor for LmmIr {
    fn arch(&self) -> crate::arch::ArchSpec {
        crate::arch::ArchSpec::LmmIr
    }

    fn input_channels(&self) -> usize {
        self.cfg.in_channels
    }

    fn input_size(&self) -> usize {
        self.cfg.input_size
    }

    fn uses_netlist(&self) -> bool {
        self.cfg.use_lnt
    }

    fn arch_config(&self) -> Option<crate::arch::ArchConfig> {
        Some(crate::arch::ArchConfig::LmmIr(self.cfg.clone()))
    }

    fn forward(&self, images: &Var, cloud: Option<&PointCloud>) -> Result<Var> {
        let mut features = self.encoder.encode(images)?;
        if let (Some(lnt), Some(fusion), Some(cloud)) = (&self.lnt, &self.fusion, cloud) {
            let tokens = lnt.encode_cloud(cloud)?;
            let bottleneck = features.last().expect("encoder output").clone();
            let fused = fusion.fuse(&bottleneck, &tokens)?;
            *features.last_mut().expect("encoder output") = fused;
        }
        self.decoder.decode(&features)
    }
}

impl Layer for LmmIr {
    fn children(&self) -> Vec<&dyn Layer> {
        let mut c: Vec<&dyn Layer> = vec![&self.encoder];
        c.extend(self.lnt.iter().map(|l| l as &dyn Layer));
        c.extend(self.fusion.iter().map(|f| f as &dyn Layer));
        c.push(&self.decoder);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec};
    use lmmir_tensor::Tensor;

    fn tiny_cfg() -> LmmIrConfig {
        LmmIrConfig {
            in_channels: 6,
            widths: vec![4, 8],
            stem_kernel: 3,
            lnt: LntConfig {
                d_model: 8,
                heads: 2,
                layers: 1,
                max_points: 64,
                chunk: 64,
                ff_mult: 2,
            },
            use_lnt: true,
            use_attention_gates: true,
            input_size: 16,
            seed: 1,
        }
    }

    fn cloud() -> PointCloud {
        let case = CaseSpec::new("t", 16, 16, 4, CaseKind::Fake).generate();
        PointCloud::from_netlist(&case.netlist, case.tech.dbu_per_um, 16.0, 16.0)
    }

    #[test]
    fn forward_shapes() {
        let m = LmmIr::new(tiny_cfg());
        let x = Var::constant(Tensor::zeros(&[1, 6, 16, 16]));
        let y = m.forward(&x, Some(&cloud())).unwrap();
        assert_eq!(y.dims(), vec![1, 1, 16, 16]);
        assert!(m.uses_netlist());
        assert_eq!(m.name(), "LMM-IR");
    }

    #[test]
    fn forward_without_cloud_still_works() {
        let m = LmmIr::new(tiny_cfg());
        let x = Var::constant(Tensor::zeros(&[1, 6, 16, 16]));
        let y = m.forward(&x, None).unwrap();
        assert_eq!(y.dims(), vec![1, 1, 16, 16]);
    }

    #[test]
    fn ablated_model_has_fewer_parameters() {
        let full = LmmIr::new(tiny_cfg());
        let mut cfg = tiny_cfg();
        cfg.use_lnt = false;
        let no_lnt = LmmIr::new(cfg);
        assert!(no_lnt.parameters().len() < full.parameters().len());
        assert!(!no_lnt.uses_netlist());
        let mut cfg2 = tiny_cfg();
        cfg2.use_attention_gates = false;
        let no_att = LmmIr::new(cfg2);
        assert!(no_att.parameters().len() < full.parameters().len());
    }

    #[test]
    fn config_validation() {
        assert!(LmmIrConfig::quick().validate().is_ok());
        assert!(LmmIrConfig::paper().validate().is_ok());
        let mut bad = LmmIrConfig::quick();
        bad.input_size = 47; // not divisible by 4
        assert!(bad.validate().is_err());
        let mut bad2 = LmmIrConfig::quick();
        bad2.widths = vec![8];
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn gradients_reach_both_modalities() {
        let m = LmmIr::new(tiny_cfg());
        let x = Var::constant(lmmir_tensor::init::uniform(
            &[1, 6, 16, 16],
            1.0,
            &mut rand::rngs::StdRng::seed_from_u64(9),
        ));
        m.forward(&x, Some(&cloud())).unwrap().sum().backward();
        let missing = m.parameters().iter().filter(|p| p.grad().is_none()).count();
        assert_eq!(missing, 0, "all parameters should receive gradient");
    }

    #[test]
    fn deterministic_construction() {
        let a = LmmIr::new(tiny_cfg());
        let b = LmmIr::new(tiny_cfg());
        let pa = a.parameters();
        let pb = b.parameters();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.value().data(), y.value().data());
        }
    }

    #[test]
    fn fusion_rejects_batched_bottleneck() {
        let mut rng = StdRng::seed_from_u64(0);
        let f = FusionModule::new(8, 8, 2, &mut rng);
        let b = Var::constant(Tensor::zeros(&[2, 8, 4, 4]));
        let t = Var::constant(Tensor::zeros(&[1, 4, 8]));
        assert!(f.fuse(&b, &t).is_err());
    }
}
