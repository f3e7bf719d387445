//! Shared U-Net building blocks: the encoder and decoder LMM-IR puts its
//! fusion between, and the [`UNet`] trunk every other U-Net family is.

use lmmir_nn::{
    AttentionGate, BatchNorm2d, ChannelAttention, Conv2d, ConvTranspose2d, Layer, Module,
};
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{Result, Var};
use rand::Rng;

/// Largest channel count of one U-Net stage (4× the paper's widest, 512).
pub(crate) const MAX_WIDTH: usize = 2048;
/// Largest square input size (4× the paper's 512 px).
pub(crate) const MAX_INPUT_SIZE: usize = 2048;
/// Largest input channel count (the paper's stacks have 6 or 8 channels;
/// the dynamic family's windows are capped at the same 64, `MAX_WINDOWS`).
pub(crate) const MAX_IN_CHANNELS: usize = 64;
/// Largest stem kernel side (the paper's is 7).
pub(crate) const MAX_STEM_KERNEL: usize = 31;

/// Validates a U-Net channel plan as every family's `validate` needs it:
/// at least two widths (one pooling stage), an input size divisible by
/// 2^pools, and every size within its cap. A checkpoint's `config.*`
/// entry sizes every weight before any parameter buffer is read, so the
/// caps are what keeps a tampered entry an `Err` instead of an allocation
/// the process cannot survive.
///
/// # Errors
///
/// Returns a human-readable description naming the violated field.
pub(crate) fn validate_plan(
    in_channels: usize,
    widths: &[usize],
    stem_kernel: usize,
    input_size: usize,
) -> std::result::Result<(), String> {
    if widths.len() < 2 {
        return Err("need at least two widths (one pooling stage)".to_string());
    }
    if let Some((i, w)) = widths
        .iter()
        .enumerate()
        .find(|(_, &w)| w == 0 || w > MAX_WIDTH)
    {
        return Err(format!("widths[{i}] = {w} out of 1..={MAX_WIDTH}"));
    }
    for (field, value, cap) in [
        ("in_channels", in_channels, MAX_IN_CHANNELS),
        ("stem_kernel", stem_kernel, MAX_STEM_KERNEL),
        ("input_size", input_size, MAX_INPUT_SIZE),
    ] {
        if value == 0 || value > cap {
            return Err(format!("{field} {value} out of 1..={cap}"));
        }
    }
    let pools = widths.len() - 1;
    if input_size % (1 << pools) != 0 {
        return Err(format!(
            "input size {input_size} not divisible by 2^{pools}"
        ));
    }
    Ok(())
}

/// `(Conv k×k + BN + ReLU) × 2` — the basic encoder/decoder block of the
/// paper's architecture (Fig. 2 uses 7×7 in the input block, 3×3 deeper).
#[derive(Debug)]
pub struct DoubleConv {
    c1: Conv2d,
    b1: BatchNorm2d,
    c2: Conv2d,
    b2: BatchNorm2d,
}

impl DoubleConv {
    /// Creates a block with kernel `k1` for the first conv and `k2` for the
    /// second ("same" padding on both).
    #[must_use]
    pub fn new(in_ch: usize, out_ch: usize, k1: usize, k2: usize, rng: &mut impl Rng) -> Self {
        DoubleConv {
            c1: Conv2d::new(in_ch, out_ch, k1, ConvSpec::new(1, k1 / 2), true, rng),
            b1: BatchNorm2d::new(out_ch),
            c2: Conv2d::new(out_ch, out_ch, k2, ConvSpec::new(1, k2 / 2), true, rng),
            b2: BatchNorm2d::new(out_ch),
        }
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.c2.out_channels()
    }
}

impl Module for DoubleConv {
    fn forward(&self, x: &Var) -> Result<Var> {
        let h = self.b1.forward(&self.c1.forward(x)?)?.relu();
        Ok(self.b2.forward(&self.c2.forward(&h)?)?.relu())
    }
}

impl Layer for DoubleConv {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.c1, &self.b1, &self.c2, &self.b2]
    }
}

/// Downsampling circuit encoder: a stem block at full resolution followed by
/// `widths.len() - 1` stages of max-pool ×2 + [`DoubleConv`].
///
/// Returns all intermediate features as skip connections (the last one is
/// the bottleneck).
#[derive(Debug)]
pub struct UNetEncoder {
    stem: DoubleConv,
    stages: Vec<DoubleConv>,
    widths: Vec<usize>,
}

impl UNetEncoder {
    /// Builds an encoder over channel plan `widths` (e.g. `[16, 32, 64]` =
    /// stem to 16 channels, two pooled stages to 32 and 64).
    ///
    /// `stem_kernel` is the first conv's kernel (7 in the paper).
    ///
    /// # Panics
    ///
    /// Panics when `widths` is empty.
    #[must_use]
    pub fn new(in_ch: usize, widths: &[usize], stem_kernel: usize, rng: &mut impl Rng) -> Self {
        assert!(!widths.is_empty(), "encoder needs at least one width");
        let stem = DoubleConv::new(in_ch, widths[0], stem_kernel, 3, rng);
        let stages = widths
            .windows(2)
            .map(|w| DoubleConv::new(w[0], w[1], 3, 3, rng))
            .collect();
        UNetEncoder {
            stem,
            stages,
            widths: widths.to_vec(),
        }
    }

    /// The channel plan.
    #[must_use]
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Runs the encoder; `out[i]` is the feature at `1/2^i` resolution and
    /// `out.last()` is the bottleneck.
    ///
    /// # Errors
    ///
    /// Returns shape errors when the input is too small for the pools.
    pub fn encode(&self, x: &Var) -> Result<Vec<Var>> {
        let mut features = Vec::with_capacity(self.widths.len());
        let mut cur = self.stem.forward(x)?;
        features.push(cur.clone());
        for stage in &self.stages {
            cur = stage.forward(&cur.max_pool2d(2, 2)?)?;
            features.push(cur.clone());
        }
        Ok(features)
    }
}

impl Layer for UNetEncoder {
    fn children(&self) -> Vec<&dyn Layer> {
        std::iter::once(&self.stem)
            .chain(&self.stages)
            .map(|b| b as &dyn Layer)
            .collect()
    }
}

/// Upsampling decoder: `widths.len() - 1` stages of deconv ×2 + optional
/// attention-gated skip + concat + [`DoubleConv`], then a 1×1 output conv.
#[derive(Debug)]
pub struct UNetDecoder {
    ups: Vec<ConvTranspose2d>,
    gates: Option<Vec<AttentionGate>>,
    convs: Vec<DoubleConv>,
    out: Conv2d,
}

impl UNetDecoder {
    /// Builds a decoder matching an encoder with the same `widths`.
    ///
    /// With `attention_gates`, each skip connection is modulated by an
    /// [`AttentionGate`] before concatenation (the paper's design); without,
    /// it degenerates to a plain U-Net decoder (ablation "W-Att").
    ///
    /// # Panics
    ///
    /// Panics when `widths` has fewer than two entries.
    #[must_use]
    pub fn new(widths: &[usize], out_ch: usize, attention_gates: bool, rng: &mut impl Rng) -> Self {
        assert!(widths.len() >= 2, "decoder needs at least two widths");
        let mut ups = Vec::new();
        let mut gates = Vec::new();
        let mut convs = Vec::new();
        for i in (0..widths.len() - 1).rev() {
            ups.push(ConvTranspose2d::upsample2(widths[i + 1], widths[i], rng));
            if attention_gates {
                gates.push(AttentionGate::new(
                    widths[i],
                    widths[i],
                    (widths[i] / 2).max(1),
                    rng,
                ));
            }
            convs.push(DoubleConv::new(widths[i] * 2, widths[i], 3, 3, rng));
        }
        let out = Conv2d::new(widths[0], out_ch, 1, ConvSpec::new(1, 0), true, rng);
        // Small-init the output head so an untrained model predicts ≈ 0 and
        // regression starts from the target's order of magnitude instead of
        // from ±(activation scale) — standard practice for dense regression.
        for p in out.parameters() {
            p.update_value(|t| t.map_inplace(|v| v * 0.05));
        }
        UNetDecoder {
            ups,
            gates: attention_gates.then_some(gates),
            convs,
            out,
        }
    }

    /// Decodes from the bottleneck using encoder skips (`features` as
    /// returned by [`UNetEncoder::encode`]).
    ///
    /// # Errors
    ///
    /// Returns shape errors when skips do not align spatially.
    pub fn decode(&self, features: &[Var]) -> Result<Var> {
        let mut cur = features
            .last()
            .expect("decoder needs the bottleneck feature")
            .clone();
        for (i, up) in self.ups.iter().enumerate() {
            let skip_ix = features.len() - 2 - i;
            cur = up.forward(&cur)?;
            let mut skip = features[skip_ix].clone();
            if let Some(gates) = &self.gates {
                skip = gates[i].forward_gated(&cur, &skip)?;
            }
            cur = self.convs[i].forward(&Var::concat(&[&cur, &skip], 1)?)?;
        }
        self.out.forward(&cur)
    }
}

impl Layer for UNetDecoder {
    fn children(&self) -> Vec<&dyn Layer> {
        let mut c: Vec<&dyn Layer> = Vec::new();
        c.extend(self.ups.iter().map(|u| u as &dyn Layer));
        c.extend(self.gates.iter().flatten().map(|g| g as &dyn Layer));
        c.extend(self.convs.iter().map(|d| d as &dyn Layer));
        c.push(&self.out);
        c
    }
}

/// The U-Net trunk every non-multimodal family is an instance of:
/// [`UNetEncoder`] → optional per-level [`ChannelAttention`] (WACA-UNet:
/// every encoder feature, skips *and* bottleneck, is recalibrated before
/// the decoder consumes it) → [`UNetDecoder`] with optional attention gates.
#[derive(Debug)]
pub struct UNet {
    encoder: UNetEncoder,
    attention: Vec<ChannelAttention>,
    decoder: UNetDecoder,
}

impl UNet {
    /// Builds a single-output trunk over channel plan `widths`.
    /// `channel_attention` is the squeeze-excitation reduction ratio of the
    /// per-level attention blocks, `None` for a trunk without them. Weights
    /// are drawn encoder first, then attention, then decoder.
    ///
    /// # Panics
    ///
    /// Panics when `widths` has fewer than two entries.
    #[must_use]
    pub fn new(
        in_ch: usize,
        widths: &[usize],
        stem_kernel: usize,
        channel_attention: Option<usize>,
        attention_gates: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let encoder = UNetEncoder::new(in_ch, widths, stem_kernel, rng);
        let attention = match channel_attention {
            Some(reduction) => widths
                .iter()
                .map(|&w| ChannelAttention::new(w, reduction, rng))
                .collect(),
            None => Vec::new(),
        };
        let decoder = UNetDecoder::new(widths, 1, attention_gates, rng);
        UNet {
            encoder,
            attention,
            decoder,
        }
    }
}

impl Module for UNet {
    fn forward(&self, x: &Var) -> Result<Var> {
        let mut features = self.encoder.encode(x)?;
        for (f, a) in features.iter_mut().zip(&self.attention) {
            *f = a.forward(f)?;
        }
        self.decoder.decode(&features)
    }
}

impl Layer for UNet {
    fn children(&self) -> Vec<&dyn Layer> {
        let mut c: Vec<&dyn Layer> = vec![&self.encoder];
        c.extend(self.attention.iter().map(|a| a as &dyn Layer));
        c.push(&self.decoder);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn double_conv_preserves_spatial() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = DoubleConv::new(3, 8, 7, 3, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 3, 16, 16]));
        let y = b.forward(&x).unwrap();
        assert_eq!(y.dims(), vec![1, 8, 16, 16]);
        assert_eq!(b.out_channels(), 8);
    }

    #[test]
    fn encoder_produces_pyramid() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = UNetEncoder::new(6, &[8, 16, 32], 7, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 6, 32, 32]));
        let feats = enc.encode(&x).unwrap();
        assert_eq!(feats.len(), 3);
        assert_eq!(feats[0].dims(), vec![1, 8, 32, 32]);
        assert_eq!(feats[1].dims(), vec![1, 16, 16, 16]);
        assert_eq!(feats[2].dims(), vec![1, 32, 8, 8]);
    }

    #[test]
    fn decoder_restores_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = UNetEncoder::new(3, &[8, 16], 3, &mut rng);
        let dec = UNetDecoder::new(&[8, 16], 1, true, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 3, 16, 16]));
        let y = dec.decode(&enc.encode(&x).unwrap()).unwrap();
        assert_eq!(y.dims(), vec![1, 1, 16, 16]);
    }

    #[test]
    fn decoder_without_gates_also_works() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = UNetEncoder::new(3, &[4, 8, 16], 3, &mut rng);
        let dec = UNetDecoder::new(&[4, 8, 16], 1, false, &mut rng);
        let x = Var::constant(Tensor::zeros(&[2, 3, 16, 16]));
        let y = dec.decode(&enc.encode(&x).unwrap()).unwrap();
        assert_eq!(y.dims(), vec![2, 1, 16, 16]);
    }

    #[test]
    fn gated_decoder_has_more_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let plain = UNetDecoder::new(&[8, 16], 1, false, &mut rng);
        let gated = UNetDecoder::new(&[8, 16], 1, true, &mut rng);
        assert!(gated.parameters().len() > plain.parameters().len());
    }

    #[test]
    fn end_to_end_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = UNetEncoder::new(2, &[4, 8], 3, &mut rng);
        let dec = UNetDecoder::new(&[4, 8], 1, true, &mut rng);
        let x = Var::constant(lmmir_tensor::init::uniform(&[1, 2, 8, 8], 1.0, &mut rng));
        let y = dec.decode(&enc.encode(&x).unwrap()).unwrap();
        y.sum().backward();
        let with_grad = enc
            .parameters()
            .iter()
            .chain(dec.parameters().iter())
            .filter(|p| p.grad().is_some())
            .count();
        let total = enc.parameters().len() + dec.parameters().len();
        assert_eq!(with_grad, total, "every parameter should receive gradient");
    }
}
