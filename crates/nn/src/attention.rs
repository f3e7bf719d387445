//! Attention blocks: multi-head self/cross attention and the attention gate.
//!
//! LMM-IR uses three flavours of attention (paper §II-C / §III):
//! * **self-attention** inside the Large-scale Netlist Transformer,
//! * **cross-attention** to fuse circuit-map tokens with netlist tokens,
//! * **attention gates** (Attention U-Net, Oktay et al. 2018) on the skip
//!   connections of the decoder to suppress irrelevant regions.

use crate::conv::Conv2d;
use crate::linear::Linear;
use crate::module::{Layer, Module};
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{Result, TensorError, Var};
use rand::Rng;

/// Multi-head scaled dot-product attention with learned Q/K/V/O projections.
///
/// `forward_qkv(q, k, v)` computes standard attention where the query stream
/// may differ from the key/value stream, covering both the self-attention
/// (`q = k = v`) and cross-attention (`q` = circuit tokens, `k = v` = netlist
/// tokens) configurations of the paper.
#[derive(Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block.
    ///
    /// # Panics
    ///
    /// Panics when `d_model` is not divisible by `heads`.
    #[must_use]
    pub fn new(d_model: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            heads > 0 && d_model % heads == 0,
            "d_model {d_model} must be divisible by heads {heads}"
        );
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, true, rng),
            wk: Linear::new(d_model, d_model, true, rng),
            wv: Linear::new(d_model, d_model, true, rng),
            wo: Linear::new(d_model, d_model, true, rng),
            heads,
            d_model,
        }
    }

    /// Model (embedding) dimension.
    #[must_use]
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Number of attention heads.
    #[must_use]
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Splits `[B, N, D]` into `[B*H, N, D/H]`.
    fn split_heads(&self, x: &Var) -> Result<Var> {
        let dims = x.dims();
        let (b, n) = (dims[0], dims[1]);
        let dh = self.d_model / self.heads;
        x.reshape(&[b, n, self.heads, dh])?
            .permute(&[0, 2, 1, 3])?
            .reshape(&[b * self.heads, n, dh])
    }

    /// Merges `[B*H, N, D/H]` back into `[B, N, D]`.
    fn merge_heads(&self, x: &Var, b: usize, n: usize) -> Result<Var> {
        let dh = self.d_model / self.heads;
        x.reshape(&[b, self.heads, n, dh])?
            .permute(&[0, 2, 1, 3])?
            .reshape(&[b, n, self.d_model])
    }

    /// Attention with distinct query and key/value streams.
    ///
    /// Shapes: `q [B, Nq, D]`, `k`/`v` `[B, Nk, D]` → `[B, Nq, D]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for non-rank-3 inputs or a
    /// feature dimension that differs from `d_model`.
    pub fn forward_qkv(&self, q: &Var, k: &Var, v: &Var) -> Result<Var> {
        for (name, t) in [("q", q), ("k", k), ("v", v)] {
            let d = t.dims();
            if d.len() != 3 || d[2] != self.d_model {
                return Err(TensorError::InvalidShape {
                    dims: d,
                    reason: format!("attention {name} must be [B, N, {}]", self.d_model),
                });
            }
        }
        let (b, nq) = (q.dims()[0], q.dims()[1]);
        let qh = self.split_heads(&self.wq.forward(q)?)?;
        let kh = self.split_heads(&self.wk.forward(k)?)?;
        let vh = self.split_heads(&self.wv.forward(v)?)?;
        let dh = (self.d_model / self.heads) as f32;
        // scores [B*H, Nq, Nk] = Q K^T / sqrt(dh)
        let scores = qh.bmm(&kh.permute(&[0, 2, 1])?)?.scale(1.0 / dh.sqrt());
        let attn = scores.softmax_last();
        let ctx = attn.bmm(&vh)?;
        let merged = self.merge_heads(&ctx, b, nq)?;
        self.wo.forward(&merged)
    }
}

impl Module for MultiHeadAttention {
    /// Self-attention: `forward(x) = forward_qkv(x, x, x)`.
    fn forward(&self, x: &Var) -> Result<Var> {
        self.forward_qkv(x, x, x)
    }
}

impl Layer for MultiHeadAttention {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.wq, &self.wk, &self.wv, &self.wo]
    }
}

/// Attention gate on a U-Net skip connection (Attention U-Net).
///
/// Given the gating signal `g` (decoder feature) and the skip feature `x`
/// (encoder feature) at the same spatial resolution, computes
/// `psi = sigmoid(conv1(relu(convg(g) + convx(x))))` and returns `x * psi`,
/// letting the decoder suppress feature responses in irrelevant IR regions
/// (paper §II-C).
#[derive(Debug)]
pub struct AttentionGate {
    conv_g: Conv2d,
    conv_x: Conv2d,
    psi: Conv2d,
}

impl AttentionGate {
    /// Creates an attention gate.
    ///
    /// `g_channels`/`x_channels` are the gating and skip channel counts,
    /// `inter_channels` the bottleneck width of the additive attention.
    #[must_use]
    pub fn new(
        g_channels: usize,
        x_channels: usize,
        inter_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let one = ConvSpec::new(1, 0);
        AttentionGate {
            conv_g: Conv2d::new(g_channels, inter_channels, 1, one, true, rng),
            conv_x: Conv2d::new(x_channels, inter_channels, 1, one, true, rng),
            psi: Conv2d::new(inter_channels, 1, 1, one, true, rng),
        }
    }

    /// Applies the gate: returns the skip feature `x` modulated by attention
    /// coefficients derived from `g` and `x`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `g` and `x` disagree spatially.
    pub fn forward_gated(&self, g: &Var, x: &Var) -> Result<Var> {
        let gd = g.dims();
        let xd = x.dims();
        if gd.len() != 4 || xd.len() != 4 || gd[2] != xd[2] || gd[3] != xd[3] || gd[0] != xd[0] {
            return Err(TensorError::InvalidShape {
                dims: gd,
                reason: format!("attention gate needs matching N/H/W, got x {xd:?}"),
            });
        }
        let a = self.conv_g.forward(g)?;
        let b = self.conv_x.forward(x)?;
        let act = a.add(&b)?.relu();
        let psi = self.psi.forward(&act)?.sigmoid(); // [N, 1, H, W]
        x.mul(&psi)
    }
}

impl Layer for AttentionGate {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.conv_g, &self.conv_x, &self.psi]
    }
}

/// Weakness-aware channel attention (WACA-UNet, arXiv:2507.19197).
///
/// Squeeze-and-excitation style channel recalibration with a second
/// "weakness" pooling branch: alongside the usual global average of each
/// channel, the block pools the magnitude of the *negative* responses
/// (`mean(relu(-x))`), letting the gate react to channels whose activations
/// collapse in weak-signal regions — exactly the under-driven areas where
/// IR hotspots hide. Both pooled vectors pass through a shared two-layer
/// MLP with reduction ratio `r`; the sigmoid of their sum gates the input
/// per channel.
#[derive(Debug)]
pub struct ChannelAttention {
    fc1: Linear,
    fc2: Linear,
    channels: usize,
}

impl ChannelAttention {
    /// Creates a channel-attention block over `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics when `channels` or `reduction` is zero.
    #[must_use]
    pub fn new(channels: usize, reduction: usize, rng: &mut impl Rng) -> Self {
        assert!(
            channels > 0 && reduction > 0,
            "channel attention needs channels {channels} > 0 and reduction {reduction} > 0"
        );
        let hidden = (channels / reduction).max(1);
        ChannelAttention {
            fc1: Linear::new(channels, hidden, true, rng),
            fc2: Linear::new(hidden, channels, true, rng),
            channels,
        }
    }

    /// Channel count the block was built for.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Shared excitation MLP applied to a pooled `[N, C]` descriptor.
    fn excite(&self, pooled: &Var) -> Result<Var> {
        self.fc2.forward(&self.fc1.forward(pooled)?.relu())
    }
}

impl Module for ChannelAttention {
    /// Gates `x` (`[N, C, H, W]`) per channel; output shape equals input.
    fn forward(&self, x: &Var) -> Result<Var> {
        let d = x.dims();
        if d.len() != 4 || d[1] != self.channels {
            return Err(TensorError::InvalidShape {
                dims: d,
                reason: format!("channel attention expects [N, {}, H, W]", self.channels),
            });
        }
        let (n, c) = (d[0], d[1]);
        // Strength branch: global average pooling per channel.
        let avg = x.mean_axes(&[2, 3], false)?;
        // Weakness branch: average magnitude of the negative responses.
        let weak = x.scale(-1.0).relu().mean_axes(&[2, 3], false)?;
        let gate = self
            .excite(&avg)?
            .add(&self.excite(&weak)?)?
            .sigmoid()
            .reshape(&[n, c, 1, 1])?;
        x.mul(&gate)
    }
}

impl Layer for ChannelAttention {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.fc1, &self.fc2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_var(dims: &[usize], seed: u64) -> Var {
        let mut rng = StdRng::seed_from_u64(seed);
        Var::constant(lmmir_tensor::init::uniform(dims, 1.0, &mut rng))
    }

    #[test]
    fn self_attention_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(16, 4, &mut rng);
        let x = rand_var(&[2, 10, 16], 1);
        let y = attn.forward(&x).unwrap();
        assert_eq!(y.dims(), vec![2, 10, 16]);
    }

    #[test]
    fn cross_attention_uses_query_length() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let q = rand_var(&[1, 5, 8], 2);
        let kv = rand_var(&[1, 12, 8], 3);
        let y = attn.forward_qkv(&q, &kv, &kv).unwrap();
        assert_eq!(y.dims(), vec![1, 5, 8]);
    }

    #[test]
    fn attention_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = rand_var(&[1, 5, 7], 4);
        assert!(attn.forward(&x).is_err());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn attention_panics_on_bad_heads() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiHeadAttention::new(10, 3, &mut rng);
    }

    #[test]
    fn attention_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = rand_var(&[1, 4, 8], 5);
        attn.forward(&x).unwrap().sum().backward();
        assert!(attn.parameters().iter().all(|p| p.grad().is_some()));
        assert_eq!(attn.parameters().len(), 8);
    }

    #[test]
    fn attention_rows_mix_tokens() {
        // With identical tokens, output rows must be identical; with
        // distinct tokens they generally differ.
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(4, 1, &mut rng);
        let same = Var::constant(Tensor::ones(&[1, 3, 4]));
        let y = attn.forward(&same).unwrap().to_tensor();
        let rows: Vec<&[f32]> = y.data().chunks(4).collect();
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[1], rows[2]);
    }

    #[test]
    fn gate_output_bounded_by_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let gate = AttentionGate::new(4, 6, 3, &mut rng);
        let g = rand_var(&[2, 4, 8, 8], 7);
        let x = rand_var(&[2, 6, 8, 8], 8);
        let y = gate.forward_gated(&g, &x).unwrap();
        assert_eq!(y.dims(), vec![2, 6, 8, 8]);
        // psi in (0,1) so |y| <= |x| elementwise.
        let xv = x.to_tensor();
        for (yo, xo) in y.value().data().iter().zip(xv.data()) {
            assert!(yo.abs() <= xo.abs() + 1e-6);
        }
    }

    #[test]
    fn gate_rejects_spatial_mismatch() {
        let mut rng = StdRng::seed_from_u64(0);
        let gate = AttentionGate::new(4, 6, 3, &mut rng);
        let g = rand_var(&[1, 4, 8, 8], 9);
        let x = rand_var(&[1, 6, 4, 4], 10);
        assert!(gate.forward_gated(&g, &x).is_err());
    }

    #[test]
    fn channel_attention_gates_per_channel() {
        let mut rng = StdRng::seed_from_u64(0);
        let ca = ChannelAttention::new(6, 2, &mut rng);
        let x = rand_var(&[2, 6, 5, 5], 13);
        let y = ca.forward(&x).unwrap();
        assert_eq!(y.dims(), vec![2, 6, 5, 5]);
        // The gate is a per-(sample, channel) scalar in (0,1): within one
        // channel every pixel must be scaled by the same factor, and the
        // output magnitude never exceeds the input.
        let xv = x.to_tensor();
        let yv = y.to_tensor();
        for (xo, yo) in xv.data().chunks(25).zip(yv.data().chunks(25)) {
            let ratio = yo[0] / xo[0];
            assert!(ratio > 0.0 && ratio < 1.0, "gate outside (0,1): {ratio}");
            for (xi, yi) in xo.iter().zip(yo) {
                assert!((yi - xi * ratio).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn channel_attention_rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        let ca = ChannelAttention::new(4, 2, &mut rng);
        assert!(ca.forward(&rand_var(&[1, 3, 4, 4], 14)).is_err());
        assert!(ca.forward(&rand_var(&[4, 4, 4], 15)).is_err());
    }

    #[test]
    fn channel_attention_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(0);
        let ca = ChannelAttention::new(4, 4, &mut rng);
        let x = rand_var(&[1, 4, 3, 3], 16);
        ca.forward(&x).unwrap().sum().backward();
        assert!(ca.parameters().iter().all(|p| p.grad().is_some()));
        assert_eq!(ca.parameters().len(), 4);
    }

    #[test]
    fn gate_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(0);
        let gate = AttentionGate::new(2, 2, 2, &mut rng);
        let g = rand_var(&[1, 2, 4, 4], 11);
        let x = rand_var(&[1, 2, 4, 4], 12);
        gate.forward_gated(&g, &x).unwrap().sum().backward();
        assert!(gate.parameters().iter().all(|p| p.grad().is_some()));
    }
}
