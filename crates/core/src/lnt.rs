//! The Large-scale Netlist Transformer (LNT, paper §III-C).
//!
//! Encodes the netlist point cloud into a sequence of latent tokens:
//! a trainable per-point embedding (continuous features projected linearly,
//! plus type and layer embedding tables) followed by pre-LN transformer
//! blocks with self-attention.
//!
//! Scaling note: contest netlists reach 10⁵–10⁶ points, where dense
//! self-attention is quadratic. The LNT therefore (a) importance-subsamples
//! the cloud to a token budget (pads/loads/vias first — see
//! [`PointCloud::subsample`]) and (b) runs **chunked** self-attention
//! (block-diagonal over windows of `chunk` tokens), which keeps cost linear
//! in the number of tokens. Cross-modal mixing happens later in the fusion
//! module, so chunk locality does not isolate information.

use crate::pointcloud::{PointCloud, MAX_LAYERS, POINT_FEATURES};
use lmmir_nn::{Embedding, Layer, LayerNorm, Linear, Module, MultiHeadAttention};
use lmmir_tensor::{Result, Tensor, Var};
use rand::Rng;

/// Hyper-parameters of the LNT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LntConfig {
    /// Token embedding width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Point budget after importance subsampling.
    pub max_points: usize,
    /// Self-attention window (tokens per chunk).
    pub chunk: usize,
    /// Feed-forward expansion factor.
    pub ff_mult: usize,
}

impl LntConfig {
    /// Laptop-scale preset used by the quick reproduction harness.
    #[must_use]
    pub fn quick() -> Self {
        LntConfig {
            d_model: 32,
            heads: 4,
            layers: 2,
            max_points: 512,
            chunk: 128,
            ff_mult: 2,
        }
    }

    /// Paper-scale preset (full netlists, GPU-class budget).
    #[must_use]
    pub fn paper() -> Self {
        LntConfig {
            d_model: 256,
            heads: 8,
            layers: 6,
            max_points: 131_072,
            chunk: 1_024,
            ff_mult: 4,
        }
    }
}

/// One pre-LN transformer block: `x + Attn(LN(x))`, then `x + FF(LN(x))`.
#[derive(Debug)]
struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

impl TransformerBlock {
    fn new(cfg: &LntConfig, rng: &mut impl Rng) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(cfg.d_model),
            attn: MultiHeadAttention::new(cfg.d_model, cfg.heads, rng),
            ln2: LayerNorm::new(cfg.d_model),
            ff1: Linear::new(cfg.d_model, cfg.d_model * cfg.ff_mult, true, rng),
            ff2: Linear::new(cfg.d_model * cfg.ff_mult, cfg.d_model, true, rng),
        }
    }

    /// Chunked self-attention + feed-forward with residuals.
    fn forward(&self, x: &Var, chunk: usize) -> Result<Var> {
        let n = x.dims()[1];
        let normed = self.ln1.forward(x)?;
        let attended = if n <= chunk {
            self.attn.forward(&normed)?
        } else {
            let mut parts = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let window = normed.slice_axis(1, start, end)?;
                parts.push(self.attn.forward(&window)?);
                start = end;
            }
            let refs: Vec<&Var> = parts.iter().collect();
            Var::concat(&refs, 1)?
        };
        let x = x.add(&attended)?;
        let ff = self
            .ff2
            .forward(&self.ff1.forward(&self.ln2.forward(&x)?)?.relu())?;
        x.add(&ff)
    }
}

impl Layer for TransformerBlock {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.ln1, &self.attn, &self.ln2, &self.ff1, &self.ff2]
    }
}

/// The Large-scale Netlist Transformer.
#[derive(Debug)]
pub struct Lnt {
    cfg: LntConfig,
    input: Linear,
    kind_embed: Embedding,
    layer_embed: Embedding,
    blocks: Vec<TransformerBlock>,
}

impl Lnt {
    /// Builds an LNT with the given configuration.
    #[must_use]
    pub fn new(cfg: LntConfig, rng: &mut impl Rng) -> Self {
        Lnt {
            cfg,
            input: Linear::new(POINT_FEATURES, cfg.d_model, true, rng),
            kind_embed: Embedding::new(3, cfg.d_model, rng),
            layer_embed: Embedding::new(MAX_LAYERS, cfg.d_model, rng),
            blocks: (0..cfg.layers)
                .map(|_| TransformerBlock::new(&cfg, rng))
                .collect(),
        }
    }

    /// Configuration in effect.
    #[must_use]
    pub fn config(&self) -> &LntConfig {
        &self.cfg
    }

    /// Encodes a point cloud into tokens `[1, N', d_model]` where
    /// `N' = min(cloud.len(), max_points)` (at least one zero token for an
    /// empty cloud so downstream cross-attention always has keys).
    ///
    /// # Errors
    ///
    /// Returns tensor shape errors (should not occur for valid clouds).
    pub fn encode_cloud(&self, cloud: &PointCloud) -> Result<Var> {
        if cloud.is_empty() {
            return Ok(Var::constant(Tensor::zeros(&[1, 1, self.cfg.d_model])));
        }
        let sampled = cloud.subsample(self.cfg.max_points);
        let n = sampled.len();
        let (feats, kinds, l1, l2) = sampled.to_features();
        let x = Var::constant(Tensor::from_vec(feats, &[n, POINT_FEATURES])?);
        let mut h = self.input.forward(&x)?;
        h = h.add(&self.kind_embed.lookup(&kinds)?)?;
        h = h.add(&self.layer_embed.lookup(&l1)?)?;
        h = h.add(&self.layer_embed.lookup(&l2)?)?;
        let mut tokens = h.reshape(&[1, n, self.cfg.d_model])?;
        for block in &self.blocks {
            tokens = block.forward(&tokens, self.cfg.chunk)?;
        }
        Ok(tokens)
    }
}

impl Layer for Lnt {
    fn children(&self) -> Vec<&dyn Layer> {
        let mut c: Vec<&dyn Layer> = vec![&self.input, &self.kind_embed, &self.layer_embed];
        c.extend(self.blocks.iter().map(|b| b as &dyn Layer));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cloud(n_px: usize) -> PointCloud {
        let case = CaseSpec::new("t", n_px, n_px, 2, CaseKind::Fake).generate();
        PointCloud::from_netlist(
            &case.netlist,
            case.tech.dbu_per_um,
            n_px as f64,
            n_px as f64,
        )
    }

    #[test]
    fn encodes_to_token_sequence() {
        let mut rng = StdRng::seed_from_u64(0);
        let lnt = Lnt::new(LntConfig::quick(), &mut rng);
        let pc = cloud(16);
        let tokens = lnt.encode_cloud(&pc).unwrap();
        let d = tokens.dims();
        assert_eq!(d[0], 1);
        assert_eq!(d[1], pc.len().min(LntConfig::quick().max_points));
        assert_eq!(d[2], 32);
    }

    #[test]
    fn budget_caps_token_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = LntConfig::quick();
        cfg.max_points = 64;
        let lnt = Lnt::new(cfg, &mut rng);
        let tokens = lnt.encode_cloud(&cloud(24)).unwrap();
        assert_eq!(tokens.dims()[1], 64);
    }

    #[test]
    fn chunking_matches_expected_shape_and_is_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = LntConfig::quick();
        cfg.max_points = 200;
        cfg.chunk = 64; // forces 4 chunks
        let lnt = Lnt::new(cfg, &mut rng);
        let tokens = lnt.encode_cloud(&cloud(24)).unwrap();
        assert_eq!(tokens.dims()[1], 200);
        assert!(!tokens.value().has_non_finite());
    }

    #[test]
    fn empty_cloud_yields_single_zero_token() {
        let mut rng = StdRng::seed_from_u64(0);
        let lnt = Lnt::new(LntConfig::quick(), &mut rng);
        let tokens = lnt.encode_cloud(&PointCloud::default()).unwrap();
        assert_eq!(tokens.dims(), vec![1, 1, 32]);
        assert_eq!(tokens.value().max_all(), 0.0);
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = LntConfig::quick();
        cfg.max_points = 64;
        cfg.layers = 1;
        let lnt = Lnt::new(cfg, &mut rng);
        let tokens = lnt.encode_cloud(&cloud(12)).unwrap();
        tokens.sum().backward();
        let missing = lnt
            .parameters()
            .iter()
            .filter(|p| p.grad().is_none())
            .count();
        assert_eq!(missing, 0, "all LNT parameters should receive gradient");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Lnt::new(LntConfig::quick(), &mut StdRng::seed_from_u64(5));
        let b = Lnt::new(LntConfig::quick(), &mut StdRng::seed_from_u64(5));
        let pc = cloud(12);
        let ta = a.encode_cloud(&pc).unwrap();
        let tb = b.encode_cloud(&pc).unwrap();
        assert_eq!(ta.value().data(), tb.value().data());
    }
}
