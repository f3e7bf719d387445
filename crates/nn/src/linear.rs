//! Fully-connected layer.

use crate::module::{Layer, Module};
use lmmir_tensor::quant::{matmul_nd_quantized, QuantLinearWeight};
use lmmir_tensor::{init, Result, Tensor, Var};
use rand::Rng;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Affine transform `y = x W + b` with `W: [in, out]`.
///
/// Accepts inputs of shape `[..., in]`; all leading axes are preserved, so
/// the same layer projects `[batch, features]` activations and
/// `[batch, tokens, features]` sequences.
///
/// After [`Layer::quantize`], forward runs the int8 kernel on a cached
/// per-output-channel quantization of the weight (inference only — the
/// quantized path builds no graph). `set_training(true)` drops the cache.
#[derive(Debug)]
pub struct Linear {
    weight: Var,
    bias: Option<Var>,
    quant: RwLock<Option<QuantLinearWeight>>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform weights.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let weight = Var::parameter(init::kaiming_uniform(
            &[in_features, out_features],
            in_features,
            rng,
        ));
        let bias = bias.then(|| {
            let bound = 1.0 / (in_features.max(1) as f32).sqrt();
            Var::parameter(init::uniform(&[out_features], bound, rng))
        });
        Linear {
            weight,
            bias,
            quant: RwLock::new(None),
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight parameter (`[in, out]`).
    #[must_use]
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// The int8 state, if quantized. The lock recovers from poisoning: the
    /// slot is only ever replaced whole.
    fn quant(&self) -> RwLockReadGuard<'_, Option<QuantLinearWeight>> {
        self.quant.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_quant(&self, quant: Option<QuantLinearWeight>) {
        *self.quant.write().unwrap_or_else(PoisonError::into_inner) = quant;
    }
}

impl Module for Linear {
    fn forward(&self, x: &Var) -> Result<Var> {
        if let Some(qw) = self.quant().as_ref() {
            let mut y = matmul_nd_quantized(&x.value(), qw)?;
            if let Some(b) = &self.bias {
                let bv = b.value();
                for row in y.data_mut().chunks_mut(self.out_features) {
                    for (v, &bb) in row.iter_mut().zip(bv.data()) {
                        *v += bb;
                    }
                }
            }
            return Ok(Var::constant(y));
        }
        let y = x.matmul(&self.weight)?;
        match &self.bias {
            Some(b) => y.add(b),
            None => Ok(y),
        }
    }
}

impl Layer for Linear {
    fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }

    fn set_training(&self, training: bool) {
        if training {
            self.set_quant(None);
        }
    }

    fn quantize(&self) -> usize {
        let qw = QuantLinearWeight::from_tensor(&self.weight.value())
            .expect("linear weight is rank-2 by construction");
        self.set_quant(Some(qw));
        1
    }
}

/// Convenience constructor for a zero-initialized deterministic linear layer
/// (used in tests across the workspace).
impl Linear {
    /// Creates a layer with explicit weight/bias tensors.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not `[in, out]` or the bias length differs
    /// from `out`.
    #[must_use]
    pub fn from_tensors(weight: Tensor, bias: Option<Tensor>) -> Self {
        assert_eq!(weight.rank(), 2, "linear weight must be [in, out]");
        let (in_features, out_features) = (weight.dims()[0], weight.dims()[1]);
        if let Some(b) = &bias {
            assert_eq!(b.dims(), [out_features], "bias length mismatch");
        }
        Linear {
            weight: Var::parameter(weight),
            bias: bias.map(Var::parameter),
            quant: RwLock::new(None),
            in_features,
            out_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_2d_and_3d() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(5, 3, true, &mut rng);
        let x2 = Var::constant(Tensor::zeros(&[4, 5]));
        assert_eq!(l.forward(&x2).unwrap().dims(), vec![4, 3]);
        let x3 = Var::constant(Tensor::zeros(&[2, 7, 5]));
        assert_eq!(l.forward(&x3).unwrap().dims(), vec![2, 7, 3]);
    }

    #[test]
    fn known_weights_compute_affine() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let l = Linear::from_tensors(w, Some(b));
        let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap());
        let y = l.forward(&x).unwrap();
        assert_eq!(y.value().data(), &[14.0, 25.0]);
    }

    #[test]
    fn parameters_exposed_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(2, 2, true, &mut rng);
        assert_eq!(l.parameters().len(), 2);
        let l2 = Linear::new(2, 2, false, &mut rng);
        assert_eq!(l2.parameters().len(), 1);
    }

    #[test]
    fn quantized_forward_tracks_f32_and_training_restores_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new(16, 8, true, &mut rng);
        let x = Var::constant(init::uniform(&[4, 16], 1.0, &mut rng));
        let exact = l.forward(&x).unwrap().to_tensor();
        assert_eq!(l.quantize(), 1);
        let approx = l.forward(&x).unwrap().to_tensor();
        let worst = exact
            .data()
            .iter()
            .zip(approx.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst > 0.0, "int8 path should actually run");
        assert!(worst < 0.05, "divergence {worst} too large for 16-deep dot");
        // Switching back to training drops the int8 state bit-exactly.
        l.set_training(true);
        let restored = l.forward(&x).unwrap().to_tensor();
        assert_eq!(exact.data(), restored.data());
    }

    #[test]
    fn gradients_reach_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(3, 2, true, &mut rng);
        let x = Var::constant(Tensor::ones(&[4, 3]));
        l.forward(&x).unwrap().sum().backward();
        for p in l.parameters() {
            assert!(p.grad().is_some(), "parameter missing gradient");
        }
    }
}
