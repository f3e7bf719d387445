//! Fully-connected layer.

use crate::module::{Layer, Module};
use lmmir_tensor::{init, Result, Tensor, Var};
use rand::Rng;

/// Affine transform `y = x W + b` with `W: [in, out]`.
///
/// Accepts inputs of shape `[..., in]`; all leading axes are preserved, so
/// the same layer projects `[batch, features]` activations and
/// `[batch, tokens, features]` sequences.
#[derive(Debug)]
pub struct Linear {
    weight: Var,
    bias: Option<Var>,
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
}

impl Module for Linear {
    fn forward(&self, x: &Var) -> Result<Var> {
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
