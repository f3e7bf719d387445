//! Module containers.

use crate::module::{Layer, Module};
use lmmir_tensor::{Result, Var};

/// An ordered stack of modules applied sequentially.
///
/// ```
/// use lmmir_nn::{Activation, Linear, Module, Sequential};
/// use lmmir_tensor::{Tensor, Var};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), lmmir_tensor::TensorError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Sequential::new()
///     .push(Linear::new(4, 8, true, &mut rng))
///     .push(Activation::Relu)
///     .push(Linear::new(8, 1, true, &mut rng));
/// let y = mlp.forward(&Var::constant(Tensor::zeros(&[2, 4])))?;
/// assert_eq!(y.dims(), vec![2, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates an empty stack.
    #[must_use]
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Module + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Module>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack holds no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&self, x: &Var) -> Result<Var> {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur)?;
        }
        // Module boundary: elementwise chains fuse freely *across* the
        // stacked layers, but the stack's output is realized here so
        // callers observe finished work (bounded pending-graph depth,
        // honest per-module timings).
        cur.value().force();
        Ok(cur)
    }
}

impl Layer for Sequential {
    fn children(&self) -> Vec<&dyn Layer> {
        self.layers
            .iter()
            .map(|l| l.as_ref() as &dyn Layer)
            .collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::module::Activation;
    use crate::norm::BatchNorm2d;
    use lmmir_tensor::{Tensor, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_sequential_is_identity() {
        let s = Sequential::new();
        assert!(s.is_empty());
        let x = Var::constant(Tensor::ones(&[2]));
        assert_eq!(s.forward(&x).unwrap().value().data(), &[1.0, 1.0]);
    }

    #[test]
    fn collects_parameters_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = Sequential::new()
            .push(Linear::new(2, 3, true, &mut rng))
            .push(Activation::Relu)
            .push(Linear::new(3, 1, false, &mut rng));
        assert_eq!(s.len(), 3);
        assert_eq!(s.parameters().len(), 3); // w,b,w
    }

    #[test]
    fn propagates_training_mode() {
        let bn = BatchNorm2d::new(2);
        let s = Sequential::new().push(bn);
        s.set_training(false);
        // Eval-mode batchnorm with default running stats is ~identity.
        let x = Var::constant(Tensor::ones(&[1, 2, 2, 2]));
        let y = s.forward(&x).unwrap();
        for v in y.value().data() {
            assert!((v - 1.0).abs() < 1e-2);
        }
    }
}
