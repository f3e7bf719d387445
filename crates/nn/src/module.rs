//! The [`Layer`] walk, the [`Module`] trait and checkpoint helpers.

use lmmir_tensor::{Result, TensorError, Var};

/// Anything that owns trainable state or is built from things that do.
///
/// A composite names its sub-layers **once**, in [`Layer::children`], in
/// the order its parameters are checkpointed; everything that is "all X of
/// a model" — [`Layer::parameters`], [`Layer::set_training`],
/// [`Layer::quantize`] — is a provided method over that list and visits
/// every child, so no traversal can skip one. Only leaves that own state
/// override the provided methods: parameters in [`crate::Linear`],
/// [`crate::Conv2d`], [`crate::ConvTranspose2d`], [`crate::BatchNorm2d`],
/// [`crate::LayerNorm`] and [`crate::Embedding`]; the train/eval flag in
/// `BatchNorm2d`; int8 state in `Linear` and `Conv2d`.
///
/// The one container that walks by hand is [`crate::Sequential`]: its
/// children are `Box<dyn Module>`, which cannot be viewed as `&dyn Layer`
/// without trait-object upcasting (newer than this workspace's
/// `rust-version`).
///
/// `Send + Sync` is a supertrait: every layer can be shared by the threads
/// of a multi-lane server (forward passes only read parameters), and a
/// layer that grows an `Rc` or a `RefCell` stops compiling here rather
/// than at the first cross-thread use.
pub trait Layer: Send + Sync {
    /// The sub-layers, in parameter order (default: none — a leaf).
    fn children(&self) -> Vec<&dyn Layer> {
        Vec::new()
    }

    /// Trainable parameters in a deterministic order: the children's, in
    /// [`Layer::children`] order.
    fn parameters(&self) -> Vec<Var> {
        self.children()
            .iter()
            .flat_map(|c| c.parameters())
            .collect()
    }

    /// Switches train/eval behaviour of every child. Layers with int8
    /// inference support drop their quantized state when switched to
    /// training.
    fn set_training(&self, training: bool) {
        for c in self.children() {
            c.set_training(training);
        }
    }

    /// Switches every child that supports it to int8 inference, quantizing
    /// its current weights in place with per-output-channel scales. Returns
    /// the number of layers now running quantized (0 for a leaf with
    /// nothing to quantize). Quantized state is inference-only: it is
    /// discarded by `set_training(true)` and never carries gradients.
    fn quantize(&self) -> usize {
        self.children().iter().map(|c| c.quantize()).sum()
    }
}

/// A [`Layer`] that maps one variable to another. The trait is object-safe
/// so heterogeneous stacks can be composed with [`crate::Sequential`].
pub trait Module: Layer {
    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] when the input shape is incompatible with
    /// the layer.
    fn forward(&self, x: &Var) -> Result<Var>;
}

/// Simple activation functions as composable modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through.
    Identity,
}

impl Layer for Activation {}

impl Module for Activation {
    fn forward(&self, x: &Var) -> Result<Var> {
        Ok(match self {
            Activation::Relu => x.relu(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x.clone(),
        })
    }
}

/// Snapshot of a layer's parameters as `(index-name, tensor)` pairs.
///
/// Parameter ordering is defined by [`Layer::parameters`], which is
/// deterministic for every layer in this crate, so the snapshot can be
/// restored into a freshly constructed model of the same architecture.
#[must_use]
pub fn state_dict(module: &dyn Layer) -> Vec<(String, lmmir_tensor::Tensor)> {
    module
        .parameters()
        .iter()
        .enumerate()
        // Checkpoint boundary: snapshots are realized so they stay valid
        // buffers regardless of what happens to the live graph afterwards.
        .map(|(i, p)| {
            let t = p.to_tensor();
            t.force();
            (format!("param.{i}"), t)
        })
        .collect()
}

/// Restores a snapshot produced by [`state_dict`] into `module`.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the parameter count differs and
/// [`TensorError::ShapeMismatch`] when a tensor shape disagrees.
pub fn load_state_dict(
    module: &dyn Layer,
    entries: &[(String, lmmir_tensor::Tensor)],
) -> Result<()> {
    let params = module.parameters();
    if params.len() != entries.len() {
        return Err(TensorError::Io(format!(
            "state dict has {} entries but module has {} parameters",
            entries.len(),
            params.len()
        )));
    }
    for (p, (_, t)) in params.iter().zip(entries) {
        if p.value().dims() != t.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: p.value().dims().to_vec(),
                rhs: t.dims().to_vec(),
                op: "load_state_dict",
            });
        }
    }
    for (p, (_, t)) in params.iter().zip(entries) {
        p.set_value(t.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::{Tensor, Var};

    #[test]
    fn activations_forward() {
        let x = Var::constant(Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap());
        assert_eq!(
            Activation::Relu.forward(&x).unwrap().value().data(),
            &[0.0, 2.0]
        );
        assert_eq!(
            Activation::Identity.forward(&x).unwrap().value().data(),
            &[-1.0, 2.0]
        );
        let s = Activation::Sigmoid.forward(&x).unwrap();
        assert!(s.value().data()[1] > 0.8);
        let t = Activation::Tanh.forward(&x).unwrap();
        assert!(t.value().data()[0] < 0.0);
    }

    struct TwoParams {
        a: Var,
        b: Var,
    }

    impl Layer for TwoParams {
        fn parameters(&self) -> Vec<Var> {
            vec![self.a.clone(), self.b.clone()]
        }
    }

    #[test]
    fn state_dict_round_trip() {
        let m = TwoParams {
            a: Var::parameter(Tensor::full(&[2], 3.0)),
            b: Var::parameter(Tensor::full(&[2], -1.0)),
        };
        let snapshot = state_dict(&m);
        m.a.set_value(Tensor::zeros(&[2]));
        load_state_dict(&m, &snapshot).unwrap();
        assert_eq!(m.a.value().data(), &[3.0, 3.0]);
    }

    #[test]
    fn load_rejects_wrong_count_and_shape() {
        let m = TwoParams {
            a: Var::parameter(Tensor::zeros(&[2])),
            b: Var::parameter(Tensor::zeros(&[2])),
        };
        assert!(load_state_dict(&m, &[]).is_err());
        let bad = vec![
            ("param.0".to_string(), Tensor::zeros(&[3])),
            ("param.1".to_string(), Tensor::zeros(&[2])),
        ];
        assert!(load_state_dict(&m, &bad).is_err());
    }
}
