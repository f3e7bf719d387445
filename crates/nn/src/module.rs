//! The [`Layer`] walk, the [`Module`] trait and the state dict.

use lmmir_tensor::{Result, Tensor, TensorError, Var};
use std::sync::{PoisonError, RwLock};

/// Anything that owns trainable state or is built from things that do.
///
/// A composite names its sub-layers **once**, in [`Layer::children`], in
/// the order its state is checkpointed; everything that is "all X of a
/// model" — [`Layer::parameters`], [`Layer::buffers`] and
/// [`Layer::set_training`] — is a provided method over that list and
/// visits every child, so no traversal can skip one. Only leaves that own
/// state override the provided methods: parameters in
/// [`crate::Linear`], [`crate::Conv2d`], [`crate::ConvTranspose2d`],
/// [`crate::BatchNorm2d`], [`crate::LayerNorm`] and [`crate::Embedding`];
/// the running statistics and the train/eval flag in `BatchNorm2d`.
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

    /// Non-trainable state an eval forward reads (the running statistics
    /// of [`crate::BatchNorm2d`]), in [`Layer::children`] order. It is
    /// model state all the same: [`state_dict`] saves it beside the
    /// parameters.
    fn buffers(&self) -> Vec<&RwLock<Tensor>> {
        self.children()
            .into_iter()
            .flat_map(|c| c.buffers())
            .collect()
    }

    /// Switches train/eval behaviour of every child.
    fn set_training(&self, training: bool) {
        for c in self.children() {
            c.set_training(training);
        }
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

/// Reads a buffer. The lock recovers from poisoning: buffers are written
/// whole or element by element on realized tensors, so a panic mid-write
/// leaves a valid tensor.
pub(crate) fn read_buffer(buffer: &RwLock<Tensor>) -> Tensor {
    buffer
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// The complete state of a layer: `param.{i}` for every
/// [`Layer::parameters`] entry, then `buffer.{i}` for every
/// [`Layer::buffers`] entry, each in walk order. Restored by
/// [`load_state_dict`] into a freshly built model of the same
/// architecture, it gives bitwise the same forward in train and eval mode.
#[must_use]
pub fn state_dict(module: &dyn Layer) -> Vec<(String, Tensor)> {
    let vars = module.parameters();
    let params = vars.iter().map(Var::to_tensor).enumerate();
    let buffers = module.buffers().into_iter().map(read_buffer).enumerate();
    params
        .map(|(i, t)| (format!("param.{i}"), t))
        .chain(buffers.map(|(i, t)| (format!("buffer.{i}"), t)))
        // Checkpoint boundary: snapshots are realized so they stay valid
        // buffers regardless of what happens to the live graph afterwards.
        .inspect(|(_, t)| {
            t.force();
        })
        .collect()
}

/// Restores a snapshot produced by [`state_dict`] into `module`. Nothing
/// is written unless every entry fits.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the entry count differs from the
/// module's parameter plus buffer count or an entry is not the one its
/// position holds (`param.0 … param.{P-1}`, then `buffer.0 …
/// buffer.{B-1}`: a duplicate, gapped or misplaced index), and
/// [`TensorError::ShapeMismatch`] when a tensor shape disagrees.
pub fn load_state_dict(module: &dyn Layer, entries: &[(String, Tensor)]) -> Result<()> {
    let current = state_dict(module);
    if entries.len() != current.len() {
        return Err(TensorError::Io(format!(
            "state dict has {} entries but the module holds {} parameters and buffers",
            entries.len(),
            current.len()
        )));
    }
    for ((want, now), (name, t)) in current.iter().zip(entries) {
        if name != want {
            return Err(TensorError::Io(format!(
                "state dict entry '{name}' sits where '{want}' belongs"
            )));
        }
        if now.dims() != t.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: now.dims().to_vec(),
                rhs: t.dims().to_vec(),
                op: "load_state_dict",
            });
        }
    }
    let params = module.parameters();
    let (param_entries, buffer_entries) = entries.split_at(params.len());
    for (p, (_, t)) in params.iter().zip(param_entries) {
        p.set_value(t.clone());
    }
    for (b, (_, t)) in module.buffers().into_iter().zip(buffer_entries) {
        *b.write().unwrap_or_else(PoisonError::into_inner) = t.clone();
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

    /// Running statistics are state: a fresh model restored from a trained
    /// one's state dict answers bitwise the same in eval mode, and the
    /// loader checks every entry's position, not only the count.
    #[test]
    fn state_dict_carries_batchnorm_running_statistics() {
        use crate::{BatchNorm2d, Sequential};
        let trained = Sequential::new().push(BatchNorm2d::new(2));
        let x = Var::constant(
            Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap(),
        );
        trained.forward(&x).unwrap();
        let state = state_dict(&trained);
        let names: Vec<&str> = state.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["param.0", "param.1", "buffer.0", "buffer.1"]);

        let fresh = Sequential::new().push(BatchNorm2d::new(2));
        let mut swapped = state.clone();
        swapped.swap(2, 3);
        assert!(
            load_state_dict(&fresh, &swapped).is_err(),
            "misplaced buffer"
        );
        load_state_dict(&fresh, &state).unwrap();
        trained.set_training(false);
        fresh.set_training(false);
        assert_eq!(
            trained.forward(&x).unwrap().value().data(),
            fresh.forward(&x).unwrap().value().data()
        );
    }
}
