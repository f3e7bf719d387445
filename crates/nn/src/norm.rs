//! Normalization layers: batch normalization (2-D) and layer normalization.

use crate::module::{read_buffer, Layer, Module};
use lmmir_tensor::{Result, Tensor, TensorError, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{PoisonError, RwLock};

/// Batch normalization over `[N, C, H, W]` activations.
///
/// Normalizes per channel across the batch and spatial axes. During
/// training the layer uses batch statistics and updates exponential running
/// averages; during evaluation it normalizes with the stored running
/// statistics (PyTorch semantics; biased variance is used in both paths).
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Var,
    beta: Var,
    running_mean: RwLock<Tensor>,
    running_var: RwLock<Tensor>,
    channels: usize,
    momentum: f32,
    eps: f32,
    /// Train/eval switch. `Relaxed` everywhere: it publishes no other data.
    training: AtomicBool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Var::parameter(Tensor::ones(&[1, channels, 1, 1])),
            beta: Var::parameter(Tensor::zeros(&[1, channels, 1, 1])),
            running_mean: RwLock::new(Tensor::zeros(&[1, channels, 1, 1])),
            running_var: RwLock::new(Tensor::ones(&[1, channels, 1, 1])),
            channels,
            momentum: 0.1,
            eps: 1e-5,
            training: AtomicBool::new(true),
        }
    }

    /// Channel count the layer was built for.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Snapshot of the running mean (for tests/diagnostics).
    #[must_use]
    pub fn running_mean(&self) -> Tensor {
        read_buffer(&self.running_mean)
    }

    /// Snapshot of the running variance.
    #[must_use]
    pub fn running_var(&self) -> Tensor {
        read_buffer(&self.running_var)
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, x: &Var) -> Result<Var> {
        if x.value().rank() != 4 || x.value().dims()[1] != self.channels {
            return Err(TensorError::InvalidShape {
                dims: x.value().dims().to_vec(),
                reason: format!("BatchNorm2d expects [N, {}, H, W]", self.channels),
            });
        }
        if self.training.load(Ordering::Relaxed) {
            let mean = x.mean_axes(&[0, 2, 3], true)?;
            let centered = x.sub(&mean)?;
            let var = centered.square().mean_axes(&[0, 2, 3], true)?;
            // Update running statistics outside the graph, in place on
            // realized buffers (like the optimizers' moments): a lazily
            // rebound `rm·(1−m) + bm·m` is never read during training, so
            // its chain would keep every earlier step's nodes alive.
            let m = self.momentum;
            for (running, batch) in [(&self.running_mean, &mean), (&self.running_var, &var)] {
                let batch = batch.to_tensor();
                let mut running = running.write().unwrap_or_else(PoisonError::into_inner);
                for (r, &b) in running.data_mut().iter_mut().zip(batch.data()) {
                    *r = *r * (1.0 - m) + b * m;
                }
            }
            let denom = var.add_scalar(self.eps).sqrt();
            centered.div(&denom)?.mul(&self.gamma)?.add(&self.beta)
        } else {
            let rm = Var::constant(self.running_mean());
            let rv = Var::constant(self.running_var());
            let denom = rv.add_scalar(self.eps).sqrt();
            x.sub(&rm)?.div(&denom)?.mul(&self.gamma)?.add(&self.beta)
        }
    }
}

impl Layer for BatchNorm2d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<&RwLock<Tensor>> {
        vec![&self.running_mean, &self.running_var]
    }

    fn set_training(&self, training: bool) {
        self.training.store(training, Ordering::Relaxed);
    }
}

/// Layer normalization over the last axis.
///
/// Used by the Large-scale Netlist Transformer (pre-LN transformer blocks).
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Var,
    beta: Var,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm for feature dimension `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Var::parameter(Tensor::ones(&[dim])),
            beta: Var::parameter(Tensor::zeros(&[dim])),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalized feature dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Module for LayerNorm {
    fn forward(&self, x: &Var) -> Result<Var> {
        let rank = x.value().rank();
        if rank == 0 || *x.value().dims().last().expect("rank >= 1") != self.dim {
            return Err(TensorError::InvalidShape {
                dims: x.value().dims().to_vec(),
                reason: format!("LayerNorm expects [..., {}]", self.dim),
            });
        }
        let last = rank - 1;
        let mean = x.mean_axes(&[last], true)?;
        let centered = x.sub(&mean)?;
        let var = centered.square().mean_axes(&[last], true)?;
        let denom = var.add_scalar(self.eps).sqrt();
        centered.div(&denom)?.mul(&self.gamma)?.add(&self.beta)
    }
}

impl Layer for LayerNorm {
    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_nchw(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect(), dims).unwrap()
    }

    #[test]
    fn batchnorm_normalizes_channels_in_training() {
        let bn = BatchNorm2d::new(3);
        let x = Var::constant(random_nchw(&[4, 3, 5, 5], 0).add_scalar(3.0));
        let y = bn.forward(&x).unwrap();
        let yt = y.to_tensor();
        // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
        let m = yt.mean_axes(&[0, 2, 3], false).unwrap();
        for &v in m.data() {
            assert!(v.abs() < 1e-4, "channel mean {v}");
        }
        let centered = yt.sub(&yt.mean_axes(&[0, 2, 3], true).unwrap()).unwrap();
        let var = centered
            .mul(&centered)
            .unwrap()
            .mean_axes(&[0, 2, 3], false)
            .unwrap();
        for &v in var.data() {
            assert!((v - 1.0).abs() < 1e-2, "channel var {v}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let bn = BatchNorm2d::new(2);
        // Train on shifted data to move the running stats.
        for seed in 0..20 {
            let x = Var::constant(random_nchw(&[8, 2, 4, 4], seed).add_scalar(5.0));
            bn.forward(&x).unwrap();
        }
        assert!(bn.running_mean().mean_all() > 2.0);
        bn.set_training(false);
        // In eval, an input equal to the running mean maps near beta = 0.
        let rm = bn.running_mean();
        let x = Var::constant(Tensor::zeros(&[1, 2, 4, 4]).add(&rm).unwrap());
        let y = bn.forward(&x).unwrap();
        assert!(y.value().map(f32::abs).max_all() < 1e-3);
    }

    /// The running statistics are state, not graph: after any number of
    /// training forwards they are realized buffers with no pending chain
    /// (a lazily rebound EMA kept every earlier step's nodes alive — 3 MiB
    /// per `train` call on LMM-IR), and the in-place EMA is the bits the
    /// tensor-op formula `rm·(1−m) + bm·m` gives.
    #[test]
    fn batchnorm_running_stats_stay_realized_across_training_steps() {
        let bn = BatchNorm2d::new(3);
        let (mut mean, mut var) = (Tensor::zeros(&[1, 3, 1, 1]), Tensor::ones(&[1, 3, 1, 1]));
        for step in 0..12 {
            let x = Var::constant(random_nchw(&[2, 3, 4, 4], step).add_scalar(1.5));
            bn.forward(&x).unwrap();
            assert!(bn.running_mean().is_realized(), "step {step}");
            assert!(bn.running_var().is_realized(), "step {step}");
            let bm = x.value().mean_axes(&[0, 2, 3], true).unwrap();
            let centered = x.value().sub(&bm).unwrap();
            let bv = centered.square().mean_axes(&[0, 2, 3], true).unwrap();
            mean = mean.scale(0.9).add(&bm.scale(0.1)).unwrap();
            var = var.scale(0.9).add(&bv.scale(0.1)).unwrap();
        }
        assert_eq!(bn.running_mean().data(), mean.data());
        assert_eq!(bn.running_var().data(), var.data());
    }

    #[test]
    fn batchnorm_rejects_wrong_channels() {
        let bn = BatchNorm2d::new(3);
        let x = Var::constant(Tensor::zeros(&[1, 2, 4, 4]));
        assert!(bn.forward(&x).is_err());
    }

    #[test]
    fn batchnorm_gradients_flow_to_gamma_beta() {
        let bn = BatchNorm2d::new(2);
        let x = Var::constant(random_nchw(&[2, 2, 3, 3], 7));
        bn.forward(&x).unwrap().sum().backward();
        assert!(bn.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(8);
        let x = Var::constant(random_nchw(&[4, 8], 3).scale(5.0));
        let y = ln.forward(&x).unwrap().to_tensor();
        for row in y.data().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_rejects_wrong_width() {
        let ln = LayerNorm::new(8);
        let x = Var::constant(Tensor::zeros(&[4, 7]));
        assert!(ln.forward(&x).is_err());
    }

    #[test]
    fn layernorm_works_on_rank3_tokens() {
        let ln = LayerNorm::new(4);
        let x = Var::constant(random_nchw(&[2, 5, 4], 9));
        let y = ln.forward(&x).unwrap();
        assert_eq!(y.dims(), vec![2, 5, 4]);
    }
}
