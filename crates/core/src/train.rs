//! Two-stage training (paper §III-D): reconstruction pre-training followed
//! by IR-drop fine-tuning, with Gaussian-noise augmentation and the
//! contest over-sampling recipe.

use crate::data::{oversample_indices, Sample};
use crate::model::IrPredictor;
use crate::pointcloud::PointCloud;
use lmmir_pdn::CaseKind;
use lmmir_tensor::{Adam, GradClip, Optimizer, Result, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Reconstruction pre-training epochs (stage 1).
    pub pretrain_epochs: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Gradient-accumulation batch size (paper: 16).
    pub batch: usize,
    /// Upper bound of the Gaussian-noise augmentation σ, drawn uniformly
    /// from `(0, noise_std)` per step (paper: 1e-3). Zero disables
    /// augmentation (ablation "W-Aug").
    pub noise_std: f32,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// Over-sampling factors `(fake, real)`; the paper uses (10, 20).
    pub oversample: (usize, usize),
    /// Shuffling / augmentation seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Laptop-scale preset for the reproduction harness.
    ///
    /// Note on `noise_std`: the paper draws σ from `(0, 1e-3)` on raw map
    /// units; our channels are z-score normalized, so the equivalent
    /// magnitude is larger (0.05 ≈ 5 % of a channel's standard deviation).
    #[must_use]
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 18,
            pretrain_epochs: 2,
            lr: 1e-3,
            batch: 4,
            noise_std: 0.05,
            grad_clip: 5.0,
            oversample: (2, 4),
            seed: 0x7EA1,
        }
    }

    /// Paper-scale preset (200 epochs, batch 16, over-sample 10/20).
    #[must_use]
    pub fn paper() -> Self {
        TrainConfig {
            epochs: 200,
            pretrain_epochs: 20,
            lr: 1e-3,
            batch: 16,
            noise_std: 1e-3,
            grad_clip: 5.0,
            oversample: (10, 20),
            seed: 0x7EA1,
        }
    }
}

/// Per-epoch loss traces from a training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Mean reconstruction loss per pre-training epoch.
    pub pretrain_losses: Vec<f32>,
    /// Mean MSE per fine-tuning epoch.
    pub losses: Vec<f32>,
}

impl TrainReport {
    /// Final fine-tuning loss (∞ when training never ran).
    #[must_use]
    pub fn final_loss(&self) -> f32 {
        self.losses.last().copied().unwrap_or(f32::INFINITY)
    }
}

fn add_noise(images: &Var, max_std: f32, rng: &mut StdRng) -> Result<Var> {
    if max_std <= 0.0 {
        return Ok(images.clone());
    }
    let std = rng.gen_range(0.0..max_std.max(f32::MIN_POSITIVE));
    let dims = images.dims();
    let noise = lmmir_tensor::init::normal(&dims, std, rng);
    images.add(&Var::constant(noise))
}

/// What [`train`] needs from one data point. Implemented by the static
/// [`Sample`] and the per-window [`crate::DynamicSample`], so both workloads
/// share one loop (shuffling, noise augmentation, gradient accumulation,
/// clipping, over-sampling).
pub trait TrainSample {
    /// Whether the kind has a stage-1 reconstruction target. When `false`,
    /// [`train`] ignores `pretrain_epochs`.
    const PRETRAINS: bool;

    /// Split membership (drives over-sampling).
    fn kind(&self) -> CaseKind;

    /// The model's input for this sample: `[1, C, S, S]` images and, for a
    /// netlist-aware model, the point cloud.
    fn inputs(&self, model: &dyn IrPredictor) -> (Var, Option<&PointCloud>);

    /// The `[1, 1, S, S]` regression target: the stage-1 reconstruction
    /// target when `pretrain` is set (only asked of kinds with
    /// [`TrainSample::PRETRAINS`]), the golden IR drop otherwise.
    fn target(&self, pretrain: bool) -> Var;
}

impl TrainSample for Sample {
    const PRETRAINS: bool = true;

    fn kind(&self) -> CaseKind {
        self.kind
    }

    fn inputs(&self, model: &dyn IrPredictor) -> (Var, Option<&PointCloud>) {
        (
            self.images_for(model.input_channels()),
            model.uses_netlist().then_some(&self.cloud),
        )
    }

    /// Stage 1 reconstructs the current map (first basic channel) at
    /// training resolution — a self-supervised target every model's input
    /// contains in some form.
    fn target(&self, pretrain: bool) -> Var {
        if pretrain {
            self.images_for(1)
        } else {
            self.target_var()
        }
    }
}

/// Trains a predictor on the given samples (hidden-kind samples are
/// automatically excluded by the over-sampling recipe).
///
/// Stage 1 trains the network to reconstruct the current map (a
/// self-supervised task sharpening the joint representation; skipped for
/// sample kinds without a reconstruction target); stage 2 fine-tunes on
/// the golden IR-drop targets with MSE loss.
///
/// # Errors
///
/// Returns tensor errors from malformed samples (sizes must match the
/// model's `input_size`; window counts its channel count).
pub fn train<S: TrainSample>(
    model: &dyn IrPredictor,
    samples: &[S],
    cfg: &TrainConfig,
) -> Result<TrainReport> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(model.parameters(), cfg.lr);
    let clip = (cfg.grad_clip > 0.0).then_some(GradClip {
        max_norm: cfg.grad_clip,
    });
    let base_indices = oversample_indices(samples, cfg.oversample.0, cfg.oversample.1);
    let mut report = TrainReport::default();
    model.set_training(true);

    for pretrain in [true, false] {
        let epochs = if !pretrain {
            cfg.epochs
        } else if S::PRETRAINS {
            cfg.pretrain_epochs
        } else {
            0
        };
        for _epoch in 0..epochs {
            let mut indices = base_indices.clone();
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut steps = 0usize;
            let mut in_batch = 0usize;
            for &ix in &indices {
                let sample = &samples[ix];
                let (images, cloud) = sample.inputs(model);
                let images = add_noise(&images, cfg.noise_std, &mut rng)?;
                let pred = model.forward(&images, cloud)?;
                let loss = pred.mse_loss(&sample.target(pretrain))?;
                epoch_loss += loss.value().item();
                steps += 1;
                // Scale so accumulated gradients average over the batch.
                loss.scale(1.0 / cfg.batch as f32).backward();
                in_batch += 1;
                if in_batch == cfg.batch {
                    if let Some(c) = &clip {
                        c.apply(opt.parameters());
                    }
                    opt.step();
                    opt.zero_grad();
                    in_batch = 0;
                }
            }
            if in_batch > 0 {
                if let Some(c) = &clip {
                    c.apply(opt.parameters());
                }
                opt.step();
                opt.zero_grad();
            }
            let mean = if steps > 0 {
                epoch_loss / steps as f32
            } else {
                0.0
            };
            if pretrain {
                report.pretrain_losses.push(mean);
            } else {
                report.losses.push(mean);
            }
        }
    }
    model.set_training(false);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::iredge;
    use crate::data::build_sample;
    use lmmir_pdn::{CaseKind, CaseSpec};

    fn tiny_samples() -> Vec<Sample> {
        vec![
            build_sample(&CaseSpec::new("a", 16, 16, 1, CaseKind::Fake), 16).unwrap(),
            build_sample(&CaseSpec::new("b", 16, 16, 2, CaseKind::Real), 16).unwrap(),
        ]
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            pretrain_epochs: 1,
            lr: 2e-3,
            batch: 2,
            noise_std: 1e-3,
            grad_clip: 5.0,
            oversample: (1, 1),
            seed: 3,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let samples = tiny_samples();
        let model = iredge(16, 7);
        let cfg = TrainConfig {
            epochs: 10,
            ..tiny_cfg()
        };
        let report = train(&model, &samples, &cfg).unwrap();
        assert_eq!(report.losses.len(), 10);
        assert_eq!(report.pretrain_losses.len(), 1);
        let first = report.losses[0];
        let last = report.final_loss();
        assert!(
            last < first,
            "loss should decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn hidden_samples_are_excluded() {
        let mut samples = tiny_samples();
        samples.push(build_sample(&CaseSpec::new("h", 16, 16, 3, CaseKind::Hidden), 16).unwrap());
        let ix = oversample_indices(&samples, 1, 1);
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn zero_noise_is_deterministic() {
        let samples = tiny_samples();
        let cfg = TrainConfig {
            noise_std: 0.0,
            epochs: 2,
            pretrain_epochs: 0,
            ..tiny_cfg()
        };
        let m1 = iredge(16, 5);
        let m2 = iredge(16, 5);
        let r1 = train(&m1, &samples, &cfg).unwrap();
        let r2 = train(&m2, &samples, &cfg).unwrap();
        assert_eq!(r1.losses, r2.losses);
    }

    #[test]
    fn model_left_in_eval_mode() {
        let samples = tiny_samples();
        let model = iredge(16, 9);
        train(&model, &samples, &tiny_cfg()).unwrap();
        // Eval forward must be deterministic (BN running stats in use).
        let x = samples[0].images_for(3);
        let a = model.forward(&x, None).unwrap().to_tensor();
        let b = model.forward(&x, None).unwrap().to_tensor();
        assert_eq!(a.data(), b.data());
    }
}
