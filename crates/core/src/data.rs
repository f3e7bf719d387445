//! Dataset assembly: generated cases → model-ready samples.
//!
//! A [`Sample`] bundles everything one training/evaluation step needs:
//! all three static feature stacks (basic 3-channel, extended 6-channel,
//! comprehensive 8-channel) adjusted to the training size, the netlist
//! point cloud, the adjusted target and the original-resolution ground
//! truth for faithful evaluation.

use crate::pointcloud::PointCloud;
use crate::train::TrainSample;
use lmmir_features::{effective_resistance_solved, ir_drop_map, FeatureStack, Raster, SpatialInfo};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_solver::{stamp, SolveIrDropError};
use lmmir_tensor::{Tensor, Var};

/// Fixed factor applied to IR targets during training (predictions are
/// divided by it on restore). Golden drops are ~10 mV on the standard
/// stack; scaling to ~0.2 V conditions the MSE regression without touching
/// the physics or the reported metrics.
pub const TARGET_SCALE: f32 = 20.0;

/// One model-ready data point.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Case id (e.g. `testcase10`).
    pub id: String,
    /// Split membership (drives over-sampling).
    pub kind: CaseKind,
    /// Basic 3-channel images `[3, S, S]`, adjusted + normalized.
    pub images_basic: Tensor,
    /// Extended 6-channel images `[6, S, S]`, adjusted + normalized.
    pub images_extended: Tensor,
    /// Comprehensive 8-channel images `[8, S, S]`, adjusted + normalized
    /// (extended + effective-resistance + pad-distance maps).
    pub images_comprehensive: Tensor,
    /// Netlist point cloud (full; models subsample to their budget).
    pub cloud: PointCloud,
    /// Adjusted ground-truth IR map `[1, S, S]`, in volts × [`TARGET_SCALE`].
    pub target: Tensor,
    /// How the maps were spatially adjusted (for restoring predictions).
    pub info: SpatialInfo,
    /// Original-resolution ground truth (volts).
    pub truth: Raster,
    /// Supply voltage.
    pub vdd: f64,
    /// Wall-clock seconds the golden solver took (the cost the predictor
    /// amortizes — the motivation of the whole paper).
    pub golden_seconds: f64,
    /// Node count of the netlist (Table II statistic).
    pub nodes: usize,
}

impl Sample {
    /// Images matching a model's expected channel count, as a `[1, C, S, S]`
    /// tensor.
    ///
    /// `1` selects the current map alone (IRPnet's physics-window input),
    /// `3` the basic stack, `6` the extended stack, `8` the comprehensive
    /// stack.
    ///
    /// # Panics
    ///
    /// Panics for channel counts other than 1, 3, 6 or 8.
    #[must_use]
    pub fn images_tensor_for(&self, channels: usize) -> Tensor {
        let t = match channels {
            1 => {
                let d = self.images_basic.dims().to_vec();
                let current = self
                    .images_basic
                    .reshape(&[d[0], d[1] * d[2]])
                    .and_then(|t| t.slice_axis(0, 0, 1))
                    .expect("basic stack has a current channel");
                return current
                    .reshape(&[1, 1, d[1], d[2]])
                    .expect("slice keeps spatial numel");
            }
            3 => &self.images_basic,
            6 => &self.images_extended,
            8 => &self.images_comprehensive,
            other => panic!("no feature stack with {other} channels"),
        };
        let d = t.dims();
        t.reshape(&[1, d[0], d[1], d[2]])
            .expect("adding batch axis preserves numel")
    }

    /// [`Sample::images_tensor_for`] wrapped as a constant variable, ready
    /// for a forward pass.
    ///
    /// # Panics
    ///
    /// Panics for channel counts other than 1, 3, 6 or 8.
    #[must_use]
    pub fn images_for(&self, channels: usize) -> Var {
        Var::constant(self.images_tensor_for(channels))
    }

    /// Target as a `[1, 1, S, S]` constant variable.
    #[must_use]
    pub fn target_var(&self) -> Var {
        let d = self.target.dims();
        Var::constant(
            self.target
                .reshape(&[1, d[0], d[1], d[2]])
                .expect("adding batch axis preserves numel"),
        )
    }

    /// Restores a model prediction `[1, 1, S, S]` to the original chip
    /// resolution and to volts (undoing [`TARGET_SCALE`]) for metric
    /// computation. Delegates to [`crate::infer::restore_prediction`], the
    /// path the serving layer uses too.
    ///
    /// # Panics
    ///
    /// Panics when `pred` does not have the adjusted sample shape.
    #[must_use]
    pub fn restore_prediction(&self, pred: &Tensor) -> Raster {
        crate::infer::restore_prediction(self.info, pred)
    }
}

/// Builds a sample from a case spec: generates the PDN, runs the golden
/// solver, extracts features and adjusts everything to `input_size`.
///
/// # Errors
///
/// Returns [`SolveIrDropError`] when the golden solve fails.
pub fn build_sample(spec: &CaseSpec, input_size: usize) -> Result<Sample, SolveIrDropError> {
    let case = spec.generate();
    let (w, h) = (case.power.width(), case.power.height());
    let dbu = case.tech.dbu_per_um;

    // One stamp and one factor serve both solves: the golden map and the
    // comprehensive stack's effective-resistance channel.
    let t0 = std::time::Instant::now();
    let sys = stamp(&case.netlist)?;
    let factor = sys.factor()?;
    let ir = sys.solve(&factor)?;
    let golden_seconds = t0.elapsed().as_secs_f64();
    let resistance = effective_resistance_solved(&case.netlist, &sys, &factor, w, h, dbu);
    let truth = ir_drop_map(&ir, &case.netlist, w, h, dbu);
    let (truth_adj, info) = lmmir_features::spatial::spatial_adjust(&truth, input_size);

    // Basic and extended are prefixes of the comprehensive stack, channel
    // for channel, so one rasterization and one adjustment yield all three.
    let comprehensive = FeatureStack::comprehensive_with(&case, resistance);
    let (comp_adj, _) = comprehensive.adjusted_normalized(input_size);

    let cloud = PointCloud::from_netlist(&case.netlist, dbu, w as f64, h as f64);
    let target = truth_adj
        .to_tensor()
        .scale(TARGET_SCALE)
        .reshape(&[1, input_size, input_size])
        .expect("adjusted truth is input_size²");

    Ok(Sample {
        id: spec.id.clone(),
        kind: spec.kind,
        images_basic: comp_adj.prefix(3).to_tensor(),
        images_extended: comp_adj.prefix(6).to_tensor(),
        images_comprehensive: comp_adj.to_tensor(),
        cloud,
        target,
        info,
        truth,
        vdd: case.tech.vdd,
        golden_seconds,
        nodes: case.stats().nodes,
    })
}

/// Builds samples for a list of specs.
///
/// # Errors
///
/// Returns the first golden-solve failure.
pub fn build_dataset(
    specs: &[CaseSpec],
    input_size: usize,
) -> Result<Vec<Sample>, SolveIrDropError> {
    specs.iter().map(|s| build_sample(s, input_size)).collect()
}

/// Over-sampled index list following the paper's recipe (§IV-A): each fake
/// case appears `fake_times`, each real case `real_times`. Hidden cases are
/// never included in training.
#[must_use]
pub fn oversample_indices<S: TrainSample>(
    samples: &[S],
    fake_times: usize,
    real_times: usize,
) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let times = match s.kind() {
            CaseKind::Fake => fake_times,
            CaseKind::Real => real_times,
            CaseKind::Hidden => 0,
        };
        out.extend(std::iter::repeat_n(i, times));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::CaseKind;

    fn sample() -> Sample {
        build_sample(&CaseSpec::new("t", 20, 20, 6, CaseKind::Fake), 32).unwrap()
    }

    #[test]
    fn sample_shapes_are_consistent() {
        let s = sample();
        assert_eq!(s.images_basic.dims(), &[3, 32, 32]);
        assert_eq!(s.images_extended.dims(), &[6, 32, 32]);
        assert_eq!(s.images_comprehensive.dims(), &[8, 32, 32]);
        assert_eq!(s.target.dims(), &[1, 32, 32]);
        assert_eq!(s.truth.width(), 20);
        assert!(s.nodes > 0);
        assert!(s.golden_seconds > 0.0);
        assert!(!s.cloud.is_empty());
    }

    #[test]
    fn one_factor_reproduces_every_stack_and_the_golden_map_built_alone() {
        let spec = CaseSpec::new("big", 40, 40, 7, CaseKind::Fake);
        let s = build_sample(&spec, 32).unwrap();
        let case = spec.generate();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let alone = |stack: FeatureStack| bits(&stack.adjusted_normalized(32).0.to_tensor());
        assert_eq!(
            bits(&s.images_comprehensive),
            alone(FeatureStack::comprehensive(&case))
        );
        assert_eq!(
            bits(&s.images_extended),
            alone(FeatureStack::extended(&case))
        );
        assert_eq!(bits(&s.images_basic), alone(FeatureStack::basic(&case)));
        let golden = ir_drop_map(
            &case.solve().unwrap(),
            &case.netlist,
            40,
            40,
            case.tech.dbu_per_um,
        );
        assert_eq!(s.truth.content_hash(), golden.content_hash());
    }

    #[test]
    fn images_for_adds_batch_axis() {
        let s = sample();
        assert_eq!(s.images_for(3).dims(), vec![1, 3, 32, 32]);
        assert_eq!(s.images_for(6).dims(), vec![1, 6, 32, 32]);
        assert_eq!(s.images_for(8).dims(), vec![1, 8, 32, 32]);
        assert_eq!(s.target_var().dims(), vec![1, 1, 32, 32]);
    }

    #[test]
    #[should_panic(expected = "no feature stack")]
    fn images_for_rejects_odd_channels() {
        let _ = sample().images_for(4);
    }

    #[test]
    fn restore_prediction_round_trips_target() {
        let s = sample();
        // Feeding the adjusted target back must reproduce the original truth
        // exactly for padded samples.
        let pred = s.target.reshape(&[1, 1, 32, 32]).unwrap();
        let restored = s.restore_prediction(&pred);
        assert_eq!(restored.width(), 20);
        for (a, b) in restored.data().iter().zip(s.truth.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn oversampling_respects_kinds() {
        let mut samples = vec![sample()];
        samples.push(Sample {
            kind: CaseKind::Real,
            ..samples[0].clone()
        });
        samples.push(Sample {
            kind: CaseKind::Hidden,
            ..samples[0].clone()
        });
        let ix = oversample_indices(&samples, 2, 5);
        assert_eq!(ix.iter().filter(|&&i| i == 0).count(), 2);
        assert_eq!(ix.iter().filter(|&&i| i == 1).count(), 5);
        assert_eq!(ix.iter().filter(|&&i| i == 2).count(), 0);
    }

    #[test]
    fn scaled_sample_restores_to_original_size() {
        // A case larger than the input size gets scaled, not padded.
        let s = build_sample(&CaseSpec::new("big", 40, 40, 7, CaseKind::Fake), 32).unwrap();
        assert!(matches!(
            s.info,
            SpatialInfo::Scaled {
                width: 40,
                height: 40
            }
        ));
        let pred = s.target.reshape(&[1, 1, 32, 32]).unwrap();
        let restored = s.restore_prediction(&pred);
        assert_eq!(restored.width(), 40);
    }
}
