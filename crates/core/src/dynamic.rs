//! Dynamic IR-drop prediction (PowerNet-style, Xie et al.).
//!
//! Static IR drop asks "what does the average draw do"; dynamic IR asks
//! "what does the worst instant do". PowerNet's decomposition: split the
//! switching activity into W time windows, build one toggle-weighted power
//! map per window, run a *shared* CNN over every window and take the
//! elementwise **max over windows** as the prediction — worst-case IR per
//! pixel, whichever window causes it.
//!
//! [`DynamicIrPredictor`] implements that head on this repo's substrate: a
//! shared U-Net trunk (1 input channel) applied per window via
//! differentiable channel slicing, combined with `max(a, b) = a + relu(b−a)`
//! so gradients flow to every window's pass. It registers as a second model
//! family ("DynIR") behind the same [`IrPredictor`] interface the serving
//! registry dispatches on, and checkpoints its full configuration as a
//! `config.dynamic` entry.

use crate::data::TARGET_SCALE;
use crate::model::IrPredictor;
use crate::pointcloud::PointCloud;
use crate::train::TrainSample;
use lmmir_features::{ir_drop_map, Raster, SpatialInfo, WindowStack};
use lmmir_nn::{Layer, Module};
use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase, MAX_WINDOWS};
use lmmir_solver::{stamp, SolveIrDropError};
use lmmir_tensor::{Result, Tensor, TensorError, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::blocks::UNet;

/// Configuration of the dynamic (PowerNet-style) predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicIrConfig {
    /// Number of time windows W the model consumes (= input channels).
    pub windows: usize,
    /// Shared-trunk channel plan; `len - 1` pooling stages.
    pub widths: Vec<usize>,
    /// Stem kernel size of the trunk.
    pub stem_kernel: usize,
    /// Square input size the model trains at.
    pub input_size: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl DynamicIrConfig {
    /// Laptop-scale preset for the reproduction harness.
    #[must_use]
    pub fn quick() -> Self {
        DynamicIrConfig {
            windows: 4,
            widths: vec![8, 16, 32],
            stem_kernel: 3,
            input_size: 48,
            seed: 0xD1A0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.windows == 0 || self.windows > MAX_WINDOWS {
            return Err(format!(
                "window count {} out of 1..={MAX_WINDOWS}",
                self.windows
            ));
        }
        if self.widths.len() < 2 {
            return Err("need at least two widths (one pooling stage)".to_string());
        }
        let pools = self.widths.len() - 1;
        if self.input_size % (1 << pools) != 0 {
            return Err(format!(
                "input size {} not divisible by 2^{pools}",
                self.input_size
            ));
        }
        Ok(())
    }
}

/// The PowerNet-style dynamic predictor: shared U-Net trunk per window,
/// elementwise max over the per-window predictions.
#[derive(Debug)]
pub struct DynamicIrPredictor {
    cfg: DynamicIrConfig,
    trunk: UNet,
}

impl DynamicIrPredictor {
    /// Builds the model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`DynamicIrConfig::validate`]) — configurations are
    /// programmer-supplied.
    #[must_use]
    pub fn new(cfg: DynamicIrConfig) -> Self {
        cfg.validate().expect("valid dynamic configuration");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let trunk = UNet::new(1, &cfg.widths, cfg.stem_kernel, None, false, &mut rng);
        DynamicIrPredictor { cfg, trunk }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &DynamicIrConfig {
        &self.cfg
    }
}

/// Differentiable elementwise max: `max(a, b) = a + relu(b − a)`. Where
/// `b > a` the gradient routes to `b`'s window pass, elsewhere to `a`'s —
/// every window that wins somewhere trains.
fn elementwise_max(a: &Var, b: &Var) -> Result<Var> {
    a.add(&b.sub(a)?.relu())
}

impl IrPredictor for DynamicIrPredictor {
    fn arch(&self) -> crate::arch::ArchSpec {
        crate::arch::ArchSpec::DynIr
    }

    fn input_channels(&self) -> usize {
        self.cfg.windows
    }

    fn input_size(&self) -> usize {
        self.cfg.input_size
    }

    fn arch_config(&self) -> Option<crate::arch::ArchConfig> {
        Some(crate::arch::ArchConfig::Dynamic(self.cfg.clone()))
    }

    fn forward(&self, images: &Var, _cloud: Option<&PointCloud>) -> Result<Var> {
        let d = images.dims();
        if d.len() != 4 || d[0] != 1 || d[1] != self.cfg.windows {
            return Err(TensorError::InvalidShape {
                dims: d,
                reason: format!(
                    "dynamic predictor expects [1, {}, S, S] window maps",
                    self.cfg.windows
                ),
            });
        }
        let mut worst: Option<Var> = None;
        for w in 0..self.cfg.windows {
            let window = images.slice_axis(1, w, w + 1)?;
            let pred = self.trunk.forward(&window)?;
            worst = Some(match worst {
                None => pred,
                Some(acc) => elementwise_max(&acc, &pred)?,
            });
        }
        Ok(worst.expect("windows >= 1 by validation"))
    }
}

impl Layer for DynamicIrPredictor {
    fn children(&self) -> Vec<&dyn Layer> {
        vec![&self.trunk]
    }
}

/// One model-ready dynamic data point: per-window images and the
/// max-over-windows golden target.
#[derive(Debug, Clone)]
pub struct DynamicSample {
    /// Case id.
    pub id: String,
    /// Split membership (drives over-sampling).
    pub kind: CaseKind,
    /// Per-window images `[W, S, S]`, adjusted + normalized.
    pub images: Tensor,
    /// Adjusted target `[1, S, S]`: pixelwise max over the per-window
    /// golden IR maps, in volts × [`TARGET_SCALE`].
    pub target: Tensor,
    /// How the maps were spatially adjusted.
    pub info: SpatialInfo,
    /// Original-resolution ground truth (volts, max over windows).
    pub truth: Raster,
    /// Wall-clock seconds of all per-window golden solves.
    pub golden_seconds: f64,
}

/// Builds a dynamic sample: generates the vector workload, golden-solves
/// **every window's** PDN (on one shared factor while the windows' matrices
/// agree), takes the pixelwise max as the target, and rasterizes the
/// windows through the per-window feature pipeline.
///
/// # Errors
///
/// Returns [`SolveIrDropError`] when any window's golden solve fails.
pub fn build_dynamic_sample(
    spec: &CaseSpec,
    windows: usize,
    input_size: usize,
) -> std::result::Result<DynamicSample, SolveIrDropError> {
    let dyn_case = DynamicCase::generate(spec, windows);
    let (w, h) = (dyn_case.case.power.width(), dyn_case.case.power.height());
    let dbu = dyn_case.case.tech.dbu_per_um;

    // Windows change the currents, not the grid: the first window's factor
    // serves every window whose stamped matrix equals it.
    let t0 = std::time::Instant::now();
    let first_net = dyn_case.window_netlist(0);
    let first = stamp(&first_net)?;
    let factor = first.factor()?;
    let mut truth = ir_drop_map(&first.solve(&factor)?, &first_net, w, h, dbu);
    for wi in 1..windows {
        let net = dyn_case.window_netlist(wi);
        let sys = stamp(&net)?;
        let ir = if sys.matrix == first.matrix {
            sys.solve(&factor)?
        } else {
            sys.solve(&sys.factor()?)?
        };
        let map = ir_drop_map(&ir, &net, w, h, dbu);
        for (a, b) in truth.data_mut().iter_mut().zip(map.data()) {
            *a = a.max(*b);
        }
    }
    let golden_seconds = t0.elapsed().as_secs_f64();

    let (truth_adj, info) = lmmir_features::spatial::spatial_adjust(&truth, input_size);
    let stack = WindowStack::rasterize(&dyn_case.windows);
    let (adj, _) = stack.adjusted_normalized(input_size);
    let target = truth_adj
        .to_tensor()
        .scale(TARGET_SCALE)
        .reshape(&[1, input_size, input_size])
        .expect("adjusted truth is input_size²");

    Ok(DynamicSample {
        id: spec.id.clone(),
        kind: spec.kind,
        images: adj.to_tensor(),
        target,
        info,
        truth,
        golden_seconds,
    })
}

/// Dynamic samples train through the shared [`crate::train`] loop with MSE
/// against the max-over-windows golden targets. There is no reconstruction
/// stage: `pretrain_epochs` is ignored.
impl TrainSample for DynamicSample {
    const PRETRAINS: bool = false;

    fn kind(&self) -> CaseKind {
        self.kind
    }

    fn inputs(&self, _model: &dyn IrPredictor) -> (Var, Option<&PointCloud>) {
        (batch_of_one(&self.images), None)
    }

    fn target(&self, _pretrain: bool) -> Var {
        batch_of_one(&self.target)
    }
}

/// `[C, S, S]` maps as a `[1, C, S, S]` constant variable.
fn batch_of_one(maps: &Tensor) -> Var {
    let d = maps.dims();
    Var::constant(
        maps.reshape(&[1, d[0], d[1], d[2]])
            .expect("adding batch axis preserves numel"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainConfig};

    fn tiny_cfg() -> DynamicIrConfig {
        DynamicIrConfig {
            windows: 3,
            widths: vec![4, 8],
            stem_kernel: 3,
            input_size: 16,
            seed: 5,
        }
    }

    #[test]
    fn forward_shapes_and_identity() {
        let m = DynamicIrPredictor::new(tiny_cfg());
        assert_eq!(m.name(), "DynIR");
        assert_eq!(m.input_channels(), 3);
        assert!(!m.uses_netlist());
        assert!(matches!(
            m.arch_config(),
            Some(crate::arch::ArchConfig::Dynamic(_))
        ));
        let x = Var::constant(Tensor::zeros(&[1, 3, 16, 16]));
        let y = m.forward(&x, None).unwrap();
        assert_eq!(y.dims(), vec![1, 1, 16, 16]);
    }

    #[test]
    fn forward_rejects_wrong_window_count() {
        let m = DynamicIrPredictor::new(tiny_cfg());
        let x = Var::constant(Tensor::zeros(&[1, 2, 16, 16]));
        assert!(m.forward(&x, None).is_err());
    }

    #[test]
    fn prediction_is_max_over_windows() {
        // Feeding W copies of the same window must equal a single-trunk
        // pass on that window (max of identical values), and the max of
        // distinct windows must dominate each single-window prediction.
        let m = DynamicIrPredictor::new(tiny_cfg());
        m.set_training(false);
        let mut rng = StdRng::seed_from_u64(3);
        let one = lmmir_tensor::init::uniform(&[1, 1, 16, 16], 1.0, &mut rng);
        let mut tiled = Vec::new();
        for _ in 0..3 {
            tiled.extend_from_slice(one.data());
        }
        let tiled = Var::constant(Tensor::from_vec(tiled, &[1, 3, 16, 16]).unwrap());
        let single = m.trunk.forward(&Var::constant(one)).unwrap().to_tensor();
        let combined = m.forward(&tiled, None).unwrap().to_tensor();
        assert_eq!(single.data(), combined.data());

        let distinct = Var::constant(lmmir_tensor::init::uniform(&[1, 3, 16, 16], 1.0, &mut rng));
        let per_window: Vec<Tensor> = (0..3)
            .map(|w| {
                let win = distinct.slice_axis(1, w, w + 1).unwrap();
                m.trunk.forward(&win).unwrap().to_tensor()
            })
            .collect();
        let combined = m.forward(&distinct, None).unwrap().to_tensor();
        for i in 0..combined.numel() {
            let expect = per_window
                .iter()
                .map(|t| t.data()[i])
                .fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(combined.data()[i], expect, "pixel {i}");
        }
    }

    #[test]
    fn gradients_flow_to_shared_trunk() {
        let m = DynamicIrPredictor::new(tiny_cfg());
        let mut rng = StdRng::seed_from_u64(7);
        let x = Var::constant(lmmir_tensor::init::uniform(&[1, 3, 16, 16], 1.0, &mut rng));
        m.forward(&x, None).unwrap().sum().backward();
        let missing = m.parameters().iter().filter(|p| p.grad().is_none()).count();
        assert_eq!(missing, 0, "all trunk parameters should receive gradient");
    }

    #[test]
    fn deterministic_construction() {
        let a = DynamicIrPredictor::new(tiny_cfg());
        let b = DynamicIrPredictor::new(tiny_cfg());
        for (x, y) in a.parameters().iter().zip(&b.parameters()) {
            assert_eq!(x.value().data(), y.value().data());
        }
    }

    #[test]
    fn config_validation() {
        assert!(DynamicIrConfig::quick().validate().is_ok());
        let mut bad = DynamicIrConfig::quick();
        bad.windows = 0;
        assert!(bad.validate().is_err());
        bad = DynamicIrConfig::quick();
        bad.windows = MAX_WINDOWS + 1;
        assert!(bad.validate().is_err());
        bad = DynamicIrConfig::quick();
        bad.input_size = 47;
        assert!(bad.validate().is_err());
        bad = DynamicIrConfig::quick();
        bad.widths = vec![8];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn dynamic_sample_builds_and_trains() {
        let spec = CaseSpec::new("d", 16, 16, 2, CaseKind::Fake);
        let sample = build_dynamic_sample(&spec, 3, 16).unwrap();
        assert_eq!(sample.images.dims(), &[3, 16, 16]);
        assert_eq!(sample.target.dims(), &[1, 16, 16]);
        assert!(sample.truth.max() > 0.0);
        assert!(sample.golden_seconds > 0.0);

        let m = DynamicIrPredictor::new(tiny_cfg());
        let cfg = TrainConfig {
            epochs: 6,
            pretrain_epochs: 0,
            oversample: (1, 1),
            ..TrainConfig::quick()
        };
        let report = train(&m, &[sample], &cfg).unwrap();
        // Pinned: the bits `train_dynamic` produced on this fixture before
        // it was folded into `train` — same RNG draw order, same loop. The
        // direct golden solver moved losses 2, 3, 5 and 6 by one ULP each.
        let trace: Vec<u32> = report.losses.iter().map(|l| l.to_bits()).collect();
        let pinned = [
            0x3dcce6e2, 0x3dc81adf, 0x3dc3a191, 0x3dbed6ee, 0x3dbb4c18, 0x3db72352,
        ];
        assert_eq!(trace, pinned, "loss trace drifted: {:?}", report.losses);
        assert!(report.pretrain_losses.is_empty());
    }

    #[test]
    fn shared_factor_reproduces_every_window_solved_alone() {
        let spec = CaseSpec::new("share", 24, 24, 11, CaseKind::Fake);
        let dyn_case = DynamicCase::generate(&spec, 4);
        let dbu = dyn_case.case.tech.dbu_per_um;
        let first = stamp(&dyn_case.window_netlist(0)).unwrap();
        let alone = (0..4)
            .map(|wi| {
                let net = dyn_case.window_netlist(wi);
                assert!(
                    stamp(&net).unwrap().matrix == first.matrix,
                    "window {wi} changes currents only, so it reuses the factor"
                );
                let ir = lmmir_solver::solve_ir_drop(&net).unwrap();
                ir_drop_map(&ir, &net, 24, 24, dbu)
            })
            .reduce(|mut acc, map| {
                for (a, b) in acc.data_mut().iter_mut().zip(map.data()) {
                    *a = a.max(*b);
                }
                acc
            })
            .unwrap();
        let sample = build_dynamic_sample(&spec, 4, 16).unwrap();
        assert_eq!(sample.truth.content_hash(), alone.content_hash());
    }

    #[test]
    fn dynamic_target_dominates_mean_window_target() {
        // The max-over-windows truth must sit at or above any single
        // window's IR — the defining property of the dynamic workload.
        let spec = CaseSpec::new("dom", 16, 16, 4, CaseKind::Fake);
        let dyn_case = DynamicCase::generate(&spec, 3);
        let sample = build_dynamic_sample(&spec, 3, 16).unwrap();
        let net = dyn_case.window_netlist(0);
        let ir = lmmir_solver::solve_ir_drop(&net).unwrap();
        let map = ir_drop_map(&ir, &net, 16, 16, dyn_case.case.tech.dbu_per_um);
        for (t, m) in sample.truth.data().iter().zip(map.data()) {
            assert!(t + 1e-6 >= *m);
        }
    }
}
