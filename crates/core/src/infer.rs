//! The reusable inference path: feature preparation → forward → restore.
//!
//! Both the offline evaluation pipeline ([`crate::pipeline::evaluate`]) and
//! the serving layer (`lmmir-serve`) answer the same question — "what is
//! the IR-drop map of this design under this model?" — and they must answer
//! it identically. [`InferenceSession`] is the single implementation of
//! that path, so the two callers cannot drift: evaluation wraps precomputed
//! [`Sample`]s, serving wraps raw request payloads (power map + optional
//! netlist), and both meet at [`InferenceSession::forward`] /
//! [`restore_prediction`].
//!
//! A session runs its model in eval mode and without an autograd tape
//! ([`no_grad`]): the forward keeps no intermediate alive past its
//! consumer, so a request's working set is its live activations, not the
//! whole graph, and the predictions are bitwise those of a recording
//! forward. Every caller — the serving lanes, [`crate::pipeline::evaluate`],
//! [`crate::fixer`] and the bench binaries — gets this without asking.

use crate::arch::FeatureSet;
use crate::data::{Sample, TARGET_SCALE};
use crate::metrics::{hotspot_mask, HOTSPOT_FRAC};
use crate::model::IrPredictor;
use crate::pointcloud::PointCloud;
use lmmir_features::spatial::{normalize_channel, spatial_adjust, spatial_restore};
use lmmir_features::{current_map, FeatureStack, Raster, SpatialInfo, WindowStack};
use lmmir_pdn::PowerMap;
use lmmir_spice::Netlist;
use lmmir_tensor::autograd::no_grad;
use lmmir_tensor::{Result, Tensor, TensorError, Var};
use std::time::Instant;

/// The input contract of a predictor, as plain copyable data.
///
/// Extracted from the model so feature preparation needs no model at
/// hand: clients and tests compute the offline reference from the spec
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSpec {
    /// Image channels the model consumes (1, 3 or 6 for static models;
    /// the window count W for dynamic models).
    pub channels: usize,
    /// Square input size the model was configured for.
    pub size: usize,
    /// Whether the model consumes the netlist point cloud.
    pub uses_netlist: bool,
    /// Time windows a dynamic (PowerNet-style) model consumes; `0` marks a
    /// static model. Non-zero implies `channels == windows` and routes
    /// preparation through [`prepare_window_parts`].
    pub windows: usize,
}

impl InputSpec {
    /// Reads the contract off a model.
    #[must_use]
    pub fn of(model: &dyn IrPredictor) -> Self {
        let windows = match model.arch_config() {
            Some(crate::arch::ArchConfig::Dynamic(c)) => c.windows,
            _ => 0,
        };
        InputSpec {
            channels: model.input_channels(),
            size: model.input_size(),
            uses_netlist: model.uses_netlist(),
            windows,
        }
    }
}

/// A design prepared for one model's input contract: adjusted + normalized
/// images, the optional point cloud, and the spatial bookkeeping needed to
/// map predictions back to chip coordinates.
///
/// Plain data (no autograd handles).
#[derive(Debug, Clone)]
pub struct PreparedInput {
    /// Model input images `[1, C, S, S]`.
    pub images: Tensor,
    /// Netlist point cloud (populated only when the model consumes it and
    /// the caller supplied a netlist).
    pub cloud: Option<PointCloud>,
    /// How the maps were spatially adjusted (for restoring predictions).
    pub info: SpatialInfo,
}

/// One finished prediction at original chip resolution.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// IR-drop map in volts at the design's original resolution.
    pub map: Raster,
    /// Hotspot threshold in volts ([`HOTSPOT_FRAC`] of the map maximum).
    pub threshold: f32,
    /// Per-pixel hotspot mask (`1` where `map >= threshold`), row-major.
    pub mask: Vec<u8>,
    /// Wall-clock seconds of the model forward pass (the TAT column).
    pub tat: f64,
}

/// Prepares a design given as raw parts (power map + optional netlist) for
/// a model input contract.
///
/// The produced images are bitwise identical to what [`crate::build_sample`]
/// would produce for the same design content — both run the same
/// rasterize → adjust → normalize pipeline.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the model needs netlist-derived feature
/// channels but no netlist was supplied, and [`TensorError::InvalidShape`]
/// for an empty power map or an unsupported channel count.
pub fn prepare_parts(
    spec: InputSpec,
    power: &PowerMap,
    netlist: Option<&Netlist>,
    dbu_per_um: i64,
) -> Result<PreparedInput> {
    if spec.windows > 0 {
        return Err(TensorError::Io(format!(
            "model consumes {} per-window power maps, but the request \
             carried only a static map (see prepare_window_parts)",
            spec.windows
        )));
    }
    let (w, h) = (power.width(), power.height());
    if w == 0 || h == 0 {
        return Err(TensorError::InvalidShape {
            dims: vec![h, w],
            reason: "power map must be non-empty".to_string(),
        });
    }
    let feature_set =
        FeatureSet::for_channels(spec.channels).ok_or_else(|| TensorError::InvalidShape {
            dims: vec![spec.channels],
            reason: "no feature stack with this channel count".to_string(),
        })?;
    let (images, info) = match feature_set {
        // The current map alone (IRPnet's physics-window input) needs no
        // netlist; the adjust + normalize steps match the basic stack's
        // treatment of its current channel exactly.
        FeatureSet::CurrentOnly => {
            let (adj, info) = spatial_adjust(&current_map(power), spec.size);
            let (norm, _) = normalize_channel(&adj);
            let images = norm
                .to_tensor()
                .reshape(&[1, 1, spec.size, spec.size])
                .expect("adjusted raster is size²");
            (images, info)
        }
        set => {
            let netlist = netlist.ok_or_else(|| {
                TensorError::Io(format!(
                    "model consumes {} feature channels, which require a netlist, \
                     but the request carried none",
                    spec.channels
                ))
            })?;
            let stack = match set {
                FeatureSet::Basic => FeatureStack::basic_parts(power, netlist, dbu_per_um),
                FeatureSet::Extended => FeatureStack::extended_parts(power, netlist, dbu_per_um),
                _ => FeatureStack::comprehensive_parts(power, netlist, dbu_per_um),
            };
            let (adj, info) = stack.adjusted_normalized(spec.size);
            let images = adj
                .to_tensor()
                .reshape(&[1, spec.channels, spec.size, spec.size])
                .expect("adjusted stack is C×size²");
            (images, info)
        }
    };
    let cloud = match (spec.uses_netlist, netlist) {
        (true, Some(nl)) => Some(PointCloud::from_netlist(nl, dbu_per_um, w as f64, h as f64)),
        _ => None,
    };
    Ok(PreparedInput {
        images,
        cloud,
        info,
    })
}

/// Prepares a dynamic design given as per-window power maps for a
/// windows-bearing model input contract.
///
/// The produced images are bitwise identical to what
/// [`crate::build_dynamic_sample`] would produce for the same window
/// content — both run the same per-window rasterize → adjust → normalize
/// pipeline ([`WindowStack`]).
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the spec is not dynamic or the window
/// count disagrees, and [`TensorError::InvalidShape`] for empty or
/// mismatched window maps.
pub fn prepare_window_parts(spec: InputSpec, windows: &[PowerMap]) -> Result<PreparedInput> {
    if spec.windows == 0 {
        return Err(TensorError::Io(
            "static model cannot consume per-window power maps".to_string(),
        ));
    }
    if windows.len() != spec.windows {
        return Err(TensorError::Io(format!(
            "model consumes {} windows but the request carried {}",
            spec.windows,
            windows.len()
        )));
    }
    if windows.iter().any(|m| m.width() == 0 || m.height() == 0) {
        return Err(TensorError::InvalidShape {
            dims: vec![0],
            reason: "window maps must be non-empty".to_string(),
        });
    }
    let (w0, h0) = (windows[0].width(), windows[0].height());
    if windows.iter().any(|m| m.width() != w0 || m.height() != h0) {
        return Err(TensorError::InvalidShape {
            dims: vec![w0, h0],
            reason: "window maps must share one size".to_string(),
        });
    }
    let stack = WindowStack::rasterize(windows);
    let (adj, info) = stack.adjusted_normalized(spec.size);
    let images = adj
        .to_tensor()
        .reshape(&[1, spec.windows, spec.size, spec.size])
        .expect("adjusted stack is W×size²");
    Ok(PreparedInput {
        images,
        cloud: None,
        info,
    })
}

/// Restores a model prediction `[1, 1, S, S]` to the original chip
/// resolution and to volts (undoing [`TARGET_SCALE`]).
///
/// # Panics
///
/// Panics when `pred` is not a rank-4 single-map tensor.
#[must_use]
pub fn restore_prediction(info: SpatialInfo, pred: &Tensor) -> Raster {
    let d = pred.dims();
    assert_eq!(d.len(), 4, "prediction must be [1,1,S,S]");
    let flat = pred
        .reshape(&[d[2], d[3]])
        .expect("squeeze batch/channel axes")
        .scale(1.0 / TARGET_SCALE);
    spatial_restore(&Raster::from_tensor(&flat), info)
}

/// A model wrapped for inference: eval mode, no tape, shared
/// prepare/forward/restore.
///
/// Holds only a borrow — sessions are cheap to construct per call site.
pub struct InferenceSession<'m> {
    model: &'m dyn IrPredictor,
    spec: InputSpec,
}

impl<'m> InferenceSession<'m> {
    /// Wraps a model, switching it to eval mode.
    #[must_use]
    pub fn new(model: &'m dyn IrPredictor) -> Self {
        model.set_training(false);
        InferenceSession {
            model,
            spec: InputSpec::of(model),
        }
    }

    /// The wrapped model.
    #[must_use]
    pub fn model(&self) -> &dyn IrPredictor {
        self.model
    }

    /// The model's input contract.
    #[must_use]
    pub fn spec(&self) -> InputSpec {
        self.spec
    }

    /// Prepares a design given as raw parts (see [`prepare_parts`]).
    ///
    /// # Errors
    ///
    /// See [`prepare_parts`].
    pub fn prepare(
        &self,
        power: &PowerMap,
        netlist: Option<&Netlist>,
        dbu_per_um: i64,
    ) -> Result<PreparedInput> {
        prepare_parts(self.spec, power, netlist, dbu_per_um)
    }

    /// Prepares a dynamic design given as per-window power maps (see
    /// [`prepare_window_parts`]).
    ///
    /// # Errors
    ///
    /// See [`prepare_window_parts`].
    pub fn prepare_windows(&self, windows: &[PowerMap]) -> Result<PreparedInput> {
        prepare_window_parts(self.spec, windows)
    }

    /// Prepares a precomputed [`Sample`] (no rasterization; selects the
    /// stack matching the model's channel count).
    #[must_use]
    pub fn prepare_sample(&self, sample: &Sample) -> PreparedInput {
        PreparedInput {
            images: sample.images_tensor_for(self.spec.channels),
            cloud: self.spec.uses_netlist.then(|| sample.cloud.clone()),
            info: sample.info,
        }
    }

    /// Runs the model forward pass, returning the raw prediction
    /// `[1, 1, S, S]` and the wall-clock seconds it took (TAT).
    ///
    /// The pass runs inside [`no_grad`]: it records no tape, so each
    /// intermediate is freed as soon as its consumer has run and the
    /// thread's buffer pool recycles it for the next op. The input images
    /// are shared by handle. Values are bitwise those of a recording
    /// forward.
    ///
    /// # Errors
    ///
    /// Returns tensor errors when the input does not match the model's
    /// contract.
    pub fn forward(&self, input: &PreparedInput) -> Result<(Tensor, f64)> {
        let images = Var::constant(input.images.clone());
        no_grad(|| {
            let t0 = Instant::now();
            let pred = self.model.forward(&images, input.cloud.as_ref())?;
            // Serving boundary: force any pending fused chain *inside* the
            // timed region, so TAT measures the full compute rather than
            // deferring the tail onto whoever reads the prediction next.
            pred.value().force();
            let tat = t0.elapsed().as_secs_f64();
            Ok((pred.to_tensor(), tat))
        })
    }

    /// Full prediction: forward, restore to chip resolution, hotspot mask
    /// at the paper's threshold.
    ///
    /// # Errors
    ///
    /// See [`InferenceSession::forward`].
    pub fn predict(&self, input: &PreparedInput) -> Result<Prediction> {
        let (pred, tat) = self.forward(input)?;
        let map = restore_prediction(input.info, &pred);
        let (threshold, mask) = hotspot_mask(&map, HOTSPOT_FRAC);
        Ok(Prediction {
            map,
            threshold,
            mask,
            tat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{iredge, irpnet};
    use crate::data::build_sample;
    use crate::model::{LmmIr, LmmIrConfig};
    use lmmir_pdn::{CaseKind, CaseSpec};

    #[test]
    fn raw_parts_match_sample_preparation_bitwise() {
        // The same design content, prepared once through `build_sample` and
        // once through the raw-parts path, must produce identical inputs —
        // the no-drift guarantee the serving layer relies on.
        let spec = CaseSpec::new("p", 20, 20, 3, CaseKind::Hidden);
        let case = spec.generate();
        let sample = build_sample(&spec, 32).unwrap();
        for model in [iredge(32, 1), iredge(32, 2)] {
            let session = InferenceSession::new(&model);
            let from_sample = session.prepare_sample(&sample);
            let from_parts = session
                .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
                .unwrap();
            assert_eq!(from_sample.images.data(), from_parts.images.data());
            assert_eq!(from_sample.info, from_parts.info);
        }
    }

    #[test]
    fn predict_matches_pipeline_restore() {
        let spec = CaseSpec::new("q", 16, 16, 5, CaseKind::Hidden);
        let sample = build_sample(&spec, 16).unwrap();
        let model = iredge(16, 9);
        let session = InferenceSession::new(&model);
        let input = session.prepare_sample(&sample);
        let pred = session.predict(&input).unwrap();
        assert_eq!(pred.map.width(), 16);
        assert_eq!(pred.mask.len(), 16 * 16);
        assert!(pred.tat > 0.0);
        // Mask agrees with the threshold everywhere.
        for (v, m) in pred.map.data().iter().zip(&pred.mask) {
            assert_eq!(*m == 1, *v >= pred.threshold && pred.map.max() > 0.0);
        }
        // Restoring through the Sample path gives the identical raster.
        let (raw, _) = session.forward(&input).unwrap();
        assert_eq!(sample.restore_prediction(&raw).data(), pred.map.data());
    }

    #[test]
    fn single_channel_model_needs_no_netlist() {
        let spec = CaseSpec::new("r", 16, 16, 7, CaseKind::Hidden);
        let case = spec.generate();
        let model = irpnet(16, 3);
        let session = InferenceSession::new(&model);
        let input = session
            .prepare(&case.power, None, case.tech.dbu_per_um)
            .unwrap();
        assert!(session.predict(&input).is_ok());
    }

    #[test]
    fn multi_channel_model_rejects_missing_netlist() {
        let case = CaseSpec::new("s", 16, 16, 7, CaseKind::Hidden).generate();
        let model = iredge(16, 3);
        let session = InferenceSession::new(&model);
        let err = session
            .prepare(&case.power, None, case.tech.dbu_per_um)
            .unwrap_err();
        assert!(err.to_string().contains("netlist"), "got {err}");
    }

    #[test]
    fn netlist_model_builds_cloud_from_parts() {
        let case = CaseSpec::new("t", 16, 16, 4, CaseKind::Hidden).generate();
        let cfg = LmmIrConfig {
            widths: vec![4, 8],
            input_size: 16,
            ..LmmIrConfig::quick()
        };
        let model = LmmIr::new(cfg);
        let session = InferenceSession::new(&model);
        let input = session
            .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
            .unwrap();
        assert!(input.cloud.is_some());
        assert!(session.predict(&input).is_ok());
    }

    #[test]
    fn window_parts_match_dynamic_sample_bitwise() {
        use crate::dynamic::{build_dynamic_sample, DynamicIrConfig, DynamicIrPredictor};
        let spec = CaseSpec::new("dw", 16, 16, 6, CaseKind::Hidden);
        let sample = build_dynamic_sample(&spec, 3, 16).unwrap();
        let model = DynamicIrPredictor::new(DynamicIrConfig {
            windows: 3,
            widths: vec![4, 8],
            stem_kernel: 3,
            input_size: 16,
            seed: 2,
        });
        let session = InferenceSession::new(&model);
        assert_eq!(session.spec().windows, 3);
        let dyn_case = lmmir_pdn::DynamicCase::generate(&spec, 3);
        let prepared = session.prepare_windows(&dyn_case.windows).unwrap();
        let sample_images = sample.images.reshape(&[1, 3, 16, 16]).unwrap();
        assert_eq!(prepared.images.data(), sample_images.data());
        assert_eq!(prepared.info, sample.info);
        assert!(session.predict(&prepared).is_ok());
    }

    #[test]
    fn dynamic_spec_rejects_static_preparation_and_vice_versa() {
        use crate::dynamic::{DynamicIrConfig, DynamicIrPredictor};
        let case = CaseSpec::new("dx", 16, 16, 1, CaseKind::Fake).generate();
        let model = DynamicIrPredictor::new(DynamicIrConfig {
            windows: 2,
            widths: vec![4, 8],
            stem_kernel: 3,
            input_size: 16,
            seed: 1,
        });
        let session = InferenceSession::new(&model);
        let err = session
            .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
            .unwrap_err();
        assert!(err.to_string().contains("per-window"), "got {err}");
        // Wrong window count is rejected.
        let err = session
            .prepare_windows(std::slice::from_ref(&case.power))
            .unwrap_err();
        assert!(err.to_string().contains("2 windows"), "got {err}");
        // Static models reject window payloads.
        let static_model = irpnet(16, 3);
        let static_session = InferenceSession::new(&static_model);
        assert!(static_session
            .prepare_windows(&[case.power.clone(), case.power.clone()])
            .is_err());
    }

    #[test]
    fn comprehensive_model_prepares_eight_channels_bitwise() {
        use crate::zoo::{UNetConfig, UNetPredictor};
        let spec = CaseSpec::new("u", 16, 16, 4, CaseKind::Hidden);
        let case = spec.generate();
        let sample = build_sample(&spec, 16).unwrap();
        let model = UNetPredictor::new(UNetConfig {
            widths: vec![4, 8],
            input_size: 16,
            ..UNetConfig::quick(crate::ArchSpec::WacaUnet)
        });
        let session = InferenceSession::new(&model);
        let from_sample = session.prepare_sample(&sample);
        assert_eq!(from_sample.images.dims(), &[1, 8, 16, 16]);
        let from_parts = session
            .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
            .unwrap();
        assert_eq!(from_sample.images.data(), from_parts.images.data());
        assert!(session.predict(&from_parts).is_ok());
        // And like every netlist-fed stack, a missing netlist is rejected.
        let err = session
            .prepare(&case.power, None, case.tech.dbu_per_um)
            .unwrap_err();
        assert!(err.to_string().contains("netlist"), "got {err}");
    }

    #[test]
    fn empty_power_map_is_rejected() {
        let model = irpnet(16, 3);
        let session = InferenceSession::new(&model);
        assert!(session.prepare(&PowerMap::zeros(0, 0), None, 2000).is_err());
    }
}
