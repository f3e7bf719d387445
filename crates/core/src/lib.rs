//! # lmm-ir
//!
//! Reproduction of **LMM-IR** (Ma et al., DAC 2025): a large-scale
//! netlist-aware multimodal framework for static IR-drop prediction.
//!
//! The model consumes two modalities of one PDN design:
//!
//! * **circuit maps** — six per-µm² rasters (current, effective distance,
//!   PDN density, voltage-source, current-source, resistance) encoded by a
//!   downsampling CNN with attention gates;
//! * **the SPICE netlist itself** — encoded losslessly as a 3-D point cloud
//!   (coordinates, value, element type, metal layers per element) and
//!   processed by the Large-scale Netlist Transformer ([`Lnt`]).
//!
//! A cross-attention [`FusionModule`] aligns the modalities at the
//! bottleneck, and a deconvolution decoder emits the IR-drop map. Training
//! is two-stage (reconstruction pre-training → MSE fine-tuning) with
//! Gaussian-noise augmentation, following §III-D of the paper.
//!
//! Baselines from Table III (`IREDGe`, `IRPnet`, contest 1st/2nd place) are
//! provided behind the same [`IrPredictor`] interface, and
//! [`AblationVariant`] enumerates the Fig. 4 configurations.
//!
//! ```no_run
//! use lmm_ir::{build_sample, evaluate, train, IrPredictor, LmmIr, LmmIrConfig, TrainConfig};
//! use lmmir_pdn::{hidden_suite, training_suite};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = LmmIrConfig::quick();
//! let model = LmmIr::new(cfg.clone());
//! let train_set: Vec<_> = training_suite(6, 2, 0.125, 7)
//!     .iter()
//!     .map(|s| build_sample(s, cfg.input_size))
//!     .collect::<Result<_, _>>()?;
//! train(&model, &train_set, &TrainConfig::quick())?;
//! let hidden: Vec<_> = hidden_suite(0.125, 7)
//!     .iter()
//!     .map(|s| build_sample(s, cfg.input_size))
//!     .collect::<Result<_, _>>()?;
//! for row in evaluate(&model, &hidden)? {
//!     println!("{}: F1 {:.2} MAE {:.2}e-4 TAT {:.2}s", row.id, row.f1, row.mae_e4, row.tat);
//! }
//! # Ok(())
//! # }
//! ```

pub mod ablation;
pub mod arch;
pub mod baselines;
pub mod blocks;
pub mod capabilities;
pub mod checkpoint;
pub mod data;
pub mod dynamic;
pub mod fixer;
pub mod infer;
pub mod lnt;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod pointcloud;
pub mod train;
pub mod zoo;

pub use ablation::AblationVariant;
pub use arch::{build_predictor, ArchConfig, ArchSpec, FeatureSet};
pub use baselines::{first_place, iredge, irpnet, second_place, IrpNet};
pub use capabilities::{table1, ModelCapabilities};
pub use checkpoint::{load_predictor, save_predictor, CheckpointMeta};
pub use data::{build_dataset, build_sample, oversample_indices, Sample, TARGET_SCALE};
pub use dynamic::{build_dynamic_sample, DynamicIrConfig, DynamicIrPredictor, DynamicSample};
pub use fixer::{predict_case, suggest_pad_fixes, PadFix};
pub use infer::{
    prepare_parts, prepare_window_parts, restore_prediction, InferenceSession, InputSpec,
    Prediction, PreparedInput,
};
/// The walk every predictor is (the supertrait of [`IrPredictor`]):
/// re-exported so crates that drive models need not depend on `lmmir-nn`.
pub use lmmir_nn::Layer;
pub use lnt::{Lnt, LntConfig};
pub use metrics::{
    average, cc, confusion, f1_score, hotspot_mask, mae, CaseMetrics, Confusion, HOTSPOT_FRAC,
};
pub use model::{FusionModule, IrPredictor, LmmIr, LmmIrConfig};
pub use pipeline::{evaluate, golden_speedups};
pub use pointcloud::{NetlistPoint, PointCloud};
pub use train::{train, TrainConfig, TrainReport, TrainSample};
pub use zoo::{UNetConfig, UNetPredictor};
