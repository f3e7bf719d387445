//! # lmm-ir-repro
//!
//! Workspace façade for the LMM-IR reproduction (Ma et al., DAC 2025:
//! *LMM-IR: Large-Scale Netlist-Aware Multimodal Framework for Static
//! IR-Drop Prediction*).
//!
//! This crate re-exports the workspace layers under stable module names so
//! downstream users can depend on a single crate:
//!
//! * [`par`] — scoped fork-join layer with deterministic partitioning
//! * [`tensor`] — dense f32 tensors + reverse-mode autograd (CPU substrate)
//! * [`nn`] — neural-network layers (conv/norm/attention/embedding)
//! * [`spice`] — ICCAD-2023 PDN SPICE dialect parser/writer
//! * [`solver`] — golden static IR-drop analysis (stamping + sparse Cholesky)
//! * [`pdn`] — contest-style benchmark generation (BeGAN substitute)
//! * [`features`] — circuit feature-map extraction
//! * [`model`] — the LMM-IR model, baselines, training and metrics
//! * [`serve`] — batched HTTP inference server (registry, cache, metrics)
//!
//! ```
//! use lmm_ir_repro::pdn::{CaseKind, CaseSpec};
//! use lmm_ir_repro::features::FeatureStack;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let case = CaseSpec::new("hello", 24, 24, 1, CaseKind::Fake).generate();
//! let ir = case.solve()?;
//! println!("worst IR drop: {:.4} V", ir.worst_drop());
//! assert_eq!(FeatureStack::extended(&case).channels(), 6);
//! # Ok(())
//! # }
//! ```

/// Scoped fork-join parallelism (`LMMIR_THREADS`).
pub use lmmir_par as par;

/// Dense tensors and reverse-mode autograd.
pub use lmmir_tensor as tensor;

/// Neural-network layers.
pub use lmmir_nn as nn;

/// SPICE PDN netlist dialect.
pub use lmmir_spice as spice;

/// Golden IR-drop solver.
pub use lmmir_solver as solver;

/// Benchmark generation.
pub use lmmir_pdn as pdn;

/// Feature-map extraction.
pub use lmmir_features as features;

/// The LMM-IR model, baselines, training, metrics and pipeline.
pub use lmm_ir as model;

/// Batched HTTP inference serving.
pub use lmmir_serve as serve;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // Touch one item per module so a broken re-export fails this test.
        let _ = crate::tensor::Tensor::scalar(1.0);
        let _ = crate::spice::Netlist::new();
        let _ = crate::model::table1();
        let _ = crate::pdn::TESTCASE_SHAPES;
        let _ = crate::serve::ServeConfig::default();
    }
}
