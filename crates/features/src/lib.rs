//! # lmmir-features
//!
//! Circuit feature-map extraction: rasterizes a PDN netlist and its power
//! map into the per-µm² image channels the contest distributes as CSV files
//! and LMM-IR consumes as its circuit modality.
//!
//! Channels (paper §II-A and §III-A):
//!
//! | channel | origin |
//! |---|---|
//! | current map | per-pixel drawn current |
//! | effective distance map | reciprocal of summed inverse distances to all pads |
//! | PDN density map | mean stripe spacing per region |
//! | voltage-source map | pad positions/values (paper's extra channel) |
//! | current-source map | tap positions/values (paper's extra channel) |
//! | resistance map | resistor values spread over covered pixels (extra) |
//! | effective-resistance map | uniform-injection solve of the PDN (comprehensive) |
//! | pad-distance map | shortest resistive path to a pad (comprehensive) |
//!
//! The first three form the **basic** (IREDGe) stack; the first six form the
//! **extended** stack used by LMM-IR; all eight form the **comprehensive**
//! stack (CFIRSTNET, arXiv:2502.12168) consumed by the CFIRSTNET and
//! WACA-UNet model variants. The crate also rasterizes golden
//! [`lmmir_solver::IrDrop`] results into ground-truth IR maps, and provides
//! the spatial-adjustment pipeline (bilinear scaling / padding / per-channel
//! normalization) described in §III-A.
//!
//! ```
//! use lmmir_pdn::{CaseKind, CaseSpec};
//! use lmmir_features::FeatureStack;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let case = CaseSpec::new("demo", 24, 24, 1, CaseKind::Fake).generate();
//! let stack = FeatureStack::extended(&case);
//! assert_eq!(stack.channels(), 6);
//! let tensor = stack.to_tensor(); // [6, 24, 24]
//! assert_eq!(tensor.dims(), &[6, 24, 24]);
//! # Ok(())
//! # }
//! ```

pub mod fingerprint;
pub mod io;
pub mod maps;
pub mod raster;
pub mod resistance;
pub mod spatial;
pub mod stack;
pub mod violations;
pub mod windows;

pub use fingerprint::{Fnv1a, WordHasher};
pub use maps::{
    current_map, current_source_map, effective_distance_map, ir_drop_map, pdn_density_map,
    resistance_map, voltage_source_map,
};
pub use raster::Raster;
pub use resistance::{effective_resistance_map, effective_resistance_solved, pad_distance_map};
pub use spatial::{normalize_channel, pad_to, resize_bilinear, spatial_adjust, SpatialInfo};
pub use stack::{FeatureChannel, FeatureStack};
pub use violations::{check_budget, find_violations, ViolationRegion, ViolationReport};
pub use windows::WindowStack;
