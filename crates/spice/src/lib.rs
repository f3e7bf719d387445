//! # lmmir-spice
//!
//! Parser, data model and writer for the SPICE power-delivery-network (PDN)
//! dialect used by the ICCAD-2023 CAD contest on static IR-drop estimation —
//! the netlist modality consumed by LMM-IR.
//!
//! The dialect is small but appears at large scale (contest netlists reach
//! hundreds of thousands to millions of elements):
//!
//! ```text
//! * comment
//! R1 n1_m1_4800_0 n1_m1_5600_0 0.26
//! I2 n1_m1_5600_0 0 1.17e-05
//! V3 n1_m9_4000_4000 0 1.1
//! .end
//! ```
//!
//! Node names encode the PDN geometry: `n<net>_m<layer>_<x>_<y>` with
//! coordinates in database units. Resistors whose endpoints sit on different
//! metal layers are **vias** — the inter-layer connections the paper's point
//! cloud representation is designed to preserve.
//!
//! ```
//! use lmmir_spice::Netlist;
//!
//! # fn main() -> Result<(), lmmir_spice::ParseNetlistError> {
//! let src = "R1 n1_m1_0_0 n1_m1_2000_0 0.5\nI1 n1_m1_2000_0 0 0.003\nV1 n1_m4_0_0 0 1.1\n.end\n";
//! let netlist = Netlist::parse_str(src)?;
//! assert_eq!(netlist.len(), 3);
//! assert_eq!(netlist.stats().resistors, 1);
//! # Ok(())
//! # }
//! ```

pub mod model;
pub mod parse;
pub mod validate;
pub mod write;

pub use model::{Element, ElementKind, ElementName, Netlist, NetlistStats, NodeName, NodeRef};
pub use parse::ParseNetlistError;
pub use validate::{validate, Finding, ValidationReport};
