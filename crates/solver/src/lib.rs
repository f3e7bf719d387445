//! # lmmir-solver
//!
//! Golden static IR-drop analysis for PDN netlists: the solver that produces
//! the ground-truth voltage maps the LMM-IR models are trained against.
//!
//! The flow mirrors what commercial sign-off tools do for static analysis:
//!
//! 1. **Stamp** the netlist into a nodal-analysis system `G·v = i`
//!    ([`stamp()`]): resistors contribute Laplacian conductance entries,
//!    current sources contribute load currents, voltage sources fix pad
//!    nodes (Dirichlet elimination keeps `G` symmetric positive definite).
//! 2. **Factor** `G` once with a sparse Cholesky ([`Cholesky`]) in a
//!    geometric nested-dissection order — `G` is an SPD graph Laplacian
//!    plus pad couplings — and **solve** each right-hand side that shares
//!    it by two triangular solves, checking the true relative residual.
//! 3. **Assemble** per-node voltages and IR drops ([`solve_ir_drop`]).
//!
//! ```
//! use lmmir_spice::Netlist;
//! use lmmir_solver::solve_ir_drop;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two resistors in series from a 1.0 V pad; 0.1 A drawn at the far end:
//! // the far node sags by 0.1 * (1 + 1) = 0.2 V.
//! let nl = Netlist::parse_str(
//!     "V1 n1_m1_0_0 0 1.0\n\
//!      R1 n1_m1_0_0 n1_m1_1_0 1.0\n\
//!      R2 n1_m1_1_0 n1_m1_2_0 1.0\n\
//!      I1 n1_m1_2_0 0 0.1\n.end\n",
//! )?;
//! let ir = solve_ir_drop(&nl)?;
//! let worst = ir.worst_drop();
//! assert!((worst - 0.2).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod cholesky;
pub mod ir;
pub mod sparse;
pub mod stamp;

pub use cholesky::{Cholesky, SolveError, MAX_RESIDUAL};
pub use ir::{solve_ir_drop, IrDrop, SolveIrDropError};
pub use sparse::{grid_laplacian, Csr};
pub use stamp::{stamp, PdnSystem, StampNetlistError};
