//! End-to-end IR-drop extraction: stamp + factor + solve + assemble.

use crate::cholesky::{Cholesky, SolveError};
use crate::stamp::{stamp, PdnSystem, StampNetlistError};
use lmmir_spice::{Netlist, NodeName};
use std::collections::HashMap;
use std::fmt;

/// Error from [`solve_ir_drop`] (stamping or linear solve).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveIrDropError {
    /// Netlist could not be stamped.
    Stamp(StampNetlistError),
    /// Linear system could not be factored or solved.
    Solve(SolveError),
}

impl fmt::Display for SolveIrDropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveIrDropError::Stamp(e) => write!(f, "stamp failed: {e}"),
            SolveIrDropError::Solve(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl std::error::Error for SolveIrDropError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveIrDropError::Stamp(e) => Some(e),
            SolveIrDropError::Solve(e) => Some(e),
        }
    }
}

impl From<StampNetlistError> for SolveIrDropError {
    fn from(e: StampNetlistError) -> Self {
        SolveIrDropError::Stamp(e)
    }
}

impl From<SolveError> for SolveIrDropError {
    fn from(e: SolveError) -> Self {
        SolveIrDropError::Solve(e)
    }
}

/// Solved node voltages and derived IR drops for one PDN.
#[derive(Debug, Clone)]
pub struct IrDrop {
    voltages: HashMap<NodeName, f64>,
    vdd: f64,
}

impl IrDrop {
    /// Nominal supply voltage.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Voltage at a node, if the node exists.
    #[must_use]
    pub fn voltage(&self, node: &NodeName) -> Option<f64> {
        self.voltages.get(node).copied()
    }

    /// IR drop (`vdd - v`) at a node, if the node exists.
    #[must_use]
    pub fn drop_at(&self, node: &NodeName) -> Option<f64> {
        self.voltages.get(node).map(|v| self.vdd - v)
    }

    /// Worst-case (maximum) IR drop over all nodes.
    #[must_use]
    pub fn worst_drop(&self) -> f64 {
        self.voltages
            .values()
            .map(|v| self.vdd - v)
            .fold(0.0, f64::max)
    }

    /// Iterates `(node, ir_drop)` pairs.
    pub fn iter_drops(&self) -> impl Iterator<Item = (&NodeName, f64)> + '_ {
        self.voltages.iter().map(|(n, v)| (n, self.vdd - v))
    }

    /// Number of solved nodes (including pads).
    #[must_use]
    pub fn len(&self) -> usize {
        self.voltages.len()
    }

    /// True when no node was solved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.voltages.is_empty()
    }
}

/// Runs the full golden flow on a netlist: stamp, factor, solve, assemble
/// per-node voltages (pads included at their fixed voltage).
///
/// # Errors
///
/// Returns [`SolveIrDropError`] when stamping, the factor or the solve
/// fails.
pub fn solve_ir_drop(netlist: &Netlist) -> Result<IrDrop, SolveIrDropError> {
    let sys = stamp(netlist)?;
    let factor = sys.factor()?;
    Ok(sys.solve(&factor)?)
}

impl PdnSystem {
    /// Solves this system's own right-hand side with `factor` — a factor of
    /// this matrix or of an equal one — and assembles per-node voltages.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when the solve fails its residual check.
    pub fn solve(&self, factor: &Cholesky<'_>) -> Result<IrDrop, SolveError> {
        let x = factor.solve(&self.rhs)?;
        let mut voltages = HashMap::with_capacity(self.unknowns.len() + self.fixed.len());
        voltages.extend(self.unknowns.iter().copied().zip(x));
        voltages.extend(self.fixed.iter().map(|(name, v)| (*name, *v)));
        Ok(IrDrop {
            voltages,
            vdd: self.vdd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_spice::Netlist;

    fn name(layer: u8, x: i64, y: i64) -> NodeName {
        NodeName::new(1, layer, x, y)
    }

    #[test]
    fn series_chain_voltage_divider() {
        // 1.0 V pad, two 1 Ω resistors, 0.1 A load at the end.
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\nR2 n1_m1_1_0 n1_m1_2_0 1.0\nI1 n1_m1_2_0 0 0.1\n",
        )
        .unwrap();
        let ir = solve_ir_drop(&nl).unwrap();
        assert!((ir.voltage(&name(1, 1, 0)).unwrap() - 0.9).abs() < 1e-9);
        assert!((ir.voltage(&name(1, 2, 0)).unwrap() - 0.8).abs() < 1e-9);
        assert!((ir.drop_at(&name(1, 2, 0)).unwrap() - 0.2).abs() < 1e-9);
        assert!((ir.worst_drop() - 0.2).abs() < 1e-9);
        assert_eq!(ir.len(), 3);
    }

    #[test]
    fn parallel_paths_halve_resistance() {
        // Two parallel 2 Ω paths from pad to load => effective 1 Ω.
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\n\
             R1 n1_m1_0_0 n1_m1_1_0 2.0\n\
             R2 n1_m1_0_0 n1_m1_1_0 2.0\n\
             I1 n1_m1_1_0 0 0.1\n",
        )
        .unwrap();
        let ir = solve_ir_drop(&nl).unwrap();
        assert!((ir.drop_at(&name(1, 1, 0)).unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn via_path_through_layers() {
        // pad on m4, via (0.5 Ω) down to m1, 1 Ω rail, load 0.2 A.
        let nl = Netlist::parse_str(
            "V1 n1_m4_0_0 0 1.1\n\
             R1 n1_m4_0_0 n1_m1_0_0 0.5\n\
             R2 n1_m1_0_0 n1_m1_1_0 1.0\n\
             I1 n1_m1_1_0 0 0.2\n",
        )
        .unwrap();
        let ir = solve_ir_drop(&nl).unwrap();
        // drop = 0.2 * (0.5 + 1.0) = 0.3 at the load.
        assert!((ir.drop_at(&name(1, 1, 0)).unwrap() - 0.3).abs() < 1e-9);
        assert!((ir.vdd() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn superposition_of_two_loads() {
        // Star: pad - 1Ω - center; center - 1Ω - a (0.1 A); center - 1Ω - b (0.2 A).
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\n\
             R1 n1_m1_0_0 n1_m1_1_0 1.0\n\
             R2 n1_m1_1_0 n1_m1_2_0 1.0\n\
             R3 n1_m1_1_0 n1_m1_3_0 1.0\n\
             I1 n1_m1_2_0 0 0.1\n\
             I2 n1_m1_3_0 0 0.2\n",
        )
        .unwrap();
        let ir = solve_ir_drop(&nl).unwrap();
        // Center carries 0.3 A: v_center = 1 - 0.3 = 0.7.
        assert!((ir.voltage(&name(1, 1, 0)).unwrap() - 0.7).abs() < 1e-9);
        assert!((ir.voltage(&name(1, 2, 0)).unwrap() - 0.6).abs() < 1e-9);
        assert!((ir.voltage(&name(1, 3, 0)).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn grid_solution_is_symmetric() {
        // 3x3 grid of 1 Ω resistors, pad at center, equal loads at corners:
        // corner drops must match by symmetry.
        let mut text = String::from("V1 n1_m1_1_1 0 1.0\n");
        let mut rid = 0;
        for y in 0..3 {
            for x in 0..3 {
                if x + 1 < 3 {
                    text += &format!("R{rid} n1_m1_{x}_{y} n1_m1_{}_{y} 1.0\n", x + 1);
                    rid += 1;
                }
                if y + 1 < 3 {
                    text += &format!("R{rid} n1_m1_{x}_{y} n1_m1_{x}_{} 1.0\n", y + 1);
                    rid += 1;
                }
            }
        }
        for (i, (x, y)) in [(0, 0), (2, 0), (0, 2), (2, 2)].iter().enumerate() {
            text += &format!("I{i} n1_m1_{x}_{y} 0 0.05\n");
        }
        let nl = Netlist::parse_str(&text).unwrap();
        let ir = solve_ir_drop(&nl).unwrap();
        let d00 = ir.drop_at(&name(1, 0, 0)).unwrap();
        for (x, y) in [(2, 0), (0, 2), (2, 2)] {
            let d = ir.drop_at(&name(1, x, y)).unwrap();
            assert!((d - d00).abs() < 1e-8, "corner asymmetry {d} vs {d00}");
        }
        assert!(d00 > 0.0);
    }

    #[test]
    fn no_load_means_no_drop() {
        let nl = Netlist::parse_str("V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\n").unwrap();
        let ir = solve_ir_drop(&nl).unwrap();
        assert!(ir.worst_drop().abs() < 1e-12);
    }

    #[test]
    fn errors_are_propagated_with_context() {
        let nl = Netlist::parse_str("R1 n1_m1_0_0 n1_m1_1_0 1.0\n").unwrap();
        let err = solve_ir_drop(&nl).unwrap_err();
        assert!(err.to_string().contains("stamp failed"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
