//! Nodal-analysis stamping: netlist → `G·v = i` with Dirichlet pads.

use crate::cholesky::{Cholesky, SolveError};
use crate::sparse::Csr;
use lmmir_spice::{ElementKind, Netlist, NodeName};
use std::collections::HashMap;
use std::fmt;

/// Smallest resistance treated as a real resistor; anything below is a
/// short and must have been collapsed by the generator.
const MIN_RESISTANCE: f64 = 1e-9;

/// Error produced while stamping a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StampNetlistError {
    /// The netlist has no voltage source, so the system has no reference.
    NoVoltageSource,
    /// A node draws current but has no resistive path (singular system).
    FloatingNode {
        /// The offending node.
        node: String,
    },
    /// A voltage source is not tied to ground on its second terminal.
    UngroundedVoltageSource {
        /// Name of the offending source.
        name: String,
    },
    /// A current source is not tied to ground on its second terminal.
    UngroundedCurrentSource {
        /// Name of the offending source.
        name: String,
    },
}

impl fmt::Display for StampNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StampNetlistError::NoVoltageSource => {
                write!(f, "netlist has no voltage source; system is floating")
            }
            StampNetlistError::FloatingNode { node } => {
                write!(f, "node {node} has sources but no resistive path")
            }
            StampNetlistError::UngroundedVoltageSource { name } => {
                write!(f, "voltage source {name} must connect node to ground")
            }
            StampNetlistError::UngroundedCurrentSource { name } => {
                write!(f, "current source {name} must connect node to ground")
            }
        }
    }
}

impl std::error::Error for StampNetlistError {}

/// The stamped linear system for the unknown (non-pad) nodes.
#[derive(Debug, Clone)]
pub struct PdnSystem {
    /// SPD conductance matrix over unknown nodes.
    pub matrix: Csr,
    /// Right-hand side: current injections plus pad couplings.
    pub rhs: Vec<f64>,
    /// Unknown index → node name.
    pub unknowns: Vec<NodeName>,
    /// Pad node → fixed voltage.
    pub fixed: HashMap<NodeName, f64>,
    /// Nominal supply voltage (max pad voltage).
    pub vdd: f64,
}

impl PdnSystem {
    /// Number of unknown nodes.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.unknowns.len()
    }

    /// Factors [`PdnSystem::matrix`], ordered by the unknowns' `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] naming the row of an
    /// unknown with no resistive path to a pad.
    pub fn factor(&self) -> Result<Cholesky<'_>, SolveError> {
        let coords: Vec<(i64, i64)> = self.unknowns.iter().map(|n| (n.x, n.y)).collect();
        Cholesky::factor(&self.matrix, &coords)
    }
}

/// Stamps a PDN netlist into a reduced nodal-analysis system.
///
/// Pad nodes (terminals of voltage sources) are eliminated Dirichlet-style:
/// their known voltage moves to the right-hand side, keeping the remaining
/// matrix symmetric positive definite so Cholesky applies.
///
/// Sign conventions match SPICE: a current source `I n 0 v` draws `v`
/// amperes out of node `n` into ground.
///
/// # Errors
///
/// Returns [`StampNetlistError`] when the netlist cannot form a solvable
/// system (no supply, floating loads, non-grounded sources).
pub fn stamp(netlist: &Netlist) -> Result<PdnSystem, StampNetlistError> {
    // Pass 1: pad voltages.
    let mut fixed: HashMap<NodeName, f64> = HashMap::new();
    let mut vdd = f64::NEG_INFINITY;
    for e in netlist.iter() {
        if e.kind == ElementKind::VoltageSource {
            let (node, other) = (&e.a, &e.b);
            let name = match (node.name(), other.is_ground()) {
                (Some(n), true) => *n,
                _ => {
                    // Allow the reversed order `V 0 node value`.
                    match (other.name(), node.is_ground()) {
                        (Some(n), true) => *n,
                        _ => {
                            return Err(StampNetlistError::UngroundedVoltageSource {
                                name: e.name.to_string(),
                            })
                        }
                    }
                }
            };
            fixed.insert(name, e.value);
            vdd = vdd.max(e.value);
        }
    }
    if fixed.is_empty() {
        return Err(StampNetlistError::NoVoltageSource);
    }

    // Pass 2: unknown node numbering (first-appearance order, pads skipped).
    let mut index: HashMap<NodeName, usize> = HashMap::new();
    let mut unknowns: Vec<NodeName> = Vec::new();
    for e in netlist.iter() {
        for r in [&e.a, &e.b] {
            if let Some(n) = r.name() {
                if !fixed.contains_key(n) && !index.contains_key(n) {
                    index.insert(*n, unknowns.len());
                    unknowns.push(*n);
                }
            }
        }
    }

    // Pass 3: stamping.
    let n = unknowns.len();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(netlist.len() * 4);
    let mut rhs = vec![0.0f64; n];
    let mut has_conductance = vec![false; n];
    for e in netlist.iter() {
        match e.kind {
            ElementKind::Resistor => {
                if e.a == e.b {
                    continue; // self-loop carries no information
                }
                let g = 1.0 / e.value.max(MIN_RESISTANCE);
                let ia = e.a.name().and_then(|nm| index.get(nm)).copied();
                let ib = e.b.name().and_then(|nm| index.get(nm)).copied();
                let va = e.a.name().and_then(|nm| fixed.get(nm)).copied();
                let vb = e.b.name().and_then(|nm| fixed.get(nm)).copied();
                match (ia, ib) {
                    (Some(i), Some(j)) => {
                        triplets.push((i, i, g));
                        triplets.push((j, j, g));
                        triplets.push((i, j, -g));
                        triplets.push((j, i, -g));
                        has_conductance[i] = true;
                        has_conductance[j] = true;
                    }
                    (Some(i), None) => {
                        // Other end is a pad (known voltage) or ground (0 V).
                        let v = vb.unwrap_or(0.0);
                        triplets.push((i, i, g));
                        rhs[i] += g * v;
                        has_conductance[i] = true;
                    }
                    (None, Some(j)) => {
                        let v = va.unwrap_or(0.0);
                        triplets.push((j, j, g));
                        rhs[j] += g * v;
                        has_conductance[j] = true;
                    }
                    (None, None) => {} // pad-to-pad or pad-to-ground: no unknowns
                }
            }
            ElementKind::CurrentSource => {
                let (node, other) = (&e.a, &e.b);
                let (name, sign) = match (node.name(), other.is_ground()) {
                    (Some(nm), true) => (*nm, 1.0),
                    _ => match (other.name(), node.is_ground()) {
                        (Some(nm), true) => (*nm, -1.0),
                        _ => {
                            return Err(StampNetlistError::UngroundedCurrentSource {
                                name: e.name.to_string(),
                            })
                        }
                    },
                };
                if let Some(&i) = index.get(&name) {
                    // Source draws current out of the node.
                    rhs[i] -= sign * e.value;
                }
                // Current sourced at a pad node is absorbed by the supply.
            }
            ElementKind::VoltageSource => {}
        }
    }

    // Every unknown that participates must have conductance, otherwise the
    // system is singular.
    for (i, &ok) in has_conductance.iter().enumerate() {
        if !ok {
            return Err(StampNetlistError::FloatingNode {
                node: unknowns[i].to_string(),
            });
        }
    }

    Ok(PdnSystem {
        matrix: Csr::from_triplets(n, &triplets),
        rhs,
        unknowns,
        fixed,
        vdd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_spice::Netlist;

    #[test]
    fn series_divider_stamps_expected_matrix() {
        // pad -- R1 -- a -- R2 -- b, 0.1 A at b
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 2.0\nR2 n1_m1_1_0 n1_m1_2_0 4.0\nI1 n1_m1_2_0 0 0.1\n",
        )
        .unwrap();
        let sys = stamp(&nl).unwrap();
        assert_eq!(sys.unknown_count(), 2);
        assert!((sys.vdd - 1.0).abs() < 1e-12);
        // a: g1 + g2 on diagonal = 0.5 + 0.25
        assert!((sys.matrix.get(0, 0) - 0.75).abs() < 1e-12);
        assert!((sys.matrix.get(1, 1) - 0.25).abs() < 1e-12);
        assert!((sys.matrix.get(0, 1) + 0.25).abs() < 1e-12);
        // rhs(a) = g1 * 1.0 V pad coupling; rhs(b) = -0.1 A.
        assert!((sys.rhs[0] - 0.5).abs() < 1e-12);
        assert!((sys.rhs[1] + 0.1).abs() < 1e-12);
        assert!(sys.matrix.is_symmetric(1e-12));
    }

    #[test]
    fn missing_supply_is_error() {
        let nl = Netlist::parse_str("R1 n1_m1_0_0 n1_m1_1_0 1.0\n").unwrap();
        assert_eq!(stamp(&nl).unwrap_err(), StampNetlistError::NoVoltageSource);
    }

    #[test]
    fn floating_load_is_error() {
        let nl = Netlist::parse_str("V1 n1_m1_0_0 0 1.0\nI1 n1_m1_5_5 0 0.1\n").unwrap();
        match stamp(&nl).unwrap_err() {
            StampNetlistError::FloatingNode { node } => assert!(node.contains("5_5")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ungrounded_sources_are_errors() {
        let nl =
            Netlist::parse_str("V1 n1_m1_0_0 n1_m1_1_0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\n").unwrap();
        assert!(matches!(
            stamp(&nl).unwrap_err(),
            StampNetlistError::UngroundedVoltageSource { .. }
        ));
        let nl2 = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\nI1 n1_m1_0_0 n1_m1_1_0 0.1\n",
        )
        .unwrap();
        assert!(matches!(
            stamp(&nl2).unwrap_err(),
            StampNetlistError::UngroundedCurrentSource { .. }
        ));
    }

    #[test]
    fn reversed_source_terminals_accepted() {
        let nl = Netlist::parse_str(
            "V1 0 n1_m1_0_0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\nI1 0 n1_m1_1_0 -0.1\n",
        )
        .unwrap();
        let sys = stamp(&nl).unwrap();
        // I 0 node -0.1 == I node 0 +0.1 (draws 0.1 A).
        assert!((sys.rhs[0] - (1.0 - 0.1)).abs() < 1e-9 || (sys.rhs[0] + 0.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn current_at_pad_is_absorbed() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\nI1 n1_m1_0_0 0 5.0\n",
        )
        .unwrap();
        let sys = stamp(&nl).unwrap();
        // The 5 A at the pad does not appear in the reduced rhs.
        assert!((sys.rhs[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pad_to_pad_resistor_ignored_in_reduced_system() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\nV2 n1_m1_9_0 0 1.0\nR1 n1_m1_0_0 n1_m1_9_0 1.0\nR2 n1_m1_0_0 n1_m1_1_0 1.0\nI1 n1_m1_1_0 0 0.1\n",
        )
        .unwrap();
        let sys = stamp(&nl).unwrap();
        assert_eq!(sys.unknown_count(), 1);
    }

    #[test]
    fn self_loop_resistor_skipped() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.0\nR0 n1_m1_1_0 n1_m1_1_0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\n",
        )
        .unwrap();
        let sys = stamp(&nl).unwrap();
        assert_eq!(sys.unknown_count(), 1);
        assert!((sys.matrix.get(0, 0) - 1.0).abs() < 1e-12);
    }
}
