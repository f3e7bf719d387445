//! Netlist validation: structural checks a PDN must pass before analysis.
//!
//! The golden solver reports *some* of these as solve-time errors; this
//! module finds them all up front with designer-readable diagnostics, the
//! way a commercial tool's ERC (electrical rule check) stage would.

use crate::model::{ElementKind, Netlist, NodeName};
use std::collections::{HashMap, HashSet, VecDeque};

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// No voltage source anywhere: nothing defines a reference.
    NoSupply,
    /// A node is touched only by sources (no resistive path at all).
    DanglingNode {
        /// The offending node.
        node: NodeName,
    },
    /// A node has no resistive path to any voltage source.
    DisconnectedFromSupply {
        /// The offending node.
        node: NodeName,
        /// Size of its connected component.
        component_size: usize,
    },
    /// A resistor with a suspicious value (zero or enormous).
    SuspiciousResistance {
        /// Element name.
        name: String,
        /// The value.
        value: f64,
    },
    /// Two voltage sources drive different voltages on the same net
    /// component (would create a contention current path).
    ConflictingSupplies {
        /// The two source values.
        values: (f64, f64),
    },
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::NoSupply => write!(f, "netlist has no voltage source"),
            Finding::DanglingNode { node } => {
                write!(f, "node {node} has sources but no resistor")
            }
            Finding::DisconnectedFromSupply {
                node,
                component_size,
            } => write!(
                f,
                "node {node} (component of {component_size} nodes) has no path to a supply"
            ),
            Finding::SuspiciousResistance { name, value } => {
                write!(f, "resistor {name} has suspicious value {value}")
            }
            Finding::ConflictingSupplies { values } => write!(
                f,
                "conflicting supply voltages {} and {} on connected nodes",
                values.0, values.1
            ),
        }
    }
}

/// Result of a full validation pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValidationReport {
    /// All findings, in detection order.
    pub findings: Vec<Finding>,
}

impl ValidationReport {
    /// True when no problems were found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs all electrical rule checks on a netlist.
#[must_use]
pub fn validate(netlist: &Netlist) -> ValidationReport {
    let mut report = ValidationReport::default();

    // Adjacency over resistors (ground excluded: it is not part of the
    // power net), plus bookkeeping for per-node element participation.
    let mut adjacency: HashMap<NodeName, Vec<NodeName>> = HashMap::new();
    let mut has_resistor: HashSet<NodeName> = HashSet::new();
    let mut touched: HashSet<NodeName> = HashSet::new();
    let mut supplies: Vec<(NodeName, f64)> = Vec::new();

    for e in netlist.iter() {
        for r in [&e.a, &e.b] {
            if let Some(n) = r.name() {
                touched.insert(*n);
            }
        }
        match e.kind {
            ElementKind::Resistor => {
                if e.value <= 0.0 || e.value > 1e9 {
                    report.findings.push(Finding::SuspiciousResistance {
                        name: e.name.to_string(),
                        value: e.value,
                    });
                }
                if let (Some(a), Some(b)) = (e.a.name(), e.b.name()) {
                    if a != b {
                        adjacency.entry(*a).or_default().push(*b);
                        adjacency.entry(*b).or_default().push(*a);
                    }
                    has_resistor.insert(*a);
                    has_resistor.insert(*b);
                } else if let Some(n) = e.a.name().or_else(|| e.b.name()) {
                    // Resistor to ground still counts as resistive contact.
                    has_resistor.insert(*n);
                }
            }
            ElementKind::VoltageSource => {
                if let Some(n) = e.a.name().or_else(|| e.b.name()) {
                    supplies.push((*n, e.value));
                }
            }
            ElementKind::CurrentSource => {}
        }
    }

    if supplies.is_empty() {
        report.findings.push(Finding::NoSupply);
    }

    // Dangling: touched by elements but never by a resistor.
    for n in &touched {
        if !has_resistor.contains(n) {
            report.findings.push(Finding::DanglingNode { node: *n });
        }
    }

    // Connected components + supply reachability + supply conflicts.
    let mut component: HashMap<NodeName, usize> = HashMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    for n in adjacency.keys() {
        if component.contains_key(n) {
            continue;
        }
        let id = sizes.len();
        let mut size = 0;
        let mut queue = VecDeque::from([*n]);
        component.insert(*n, id);
        while let Some(cur) = queue.pop_front() {
            size += 1;
            for next in adjacency.get(&cur).into_iter().flatten() {
                if !component.contains_key(next) {
                    component.insert(*next, id);
                    queue.push_back(*next);
                }
            }
        }
        sizes.push(size);
    }
    let mut supplied: HashSet<usize> = HashSet::new();
    let mut supply_value: HashMap<usize, f64> = HashMap::new();
    for (n, v) in &supplies {
        if let Some(&c) = component.get(n) {
            supplied.insert(c);
            if let Some(&prev) = supply_value.get(&c) {
                if (prev - v).abs() > 1e-12 {
                    report
                        .findings
                        .push(Finding::ConflictingSupplies { values: (prev, *v) });
                }
            } else {
                supply_value.insert(c, *v);
            }
        }
    }
    // Report one representative node per unsupplied component.
    let mut reported: HashSet<usize> = HashSet::new();
    let mut nodes: Vec<&NodeName> = component.keys().collect();
    nodes.sort_unstable();
    for n in nodes {
        let c = component[n];
        if !supplied.contains(&c) && !reported.contains(&c) {
            reported.insert(c);
            report.findings.push(Finding::DisconnectedFromSupply {
                node: *n,
                component_size: sizes[c],
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_netlist_passes() {
        let nl = Netlist::parse_str(
            "V1 n1_m4_0_0 0 1.1\nR1 n1_m4_0_0 n1_m1_0_0 0.5\nI1 n1_m1_0_0 0 0.01\n",
        )
        .unwrap();
        let r = validate(&nl);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn detects_missing_supply() {
        let nl = Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2_0 1.0\n").unwrap();
        let r = validate(&nl);
        assert!(r.findings.contains(&Finding::NoSupply));
    }

    #[test]
    fn detects_dangling_node() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_2_0 1.0\nI1 n1_m1_9_9 0 0.01\n",
        )
        .unwrap();
        let r = validate(&nl);
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::DanglingNode { node } if node.x == 9)));
    }

    #[test]
    fn detects_disconnected_island() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_2_0 1.0\n\
             R2 n1_m1_100_0 n1_m1_102_0 1.0\nI1 n1_m1_102_0 0 0.01\n",
        )
        .unwrap();
        let r = validate(&nl);
        assert!(r.findings.iter().any(|f| matches!(
            f,
            Finding::DisconnectedFromSupply {
                component_size: 2,
                ..
            }
        )));
    }

    #[test]
    fn detects_conflicting_supplies() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.1\nV2 n1_m1_2_0 0 0.9\nR1 n1_m1_0_0 n1_m1_2_0 1.0\n",
        )
        .unwrap();
        let r = validate(&nl);
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::ConflictingSupplies { .. })));
    }

    #[test]
    fn same_voltage_supplies_do_not_conflict() {
        let nl = Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.1\nV2 n1_m1_2_0 0 1.1\nR1 n1_m1_0_0 n1_m1_2_0 1.0\n",
        )
        .unwrap();
        let r = validate(&nl);
        assert!(!r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::ConflictingSupplies { .. })));
    }

    #[test]
    fn flags_zero_resistance() {
        let nl = Netlist::parse_str("V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_2_0 0.0\n").unwrap();
        let r = validate(&nl);
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::SuspiciousResistance { .. })));
    }

    #[test]
    fn findings_display() {
        assert!(Finding::NoSupply.to_string().contains("voltage source"));
    }
}
