//! Typed netlist data model.

use std::collections::HashMap;
use std::fmt;

/// A structured PDN node name: `n<net>_m<layer>_<x>_<y>`.
///
/// Coordinates are in database units (DBU). The contest data uses
/// 2000 DBU = 1 µm; the scale is carried by consumers, not by the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeName {
    /// Power net index (`n1` for VDD in the contest data).
    pub net: u32,
    /// Metal layer index (`m1`, `m4`, ...).
    pub layer: u8,
    /// X coordinate in DBU.
    pub x: i64,
    /// Y coordinate in DBU.
    pub y: i64,
}

impl NodeName {
    /// Creates a node name.
    #[must_use]
    pub fn new(net: u32, layer: u8, x: i64, y: i64) -> Self {
        NodeName { net, layer, x, y }
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}_m{}_{}_{}", self.net, self.layer, self.x, self.y)
    }
}

/// Either the global ground (`0`) or a named PDN node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// The SPICE ground node `0`.
    Ground,
    /// A structured PDN node.
    Node(NodeName),
}

impl NodeRef {
    /// The structured name, if this is not ground.
    #[must_use]
    pub fn name(&self) -> Option<&NodeName> {
        match self {
            NodeRef::Ground => None,
            NodeRef::Node(n) => Some(n),
        }
    }

    /// True for the ground node.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        matches!(self, NodeRef::Ground)
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Ground => write!(f, "0"),
            NodeRef::Node(n) => write!(f, "{n}"),
        }
    }
}

/// Kind of a two-terminal PDN element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Wire or via resistance (Ω).
    Resistor,
    /// Cell/instance current draw (A), from node to ground.
    CurrentSource,
    /// Supply pad (V), from node to ground.
    VoltageSource,
}

impl ElementKind {
    /// SPICE name prefix (`R`/`I`/`V`).
    #[must_use]
    pub fn prefix(&self) -> char {
        match self {
            ElementKind::Resistor => 'R',
            ElementKind::CurrentSource => 'I',
            ElementKind::VoltageSource => 'V',
        }
    }

    /// Small integer code, used by the point-cloud encoder's type embedding.
    #[must_use]
    pub fn code(&self) -> usize {
        match self {
            ElementKind::Resistor => 0,
            ElementKind::CurrentSource => 1,
            ElementKind::VoltageSource => 2,
        }
    }
}

impl fmt::Display for ElementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix())
    }
}

/// An element's instance name, stored without a heap allocation when it
/// fits: [`ElementName::INLINE`] bytes sit inside the value (which is the
/// size of a `String`), longer names fall back to one boxed `str`. A parsed
/// netlist holds one name per element and contest names are `R` + a counter,
/// so parsing allocates nothing per element. Reads as a `&str` through
/// `Deref` / `Display`.
#[derive(Clone, PartialEq, Eq)]
pub struct ElementName(NameRepr);

/// Names of at most `INLINE` bytes are always `Inline` with the unused tail
/// zeroed, so the derived comparisons agree with comparing the text.
#[derive(Clone, PartialEq, Eq)]
enum NameRepr {
    Inline {
        len: u8,
        bytes: [u8; ElementName::INLINE],
    },
    Heap(Box<str>),
}

impl ElementName {
    /// Longest name, in bytes, that is stored inline.
    pub const INLINE: usize = 22;

    /// The name's UTF-8 bytes, without the validation pass `Deref<str>`
    /// makes over an inline name (the writer's per-element path).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NameRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            NameRepr::Heap(name) => name.as_bytes(),
        }
    }
}

impl From<&str> for ElementName {
    fn from(name: &str) -> Self {
        if name.len() <= Self::INLINE {
            let mut bytes = [0; Self::INLINE];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            ElementName(NameRepr::Inline {
                len: name.len() as u8,
                bytes,
            })
        } else {
            ElementName(NameRepr::Heap(name.into()))
        }
    }
}

impl std::ops::Deref for ElementName {
    type Target = str;
    fn deref(&self) -> &str {
        match &self.0 {
            NameRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are copied from a whole str"),
            NameRepr::Heap(name) => name,
        }
    }
}

impl fmt::Debug for ElementName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for ElementName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// One two-terminal element of the PDN netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Instance name as written in the file (e.g. `R12`); inline up to
    /// [`ElementName::INLINE`] bytes, so building an element from a short
    /// `&str` does not allocate.
    pub name: ElementName,
    /// Element kind, derived from the name prefix.
    pub kind: ElementKind,
    /// First terminal.
    pub a: NodeRef,
    /// Second terminal.
    pub b: NodeRef,
    /// Element value (Ω, A or V).
    pub value: f64,
}

impl Element {
    /// Creates an element; the `kind` must agree with the name prefix by
    /// construction in the parser/generator.
    #[must_use]
    pub fn new(
        name: impl AsRef<str>,
        kind: ElementKind,
        a: NodeRef,
        b: NodeRef,
        value: f64,
    ) -> Self {
        Element {
            name: name.as_ref().into(),
            kind,
            a,
            b,
            value,
        }
    }

    /// True when this resistor connects two different metal layers (a via).
    ///
    /// Vias are load-bearing for IR analysis: the paper's point-cloud
    /// encoding keeps both layer ids precisely so via positions survive the
    /// embedding.
    #[must_use]
    pub fn is_via(&self) -> bool {
        match (self.kind, self.a.name(), self.b.name()) {
            (ElementKind::Resistor, Some(a), Some(b)) => a.layer != b.layer,
            _ => false,
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {}", self.name, self.a, self.b, self.value)
    }
}

/// Summary statistics of a netlist (element counts, node count, extents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Number of resistors (including vias).
    pub resistors: usize,
    /// Number of vias (inter-layer resistors).
    pub vias: usize,
    /// Number of current sources.
    pub current_sources: usize,
    /// Number of voltage sources.
    pub voltage_sources: usize,
    /// Number of distinct non-ground nodes.
    pub nodes: usize,
    /// Number of distinct metal layers.
    pub layers: usize,
    /// Bounding box `(min_x, min_y, max_x, max_y)` in DBU.
    pub bbox: (i64, i64, i64, i64),
}

/// A parsed PDN netlist: an ordered list of elements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    elements: Vec<Element>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Creates a netlist from elements.
    #[must_use]
    pub fn from_elements(elements: Vec<Element>) -> Self {
        Netlist { elements }
    }

    /// Appends an element.
    pub fn push(&mut self, e: Element) {
        self.elements.push(e);
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the netlist has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The elements in file order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, Element> {
        self.elements.iter()
    }

    /// Builds a dense index of all distinct non-ground nodes.
    ///
    /// Node order is first-appearance order, which is deterministic for a
    /// given file and is the node numbering used by the solver.
    #[must_use]
    pub fn node_index(&self) -> HashMap<NodeName, usize> {
        let mut map = HashMap::new();
        for e in &self.elements {
            for r in [&e.a, &e.b] {
                if let Some(n) = r.name() {
                    let next = map.len();
                    map.entry(*n).or_insert(next);
                }
            }
        }
        map
    }

    /// Computes summary statistics in one pass.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats {
            bbox: (i64::MAX, i64::MAX, i64::MIN, i64::MIN),
            ..NetlistStats::default()
        };
        let mut nodes = std::collections::HashSet::new();
        let mut layers = std::collections::HashSet::new();
        for e in &self.elements {
            match e.kind {
                ElementKind::Resistor => {
                    s.resistors += 1;
                    if e.is_via() {
                        s.vias += 1;
                    }
                }
                ElementKind::CurrentSource => s.current_sources += 1,
                ElementKind::VoltageSource => s.voltage_sources += 1,
            }
            for r in [&e.a, &e.b] {
                if let Some(n) = r.name() {
                    nodes.insert(*n);
                    layers.insert(n.layer);
                    s.bbox.0 = s.bbox.0.min(n.x);
                    s.bbox.1 = s.bbox.1.min(n.y);
                    s.bbox.2 = s.bbox.2.max(n.x);
                    s.bbox.3 = s.bbox.3.max(n.y);
                }
            }
        }
        if nodes.is_empty() {
            s.bbox = (0, 0, 0, 0);
        }
        s.nodes = nodes.len();
        s.layers = layers.len();
        s
    }

    /// Total current drawn by all current sources (A).
    #[must_use]
    pub fn total_current(&self) -> f64 {
        self.elements
            .iter()
            .filter(|e| e.kind == ElementKind::CurrentSource)
            .map(|e| e.value)
            .sum()
    }

    /// Supply voltage, taken from the first voltage source (if any).
    #[must_use]
    pub fn supply_voltage(&self) -> Option<f64> {
        self.elements
            .iter()
            .find(|e| e.kind == ElementKind::VoltageSource)
            .map(|e| e.value)
    }
}

impl FromIterator<Element> for Netlist {
    fn from_iter<I: IntoIterator<Item = Element>>(iter: I) -> Self {
        Netlist {
            elements: iter.into_iter().collect(),
        }
    }
}

impl Extend<Element> for Netlist {
    fn extend<I: IntoIterator<Item = Element>>(&mut self, iter: I) {
        self.elements.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Netlist {
    type Item = &'a Element;
    type IntoIter = std::slice::Iter<'a, Element>;
    fn into_iter(self) -> Self::IntoIter {
        self.elements.iter()
    }
}

impl IntoIterator for Netlist {
    type Item = Element;
    type IntoIter = std::vec::IntoIter<Element>;
    fn into_iter(self) -> Self::IntoIter {
        self.elements.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(layer: u8, x: i64, y: i64) -> NodeRef {
        NodeRef::Node(NodeName::new(1, layer, x, y))
    }

    #[test]
    fn node_name_display() {
        let n = NodeName::new(1, 4, 2000, 36000);
        assert_eq!(n.to_string(), "n1_m4_2000_36000");
        assert_eq!(NodeRef::Ground.to_string(), "0");
    }

    #[test]
    fn element_name_is_string_sized_and_reads_as_str() {
        assert_eq!(
            std::mem::size_of::<ElementName>(),
            std::mem::size_of::<String>()
        );
        let at_capacity = "R".repeat(ElementName::INLINE);
        let beyond = "R".repeat(ElementName::INLINE + 1);
        for text in ["", "R12", "Rµ", at_capacity.as_str(), beyond.as_str()] {
            let name = ElementName::from(text);
            assert_eq!(&*name, text);
            assert_eq!(name.to_string(), text);
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
        }
        assert_ne!(ElementName::from("R1"), ElementName::from("R10"));
        assert_ne!(
            ElementName::from(&*at_capacity),
            ElementName::from(&*beyond)
        );
    }

    #[test]
    fn via_detection() {
        let via = Element::new(
            "R1",
            ElementKind::Resistor,
            node(1, 0, 0),
            node(4, 0, 0),
            2.0,
        );
        assert!(via.is_via());
        let wire = Element::new(
            "R2",
            ElementKind::Resistor,
            node(1, 0, 0),
            node(1, 2000, 0),
            0.5,
        );
        assert!(!wire.is_via());
        let isrc = Element::new(
            "I1",
            ElementKind::CurrentSource,
            node(1, 0, 0),
            NodeRef::Ground,
            0.01,
        );
        assert!(!isrc.is_via());
    }

    #[test]
    fn node_index_is_first_appearance_order() {
        let nl = Netlist::from_elements(vec![
            Element::new(
                "R1",
                ElementKind::Resistor,
                node(1, 0, 0),
                node(1, 2000, 0),
                1.0,
            ),
            Element::new(
                "R2",
                ElementKind::Resistor,
                node(1, 2000, 0),
                node(1, 4000, 0),
                1.0,
            ),
        ]);
        let ix = nl.node_index();
        assert_eq!(ix.len(), 3);
        assert_eq!(ix[&NodeName::new(1, 1, 0, 0)], 0);
        assert_eq!(ix[&NodeName::new(1, 1, 2000, 0)], 1);
        assert_eq!(ix[&NodeName::new(1, 1, 4000, 0)], 2);
    }

    #[test]
    fn stats_counts_and_bbox() {
        let nl = Netlist::from_elements(vec![
            Element::new(
                "R1",
                ElementKind::Resistor,
                node(1, 0, 0),
                node(1, 2000, 0),
                1.0,
            ),
            Element::new(
                "R2",
                ElementKind::Resistor,
                node(1, 2000, 0),
                node(4, 2000, 0),
                2.0,
            ),
            Element::new(
                "I1",
                ElementKind::CurrentSource,
                node(1, 0, 0),
                NodeRef::Ground,
                0.01,
            ),
            Element::new(
                "V1",
                ElementKind::VoltageSource,
                node(4, 2000, 0),
                NodeRef::Ground,
                1.1,
            ),
        ]);
        let s = nl.stats();
        assert_eq!(s.resistors, 2);
        assert_eq!(s.vias, 1);
        assert_eq!(s.current_sources, 1);
        assert_eq!(s.voltage_sources, 1);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.layers, 2);
        assert_eq!(s.bbox, (0, 0, 2000, 0));
        assert_eq!(nl.supply_voltage(), Some(1.1));
        assert!((nl.total_current() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_netlist_stats() {
        let nl = Netlist::new();
        assert!(nl.is_empty());
        let s = nl.stats();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.bbox, (0, 0, 0, 0));
        assert_eq!(nl.supply_voltage(), None);
    }

    #[test]
    fn netlist_collects_from_iterator() {
        let nl: Netlist = (0..3)
            .map(|i| {
                Element::new(
                    format!("R{i}"),
                    ElementKind::Resistor,
                    node(1, i, 0),
                    node(1, i + 1, 0),
                    1.0,
                )
            })
            .collect();
        assert_eq!(nl.len(), 3);
        let total: usize = (&nl).into_iter().count();
        assert_eq!(total, 3);
    }
}
