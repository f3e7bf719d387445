//! Netlist serialization back to the contest SPICE dialect.
//!
//! A 192 µm netlist is ~146 k lines, so the writer stays off `fmt` where
//! it can: names are copied, node coordinates are pushed digit by digit,
//! and a value goes through `{}` — Rust's shortest round-trip `f64`
//! formatting — only when it differs from the previous element's (wire
//! segments of one layer share a resistance). The bytes are exactly what
//! `"{name} {a} {b} {value}"` formats to.

use crate::model::{Element, Netlist, NodeRef};
use std::io::Write;
use std::path::Path;

impl Netlist {
    /// Serializes the netlist to the contest SPICE dialect (ends with
    /// `.end`). Round-trips through [`Netlist::parse_str`].
    #[must_use]
    pub fn to_spice(&self) -> String {
        let mut out = Vec::with_capacity(self.len() * 50 + 16);
        let mut lines = LineWriter::default();
        for e in self.elements() {
            lines.push(e, &mut out);
        }
        out.extend_from_slice(b".end\n");
        String::from_utf8(out).expect("names are str, the rest is ASCII")
    }

    /// Writes the netlist to an arbitrary writer (a `&mut W` also works).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_spice<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut lines = LineWriter::default();
        let mut line = Vec::with_capacity(64);
        for e in self.elements() {
            line.clear();
            lines.push(e, &mut line);
            w.write_all(&line)?;
        }
        w.write_all(b".end\n")
    }

    /// Writes the netlist to a file path.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.write_spice(&mut w)?;
        w.flush()
    }
}

/// Appends element lines to a byte buffer, remembering the last value's
/// text.
#[derive(Default)]
struct LineWriter {
    /// Bit pattern of the value `text` holds, once there is one.
    value: Option<u64>,
    text: Vec<u8>,
}

impl LineWriter {
    fn push(&mut self, e: &Element, out: &mut Vec<u8>) {
        out.extend_from_slice(e.name.as_bytes());
        out.push(b' ');
        push_node(out, e.a);
        out.push(b' ');
        push_node(out, e.b);
        out.push(b' ');
        if self.value != Some(e.value.to_bits()) {
            self.value = Some(e.value.to_bits());
            self.text.clear();
            // `{}` of an `f64` is the shortest text that parses back to the
            // identical value; writing to a `Vec` cannot fail.
            let _ = write!(self.text, "{}", e.value);
        }
        out.extend_from_slice(&self.text);
        out.push(b'\n');
    }
}

/// `0` for ground, `n{net}_m{layer}_{x}_{y}` for a PDN node.
fn push_node(out: &mut Vec<u8>, node: NodeRef) {
    let NodeRef::Node(n) = node else {
        out.push(b'0');
        return;
    };
    out.push(b'n');
    push_int(out, i64::from(n.net));
    out.extend_from_slice(b"_m");
    push_int(out, i64::from(n.layer));
    out.push(b'_');
    push_int(out, n.x);
    out.push(b'_');
    push_int(out, n.y);
}

/// Decimal digits of `v`, as `{}` prints them.
fn push_int(out: &mut Vec<u8>, v: i64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use crate::model::{Element, ElementKind, Netlist, NodeName, NodeRef};

    fn sample() -> Netlist {
        Netlist::from_elements(vec![
            Element::new(
                "R1",
                ElementKind::Resistor,
                NodeRef::Node(NodeName::new(1, 1, 0, 0)),
                NodeRef::Node(NodeName::new(1, 1, 2000, 0)),
                0.2625,
            ),
            Element::new(
                "I1",
                ElementKind::CurrentSource,
                NodeRef::Node(NodeName::new(1, 1, 2000, 0)),
                NodeRef::Ground,
                1.17e-5,
            ),
            Element::new(
                "V1",
                ElementKind::VoltageSource,
                NodeRef::Node(NodeName::new(1, 9, 4000, 4000)),
                NodeRef::Ground,
                1.1,
            ),
        ])
    }

    #[test]
    fn round_trip_exact() {
        let nl = sample();
        let text = nl.to_spice();
        let back = Netlist::parse_str(&text).unwrap();
        assert_eq!(nl, back);
    }

    #[test]
    fn ends_with_end_directive() {
        assert!(sample().to_spice().ends_with(".end\n"));
    }

    #[test]
    fn write_spice_matches_to_spice() {
        let nl = sample();
        let mut buf = Vec::new();
        nl.write_spice(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), nl.to_spice());
    }

    /// The hand-rolled line is byte for byte what `fmt` prints, on the
    /// values where shortest round-trip formatting has an edge: tiny and
    /// huge magnitudes (no exponent form), fractions, whole numbers, a
    /// repeated value (served from the memo), signed zero — and on negative
    /// and extreme coordinates.
    #[test]
    fn lines_are_byte_identical_to_fmt_on_edge_values_and_coordinates() {
        let values = [
            1e-12,
            0.1,
            0.1,
            1.0,
            25.0,
            1e21,
            5e-324,
            f64::MAX,
            -0.0,
            0.0,
            0.2625,
            0.2625,
            -1.5e-7,
            0.30000000000000004,
        ];
        let coords = [0, 7, -1, -2000, 123_456_789, i64::MAX, i64::MIN];
        let elements: Vec<Element> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let (x, y) = (coords[i % coords.len()], coords[(i + 3) % coords.len()]);
                let a = NodeRef::Node(NodeName::new(u32::MAX - i as u32, (i * 37) as u8, x, y));
                let b = if i % 3 == 0 {
                    NodeRef::Ground
                } else {
                    NodeRef::Node(NodeName::new(1, 0, y, x))
                };
                // Current sources: the parser accepts any sign for them.
                Element::new(format!("I{i}"), ElementKind::CurrentSource, a, b, value)
            })
            .collect();
        let expected: String = elements
            .iter()
            .map(|e| format!("{} {} {} {}\n", &*e.name, e.a, e.b, e.value))
            .chain(std::iter::once(".end\n".to_string()))
            .collect();
        let nl = Netlist::from_elements(elements);
        assert_eq!(nl.to_spice(), expected);
        let mut buf = Vec::new();
        nl.write_spice(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
        // And the text parses back to the identical values.
        let back = Netlist::parse_str(&expected).unwrap();
        for (e, &value) in back.elements().iter().zip(&values) {
            assert_eq!(e.value.to_bits(), value.to_bits(), "{}", &*e.name);
        }
    }

    #[test]
    fn extreme_values_round_trip() {
        let nl = Netlist::from_elements(vec![Element::new(
            "I1",
            ElementKind::CurrentSource,
            NodeRef::Node(NodeName::new(1, 1, 0, 0)),
            NodeRef::Ground,
            3.141592653589793e-12,
        )]);
        let back = Netlist::parse_str(&nl.to_spice()).unwrap();
        assert_eq!(back.elements()[0].value, 3.141592653589793e-12);
    }
}
