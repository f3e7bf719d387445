//! Byte-level parser for the contest SPICE dialect.
//!
//! Hand-rolled (no regex) because contest netlists reach millions of lines:
//! one pass over `src.as_bytes()` cuts lines at `\n` and tokens at ASCII
//! blanks, node names are read by one checked digit loop, and element names
//! are stored inline ([`crate::ElementName`]), so nothing but the element
//! list itself is allocated unless a name outgrows
//! [`crate::ElementName::INLINE`] bytes. Only the value goes through
//! `str::parse::<f64>`, which is correctly rounded.
//!
//! A Unicode space (U+00A0, U+2003, …) is an ordinary byte of the token it
//! sits in and is refused inside an element name, so no line reads
//! differently than under a `split_whitespace` tokenizer — some non-ASCII
//! lines are merely rejected.

use crate::model::{Element, ElementKind, Netlist, NodeName, NodeRef};
use std::fmt;
use std::io::Read;
use std::path::Path;

/// Error produced while parsing a netlist, with 1-based line location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number of the offending line (0 for I/O errors).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseNetlistError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseNetlistError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseNetlistError {}

/// The ASCII characters `char::is_whitespace` accepts: space, tab, LF, VT,
/// FF, CR.
fn is_blank(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Splits the next blank-separated token of the current line off the front
/// of `rest`; `None` once only blanks remain before the line's `\n` (or the
/// end of the text).
fn next_token<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let bytes = rest.as_bytes();
    let start = bytes
        .iter()
        .position(|&b| b == b'\n' || !is_blank(b))
        .unwrap_or(bytes.len());
    let len = bytes[start..]
        .iter()
        .position(|&b| is_blank(b))
        .unwrap_or(bytes.len() - start);
    let token = &rest[start..start + len];
    *rest = &rest[start + len..];
    (len > 0).then_some(token)
}

/// One decimal field of a node name, read the way `from_str` of an integer
/// type reads it — an optional `+` (or `-` when `signed`), then at least one
/// digit — and returned with the bytes that follow it. `None` without a
/// digit or when the value leaves `i64`.
fn int_field(field: &[u8], signed: bool) -> Option<(i64, &[u8])> {
    let (negative, digits) = match field {
        [b'+', rest @ ..] => (false, rest),
        [b'-', rest @ ..] if signed => (true, rest),
        _ => (false, field),
    };
    let mut magnitude = 0u64;
    let mut len = 0;
    while let Some(digit) = digits.get(len).map(|b| b.wrapping_sub(b'0')) {
        if digit > 9 {
            break;
        }
        magnitude = magnitude.checked_mul(10)?.checked_add(u64::from(digit))?;
        len += 1;
    }
    if len == 0 {
        return None;
    }
    let value = if negative {
        0i64.checked_sub_unsigned(magnitude)?
    } else {
        i64::try_from(magnitude).ok()?
    };
    Some((value, &digits[len..]))
}

/// `n<net>_m<layer>_<x>_<y>`, letters in either case.
fn node_name(token: &[u8]) -> Option<NodeName> {
    let (b'n' | b'N', rest) = token.split_first()? else {
        return None;
    };
    let (net, rest) = int_field(rest, false)?;
    let (b'm' | b'M', rest) = rest.strip_prefix(b"_")?.split_first()? else {
        return None;
    };
    let (layer, rest) = int_field(rest, false)?;
    let (x, rest) = int_field(rest.strip_prefix(b"_")?, true)?;
    let (y, rest) = int_field(rest.strip_prefix(b"_")?, true)?;
    if !rest.is_empty() {
        return None;
    }
    let (net, layer) = (u32::try_from(net).ok()?, u8::try_from(layer).ok()?);
    Some(NodeName::new(net, layer, x, y))
}

fn parse_node(token: &str, line: usize) -> Result<NodeRef, ParseNetlistError> {
    if token == "0" {
        return Ok(NodeRef::Ground);
    }
    node_name(token.as_bytes())
        .map(NodeRef::Node)
        .ok_or_else(|| ParseNetlistError::new(line, format!("malformed node name `{token}`")))
}

/// Parses the line `rest` starts with, leaving `rest` somewhere on that line.
fn parse_line(rest: &mut &str, lineno: usize) -> Result<Option<Element>, ParseNetlistError> {
    let err = |message: &str| ParseNetlistError::new(lineno, message);
    let Some(name) = next_token(rest) else {
        return Ok(None);
    };
    let kind = match name.as_bytes()[0] {
        b'*' => return Ok(None),
        b'.' => {
            // `.end` and `. end` both name the directive `end`.
            let word = match &name[1..] {
                "" => next_token(rest).unwrap_or(""),
                word => word,
            };
            return match word.to_ascii_lowercase().as_str() {
                "end" | "ends" | "title" | "option" | "options" => Ok(None),
                other => Err(err(&format!("unsupported directive `.{other}`"))),
            };
        }
        b'R' | b'r' => ElementKind::Resistor,
        b'I' | b'i' => ElementKind::CurrentSource,
        b'V' | b'v' => ElementKind::VoltageSource,
        _ => {
            return Err(err(&format!(
                "unknown element prefix in `{name}` (expected R/I/V)"
            )))
        }
    };
    let a_tok = next_token(rest).ok_or_else(|| err("missing first node"))?;
    let b_tok = next_token(rest).ok_or_else(|| err("missing second node"))?;
    let v_tok = next_token(rest).ok_or_else(|| err("missing value"))?;
    if next_token(rest).is_some() {
        return Err(err("trailing tokens on element line"));
    }
    let a = parse_node(a_tok, lineno)?;
    let b = parse_node(b_tok, lineno)?;
    let value: f64 = v_tok
        .parse()
        .map_err(|_| err(&format!("bad value `{v_tok}`")))?;
    if !value.is_finite() {
        return Err(err("non-finite value"));
    }
    if kind == ElementKind::Resistor && value < 0.0 {
        return Err(err("negative resistance"));
    }
    if !name.is_ascii() && name.contains(char::is_whitespace) {
        return Err(err(&format!("non-ASCII space in element name `{name}`")));
    }
    Ok(Some(Element::new(name, kind, a, b, value)))
}

impl Netlist {
    /// Parses a netlist from a string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNetlistError`] with the offending line number on
    /// malformed input.
    pub fn parse_str(src: &str) -> Result<Self, ParseNetlistError> {
        let mut elements = Vec::new();
        let (mut rest, mut lineno) = (src, 0);
        while !rest.is_empty() {
            lineno += 1;
            if let Some(e) = parse_line(&mut rest, lineno)? {
                elements.push(e);
            }
            rest = rest.split_once('\n').map_or("", |(_, next)| next);
        }
        Ok(Netlist::from_elements(elements))
    }

    /// Parses a netlist from any reader (a `&mut R` also works): the text
    /// is read to its end, then handed to [`Netlist::parse_str`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseNetlistError`] on I/O failure or text that is not
    /// UTF-8 (line 0), or on malformed input.
    pub fn parse_reader<R: Read>(mut reader: R) -> Result<Self, ParseNetlistError> {
        let mut src = String::new();
        reader
            .read_to_string(&mut src)
            .map_err(|e| ParseNetlistError::new(0, format!("io error: {e}")))?;
        Netlist::parse_str(&src)
    }

    /// Parses a netlist from a file path.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNetlistError`] on I/O failure or malformed input.
    pub fn parse_file(path: impl AsRef<Path>) -> Result<Self, ParseNetlistError> {
        let file = std::fs::File::open(path)
            .map_err(|e| ParseNetlistError::new(0, format!("cannot open file: {e}")))?;
        Netlist::parse_reader(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_elements() {
        let src = "\
* PDN for testcase
R1 n1_m1_0_0 n1_m1_2000_0 0.26
I1 n1_m1_2000_0 0 1.17e-05
V1 n1_m9_4000_4000 0 1.1
.end
";
        let nl = Netlist::parse_str(src).unwrap();
        assert_eq!(nl.len(), 3);
        assert_eq!(nl.elements()[0].kind, ElementKind::Resistor);
        assert_eq!(nl.elements()[1].kind, ElementKind::CurrentSource);
        assert_eq!(nl.elements()[2].kind, ElementKind::VoltageSource);
        assert!((nl.elements()[1].value - 1.17e-5).abs() < 1e-12);
        let v = nl.elements()[2].a.name().unwrap();
        assert_eq!((v.layer, v.x, v.y), (9, 4000, 4000));
    }

    #[test]
    fn skips_comments_blank_lines_and_known_directives() {
        let src = "\n* comment\n\n.title foo\nR1 n1_m1_0_0 n1_m1_2_0 1.0\n.END\n";
        let nl = Netlist::parse_str(src).unwrap();
        assert_eq!(nl.len(), 1);
    }

    #[test]
    fn reports_line_numbers() {
        let src = "R1 n1_m1_0_0 n1_m1_2_0 1.0\nR2 bad_node 0 1.0\n";
        let err = Netlist::parse_str(src).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bad_node"));
    }

    #[test]
    fn rejects_unknown_prefix() {
        let err = Netlist::parse_str("C1 n1_m1_0_0 0 1.0\n").unwrap_err();
        assert!(err.message.contains("unknown element prefix"));
    }

    #[test]
    fn rejects_malformed_values_and_arity() {
        assert!(Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2_0 abc\n").is_err());
        assert!(Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2_0\n").is_err());
        assert!(Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2_0 1.0 extra\n").is_err());
        assert!(Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2_0 -5\n").is_err());
        assert!(Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2_0 inf\n").is_err());
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = Netlist::parse_str(".subckt foo\n").unwrap_err();
        assert!(err.message.contains("unsupported directive"));
    }

    #[test]
    fn negative_source_values_allowed() {
        // Negative current (injection) is physically meaningful.
        let nl = Netlist::parse_str("I1 n1_m1_0_0 0 -0.5\n").unwrap();
        assert_eq!(nl.elements()[0].value, -0.5);
    }

    #[test]
    fn parse_reader_matches_parse_str() {
        let src = "R1 n1_m1_0_0 n1_m1_2_0 1.0\nV1 n1_m4_0_0 0 1.1\n";
        let a = Netlist::parse_str(src).unwrap();
        let b = Netlist::parse_reader(src.as_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn case_insensitive_prefixes() {
        let nl = Netlist::parse_str("r1 N1_M1_0_0 n1_m1_2_0 1.0\nv2 n1_m4_0_0 0 1.1\n").unwrap();
        assert_eq!(nl.elements()[0].kind, ElementKind::Resistor);
        assert_eq!(nl.elements()[1].kind, ElementKind::VoltageSource);
    }

    #[test]
    fn large_coordinates_fit() {
        let nl =
            Netlist::parse_str("R1 n1_m1_1860000_1860000 n1_m1_1862000_1860000 0.1\n").unwrap();
        let n = nl.elements()[0].a.name().unwrap();
        assert_eq!(n.x, 1_860_000);
    }

    #[test]
    fn unicode_spaces_do_not_separate_tokens() {
        // `split_whitespace` split at U+00A0; the byte-level tokenizer keeps
        // it inside the token, which then fails as a name or a node.
        let ascii = "R1 n1_m1_0_0 n1_m1_2_0 1.0\n";
        assert!(Netlist::parse_str(ascii).is_ok());
        for at in [2, 12, 22] {
            let mut src = ascii.to_string();
            src.replace_range(at..=at, "\u{a0}");
            assert!(Netlist::parse_str(&src).is_err(), "{src:?}");
        }
        let err = Netlist::parse_str("R1\u{a0}x n1_m1_0_0 n1_m1_2_0 1.0\n").unwrap_err();
        assert!(err.message.contains("non-ASCII space"), "{err}");
        // Other non-ASCII text in a name is kept as written.
        let nl = Netlist::parse_str("Rµ1 n1_m1_0_0 n1_m1_2_0 1.0\n").unwrap();
        assert_eq!(&*nl.elements()[0].name, "Rµ1");
    }

    /// The `split_whitespace` + `from_str` parser this module had before the
    /// byte-level one, kept as the reference of the differential test.
    fn reference_parse(src: &str) -> Result<Netlist, ParseNetlistError> {
        fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
            ParseNetlistError::new(line, message)
        }
        fn node(token: &str, line: usize) -> Result<NodeRef, ParseNetlistError> {
            if token == "0" {
                return Ok(NodeRef::Ground);
            }
            let bad = || err(line, format!("malformed node name `{token}`"));
            let mut parts = token.strip_prefix(['n', 'N']).ok_or_else(bad)?.split('_');
            let mut part = || parts.next().ok_or_else(bad);
            let net: u32 = part()?.parse().map_err(|_| bad())?;
            let layer = part()?.strip_prefix(['m', 'M']).ok_or_else(bad)?;
            let layer: u8 = layer.parse().map_err(|_| bad())?;
            let x: i64 = part()?.parse().map_err(|_| bad())?;
            let y: i64 = part()?.parse().map_err(|_| bad())?;
            match part() {
                Ok(_) => Err(bad()),
                Err(_) => Ok(NodeRef::Node(NodeName::new(net, layer, x, y))),
            }
        }
        let mut elements = Vec::new();
        for (i, line) in src.lines().enumerate() {
            let (n, trimmed) = (i + 1, line.trim());
            if trimmed.is_empty() || trimmed.starts_with('*') {
                continue;
            }
            if let Some(directive) = trimmed.strip_prefix('.') {
                let word = directive.split_whitespace().next().unwrap_or("");
                match word.to_ascii_lowercase().as_str() {
                    "end" | "ends" | "title" | "option" | "options" => continue,
                    other => return Err(err(n, format!("unsupported directive `.{other}`"))),
                }
            }
            let tok: Vec<&str> = trimmed.split_whitespace().collect();
            let name = tok[0];
            let kind = match name.chars().next().map(|c| c.to_ascii_uppercase()) {
                Some('R') => ElementKind::Resistor,
                Some('I') => ElementKind::CurrentSource,
                Some('V') => ElementKind::VoltageSource,
                _ => {
                    let message = format!("unknown element prefix in `{name}` (expected R/I/V)");
                    return Err(err(n, message));
                }
            };
            let missing = ["missing first node", "missing second node", "missing value"];
            if let Some(what) = missing.get(tok.len() - 1) {
                return Err(err(n, *what));
            }
            if tok.len() > 4 {
                return Err(err(n, "trailing tokens on element line"));
            }
            let (a, b) = (node(tok[1], n)?, node(tok[2], n)?);
            let value: f64 = tok[3]
                .parse()
                .map_err(|_| err(n, format!("bad value `{}`", tok[3])))?;
            if !value.is_finite() {
                return Err(err(n, "non-finite value"));
            }
            if kind == ElementKind::Resistor && value < 0.0 {
                return Err(err(n, "negative resistance"));
            }
            elements.push(Element::new(name, kind, a, b, value));
        }
        Ok(Netlist::from_elements(elements))
    }

    use proptest::prelude::*;

    type Choices = &'static [&'static str];

    fn one_of(choices: Choices) -> impl Strategy<Value = &'static str> {
        (0..choices.len()).prop_map(move |i| choices[i])
    }

    /// Mostly a usual token, now and then an odd one, so that a line has a
    /// fair chance to parse and every way to fail is still drawn often.
    fn mostly(usual: Choices, odd: Choices) -> impl Strategy<Value = &'static str> {
        prop_oneof![15 => one_of(usual), 1 => one_of(odd)]
    }

    /// Blanks between (and around) tokens: a run of spaces, tabs, VT, FF or
    /// a stray CR.
    fn blanks() -> impl Strategy<Value = &'static str> {
        mostly(&[" "], &["  ", "\t", " \t ", "\x0b", "\x0c", "\r", "   "])
    }

    /// One integer field of a node name; the odd ones are the edge cases of
    /// `u32` / `u8` / `i64` `from_str`.
    fn field(usual: Choices) -> impl Strategy<Value = &'static str> {
        mostly(
            usual,
            &[
                "-0",
                "-7",
                "256",
                "4294967295",
                "4294967296",
                "9223372036854775807",
                "9223372036854775808",
                "-9223372036854775808",
                "-9223372036854775809",
                "99999999999999999999999",
                "",
                "+",
                "-",
                "+-1",
                "1x",
                "x",
                "1.5",
                " ",
            ],
        )
    }

    fn node() -> impl Strategy<Value = String> {
        let letters = (
            mostly(&["n", "N"], &["m", ""]),
            mostly(&["m", "M"], &["n", ""]),
        );
        let small: Choices = &["0", "1", "4", "9", "007", "+5", "255"];
        let coordinate: Choices = &["0", "2000", "36000", "+8000", "1860000"];
        let fields = (
            field(small),
            field(small),
            field(coordinate),
            field(coordinate),
        );
        let tail = mostly(&[""], &["_5", "_", "-", "_0_0"]);
        let odd = &[
            "n1_m1_0",
            "n1_m1",
            "n1",
            "n",
            "bad_node",
            "00",
            "n1__m1_0_0",
            "1",
        ];
        prop_oneof![
            6 => Just("0".to_string()),
            1 => one_of(odd).prop_map(String::from),
            32 => (letters, fields, tail).prop_map(|((n, m), (net, layer, x, y), tail)| {
                format!("{n}{net}_{m}{layer}_{x}_{y}{tail}")
            }),
        ]
    }

    fn line() -> impl Strategy<Value = String> {
        let name = mostly(
            &[
                "R1",
                "r2",
                "I3",
                "i4",
                "V5",
                "v6",
                "R",
                "Rname_longer_than_the_inline_capacity",
            ],
            &["C1", "X", "1", "_R", "*R1", ".R1", "Rµ"],
        );
        let value = mostly(
            &[
                "1.0", "0.26", "1.17e-05", "1.1", "0", "+3", ".5", "5.", "1e-400",
            ],
            &[
                "-0.5", "-5", "1e400", "-1e400", "nan", "NaN", "inf", "-inf", "infinity", "abc",
                "1.0.0", "0x10", "1e", "",
            ],
        );
        let element = (
            (blanks(), name, blanks(), node()),
            (blanks(), node(), blanks(), value),
            (
                0usize..60,
                mostly(&[""], &[" ", "\t", " extra", " 1.0 2.0"]),
            ),
        )
            .prop_map(|((lead, name, s1, a), (s2, b, s3, v), (keep, tail))| {
                // Mostly the whole line; sometimes cut short after 1–6 of its
                // parts, sometimes with leading blanks.
                let parts = [name, s1, &a, s2, &b, s3, v];
                let cut = if keep < 6 { 1 + keep } else { parts.len() };
                let lead = if keep % 5 == 0 { lead } else { "" };
                format!("{lead}{}{tail}", parts[..cut].concat())
            });
        let other = one_of(&[
            "",
            "",
            " ",
            "\t",
            " \t ",
            "* comment",
            "  * indented comment",
            "*",
            "*R1 n1 0",
            ".end",
            ".END",
            ".Ends",
            ".ends x",
            ".title foo bar",
            ".TITLE",
            ".option x=1",
            ".OPTIONS",
            ".subckt foo",
            ".Tran 1n",
            ".",
            ". end",
            ".\tTitle x",
            " .end ",
            ".endx",
            ". subckt",
        ]);
        prop_oneof![4 => element, 1 => other.prop_map(String::from)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Same `Ok` netlist, or same error line and message, as the
        /// reference — line by line, and for the text as a whole.
        #[test]
        fn agrees_with_the_split_whitespace_reference(
            lines in prop::collection::vec((line(), one_of(&["\n", "\n", "\n", "\r\n"])), 1..12),
            unterminated in 0usize..4,
        ) {
            let mut src = String::new();
            for (line, ending) in &lines {
                prop_assert_eq!(Netlist::parse_str(line), reference_parse(line), "{:?}", line);
                src.push_str(line);
                src.push_str(ending);
            }
            if unterminated == 0 {
                src.truncate(src.trim_end_matches(['\r', '\n']).len());
            }
            prop_assert_eq!(Netlist::parse_str(&src), reference_parse(&src), "{:?}", src);
            prop_assert_eq!(Netlist::parse_reader(src.as_bytes()), reference_parse(&src));
        }
    }
}
