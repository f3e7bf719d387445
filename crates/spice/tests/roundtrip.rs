//! Property tests: netlist print→parse round-trips for arbitrary content.

use lmmir_spice::{Element, ElementKind, Netlist, NodeName, NodeRef};
use proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeRef> {
    prop_oneof![
        1 => Just(NodeRef::Ground),
        9 => (1u32..3, 1u8..10, 0i64..2_000_000, 0i64..2_000_000)
            .prop_map(|(net, layer, x, y)| NodeRef::Node(NodeName::new(net, layer, x, y))),
    ]
}

fn arb_element(i: usize) -> impl Strategy<Value = Element> {
    (arb_node(), arb_node(), 0..3usize, 1e-9f64..10.0).prop_map(move |(a, b, k, v)| {
        let kind = match k {
            0 => ElementKind::Resistor,
            1 => ElementKind::CurrentSource,
            _ => ElementKind::VoltageSource,
        };
        Element::new(format!("{}{}", kind.prefix(), i), kind, a, b, v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn print_parse_round_trip(elems in prop::collection::vec((0usize..1).prop_flat_map(|_| arb_element(0)), 0..40)) {
        // Re-name elements with unique indices (names are free-form); every
        // fourth name is longer than `ElementName` stores inline.
        let elems: Vec<Element> = elems
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let tail = if i % 4 == 3 { "_instance_name_beyond_the_inline_capacity" } else { "" };
                Element::new(format!("{}{i}{tail}", e.kind.prefix()), e.kind, e.a, e.b, e.value)
            })
            .collect();
        let nl = Netlist::from_elements(elems);
        let text = nl.to_spice();
        let back = Netlist::parse_str(&text).unwrap();
        prop_assert_eq!(nl, back);
    }

    #[test]
    fn stats_never_panics_and_counts_add_up(elems in prop::collection::vec((0usize..1).prop_flat_map(|_| arb_element(0)), 0..60)) {
        let nl = Netlist::from_elements(elems);
        let s = nl.stats();
        prop_assert_eq!(s.resistors + s.current_sources + s.voltage_sources, nl.len());
        prop_assert!(s.vias <= s.resistors);
    }

    #[test]
    fn parser_never_panics_on_random_text(s in "[ -~\n]{0,256}") {
        let _ = Netlist::parse_str(&s); // must not panic, may error
    }
}
