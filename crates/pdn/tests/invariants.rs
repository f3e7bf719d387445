//! Property tests: every generated PDN must satisfy structural and
//! electrical invariants, for arbitrary generator parameters.

use lmmir_pdn::{build_netlist, BuildOptions, CaseKind, CaseSpec, PdnTech, PowerMap};
use lmmir_solver::{solve_ir_drop, stamp};
use lmmir_spice::ElementKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_netlists_are_well_formed(
        side in 8usize..28,
        seed in 0u64..10_000,
        hotspots in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let power = PowerMap::synth(side, side, hotspots, 1e-4 * (side * side) as f64, &mut rng);
        let nl = build_netlist(&PdnTech::standard(), &power, &BuildOptions::default());
        let stats = nl.stats();
        // At least one pad, loads present, resistive fabric present.
        prop_assert!(stats.voltage_sources >= 1);
        prop_assert!(stats.current_sources > 0);
        prop_assert!(stats.resistors > stats.vias);
        // All resistances positive, all load currents non-negative.
        for e in nl.iter() {
            match e.kind {
                ElementKind::Resistor => prop_assert!(e.value > 0.0),
                ElementKind::CurrentSource => prop_assert!(e.value >= 0.0),
                ElementKind::VoltageSource => prop_assert!((e.value - 1.1).abs() < 1e-9),
            }
        }
        // The reduced system stamps SPD-ready: positive diagonal everywhere.
        let sys = stamp(&nl).unwrap();
        for (i, d) in sys.matrix.diag().iter().enumerate() {
            prop_assert!(*d > 0.0, "zero diagonal at unknown {i}");
        }
        prop_assert!(sys.matrix.is_symmetric(1e-9));
    }

    #[test]
    fn voltages_bounded_by_supply(side in 8usize..24, seed in 0u64..1_000) {
        let spec = CaseSpec::new("prop", side, side, seed, CaseKind::Fake);
        let case = spec.generate();
        let ir = solve_ir_drop(&case.netlist).unwrap();
        // Maximum principle: all node voltages lie in [0, vdd]; drops in
        // [0, vdd].
        for (_, drop) in ir.iter_drops() {
            prop_assert!(drop >= -1e-6, "negative drop {drop}");
            prop_assert!(drop <= 1.1 + 1e-6, "drop beyond supply {drop}");
        }
    }

    #[test]
    fn case_specs_serialize_stably(seed in 0u64..500) {
        // Same seed, same outcome; different seed, (almost surely) different
        // netlist.
        let a = CaseSpec::new("s", 16, 16, seed, CaseKind::Real).generate();
        let b = CaseSpec::new("s", 16, 16, seed, CaseKind::Real).generate();
        prop_assert_eq!(&a.netlist, &b.netlist);
        let c = CaseSpec::new("s", 16, 16, seed + 1, CaseKind::Real).generate();
        prop_assert_ne!(&a.power, &c.power);
    }
}
