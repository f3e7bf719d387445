//! Cross-crate consistency: SPICE round-trips preserve solves and features;
//! generated suites satisfy contract invariants end to end.

use lmmir_features::{effective_distance_map, ir_drop_map, FeatureStack};
use lmmir_pdn::{hidden_suite, training_suite, CaseKind, CaseSpec};
use lmmir_solver::solve_ir_drop;
use lmmir_spice::Netlist;

#[test]
fn spice_round_trip_preserves_golden_solution() {
    let case = CaseSpec::new("rt", 20, 20, 17, CaseKind::Real).generate();
    let ir1 = solve_ir_drop(&case.netlist).unwrap();
    // Write to the SPICE dialect and back.
    let text = case.netlist.to_spice();
    let reparsed = Netlist::parse_str(&text).unwrap();
    assert_eq!(case.netlist, reparsed);
    let ir2 = solve_ir_drop(&reparsed).unwrap();
    assert!((ir1.worst_drop() - ir2.worst_drop()).abs() < 1e-12);
    // Feature maps from the reparsed netlist are identical too.
    let dbu = case.tech.dbu_per_um;
    let a = effective_distance_map(&case.netlist, 20, 20, dbu);
    let b = effective_distance_map(&reparsed, 20, 20, dbu);
    assert_eq!(a.data(), b.data());
}

#[test]
fn spice_file_round_trip() {
    let case = CaseSpec::new("file", 16, 16, 23, CaseKind::Fake).generate();
    let dir = std::env::temp_dir().join("lmmir_cross_crate_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pdn.sp");
    case.netlist.write_file(&path).unwrap();
    let back = Netlist::parse_file(&path).unwrap();
    assert_eq!(case.netlist, back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn hidden_suite_is_solvable_and_featurizable() {
    // Smallest two hidden cases at 1/16 scale: generate, solve, featurize.
    let specs = hidden_suite(1.0 / 16.0, 5);
    for spec in specs.iter().filter(|s| s.width <= 32) {
        let case = spec.generate();
        let ir = case
            .solve()
            .unwrap_or_else(|e| panic!("{} unsolvable: {e}", spec.id));
        assert!(ir.worst_drop() > 0.0, "{} has no drop", spec.id);
        let stack = FeatureStack::extended(&case);
        assert_eq!(stack.channels(), 6);
        let gt = ir_drop_map(
            &ir,
            &case.netlist,
            case.power.width(),
            case.power.height(),
            case.tech.dbu_per_um,
        );
        assert!((f64::from(gt.max()) - ir.worst_drop()).abs() < 1e-4);
    }
}

#[test]
fn training_suite_kinds_and_determinism() {
    let a = training_suite(5, 2, 0.0625, 9);
    let b = training_suite(5, 2, 0.0625, 9);
    assert_eq!(a, b);
    assert_eq!(a.len(), 7);
    assert!(a.iter().take(5).all(|s| s.kind == CaseKind::Fake));
    assert!(a.iter().skip(5).all(|s| s.kind == CaseKind::Real));
}

#[test]
fn worst_drop_correlates_with_effective_distance_or_current() {
    // Physics sanity at the system level: across several generated cases,
    // the hottest pixel should sit in a high-current or pad-starved region.
    for seed in 0..3 {
        let case = CaseSpec::new(format!("phys{seed}"), 24, 24, seed, CaseKind::Real).generate();
        let ir = case.solve().unwrap();
        let dbu = case.tech.dbu_per_um;
        let gt = ir_drop_map(&ir, &case.netlist, 24, 24, dbu);
        let ed = effective_distance_map(&case.netlist, 24, 24, dbu);
        let (mut bx, mut by, mut best) = (0usize, 0usize, f32::NEG_INFINITY);
        for y in 0..24 {
            for x in 0..24 {
                if gt.at(x, y) > best {
                    best = gt.at(x, y);
                    bx = x;
                    by = y;
                }
            }
        }
        let cur = lmmir_features::current_map(&case.power);
        assert!(
            ed.at(bx, by) >= ed.mean() || cur.at(bx, by) >= cur.mean(),
            "seed {seed}: hotspot at ({bx},{by}) is neither pad-starved nor hot"
        );
    }
}
