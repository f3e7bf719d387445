//! Golden-solver regression tests: tiny hand-stampable resistive networks
//! whose node voltages are known in closed form. These pin the solver's
//! numerical behaviour — any stamping or factor regression shows up as a
//! drift beyond 1e-6 from the analytic solution.

use lmmir_solver::{solve_ir_drop, stamp, Cholesky, Csr, SolveError, SolveIrDropError};
use lmmir_spice::{Element, ElementKind, Netlist, NodeName, NodeRef};

const VDD: f64 = 1.0;

/// Series ladder: pad — R1 — n1 — R2 — n2, loads I1 at n1 and I2 at n2.
///
/// Kirchhoff by hand: R1 carries I1 + I2, R2 carries I2, so
/// `v(n1) = VDD - R1·(I1 + I2)` and `v(n2) = v(n1) - R2·I2`.
fn ladder(r1: f64, r2: f64, i1: f64, i2: f64) -> Netlist {
    let text = format!(
        "V1 n1_m1_0_0 0 {VDD}\n\
         R1 n1_m1_0_0 n1_m1_1_0 {r1}\n\
         R2 n1_m1_1_0 n1_m1_2_0 {r2}\n\
         I1 n1_m1_1_0 0 {i1}\n\
         I2 n1_m1_2_0 0 {i2}\n"
    );
    Netlist::parse_str(&text).expect("ladder netlist parses")
}

/// Diamond grid: pad `a` feeds load `d` through two parallel two-resistor
/// paths (`a–b–d` and `a–c–d`, all edges `r` ohms).
///
/// By symmetry `v(b) = v(c) = VDD - r·I/2`; the two paths in parallel give
/// `R_eq = r`, so `v(d) = VDD - r·I`.
fn diamond(r: f64, load: f64) -> Netlist {
    let text = format!(
        "V1 n1_m1_0_0 0 {VDD}\n\
         R1 n1_m1_0_0 n1_m1_0_1 {r}\n\
         R2 n1_m1_0_0 n1_m1_1_0 {r}\n\
         R3 n1_m1_0_1 n1_m1_1_1 {r}\n\
         R4 n1_m1_1_0 n1_m1_1_1 {r}\n\
         I1 n1_m1_1_1 0 {load}\n"
    );
    Netlist::parse_str(&text).expect("diamond netlist parses")
}

fn node(x: i64, y: i64) -> NodeName {
    NodeName::new(1, 1, x, y)
}

#[test]
fn ladder_matches_closed_form_within_1e6() {
    let (r1, r2, i1, i2) = (2.5, 0.75, 0.04, 0.01);
    let ir = solve_ir_drop(&ladder(r1, r2, i1, i2)).expect("solves");

    let v1 = VDD - r1 * (i1 + i2);
    let v2 = v1 - r2 * i2;
    assert!((ir.voltage(&node(1, 0)).expect("n1 solved") - v1).abs() < 1e-6);
    assert!((ir.voltage(&node(2, 0)).expect("n2 solved") - v2).abs() < 1e-6);
    assert!((ir.worst_drop() - (VDD - v2)).abs() < 1e-6);
}

#[test]
fn diamond_grid_matches_closed_form_within_1e6() {
    let (r, load) = (1.5, 0.08);
    let ir = solve_ir_drop(&diamond(r, load)).expect("solves");

    let v_mid = VDD - r * load / 2.0;
    let v_far = VDD - r * load;
    assert!((ir.voltage(&node(0, 1)).expect("b solved") - v_mid).abs() < 1e-6);
    assert!((ir.voltage(&node(1, 0)).expect("c solved") - v_mid).abs() < 1e-6);
    assert!((ir.voltage(&node(1, 1)).expect("d solved") - v_far).abs() < 1e-6);
    assert!((ir.worst_drop() - r * load).abs() < 1e-6);
}

#[test]
fn stamped_diamond_system_matches_hand_stamp() {
    // Unknowns are the three non-pad nodes {b, c, d}. Eliminating the pad
    // (Dirichlet) leaves, with g = 1/r:
    //   [ 2g   0  -g ] [v_b]   [ g·VDD ]
    //   [  0  2g  -g ] [v_c] = [ g·VDD ]
    //   [ -g  -g  2g ] [v_d]   [ -I    ]
    let (r, load) = (2.0, 0.05);
    let sys = stamp(&diamond(r, load)).expect("stamps");
    assert_eq!(sys.matrix.n(), 3, "three unknown nodes");
    assert!(sys.matrix.is_symmetric(1e-12));

    let g = 1.0 / r;
    let mut diag = sys.matrix.diag();
    diag.sort_by(f64::total_cmp);
    for d in diag {
        assert!((d - 2.0 * g).abs() < 1e-12, "every diagonal is 2g, got {d}");
    }

    // The reduced system solved directly must agree with the closed form.
    let mut v = sys
        .factor()
        .and_then(|f| f.solve(&sys.rhs))
        .expect("factors and solves");
    v.sort_by(f64::total_cmp);
    let expect = {
        let mut e = vec![VDD - r * load, VDD - r * load / 2.0, VDD - r * load / 2.0];
        e.sort_by(f64::total_cmp);
        e
    };
    for (got, want) in v.iter().zip(&expect) {
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }
}

#[test]
fn factor_reaches_1e6_on_hand_built_spd_system() {
    // 2-node system built directly as CSR (no netlist): G = [[3,-1],[-1,2]],
    // b = [1, 0.5]. det = 5, inverse by hand: x = [2·1+1·0.5, 1·1+3·0.5]/5.
    let a = Csr::from_triplets(2, &[(0, 0, 3.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
    let b = [1.0, 0.5];
    let x = Cholesky::factor(&a, &[(0, 0), (1, 0)])
        .and_then(|f| f.solve(&b))
        .expect("factors and solves");
    let expect = [(2.0 + 0.5) / 5.0, (1.0 + 1.5) / 5.0];
    assert!((x[0] - expect[0]).abs() < 1e-6);
    assert!((x[1] - expect[1]).abs() < 1e-6);
}

#[test]
fn ladder_solved_in_parallel_matches_closed_form_and_single_thread() {
    let (r1, r2, i1, i2) = (2.5, 0.75, 0.04, 0.01);
    let nl = ladder(r1, r2, i1, i2);
    let v1 = VDD - r1 * (i1 + i2);
    let v2 = v1 - r2 * i2;
    let single = lmmir_par::with_threads(1, || solve_ir_drop(&nl).expect("solves"));
    for threads in [2, 7] {
        let ir = lmmir_par::with_threads(threads, || solve_ir_drop(&nl).expect("solves"));
        // Same golden values as the single-thread path…
        assert!((ir.voltage(&node(1, 0)).expect("n1 solved") - v1).abs() < 1e-6);
        assert!((ir.voltage(&node(2, 0)).expect("n2 solved") - v2).abs() < 1e-6);
        // …and exactly the single-thread voltages, bit for bit.
        for (name, drop) in single.iter_drops() {
            let other = ir.drop_at(name).expect("same node set");
            assert_eq!(
                drop.to_bits(),
                other.to_bits(),
                "drift at {threads} threads"
            );
        }
    }
}

#[test]
fn diamond_solved_at_every_thread_count_matches_closed_form_and_single_thread() {
    let (r, load) = (1.5, 0.08);
    let nl = diamond(r, load);
    let single = lmmir_par::with_threads(1, || solve_ir_drop(&nl).expect("solves"));
    for threads in [1, 2, 7] {
        let ir = lmmir_par::with_threads(threads, || solve_ir_drop(&nl).expect("solves"));
        let v_mid = VDD - r * load / 2.0;
        let v_far = VDD - r * load;
        assert!((ir.voltage(&node(0, 1)).expect("b solved") - v_mid).abs() < 1e-6);
        assert!((ir.voltage(&node(1, 0)).expect("c solved") - v_mid).abs() < 1e-6);
        assert!((ir.voltage(&node(1, 1)).expect("d solved") - v_far).abs() < 1e-6);
        assert!((ir.worst_drop() - r * load).abs() < 1e-6);
        for (name, drop) in single.iter_drops() {
            let other = ir.drop_at(name).expect("same node set");
            assert_eq!(drop.to_bits(), other.to_bits(), "drift at {threads}");
        }
    }
}

/// The ladder plus `extra` netlist lines: hostile additions that `stamp`
/// accepts but that leave the reduced system singular.
fn ladder_with(extra: &str) -> Netlist {
    let text = format!(
        "V1 n1_m1_0_0 0 {VDD}\n\
         R1 n1_m1_0_0 n1_m1_1_0 1.0\n\
         R2 n1_m1_1_0 n1_m1_2_0 1.0\n\
         I1 n1_m1_2_0 0 0.01\n{extra}"
    );
    Netlist::parse_str(&text).expect("netlist parses")
}

/// Asserts the golden flow fails cleanly on `nl`, naming a singular row
/// that belongs to one of `culprits`.
fn assert_singular_at(nl: &Netlist, culprits: &[NodeName]) {
    let sys = stamp(nl).expect("stamp accepts the netlist");
    let err = sys.factor().expect_err("singular system must not factor");
    let SolveError::NotPositiveDefinite { row, .. } = err else {
        panic!("expected a singular pivot, got {err:?}");
    };
    assert!(
        culprits.contains(&sys.unknowns[row]),
        "row {row} is {:?}, not one of {culprits:?}",
        sys.unknowns[row]
    );
    let err = solve_ir_drop(nl).expect_err("golden flow must fail");
    assert!(matches!(err, SolveIrDropError::Solve(_)), "{err:?}");
    assert!(err.to_string().contains(&format!("row {row}")), "{err}");
}

#[test]
fn resistor_island_without_a_pad_fails_naming_its_row() {
    // Two nodes joined to each other but to nothing else: their block of
    // the conductance matrix is a singular Laplacian.
    let island = [node(7, 7), node(8, 7)];
    assert_singular_at(&ladder_with("R9 n1_m1_7_7 n1_m1_8_7 1.0\n"), &island);
    // A load on the island does not make it solvable either.
    assert_singular_at(
        &ladder_with("R9 n1_m1_7_7 n1_m1_8_7 1.0\nI9 n1_m1_8_7 0 0.01\n"),
        &island,
    );
}

#[test]
fn infinite_resistance_stamps_zero_conductance_and_fails_naming_its_row() {
    // The parser refuses `inf`, so the element is built in code.
    let far = node(3, 0);
    let mut nl = ladder_with("");
    nl.push(Element::new(
        "R9",
        ElementKind::Resistor,
        NodeRef::Node(node(2, 0)),
        NodeRef::Node(far),
        f64::INFINITY,
    ));
    let sys = stamp(&nl).expect("stamp accepts an infinite resistance");
    let row = sys
        .unknowns
        .iter()
        .position(|n| *n == far)
        .expect("stamped");
    assert_eq!(sys.matrix.diag()[row], 0.0, "1/inf stamps zero conductance");
    assert_singular_at(&nl, &[far]);
}

#[test]
fn solve_ir_drop_is_bitwise_deterministic_across_runs() {
    let nl = diamond(1.25, 0.06);
    let first = solve_ir_drop(&nl).expect("first run solves");
    for run in 0..3 {
        let again = solve_ir_drop(&nl).expect("repeat run solves");
        assert_eq!(first.len(), again.len(), "node count stable (run {run})");
        for (name, drop) in first.iter_drops() {
            let other = again.drop_at(name).expect("same node set");
            assert_eq!(
                drop.to_bits(),
                other.to_bits(),
                "voltage at {name:?} drifted between runs"
            );
        }
    }
}
