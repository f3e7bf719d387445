//! Property tests for the sparse solver stack.

use lmmir_solver::{grid_laplacian, solve_ir_drop, Cholesky, Csr, MAX_RESIDUAL};
use lmmir_spice::Netlist;
use proptest::prelude::*;

/// Builds a random SPD matrix as `L + diag` where `L` is a graph Laplacian
/// over random edges and `diag` adds strictly positive mass.
fn random_spd(n: usize, edges: &[(usize, usize, f64)], extra_diag: &[f64]) -> Csr {
    let mut t = Vec::new();
    for &(a, b, g) in edges {
        if a == b {
            continue;
        }
        t.push((a, a, g));
        t.push((b, b, g));
        t.push((a, b, -g));
        t.push((b, a, -g));
    }
    for (i, &d) in extra_diag.iter().enumerate() {
        t.push((i, i, d));
    }
    Csr::from_triplets(n, &t)
}

/// True relative residual `‖b − A·x‖ / ‖b‖`.
fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.matvec(x, &mut ax);
    let r2: f64 = ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
    let b2: f64 = b.iter().map(|v| v * v).sum();
    (r2 / b2).sqrt()
}

#[test]
fn factor_solves_grid_laplacian_within_residual() {
    let side = 150;
    let a = grid_laplacian(side);
    let coords: Vec<(i64, i64)> = (0..side * side)
        .map(|i| ((i % side) as i64, (i / side) as i64))
        .collect();
    let b: Vec<f64> = (0..side * side).map(|i| (i as f64 * 0.37).sin()).collect();
    let x = Cholesky::factor(&a, &coords)
        .and_then(|f| f.solve(&b))
        .expect("grid Laplacian is SPD");
    let res = relative_residual(&a, &x, &b);
    assert!(res <= MAX_RESIDUAL, "residual {res:e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn factor_solves_random_spd_systems(
        n in 2usize..24,
        seed_edges in prop::collection::vec((0usize..24, 0usize..24, 0.1f64..10.0), 1..60),
        diag in prop::collection::vec(0.05f64..5.0, 24),
        rhs in prop::collection::vec(-1.0f64..1.0, 24),
    ) {
        let edges: Vec<(usize, usize, f64)> = seed_edges
            .into_iter()
            .map(|(a, b, g)| (a % n, b % n, g))
            .collect();
        let a = random_spd(n, &edges, &diag[..n]);
        let b = &rhs[..n];
        // Arbitrary coordinates: the ordering changes, the solution must not.
        let coords: Vec<(i64, i64)> = (0..n as i64).map(|i| (i * 7 % 5, i % 3)).collect();
        let x = Cholesky::factor(&a, &coords).and_then(|f| f.solve(b)).unwrap();
        let res = relative_residual(&a, &x, b);
        prop_assert!(res <= MAX_RESIDUAL, "residual {res:e}");
    }

    #[test]
    fn ir_drop_monotonic_in_load(load in 0.001f64..0.5) {
        // Doubling the single load must exactly double every drop (linearity).
        let text = |i: f64| format!(
            "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1.0\nR2 n1_m1_1_0 n1_m1_2_0 1.0\nI1 n1_m1_2_0 0 {i}\n"
        );
        let ir1 = solve_ir_drop(&Netlist::parse_str(&text(load)).unwrap()).unwrap();
        let ir2 = solve_ir_drop(&Netlist::parse_str(&text(load * 2.0)).unwrap()).unwrap();
        prop_assert!((ir2.worst_drop() - 2.0 * ir1.worst_drop()).abs() < 1e-8);
    }

    #[test]
    fn ir_drop_never_exceeds_open_circuit_bound(r1 in 0.1f64..10.0, r2 in 0.1f64..10.0, i in 0.0f64..0.2) {
        let text = format!(
            "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 {r1}\nR2 n1_m1_1_0 n1_m1_2_0 {r2}\nI1 n1_m1_2_0 0 {i}\n"
        );
        let ir = solve_ir_drop(&Netlist::parse_str(&text).unwrap()).unwrap();
        let bound = i * (r1 + r2) + 1e-9;
        prop_assert!(ir.worst_drop() <= bound);
        prop_assert!(ir.worst_drop() >= -1e-12);
    }
}
