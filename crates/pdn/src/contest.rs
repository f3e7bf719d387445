//! ICCAD-2023-style benchmark suites (Table II of the paper).
//!
//! The contest distributed 100 synthetic ("fake") training cases, 10 real
//! training cases and evaluated on 10 hidden cases whose statistics the
//! paper reports in Table II. This module regenerates suites with the same
//! *shape*: hidden testcases keep the paper's raster-size ordering (scaled
//! by a user-chosen factor, since full-scale 835×835 µm chips are golden-
//! solver-bound on laptop CPUs), and fake/real cases are drawn from two
//! different parameter distributions so "trained on fake, tested on hidden"
//! exhibits the same distribution shift the contest had.

use crate::builder::{build_netlist, BuildOptions};
use crate::power::PowerMap;
use crate::tech::PdnTech;
use lmmir_solver::{solve_ir_drop, IrDrop, SolveIrDropError};
use lmmir_spice::{Netlist, NetlistStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper Table II: (testcase id, raster side in pixels at full scale).
///
/// The paper's node counts (85 591 … 181 206) follow the same area ordering;
/// our generator reproduces the ordering automatically because node count
/// scales with area.
pub const TESTCASE_SHAPES: [(&str, usize); 10] = [
    ("testcase7", 601),
    ("testcase8", 601),
    ("testcase9", 835),
    ("testcase10", 835),
    ("testcase13", 257),
    ("testcase14", 257),
    ("testcase15", 489),
    ("testcase16", 489),
    ("testcase19", 870),
    ("testcase20", 870),
];

/// Default current density (A per µm²) — calibrated so worst-case IR drop
/// lands near ~1 % of VDD on the standard stack (≈ 10 mV), which keeps the
/// MAE column in the same 1e-4 V reporting unit regime as the paper.
pub const DEFAULT_CURRENT_DENSITY: f64 = 1e-4;

/// Which split a case belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Synthetic training case (contest "fake"; BeGAN-style).
    Fake,
    /// Realistic training case.
    Real,
    /// Held-out evaluation case (Table II / Table III).
    Hidden,
}

/// Full description of one generated benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Case identifier (e.g. `testcase10`).
    pub id: String,
    /// Chip width in µm (= feature-map pixels).
    pub width: usize,
    /// Chip height in µm.
    pub height: usize,
    /// RNG seed controlling the power map and options.
    pub seed: u64,
    /// Split membership.
    pub kind: CaseKind,
    /// Number of current hotspots.
    pub hotspots: usize,
    /// Pad pitch override (µm).
    pub pad_pitch_um: Option<f64>,
    /// Pad keep-out rectangle (chip fractions).
    pub pad_keepout: Option<(f64, f64, f64, f64)>,
    /// Weak-via region (rectangle + resistance multiplier).
    pub weak_via_region: Option<((f64, f64, f64, f64), f64)>,
    /// Extra what-if pads at explicit µm positions.
    pub extra_pads: Vec<(f64, f64)>,
    /// Total drawn current (A).
    pub total_current: f64,
}

impl CaseSpec {
    /// Creates a spec with defaults derived from the area and kind.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        width: usize,
        height: usize,
        seed: u64,
        kind: CaseKind,
    ) -> Self {
        let area = (width * height) as f64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let hotspots = match kind {
            CaseKind::Fake => rng.gen_range(1..=4),
            CaseKind::Real | CaseKind::Hidden => rng.gen_range(3..=7),
        };
        // Real/hidden cases frequently have pad-starved regions.
        let pad_keepout = match kind {
            CaseKind::Fake => None,
            CaseKind::Real | CaseKind::Hidden => {
                if rng.gen_bool(0.7) {
                    let x0 = rng.gen_range(0.0..0.5);
                    let y0 = rng.gen_range(0.0..0.5);
                    Some((
                        x0,
                        y0,
                        x0 + rng.gen_range(0.2..0.45),
                        y0 + rng.gen_range(0.2..0.45),
                    ))
                } else {
                    None
                }
            }
        };
        let pad_pitch_um = match kind {
            CaseKind::Fake => None,
            CaseKind::Real | CaseKind::Hidden => Some(16.0 * rng.gen_range(0.75..1.5)),
        };
        // Realistic designs occasionally carry degraded via arrays — signal
        // that only the netlist modality resolves precisely.
        let weak_via_region = match kind {
            CaseKind::Fake => None,
            CaseKind::Real | CaseKind::Hidden => {
                if rng.gen_bool(0.5) {
                    let x0 = rng.gen_range(0.0..0.6);
                    let y0 = rng.gen_range(0.0..0.6);
                    let rect = (
                        x0,
                        y0,
                        x0 + rng.gen_range(0.2..0.4),
                        y0 + rng.gen_range(0.2..0.4),
                    );
                    Some((rect, rng.gen_range(3.0..8.0)))
                } else {
                    None
                }
            }
        };
        CaseSpec {
            id: id.into(),
            width,
            height,
            seed,
            kind,
            hotspots,
            pad_pitch_um,
            pad_keepout,
            weak_via_region,
            extra_pads: Vec::new(),
            total_current: DEFAULT_CURRENT_DENSITY * area,
        }
    }

    /// The netlist-builder options this spec implies. Exposed so dynamic
    /// workloads can rebuild the PDN against per-window power maps with
    /// identical geometry (see [`crate::vectors`]).
    #[must_use]
    pub fn build_options(&self) -> BuildOptions {
        BuildOptions {
            pad_pitch_um: self.pad_pitch_um,
            pad_keepout: self.pad_keepout,
            weak_via_region: self.weak_via_region,
            extra_pads: self.extra_pads.clone(),
        }
    }

    /// Generates the case: synthesizes the power map and builds the netlist.
    #[must_use]
    pub fn generate(&self) -> Case {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let power = PowerMap::synth(
            self.width,
            self.height,
            self.hotspots,
            self.total_current,
            &mut rng,
        );
        let tech = PdnTech::standard();
        let netlist = build_netlist(&tech, &power, &self.build_options());
        Case {
            spec: self.clone(),
            tech,
            power,
            netlist,
        }
    }
}

/// A generated benchmark: spec, technology, power map and netlist.
#[derive(Debug, Clone)]
pub struct Case {
    /// The generating spec.
    pub spec: CaseSpec,
    /// Technology the PDN was built with.
    pub tech: PdnTech,
    /// Per-pixel current map (A), 1 µm/pixel.
    pub power: PowerMap,
    /// The SPICE netlist.
    pub netlist: Netlist,
}

impl Case {
    /// Netlist statistics (node counts for Table II).
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        self.netlist.stats()
    }

    /// Runs the golden solver on this case.
    ///
    /// # Errors
    ///
    /// Returns [`SolveIrDropError`] when the netlist cannot be solved
    /// (should not happen for generated cases).
    pub fn solve(&self) -> Result<IrDrop, SolveIrDropError> {
        solve_ir_drop(&self.netlist)
    }
}

/// The ten hidden testcases of Table II, scaled by `scale`.
///
/// `scale = 1.0` reproduces full-size rasters (835×835 etc.); the quick
/// harness uses `1/8` so the golden solves and model training stay
/// laptop-friendly while preserving the relative size ordering.
#[must_use]
pub fn hidden_suite(scale: f64, base_seed: u64) -> Vec<CaseSpec> {
    TESTCASE_SHAPES
        .iter()
        .enumerate()
        .map(|(i, (id, side))| {
            let s = ((*side as f64 * scale).round() as usize).max(16);
            CaseSpec::new(
                *id,
                s,
                s,
                base_seed.wrapping_add(1000 + i as u64),
                CaseKind::Hidden,
            )
        })
        .collect()
}

/// Training suite: `n_fake` BeGAN-style cases plus `n_real` realistic cases.
///
/// Sizes are drawn around the (scaled) hidden sizes. The paper over-samples
/// fake ×10 and real ×20 at training time; that recipe lives in the trainer,
/// not here.
#[must_use]
pub fn training_suite(n_fake: usize, n_real: usize, scale: f64, base_seed: u64) -> Vec<CaseSpec> {
    let mut out = Vec::with_capacity(n_fake + n_real);
    let mut rng = StdRng::seed_from_u64(base_seed);
    let sides: Vec<usize> = TESTCASE_SHAPES
        .iter()
        .map(|(_, s)| ((*s as f64 * scale).round() as usize).max(16))
        .collect();
    for i in 0..n_fake {
        let side = sides[rng.gen_range(0..sides.len())];
        let jitter = rng.gen_range(0.8..1.2);
        let s = ((side as f64 * jitter).round() as usize).max(16);
        out.push(CaseSpec::new(
            format!("fake{i}"),
            s,
            s,
            base_seed.wrapping_add(i as u64),
            CaseKind::Fake,
        ));
    }
    for i in 0..n_real {
        let side = sides[rng.gen_range(0..sides.len())];
        out.push(CaseSpec::new(
            format!("real{i}"),
            side,
            side,
            base_seed.wrapping_add(500 + i as u64),
            CaseKind::Real,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_suite_matches_table2_ordering() {
        let suite = hidden_suite(1.0 / 8.0, 42);
        assert_eq!(suite.len(), 10);
        assert_eq!(suite[0].id, "testcase7");
        // Size ordering follows Table II: 13/14 smallest, 19/20 largest.
        let w: Vec<usize> = suite.iter().map(|s| s.width).collect();
        assert!(w[4] < w[0] && w[0] < w[2] && w[2] < w[8]);
        assert!(suite.iter().all(|s| s.kind == CaseKind::Hidden));
    }

    #[test]
    fn hidden_suite_scales() {
        let full = hidden_suite(1.0, 0);
        assert_eq!(full[2].width, 835);
        let eighth = hidden_suite(0.125, 0);
        assert_eq!(eighth[2].width, 104);
    }

    #[test]
    fn specs_are_deterministic() {
        let a = CaseSpec::new("x", 32, 32, 7, CaseKind::Real);
        let b = CaseSpec::new("x", 32, 32, 7, CaseKind::Real);
        assert_eq!(a, b);
        let ca = a.generate();
        let cb = b.generate();
        assert_eq!(ca.netlist, cb.netlist);
    }

    #[test]
    fn generated_case_is_solvable_with_sane_drop() {
        let case = CaseSpec::new("t", 32, 32, 3, CaseKind::Hidden).generate();
        let ir = case.solve().unwrap();
        let frac = ir.worst_drop() / case.tech.vdd;
        assert!(
            frac > 0.001 && frac < 0.5,
            "worst drop fraction {frac} out of expected band"
        );
    }

    #[test]
    fn node_count_scales_with_area() {
        let small = CaseSpec::new("s", 24, 24, 1, CaseKind::Fake).generate();
        let large = CaseSpec::new("l", 48, 48, 1, CaseKind::Fake).generate();
        assert!(large.stats().nodes > 2 * small.stats().nodes);
    }

    #[test]
    fn training_suite_counts_and_kinds() {
        let suite = training_suite(8, 3, 0.125, 9);
        assert_eq!(suite.len(), 11);
        assert_eq!(suite.iter().filter(|s| s.kind == CaseKind::Fake).count(), 8);
        assert_eq!(suite.iter().filter(|s| s.kind == CaseKind::Real).count(), 3);
        // ids unique
        let mut ids: Vec<&str> = suite.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 11);
    }

    #[test]
    fn real_cases_use_distinct_distribution() {
        // Across several seeds, real cases should show keepouts/pad-pitch
        // overrides that fake cases never have.
        let reals: Vec<CaseSpec> = (0..10)
            .map(|s| CaseSpec::new("r", 32, 32, s, CaseKind::Real))
            .collect();
        let fakes: Vec<CaseSpec> = (0..10)
            .map(|s| CaseSpec::new("f", 32, 32, s, CaseKind::Fake))
            .collect();
        assert!(reals.iter().any(|s| s.pad_keepout.is_some()));
        assert!(fakes.iter().all(|s| s.pad_keepout.is_none()));
        assert!(fakes.iter().all(|s| s.pad_pitch_um.is_none()));
    }
}
