//! Synthetic vector-based dynamic power workloads (PowerNet-style).
//!
//! Dynamic IR drop depends on *when* instances switch, not only where they
//! sit. PowerNet decomposes a switching-activity trace into W time windows
//! and builds one toggle-weighted power map per window; the model predicts
//! per-window IR and takes a max over windows. This module generates that
//! decomposition synthetically: a deterministic set of instances (placed
//! Gaussian footprints with base currents) plus per-window toggle vectors
//! drawn from clock-gated burst schedules, so different windows are
//! dominated by different instances — exactly the structure that makes the
//! max-over-windows head differ from predicting on the average map.
//!
//! Everything is seeded: the same [`VectorSpec`] always produces bitwise
//! identical windows, which train/eval splits and the served-vs-offline
//! parity tests rely on.
//!
//! ```
//! use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase};
//!
//! let spec = CaseSpec::new("dyn0", 24, 24, 7, CaseKind::Fake);
//! let dyn_case = DynamicCase::generate(&spec, 4);
//! assert_eq!(dyn_case.windows.len(), 4);
//! // The envelope the netlist was built from is the pixelwise max.
//! assert!(dyn_case.case.power.peak() >= dyn_case.windows[0].peak());
//! ```

use crate::builder::build_netlist;
use crate::contest::{Case, CaseSpec};
use crate::power::PowerMap;
use crate::tech::PdnTech;
use lmmir_spice::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound on windows the generator accepts — matches the serving
/// protocol's cap so a generated workload is always transmittable.
pub const MAX_WINDOWS: usize = 64;

/// Parameters of a synthetic vector workload.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSpec {
    /// Number of time windows W (1..=[`MAX_WINDOWS`]).
    pub windows: usize,
    /// Number of switching instances placed on the die.
    pub instances: usize,
    /// Mean per-window total current (A); individual windows vary around it.
    pub total_current: f64,
    /// RNG seed — same seed, same workload, bitwise.
    pub seed: u64,
}

impl VectorSpec {
    /// Derives a vector spec from a benchmark case spec: instance count
    /// scales with area, current and seed come from the case.
    ///
    /// # Panics
    ///
    /// Panics when `windows` is 0 or exceeds [`MAX_WINDOWS`].
    #[must_use]
    pub fn for_case(spec: &CaseSpec, windows: usize) -> Self {
        assert!(
            (1..=MAX_WINDOWS).contains(&windows),
            "window count {windows} out of 1..={MAX_WINDOWS}"
        );
        let area = spec.width * spec.height;
        VectorSpec {
            windows,
            instances: (area / 96).clamp(8, 64),
            total_current: spec.total_current,
            seed: spec.seed ^ 0xD1AC_0DE5,
        }
    }
}

/// One switching instance: a Gaussian current footprint plus a burst
/// schedule describing which windows it toggles in.
struct Instance {
    cx: f64,
    cy: f64,
    sx: f64,
    sy: f64,
    /// Peak current the instance draws when fully toggling (A, pre-scale).
    current: f64,
    /// First window of its activity burst.
    phase: usize,
    /// Burst length in windows.
    duty: usize,
    /// Burst repetition period in windows.
    period: usize,
}

impl Instance {
    /// Toggle activity of this instance in window `w`: 1.0 inside its burst,
    /// a small residual outside (clock gating never reaches exactly zero).
    fn activity(&self, w: usize, jitter: f64) -> f64 {
        let pos = (w + self.period - self.phase % self.period) % self.period;
        let base = if pos < self.duty { 1.0 } else { 0.08 };
        (base * jitter).max(0.0)
    }
}

/// A generated dynamic workload: W per-window toggle-weighted power maps
/// plus their pixelwise-max envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicWorkload {
    /// Per-window power maps, all the same dimensions.
    pub windows: Vec<PowerMap>,
    /// Pixelwise max over `windows`.
    pub envelope: PowerMap,
}

impl DynamicWorkload {
    /// Generates the workload for a `width`×`height` die.
    ///
    /// # Panics
    ///
    /// Panics when `spec.windows` is 0 or exceeds [`MAX_WINDOWS`].
    #[must_use]
    pub fn generate(width: usize, height: usize, spec: &VectorSpec) -> Self {
        assert!(
            (1..=MAX_WINDOWS).contains(&spec.windows),
            "window count {} out of 1..={MAX_WINDOWS}",
            spec.windows
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let (wf, hf) = (width as f64, height as f64);
        let instances: Vec<Instance> = (0..spec.instances.max(1))
            .map(|_| {
                let period = rng.gen_range(2..=spec.windows.max(2));
                Instance {
                    cx: rng.gen_range(0.05..0.95) * wf,
                    cy: rng.gen_range(0.05..0.95) * hf,
                    sx: rng.gen_range(0.02..0.10) * wf,
                    sy: rng.gen_range(0.02..0.10) * hf,
                    current: rng.gen_range(0.5..3.0),
                    phase: rng.gen_range(0..period),
                    duty: rng.gen_range(1..=period),
                    period,
                }
            })
            .collect();
        // Leakage background: constant across windows, jittered in space.
        let leakage: Vec<f64> = (0..width * height)
            .map(|_| 0.05 * (0.5 + rng.gen::<f64>()))
            .collect();
        // Per-(instance, window) toggle jitter, drawn in a fixed order so
        // the workload stays deterministic regardless of assembly order.
        let jitters: Vec<f64> = (0..instances.len() * spec.windows)
            .map(|_| rng.gen_range(0.75..1.25))
            .collect();
        let mut windows: Vec<PowerMap> = (0..spec.windows)
            .map(|w| {
                let mut data = leakage.clone();
                for (i, inst) in instances.iter().enumerate() {
                    let act = inst.activity(w, jitters[i * spec.windows + w]);
                    for y in 0..height {
                        for x in 0..width {
                            let dx = (x as f64 + 0.5 - inst.cx) / inst.sx;
                            let dy = (y as f64 + 0.5 - inst.cy) / inst.sy;
                            data[y * width + x] +=
                                act * inst.current * (-0.5 * (dx * dx + dy * dy)).exp();
                        }
                    }
                }
                PowerMap::from_vec(width, height, data)
            })
            .collect();
        // Normalize so the mean window total matches the requested current;
        // busy windows land above it, quiet ones below.
        let mean: f64 = windows.iter().map(PowerMap::total).sum::<f64>() / spec.windows as f64;
        if mean > 0.0 {
            let k = spec.total_current / mean;
            for m in &mut windows {
                m.scale(k);
            }
        }
        let envelope = PowerMap::envelope(&windows);
        DynamicWorkload { windows, envelope }
    }
}

/// A benchmark case paired with its per-window power decomposition: the
/// netlist is built from the *envelope* map so static models can serve the
/// same design, while dynamic models consume the windows.
#[derive(Debug, Clone)]
pub struct DynamicCase {
    /// Case whose `power` is the envelope and whose netlist matches it.
    pub case: Case,
    /// Per-window toggle-weighted power maps (the model input).
    pub windows: Vec<PowerMap>,
}

impl DynamicCase {
    /// Generates a dynamic case: windows from [`VectorSpec::for_case`], a
    /// netlist built against the envelope with the spec's PDN geometry.
    ///
    /// # Panics
    ///
    /// Panics when `windows` is 0 or exceeds [`MAX_WINDOWS`].
    #[must_use]
    pub fn generate(spec: &CaseSpec, windows: usize) -> Self {
        let vspec = VectorSpec::for_case(spec, windows);
        let work = DynamicWorkload::generate(spec.width, spec.height, &vspec);
        let tech = PdnTech::standard();
        let netlist = build_netlist(&tech, &work.envelope, &spec.build_options());
        DynamicCase {
            case: Case {
                spec: spec.clone(),
                tech,
                power: work.envelope,
                netlist,
            },
            windows: work.windows,
        }
    }

    /// Rebuilds the PDN against window `w`'s power map — the netlist whose
    /// golden solve gives that window's IR drop.
    ///
    /// # Panics
    ///
    /// Panics when `w` is out of range.
    #[must_use]
    pub fn window_netlist(&self, w: usize) -> Netlist {
        build_netlist(
            &self.case.tech,
            &self.windows[w],
            &self.case.spec.build_options(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contest::CaseKind;

    fn spec() -> CaseSpec {
        CaseSpec::new("dyn", 24, 24, 11, CaseKind::Fake)
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let v = VectorSpec::for_case(&spec(), 4);
        let a = DynamicWorkload::generate(24, 24, &v);
        let b = DynamicWorkload::generate(24, 24, &v);
        assert_eq!(a, b);
        let mut v2 = v.clone();
        v2.seed ^= 1;
        let c = DynamicWorkload::generate(24, 24, &v2);
        assert_ne!(a, c);
    }

    #[test]
    fn windows_differ_from_each_other() {
        let v = VectorSpec::for_case(&spec(), 4);
        let w = DynamicWorkload::generate(24, 24, &v);
        assert_eq!(w.windows.len(), 4);
        assert_ne!(w.windows[0], w.windows[1]);
    }

    #[test]
    fn envelope_dominates_every_window() {
        let v = VectorSpec::for_case(&spec(), 3);
        let w = DynamicWorkload::generate(24, 24, &v);
        for m in &w.windows {
            for (e, x) in w.envelope.data().iter().zip(m.data()) {
                assert!(e >= x);
            }
        }
        // And the envelope is attained: it exceeds each single window's
        // total (different windows dominate different pixels).
        assert!(w.envelope.total() > w.windows.iter().map(PowerMap::total).fold(0.0, f64::max));
    }

    #[test]
    fn mean_window_current_is_normalized() {
        let v = VectorSpec::for_case(&spec(), 5);
        let w = DynamicWorkload::generate(24, 24, &v);
        let mean: f64 = w.windows.iter().map(PowerMap::total).sum::<f64>() / 5.0;
        assert!((mean - v.total_current).abs() < 1e-9 * v.total_current.max(1.0));
    }

    #[test]
    fn dynamic_case_solves_per_window() {
        let d = DynamicCase::generate(&spec(), 2);
        let net = d.window_netlist(0);
        let ir = lmmir_solver::solve_ir_drop(&net).unwrap();
        assert!(ir.worst_drop() > 0.0);
        // Envelope netlist solves too (it is the Case netlist).
        assert!(d.case.solve().unwrap().worst_drop() >= ir.worst_drop() * 0.1);
    }

    #[test]
    #[should_panic(expected = "window count")]
    fn zero_windows_rejected() {
        let _ = VectorSpec::for_case(&spec(), 0);
    }
}
