//! Fast what-if PDN fixing: rank candidate pad insertions by *predicted*
//! IR improvement.
//!
//! The paper's core motivation is that "addressing IR drop violations
//! frequently demands iterative analysis": every candidate fix needs a new
//! IR map, and golden solves make the loop hours long. With a trained
//! predictor each what-if costs one inference, so a designer can sweep a
//! grid of candidate C4-pad sites and pick the best — exactly the loop this
//! module implements. Every candidate goes through the one
//! [`InferenceSession`] chain the server and the evaluation pipeline use.

use crate::infer::InferenceSession;
use crate::model::IrPredictor;
use lmmir_features::Raster;
use lmmir_pdn::CaseSpec;
use lmmir_tensor::Result;

/// One evaluated what-if fix.
#[derive(Debug, Clone, PartialEq)]
pub struct PadFix {
    /// Candidate pad position in µm.
    pub position_um: (f64, f64),
    /// Predicted worst IR drop (volts) after inserting the pad.
    pub predicted_worst: f64,
}

/// Predicts the IR map of a case variant without running the golden solver:
/// [`InferenceSession::prepare`] + [`InferenceSession::predict`] on the
/// generated design, at the model's own input contract.
///
/// # Errors
///
/// Returns tensor errors when the model cannot consume a static design
/// (a dynamic model needs per-window power maps).
pub fn predict_case(spec: &CaseSpec, model: &dyn IrPredictor) -> Result<Raster> {
    predict_with(&InferenceSession::new(model), spec)
}

fn predict_with(session: &InferenceSession<'_>, spec: &CaseSpec) -> Result<Raster> {
    let case = spec.generate();
    let input = session.prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)?;
    Ok(session.predict(&input)?.map)
}

/// Sweeps a `grid × grid` lattice of candidate pad positions and returns all
/// fixes ranked by predicted worst drop (best first).
///
/// # Errors
///
/// Returns tensor errors from prediction.
pub fn suggest_pad_fixes(
    spec: &CaseSpec,
    model: &dyn IrPredictor,
    grid: usize,
) -> Result<Vec<PadFix>> {
    let session = InferenceSession::new(model);
    let mut fixes = Vec::with_capacity(grid * grid);
    for gy in 0..grid {
        for gx in 0..grid {
            let x = (gx as f64 + 0.5) * spec.width as f64 / grid as f64;
            let y = (gy as f64 + 0.5) * spec.height as f64 / grid as f64;
            let mut variant = spec.clone();
            variant.extra_pads.push((x, y));
            let pred = predict_with(&session, &variant)?;
            fixes.push(PadFix {
                position_um: (x, y),
                predicted_worst: f64::from(pred.max()),
            });
        }
    }
    fixes.sort_by(|a, b| {
        a.predicted_worst
            .partial_cmp(&b.predicted_worst)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(fixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{iredge, irpnet};
    use crate::{ArchSpec, CheckpointMeta};
    use lmmir_pdn::CaseKind;
    use lmmir_solver::solve_ir_drop;

    fn bits(map: &Raster) -> Vec<u32> {
        map.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn extra_pad_reduces_golden_worst_drop() {
        // Golden-oracle check of the what-if mechanism itself: adding a pad
        // at the worst-drop location must help.
        let spec = CaseSpec::new("fix", 24, 24, 31, CaseKind::Real);
        let base = spec.generate();
        let ir0 = solve_ir_drop(&base.netlist).unwrap();
        let (mut wx, mut wy, mut worst) = (0.0, 0.0, 0.0);
        for (node, drop) in ir0.iter_drops() {
            if drop > worst {
                worst = drop;
                wx = node.x as f64 / base.tech.dbu_per_um as f64;
                wy = node.y as f64 / base.tech.dbu_per_um as f64;
            }
        }
        let mut fixed_spec = spec.clone();
        fixed_spec.extra_pads.push((wx, wy));
        let fixed = fixed_spec.generate();
        assert_eq!(
            fixed.netlist.stats().voltage_sources,
            base.netlist.stats().voltage_sources + 1
        );
        let ir1 = solve_ir_drop(&fixed.netlist).unwrap();
        assert!(
            ir1.worst_drop() < ir0.worst_drop(),
            "pad at hotspot must reduce worst drop: {} -> {}",
            ir0.worst_drop(),
            ir1.worst_drop()
        );
    }

    #[test]
    fn predict_case_matches_truth_shape() {
        let spec = CaseSpec::new("pred", 20, 20, 3, CaseKind::Fake);
        let model = iredge(16, 4);
        let pred = predict_case(&spec, &model).unwrap();
        assert_eq!(pred.width(), 20);
        assert_eq!(pred.height(), 20);
    }

    #[test]
    fn predict_case_is_the_session_map_for_every_family() {
        let spec = CaseSpec::new("family", 16, 16, 8, CaseKind::Hidden);
        let case = spec.generate();
        for arch in ArchSpec::ALL {
            let meta = CheckpointMeta {
                model: arch.name().to_string(),
                input_channels: arch.default_input_channels(),
                input_size: 16,
                config: None,
            };
            let model = arch.build(&meta).unwrap();
            let got = predict_case(&spec, model.as_ref());
            if arch == ArchSpec::DynIr {
                let err = got.unwrap_err().to_string();
                assert!(err.contains("per-window"), "DynIR: {err}");
                continue;
            }
            let session = InferenceSession::new(model.as_ref());
            let input = session
                .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
                .unwrap();
            let want = session.predict(&input).unwrap().map;
            assert_eq!(bits(&got.unwrap()), bits(&want), "{}", arch.name());
        }
    }

    #[test]
    fn predict_case_runs_a_fresh_model_in_eval_mode() {
        // A freshly built model is in training mode; batch statistics would
        // both decide the prediction and rewrite the running statistics.
        let spec = CaseSpec::new("fresh", 16, 16, 2, CaseKind::Fake);
        let model = irpnet(16, 5);
        let stats = |m: &crate::IrpNet| -> Vec<Vec<f32>> {
            m.norms
                .iter()
                .flat_map(|n| [n.running_mean().into_vec(), n.running_var().into_vec()])
                .collect()
        };
        let before = stats(&model);
        let first = predict_case(&spec, &model).unwrap();
        let second = predict_case(&spec, &model).unwrap();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(stats(&model), before, "running statistics rewritten");
    }

    #[test]
    fn suggest_returns_sorted_grid() {
        let spec = CaseSpec::new("sweep", 16, 16, 9, CaseKind::Fake);
        let model = iredge(16, 4);
        let fixes = suggest_pad_fixes(&spec, &model, 2).unwrap();
        assert_eq!(fixes.len(), 4);
        for w in fixes.windows(2) {
            assert!(w[0].predicted_worst <= w[1].predicted_worst);
        }
        // Candidates cover distinct quadrants.
        let mut positions: Vec<_> = fixes.iter().map(|f| f.position_um).collect();
        positions.sort_by(|a, b| a.partial_cmp(b).unwrap());
        positions.dedup();
        assert_eq!(positions.len(), 4);
    }
}
