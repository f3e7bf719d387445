//! End-to-end evaluation pipeline: predict on hidden cases and score
//! against original-resolution golden ground truth.

use crate::data::Sample;
use crate::infer::{restore_prediction, InferenceSession};
use crate::metrics::{f1_score, mae, CaseMetrics};
use crate::model::IrPredictor;
use lmmir_features::SpatialInfo;
use lmmir_tensor::{Result, Tensor};
use std::collections::HashMap;

/// Evaluates a trained model on a set of samples, producing one
/// [`CaseMetrics`] row per case (the per-case rows of Table III).
///
/// TAT is measured as wall-clock inference time of the model forward pass
/// (feature preparation is shared by all models and already amortized in
/// the samples).
///
/// Evaluation proceeds in waves of [`EVAL_WAVE`] cases: within a wave,
/// forward passes run one case at a time on the calling thread — each at
/// the full pool width, so the TAT column times an uncontended forward;
/// parallelism comes from the kernels *inside* it — and then the
/// per-case scoring (prediction restore, F1, MAE) fans out across the
/// `lmmir-par` pool. Each case keeps the TAT measured around its own
/// forward call, and at most one wave of predictions is buffered at a
/// time, so peak memory stays bounded for arbitrarily long sweeps.
///
/// # Errors
///
/// Returns tensor errors when a sample does not match the model's input
/// contract.
pub fn evaluate(model: &dyn IrPredictor, samples: &[Sample]) -> Result<Vec<CaseMetrics>> {
    let session = InferenceSession::new(model);
    let mut rows = Vec::with_capacity(samples.len());
    for wave in samples.chunks(EVAL_WAVE) {
        let mut preds: Vec<(SpatialInfo, Tensor, f64)> = Vec::with_capacity(wave.len());
        for sample in wave {
            // One prepared input is alive at a time; the wave keeps just
            // the (small) predictions and restore bookkeeping.
            let prepared = session.prepare_sample(sample);
            let (pred, tat) = session.forward(&prepared)?;
            preds.push((prepared.info, pred, tat));
        }
        rows.extend(lmmir_par::par_map(wave.len(), |i| {
            let (info, pred, tat) = &preds[i];
            let sample = &wave[i];
            let restored = restore_prediction(*info, pred);
            CaseMetrics {
                id: sample.id.clone(),
                f1: f1_score(&restored, &sample.truth),
                mae_e4: mae(&restored, &sample.truth) * 1e4,
                tat: *tat,
            }
        }));
    }
    Ok(rows)
}

/// Cases per evaluation wave: enough to keep every worker busy during the
/// scoring fan-out, small enough that the buffered predictions stay cheap
/// (a wave of 512×512 maps is ~32 MiB).
const EVAL_WAVE: usize = 32;

/// Speed-up of model inference versus the golden solver on each case —
/// the paper's core motivation (hours of simulation vs seconds of
/// inference).
///
/// Rows are joined to samples **by case id**, so reordered or filtered
/// metric rows can never pair with the wrong golden time; rows whose id has
/// no matching sample are omitted.
#[must_use]
pub fn golden_speedups(rows: &[CaseMetrics], samples: &[Sample]) -> Vec<(String, f64)> {
    let golden: HashMap<&str, f64> = samples
        .iter()
        .map(|s| (s.id.as_str(), s.golden_seconds))
        .collect();
    rows.iter()
        .filter_map(|r| {
            let golden_seconds = golden.get(r.id.as_str())?;
            let speedup = if r.tat > 0.0 {
                golden_seconds / r.tat
            } else {
                f64::INFINITY
            };
            Some((r.id.clone(), speedup))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::iredge;
    use crate::data::build_sample;
    use crate::train::{train, TrainConfig};
    use lmmir_pdn::{CaseKind, CaseSpec};

    #[test]
    fn evaluate_produces_row_per_sample() {
        let samples = vec![
            build_sample(&CaseSpec::new("a", 16, 16, 1, CaseKind::Hidden), 16).unwrap(),
            build_sample(&CaseSpec::new("b", 20, 20, 2, CaseKind::Hidden), 16).unwrap(),
        ];
        let model = iredge(16, 3);
        let rows = evaluate(&model, &samples).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.f1 >= 0.0 && r.f1 <= 1.0);
            assert!(r.mae_e4 >= 0.0);
            assert!(r.tat > 0.0);
        }
    }

    #[test]
    fn trained_model_beats_untrained_on_mae() {
        let train_samples = vec![
            build_sample(&CaseSpec::new("t0", 16, 16, 10, CaseKind::Fake), 16).unwrap(),
            build_sample(&CaseSpec::new("t1", 16, 16, 11, CaseKind::Fake), 16).unwrap(),
            build_sample(&CaseSpec::new("t2", 16, 16, 12, CaseKind::Fake), 16).unwrap(),
        ];
        let eval_samples =
            vec![build_sample(&CaseSpec::new("e", 16, 16, 13, CaseKind::Hidden), 16).unwrap()];
        let untrained = iredge(16, 42);
        let before = evaluate(&untrained, &eval_samples).unwrap()[0].mae_e4;
        let trained = iredge(16, 42);
        let cfg = TrainConfig {
            epochs: 15,
            pretrain_epochs: 0,
            oversample: (1, 1),
            ..TrainConfig::quick()
        };
        train(&trained, &train_samples, &cfg).unwrap();
        let after = evaluate(&trained, &eval_samples).unwrap()[0].mae_e4;
        assert!(
            after < before,
            "training should reduce MAE: before {before:.2} after {after:.2}"
        );
    }

    #[test]
    fn golden_speedups_positive() {
        let samples =
            vec![build_sample(&CaseSpec::new("a", 16, 16, 1, CaseKind::Hidden), 16).unwrap()];
        let model = iredge(16, 3);
        let rows = evaluate(&model, &samples).unwrap();
        let sp = golden_speedups(&rows, &samples);
        assert_eq!(sp.len(), 1);
        assert!(sp[0].1 > 0.0);
    }

    #[test]
    fn golden_speedups_join_by_id_survives_reorder_and_filter() {
        let samples = vec![
            build_sample(&CaseSpec::new("a", 16, 16, 1, CaseKind::Hidden), 16).unwrap(),
            build_sample(&CaseSpec::new("b", 20, 20, 2, CaseKind::Hidden), 16).unwrap(),
        ];
        let model = iredge(16, 3);
        let rows = evaluate(&model, &samples).unwrap();

        // Reordered samples must still pair each row with its own golden
        // time (positional zipping would silently swap them).
        let reordered: Vec<Sample> = vec![samples[1].clone(), samples[0].clone()];
        let sp = golden_speedups(&rows, &reordered);
        assert_eq!(sp.len(), 2);
        for (row, (id, speedup)) in rows.iter().zip(&sp) {
            assert_eq!(&row.id, id);
            let golden = samples
                .iter()
                .find(|s| s.id == row.id)
                .map(|s| s.golden_seconds)
                .unwrap();
            assert!((speedup - golden / row.tat).abs() < 1e-12);
        }

        // Filtered rows: a row whose sample is missing is omitted, and the
        // remaining row still matches by id.
        let only_b: Vec<Sample> = vec![samples[1].clone()];
        let sp = golden_speedups(&rows, &only_b);
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].0, "b");
    }

    #[test]
    fn evaluate_scores_identically_across_thread_counts() {
        let samples = vec![
            build_sample(&CaseSpec::new("a", 16, 16, 1, CaseKind::Hidden), 16).unwrap(),
            build_sample(&CaseSpec::new("b", 20, 20, 2, CaseKind::Hidden), 16).unwrap(),
            build_sample(&CaseSpec::new("c", 16, 16, 3, CaseKind::Hidden), 16).unwrap(),
        ];
        let model = iredge(16, 3);
        let reference = lmmir_par::with_threads(1, || evaluate(&model, &samples).unwrap());
        for threads in [2, 7] {
            let rows = lmmir_par::with_threads(threads, || evaluate(&model, &samples).unwrap());
            assert_eq!(rows.len(), reference.len());
            for (a, b) in reference.iter().zip(&rows) {
                assert_eq!(a.id, b.id, "row order must be stable");
                assert_eq!(a.f1.to_bits(), b.f1.to_bits(), "F1 drifted at {threads}");
                assert_eq!(
                    a.mae_e4.to_bits(),
                    b.mae_e4.to_bits(),
                    "MAE drifted at {threads}"
                );
            }
        }
    }
}
