//! The five ablation configurations of Fig. 4.

use crate::model::LmmIrConfig;
use crate::train::TrainConfig;

/// One bar group of the paper's Fig. 4 ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// "EC": plain encoder-decoder flow — no attention gates, no LNT.
    EncoderDecoder,
    /// "W-Att": full model *without* the attention blocks (gates).
    WithoutAttention,
    /// "W-LNT": full model *without* the large netlist transformer.
    WithoutLnt,
    /// "W-Aug": full model *without* Gaussian-noise augmentation.
    WithoutAugmentation,
    /// "United": all techniques together (the proposed model).
    United,
}

impl AblationVariant {
    /// All five variants in the paper's plotting order.
    #[must_use]
    pub fn all() -> [AblationVariant; 5] {
        [
            AblationVariant::EncoderDecoder,
            AblationVariant::WithoutAttention,
            AblationVariant::WithoutLnt,
            AblationVariant::WithoutAugmentation,
            AblationVariant::United,
        ]
    }

    /// Axis label as printed in Fig. 4.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AblationVariant::EncoderDecoder => "EC",
            AblationVariant::WithoutAttention => "W-Att",
            AblationVariant::WithoutLnt => "W-LNT",
            AblationVariant::WithoutAugmentation => "W-Aug",
            AblationVariant::United => "United",
        }
    }

    /// Paper-reported F1 for this variant (Fig. 4), for comparison columns.
    #[must_use]
    pub fn paper_f1(&self) -> f64 {
        match self {
            AblationVariant::EncoderDecoder => 0.27,
            AblationVariant::WithoutAttention => 0.30,
            AblationVariant::WithoutLnt => 0.48,
            AblationVariant::WithoutAugmentation => 0.13,
            AblationVariant::United => 0.58,
        }
    }

    /// Paper-reported MAE (×1e-4 V) for this variant (Fig. 4).
    #[must_use]
    pub fn paper_mae_e4(&self) -> f64 {
        match self {
            AblationVariant::EncoderDecoder => 1.93,
            AblationVariant::WithoutAttention => 2.65,
            AblationVariant::WithoutLnt => 1.96,
            AblationVariant::WithoutAugmentation => 2.03,
            AblationVariant::United => 1.35,
        }
    }

    /// Derives the model configuration for this variant from a base config.
    #[must_use]
    pub fn model_config(&self, base: &LmmIrConfig) -> LmmIrConfig {
        let mut cfg = base.clone();
        match self {
            AblationVariant::EncoderDecoder => {
                cfg.use_lnt = false;
                cfg.use_attention_gates = false;
            }
            AblationVariant::WithoutAttention => cfg.use_attention_gates = false,
            AblationVariant::WithoutLnt => cfg.use_lnt = false,
            AblationVariant::WithoutAugmentation | AblationVariant::United => {}
        }
        cfg
    }

    /// [`AblationVariant::model_config`] lifted to [`crate::arch::ArchConfig`]:
    /// applies this variant's flag flips when the base describes an LMM-IR
    /// trunk, and returns `None` for every other architecture (the ablation
    /// axes — attention gates, LNT — only exist there).
    #[must_use]
    pub fn arch_config(&self, base: &crate::arch::ArchConfig) -> Option<crate::arch::ArchConfig> {
        match base {
            crate::arch::ArchConfig::LmmIr(cfg) => {
                Some(crate::arch::ArchConfig::LmmIr(self.model_config(cfg)))
            }
            _ => None,
        }
    }

    /// Derives the training configuration for this variant.
    #[must_use]
    pub fn train_config(&self, base: &TrainConfig) -> TrainConfig {
        let mut cfg = base.clone();
        if *self == AblationVariant::WithoutAugmentation {
            cfg.noise_std = 0.0;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_variants_with_unique_labels() {
        let all = AblationVariant::all();
        assert_eq!(all.len(), 5);
        let mut labels: Vec<&str> = all.iter().map(AblationVariant::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn united_keeps_everything() {
        let base = LmmIrConfig::quick();
        let cfg = AblationVariant::United.model_config(&base);
        assert!(cfg.use_lnt);
        assert!(cfg.use_attention_gates);
        let t = AblationVariant::United.train_config(&TrainConfig::quick());
        assert!(t.noise_std > 0.0);
    }

    #[test]
    fn ec_removes_both_modules() {
        let cfg = AblationVariant::EncoderDecoder.model_config(&LmmIrConfig::quick());
        assert!(!cfg.use_lnt);
        assert!(!cfg.use_attention_gates);
    }

    #[test]
    fn w_aug_only_touches_training() {
        let base = LmmIrConfig::quick();
        let cfg = AblationVariant::WithoutAugmentation.model_config(&base);
        assert_eq!(cfg, base);
        let t = AblationVariant::WithoutAugmentation.train_config(&TrainConfig::quick());
        assert_eq!(t.noise_std, 0.0);
    }

    #[test]
    fn arch_config_only_ablates_lmmir() {
        use crate::arch::ArchConfig;
        let base = ArchConfig::LmmIr(LmmIrConfig::quick());
        let ec = AblationVariant::EncoderDecoder.arch_config(&base).unwrap();
        match ec {
            ArchConfig::LmmIr(cfg) => {
                assert!(!cfg.use_lnt);
                assert!(!cfg.use_attention_gates);
            }
            other => panic!("ablating an LMM-IR config changed its family: {other:?}"),
        }
        let waca = ArchConfig::UNet(crate::zoo::UNetConfig::quick(crate::ArchSpec::WacaUnet));
        assert_eq!(AblationVariant::WithoutLnt.arch_config(&waca), None);
    }

    #[test]
    fn paper_numbers_match_figure4() {
        assert!((AblationVariant::United.paper_f1() - 0.58).abs() < 1e-12);
        assert!((AblationVariant::WithoutAugmentation.paper_mae_e4() - 2.03).abs() < 1e-12);
    }
}
