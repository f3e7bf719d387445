//! Saving and restoring trained predictors.
//!
//! Parameter order is defined by each model's `parameters()` and is
//! deterministic for a fixed architecture, so checkpoints restore exactly
//! into a freshly constructed model with the same configuration.
//!
//! Since checkpoint format v2, [`save_predictor`] also writes a metadata
//! entry recording the architecture (model name, input channels, input
//! size). [`load_predictor`] — and the serving layer's model registry —
//! reject checkpoints whose metadata disagrees with the target model, so a
//! wrong file fails with an attributable message instead of a bare
//! parameter-count mismatch deep in the tensor list. Checkpoints written
//! before the metadata entry existed (format v1) still load.
//!
//! Format v3 additionally serializes the **full model configuration** (an
//! [`ArchConfig`]: widths, stem kernel, per-family extras, seed) into one
//! family-specific `config.*` entry when the saved model carries one
//! (`config.lmmir`, `config.dynamic`, `config.cfirstnet`, `config.waca`).
//! A v3 reader reconstructs the exact trained architecture instead of
//! assuming the `quick()` widths — which is what makes paper-scale
//! checkpoints servable. The entry names and payload layouts live with
//! [`ArchSpec`] in the `arch` module, so this module has no per-family
//! branches. v1 and v2 files still load: the config entry is simply absent
//! and [`CheckpointMeta::config`] is `None`.
//!
//! Format v4 additionally records **post-training int8 weight scales**: one
//! `quant.{i}` entry (a rank-1 scale vector, one scale per output channel)
//! for every rank-2/rank-4 `param.{i}`. Weights themselves stay `f32` on
//! the wire — the scales make the quantization *reproducible and
//! verifiable*: they are computed by [`lmmir_tensor::quant::weight_scales`],
//! the same function the layers use when [`IrPredictor::quantize`] runs, so
//! the loader cross-checks each stored vector bitwise against a
//! recomputation from the adjacent parameter tensor and rejects tampered or
//! corrupted files. v1–v3 files simply have no `quant.` entries and still
//! load (quantized serving of an old file computes the identical scales at
//! load time).

use crate::arch::{ArchConfig, ArchSpec};
use crate::dynamic::DynamicIrConfig;
use crate::model::{IrPredictor, LmmIrConfig};
use lmmir_tensor::quant::weight_scales;
use lmmir_tensor::{io, Result, Tensor, TensorError};
use std::collections::BTreeMap;
use std::path::Path;

/// Name prefix of the metadata entry; the model name rides in the entry
/// name itself (entry names are the only string-typed field in the format).
const META_PREFIX: &str = "meta.";

/// Name prefix of every family-specific full-config entry (format v3+);
/// the suffix is owned by [`ArchSpec::config_entry`].
const CONFIG_PREFIX: &str = "config.";

/// Name prefix of the per-parameter int8 scale entries written since
/// format v4 (`quant.{i}` describes `param.{i}`).
const QUANT_PREFIX: &str = "quant.";

/// Architecture metadata stored alongside checkpoint parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    /// Model name as reported by [`IrPredictor::name`].
    pub model: String,
    /// Input image channels the model expects.
    pub input_channels: usize,
    /// Square input size the model was configured for.
    pub input_size: usize,
    /// Full family-tagged configuration (format v3; `None` for v1/v2 files
    /// and for baseline architectures, which are fully determined by name,
    /// channels and size).
    pub config: Option<ArchConfig>,
    /// Per-parameter int8 weight scales keyed by parameter index
    /// (format v4; empty for older files). Every rank-2/rank-4 parameter
    /// has an entry.
    pub quant_scales: BTreeMap<usize, Vec<f32>>,
}

impl CheckpointMeta {
    /// Reads the metadata off a live model, including the int8 scales of
    /// every quantizable parameter (so a save captures format v4).
    #[must_use]
    pub fn of(model: &dyn IrPredictor) -> Self {
        let quant_scales = model
            .parameters()
            .iter()
            .enumerate()
            .filter_map(|(i, p)| weight_scales(&p.value()).map(|s| (i, s)))
            .collect();
        CheckpointMeta {
            model: model.name().to_string(),
            input_channels: model.input_channels(),
            input_size: model.input_size(),
            config: model.arch_config(),
            quant_scales,
        }
    }

    /// The checkpoint format version this metadata corresponds to: 4 when
    /// int8 scales are recorded, 3 when the full config is, 2 otherwise
    /// (1 — no metadata at all — is represented by `split_meta` returning
    /// `None`).
    #[must_use]
    pub fn format_version(&self) -> u8 {
        if !self.quant_scales.is_empty() {
            4
        } else if self.config.is_some() {
            3
        } else {
            2
        }
    }

    /// The LMM-IR configuration, when this metadata carries one.
    #[must_use]
    pub fn lmmir_config(&self) -> Option<&LmmIrConfig> {
        match &self.config {
            Some(ArchConfig::LmmIr(c)) => Some(c),
            _ => None,
        }
    }

    /// The dynamic-family configuration, when this metadata carries one.
    #[must_use]
    pub fn dynamic_config(&self) -> Option<&DynamicIrConfig> {
        match &self.config {
            Some(ArchConfig::Dynamic(c)) => Some(c),
            _ => None,
        }
    }

    /// Serializes to a checkpoint entry. Channel count and input size are
    /// exact in `f32` for every realistic architecture (both ≪ 2²⁴).
    fn entry(&self) -> (String, Tensor) {
        let payload = vec![self.input_channels as f32, self.input_size as f32];
        (
            format!("{META_PREFIX}{}", self.model),
            Tensor::from_vec(payload, &[2]).expect("meta payload is rank 1"),
        )
    }

    /// Parses a checkpoint entry previously written by [`Self::entry`].
    fn parse(name: &str, t: &Tensor) -> Result<Self> {
        let model = name
            .strip_prefix(META_PREFIX)
            .ok_or_else(|| TensorError::Io(format!("not a meta entry: '{name}'")))?;
        let data = t.data();
        if t.dims() != [2] || data.iter().any(|v| *v < 0.0 || v.fract() != 0.0) {
            return Err(TensorError::Io(format!(
                "malformed checkpoint meta entry '{name}' (dims {:?})",
                t.dims()
            )));
        }
        Ok(CheckpointMeta {
            model: model.to_string(),
            input_channels: data[0] as usize,
            input_size: data[1] as usize,
            config: None,
            quant_scales: BTreeMap::new(),
        })
    }
}

/// A named tensor as stored in a checkpoint file.
pub type NamedTensor = (String, Tensor);

/// Parses a `quant.{i}` entry name/payload into `(index, scales)`.
fn parse_quant(name: &str, t: &Tensor) -> Result<(usize, Vec<f32>)> {
    let bad = |why: String| TensorError::Io(format!("malformed quant entry '{name}': {why}"));
    let index = name
        .strip_prefix(QUANT_PREFIX)
        .expect("caller checked the prefix")
        .parse::<usize>()
        .map_err(|_| bad("suffix must be a parameter index".to_string()))?;
    if t.rank() != 1 {
        return Err(bad(format!("scales must be rank-1, got {:?}", t.dims())));
    }
    let data = t.data();
    if let Some(v) = data.iter().find(|v| !v.is_finite() || **v <= 0.0) {
        return Err(bad(format!("scales must be finite and positive, got {v}")));
    }
    Ok((index, data.to_vec()))
}

/// Splits loaded entries into the optional metadata and the parameter list
/// (order preserved). A v3 `config.*` entry is decoded by the family that
/// owns the entry name ([`ArchSpec::for_config_entry`]), folded into
/// [`CheckpointMeta::config`] and cross-checked against the meta entry;
/// v4 `quant.{i}` entries are folded into [`CheckpointMeta::quant_scales`]
/// and cross-checked **bitwise** against a recomputation from the
/// `param.{i}` tensor they describe.
///
/// # Errors
///
/// Returns [`TensorError::Io`] for a malformed, unknown or duplicated
/// meta/config/quant entry, a config or quant entry without a meta entry,
/// a config that disagrees with the meta's architecture name, channel count
/// or input size, or a quant entry whose scales disagree with its
/// parameter.
pub fn split_meta(entries: Vec<NamedTensor>) -> Result<(Option<CheckpointMeta>, Vec<NamedTensor>)> {
    let mut meta: Option<CheckpointMeta> = None;
    let mut config: Option<ArchConfig> = None;
    let mut quant: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
    let mut params = Vec::with_capacity(entries.len());
    for (name, t) in entries {
        if name.starts_with(CONFIG_PREFIX) {
            let Some(arch) = ArchSpec::for_config_entry(&name) else {
                return Err(TensorError::Io(format!(
                    "checkpoint has an unknown config entry '{name}' \
                     (no architecture owns it)"
                )));
            };
            if config.is_some() {
                return Err(TensorError::Io(
                    "checkpoint has more than one config entry".to_string(),
                ));
            }
            config = Some(ArchConfig::decode(arch, &t)?);
        } else if name.starts_with(QUANT_PREFIX) {
            let (index, scales) = parse_quant(&name, &t)?;
            if quant.insert(index, scales).is_some() {
                return Err(TensorError::Io(format!(
                    "checkpoint has more than one '{name}' entry"
                )));
            }
        } else if name.starts_with(META_PREFIX) {
            if meta.is_some() {
                return Err(TensorError::Io(
                    "checkpoint has more than one meta entry".to_string(),
                ));
            }
            meta = Some(CheckpointMeta::parse(&name, &t)?);
        } else {
            params.push((name, t));
        }
    }
    if !quant.is_empty() {
        if meta.is_none() {
            return Err(TensorError::Io(
                "checkpoint has quant entries but no meta entry".to_string(),
            ));
        }
        // Stored scales must match a bitwise recomputation from the very
        // parameter tensors in this file: `weight_scales` is the one
        // function both the writer and the quantizing layers use, so any
        // disagreement means corruption or tampering.
        for (index, scales) in &quant {
            let param_name = format!("param.{index}");
            let Some((_, p)) = params.iter().find(|(n, _)| *n == param_name) else {
                return Err(TensorError::Io(format!(
                    "quant entry 'quant.{index}' has no matching '{param_name}'"
                )));
            };
            if weight_scales(p).as_ref() != Some(scales) {
                return Err(TensorError::Io(format!(
                    "quant entry 'quant.{index}' disagrees with the scales \
                     recomputed from '{param_name}'"
                )));
            }
        }
    }
    if let Some(cfg) = config {
        let entry = cfg.entry_name();
        let Some(meta) = meta.as_mut() else {
            return Err(TensorError::Io(format!(
                "checkpoint has a '{entry}' entry but no meta entry"
            )));
        };
        if meta.model != cfg.arch().name() {
            return Err(TensorError::Io(format!(
                "'{entry}' entry on a '{}' checkpoint (it describes '{}')",
                meta.model,
                cfg.arch().name()
            )));
        }
        if cfg.input_channels() != meta.input_channels || cfg.input_size() != meta.input_size {
            return Err(TensorError::Io(format!(
                "config entry ({} channels, {} px) disagrees with meta entry \
                 ({} channels, {} px)",
                cfg.input_channels(),
                cfg.input_size(),
                meta.input_channels,
                meta.input_size
            )));
        }
        meta.config = Some(cfg);
    }
    if !quant.is_empty() {
        meta.as_mut().expect("checked above").quant_scales = quant;
    }
    Ok((meta, params))
}

/// Reads only the metadata of a checkpoint file (`None` for pre-v2 files
/// without one).
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the file cannot be read or is malformed.
pub fn load_meta(path: impl AsRef<Path>) -> Result<Option<CheckpointMeta>> {
    let (meta, _) = split_meta(io::load(path)?)?;
    Ok(meta)
}

/// Serializes a predictor's parameters (plus architecture metadata, plus —
/// for models that carry one — the full family configuration, plus the
/// int8 weight scales of every quantizable parameter; format v4)
/// to the binary checkpoint format.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem failure.
pub fn save_predictor(model: &dyn IrPredictor, path: impl AsRef<Path>) -> Result<()> {
    let meta = CheckpointMeta::of(model);
    let mut entries: Vec<(String, Tensor)> = vec![meta.entry()];
    if let Some(cfg) = &meta.config {
        entries.push(cfg.entry());
    }
    for (i, p) in model.parameters().iter().enumerate() {
        entries.push((format!("param.{i}"), p.to_tensor()));
        if let Some(scales) = meta.quant_scales.get(&i) {
            let len = scales.len();
            entries.push((
                format!("{QUANT_PREFIX}{i}"),
                Tensor::from_vec(scales.clone(), &[len]).expect("scales are rank 1"),
            ));
        }
    }
    io::save(path, &entries)
}

/// Restores a predictor's parameters from a checkpoint file.
///
/// When the checkpoint carries metadata, the target model's name, input
/// channel count and input size must match; a v1 checkpoint without
/// metadata is accepted and validated by parameter count/shape alone.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the file cannot be read, the metadata
/// names a different architecture, or the parameter count differs; and
/// [`TensorError::ShapeMismatch`] when a tensor's shape disagrees with the
/// model architecture.
pub fn load_predictor(model: &dyn IrPredictor, path: impl AsRef<Path>) -> Result<()> {
    let (meta, entries) = split_meta(io::load(path)?)?;
    if let Some(meta) = meta {
        let target = CheckpointMeta::of(model);
        if meta.model != target.model
            || meta.input_channels != target.input_channels
            || meta.input_size != target.input_size
        {
            return Err(TensorError::Io(format!(
                "checkpoint architecture mismatch: file was saved from \
                 '{}' ({} channels, {} px) but the target model is \
                 '{}' ({} channels, {} px)",
                meta.model,
                meta.input_channels,
                meta.input_size,
                target.model,
                target.input_channels,
                target.input_size,
            )));
        }
        // The full config is compared only when both sides record one: a
        // v2 checkpoint (no config) restores into any same-shape model, and
        // restore_parameters still validates every tensor shape below. Seed
        // differences are fine — weights are restored.
        if let (Some(file_cfg), Some(model_cfg)) = (&meta.config, &target.config) {
            if !file_cfg.same_trunk(model_cfg) {
                return Err(TensorError::Io(format!(
                    "checkpoint configuration mismatch: file records \
                     {file_cfg:?} but the target model is built as \
                     {model_cfg:?}"
                )));
            }
        }
    }
    restore_parameters(model, entries)
}

/// Assigns already-loaded (and meta-stripped) parameter entries into a
/// model, validating count and shapes first — the restore half of
/// [`load_predictor`], exposed so callers that already parsed a checkpoint
/// (e.g. the serving registry, which reads meta and weights from one
/// `io::load`) need not read the file twice.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the parameter count differs and
/// [`TensorError::ShapeMismatch`] when a tensor's shape disagrees with the
/// model architecture.
pub fn restore_parameters(model: &dyn IrPredictor, entries: Vec<NamedTensor>) -> Result<()> {
    let params = model.parameters();
    if entries.len() != params.len() {
        return Err(TensorError::Io(format!(
            "checkpoint has {} tensors but model has {} parameters",
            entries.len(),
            params.len()
        )));
    }
    for (p, (_, t)) in params.iter().zip(&entries) {
        if p.value().dims() != t.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: p.value().dims().to_vec(),
                rhs: t.dims().to_vec(),
                op: "load_predictor",
            });
        }
    }
    for (p, (_, t)) in params.iter().zip(entries) {
        p.set_value(t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{iredge, irpnet};
    use crate::lnt::LntConfig;
    use crate::model::IrPredictor;
    use lmmir_tensor::{Tensor, Var};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lmmir_core_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip() {
        let a = iredge(16, 1);
        let path = tmp("iredge.lmmt");
        save_predictor(&a, &path).unwrap();
        let b = iredge(16, 2); // different seed => different weights
        let x = Var::constant(Tensor::ones(&[1, 3, 16, 16]));
        a.set_training(false);
        b.set_training(false);
        let ya = a.forward(&x, None).unwrap().to_tensor();
        let yb_before = b.forward(&x, None).unwrap().to_tensor();
        assert_ne!(ya.data(), yb_before.data());
        load_predictor(&b, &path).unwrap();
        let yb_after = b.forward(&x, None).unwrap().to_tensor();
        assert_eq!(ya.data(), yb_after.data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_architecture_by_name() {
        let a = iredge(16, 1);
        let path = tmp("mismatch.lmmt");
        save_predictor(&a, &path).unwrap();
        let other = irpnet(16, 1);
        let err = load_predictor(&other, &path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("IREDGe") && msg.contains("IRPnet"),
            "mismatch error should name both architectures: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_same_model_different_input_size() {
        let a = iredge(16, 1);
        let path = tmp("sizes.lmmt");
        save_predictor(&a, &path).unwrap();
        // Same architecture family and parameter shapes — only the
        // configured input size differs; the meta check catches it where
        // shape validation could not.
        let other = iredge(32, 1);
        let err = load_predictor(&other, &path).unwrap_err();
        assert!(err.to_string().contains("16 px"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_round_trips_through_file() {
        let a = iredge(16, 1);
        let path = tmp("meta.lmmt");
        save_predictor(&a, &path).unwrap();
        let meta = load_meta(&path).unwrap().expect("v2 checkpoints have meta");
        assert_eq!(meta, CheckpointMeta::of(&a));
        assert_eq!(meta.model, "IREDGe");
        assert_eq!(meta.input_channels, 3);
        assert_eq!(meta.input_size, 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_checkpoint_without_meta_still_loads() {
        let a = iredge(16, 1);
        // Write the raw parameter entries only, as a pre-meta writer did.
        let entries: Vec<(String, Tensor)> = a
            .parameters()
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("param.{i}"), p.to_tensor()))
            .collect();
        let path = tmp("legacy.lmmt");
        io::save(&path, &entries).unwrap();
        let b = iredge(16, 2);
        load_predictor(&b, &path).unwrap();
        assert!(load_meta(&path).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_meta_entry_is_rejected() {
        let entries = vec![(
            "meta.IREDGe".to_string(),
            Tensor::from_vec(vec![3.5, 16.0], &[2]).unwrap(),
        )];
        assert!(split_meta(entries).is_err(), "fractional channel count");
        let entries = vec![
            (
                "meta.A".to_string(),
                Tensor::from_vec(vec![3.0, 16.0], &[2]).unwrap(),
            ),
            (
                "meta.B".to_string(),
                Tensor::from_vec(vec![3.0, 16.0], &[2]).unwrap(),
            ),
        ];
        assert!(split_meta(entries).is_err(), "duplicate meta entries");
    }

    #[test]
    fn load_missing_file_errors() {
        let a = iredge(16, 1);
        assert!(load_predictor(&a, tmp("does_not_exist.lmmt")).is_err());
    }

    fn custom_lmmir_cfg() -> LmmIrConfig {
        // Deliberately NOT the quick() widths/LNT plan: this is the exact
        // case a v2 reader could not serve.
        LmmIrConfig {
            in_channels: 6,
            widths: vec![4, 8, 16],
            stem_kernel: 5,
            lnt: LntConfig {
                d_model: 16,
                heads: 2,
                layers: 1,
                max_points: 128,
                chunk: 32,
                ff_mult: 3,
            },
            use_lnt: true,
            use_attention_gates: false,
            input_size: 16,
            seed: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn v3_full_config_round_trips() {
        use crate::model::LmmIr;
        let cfg = custom_lmmir_cfg();
        let a = LmmIr::new(cfg.clone());
        let path = tmp("v3_config.lmmt");
        save_predictor(&a, &path).unwrap();
        let meta = load_meta(&path).unwrap().expect("v3 checkpoints have meta");
        // Fresh saves always carry int8 scales now (format v4); the point
        // of this test — the full config surviving the round trip — holds.
        assert_eq!(meta.format_version(), 4);
        assert_eq!(meta.lmmir_config(), Some(&cfg), "config must survive");
        assert_eq!(meta.lmmir_config().unwrap().seed, 0xDEAD_BEEF_CAFE_F00D);
        // And the weights restore into a model built from that config.
        let b = LmmIr::new(LmmIrConfig {
            seed: 1,
            ..custom_lmmir_cfg()
        });
        load_predictor(&b, &path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_rejects_config_width_mismatch() {
        use crate::model::LmmIr;
        let a = LmmIr::new(custom_lmmir_cfg());
        let path = tmp("v3_mismatch.lmmt");
        save_predictor(&a, &path).unwrap();
        let mut other_cfg = custom_lmmir_cfg();
        other_cfg.widths = vec![4, 8];
        let b = LmmIr::new(other_cfg);
        let err = load_predictor(&b, &path).unwrap_err().to_string();
        assert!(err.contains("configuration mismatch"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_layout_checkpoint_loads_through_v3_reader() {
        use crate::model::LmmIr;
        // Pinned v2 writer shape: one `meta.{name}` entry of [channels,
        // size] followed by `param.{i}` entries — exactly what PR 3's
        // save_predictor produced, hand-written so the current writer
        // cannot mask a compatibility break.
        let cfg = LmmIrConfig {
            input_size: 16,
            widths: vec![12, 24],
            ..LmmIrConfig::quick()
        };
        let a = LmmIr::new(cfg.clone());
        let mut entries = vec![(
            "meta.LMM-IR".to_string(),
            Tensor::from_vec(vec![6.0, 16.0], &[2]).unwrap(),
        )];
        entries.extend(
            a.parameters()
                .iter()
                .enumerate()
                .map(|(i, p)| (format!("param.{i}"), p.to_tensor())),
        );
        let path = tmp("v2_layout.lmmt");
        io::save(&path, &entries).unwrap();
        let meta = load_meta(&path).unwrap().expect("v2 files carry meta");
        assert_eq!(meta.format_version(), 2);
        assert!(meta.config.is_none());
        // A v2 file restores into a same-shape model even though the model
        // itself carries a full config (the file predates configs).
        let b = LmmIr::new(LmmIrConfig { seed: 9, ..cfg });
        load_predictor(&b, &path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_layout_checkpoint_loads_through_v4_reader() {
        use crate::model::LmmIr;
        // Pinned v3 writer shape: meta + config + `param.{i}` entries and
        // nothing else — what PR 4's save_predictor produced. Built by
        // stripping the quant entries from a fresh save, so the parameter
        // payload is bit-identical to a real v3 file's.
        let cfg = custom_lmmir_cfg();
        let a = LmmIr::new(cfg.clone());
        let path = tmp("v3_layout.lmmt");
        save_predictor(&a, &path).unwrap();
        let entries: Vec<NamedTensor> = io::load(&path)
            .unwrap()
            .into_iter()
            .filter(|(n, _)| !n.starts_with("quant."))
            .collect();
        io::save(&path, &entries).unwrap();
        let meta = load_meta(&path).unwrap().expect("v3 files carry meta");
        assert_eq!(meta.format_version(), 3);
        assert!(meta.quant_scales.is_empty());
        assert_eq!(meta.lmmir_config(), Some(&cfg), "config must survive");
        let b = LmmIr::new(LmmIrConfig { seed: 9, ..cfg });
        load_predictor(&b, &path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v4_quant_scales_round_trip() {
        // The stored scales must be byte-for-byte what `CheckpointMeta::of`
        // computes from the live model — the invariant that lets quantized
        // serving recompute identical scales from any format version.
        let a = irpnet(16, 3);
        let expected = CheckpointMeta::of(&a);
        assert!(
            !expected.quant_scales.is_empty(),
            "every conv/linear weight contributes scales"
        );
        for (i, p) in a.parameters().iter().enumerate() {
            assert_eq!(
                expected.quant_scales.contains_key(&i),
                matches!(p.value().rank(), 2 | 4),
                "param {i} rank {}",
                p.value().rank()
            );
        }
        let path = tmp("v4_scales.lmmt");
        save_predictor(&a, &path).unwrap();
        let meta = load_meta(&path).unwrap().expect("v4 files carry meta");
        assert_eq!(meta.format_version(), 4);
        assert_eq!(meta.quant_scales, expected.quant_scales);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_quant_entries_are_rejected() {
        let a = iredge(16, 1);
        let path = tmp("v4_tamper.lmmt");
        save_predictor(&a, &path).unwrap();
        let entries = io::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Scales disagreeing with their parameter.
        let mut tampered = entries.clone();
        let q = tampered
            .iter_mut()
            .find(|(n, _)| n.starts_with("quant."))
            .expect("fresh saves carry quant entries");
        q.1 = q.1.scale(2.0);
        let err = split_meta(tampered).unwrap_err().to_string();
        assert!(err.contains("disagrees"), "got {err}");

        // A quant entry with no matching parameter.
        let mut orphan = entries.clone();
        let scales = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        orphan.push(("quant.999".to_string(), scales.clone()));
        let err = split_meta(orphan).unwrap_err().to_string();
        assert!(err.contains("no matching"), "got {err}");

        // Non-positive scales are rejected before any comparison.
        let bad = vec![(
            "quant.0".to_string(),
            Tensor::from_vec(vec![0.0], &[1]).unwrap(),
        )];
        let err = split_meta(bad).unwrap_err().to_string();
        assert!(err.contains("finite and positive"), "got {err}");

        // Quant entries without a meta entry.
        let headless: Vec<NamedTensor> = entries
            .into_iter()
            .filter(|(n, _)| !n.starts_with(META_PREFIX))
            .collect();
        let err = split_meta(headless).unwrap_err().to_string();
        assert!(err.contains("no meta entry"), "got {err}");
    }

    fn custom_dynamic_cfg() -> crate::dynamic::DynamicIrConfig {
        crate::dynamic::DynamicIrConfig {
            windows: 5,
            widths: vec![4, 8, 16],
            stem_kernel: 5,
            input_size: 16,
            seed: 0xFEED_FACE_BEEF_1234,
        }
    }

    #[test]
    fn dynamic_config_round_trips() {
        use crate::dynamic::{DynamicIrConfig, DynamicIrPredictor};
        let cfg = custom_dynamic_cfg();
        let a = DynamicIrPredictor::new(cfg.clone());
        let path = tmp("dynamic_config.lmmt");
        save_predictor(&a, &path).unwrap();
        let meta = load_meta(&path)
            .unwrap()
            .expect("dynamic checkpoints have meta");
        assert_eq!(meta.model, "DynIR");
        assert_eq!(meta.input_channels, 5, "channels record the window count");
        assert_eq!(meta.format_version(), 4, "fresh saves carry int8 scales");
        assert_eq!(meta.dynamic_config(), Some(&cfg), "config must survive");
        assert_eq!(meta.dynamic_config().unwrap().seed, 0xFEED_FACE_BEEF_1234);
        assert!(meta.lmmir_config().is_none(), "no LMM-IR config here");
        // Weights restore into a model built from that config (fresh seed).
        let b = DynamicIrPredictor::new(DynamicIrConfig {
            seed: 1,
            ..custom_dynamic_cfg()
        });
        load_predictor(&b, &path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_rejects_trunk_mismatch() {
        use crate::dynamic::{DynamicIrConfig, DynamicIrPredictor};
        let a = DynamicIrPredictor::new(custom_dynamic_cfg());
        let path = tmp("dynamic_mismatch.lmmt");
        save_predictor(&a, &path).unwrap();
        let b = DynamicIrPredictor::new(DynamicIrConfig {
            widths: vec![4, 8],
            ..custom_dynamic_cfg()
        });
        let err = load_predictor(&b, &path).unwrap_err().to_string();
        assert!(err.contains("mismatch"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_dynamic_entries_are_rejected() {
        let meta = |channels: f32, size: f32| {
            (
                "meta.DynIR".to_string(),
                Tensor::from_vec(vec![channels, size], &[2]).unwrap(),
            )
        };
        let payload = |v: Vec<f32>| {
            let len = v.len();
            (
                "config.dynamic".to_string(),
                Tensor::from_vec(v, &[len]).unwrap(),
            )
        };
        // layout, windows, stem, size, seed×4, widths_len, widths…
        let good = vec![1.0, 5.0, 5.0, 16.0, 0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 8.0, 16.0];
        // Well-formed parses.
        let (m, _) = split_meta(vec![meta(5.0, 16.0), payload(good.clone())]).unwrap();
        let m = m.unwrap();
        let cfg = m.dynamic_config().unwrap();
        assert_eq!(cfg.windows, 5);
        assert_eq!(cfg.widths, vec![4, 8, 16]);
        // Too short.
        assert!(split_meta(vec![meta(5.0, 16.0), payload(vec![1.0; 4])]).is_err());
        // Fractional field.
        let mut frac = good.clone();
        frac[9] = 4.5;
        assert!(split_meta(vec![meta(5.0, 16.0), payload(frac)]).is_err());
        // Width plan lies about payload length.
        let mut lying = good.clone();
        lying[8] = 7.0;
        assert!(split_meta(vec![meta(5.0, 16.0), payload(lying)]).is_err());
        // Dynamic config without a meta entry.
        assert!(split_meta(vec![payload(good.clone())]).is_err());
        // Dynamic config on a static checkpoint.
        let static_meta = (
            "meta.IREDGe".to_string(),
            Tensor::from_vec(vec![3.0, 16.0], &[2]).unwrap(),
        );
        assert!(split_meta(vec![static_meta, payload(good.clone())]).is_err());
        // Window count disagreeing with the meta's channel count.
        assert!(split_meta(vec![meta(4.0, 16.0), payload(good.clone())]).is_err());
        // Config failing its own validation (size not divisible by pools).
        let mut bad_size = good.clone();
        bad_size[3] = 17.0;
        assert!(split_meta(vec![meta(5.0, 17.0), payload(bad_size)]).is_err());
        // Duplicate dynamic entries.
        assert!(split_meta(vec![meta(5.0, 16.0), payload(good.clone()), payload(good)]).is_err());
    }

    #[test]
    fn hostile_config_entries_are_rejected() {
        let meta = (
            "meta.LMM-IR".to_string(),
            Tensor::from_vec(vec![6.0, 16.0], &[2]).unwrap(),
        );
        let cfg_payload = |v: Vec<f32>| {
            let len = v.len();
            (
                "config.lmmir".to_string(),
                Tensor::from_vec(v, &[len]).unwrap(),
            )
        };
        // Too short.
        let short = cfg_payload(vec![1.0; 5]);
        assert!(split_meta(vec![meta.clone(), short]).is_err());
        // Fractional field.
        let mut good = vec![1.0, 6.0, 7.0, 16.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        good.extend([32.0, 4.0, 2.0, 512.0, 128.0, 2.0, 2.0, 12.0, 24.0]);
        let mut frac = good.clone();
        frac[10] = 32.5;
        assert!(split_meta(vec![meta.clone(), cfg_payload(frac)]).is_err());
        // Width-plan length lies about the payload length.
        let mut lying = good.clone();
        lying[16] = 40.0;
        assert!(split_meta(vec![meta.clone(), cfg_payload(lying)]).is_err());
        // Config without any meta entry.
        assert!(split_meta(vec![cfg_payload(good.clone())]).is_err());
        // Config on a non-LMM-IR checkpoint.
        let ired_meta = (
            "meta.IREDGe".to_string(),
            Tensor::from_vec(vec![3.0, 16.0], &[2]).unwrap(),
        );
        assert!(split_meta(vec![ired_meta, cfg_payload(good.clone())]).is_err());
        // Config disagreeing with the meta's size.
        let big_meta = (
            "meta.LMM-IR".to_string(),
            Tensor::from_vec(vec![6.0, 32.0], &[2]).unwrap(),
        );
        assert!(split_meta(vec![big_meta, cfg_payload(good.clone())]).is_err());
        // The well-formed payload parses.
        let (meta_out, params) = split_meta(vec![meta, cfg_payload(good)]).unwrap();
        let meta_out = meta_out.unwrap();
        assert!(params.is_empty());
        assert_eq!(meta_out.format_version(), 3);
        let cfg = meta_out.lmmir_config().unwrap();
        assert_eq!(cfg.widths, vec![12, 24]);
        assert_eq!(cfg.stem_kernel, 7);
    }

    #[test]
    fn unknown_config_entry_is_rejected() {
        let meta = (
            "meta.IREDGe".to_string(),
            Tensor::from_vec(vec![3.0, 16.0], &[2]).unwrap(),
        );
        let rogue = (
            "config.resnet".to_string(),
            Tensor::from_vec(vec![1.0, 3.0], &[2]).unwrap(),
        );
        let err = split_meta(vec![meta, rogue]).unwrap_err().to_string();
        assert!(err.contains("unknown config entry"), "got {err}");
    }

    #[test]
    fn two_config_entries_of_any_kind_are_rejected() {
        use crate::zoo::{UNetConfig, UNetPredictor};
        let [c, w] = [ArchSpec::CfirstNet, ArchSpec::WacaUnet].map(|arch| {
            UNetPredictor::new(UNetConfig {
                widths: vec![4, 8],
                input_size: 16,
                ..UNetConfig::quick(arch)
            })
        });
        let meta = CheckpointMeta::of(&c);
        let entries = vec![
            meta.entry(),
            meta.config.as_ref().unwrap().entry(),
            w.arch_config().unwrap().entry(),
        ];
        let err = split_meta(entries).unwrap_err().to_string();
        assert!(err.contains("more than one config entry"), "got {err}");
    }

    #[test]
    fn zoo_configs_round_trip_and_reject_mismatched_trunks() {
        use crate::zoo::{UNetConfig, UNetPredictor};
        let ccfg = UNetConfig {
            widths: vec![4, 8, 16],
            stem_kernel: 5,
            input_size: 16,
            seed: 0xAAAA_BBBB_CCCC_DDDD,
            ..UNetConfig::quick(ArchSpec::CfirstNet)
        };
        let wcfg = UNetConfig {
            widths: vec![4, 8, 16],
            channel_attention: Some(2),
            input_size: 16,
            seed: 0x1234_5678_9ABC_DEF0,
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        };

        let a = UNetPredictor::new(ccfg.clone());
        let path = tmp("cfirstnet_config.lmmt");
        save_predictor(&a, &path).unwrap();
        let meta = load_meta(&path)
            .unwrap()
            .expect("zoo checkpoints have meta");
        assert_eq!(meta.model, "CFIRSTNET");
        assert_eq!(meta.input_channels, 8);
        assert_eq!(meta.format_version(), 4, "fresh saves carry int8 scales");
        assert_eq!(meta.config, Some(ArchConfig::UNet(ccfg.clone())));
        // Weights restore into a model built from that config (fresh seed).
        let b = UNetPredictor::new(UNetConfig {
            seed: 1,
            ..ccfg.clone()
        });
        load_predictor(&b, &path).unwrap();
        // A different trunk plan is rejected by the config cross-check.
        let wrong = UNetPredictor::new(UNetConfig {
            widths: vec![4, 8],
            ..ccfg
        });
        let err = load_predictor(&wrong, &path).unwrap_err().to_string();
        assert!(err.contains("mismatch"), "got {err}");
        std::fs::remove_file(&path).ok();

        let a = UNetPredictor::new(wcfg.clone());
        let path = tmp("waca_config.lmmt");
        save_predictor(&a, &path).unwrap();
        let meta = load_meta(&path)
            .unwrap()
            .expect("zoo checkpoints have meta");
        assert_eq!(meta.model, "WACA-UNet");
        assert_eq!(meta.config, Some(ArchConfig::UNet(wcfg.clone())));
        let b = UNetPredictor::new(UNetConfig {
            seed: 2,
            ..wcfg.clone()
        });
        load_predictor(&b, &path).unwrap();
        // A different attention reduction changes the trunk; reject it.
        let wrong = UNetPredictor::new(UNetConfig {
            channel_attention: Some(1),
            ..wcfg
        });
        let err = load_predictor(&wrong, &path).unwrap_err().to_string();
        assert!(err.contains("configuration mismatch"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_zoo_entries_are_rejected() {
        let meta = |model: &str, channels: f32| {
            (
                format!("meta.{model}"),
                Tensor::from_vec(vec![channels, 16.0], &[2]).unwrap(),
            )
        };
        let payload = |entry: &str, v: Vec<f32>| {
            let len = v.len();
            (entry.to_string(), Tensor::from_vec(v, &[len]).unwrap())
        };
        // layout, in_channels, stem, size, seed×4, widths_len, widths…
        let cgood = vec![1.0, 8.0, 3.0, 16.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 8.0];
        let (m, _) = split_meta(vec![
            meta("CFIRSTNET", 8.0),
            payload("config.cfirstnet", cgood.clone()),
        ])
        .unwrap();
        assert!(matches!(
            m.unwrap().config,
            Some(ArchConfig::UNet(ref c))
                if c.arch == ArchSpec::CfirstNet && c.widths == vec![4, 8]
        ));
        // Too short.
        assert!(split_meta(vec![
            meta("CFIRSTNET", 8.0),
            payload("config.cfirstnet", vec![1.0; 4])
        ])
        .is_err());
        // Width plan lies about the payload length.
        let mut lying = cgood.clone();
        lying[8] = 9.0;
        assert!(split_meta(vec![
            meta("CFIRSTNET", 8.0),
            payload("config.cfirstnet", lying)
        ])
        .is_err());
        // Channel count disagreeing with the meta entry.
        assert!(split_meta(vec![
            meta("CFIRSTNET", 6.0),
            payload("config.cfirstnet", cgood.clone())
        ])
        .is_err());
        // Config on the wrong family's checkpoint.
        assert!(split_meta(vec![
            meta("WACA-UNet", 8.0),
            payload("config.cfirstnet", cgood.clone())
        ])
        .is_err());
        // Config failing its own validation (size not divisible by pools).
        let mut bad_size = cgood.clone();
        bad_size[3] = 17.0;
        assert!(split_meta(vec![
            meta("CFIRSTNET", 8.0),
            payload("config.cfirstnet", bad_size)
        ])
        .is_err());
        // Config without a meta entry.
        assert!(split_meta(vec![payload("config.cfirstnet", cgood)]).is_err());

        // layout, in_channels, stem, size, reduction, seed×4, widths_len, widths…
        let wgood = vec![1.0, 8.0, 3.0, 16.0, 2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 8.0];
        let (m, _) = split_meta(vec![
            meta("WACA-UNet", 8.0),
            payload("config.waca", wgood.clone()),
        ])
        .unwrap();
        assert!(matches!(
            m.unwrap().config,
            Some(ArchConfig::UNet(ref c))
                if c.arch == ArchSpec::WacaUnet && c.channel_attention == Some(2)
        ));
        // A zero reduction fails the config's own validation.
        let mut zero_red = wgood.clone();
        zero_red[4] = 0.0;
        assert!(split_meta(vec![
            meta("WACA-UNet", 8.0),
            payload("config.waca", zero_red)
        ])
        .is_err());
        // Fractional field.
        let mut frac = wgood;
        frac[10] = 4.5;
        assert!(split_meta(vec![meta("WACA-UNet", 8.0), payload("config.waca", frac)]).is_err());
    }
}
