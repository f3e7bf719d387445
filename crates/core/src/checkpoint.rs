//! Saving and restoring trained predictors: checkpoint format v5, the
//! only one this reader accepts.
//!
//! A checkpoint is a tensor file (`lmmir_tensor::io`) of named entries, in
//! this order:
//!
//! * `meta.{model name}` — `[input channels, input size]`;
//! * `config.*` — the family's full configuration (an [`ArchConfig`]:
//!   widths, stem kernel, per-family extras, seed), for families that own
//!   an entry ([`ArchSpec::config_entry`]); baselines are fully determined
//!   by name, channels and size;
//! * `param.{i}` then `buffer.{i}` — the model's
//!   [`lmmir_nn::state_dict`]: every parameter and every buffer (the
//!   BatchNorm running statistics an eval forward normalises with), in walk
//!   order;
//! * `quant.{i}` — the int8 weight scales of every rank-2/rank-4
//!   `param.{i}`, computed by [`lmmir_tensor::quant::weight_scales`] — the
//!   function the layers use when they quantize — so the loader
//!   cross-checks each vector bitwise against its parameter and rejects a
//!   tampered or corrupted file.
//!
//! [`load_predictor`] reads a file once, builds the architecture its own
//! metadata and config name, and restores the state dict into it, so the
//! model it returns forwards bitwise like the model that was saved.
//!
//! Files from earlier writers (v1–v4) carry no `buffer.*` entry: their
//! running statistics were never written, and the model they describe
//! cannot be recovered from them. They are rejected with a message asking
//! for a re-save from the trained model.

use crate::arch::{build_predictor, ArchConfig, ArchSpec};
use crate::dynamic::DynamicIrConfig;
use crate::model::{IrPredictor, LmmIrConfig};
use lmmir_nn::{load_state_dict, state_dict};
use lmmir_tensor::quant::weight_scales;
use lmmir_tensor::{io, Result, Tensor, TensorError};
use std::collections::BTreeMap;
use std::path::Path;

/// Name prefix of the metadata entry; the model name rides in the entry
/// name itself (entry names are the only string-typed field in the format).
const META_PREFIX: &str = "meta.";

/// Name prefix of every family-specific full-config entry; the suffix is
/// owned by [`ArchSpec::config_entry`].
const CONFIG_PREFIX: &str = "config.";

/// Name prefix of the per-parameter int8 scale entries (`quant.{i}`
/// describes `param.{i}`).
const QUANT_PREFIX: &str = "quant.";

/// Architecture metadata stored alongside the model state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    /// Model name as reported by [`IrPredictor::name`].
    pub model: String,
    /// Input image channels the model expects.
    pub input_channels: usize,
    /// Square input size the model was configured for.
    pub input_size: usize,
    /// Full family-tagged configuration (`None` for baseline
    /// architectures, which are fully determined by name, channels and
    /// size).
    pub config: Option<ArchConfig>,
    /// Per-parameter int8 weight scales keyed by parameter index. Every
    /// rank-2/rank-4 parameter has an entry.
    pub quant_scales: BTreeMap<usize, Vec<f32>>,
}

impl CheckpointMeta {
    /// Reads the metadata off a live model, including the int8 scales of
    /// every quantizable parameter.
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
type NamedTensor = (String, Tensor);

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

/// Splits loaded entries into the metadata and the state dict (order
/// preserved). The `config.*` entry is decoded by the family that owns the
/// entry name ([`ArchSpec::for_config_entry`]), folded into
/// [`CheckpointMeta::config`] and cross-checked against the meta entry;
/// `quant.{i}` entries are folded into [`CheckpointMeta::quant_scales`]
/// and cross-checked **bitwise** against a recomputation from the
/// `param.{i}` tensor they describe.
///
/// # Errors
///
/// Returns [`TensorError::Io`] for a missing, malformed, unknown or
/// duplicated meta/config/quant entry, a config that disagrees with the
/// meta's architecture name, channel count or input size, or a quant entry
/// whose scales disagree with its parameter.
fn split_meta(entries: Vec<NamedTensor>) -> Result<(CheckpointMeta, Vec<NamedTensor>)> {
    let mut meta: Option<CheckpointMeta> = None;
    let mut config: Option<ArchConfig> = None;
    let mut quant: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
    let mut state = Vec::with_capacity(entries.len());
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
            state.push((name, t));
        }
    }
    let Some(mut meta) = meta else {
        return Err(TensorError::Io(
            "checkpoint has no meta entry: it carries no architecture metadata, \
             so no model can be built for it"
                .to_string(),
        ));
    };
    // Stored scales must match a bitwise recomputation from the very
    // parameter tensors in this file: `weight_scales` is the one function
    // both the writer and the quantizing layers use, so any disagreement
    // means corruption or tampering.
    for (index, scales) in &quant {
        let param_name = format!("param.{index}");
        let Some((_, p)) = state.iter().find(|(n, _)| *n == param_name) else {
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
    if let Some(cfg) = config {
        let entry = cfg.entry_name();
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
    meta.quant_scales = quant;
    Ok((meta, state))
}

/// Serializes a predictor: metadata, the full family configuration (for
/// families that own one), the [`state_dict`] — every parameter, then
/// every buffer — and the int8 weight scales of every quantizable
/// parameter.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem failure.
pub fn save_predictor(model: &dyn IrPredictor, path: impl AsRef<Path>) -> Result<()> {
    let meta = CheckpointMeta::of(model);
    let mut entries = vec![meta.entry()];
    entries.extend(meta.config.as_ref().map(ArchConfig::entry));
    entries.extend(state_dict(model));
    entries.extend(meta.quant_scales.iter().map(|(i, scales)| {
        let len = scales.len();
        (
            format!("{QUANT_PREFIX}{i}"),
            Tensor::from_vec(scales.clone(), &[len]).expect("scales are rank 1"),
        )
    }));
    io::save(path, &entries)
}

/// Loads a checkpoint: reads the file once, builds the architecture its
/// metadata names (from its recorded config, when the family has one) and
/// restores the full state dict into it. The returned model forwards
/// bitwise like the model [`save_predictor`] was given, in train and eval
/// mode.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the file cannot be read, its metadata
/// is missing, malformed or names an architecture that cannot be built,
/// the file predates format v5 (no `buffer.*` entry), or the state dict
/// does not fit the built model; and [`TensorError::ShapeMismatch`] when a
/// tensor's shape disagrees with it.
pub fn load_predictor(path: impl AsRef<Path>) -> Result<(CheckpointMeta, Box<dyn IrPredictor>)> {
    let (meta, state) = split_meta(io::load(path)?)?;
    let model = build_predictor(&meta).map_err(TensorError::Io)?;
    if !model.buffers().is_empty() && !state.iter().any(|(n, _)| n.starts_with("buffer.")) {
        return Err(TensorError::Io(
            "checkpoint predates format v5: it holds no 'buffer.*' entries, so \
             the BatchNorm running statistics were never written; re-save it \
             from the trained model with the current `save_predictor`"
                .to_string(),
        ));
    }
    load_state_dict(model.as_ref(), &state)?;
    Ok((meta, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{iredge, irpnet};
    use crate::lnt::LntConfig;
    use crate::model::{IrPredictor, LmmIr};
    use lmmir_nn::Layer;
    use lmmir_tensor::{Tensor, Var};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lmmir_core_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Saves `model`, rewrites the file's entries through `edit`, and
    /// returns the loader's error — the edited file must not load.
    fn rejection(
        model: &dyn IrPredictor,
        name: &str,
        edit: impl FnOnce(&mut Vec<NamedTensor>),
    ) -> String {
        let path = tmp(name);
        save_predictor(model, &path).unwrap();
        let mut entries = io::load(&path).unwrap();
        edit(&mut entries);
        io::save(&path, &entries).unwrap();
        let loaded = load_predictor(&path);
        std::fs::remove_file(&path).ok();
        match loaded {
            Ok(_) => panic!("{name}: the edited checkpoint loaded"),
            Err(e) => e.to_string(),
        }
    }

    /// An edit that re-encodes the file's `config.*` entry after `change`.
    fn edit_config(change: impl FnOnce(&mut ArchConfig)) -> impl FnOnce(&mut Vec<NamedTensor>) {
        move |entries| {
            let entry = entries
                .iter_mut()
                .find(|(n, _)| n.starts_with(CONFIG_PREFIX))
                .expect("a config entry");
            let arch = ArchSpec::for_config_entry(&entry.0).unwrap();
            let mut cfg = ArchConfig::decode(arch, &entry.1).unwrap();
            change(&mut cfg);
            *entry = cfg.entry();
        }
    }

    /// The loaded model's parameters are bitwise the saved model's.
    fn assert_same_parameters(a: &dyn IrPredictor, b: &dyn IrPredictor) {
        let (pa, pb) = (a.parameters(), b.parameters());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.value().data(), y.value().data());
        }
    }

    #[test]
    fn save_load_round_trip() {
        let a = iredge(16, 1);
        let path = tmp("iredge.lmmt");
        save_predictor(&a, &path).unwrap();
        let (_, b) = load_predictor(&path).unwrap();
        let x = Var::constant(Tensor::ones(&[1, 3, 16, 16]));
        a.set_training(false);
        b.set_training(false);
        let ya = a.forward(&x, None).unwrap().to_tensor();
        let yb = b.forward(&x, None).unwrap().to_tensor();
        assert_eq!(ya.data(), yb.data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_architecture_by_name() {
        // A meta entry naming another family than the state was saved from.
        let err = rejection(&iredge(16, 1), "mismatch.lmmt", |entries| {
            entries[0].0 = "meta.IRPnet".to_string();
        });
        assert!(err.contains("IRPnet"), "got {err}");
    }

    #[test]
    fn load_rejects_same_model_different_input_size() {
        // Same family and parameter shapes, only the recorded input size
        // edited: the config / meta cross-check catches it where shape
        // validation could not.
        let err = rejection(&LmmIr::new(custom_lmmir_cfg()), "sizes.lmmt", |entries| {
            entries[0].1 = Tensor::from_vec(vec![6.0, 32.0], &[2]).unwrap();
        });
        assert!(err.contains("16 px"), "got {err}");
    }

    #[test]
    fn meta_round_trips_through_file() {
        let a = iredge(16, 1);
        let path = tmp("meta.lmmt");
        save_predictor(&a, &path).unwrap();
        let (meta, _) = load_predictor(&path).unwrap();
        assert_eq!(meta, CheckpointMeta::of(&a));
        assert_eq!(meta.model, "IREDGe");
        assert_eq!(meta.input_channels, 3);
        assert_eq!(meta.input_size, 16);
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
        assert!(load_predictor(tmp("does_not_exist.lmmt")).is_err());
    }

    fn custom_lmmir_cfg() -> LmmIrConfig {
        // Deliberately NOT the quick() widths/LNT plan: this is the exact
        // case only the config record can rebuild.
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
        let cfg = custom_lmmir_cfg();
        let a = LmmIr::new(cfg.clone());
        let path = tmp("v3_config.lmmt");
        save_predictor(&a, &path).unwrap();
        let (meta, b) = load_predictor(&path).unwrap();
        assert_eq!(meta.lmmir_config(), Some(&cfg), "config must survive");
        assert_eq!(meta.lmmir_config().unwrap().seed, 0xDEAD_BEEF_CAFE_F00D);
        assert!(!meta.quant_scales.is_empty(), "saves carry int8 scales");
        // And the weights restore into the model built from that config.
        assert_same_parameters(&a, b.as_ref());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_rejects_config_width_mismatch() {
        // A config whose width plan no longer matches the stored state.
        let edit = edit_config(|cfg| {
            if let ArchConfig::LmmIr(c) = cfg {
                c.widths = vec![4, 8, 12];
            }
        });
        let err = rejection(&LmmIr::new(custom_lmmir_cfg()), "v3_mismatch.lmmt", edit);
        assert!(err.contains("load_state_dict"), "got {err}");
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
        let (meta, _) = load_predictor(&path).unwrap();
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
        use crate::dynamic::DynamicIrPredictor;
        let cfg = custom_dynamic_cfg();
        let a = DynamicIrPredictor::new(cfg.clone());
        let path = tmp("dynamic_config.lmmt");
        save_predictor(&a, &path).unwrap();
        let (meta, b) = load_predictor(&path).unwrap();
        assert_eq!(meta.model, "DynIR");
        assert_eq!(meta.input_channels, 5, "channels record the window count");
        assert!(!meta.quant_scales.is_empty(), "saves carry int8 scales");
        assert_eq!(meta.dynamic_config(), Some(&cfg), "config must survive");
        assert_eq!(meta.dynamic_config().unwrap().seed, 0xFEED_FACE_BEEF_1234);
        assert!(meta.lmmir_config().is_none(), "no LMM-IR config here");
        assert_same_parameters(&a, b.as_ref());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_rejects_trunk_mismatch() {
        use crate::dynamic::DynamicIrPredictor;
        let edit = edit_config(|cfg| {
            if let ArchConfig::Dynamic(c) = cfg {
                c.widths = vec![4, 8];
            }
        });
        let model = DynamicIrPredictor::new(custom_dynamic_cfg());
        let err = rejection(&model, "dynamic_mismatch.lmmt", edit);
        assert!(err.contains("state dict has"), "got {err}");
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
        assert!(params.is_empty());
        assert!(meta_out.quant_scales.is_empty());
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
        for (cfg, name, channels) in [(ccfg, "CFIRSTNET", 8), (wcfg, "WACA-UNet", 8)] {
            let a = UNetPredictor::new(cfg.clone());
            let path = tmp(&format!("{name}_config.lmmt"));
            save_predictor(&a, &path).unwrap();
            let (meta, b) = load_predictor(&path).unwrap();
            assert_eq!(meta.model, name);
            assert_eq!(meta.input_channels, channels);
            assert!(!meta.quant_scales.is_empty(), "saves carry int8 scales");
            assert_eq!(meta.config, Some(ArchConfig::UNet(cfg)));
            assert_same_parameters(&a, b.as_ref());
            std::fs::remove_file(&path).ok();
            // A config edited to another trunk plan no longer fits the state.
            let edit = edit_config(|cfg| {
                if let ArchConfig::UNet(c) = cfg {
                    c.widths = vec![4, 8];
                }
            });
            rejection(&a, &format!("{name}_mismatch.lmmt"), edit);
        }
        // A different attention reduction changes the trunk; reject it.
        let edit = edit_config(|cfg| {
            if let ArchConfig::UNet(c) = cfg {
                c.channel_attention = Some(1);
            }
        });
        let waca = UNetPredictor::new(UNetConfig {
            widths: vec![4, 8, 16],
            channel_attention: Some(2),
            input_size: 16,
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        });
        let err = rejection(&waca, "waca_reduction.lmmt", edit);
        assert!(err.contains("load_state_dict"), "got {err}");
    }

    /// Hostile `buffer.*` entries: each fails to load, none panics.
    #[test]
    fn hostile_buffer_entries_are_rejected() {
        let model = iredge(16, 1);
        let buffers = model.buffers().len();
        assert!(buffers >= 2, "IREDGe normalises");
        let at = |entries: &[NamedTensor], name: &str| {
            entries.iter().position(|(n, _)| n == name).unwrap()
        };
        let last = format!("buffer.{}", buffers - 1);
        let err = rejection(&model, "buffer_shape.lmmt", |e| {
            let i = at(e, "buffer.0");
            e[i].1 = Tensor::zeros(&[2, 2]);
        });
        assert!(err.contains("load_state_dict"), "wrong shape: {err}");
        let err = rejection(&model, "buffer_too_few.lmmt", |e| {
            e.remove(at(e, &last));
        });
        assert!(err.contains("state dict has"), "one too few: {err}");
        let err = rejection(&model, "buffer_too_many.lmmt", |e| {
            let i = at(e, &last);
            let extra = (format!("buffer.{buffers}"), e[i].1.clone());
            e.insert(i + 1, extra);
        });
        assert!(err.contains("state dict has"), "one too many: {err}");
        let err = rejection(&model, "buffer_duplicate.lmmt", |e| {
            let i = at(e, "buffer.1");
            e[i].0 = "buffer.0".to_string();
        });
        assert!(err.contains("'buffer.1' belongs"), "duplicate: {err}");
        let err = rejection(&model, "buffer_gap.lmmt", |e| {
            let i = at(e, &last);
            e[i].0 = format!("buffer.{buffers}");
        });
        assert!(err.contains(&format!("'{last}' belongs")), "gap: {err}");
        let err = rejection(&model, "buffer_headless.lmmt", |e| {
            e.retain(|(n, _)| !n.starts_with(META_PREFIX));
        });
        assert!(err.contains("no meta entry"), "no meta: {err}");
    }

    /// Saves today's file, drops the entries an older writer never wrote
    /// and checks the load fails with the re-save hint.
    fn assert_pre_v5_layout_rejected(version: &str, dropped: &[&str]) {
        let lmmir = LmmIr::new(custom_lmmir_cfg());
        let err = rejection(&lmmir, &format!("{version}_layout.lmmt"), |e| {
            e.retain(|(n, _)| !dropped.iter().any(|p| n.starts_with(p)));
        });
        assert!(
            err.contains("running statistics were never written")
                && err.contains("re-save it from the trained model"),
            "{version}: {err}"
        );
    }

    /// The v4 writer produced today's file without its buffers.
    #[test]
    fn v4_layout_checkpoint_is_rejected() {
        assert_pre_v5_layout_rejected("v4", &["buffer."]);
    }

    /// v3 also lacked the quant entries.
    #[test]
    fn v3_layout_checkpoint_is_rejected() {
        assert_pre_v5_layout_rejected("v3", &["buffer.", QUANT_PREFIX]);
    }

    /// v2 also lacked the config (the LMM-IR build would fall back to
    /// `quick()` widths without it).
    #[test]
    fn v2_layout_checkpoint_is_rejected() {
        assert_pre_v5_layout_rejected("v2", &["buffer.", QUANT_PREFIX, CONFIG_PREFIX]);
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
            m.config,
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
            m.config,
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
