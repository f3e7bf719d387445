//! The model registry: named checkpoints loaded into live predictors.
//!
//! Each model comes from `lmm_ir::load_predictor`, the one checkpoint
//! reader: it builds the architecture the file's own metadata and config
//! name and restores every parameter and buffer, so a served model is the
//! model that was saved. Files without metadata, or from a writer older
//! than checkpoint format v5, fail to load.
//!
//! The registry is `Send + Sync` (every predictor is): the inference lanes
//! share one behind an `RwLock`, forwards under its read lock. `/reload`
//! takes the write lock, re-reads every checkpoint path and swaps the
//! table only if *all* of them load, so a half-broken reload never takes
//! down serving.

use crate::ServeError;
use lmm_ir::{load_predictor, CheckpointMeta, IrPredictor};
use std::collections::HashMap;
use std::path::PathBuf;

/// One named checkpoint to serve.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Registry name clients address the model by.
    pub name: String,
    /// Checkpoint path on disk.
    pub path: PathBuf,
}

/// The set of models a server loads at startup (and re-reads on reload).
#[derive(Debug, Clone)]
pub struct RegistrySpec {
    /// Models to load.
    pub models: Vec<ModelSpec>,
    /// Name answering requests that leave the model field empty; defaults
    /// to the first listed model.
    pub default_model: Option<String>,
    /// Serve every model through the int8 path (the `--quantized` flag):
    /// after the state restores, each model is quantized in place
    /// (per-output-channel scales — the same ones the checkpoint records
    /// and the loader verifies; they are a pure function of the weights).
    pub quantized: bool,
}

impl RegistrySpec {
    /// Spec for a single model, which is also the default.
    #[must_use]
    pub fn single(name: impl Into<String>, path: impl Into<PathBuf>) -> Self {
        RegistrySpec {
            models: vec![ModelSpec {
                name: name.into(),
                path: path.into(),
            }],
            default_model: None,
            quantized: false,
        }
    }

    /// Same spec with the int8 serving path switched on.
    #[must_use]
    pub fn with_quantized(mut self, quantized: bool) -> Self {
        self.quantized = quantized;
        self
    }
}

/// A loaded model with its provenance.
pub struct LoadedModel {
    /// Architecture metadata from the checkpoint.
    pub meta: CheckpointMeta,
    /// The live predictor, weights restored.
    pub model: Box<dyn IrPredictor>,
    /// The checkpoint path it came from.
    pub path: PathBuf,
    /// How many layers run int8 (0 = plain f32 serving).
    pub quantized_layers: usize,
}

fn load_one(spec: &ModelSpec, quantized: bool) -> Result<LoadedModel, ServeError> {
    let describe = |e: &dyn std::fmt::Display| {
        ServeError::Registry(format!(
            "model '{}' ({}): {e}",
            spec.name,
            spec.path.display()
        ))
    };
    let (meta, model) = load_predictor(&spec.path).map_err(|e| describe(&e))?;
    let quantized_layers = if quantized {
        let layers = model.quantize();
        if layers == 0 {
            return Err(describe(
                &"quantized serving requested but the architecture has no \
                  quantizable layers",
            ));
        }
        layers
    } else {
        0
    };
    Ok(LoadedModel {
        meta,
        model,
        path: spec.path.clone(),
        quantized_layers,
    })
}

// What the lanes share across threads; an `Rc` anywhere inside a model
// fails the build here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModelRegistry>();
};

/// Named, loaded models plus the default route.
pub struct ModelRegistry {
    spec: RegistrySpec,
    entries: HashMap<String, LoadedModel>,
    default_name: String,
}

impl ModelRegistry {
    /// Loads every model in the spec; fails if any checkpoint is missing,
    /// malformed or metadata-less, or if the default name is unknown.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] describing the offending model.
    pub fn load(spec: RegistrySpec) -> Result<Self, ServeError> {
        if spec.models.is_empty() {
            return Err(ServeError::Registry(
                "registry spec lists no models".to_string(),
            ));
        }
        let mut entries = HashMap::new();
        for m in &spec.models {
            if entries
                .insert(m.name.clone(), load_one(m, spec.quantized)?)
                .is_some()
            {
                return Err(ServeError::Registry(format!(
                    "duplicate model name '{}'",
                    m.name
                )));
            }
        }
        let default_name = spec
            .default_model
            .clone()
            .unwrap_or_else(|| spec.models[0].name.clone());
        if !entries.contains_key(&default_name) {
            return Err(ServeError::Registry(format!(
                "default model '{default_name}' is not among the loaded models"
            )));
        }
        Ok(ModelRegistry {
            spec,
            entries,
            default_name,
        })
    }

    /// The registry key a request's model name resolves to (empty = the
    /// default), if loaded. Cache and dedup group on this canonical name so
    /// `""` and the default model's explicit name share entries.
    #[must_use]
    pub fn canonical_name<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        let key = if name.is_empty() {
            self.default_name.as_str()
        } else {
            name
        };
        self.entries.contains_key(key).then_some(key)
    }

    /// Resolves a request's model name (empty = the default).
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<&LoadedModel> {
        self.entries.get(self.canonical_name(name)?)
    }

    /// Re-reads every checkpoint from disk, swapping the live table only
    /// when all of them load successfully.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`]; the previous models keep serving.
    pub fn reload(&mut self) -> Result<usize, ServeError> {
        let fresh = ModelRegistry::load(self.spec.clone())?;
        self.entries = fresh.entries;
        self.default_name = fresh.default_name;
        Ok(self.entries.len())
    }

    /// Loaded model names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// `(name, quantized_layers)` per loaded model, sorted by name — the
    /// readiness detail `/healthz` exposes.
    #[must_use]
    pub fn summaries(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .entries
            .iter()
            .map(|(name, m)| (name.clone(), m.quantized_layers))
            .collect();
        out.sort();
        out
    }

    /// Number of loaded models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (never true for a loaded registry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_ir::{build_predictor, iredge, save_predictor, ArchConfig, Layer, LmmIr, LmmIrConfig};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lmmir_serve_registry");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn loads_and_resolves_by_name_and_default() {
        let model = iredge(16, 7);
        let path = tmp("reg_a.lmmt");
        save_predictor(&model, &path).unwrap();
        let reg = ModelRegistry::load(RegistrySpec::single("a", &path)).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["a".to_string()]);
        assert!(reg.resolve("a").is_some());
        assert!(reg.resolve("").is_some(), "empty name routes to default");
        assert!(reg.resolve("nope").is_none());
        assert_eq!(reg.resolve("").unwrap().meta.model, "IREDGe");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn instantiates_every_known_architecture() {
        for (name, channels) in [
            ("IREDGe", 3),
            ("1st Place", 6),
            ("2nd Place", 6),
            ("IRPnet", 1),
            ("LMM-IR", 6),
            ("DynIR", 4),
            ("CFIRSTNET", 8),
            ("WACA-UNet", 8),
        ] {
            let meta = CheckpointMeta {
                model: name.to_string(),
                input_channels: channels,
                input_size: 16,
                config: None,
                quant_scales: Default::default(),
            };
            let model = build_predictor(&meta).unwrap();
            assert_eq!(model.name(), name);
            assert_eq!(model.input_channels(), channels);
            assert_eq!(model.input_size(), 16);
        }
        // The table above must cover the whole enumeration — a registry
        // variant added to core shows up here or this test fails.
        assert_eq!(lmm_ir::ArchSpec::ALL.len(), 8);
    }

    #[test]
    fn instantiate_honours_full_lmmir_config() {
        use lmm_ir::LntConfig;
        // A non-quick() width/LNT plan, rebuilt only from its config record.
        let cfg = LmmIrConfig {
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
            seed: 99,
        };
        let reference = LmmIr::new(cfg.clone());
        let meta = CheckpointMeta {
            model: "LMM-IR".to_string(),
            input_channels: 6,
            input_size: 16,
            config: Some(ArchConfig::LmmIr(cfg)),
            quant_scales: Default::default(),
        };
        let built = build_predictor(&meta).unwrap();
        // Exact architecture: same parameter count and tensor shapes.
        let (rp, bp) = (reference.parameters(), built.parameters());
        assert_eq!(rp.len(), bp.len());
        for (a, b) in rp.iter().zip(&bp) {
            assert_eq!(a.value().dims(), b.value().dims());
        }
        // Without the record, the quick()-width default builds another model.
        let bare_meta = CheckpointMeta {
            config: None,
            ..meta
        };
        let fallback = build_predictor(&bare_meta).unwrap();
        assert_ne!(fallback.parameters().len(), rp.len());
    }

    #[test]
    fn full_config_checkpoint_round_trips_through_registry() {
        let cfg = LmmIrConfig {
            widths: vec![4, 8],
            input_size: 16,
            ..LmmIrConfig::quick()
        };
        let model = LmmIr::new(cfg.clone());
        let path = tmp("reg_v3.lmmt");
        save_predictor(&model, &path).unwrap();
        let reg = ModelRegistry::load(RegistrySpec::single("big", &path)).unwrap();
        let loaded = reg.resolve("big").unwrap();
        assert_eq!(loaded.meta.lmmir_config(), Some(&cfg));
        // The writer records int8 scales alongside the config.
        assert_eq!(
            loaded.meta.quant_scales,
            CheckpointMeta::of(&model).quant_scales
        );
        // Weights restored into the exact architecture bit-for-bit.
        let (orig, srv) = (model.parameters(), loaded.model.parameters());
        assert_eq!(orig.len(), srv.len());
        for (a, b) in orig.iter().zip(&srv) {
            assert_eq!(a.value().data(), b.value().data());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_registry_serves_int8_within_quantization_error() {
        use lmmir_tensor::{Tensor, Var};
        let model = iredge(16, 7);
        model.set_training(false);
        let path = tmp("reg_quant.lmmt");
        save_predictor(&model, &path).unwrap();
        let spec = RegistrySpec::single("a", &path).with_quantized(true);
        let reg = ModelRegistry::load(spec).unwrap();
        let loaded = reg.resolve("a").unwrap();
        assert!(loaded.quantized_layers > 0, "int8 path must be active");
        // The int8 predictions track the f32 model within quantization
        // error on a real forward pass.
        let x = Tensor::from_vec(
            (0..3 * 16 * 16).map(|i| (i % 7) as f32 * 0.1).collect(),
            &[1, 3, 16, 16],
        )
        .unwrap();
        let xv = Var::constant(x);
        let exact = model.forward(&xv, None).unwrap().to_tensor();
        // Eval mode, as `InferenceSession::new` sets at serve time; it must
        // keep the int8 state (only `set_training(true)` discards it).
        loaded.model.set_training(false);
        let quant = loaded.model.forward(&xv, None).unwrap().to_tensor();
        let worst = exact
            .data()
            .iter()
            .zip(quant.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let scale = exact.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(
            worst < 0.05 * scale,
            "int8 serving diverged by {worst} (output scale {scale})"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_checkpoint_round_trips_through_registry() {
        use lmm_ir::{DynamicIrConfig, DynamicIrPredictor};
        let cfg = DynamicIrConfig {
            windows: 3,
            widths: vec![4, 8],
            stem_kernel: 3,
            input_size: 16,
            seed: 21,
        };
        let model = DynamicIrPredictor::new(cfg.clone());
        let path = tmp("reg_dyn.lmmt");
        save_predictor(&model, &path).unwrap();
        let reg = ModelRegistry::load(RegistrySpec::single("dyn", &path)).unwrap();
        let loaded = reg.resolve("dyn").unwrap();
        assert_eq!(loaded.meta.model, "DynIR");
        assert_eq!(loaded.meta.dynamic_config(), Some(&cfg));
        assert_eq!(loaded.model.input_channels(), 3);
        // The recorded trunk plan rebuilds exactly: weights restore
        // bit-for-bit (a quick()-width fallback could not hold them).
        let (orig, srv) = (model.parameters(), loaded.model.parameters());
        assert_eq!(orig.len(), srv.len());
        for (a, b) in orig.iter().zip(&srv) {
            assert_eq!(a.value().data(), b.value().data());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zoo_checkpoints_rebuild_their_exact_architecture() {
        use lmm_ir::{ArchSpec, UNetConfig, UNetPredictor};
        // Non-quick() trunks: a fallback reconstruction could not hold the
        // weights, so a bitwise restore proves the recorded config was used.
        let ccfg = UNetConfig {
            widths: vec![4, 8, 16],
            stem_kernel: 5,
            input_size: 16,
            ..UNetConfig::quick(ArchSpec::CfirstNet)
        };
        let wcfg = UNetConfig {
            widths: vec![4, 8],
            channel_attention: Some(2),
            input_size: 16,
            ..UNetConfig::quick(ArchSpec::WacaUnet)
        };
        let cpath = tmp("reg_cfirst.lmmt");
        let wpath = tmp("reg_waca.lmmt");
        save_predictor(&UNetPredictor::new(ccfg.clone()), &cpath).unwrap();
        save_predictor(&UNetPredictor::new(wcfg.clone()), &wpath).unwrap();
        let reg = ModelRegistry::load(RegistrySpec {
            models: vec![
                ModelSpec {
                    name: "cfirst".to_string(),
                    path: cpath.clone(),
                },
                ModelSpec {
                    name: "waca".to_string(),
                    path: wpath.clone(),
                },
            ],
            default_model: None,
            quantized: false,
        })
        .unwrap();
        for (name, arch, reference) in [
            ("cfirst", "CFIRSTNET", UNetPredictor::new(ccfg)),
            ("waca", "WACA-UNet", UNetPredictor::new(wcfg)),
        ] {
            let loaded = reg.resolve(name).unwrap();
            assert_eq!(loaded.meta.model, arch);
            assert!(!loaded.meta.quant_scales.is_empty(), "{arch} int8 scales");
            let (orig, srv) = (reference.parameters(), loaded.model.parameters());
            assert_eq!(orig.len(), srv.len(), "{arch} parameter count");
            for (a, b) in orig.iter().zip(&srv) {
                assert_eq!(a.value().dims(), b.value().dims(), "{arch} shapes");
            }
        }
        std::fs::remove_file(&cpath).ok();
        std::fs::remove_file(&wpath).ok();
    }

    #[test]
    fn names_differing_only_in_case_do_not_shadow() {
        // Registry names are byte-exact: "a" and "A" are distinct models and
        // neither resolution nor canonicalization may collapse them.
        let pa = tmp("reg_case_lower.lmmt");
        let pb = tmp("reg_case_upper.lmmt");
        save_predictor(&iredge(16, 1), &pa).unwrap();
        save_predictor(&lmm_ir::irpnet(16, 2), &pb).unwrap();
        let reg = ModelRegistry::load(RegistrySpec {
            models: vec![
                ModelSpec {
                    name: "a".to_string(),
                    path: pa.clone(),
                },
                ModelSpec {
                    name: "A".to_string(),
                    path: pb.clone(),
                },
            ],
            default_model: Some("a".to_string()),
            quantized: false,
        })
        .unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.canonical_name("a"), Some("a"));
        assert_eq!(reg.canonical_name("A"), Some("A"));
        assert_eq!(reg.canonical_name(""), Some("a"), "default routes exactly");
        assert_eq!(reg.resolve("a").unwrap().meta.model, "IREDGe");
        assert_eq!(reg.resolve("A").unwrap().meta.model, "IRPnet");
        // An alias that matches neither byte-exactly stays unresolved rather
        // than case-folding onto one of them.
        assert!(reg.resolve("a ").is_none());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn rejects_unknown_architecture_and_channel_mismatch() {
        let meta = CheckpointMeta {
            model: "ResNet".to_string(),
            input_channels: 3,
            input_size: 16,
            config: None,
            quant_scales: Default::default(),
        };
        let err = build_predictor(&meta).map(|_| ()).unwrap_err().to_string();
        // The "known" list is derived from the enumeration, not maintained
        // by hand, so new variants appear in it automatically.
        assert!(err.contains("unknown architecture"), "got {err}");
        assert!(err.contains("WACA-UNet"), "got {err}");
        assert!(err.contains("CFIRSTNET"), "got {err}");
        let meta = CheckpointMeta {
            model: "IREDGe".to_string(),
            input_channels: 6,
            input_size: 16,
            config: None,
            quant_scales: Default::default(),
        };
        assert!(build_predictor(&meta).is_err());
    }

    #[test]
    fn rejects_metadata_less_checkpoint() {
        // Raw parameter entries without meta.
        let model = iredge(16, 7);
        let entries: Vec<(String, lmmir_tensor::Tensor)> = model
            .parameters()
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("param.{i}"), p.to_tensor()))
            .collect();
        let path = tmp("reg_legacy.lmmt");
        lmmir_tensor::io::save(&path, &entries).unwrap();
        let err = ModelRegistry::load(RegistrySpec::single("a", &path))
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("metadata"), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_default_and_duplicates() {
        let model = iredge(16, 7);
        let path = tmp("reg_dup.lmmt");
        save_predictor(&model, &path).unwrap();
        let mut spec = RegistrySpec::single("a", &path);
        spec.default_model = Some("zzz".to_string());
        assert!(ModelRegistry::load(spec).is_err());
        let spec = RegistrySpec {
            models: vec![
                ModelSpec {
                    name: "a".to_string(),
                    path: path.clone(),
                },
                ModelSpec {
                    name: "a".to_string(),
                    path: path.clone(),
                },
            ],
            default_model: None,
            quantized: false,
        };
        assert!(ModelRegistry::load(spec).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_keeps_serving_on_failure_and_swaps_on_success() {
        let path = tmp("reg_reload.lmmt");
        save_predictor(&iredge(16, 1), &path).unwrap();
        let mut reg = ModelRegistry::load(RegistrySpec::single("a", &path)).unwrap();
        // Break the file: reload fails, old model keeps serving.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(reg.reload().is_err());
        assert!(reg.resolve("a").is_some());
        // Fix the file with different weights: reload swaps.
        save_predictor(&iredge(16, 2), &path).unwrap();
        assert_eq!(reg.reload().unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }
}
