//! The unified architecture layer: one descriptor per model family.
//!
//! [`ArchSpec`] is the single authority on every model family in the
//! reproduction: canonical name, feature-set requirement, checkpoint
//! `config.*` entry and construction from checkpoint metadata. The serving
//! registry, the checkpoint reader/writer and the benchmark harness all
//! dispatch through it, so adding a model family is one enum variant here
//! instead of parallel string matches across four crates.
//!
//! [`ArchConfig`] is the family-tagged configuration a checkpoint can
//! carry. It owns the `config.*` entry (de)serialization that used to live
//! in the checkpoint module: each variant encodes to exactly one entry name
//! and payload layout, and decoding validates hostile payloads field by
//! field before any model is built.

use crate::baselines::irpnet;
use crate::checkpoint::CheckpointMeta;
use crate::dynamic::{DynamicIrConfig, DynamicIrPredictor};
use crate::lnt::LntConfig;
use crate::model::{IrPredictor, LmmIr, LmmIrConfig};
use crate::zoo::{UNetConfig, UNetPredictor};
use lmmir_tensor::{Result, Tensor, TensorError};

/// Layout version of every `config.*` payload (independent of the
/// checkpoint format version, so payloads can evolve without touching the
/// meta entry).
const CONFIG_LAYOUT: u32 = 1;

/// Hard cap on a serialized width-plan length — far above any realistic
/// encoder (the paper uses 5 stages), but bounds a hostile payload.
const MAX_WIDTHS: usize = 64;

/// The image feature stack a model family consumes.
///
/// This is the registry-level contract between a model and the feature
/// extraction layer: the inference path dispatches on it (via
/// [`FeatureSet::for_channels`]) instead of hard-coding channel counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// The current map alone (IRPnet's physics-window input); 1 channel,
    /// no netlist needed.
    CurrentOnly,
    /// The basic 3-channel stack (current, effective distance, density).
    Basic,
    /// The extended 6-channel stack (basic + voltage-source,
    /// current-source, resistance maps).
    Extended,
    /// The comprehensive 8-channel stack (extended + effective-resistance
    /// and pad-distance maps; CFIRSTNET, arXiv:2502.12168).
    Comprehensive,
    /// Per-time-window power maps (dynamic models); the channel count is
    /// the window count, not a fixed stack size.
    Windows,
}

impl FeatureSet {
    /// The fixed channel count of a static stack; `None` for
    /// [`FeatureSet::Windows`], whose width is configuration-dependent.
    #[must_use]
    pub fn channels(self) -> Option<usize> {
        match self {
            FeatureSet::CurrentOnly => Some(1),
            FeatureSet::Basic => Some(3),
            FeatureSet::Extended => Some(6),
            FeatureSet::Comprehensive => Some(8),
            FeatureSet::Windows => None,
        }
    }

    /// The static stack with exactly `channels` channels, if any. Window
    /// stacks are never returned — their channel count is a window count,
    /// and the dynamic path is selected by `InputSpec::windows` instead.
    #[must_use]
    pub fn for_channels(channels: usize) -> Option<FeatureSet> {
        [
            FeatureSet::CurrentOnly,
            FeatureSet::Basic,
            FeatureSet::Extended,
            FeatureSet::Comprehensive,
        ]
        .into_iter()
        .find(|s| s.channels() == Some(channels))
    }

    /// Whether building this stack requires the netlist (everything beyond
    /// the bare current map does).
    #[must_use]
    pub fn needs_netlist(self) -> bool {
        matches!(
            self,
            FeatureSet::Basic | FeatureSet::Extended | FeatureSet::Comprehensive
        )
    }
}

/// One model family, as named in checkpoints and the serving registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchSpec {
    /// IREDGe (Chhabria et al., ASP-DAC 2021): plain U-Net, basic stack.
    Iredge,
    /// ICCAD-2023 contest 1st-place style: wide gated U-Net, extended stack.
    FirstPlace,
    /// ICCAD-2023 contest 2nd-place style: light U-Net, extended stack.
    SecondPlace,
    /// IRPnet (Meng et al., DATE 2024): physics-window CNN, current map only.
    IrpNet,
    /// LMM-IR (the paper's model): multimodal U-Net + netlist transformer.
    LmmIr,
    /// The dynamic (PowerNet-style) family: shared trunk, max over windows.
    DynIr,
    /// CFIRSTNET-style variant (arXiv:2502.12168): plain U-Net over the
    /// comprehensive 8-channel stack.
    CfirstNet,
    /// WACA-UNet variant (arXiv:2507.19197): comprehensive-stack U-Net with
    /// weak-aware channel attention on every skip connection.
    WacaUnet,
}

impl ArchSpec {
    /// Every known family, in registry display order.
    pub const ALL: [ArchSpec; 8] = [
        ArchSpec::Iredge,
        ArchSpec::FirstPlace,
        ArchSpec::SecondPlace,
        ArchSpec::IrpNet,
        ArchSpec::LmmIr,
        ArchSpec::DynIr,
        ArchSpec::CfirstNet,
        ArchSpec::WacaUnet,
    ];

    /// Canonical name, as stored in checkpoint metadata and printed in the
    /// paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArchSpec::Iredge => "IREDGe",
            ArchSpec::FirstPlace => "1st Place",
            ArchSpec::SecondPlace => "2nd Place",
            ArchSpec::IrpNet => "IRPnet",
            ArchSpec::LmmIr => "LMM-IR",
            ArchSpec::DynIr => "DynIR",
            ArchSpec::CfirstNet => "CFIRSTNET",
            ArchSpec::WacaUnet => "WACA-UNet",
        }
    }

    /// Resolves a canonical name (exact match — names are identities, so
    /// `"iredge"` is *not* `"IREDGe"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ArchSpec> {
        ArchSpec::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Every known name, comma-joined — the single source for "unknown
    /// architecture" error messages, so they can never drift from the enum.
    #[must_use]
    pub fn known_names() -> String {
        ArchSpec::ALL.map(ArchSpec::name).join(", ")
    }

    /// The feature stack this family consumes.
    #[must_use]
    pub fn features(self) -> FeatureSet {
        match self {
            ArchSpec::Iredge => FeatureSet::Basic,
            ArchSpec::FirstPlace | ArchSpec::SecondPlace | ArchSpec::LmmIr => FeatureSet::Extended,
            ArchSpec::IrpNet => FeatureSet::CurrentOnly,
            ArchSpec::DynIr => FeatureSet::Windows,
            ArchSpec::CfirstNet | ArchSpec::WacaUnet => FeatureSet::Comprehensive,
        }
    }

    /// The input channel count of the family's default (`quick()`-preset)
    /// configuration. For static families this equals the feature stack
    /// size; for the dynamic family it is the default window count.
    #[must_use]
    pub fn default_input_channels(self) -> usize {
        match self {
            ArchSpec::DynIr => DynamicIrConfig::quick().windows,
            other => other
                .features()
                .channels()
                .expect("static families have a fixed stack"),
        }
    }

    /// The checkpoint `config.*` entry name this family serializes its full
    /// configuration into; `None` for families fully determined by name,
    /// channel count and input size.
    #[must_use]
    pub fn config_entry(self) -> Option<&'static str> {
        match self {
            ArchSpec::LmmIr => Some("config.lmmir"),
            ArchSpec::DynIr => Some("config.dynamic"),
            ArchSpec::CfirstNet => Some("config.cfirstnet"),
            ArchSpec::WacaUnet => Some("config.waca"),
            _ => None,
        }
    }

    /// The family owning a `config.*` entry name, if any.
    #[must_use]
    pub fn for_config_entry(entry: &str) -> Option<ArchSpec> {
        ArchSpec::ALL
            .into_iter()
            .find(|a| a.config_entry() == Some(entry))
    }

    /// Constructs the family at the metadata's recorded input size (a
    /// checkpoint load then overwrites every parameter and buffer, so the
    /// seed is irrelevant).
    ///
    /// Metadata carrying a full config rebuilds from **exactly** that
    /// config; without one, the family's `quick()` preset is built with the
    /// size (and, for the dynamic family, the window count) overridden —
    /// the default build of a family, and what every baseline is.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the configuration is invalid
    /// at this size or the constructed model contradicts the metadata's
    /// channel count.
    pub fn build(self, meta: &CheckpointMeta) -> std::result::Result<Box<dyn IrPredictor>, String> {
        let size = meta.input_size;
        let invalid = |e: String| format!("cannot build {} at {size} px: {e}", self.name());
        let model: Box<dyn IrPredictor> = match self {
            ArchSpec::IrpNet => Box::new(irpnet(size, 0)),
            ArchSpec::LmmIr => {
                let cfg = match &meta.config {
                    Some(ArchConfig::LmmIr(cfg)) => cfg.clone(),
                    _ => LmmIrConfig {
                        input_size: size,
                        ..LmmIrConfig::quick()
                    },
                };
                cfg.validate().map_err(invalid)?;
                Box::new(LmmIr::new(cfg))
            }
            ArchSpec::DynIr => {
                // Without a recorded trunk plan, the window count is pinned
                // by the channel metadata and the trunk falls back to the
                // quick() plan.
                let cfg = match &meta.config {
                    Some(ArchConfig::Dynamic(cfg)) => cfg.clone(),
                    _ => DynamicIrConfig {
                        windows: meta.input_channels,
                        input_size: size,
                        ..DynamicIrConfig::quick()
                    },
                };
                cfg.validate().map_err(invalid)?;
                Box::new(DynamicIrPredictor::new(cfg))
            }
            ArchSpec::Iredge
            | ArchSpec::FirstPlace
            | ArchSpec::SecondPlace
            | ArchSpec::CfirstNet
            | ArchSpec::WacaUnet => {
                let cfg = match &meta.config {
                    Some(ArchConfig::UNet(cfg)) if cfg.arch == self => cfg.clone(),
                    _ => UNetConfig {
                        input_size: size,
                        ..UNetConfig::quick(self)
                    },
                };
                cfg.validate().map_err(invalid)?;
                Box::new(UNetPredictor::new(cfg))
            }
        };
        if model.input_channels() != meta.input_channels {
            return Err(format!(
                "architecture '{}' consumes {} channels but the checkpoint \
                 metadata claims {}",
                self.name(),
                model.input_channels(),
                meta.input_channels
            ));
        }
        Ok(model)
    }
}

/// Constructs the architecture a checkpoint's metadata names — the one
/// instantiation path shared by offline loading, the serving registry and
/// the CLI tools.
///
/// # Errors
///
/// Returns a human-readable message for an unknown architecture name
/// (listing every known family, derived from [`ArchSpec::ALL`]) or a
/// configuration the family cannot be built from.
pub fn build_predictor(meta: &CheckpointMeta) -> std::result::Result<Box<dyn IrPredictor>, String> {
    let arch = ArchSpec::from_name(&meta.model).ok_or_else(|| {
        format!(
            "checkpoint names unknown architecture '{}' (known: {})",
            meta.model,
            ArchSpec::known_names()
        )
    })?;
    arch.build(meta)
}

/// A family-tagged full model configuration, as carried by checkpoint
/// metadata and reported by [`IrPredictor::arch_config`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArchConfig {
    /// Full LMM-IR configuration (`config.lmmir`).
    LmmIr(LmmIrConfig),
    /// Dynamic-family configuration (`config.dynamic`).
    Dynamic(DynamicIrConfig),
    /// U-Net family configuration (`config.cfirstnet` / `config.waca`; the
    /// baseline presets own no entry and report no configuration).
    UNet(UNetConfig),
}

/// Appends the 64-bit seed as four exact 16-bit chunks (every payload field
/// must be an exact small integer in `f32`).
fn push_seed(payload: &mut Vec<f32>, seed: u64) {
    for i in 0..4 {
        payload.push(((seed >> (16 * i)) & 0xFFFF) as f32);
    }
}

/// Shared prelude validation of a `config.*` payload: rank 1, a minimum
/// length, small non-negative exact integers throughout, and a known
/// leading layout version.
fn decode_prelude<'t>(entry: &str, t: &'t Tensor, min_len: usize) -> Result<&'t [f32]> {
    let bad = |why: &str| TensorError::Io(format!("malformed '{entry}' entry: {why}"));
    let data = t.data();
    if t.dims().len() != 1 || data.len() < min_len {
        return Err(bad("payload too short"));
    }
    if data
        .iter()
        .any(|v| *v < 0.0 || v.fract() != 0.0 || *v > (1 << 24) as f32)
    {
        return Err(bad("fields must be small non-negative integers"));
    }
    if data[0] as usize != CONFIG_LAYOUT as usize {
        return Err(bad(&format!(
            "unknown config layout {} (this reader knows {CONFIG_LAYOUT})",
            data[0] as usize
        )));
    }
    Ok(data)
}

/// Reassembles the seed from four 16-bit chunks at `start`.
fn decode_seed(entry: &str, data: &[f32], start: usize) -> Result<u64> {
    let mut seed = 0u64;
    for i in 0..4 {
        let chunk = data[start + i] as usize;
        if chunk > 0xFFFF {
            return Err(TensorError::Io(format!(
                "malformed '{entry}' entry: seed chunk exceeds 16 bits"
            )));
        }
        seed |= (chunk as u64) << (16 * i);
    }
    Ok(seed)
}

/// Decodes the width plan whose length field sits at `len_at`, demanding the
/// payload length account for every width exactly.
fn decode_widths(entry: &str, data: &[f32], len_at: usize) -> Result<Vec<usize>> {
    let bad = |why: String| TensorError::Io(format!("malformed '{entry}' entry: {why}"));
    let widths_len = data[len_at] as usize;
    if widths_len == 0 || widths_len > MAX_WIDTHS {
        return Err(bad(format!(
            "width plan of {widths_len} (cap {MAX_WIDTHS})"
        )));
    }
    if data.len() != len_at + 1 + widths_len {
        return Err(bad(format!(
            "payload holds {} values but the width plan wants {}",
            data.len(),
            len_at + 1 + widths_len
        )));
    }
    Ok((0..widths_len)
        .map(|i| data[len_at + 1 + i] as usize)
        .collect())
}

impl ArchConfig {
    /// The family this configuration belongs to.
    #[must_use]
    pub fn arch(&self) -> ArchSpec {
        match self {
            ArchConfig::LmmIr(_) => ArchSpec::LmmIr,
            ArchConfig::Dynamic(_) => ArchSpec::DynIr,
            ArchConfig::UNet(c) => c.arch,
        }
    }

    /// The checkpoint entry name this configuration serializes into.
    #[must_use]
    pub fn entry_name(&self) -> &'static str {
        self.arch()
            .config_entry()
            .expect("only families with a config entry report an ArchConfig")
    }

    /// The input channel count this configuration implies (the window count
    /// for the dynamic family).
    #[must_use]
    pub fn input_channels(&self) -> usize {
        match self {
            ArchConfig::LmmIr(c) => c.in_channels,
            ArchConfig::Dynamic(c) => c.windows,
            ArchConfig::UNet(c) => c.in_channels,
        }
    }

    /// The square input size this configuration implies.
    #[must_use]
    pub fn input_size(&self) -> usize {
        match self {
            ArchConfig::LmmIr(c) => c.input_size,
            ArchConfig::Dynamic(c) => c.input_size,
            ArchConfig::UNet(c) => c.input_size,
        }
    }

    /// Validates the wrapped configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> std::result::Result<(), String> {
        match self {
            ArchConfig::LmmIr(c) => c.validate(),
            ArchConfig::Dynamic(c) => c.validate(),
            ArchConfig::UNet(c) => c.validate(),
        }
    }

    /// Serializes into the family's `config.*` checkpoint entry.
    ///
    /// Every field is an exact integer in `f32` (all ≪ 2²⁴) except the
    /// 64-bit seed, which rides as four 16-bit chunks. Payloads lead with a
    /// layout version so they can evolve independently of the checkpoint
    /// format.
    #[must_use]
    pub fn entry(&self) -> (String, Tensor) {
        let mut payload = vec![CONFIG_LAYOUT as f32];
        match self {
            ArchConfig::LmmIr(cfg) => {
                payload.extend([
                    cfg.in_channels as f32,
                    cfg.stem_kernel as f32,
                    cfg.input_size as f32,
                    f32::from(u8::from(cfg.use_lnt)),
                    f32::from(u8::from(cfg.use_attention_gates)),
                ]);
                push_seed(&mut payload, cfg.seed);
                payload.extend([
                    cfg.lnt.d_model as f32,
                    cfg.lnt.heads as f32,
                    cfg.lnt.layers as f32,
                    cfg.lnt.max_points as f32,
                    cfg.lnt.chunk as f32,
                    cfg.lnt.ff_mult as f32,
                    cfg.widths.len() as f32,
                ]);
                payload.extend(cfg.widths.iter().map(|&w| w as f32));
            }
            ArchConfig::Dynamic(cfg) => {
                payload.extend([
                    cfg.windows as f32,
                    cfg.stem_kernel as f32,
                    cfg.input_size as f32,
                ]);
                push_seed(&mut payload, cfg.seed);
                payload.push(cfg.widths.len() as f32);
                payload.extend(cfg.widths.iter().map(|&w| w as f32));
            }
            // `config.waca` carries the reduction ratio after the size;
            // `config.cfirstnet` has no such field.
            ArchConfig::UNet(cfg) => {
                payload.extend([
                    cfg.in_channels as f32,
                    cfg.stem_kernel as f32,
                    cfg.input_size as f32,
                ]);
                payload.extend(cfg.channel_attention.map(|r| r as f32));
                push_seed(&mut payload, cfg.seed);
                payload.push(cfg.widths.len() as f32);
                payload.extend(cfg.widths.iter().map(|&w| w as f32));
            }
        }
        let len = payload.len();
        (
            self.entry_name().to_string(),
            Tensor::from_vec(payload, &[len]).expect("config payload is rank 1"),
        )
    }

    /// Parses a `config.*` entry previously written by [`ArchConfig::entry`]
    /// for the given family, rejecting malformed or hostile payloads and
    /// configurations that fail their own [`ArchConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Io`] describing the malformed field.
    pub fn decode(arch: ArchSpec, t: &Tensor) -> Result<ArchConfig> {
        let entry = arch.config_entry().ok_or_else(|| {
            TensorError::Io(format!(
                "architecture '{}' carries no config entry",
                arch.name()
            ))
        })?;
        let cfg = match arch {
            ArchSpec::LmmIr => {
                let data = decode_prelude(entry, t, 17)?;
                let at = |i: usize| data[i] as usize;
                let flag = |i: usize| match at(i) {
                    0 => Ok(false),
                    1 => Ok(true),
                    other => Err(TensorError::Io(format!(
                        "malformed '{entry}' entry: flag field holds {other}, want 0 or 1"
                    ))),
                };
                let seed = decode_seed(entry, data, 6)?;
                let widths = decode_widths(entry, data, 16)?;
                ArchConfig::LmmIr(LmmIrConfig {
                    in_channels: at(1),
                    stem_kernel: at(2),
                    input_size: at(3),
                    use_lnt: flag(4)?,
                    use_attention_gates: flag(5)?,
                    seed,
                    lnt: LntConfig {
                        d_model: at(10),
                        heads: at(11),
                        layers: at(12),
                        max_points: at(13),
                        chunk: at(14),
                        ff_mult: at(15),
                    },
                    widths,
                })
            }
            ArchSpec::DynIr => {
                let data = decode_prelude(entry, t, 9)?;
                let at = |i: usize| data[i] as usize;
                let seed = decode_seed(entry, data, 4)?;
                let widths = decode_widths(entry, data, 8)?;
                ArchConfig::Dynamic(DynamicIrConfig {
                    windows: at(1),
                    stem_kernel: at(2),
                    input_size: at(3),
                    seed,
                    widths,
                })
            }
            ArchSpec::CfirstNet | ArchSpec::WacaUnet => {
                let reduction = usize::from(arch == ArchSpec::WacaUnet);
                let data = decode_prelude(entry, t, 9 + reduction)?;
                let at = |i: usize| data[i] as usize;
                ArchConfig::UNet(UNetConfig {
                    arch,
                    in_channels: at(1),
                    stem_kernel: at(2),
                    input_size: at(3),
                    attention_gates: false,
                    channel_attention: (reduction == 1).then(|| at(4)),
                    seed: decode_seed(entry, data, 4 + reduction)?,
                    widths: decode_widths(entry, data, 8 + reduction)?,
                })
            }
            other => {
                return Err(TensorError::Io(format!(
                    "architecture '{}' carries no config entry",
                    other.name()
                )))
            }
        };
        cfg.validate()
            .map_err(|e| TensorError::Io(format!("malformed '{entry}' entry: {e}")))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bare_meta(arch: ArchSpec, channels: usize, size: usize) -> CheckpointMeta {
        CheckpointMeta {
            model: arch.name().to_string(),
            input_channels: channels,
            input_size: size,
            config: None,
            quant_scales: Default::default(),
        }
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = HashSet::new();
        for arch in ArchSpec::ALL {
            assert!(seen.insert(arch.name()), "duplicate name {}", arch.name());
            assert_eq!(ArchSpec::from_name(arch.name()), Some(arch));
        }
        assert_eq!(ArchSpec::from_name("ResNet"), None);
        assert_eq!(ArchSpec::from_name("iredge"), None, "names are exact");
        for arch in ArchSpec::ALL {
            assert!(ArchSpec::known_names().contains(arch.name()));
        }
    }

    #[test]
    fn config_entry_names_are_unique_and_resolve_back() {
        let mut seen = HashSet::new();
        for arch in ArchSpec::ALL {
            if let Some(entry) = arch.config_entry() {
                assert!(seen.insert(entry), "duplicate entry {entry}");
                assert!(entry.starts_with("config."));
                assert_eq!(ArchSpec::for_config_entry(entry), Some(arch));
            }
        }
        assert_eq!(ArchSpec::for_config_entry("config.resnet"), None);
    }

    #[test]
    fn feature_sets_match_default_channels() {
        for arch in ArchSpec::ALL {
            if let Some(c) = arch.features().channels() {
                assert_eq!(arch.default_input_channels(), c, "{}", arch.name());
                assert_eq!(FeatureSet::for_channels(c), Some(arch.features()));
            }
        }
        assert_eq!(FeatureSet::for_channels(4), None, "windows are not a stack");
        assert!(!FeatureSet::CurrentOnly.needs_netlist());
        assert!(FeatureSet::Comprehensive.needs_netlist());
    }

    #[test]
    fn every_family_builds_from_bare_meta() {
        for arch in ArchSpec::ALL {
            let meta = bare_meta(arch, arch.default_input_channels(), 16);
            let model = arch.build(&meta).unwrap();
            assert_eq!(model.arch(), arch);
            assert_eq!(model.name(), arch.name());
            assert_eq!(model.input_channels(), meta.input_channels);
            assert_eq!(model.input_size(), 16);
        }
    }

    /// The property the one walk exists for, once over every family: none
    /// of the three traversals misses a layer. Every parameter receives a
    /// gradient; and after `quantize()`, `set_training(true)` drops every
    /// layer's int8 state (the eval forward is bitwise the never-quantized
    /// one — a layer it skipped would still answer in int8) and a second
    /// `quantize()` reaches the same layers.
    #[test]
    fn every_family_walks_all_its_layers() {
        use lmmir_pdn::{CaseKind, CaseSpec};
        use lmmir_tensor::{init, Var};
        use rand::{rngs::StdRng, SeedableRng};
        let case = CaseSpec::new("walk", 16, 16, 4, CaseKind::Fake).generate();
        let cloud =
            crate::PointCloud::from_netlist(&case.netlist, case.tech.dbu_per_um, 16.0, 16.0);
        let mut rng = StdRng::seed_from_u64(11);
        for arch in ArchSpec::ALL {
            let name = arch.name();
            let channels = arch.default_input_channels();
            let model = arch.build(&bare_meta(arch, channels, 16)).unwrap();
            let x = Var::constant(init::uniform(&[1, channels, 16, 16], 1.0, &mut rng));
            let cloud = model.uses_netlist().then_some(&cloud);

            model.forward(&x, cloud).unwrap().sum().backward();
            let missing = model
                .parameters()
                .iter()
                .filter(|p| p.grad().is_none())
                .count();
            assert_eq!(missing, 0, "{name}: every parameter gets a gradient");

            model.set_training(false);
            let exact = model.forward(&x, cloud).unwrap().to_tensor();
            let layers = model.quantize();
            assert!(layers > 0, "{name}: nothing quantized");
            let int8 = model.forward(&x, cloud).unwrap().to_tensor();
            assert_ne!(exact.data(), int8.data(), "{name}: int8 path must run");
            model.set_training(true);
            model.set_training(false);
            let restored = model.forward(&x, cloud).unwrap().to_tensor();
            assert_eq!(exact.data(), restored.data(), "{name}: stale int8 state");
            assert_eq!(model.quantize(), layers, "{name}: second quantize");
        }
    }

    #[test]
    fn build_predictor_rejects_unknown_and_mismatched_channels() {
        let mut meta = bare_meta(ArchSpec::Iredge, 3, 16);
        meta.model = "ResNet".to_string();
        let err = build_predictor(&meta).map(|_| ()).unwrap_err();
        assert!(err.contains("unknown architecture"), "got {err}");
        assert!(err.contains("WACA-UNet"), "names derive from ALL: {err}");
        let meta = bare_meta(ArchSpec::Iredge, 6, 16);
        let err = build_predictor(&meta).map(|_| ()).unwrap_err();
        assert!(err.contains("3 channels"), "got {err}");
    }

    #[test]
    fn configs_round_trip_through_their_entries() {
        let configs = [
            ArchConfig::LmmIr(LmmIrConfig {
                widths: vec![4, 8],
                input_size: 16,
                seed: 0xABCD_EF01_2345_6789,
                ..LmmIrConfig::quick()
            }),
            ArchConfig::Dynamic(DynamicIrConfig {
                windows: 3,
                widths: vec![4, 8],
                stem_kernel: 3,
                input_size: 16,
                seed: 0x1111_2222_3333_4444,
            }),
            ArchConfig::UNet(UNetConfig {
                widths: vec![4, 8],
                stem_kernel: 5,
                input_size: 16,
                seed: 7,
                ..UNetConfig::quick(ArchSpec::CfirstNet)
            }),
            ArchConfig::UNet(UNetConfig {
                widths: vec![4, 8],
                channel_attention: Some(2),
                input_size: 16,
                seed: 0xFFFF_0000_FFFF_0000,
                ..UNetConfig::quick(ArchSpec::WacaUnet)
            }),
        ];
        for cfg in configs {
            let (name, payload) = cfg.entry();
            assert_eq!(name, cfg.entry_name());
            let back = ArchConfig::decode(cfg.arch(), &payload).unwrap();
            assert_eq!(back, cfg, "{name} must round-trip exactly");
        }
    }

    #[test]
    fn build_honours_recorded_configs_for_new_families() {
        for (cfg, arch) in [
            (
                ArchConfig::UNet(UNetConfig {
                    widths: vec![4, 8, 16],
                    input_size: 16,
                    ..UNetConfig::quick(ArchSpec::CfirstNet)
                }),
                ArchSpec::CfirstNet,
            ),
            (
                ArchConfig::UNet(UNetConfig {
                    widths: vec![4, 8, 16],
                    channel_attention: Some(2),
                    input_size: 16,
                    ..UNetConfig::quick(ArchSpec::WacaUnet)
                }),
                ArchSpec::WacaUnet,
            ),
        ] {
            let mut meta = bare_meta(arch, cfg.input_channels(), 16);
            meta.config = Some(cfg.clone());
            let exact = arch.build(&meta).unwrap();
            let fallback = arch
                .build(&bare_meta(arch, cfg.input_channels(), 16))
                .unwrap();
            // Same number of levels as quick(), but narrower widths — the
            // weight volume tells the two plans apart.
            let numel = |m: &dyn IrPredictor| {
                m.parameters()
                    .iter()
                    .map(|p| p.value().data().len())
                    .sum::<usize>()
            };
            assert_ne!(
                numel(exact.as_ref()),
                numel(fallback.as_ref()),
                "{}: the recorded plan must win over quick()",
                arch.name()
            );
        }
    }
}
