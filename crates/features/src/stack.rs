//! Multi-channel feature stacks: the model-facing grouping of rasters.

use crate::maps;
use crate::raster::Raster;
use crate::resistance;
use crate::spatial::{normalize_channel, spatial_adjust, SpatialInfo};
use lmmir_pdn::{Case, PowerMap};
use lmmir_spice::Netlist;
use lmmir_tensor::Tensor;

/// Identity of one feature channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureChannel {
    /// Per-pixel drawn current.
    Current,
    /// Reciprocal summed inverse distance to pads.
    EffectiveDistance,
    /// Mean PDN stripe spacing.
    PdnDensity,
    /// Pad positions/values.
    VoltageSource,
    /// Tap positions/values.
    CurrentSource,
    /// Resistor mass per pixel.
    Resistance,
    /// Effective resistance to the pads (uniform-injection solve).
    EffectiveResistance,
    /// Shortest resistive path to the nearest pad (multi-source Dijkstra).
    PadDistance,
}

impl FeatureChannel {
    /// Channel name as used in file dumps.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FeatureChannel::Current => "current",
            FeatureChannel::EffectiveDistance => "eff_dist",
            FeatureChannel::PdnDensity => "pdn_density",
            FeatureChannel::VoltageSource => "voltage_source",
            FeatureChannel::CurrentSource => "current_source",
            FeatureChannel::Resistance => "resistance",
            FeatureChannel::EffectiveResistance => "eff_res",
            FeatureChannel::PadDistance => "pad_dist",
        }
    }
}

/// An ordered set of equally-sized feature channels for one case.
#[derive(Debug, Clone)]
pub struct FeatureStack {
    channels: Vec<(FeatureChannel, Raster)>,
}

/// The basic 3-channel plan (IREDGe / contest-baseline feature set).
const BASIC_CHANNELS: [FeatureChannel; 3] = [
    FeatureChannel::Current,
    FeatureChannel::EffectiveDistance,
    FeatureChannel::PdnDensity,
];

/// The extended 6-channel plan: basic plus the paper's voltage-source,
/// current-source and resistance maps.
const EXTENDED_CHANNELS: [FeatureChannel; 6] = [
    FeatureChannel::Current,
    FeatureChannel::EffectiveDistance,
    FeatureChannel::PdnDensity,
    FeatureChannel::VoltageSource,
    FeatureChannel::CurrentSource,
    FeatureChannel::Resistance,
];

/// The comprehensive 8-channel plan (CFIRSTNET, arXiv:2502.12168): extended
/// plus the PDN-graph effective-resistance and pad-distance maps.
const COMPREHENSIVE_CHANNELS: [FeatureChannel; 8] = [
    FeatureChannel::Current,
    FeatureChannel::EffectiveDistance,
    FeatureChannel::PdnDensity,
    FeatureChannel::VoltageSource,
    FeatureChannel::CurrentSource,
    FeatureChannel::Resistance,
    FeatureChannel::EffectiveResistance,
    FeatureChannel::PadDistance,
];

/// Rasterizes one feature channel from a power map and netlist.
fn build_channel(power: &PowerMap, netlist: &Netlist, dbu: i64, kind: FeatureChannel) -> Raster {
    let (w, h) = (power.width(), power.height());
    match kind {
        FeatureChannel::Current => maps::current_map(power),
        FeatureChannel::EffectiveDistance => maps::effective_distance_map(netlist, w, h, dbu),
        FeatureChannel::PdnDensity => maps::pdn_density_map(netlist, w, h, dbu),
        FeatureChannel::VoltageSource => maps::voltage_source_map(netlist, w, h, dbu),
        FeatureChannel::CurrentSource => maps::current_source_map(netlist, w, h, dbu),
        FeatureChannel::Resistance => maps::resistance_map(netlist, w, h, dbu),
        FeatureChannel::EffectiveResistance => {
            resistance::effective_resistance_map(netlist, w, h, dbu)
        }
        FeatureChannel::PadDistance => resistance::pad_distance_map(netlist, w, h, dbu),
    }
}

impl FeatureStack {
    /// Rasterizes `kinds` from the raw design parts. The distance map forks
    /// over its own rows and outweighs every other channel past ~100 µm, so
    /// it is built first, at pool width; the rest fan out one channel per
    /// pool worker (independent, kept in the requested order), each kernel
    /// inline on its worker. The effective-resistance channel stays in the
    /// fan-out: its factor and solve are sequential, so pulled out they
    /// would only run ahead of the others.
    fn rasterize(power: &PowerMap, netlist: &Netlist, dbu: i64, kinds: &[FeatureChannel]) -> Self {
        let pooled = FeatureChannel::EffectiveDistance;
        let build = |kind: &FeatureChannel| build_channel(power, netlist, dbu, *kind);
        let mut distance = kinds.contains(&pooled).then(|| build(&pooled));
        let rest: Vec<FeatureChannel> = kinds.iter().copied().filter(|k| *k != pooled).collect();
        let mut rasters = lmmir_par::par_map_slice(&rest, build).into_iter();
        let channels = kinds
            .iter()
            .map(|&kind| {
                let raster = if kind == pooled {
                    distance.take()
                } else {
                    rasters.next()
                };
                (kind, raster.expect("one raster per requested channel"))
            })
            .collect();
        FeatureStack { channels }
    }

    /// The basic 3-channel stack (current, effective distance, PDN density)
    /// — the feature set of IREDGe and the contest baseline.
    #[must_use]
    pub fn basic(case: &Case) -> Self {
        FeatureStack::basic_parts(&case.power, &case.netlist, case.tech.dbu_per_um)
    }

    /// [`FeatureStack::basic`] from the raw design parts — the entry point
    /// for callers (like the inference server) that receive a power map and
    /// netlist without a generated [`Case`] around them.
    #[must_use]
    pub fn basic_parts(power: &PowerMap, netlist: &Netlist, dbu_per_um: i64) -> Self {
        FeatureStack::rasterize(power, netlist, dbu_per_um, &BASIC_CHANNELS)
    }

    /// The extended 6-channel stack: basic plus the paper's voltage-source,
    /// current-source and resistance maps.
    #[must_use]
    pub fn extended(case: &Case) -> Self {
        FeatureStack::extended_parts(&case.power, &case.netlist, case.tech.dbu_per_um)
    }

    /// [`FeatureStack::extended`] from the raw design parts.
    #[must_use]
    pub fn extended_parts(power: &PowerMap, netlist: &Netlist, dbu_per_um: i64) -> Self {
        FeatureStack::rasterize(power, netlist, dbu_per_um, &EXTENDED_CHANNELS)
    }

    /// The comprehensive 8-channel stack: extended plus the PDN-graph
    /// effective-resistance and pad-distance maps (CFIRSTNET's feature set).
    #[must_use]
    pub fn comprehensive(case: &Case) -> Self {
        FeatureStack::comprehensive_parts(&case.power, &case.netlist, case.tech.dbu_per_um)
    }

    /// [`FeatureStack::comprehensive`] from the raw design parts.
    #[must_use]
    pub fn comprehensive_parts(power: &PowerMap, netlist: &Netlist, dbu_per_um: i64) -> Self {
        FeatureStack::rasterize(power, netlist, dbu_per_um, &COMPREHENSIVE_CHANNELS)
    }

    /// [`FeatureStack::comprehensive`] with the effective-resistance channel
    /// supplied by a caller that already solved it on its own factor of the
    /// design (see [`crate::effective_resistance_solved`]).
    #[must_use]
    pub fn comprehensive_with(case: &Case, effective_resistance: Raster) -> Self {
        let solved = FeatureChannel::EffectiveResistance;
        let kinds: Vec<FeatureChannel> = COMPREHENSIVE_CHANNELS
            .iter()
            .copied()
            .filter(|k| *k != solved)
            .collect();
        let mut stack =
            FeatureStack::rasterize(&case.power, &case.netlist, case.tech.dbu_per_um, &kinds);
        let at = COMPREHENSIVE_CHANNELS
            .iter()
            .position(|k| *k == solved)
            .expect("the comprehensive plan has an effective-resistance channel");
        stack.channels.insert(at, (solved, effective_resistance));
        stack
    }

    /// The first `channels` channels. The basic and extended stacks are
    /// prefixes of the comprehensive one, channel for channel, so one
    /// comprehensive stack yields all three.
    ///
    /// # Panics
    ///
    /// Panics when the stack has fewer than `channels` channels.
    #[must_use]
    pub fn prefix(&self, channels: usize) -> Self {
        FeatureStack {
            channels: self.channels[..channels].to_vec(),
        }
    }

    /// Builds a stack from explicit channels.
    ///
    /// # Panics
    ///
    /// Panics when channels disagree in size.
    #[must_use]
    pub fn from_channels(channels: Vec<(FeatureChannel, Raster)>) -> Self {
        if let Some((_, first)) = channels.first() {
            let (w, h) = (first.width(), first.height());
            for (c, r) in &channels {
                assert!(
                    r.width() == w && r.height() == h,
                    "channel {} size mismatch",
                    c.name()
                );
            }
        }
        FeatureStack { channels }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Channel accessor.
    #[must_use]
    pub fn channel(&self, kind: FeatureChannel) -> Option<&Raster> {
        self.channels
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, r)| r)
    }

    /// Iterates `(kind, raster)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = &(FeatureChannel, Raster)> {
        self.channels.iter()
    }

    /// Spatial width (0 for an empty stack).
    #[must_use]
    pub fn width(&self) -> usize {
        self.channels.first().map_or(0, |(_, r)| r.width())
    }

    /// Spatial height (0 for an empty stack).
    #[must_use]
    pub fn height(&self) -> usize {
        self.channels.first().map_or(0, |(_, r)| r.height())
    }

    /// Adjusts every channel to `target × target` (pad or scale) and
    /// z-score-normalizes each channel, as the training pipeline requires.
    ///
    /// Returns the adjusted stack and the spatial info for restoring
    /// predictions.
    #[must_use]
    pub fn adjusted_normalized(&self, target: usize) -> (FeatureStack, SpatialInfo) {
        // Channels share their spatial size, so every adjustment reports the
        // same `SpatialInfo`; the per-channel work fans out across the pool.
        let adjusted = lmmir_par::par_map_slice(&self.channels, |(kind, r)| {
            let (adj, info) = spatial_adjust(r, target);
            let (norm, _) = normalize_channel(&adj);
            ((*kind, norm), info)
        });
        let mut out = Vec::with_capacity(adjusted.len());
        let mut info = SpatialInfo::Unchanged;
        for (channel, i) in adjusted {
            info = i;
            out.push(channel);
        }
        (FeatureStack { channels: out }, info)
    }

    /// Stable 64-bit content hash over the ordered channel identities and
    /// their bit-exact raster contents (see [`Raster::content_hash`]). Two
    /// stacks hash equal iff they would produce bitwise-identical model
    /// inputs — the key the serving layer caches prepared features under.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        h.write_usize(self.channels.len());
        for (kind, raster) in &self.channels {
            h.write(kind.name().as_bytes());
            h.write_u64(raster.content_hash());
        }
        h.finish()
    }

    /// Converts to a `[C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics on an empty stack.
    #[must_use]
    pub fn to_tensor(&self) -> Tensor {
        assert!(!self.channels.is_empty(), "empty feature stack");
        let (w, h) = (self.width(), self.height());
        let mut data = Vec::with_capacity(self.channels.len() * w * h);
        for (_, r) in &self.channels {
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(data, &[self.channels.len(), h, w]).expect("consistent channel sizes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec};

    fn case() -> Case {
        CaseSpec::new("t", 20, 20, 5, CaseKind::Fake).generate()
    }

    #[test]
    fn basic_has_three_channels_extended_six() {
        let c = case();
        assert_eq!(FeatureStack::basic(&c).channels(), 3);
        let e = FeatureStack::extended(&c);
        assert_eq!(e.channels(), 6);
        assert!(e.channel(FeatureChannel::Resistance).is_some());
        assert!(FeatureStack::basic(&c)
            .channel(FeatureChannel::Resistance)
            .is_none());
    }

    #[test]
    fn comprehensive_has_eight_channels() {
        let c = case();
        let s = FeatureStack::comprehensive(&c);
        assert_eq!(s.channels(), 8);
        assert!(s.channel(FeatureChannel::EffectiveResistance).is_some());
        assert!(s.channel(FeatureChannel::PadDistance).is_some());
        assert_eq!(
            FeatureStack::comprehensive_parts(&c.power, &c.netlist, c.tech.dbu_per_um)
                .content_hash(),
            s.content_hash()
        );
    }

    #[test]
    fn comprehensive_stack_is_thread_count_invariant() {
        let c = case();
        let hashes: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| lmmir_par::with_threads(t, || FeatureStack::comprehensive(&c).content_hash()))
            .collect();
        assert!(
            hashes.windows(2).all(|p| p[0] == p[1]),
            "comprehensive stack must be bitwise identical at any thread count: {hashes:?}"
        );
    }

    #[test]
    fn to_tensor_is_chw() {
        let c = case();
        let t = FeatureStack::extended(&c).to_tensor();
        assert_eq!(t.dims(), &[6, 20, 20]);
    }

    #[test]
    fn adjusted_normalized_pads_and_zero_means() {
        let c = case();
        let (adj, info) = FeatureStack::extended(&c).adjusted_normalized(32);
        assert_eq!(adj.width(), 32);
        assert!(matches!(
            info,
            crate::spatial::SpatialInfo::Padded {
                width: 20,
                height: 20
            }
        ));
        for (_, r) in adj.iter() {
            assert!(
                r.mean().abs() < 0.35,
                "padding shifts mean but stays bounded"
            );
        }
    }

    #[test]
    fn parts_constructors_match_case_constructors() {
        let c = case();
        let from_case = FeatureStack::extended(&c);
        let from_parts = FeatureStack::extended_parts(&c.power, &c.netlist, c.tech.dbu_per_um);
        assert_eq!(from_case.content_hash(), from_parts.content_hash());
        assert_eq!(
            FeatureStack::basic(&c).content_hash(),
            FeatureStack::basic_parts(&c.power, &c.netlist, c.tech.dbu_per_um).content_hash()
        );
    }

    #[test]
    fn content_hash_tracks_content_not_identity() {
        let c = case();
        let a = FeatureStack::basic(&c);
        assert_eq!(a.content_hash(), a.clone().content_hash());
        // Basic and extended stacks differ; so do stacks of different cases.
        assert_ne!(a.content_hash(), FeatureStack::extended(&c).content_hash());
        let other = CaseSpec::new("u", 20, 20, 6, CaseKind::Fake).generate();
        assert_ne!(a.content_hash(), FeatureStack::basic(&other).content_hash());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_channels_validates_sizes() {
        let _ = FeatureStack::from_channels(vec![
            (FeatureChannel::Current, Raster::zeros(2, 2)),
            (FeatureChannel::PdnDensity, Raster::zeros(3, 2)),
        ]);
    }
}
