//! Per-window feature rasterization for dynamic IR-drop workloads.
//!
//! A dynamic (PowerNet-style) design arrives as W toggle-weighted power
//! maps instead of one static map. Each window rasterizes exactly like the
//! static current channel — and the windows are independent, so they fan
//! out across the `lmmir-par` pool the same way [`crate::FeatureStack`]
//! fans out its channels. The ordered fan-out keeps the result bitwise
//! identical at any thread count.

use crate::maps;
use crate::raster::Raster;
use crate::spatial::{normalize_channel, spatial_adjust, SpatialInfo};
use lmmir_pdn::PowerMap;
use lmmir_tensor::Tensor;

/// An ordered set of equally-sized per-window current rasters.
#[derive(Debug, Clone)]
pub struct WindowStack {
    windows: Vec<Raster>,
}

impl WindowStack {
    /// Rasterizes one current map per window, one window per pool worker.
    ///
    /// # Panics
    ///
    /// Panics when `windows` is empty or the maps disagree in size.
    #[must_use]
    pub fn rasterize(windows: &[PowerMap]) -> Self {
        let first = windows.first().expect("empty window set");
        let (w, h) = (first.width(), first.height());
        for m in windows {
            assert!(
                m.width() == w && m.height() == h,
                "window size mismatch: {}x{} vs {w}x{h}",
                m.width(),
                m.height()
            );
        }
        WindowStack {
            windows: lmmir_par::par_map_slice(windows, maps::current_map),
        }
    }

    /// Builds a stack from pre-rasterized windows.
    ///
    /// # Panics
    ///
    /// Panics when `windows` is empty or the rasters disagree in size.
    #[must_use]
    pub fn from_rasters(windows: Vec<Raster>) -> Self {
        let first = windows.first().expect("empty window set");
        let (w, h) = (first.width(), first.height());
        assert!(
            windows.iter().all(|r| r.width() == w && r.height() == h),
            "window size mismatch"
        );
        WindowStack { windows }
    }

    /// Number of windows W.
    #[must_use]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the stack has no windows (never constructible; kept for
    /// the conventional `len`/`is_empty` pair).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Window accessor.
    #[must_use]
    pub fn window(&self, w: usize) -> Option<&Raster> {
        self.windows.get(w)
    }

    /// Spatial width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.windows.first().map_or(0, Raster::width)
    }

    /// Spatial height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.windows.first().map_or(0, Raster::height)
    }

    /// Adjusts every window to `target × target` (pad or scale) and
    /// z-score-normalizes each one independently, mirroring the static
    /// pipeline's [`crate::FeatureStack::adjusted_normalized`]. Per-window
    /// work fans out across the pool; the shared [`SpatialInfo`] restores
    /// predictions.
    #[must_use]
    pub fn adjusted_normalized(&self, target: usize) -> (WindowStack, SpatialInfo) {
        let adjusted = lmmir_par::par_map_slice(&self.windows, |r| {
            let (adj, info) = spatial_adjust(r, target);
            let (norm, _) = normalize_channel(&adj);
            (norm, info)
        });
        let mut out = Vec::with_capacity(adjusted.len());
        let mut info = SpatialInfo::Unchanged;
        for (raster, i) in adjusted {
            info = i;
            out.push(raster);
        }
        (WindowStack { windows: out }, info)
    }

    /// Stable 64-bit content hash over the ordered, bit-exact window
    /// rasters (the determinism suites compare stacks by it).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        h.write_usize(self.windows.len());
        for raster in &self.windows {
            h.write(b"window");
            h.write_u64(raster.content_hash());
        }
        h.finish()
    }

    /// Converts to a `[W, H, W]` tensor — windows take the channel axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty stack.
    #[must_use]
    pub fn to_tensor(&self) -> Tensor {
        assert!(!self.windows.is_empty(), "empty window stack");
        let (w, h) = (self.width(), self.height());
        let mut data = Vec::with_capacity(self.windows.len() * w * h);
        for r in &self.windows {
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(data, &[self.windows.len(), h, w]).expect("consistent window sizes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase};

    fn windows() -> Vec<PowerMap> {
        let spec = CaseSpec::new("w", 20, 20, 3, CaseKind::Fake);
        DynamicCase::generate(&spec, 4).windows
    }

    #[test]
    fn rasterizes_one_raster_per_window() {
        let s = WindowStack::rasterize(&windows());
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!((s.width(), s.height()), (20, 20));
        assert!(s.window(0).is_some() && s.window(4).is_none());
    }

    #[test]
    fn to_tensor_is_whw() {
        let t = WindowStack::rasterize(&windows()).to_tensor();
        assert_eq!(t.dims(), &[4, 20, 20]);
    }

    #[test]
    fn adjusted_normalized_pads_like_static_pipeline() {
        let (adj, info) = WindowStack::rasterize(&windows()).adjusted_normalized(32);
        assert_eq!((adj.width(), adj.height()), (32, 32));
        assert!(matches!(
            info,
            SpatialInfo::Padded {
                width: 20,
                height: 20
            }
        ));
    }

    #[test]
    fn content_hash_tracks_content() {
        let s = WindowStack::rasterize(&windows());
        assert_eq!(s.content_hash(), s.clone().content_hash());
        let spec = CaseSpec::new("w2", 20, 20, 8, CaseKind::Fake);
        let other = WindowStack::rasterize(&DynamicCase::generate(&spec, 4).windows);
        assert_ne!(s.content_hash(), other.content_hash());
        // Window order matters: reversed windows hash differently.
        let mut rev: Vec<Raster> = s.windows.clone();
        rev.reverse();
        assert_ne!(
            s.content_hash(),
            WindowStack::from_rasters(rev).content_hash()
        );
    }

    #[test]
    fn rasterization_is_thread_count_invariant() {
        let maps = windows();
        let results: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                lmmir_par::with_threads(t, || {
                    let (adj, _) = WindowStack::rasterize(&maps).adjusted_normalized(24);
                    adj.content_hash()
                })
            })
            .collect();
        assert!(
            results.windows(2).all(|p| p[0] == p[1]),
            "per-window rasterization must be bitwise thread-count-invariant: {results:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty window set")]
    fn empty_rejected() {
        let _ = WindowStack::rasterize(&[]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_rejected() {
        let _ = WindowStack::rasterize(&[PowerMap::zeros(2, 2), PowerMap::zeros(3, 2)]);
    }
}
