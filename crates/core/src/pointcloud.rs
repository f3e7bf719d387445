//! Netlist → 3-D point-cloud encoding (paper §III-B).
//!
//! Traditional flows rasterize the netlist into 2-D maps, averaging away
//! exact coordinates and inter-layer structure. LMM-IR instead keeps one
//! point per element with its full attributes: endpoint coordinates
//! `(x1, y1, x2, y2)`, element value, element type (R/I/V) and the two
//! metal layers. Vias — resistors whose endpoints differ in layer — stay
//! individually visible, which is the representational advantage the paper
//! claims over pixel methods.

use lmmir_spice::Netlist;

/// One netlist element as a point-cloud entry.
///
/// Coordinates are normalized to `[0, 1]` by the chip extent; values are
/// normalized per element kind (resistances, currents and voltages live on
/// wildly different scales).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistPoint {
    /// Normalized first-endpoint X.
    pub x1: f32,
    /// Normalized first-endpoint Y.
    pub y1: f32,
    /// Normalized second-endpoint X (first endpoint repeated for sources).
    pub x2: f32,
    /// Normalized second-endpoint Y.
    pub y2: f32,
    /// Kind-normalized element value.
    pub value: f32,
    /// Element kind code (0 = R, 1 = I, 2 = V); drives the type embedding.
    pub kind: usize,
    /// Metal layer of the first endpoint.
    pub layer1: usize,
    /// Metal layer of the second endpoint (equals `layer1` for non-vias).
    pub layer2: usize,
}

impl NetlistPoint {
    /// True when the point is a via (inter-layer resistor).
    #[must_use]
    pub fn is_via(&self) -> bool {
        self.kind == 0 && self.layer1 != self.layer2
    }

    /// Continuous feature vector `[x1, y1, x2, y2, value]`.
    #[must_use]
    pub fn features(&self) -> [f32; 5] {
        [self.x1, self.y1, self.x2, self.y2, self.value]
    }
}

/// The point-cloud representation of one netlist.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    /// The points, in netlist element order.
    pub points: Vec<NetlistPoint>,
}

/// Number of continuous features per point (see [`NetlistPoint::features`]).
pub const POINT_FEATURES: usize = 5;

/// Maximum metal layer id supported by the layer embedding table.
pub const MAX_LAYERS: usize = 16;

impl PointCloud {
    /// Encodes a netlist into a point cloud.
    ///
    /// `width_um`/`height_um` define the normalization extent;
    /// `dbu_per_um` converts node coordinates.
    ///
    /// Element values are scaled by the mean absolute value of their kind
    /// within this netlist, making the cloud invariant to global unit
    /// choices while preserving relative magnitudes.
    #[must_use]
    pub fn from_netlist(netlist: &Netlist, dbu_per_um: i64, width_um: f64, height_um: f64) -> Self {
        let wd = (width_um * dbu_per_um as f64).max(1.0);
        let hd = (height_um * dbu_per_um as f64).max(1.0);
        // Per-kind mean |value| for normalization.
        let mut sums = [0.0f64; 3];
        let mut counts = [0usize; 3];
        for e in netlist.iter() {
            let k = e.kind.code();
            sums[k] += e.value.abs();
            counts[k] += 1;
        }
        let scales: Vec<f64> = (0..3)
            .map(|k| {
                if counts[k] > 0 && sums[k] > 0.0 {
                    sums[k] / counts[k] as f64
                } else {
                    1.0
                }
            })
            .collect();
        let mut points = Vec::with_capacity(netlist.len());
        for e in netlist.iter() {
            let a = e.a.name();
            let b = e.b.name();
            // Sources have one grounded terminal: repeat the node endpoint.
            let (pa, pb) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                (Some(a), None) => (a, a),
                (None, Some(b)) => (b, b),
                (None, None) => continue,
            };
            let k = e.kind.code();
            points.push(NetlistPoint {
                x1: (pa.x as f64 / wd) as f32,
                y1: (pa.y as f64 / hd) as f32,
                x2: (pb.x as f64 / wd) as f32,
                y2: (pb.y as f64 / hd) as f32,
                value: (e.value / scales[k]) as f32,
                kind: k,
                layer1: (pa.layer as usize).min(MAX_LAYERS - 1),
                layer2: (pb.layer as usize).min(MAX_LAYERS - 1),
            });
        }
        PointCloud { points }
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the cloud has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of vias in the cloud.
    #[must_use]
    pub fn via_count(&self) -> usize {
        self.points.iter().filter(|p| p.is_via()).count()
    }

    /// Importance-aware deterministic subsampling to at most `max_points`.
    ///
    /// Points are kept in strict priority tiers — voltage sources (pads
    /// anchor the whole field and are few), then vias (inter-layer
    /// resistance topology), then current sources (loads), then plain wire
    /// resistors — with stride sampling inside whichever tier exhausts the
    /// budget. Deterministic, so a given case always produces the same
    /// cloud.
    #[must_use]
    pub fn subsample(&self, max_points: usize) -> PointCloud {
        if self.points.len() <= max_points {
            return self.clone();
        }
        let tier = |p: &NetlistPoint| -> u8 {
            if p.kind == 2 {
                0 // pads
            } else if p.is_via() {
                1
            } else if p.kind == 1 {
                2 // loads
            } else {
                3 // wires
            }
        };
        // One pass over the cloud labels every point with its tier; counting
        // and picking then walk the labels run by run (a netlist lists its
        // wires, vias, loads and pads in blocks), so no tier is copied out —
        // `encode_cloud` subsamples on every forward.
        let tiers: Vec<u8> = self.points.iter().map(tier).collect();
        let runs = || {
            tiers
                .chunk_by(|a, b| a == b)
                .map(|run| (usize::from(run[0]), run.len()))
        };
        let mut counts = [0usize; 4];
        for (t, len) in runs() {
            counts[t] += len;
        }
        // Per tier, in priority order: the rank within the tier of each of
        // its picks — a stride over the tier, which is every member (step
        // 1.0) while the budget lasts.
        let mut remaining = max_points;
        let mut picks = counts.map(|count| {
            let take = count.min(remaining);
            remaining -= take;
            let step = count as f64 / take as f64;
            (0..take)
                .map(move |i| (i as f64 * step) as usize)
                .peekable()
        });
        let mut picked: [Vec<NetlistPoint>; 4] = Default::default();
        let (mut start, mut rank) = (0, [0usize; 4]);
        for (t, len) in runs() {
            while let Some(r) = picks[t].next_if(|&r| r < rank[t] + len) {
                picked[t].push(self.points[start + r - rank[t]]);
            }
            start += len;
            rank[t] += len;
        }
        PointCloud {
            points: picked.concat(),
        }
    }

    /// Packs continuous features into a `[len, 5]` matrix plus the discrete
    /// kind/layer index vectors for the embeddings.
    #[must_use]
    pub fn to_features(&self) -> (Vec<f32>, Vec<usize>, Vec<usize>, Vec<usize>) {
        let mut feats = Vec::with_capacity(self.points.len() * POINT_FEATURES);
        let mut kinds = Vec::with_capacity(self.points.len());
        let mut l1 = Vec::with_capacity(self.points.len());
        let mut l2 = Vec::with_capacity(self.points.len());
        for p in &self.points {
            feats.extend_from_slice(&p.features());
            kinds.push(p.kind);
            l1.push(p.layer1);
            l2.push(p.layer2);
        }
        (feats, kinds, l1, l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec};

    fn cloud() -> (PointCloud, lmmir_pdn::Case) {
        let case = CaseSpec::new("t", 20, 20, 3, CaseKind::Fake).generate();
        let pc = PointCloud::from_netlist(&case.netlist, case.tech.dbu_per_um, 20.0, 20.0);
        (pc, case)
    }

    #[test]
    fn cloud_covers_all_elements() {
        let (pc, case) = cloud();
        assert_eq!(pc.len(), case.netlist.len());
        assert_eq!(pc.via_count(), case.netlist.stats().vias);
    }

    #[test]
    fn coordinates_normalized() {
        let (pc, _) = cloud();
        for p in &pc.points {
            assert!((0.0..=1.05).contains(&p.x1), "x1 {}", p.x1);
            assert!((0.0..=1.05).contains(&p.y2), "y2 {}", p.y2);
        }
    }

    #[test]
    fn values_normalized_per_kind() {
        let (pc, _) = cloud();
        // Mean |value| per kind should be ~1 after normalization.
        for k in 0..3 {
            let vals: Vec<f32> = pc
                .points
                .iter()
                .filter(|p| p.kind == k)
                .map(|p| p.value.abs())
                .collect();
            if vals.is_empty() {
                continue;
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!((mean - 1.0).abs() < 0.05, "kind {k} mean {mean}");
        }
    }

    #[test]
    fn sources_repeat_endpoint() {
        let (pc, _) = cloud();
        let src = pc.points.iter().find(|p| p.kind == 1).unwrap();
        assert_eq!(src.x1, src.x2);
        assert_eq!(src.y1, src.y2);
        assert!(!src.is_via());
    }

    #[test]
    fn subsample_keeps_critical_points() {
        let (pc, case) = cloud();
        // Budget above the critical set but below the full cloud: all
        // critical points must survive and wires fill the rest.
        let critical = pc
            .points
            .iter()
            .filter(|p| p.kind != 0 || p.is_via())
            .count();
        assert!(critical < pc.len(), "case should have plain wires");
        let budget = critical + (pc.len() - critical) / 2;
        let sub = pc.subsample(budget);
        assert_eq!(sub.len(), budget);
        // All pads survive.
        let pads = sub.points.iter().filter(|p| p.kind == 2).count();
        assert_eq!(pads, case.netlist.stats().voltage_sources);
        // Vias survive.
        assert_eq!(sub.via_count(), pc.via_count());
    }

    /// `subsample` as it was before it stopped copying the cloud into four
    /// tier vectors: the reference the rank-based version must equal.
    fn subsample_by_tier_copies(cloud: &PointCloud, max_points: usize) -> PointCloud {
        fn stride_sample(points: &[NetlistPoint], budget: usize) -> Vec<NetlistPoint> {
            if budget == 0 || points.is_empty() {
                return Vec::new();
            }
            if points.len() <= budget {
                return points.to_vec();
            }
            let step = points.len() as f64 / budget as f64;
            (0..budget)
                .map(|i| points[(i as f64 * step) as usize])
                .collect()
        }
        if cloud.points.len() <= max_points {
            return cloud.clone();
        }
        let mut tiers: [Vec<NetlistPoint>; 4] = Default::default();
        for p in &cloud.points {
            let tier = match (p.kind, p.is_via()) {
                (2, _) => 0,
                (_, true) => 1,
                (1, _) => 2,
                _ => 3,
            };
            tiers[tier].push(*p);
        }
        let mut out = Vec::with_capacity(max_points);
        for t in tiers {
            let remaining = max_points - out.len();
            out.extend(stride_sample(&t, remaining));
        }
        PointCloud { points: out }
    }

    #[test]
    fn subsample_equals_the_tier_copy_reference() {
        let (blocks, _) = cloud();
        // The same points with the tiers interleaved instead of in blocks.
        let mut mixed = blocks.clone();
        let len = mixed.len();
        mixed.points = (0..len).map(|i| blocks.points[i * 7 % len]).collect();
        assert_ne!(len % 7, 0, "i·7 mod len must be a permutation");
        for cloud in [&blocks, &mixed] {
            for budget in [0, 1, 5, 64, 512, len - 1, len, len + 10] {
                assert_eq!(
                    cloud.subsample(budget),
                    subsample_by_tier_copies(cloud, budget),
                    "budget {budget} of {len}"
                );
            }
        }
    }

    #[test]
    fn subsample_noop_when_under_budget() {
        let (pc, _) = cloud();
        let sub = pc.subsample(pc.len() + 10);
        assert_eq!(sub, pc);
    }

    #[test]
    fn subsample_is_deterministic() {
        let (pc, _) = cloud();
        assert_eq!(pc.subsample(100), pc.subsample(100));
    }

    #[test]
    fn subsample_handles_tiny_budget() {
        let (pc, _) = cloud();
        let sub = pc.subsample(5);
        assert_eq!(sub.len(), 5);
    }

    #[test]
    fn features_pack_shapes() {
        let (pc, _) = cloud();
        let (f, k, l1, l2) = pc.to_features();
        assert_eq!(f.len(), pc.len() * POINT_FEATURES);
        assert_eq!(k.len(), pc.len());
        assert_eq!(l1.len(), pc.len());
        assert_eq!(l2.len(), pc.len());
        assert!(k.iter().all(|&x| x < 3));
        assert!(l1.iter().all(|&x| x < MAX_LAYERS));
    }

    #[test]
    fn empty_netlist_gives_empty_cloud() {
        let nl = lmmir_spice::Netlist::new();
        let pc = PointCloud::from_netlist(&nl, 2000, 10.0, 10.0);
        assert!(pc.is_empty());
    }
}
