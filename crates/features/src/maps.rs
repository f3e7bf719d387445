//! Feature-map extractors: netlist/power → per-µm² rasters.

use crate::raster::Raster;
use lmmir_pdn::PowerMap;
use lmmir_solver::IrDrop;
use lmmir_spice::{ElementKind, Netlist, NodeName};
use std::ops::Range;

pub(crate) fn to_px(dbu: i64, dbu_per_um: i64) -> isize {
    (dbu as f64 / dbu_per_um as f64).floor() as isize
}

/// Lowest metal layer present in the netlist (`m1` in generated PDNs).
pub(crate) fn lowest_layer(netlist: &Netlist) -> Option<u8> {
    netlist
        .iter()
        .flat_map(|e| [e.a.name(), e.b.name()])
        .flatten()
        .map(|n| n.layer)
        .min()
}

/// Node position in µm, which is raster pixels.
fn position_um(n: &NodeName, dbu_per_um: i64) -> (f64, f64) {
    (
        n.x as f64 / dbu_per_um as f64,
        n.y as f64 / dbu_per_um as f64,
    )
}

/// A wire segment in pixel units, walked as `steps` samples of equal length
/// (at most 1 px each); sample `s` sits at `a + (b − a)·(s + 0.5)/steps`.
struct Segment {
    a: (f64, f64),
    b: (f64, f64),
    len: f64,
    steps: usize,
}

impl Segment {
    fn new(a: &NodeName, b: &NodeName, dbu_per_um: i64) -> Self {
        let (a, b) = (position_um(a, dbu_per_um), position_um(b, dbu_per_um));
        let len = ((b.0 - a.0).powi(2) + (b.1 - a.1).powi(2)).sqrt();
        let steps = (len.ceil() as usize).max(1);
        Segment { a, b, len, steps }
    }

    /// The samples that can fall inside `[0, width] × [0, height]`, as a
    /// range of sample indices. Node coordinates are untrusted `i64`s, so a
    /// segment can be 10¹⁵ px long: one that leaves the die is clipped to it
    /// (with a sample of slack either side against rounding), which bounds
    /// every walk by the raster's diagonal.
    fn inside(&self, width: usize, height: usize) -> Range<usize> {
        let (w, h) = (width as f64, height as f64);
        let within = |p: (f64, f64)| (0.0..=w).contains(&p.0) && (0.0..=h).contains(&p.1);
        if within(self.a) && within(self.b) {
            return 0..self.steps;
        }
        let (mut t0, mut t1) = (0.0f64, 1.0f64);
        for (p, q, extent) in [(self.a.0, self.b.0, w), (self.a.1, self.b.1, h)] {
            if p != q {
                let (u, v) = ((0.0 - p) / (q - p), (extent - p) / (q - p));
                t0 = t0.max(u.min(v));
                t1 = t1.min(u.max(v));
            } else if !(0.0..=extent).contains(&p) {
                return 0..0; // runs along the die, beside it
            }
        }
        let first = (t0 * self.steps as f64 - 0.5).floor() - 1.0;
        let end = (t1 * self.steps as f64 - 0.5).ceil() + 2.0;
        // (`as usize` takes a negative bound to 0.)
        first as usize..(end as usize).min(self.steps)
    }

    /// Mid-point of sample `s`.
    fn at(&self, s: usize) -> (f64, f64) {
        let (a, b) = (self.a, self.b);
        let t = (s as f64 + 0.5) / self.steps as f64;
        (a.0 + (b.0 - a.0) * t, a.1 + (b.1 - a.1) * t)
    }
}

/// Current map: per-pixel drawn current (A), directly from the power map.
///
/// This is the contest's `current_map.csv` equivalent.
#[must_use]
pub fn current_map(power: &PowerMap) -> Raster {
    let data = power.data().iter().map(|&v| v as f32).collect();
    Raster::from_vec(power.width(), power.height(), data)
}

/// Voltage-source map: pad values splatted at pad pixel positions
/// (one of the paper's additional channels).
#[must_use]
pub fn voltage_source_map(
    netlist: &Netlist,
    width: usize,
    height: usize,
    dbu_per_um: i64,
) -> Raster {
    let mut r = Raster::zeros(width, height);
    for e in netlist.iter() {
        if e.kind == ElementKind::VoltageSource {
            if let Some(n) = e.a.name().or_else(|| e.b.name()) {
                r.splat(
                    to_px(n.x, dbu_per_um),
                    to_px(n.y, dbu_per_um),
                    e.value as f32,
                );
            }
        }
    }
    r
}

/// Current-source map: tap values splatted at tap pixel positions
/// (one of the paper's additional channels).
#[must_use]
pub fn current_source_map(
    netlist: &Netlist,
    width: usize,
    height: usize,
    dbu_per_um: i64,
) -> Raster {
    let mut r = Raster::zeros(width, height);
    for e in netlist.iter() {
        if e.kind == ElementKind::CurrentSource {
            if let Some(n) = e.a.name().or_else(|| e.b.name()) {
                r.splat(
                    to_px(n.x, dbu_per_um),
                    to_px(n.y, dbu_per_um),
                    e.value as f32,
                );
            }
        }
    }
    r
}

/// Effective-distance map (paper §III-A): for each pixel, the reciprocal of
/// the sum of inverse Euclidean distances to every voltage source:
/// `d_eff = 1 / Σ_i (1 / d_i)`.
///
/// Pixels surrounded by many nearby pads get small values; pad-starved
/// regions get large values — the strongest single predictor of IR drop.
#[must_use]
pub fn effective_distance_map(
    netlist: &Netlist,
    width: usize,
    height: usize,
    dbu_per_um: i64,
) -> Raster {
    let pads: Vec<(f64, f64)> = netlist
        .iter()
        .filter(|e| e.kind == ElementKind::VoltageSource)
        .filter_map(|e| e.a.name().or_else(|| e.b.name()))
        .map(|n| position_um(n, dbu_per_um))
        .collect();
    let mut r = Raster::zeros(width, height);
    if pads.is_empty() || width == 0 {
        return r;
    }
    // O(W·H·pads) and every pixel independent: fan scanlines out across the
    // pool (each row is written by the same code at any thread count) once
    // there are 2^18 pixel·pad terms (~2 ns each: a sqrt and a divide), i.e.
    // ~0.5 ms of work for a fork that costs 30–100 µs.
    //
    // Within a row the pads are the outer loop and the pixels the inner one,
    // so the sqrt and the divide run packed over a row of accumulators while
    // every pixel still adds its pads in netlist order, from 0.0: the sum is
    // the one the per-pixel definition produces, bit for bit.
    let px: Vec<f64> = (0..width).map(|x| x as f64 + 0.5).collect();
    let fill_rows = |y0: usize, rows: &mut [f32]| {
        let mut inv_sum = vec![0.0f64; width];
        for (dy, row) in rows.chunks_mut(width).enumerate() {
            let py = (y0 + dy) as f64 + 0.5;
            inv_sum.fill(0.0);
            for &(vx, vy) in &pads {
                let dy2 = (py - vy).powi(2);
                for (sum, px) in inv_sum.iter_mut().zip(&px) {
                    *sum += 1.0 / ((px - vx).powi(2) + dy2).sqrt().max(0.5);
                }
            }
            for (out, sum) in row.iter_mut().zip(&inv_sum) {
                *out = (1.0 / sum) as f32;
            }
        }
    };
    if lmmir_par::worth_parallelizing(height, width * height * pads.len(), 1 << 18) {
        lmmir_par::par_chunks_mut(r.data_mut(), width, fill_rows);
    } else {
        fill_rows(0, r.data_mut());
    }
    r
}

/// PDN-density map: mean stripe spacing per tile (µm), following IREDGe.
///
/// Wire length per tile is accumulated from all non-via resistor segments;
/// the per-tile spacing estimate is `2 · tile_area / wire_length` (the
/// factor 2 accounts for the two routing directions). Empty tiles receive
/// the tile diagonal as an upper bound.
#[must_use]
pub fn pdn_density_map(netlist: &Netlist, width: usize, height: usize, dbu_per_um: i64) -> Raster {
    let tile = 8usize.min(width.max(1)).min(height.max(1));
    let tiles_x = width.div_ceil(tile);
    let tiles_y = height.div_ceil(tile);
    let mut wire_len = vec![0.0f64; tiles_x * tiles_y];
    for e in netlist.iter() {
        if e.kind != ElementKind::Resistor || e.is_via() {
            continue;
        }
        let (Some(a), Some(b)) = (e.a.name(), e.b.name()) else {
            continue;
        };
        // Walk the segment in 1 px steps, attributing length to tiles.
        let seg = Segment::new(a, b, dbu_per_um);
        for s in seg.inside(width, height) {
            let (x, y) = seg.at(s);
            let tx = ((x / tile as f64) as usize).min(tiles_x - 1);
            let ty = ((y / tile as f64) as usize).min(tiles_y - 1);
            wire_len[ty * tiles_x + tx] += seg.len / seg.steps as f64;
        }
    }
    let tile_area = (tile * tile) as f64;
    let diag = (2.0f64).sqrt() * tile as f64;
    let mut r = Raster::zeros(width, height);
    for y in 0..height {
        for x in 0..width {
            let tx = (x / tile).min(tiles_x - 1);
            let ty = (y / tile).min(tiles_y - 1);
            let wl = wire_len[ty * tiles_x + tx];
            let spacing = if wl > 0.0 {
                (2.0 * tile_area / wl).min(diag)
            } else {
                diag
            };
            r.set(x, y, spacing as f32);
        }
    }
    r
}

/// Resistance map: every resistor's value spread uniformly over the pixels
/// its segment covers; vias contribute at their single (x, y) pixel
/// (one of the paper's additional channels).
#[must_use]
pub fn resistance_map(netlist: &Netlist, width: usize, height: usize, dbu_per_um: i64) -> Raster {
    let mut r = Raster::zeros(width, height);
    for e in netlist.iter() {
        if e.kind != ElementKind::Resistor {
            continue;
        }
        let (Some(a), Some(b)) = (e.a.name(), e.b.name()) else {
            continue;
        };
        if e.is_via() {
            r.splat(
                to_px(a.x, dbu_per_um),
                to_px(a.y, dbu_per_um),
                e.value as f32,
            );
            continue;
        }
        let seg = Segment::new(a, b, dbu_per_um);
        let per = (e.value / seg.steps as f64) as f32;
        for s in seg.inside(width, height) {
            let (x, y) = seg.at(s);
            r.splat(x.floor() as isize, y.floor() as isize, per);
        }
    }
    r
}

/// Ground-truth IR-drop map: rasterizes the solved drop of every lowest-
/// layer node (max per pixel), then fills uncovered pixels by neighbour
/// averaging so the target is dense like the contest CSV ground truth.
#[must_use]
pub fn ir_drop_map(
    ir: &IrDrop,
    netlist: &Netlist,
    width: usize,
    height: usize,
    dbu_per_um: i64,
) -> Raster {
    let mut r = Raster::zeros(width, height);
    let mut filled = vec![false; width * height];
    let Some(low) = lowest_layer(netlist) else {
        return r;
    };
    let mut splat_max = |n: &NodeName, drop: f64| {
        let (x, y) = (to_px(n.x, dbu_per_um), to_px(n.y, dbu_per_um));
        if x >= 0 && y >= 0 && (x as usize) < width && (y as usize) < height {
            let ix = y as usize * width + x as usize;
            let v = drop as f32;
            if !filled[ix] || v > r.data()[ix] {
                r.data_mut()[ix] = v;
            }
            filled[ix] = true;
        }
    };
    for (node, drop) in ir.iter_drops() {
        if node.layer == low {
            splat_max(node, drop);
        }
    }
    fill_holes(&mut r, &mut filled);
    r
}

/// Hole filling: every uncovered pixel becomes the average of its filled
/// 4-neighbours, repeated until the raster is dense (used by the solved-map
/// rasterizers, which only cover pixels that carry a lowest-layer node).
pub(crate) fn fill_holes(r: &mut Raster, filled: &mut [bool]) {
    let (width, height) = (r.width(), r.height());
    let mut remaining: usize = filled.iter().filter(|&&f| !f).count();
    let mut guard = width + height + 2;
    while remaining > 0 && guard > 0 {
        guard -= 1;
        let snapshot = filled.to_vec();
        let values = r.data().to_vec();
        for y in 0..height {
            for x in 0..width {
                let ix = y * width + x;
                if snapshot[ix] {
                    continue;
                }
                let mut sum = 0.0f32;
                let mut cnt = 0u32;
                if x > 0 && snapshot[ix - 1] {
                    sum += values[ix - 1];
                    cnt += 1;
                }
                if x + 1 < width && snapshot[ix + 1] {
                    sum += values[ix + 1];
                    cnt += 1;
                }
                if y > 0 && snapshot[ix - width] {
                    sum += values[ix - width];
                    cnt += 1;
                }
                if y + 1 < height && snapshot[ix + width] {
                    sum += values[ix + width];
                    cnt += 1;
                }
                if cnt > 0 {
                    r.data_mut()[ix] = sum / cnt as f32;
                    filled[ix] = true;
                    remaining -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec, PdnTech};

    fn case() -> lmmir_pdn::Case {
        CaseSpec::new("t", 24, 24, 11, CaseKind::Fake).generate()
    }

    #[test]
    fn current_map_matches_power() {
        let c = case();
        let m = current_map(&c.power);
        assert_eq!(m.width(), 24);
        let total: f32 = m.data().iter().sum();
        assert!((f64::from(total) - c.power.total()).abs() < 1e-3);
    }

    #[test]
    fn source_maps_conserve_totals() {
        let c = case();
        let dbu = c.tech.dbu_per_um;
        let im = current_source_map(&c.netlist, 24, 24, dbu);
        assert!(
            (f64::from(im.data().iter().sum::<f32>()) - c.netlist.total_current()).abs() < 1e-3
        );
        let vm = voltage_source_map(&c.netlist, 24, 24, dbu);
        let pads = c.netlist.stats().voltage_sources as f32;
        assert!((vm.data().iter().sum::<f32>() - pads * 1.1).abs() < 1e-3);
    }

    #[test]
    fn effective_distance_minimal_at_pad() {
        let nl = lmmir_spice::Netlist::parse_str("V1 n1_m9_24000_24000 0 1.1\n").unwrap();
        let m = effective_distance_map(&nl, 24, 24, 2000);
        // pad at (12, 12) µm
        let at_pad = m.at(12, 12);
        let far = m.at(0, 0);
        assert!(
            at_pad < far,
            "distance grows away from pad: {at_pad} vs {far}"
        );
        // monotone along the diagonal
        assert!(m.at(6, 6) < m.at(2, 2));
    }

    #[test]
    fn effective_distance_empty_without_pads() {
        let nl = lmmir_spice::Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2000_0 1.0\n").unwrap();
        let m = effective_distance_map(&nl, 8, 8, 2000);
        assert_eq!(m.max(), 0.0);
    }

    #[test]
    fn more_pads_reduce_effective_distance() {
        let one = lmmir_spice::Netlist::parse_str("V1 n1_m9_8000_8000 0 1.1\n").unwrap();
        let two = lmmir_spice::Netlist::parse_str(
            "V1 n1_m9_8000_8000 0 1.1\nV2 n1_m9_40000_40000 0 1.1\n",
        )
        .unwrap();
        let m1 = effective_distance_map(&one, 24, 24, 2000);
        let m2 = effective_distance_map(&two, 24, 24, 2000);
        for (a, b) in m1.data().iter().zip(m2.data()) {
            assert!(b <= a, "adding a pad cannot increase effective distance");
        }
    }

    /// `pads` voltage sources scattered over a `side` µm die by a fixed
    /// LCG; the first sits exactly on a pixel centre (distance 0, clamped).
    fn scattered_pads(pads: usize, side: usize) -> Netlist {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut coordinate = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as i64 % (side as i64 * 2000 + 1)
        };
        (0..pads)
            .map(|i| {
                let (x, y) = match i {
                    0 => (1000, 1000),
                    _ => (coordinate(), coordinate()),
                };
                lmmir_spice::Element::new(
                    format!("V{i}"),
                    ElementKind::VoltageSource,
                    lmmir_spice::NodeRef::Node(NodeName::new(1, 9, x, y)),
                    lmmir_spice::NodeRef::Ground,
                    1.1,
                )
            })
            .collect()
    }

    #[test]
    fn effective_distance_equals_the_per_pixel_definition_bitwise() {
        for side in [1usize, 7, 192] {
            for pads in [0usize, 1, 213] {
                let nl = scattered_pads(pads, side);
                // d_eff = 1 / Σ 1/max(d_i, 0.5), pixel by pixel, pads in
                // netlist order; all zero without a pad.
                let mut expected = Raster::zeros(side, side);
                for y in 0..side {
                    for x in (0..side).filter(|_| pads > 0) {
                        let (px, py) = (x as f64 + 0.5, y as f64 + 0.5);
                        let mut inv_sum = 0.0f64;
                        for e in nl.iter() {
                            let n = e.a.name().unwrap();
                            let (vx, vy) = (n.x as f64 / 2000.0, n.y as f64 / 2000.0);
                            let d = ((px - vx).powi(2) + (py - vy).powi(2)).sqrt().max(0.5);
                            inv_sum += 1.0 / d;
                        }
                        expected.set(x, y, (1.0 / inv_sum) as f32);
                    }
                }
                for threads in [1usize, 2, 7] {
                    let got = lmmir_par::with_threads(threads, || {
                        effective_distance_map(&nl, side, side, 2000)
                    });
                    let bits =
                        |r: &Raster| r.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&expected),
                        "{side} px, {pads} pads, {threads} threads"
                    );
                }
            }
        }
    }

    /// The 1 px walk of `resistance_map` before it was clipped to the raster:
    /// every sample of every segment, however far outside it lies.
    fn resistance_map_unclipped(netlist: &Netlist, width: usize, height: usize) -> Raster {
        let mut r = Raster::zeros(width, height);
        for e in netlist.iter() {
            let (a, b) = (e.a.name().unwrap(), e.b.name().unwrap());
            let (ax, ay) = (a.x as f64 / 2000.0, a.y as f64 / 2000.0);
            let (bx, by) = (b.x as f64 / 2000.0, b.y as f64 / 2000.0);
            let len = ((bx - ax).powi(2) + (by - ay).powi(2)).sqrt();
            let steps = (len.ceil() as usize).max(1);
            let per = (e.value / steps as f64) as f32;
            for s in 0..steps {
                let t = (s as f64 + 0.5) / steps as f64;
                r.splat(
                    (ax + (bx - ax) * t).floor() as isize,
                    (ay + (by - ay) * t).floor() as isize,
                    per,
                );
            }
        }
        r
    }

    #[test]
    fn clipped_walk_visits_every_sample_inside_the_raster() {
        // Segments that start, end or pass outside a 16 × 12 µm die: along
        // its edges, through its corners, diagonally across, beside it.
        let far = [
            -70_000i64, -4_000, -1, 0, 1, 9_000, 24_000, 32_000, 33_000, 150_000,
        ];
        let mut src = String::new();
        for (i, &x0) in far.iter().enumerate() {
            for (j, &y1) in far.iter().enumerate() {
                let (y0, x1) = (far[(i + 3) % far.len()], far[(j + 7) % far.len()]);
                src += &format!("R{i}_{j} n1_m1_{x0}_{y0} n1_m1_{x1}_{y1} 1.5\n");
            }
        }
        let nl = Netlist::parse_str(&src).unwrap();
        let clipped = resistance_map(&nl, 16, 12, 2000);
        assert_eq!(clipped.data(), resistance_map_unclipped(&nl, 16, 12).data());
        assert!(clipped.max() > 0.0);
    }

    #[test]
    fn a_segment_to_a_far_coordinate_is_walked_in_raster_time() {
        // One resistor line used to cost ~10¹⁰ loop trips per map (minutes;
        // `i64::MAX` would not finish); the walk is now bounded by the raster.
        for x in ["20000000000000", "-20000000000000", "9223372036854775807"] {
            let line = format!("R1 n1_m1_0_0 n1_m1_{x}_0 1.0\nV1 n1_m1_0_0 0 1.1\n");
            let nl = Netlist::parse_str(&line).unwrap();
            let started = std::time::Instant::now();
            let r = resistance_map(&nl, 8, 8, 2000);
            let d = pdn_density_map(&nl, 8, 8, 2000);
            let stack = crate::FeatureStack::extended_parts(&PowerMap::zeros(8, 8), &nl, 2000);
            assert!(
                started.elapsed() < std::time::Duration::from_secs(1),
                "x = {x}: {:?}",
                started.elapsed()
            );
            assert_eq!(stack.channels(), 6);
            assert!(d.data().iter().all(|v| v.is_finite()));
            // Only a positive x passes through the raster, along its row 0.
            let row0: f32 = r.data()[..8].iter().sum();
            assert_eq!(row0 > 0.0, !x.starts_with('-'), "x = {x}");
            assert!(r.data()[8..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn density_map_reflects_pitch() {
        // Halve all pitches => denser grid => smaller mean spacing.
        let c = case();
        let mut dense_tech = PdnTech::standard();
        for l in &mut dense_tech.layers {
            l.pitch_um *= 0.5;
        }
        let dense_nl = lmmir_pdn::build_netlist(&dense_tech, &c.power, &Default::default());
        let d0 = pdn_density_map(&c.netlist, 24, 24, 2000);
        let d1 = pdn_density_map(&dense_nl, 24, 24, 2000);
        assert!(
            d1.mean() < d0.mean(),
            "denser grid must have smaller spacing: {} vs {}",
            d1.mean(),
            d0.mean()
        );
    }

    #[test]
    fn resistance_map_conserves_total() {
        let c = case();
        let m = resistance_map(&c.netlist, 24, 24, c.tech.dbu_per_um);
        let total_r: f64 = c
            .netlist
            .iter()
            .filter(|e| e.kind == ElementKind::Resistor)
            .map(|e| e.value)
            .sum();
        let map_total = f64::from(m.data().iter().sum::<f32>());
        // Some segment mass can fall outside the raster at the boundary.
        assert!(
            (map_total - total_r).abs() / total_r < 0.05,
            "map {map_total} vs netlist {total_r}"
        );
    }

    #[test]
    fn ir_map_is_dense_and_bounded() {
        let c = case();
        let ir = c.solve().unwrap();
        let m = ir_drop_map(&ir, &c.netlist, 24, 24, c.tech.dbu_per_um);
        assert!(m.data().iter().all(|v| v.is_finite()));
        let worst = ir.worst_drop() as f32;
        assert!(m.max() <= worst + 1e-6);
        assert!(m.max() > 0.0);
        // Dense: no pixel left exactly at the 0 sentinel in the hot region.
        assert!(m.mean() > 0.0);
    }

    #[test]
    fn ir_map_peak_collocated_with_hot_region() {
        let c = case();
        let ir = c.solve().unwrap();
        let m = ir_drop_map(&ir, &c.netlist, 24, 24, c.tech.dbu_per_um);
        // The argmax pixel of the IR map should have above-average current
        // or above-average effective distance (it is caused by one of them).
        let (mut bx, mut by, mut best) = (0, 0, f32::NEG_INFINITY);
        for y in 0..24 {
            for x in 0..24 {
                if m.at(x, y) > best {
                    best = m.at(x, y);
                    bx = x;
                    by = y;
                }
            }
        }
        let cm = current_map(&c.power);
        let ed = effective_distance_map(&c.netlist, 24, 24, c.tech.dbu_per_um);
        assert!(
            cm.at(bx, by) > cm.mean() || ed.at(bx, by) > ed.mean(),
            "worst-drop pixel should be hot or pad-starved"
        );
    }
}
