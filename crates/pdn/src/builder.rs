//! PDN netlist construction from a technology, chip extent and power map.
//!
//! The generated network mirrors the structure of the contest PDNs:
//!
//! * each metal layer contributes parallel stripes (rails) at its pitch;
//! * adjacent layers are connected by via resistors at stripe crossings;
//! * every power-map pixel becomes a current source tapped onto the nearest
//!   `m1` rail;
//! * C4 pads (ideal voltage sources) sit on a coarse grid on the top layer,
//!   optionally with a keep-out region to create pad-starved areas with
//!   large effective distance (the hard cases for IR prediction).

use crate::power::PowerMap;
use crate::tech::{LayerDir, PdnTech};
use lmmir_spice::{Element, ElementKind, Netlist, NodeName, NodeRef};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Options modulating a single generated benchmark.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BuildOptions {
    /// Pad pitch override (µm); defaults to the technology pitch.
    pub pad_pitch_um: Option<f64>,
    /// Pad keep-out rectangle as chip fractions `(x0, y0, x1, y1)`; pads
    /// inside the rectangle are removed (at least one pad always remains).
    pub pad_keepout: Option<(f64, f64, f64, f64)>,
    /// Weak-via region: vias inside the fractional rectangle get their
    /// resistance multiplied by the factor. Models a degraded via array —
    /// a defect that is crisply visible in the netlist (per-via values and
    /// layers) but only faintly in aggregated image channels, making it a
    /// probe for netlist-aware predictors.
    pub weak_via_region: Option<((f64, f64, f64, f64), f64)>,
    /// Additional C4 pads at explicit µm positions (snapped to the nearest
    /// top-layer node). Used by the what-if PDN-fixing loop.
    pub extra_pads: Vec<(f64, f64)>,
}

/// Key of a physical PDN node.
type NodeKey = (u8, i64, i64); // (layer, x_dbu, y_dbu)

fn node(net: u32, key: NodeKey) -> NodeRef {
    NodeRef::Node(NodeName::new(net, key.0, key.1, key.2))
}

/// Snaps `v` to the nearest element of a sorted slice.
fn snap(sorted: &[i64], v: i64) -> i64 {
    match sorted.binary_search(&v) {
        Ok(i) => sorted[i],
        Err(0) => sorted[0],
        Err(i) if i == sorted.len() => sorted[sorted.len() - 1],
        Err(i) => {
            if v - sorted[i - 1] <= sorted[i] - v {
                sorted[i - 1]
            } else {
                sorted[i]
            }
        }
    }
}

/// Builds a PDN netlist.
///
/// The power map's pixel grid is interpreted at 1 µm/pixel; its extent
/// defines the chip extent.
///
/// # Panics
///
/// Panics when the technology fails validation — generator configurations
/// are programmer-controlled, so this is a contract violation rather than a
/// runtime condition.
#[must_use]
pub fn build_netlist(tech: &PdnTech, power: &PowerMap, opts: &BuildOptions) -> Netlist {
    tech.validate().expect("valid PDN technology");
    let width_um = power.width() as f64;
    let height_um = power.height() as f64;
    let net = 1u32;

    // Stripe cross-positions per layer, in DBU.
    let stripes_dbu: Vec<Vec<i64>> = tech
        .layers
        .iter()
        .map(|l| {
            let extent = match l.dir {
                LayerDir::Horizontal => height_um,
                LayerDir::Vertical => width_um,
            };
            tech.stripe_positions(l, extent)
                .into_iter()
                .map(|p| tech.to_dbu(p))
                .collect()
        })
        .collect();

    // Per-layer, per-stripe ordered node positions along the stripe axis.
    // stripe key = cross coordinate (DBU); positions = along coordinate.
    let mut rails: Vec<BTreeMap<i64, BTreeSet<i64>>> = vec![BTreeMap::new(); tech.layers.len()];

    // 1. Via crossings between adjacent layers.
    let mut vias: Vec<(NodeKey, NodeKey, f64)> = Vec::new();
    for li in 0..tech.layers.len() - 1 {
        let (a, b) = (&tech.layers[li], &tech.layers[li + 1]);
        let (h_idx, v_idx) = match a.dir {
            LayerDir::Horizontal => (li, li + 1),
            LayerDir::Vertical => (li + 1, li),
        };
        let ys = stripes_dbu[h_idx].clone();
        let xs = stripes_dbu[v_idx].clone();
        for &y in &ys {
            for &x in &xs {
                // Register the crossing node on both layers.
                for (idx, layer) in [(li, a), (li + 1, b)] {
                    let (stripe, along) = match layer.dir {
                        LayerDir::Horizontal => (y, x),
                        LayerDir::Vertical => (x, y),
                    };
                    rails[idx].entry(stripe).or_default().insert(along);
                }
                let mut r = tech.via_res[li];
                if let Some((rect, factor)) = opts.weak_via_region {
                    let fx = tech.to_um(x) / width_um;
                    let fy = tech.to_um(y) / height_um;
                    if fx >= rect.0 && fx <= rect.2 && fy >= rect.1 && fy <= rect.3 {
                        r *= factor;
                    }
                }
                vias.push(((a.id, x, y), (b.id, x, y), r));
            }
        }
    }

    // 2. Current-source taps on m1.
    let m1 = &tech.layers[0];
    debug_assert_eq!(
        m1.dir,
        LayerDir::Horizontal,
        "standard stack has horizontal m1"
    );
    let m1_ys = &stripes_dbu[0];
    let mut loads: HashMap<NodeKey, f64> = HashMap::new();
    for py in 0..power.height() {
        for px in 0..power.width() {
            let current = power.at(px, py);
            if current <= 0.0 {
                continue;
            }
            let x = tech.to_dbu(px as f64 + 0.5);
            let y = snap(m1_ys, tech.to_dbu(py as f64 + 0.5));
            rails[0].entry(y).or_default().insert(x);
            *loads.entry((m1.id, x, y)).or_insert(0.0) += current;
        }
    }

    // 3. Pads on the top layer, snapped to existing crossing nodes.
    let top_idx = tech.layers.len() - 1;
    let top = &tech.layers[top_idx];
    let pad_pitch = opts.pad_pitch_um.unwrap_or(tech.pad_pitch_um);
    let mut pad_nodes: BTreeSet<NodeKey> = BTreeSet::new();
    {
        // All existing top-layer node coordinates.
        let stripe_keys: Vec<i64> = rails[top_idx].keys().copied().collect();
        let snap_pad = |px: f64, py: f64, rails_top: &BTreeMap<i64, BTreeSet<i64>>| -> NodeKey {
            let (want_stripe, want_along) = match top.dir {
                LayerDir::Horizontal => (tech.to_dbu(py), tech.to_dbu(px)),
                LayerDir::Vertical => (tech.to_dbu(px), tech.to_dbu(py)),
            };
            let stripe = snap(&stripe_keys, want_stripe);
            let alongs: Vec<i64> = rails_top[&stripe].iter().copied().collect();
            let along = snap(&alongs, want_along);
            match top.dir {
                LayerDir::Horizontal => (top.id, along, stripe),
                LayerDir::Vertical => (top.id, stripe, along),
            }
        };
        let mut px = pad_pitch * 0.5;
        while px < width_um || pad_nodes.is_empty() {
            let mut py = pad_pitch * 0.5;
            while py < height_um || pad_nodes.is_empty() {
                if let Some(kq) = opts.pad_keepout {
                    let (fx, fy) = (px / width_um, py / height_um);
                    if fx >= kq.0 && fx <= kq.2 && fy >= kq.1 && fy <= kq.3 {
                        py += pad_pitch;
                        if py >= height_um && !pad_nodes.is_empty() {
                            break;
                        }
                        continue;
                    }
                }
                pad_nodes.insert(snap_pad(px, py, &rails[top_idx]));
                py += pad_pitch;
            }
            px += pad_pitch;
            if px >= width_um && !pad_nodes.is_empty() {
                break;
            }
        }
        // Explicit what-if pads (no keep-out filtering: the designer asked).
        for &(ex, ey) in &opts.extra_pads {
            pad_nodes.insert(snap_pad(ex, ey, &rails[top_idx]));
        }
    }

    // 4. Emit elements: wire resistors, vias, loads, pads.
    let mut netlist = Netlist::new();
    let mut rid = 0usize;
    for (li, layer) in tech.layers.iter().enumerate() {
        for (&stripe, alongs) in &rails[li] {
            let mut prev: Option<i64> = None;
            for &along in alongs {
                if let Some(p) = prev {
                    let dist_um = tech.to_um(along - p);
                    if dist_um > 0.0 {
                        let r = dist_um * layer.res_per_um;
                        let (a, b) = match layer.dir {
                            LayerDir::Horizontal => {
                                ((layer.id, p, stripe), (layer.id, along, stripe))
                            }
                            LayerDir::Vertical => {
                                ((layer.id, stripe, p), (layer.id, stripe, along))
                            }
                        };
                        netlist.push(Element::new(
                            format!("R{rid}"),
                            ElementKind::Resistor,
                            node(net, a),
                            node(net, b),
                            r,
                        ));
                        rid += 1;
                    }
                }
                prev = Some(along);
            }
        }
    }
    for (a, b, r) in vias {
        netlist.push(Element::new(
            format!("R{rid}"),
            ElementKind::Resistor,
            node(net, a),
            node(net, b),
            r,
        ));
        rid += 1;
    }
    let mut load_keys: Vec<NodeKey> = loads.keys().copied().collect();
    load_keys.sort_unstable();
    for (i, key) in load_keys.iter().enumerate() {
        netlist.push(Element::new(
            format!("I{i}"),
            ElementKind::CurrentSource,
            node(net, *key),
            NodeRef::Ground,
            loads[key],
        ));
    }
    for (i, key) in pad_nodes.iter().enumerate() {
        netlist.push(Element::new(
            format!("V{i}"),
            ElementKind::VoltageSource,
            node(net, *key),
            NodeRef::Ground,
            tech.vdd,
        ));
    }
    netlist
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_solver::solve_ir_drop;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_power(seed: u64) -> PowerMap {
        let mut rng = StdRng::seed_from_u64(seed);
        PowerMap::synth(24, 24, 2, 0.5, &mut rng)
    }

    #[test]
    fn generated_netlist_has_all_element_kinds() {
        let nl = build_netlist(
            &PdnTech::standard(),
            &small_power(0),
            &BuildOptions::default(),
        );
        let s = nl.stats();
        assert!(s.resistors > 100, "resistors {}", s.resistors);
        assert!(s.vias > 10, "vias {}", s.vias);
        assert!(s.current_sources > 100);
        assert!(s.voltage_sources >= 1);
        assert_eq!(s.layers, 4);
    }

    #[test]
    fn generated_netlist_is_solvable() {
        let nl = build_netlist(
            &PdnTech::standard(),
            &small_power(1),
            &BuildOptions::default(),
        );
        let ir = solve_ir_drop(&nl).unwrap();
        let worst = ir.worst_drop();
        assert!(worst > 0.0, "some drop expected");
        assert!(
            worst < 0.5 * 1.1,
            "drop {worst} should stay below half the supply"
        );
    }

    #[test]
    fn snap_picks_nearest() {
        let s = [0i64, 10, 20];
        assert_eq!(snap(&s, -5), 0);
        assert_eq!(snap(&s, 4), 0);
        assert_eq!(snap(&s, 6), 10);
        assert_eq!(snap(&s, 10), 10);
        assert_eq!(snap(&s, 99), 20);
    }

    fn wide_power(seed: u64) -> PowerMap {
        let mut rng = StdRng::seed_from_u64(seed);
        PowerMap::synth(48, 48, 3, 1.5, &mut rng)
    }

    #[test]
    fn pad_keepout_removes_pads_in_region() {
        let tech = PdnTech::standard();
        let with = build_netlist(&tech, &wide_power(2), &BuildOptions::default());
        let without = build_netlist(
            &tech,
            &wide_power(2),
            &BuildOptions {
                pad_keepout: Some((0.0, 0.0, 0.6, 0.6)),
                ..Default::default()
            },
        );
        assert!(
            without.stats().voltage_sources < with.stats().voltage_sources,
            "keepout should remove pads"
        );
        assert!(without.stats().voltage_sources >= 1);
    }

    #[test]
    fn keepout_increases_worst_drop() {
        let tech = PdnTech::standard();
        let base = build_netlist(&tech, &wide_power(3), &BuildOptions::default());
        let starved = build_netlist(
            &tech,
            &wide_power(3),
            &BuildOptions {
                pad_keepout: Some((0.0, 0.0, 0.7, 0.7)),
                ..Default::default()
            },
        );
        let d0 = solve_ir_drop(&base).unwrap().worst_drop();
        let d1 = solve_ir_drop(&starved).unwrap().worst_drop();
        assert!(d1 > d0, "pad-starved region should sag more: {d1} vs {d0}");
    }

    #[test]
    fn denser_pads_reduce_drop() {
        let tech = PdnTech::standard();
        let sparse = build_netlist(
            &tech,
            &small_power(4),
            &BuildOptions {
                pad_pitch_um: Some(24.0),
                ..Default::default()
            },
        );
        let dense = build_netlist(
            &tech,
            &small_power(4),
            &BuildOptions {
                pad_pitch_um: Some(8.0),
                ..Default::default()
            },
        );
        let ds = solve_ir_drop(&sparse).unwrap().worst_drop();
        let dd = solve_ir_drop(&dense).unwrap().worst_drop();
        assert!(dd < ds, "denser pads must reduce drop: {dd} vs {ds}");
    }

    #[test]
    fn total_load_current_preserved() {
        let p = small_power(5);
        let nl = build_netlist(&PdnTech::standard(), &p, &BuildOptions::default());
        assert!((nl.total_current() - p.total()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_output() {
        let a = build_netlist(
            &PdnTech::standard(),
            &small_power(6),
            &BuildOptions::default(),
        );
        let b = build_netlist(
            &PdnTech::standard(),
            &small_power(6),
            &BuildOptions::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_chip_still_builds() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = PowerMap::synth(4, 4, 1, 0.01, &mut rng);
        let nl = build_netlist(&PdnTech::standard(), &p, &BuildOptions::default());
        assert!(nl.stats().voltage_sources >= 1);
        assert!(solve_ir_drop(&nl).is_ok());
    }
}
