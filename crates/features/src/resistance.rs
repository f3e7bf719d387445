//! Comprehensive features (CFIRSTNET, arXiv:2502.12168): PDN-graph-derived
//! maps that go beyond geometric proxies.
//!
//! Two channels computed from the *electrical* structure of the netlist:
//!
//! * [`effective_resistance_map`] — the voltage response of every node to a
//!   uniform unit current draw, i.e. one solve of the stamped conductance
//!   system against a uniform injection vector. Nodes that are electrically
//!   far from the pads (high effective resistance to the supply) light up;
//!   this is CFIRSTNET's strongest feature.
//! * [`pad_distance_map`] — the shortest *resistive* path from every node to
//!   its nearest pad: a deterministic multi-source Dijkstra over the
//!   resistor graph with edge weight = resistance.
//!
//! Both maps rasterize like the golden IR map: node values splat onto the
//! lowest metal layer (max/min per pixel) and holes fill by neighbour
//! averaging. Both are bitwise thread-count invariant: the solver's factor
//! and solve are sequential, and so is the graph walk, with a total-order
//! heap.

use crate::maps::{fill_holes, lowest_layer, to_px};
use crate::raster::Raster;
use lmmir_solver::{stamp, Cholesky, PdnSystem};
use lmmir_spice::{ElementKind, Netlist, NodeName};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Splat policy for [`rasterize_nodes`]: keep the extreme value per pixel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Extreme {
    Max,
    Min,
}

/// Rasterizes `(node, value)` pairs on the lowest metal layer, keeping the
/// max (or min) per covered pixel, then fills uncovered pixels by repeated
/// 4-neighbour averaging (same densification as the golden IR map).
fn rasterize_nodes(
    nodes: impl Iterator<Item = (NodeName, f64)>,
    low: u8,
    width: usize,
    height: usize,
    dbu_per_um: i64,
    keep: Extreme,
) -> Raster {
    let mut r = Raster::zeros(width, height);
    let mut filled = vec![false; width * height];
    for (n, value) in nodes {
        if n.layer != low {
            continue;
        }
        let (x, y) = (to_px(n.x, dbu_per_um), to_px(n.y, dbu_per_um));
        if x >= 0 && y >= 0 && (x as usize) < width && (y as usize) < height {
            let ix = y as usize * width + x as usize;
            let v = value as f32;
            let better = match keep {
                Extreme::Max => v > r.data()[ix],
                Extreme::Min => v < r.data()[ix],
            };
            if !filled[ix] || better {
                r.data_mut()[ix] = v;
            }
            filled[ix] = true;
        }
    }
    fill_holes(&mut r, &mut filled);
    r
}

/// Effective-resistance map: per-pixel voltage response of the PDN to a
/// uniform unit current draw spread over all non-pad nodes.
///
/// Stamps the netlist into its conductance system `G`, factors it, and
/// solves `G·x = b` against a uniform injection `1/n` per unknown in place
/// of the real current vector (see [`effective_resistance_solved`]).
/// Returns an all-zero raster when the netlist cannot be stamped or the
/// factor fails (e.g. no pads).
#[must_use]
pub fn effective_resistance_map(
    netlist: &Netlist,
    width: usize,
    height: usize,
    dbu_per_um: i64,
) -> Raster {
    let Ok(sys) = stamp(netlist) else {
        return Raster::zeros(width, height);
    };
    let Ok(factor) = sys.factor() else {
        return Raster::zeros(width, height);
    };
    effective_resistance_solved(netlist, &sys, &factor, width, height, dbu_per_um)
}

/// [`effective_resistance_map`] on a system the caller has already stamped
/// from `netlist` and factored — the golden flow's own factor serves both
/// solves. `x_i` is the superposed transfer resistance of node `i` towards
/// the pads: small next to a pad, large in pad-starved corners, and
/// independent of the workload's current pattern. Returns an all-zero
/// raster when the netlist has no metal layer or the solve fails.
#[must_use]
pub fn effective_resistance_solved(
    netlist: &Netlist,
    sys: &PdnSystem,
    factor: &Cholesky<'_>,
    width: usize,
    height: usize,
    dbu_per_um: i64,
) -> Raster {
    let n = sys.unknowns.len();
    let Some(low) = lowest_layer(netlist).filter(|_| n > 0) else {
        return Raster::zeros(width, height);
    };
    let Ok(x) = factor.solve(&vec![1.0 / n as f64; n]) else {
        return Raster::zeros(width, height);
    };
    let values = sys.unknowns.iter().copied().zip(x);
    rasterize_nodes(values, low, width, height, dbu_per_um, Extreme::Max)
}

/// Heap entry with a total order on `(distance, node id)` so pop order —
/// and therefore the float accumulation order — is deterministic.
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap pops the *smallest* distance first;
        // distances are finite, so `total_cmp` never sees a NaN surprise.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Shortest-path-to-pad map: per-pixel resistive distance to the nearest
/// pad through the PDN resistor graph (CFIRSTNET's second comprehensive
/// feature).
///
/// Multi-source Dijkstra from every pad node with edge weight = resistance.
/// Node ids are assigned by first appearance in the netlist and heap ties
/// break on the id, so the result is bit-for-bit reproducible. Returns an
/// all-zero raster when the netlist has no pads or no resistors.
#[must_use]
pub fn pad_distance_map(netlist: &Netlist, width: usize, height: usize, dbu_per_um: i64) -> Raster {
    let Some(low) = lowest_layer(netlist) else {
        return Raster::zeros(width, height);
    };
    // Node numbering by first appearance keeps everything deterministic.
    let mut ids: HashMap<NodeName, usize> = HashMap::new();
    let mut names: Vec<NodeName> = Vec::new();
    fn id_of(n: &NodeName, names: &mut Vec<NodeName>, ids: &mut HashMap<NodeName, usize>) -> usize {
        *ids.entry(*n).or_insert_with(|| {
            names.push(*n);
            names.len() - 1
        })
    }
    let mut adj: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut pads: Vec<usize> = Vec::new();
    for e in netlist.iter() {
        match e.kind {
            ElementKind::Resistor => {
                let (Some(a), Some(b)) = (e.a.name(), e.b.name()) else {
                    continue;
                };
                let ia = id_of(a, &mut names, &mut ids);
                let ib = id_of(b, &mut names, &mut ids);
                let need = ia.max(ib) + 1;
                if adj.len() < need {
                    adj.resize_with(need, Vec::new);
                }
                let w = e.value.max(0.0);
                adj[ia].push((ib, w));
                adj[ib].push((ia, w));
            }
            ElementKind::VoltageSource => {
                if let Some(n) = e.a.name().or_else(|| e.b.name()) {
                    let i = id_of(n, &mut names, &mut ids);
                    pads.push(i);
                }
            }
            ElementKind::CurrentSource => {}
        }
    }
    if pads.is_empty() || names.is_empty() {
        return Raster::zeros(width, height);
    }
    adj.resize_with(names.len(), Vec::new);
    let mut dist = vec![f64::INFINITY; names.len()];
    let mut heap = BinaryHeap::new();
    for &p in &pads {
        if dist[p] > 0.0 {
            dist[p] = 0.0;
            heap.push(HeapEntry { dist: 0.0, node: p });
        }
    }
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if d > dist[node] {
            continue;
        }
        for &(next, w) in &adj[node] {
            let nd = d + w;
            if nd < dist[next] {
                dist[next] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: next,
                });
            }
        }
    }
    let values = names
        .iter()
        .copied()
        .zip(dist.iter().copied())
        .filter(|(_, d)| d.is_finite());
    rasterize_nodes(values, low, width, height, dbu_per_um, Extreme::Min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec};

    fn case() -> lmmir_pdn::Case {
        CaseSpec::new("t", 24, 24, 11, CaseKind::Fake).generate()
    }

    /// A 1-D rail on m1: a pad at x=0 and four 1 Ω segments marching right.
    fn chain() -> Netlist {
        Netlist::parse_str(
            "V1 n1_m1_0_0 0 1.1\n\
             R1 n1_m1_0_0 n1_m1_2000_0 1.0\n\
             R2 n1_m1_2000_0 n1_m1_4000_0 1.0\n\
             R3 n1_m1_4000_0 n1_m1_6000_0 1.0\n\
             R4 n1_m1_6000_0 n1_m1_8000_0 1.0\n",
        )
        .unwrap()
    }

    #[test]
    fn pad_distance_counts_resistive_hops() {
        let m = pad_distance_map(&chain(), 5, 1, 2000);
        assert_eq!(m.at(0, 0), 0.0);
        assert_eq!(m.at(1, 0), 1.0);
        assert_eq!(m.at(4, 0), 4.0);
    }

    #[test]
    fn effective_resistance_grows_away_from_pad() {
        let m = effective_resistance_map(&chain(), 5, 1, 2000);
        assert!(m.data().iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(
            m.at(1, 0) < m.at(4, 0),
            "chain end must see more resistance: {} vs {}",
            m.at(1, 0),
            m.at(4, 0)
        );
    }

    #[test]
    fn maps_are_zero_without_pads() {
        let nl = Netlist::parse_str("R1 n1_m1_0_0 n1_m1_2000_0 1.0\n").unwrap();
        assert_eq!(pad_distance_map(&nl, 4, 4, 2000).max(), 0.0);
        assert_eq!(effective_resistance_map(&nl, 4, 4, 2000).max(), 0.0);
    }

    #[test]
    fn generated_case_maps_are_dense_and_positive() {
        let c = case();
        let er = effective_resistance_map(&c.netlist, 24, 24, c.tech.dbu_per_um);
        let pd = pad_distance_map(&c.netlist, 24, 24, c.tech.dbu_per_um);
        assert!(er.max() > 0.0, "case PDN must have nonzero resistance");
        assert!(pd.max() > 0.0, "some node must be away from the pads");
        assert!(er.data().iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(pd.data().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn maps_are_thread_count_invariant() {
        let c = case();
        let hashes: Vec<(u64, u64)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                lmmir_par::with_threads(t, || {
                    (
                        effective_resistance_map(&c.netlist, 24, 24, c.tech.dbu_per_um)
                            .content_hash(),
                        pad_distance_map(&c.netlist, 24, 24, c.tech.dbu_per_um).content_hash(),
                    )
                })
            })
            .collect();
        assert!(
            hashes.windows(2).all(|p| p[0] == p[1]),
            "comprehensive maps must not depend on the thread count"
        );
    }
}
