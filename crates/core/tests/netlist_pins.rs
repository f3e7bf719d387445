//! Bitwise oracle for the netlist side of the pipeline — SPICE text →
//! [`Netlist`] → feature stacks and point cloud — the way
//! `forward_checksum.rs` is the oracle for the forward. Two `Hidden`
//! designs, 64 µm and 192 µm (the sizes the end-to-end benchmark serves and
//! runs offline; the large one carries ≥ 190 pads), pin
//!
//! * `content_hash()` of `FeatureStack::{basic,extended,comprehensive}_parts`
//!   at threads {1, 2, 4};
//! * the FNV-1a of `to_spice()` of the netlist parsed back from the
//!   generated text, and its `len()`;
//! * the FNV-1a of `PointCloud::subsample(512)` of that netlist's cloud.
//!
//! Taken before the byte-level parser, the pixel-vectorised distance map
//! and the copy-free `subsample` went in, as the oracle for those changes.
//! The 192 µm comprehensive hash was re-pinned once when a sparse Cholesky
//! replaced the iterative golden solver: its effective-resistance channel
//! moved within the old solver's 1e-10 tolerance.

use lmm_ir::PointCloud;
use lmmir_features::{FeatureStack, Fnv1a};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_spice::{ElementKind, Netlist};

/// `(elements, pads, to_spice hash, subsample(512) hash,
/// [basic, extended, comprehensive] stack hashes)`.
type Observed = (usize, usize, u64, u64, [u64; 3]);

/// `(side µm, seed)` of a `Hidden` design and what it must produce.
#[rustfmt::skip]
const PINNED: [((usize, u64), Observed); 2] = [
    ((64, 5), (16_141, 5, 0x820f_921f_6620_efe8, 0x6674_fde8_009e_b799,
        [0xb172_c3f3_639b_d0ed, 0x7e1b_9924_9bff_8cd5, 0xcd41_cfe3_5081_2a78])),
    ((192, 50_338), (146_140, 196, 0x70d9_96f9_89c9_ff35, 0xb10a_9f00_cc8d_5d05,
        [0x6085_a88b_f3e5_af2b, 0x24e9_054a_6bf1_3d30, 0x0be1_02de_ecf2_58dc])),
];

fn cloud_checksum(cloud: &PointCloud) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(cloud.len());
    for p in &cloud.points {
        p.features().iter().for_each(|&v| h.write_f32(v));
        for id in [p.kind, p.layer1, p.layer2] {
            h.write_usize(id);
        }
    }
    h.finish()
}

#[test]
fn netlist_side_checksums_are_pinned() {
    for ((side, seed), pinned) in PINNED {
        let case = CaseSpec::new("pin", side, side, seed, CaseKind::Hidden).generate();
        let dbu = case.tech.dbu_per_um;
        // Everything below runs on the netlist as the parser returns it.
        let netlist = Netlist::parse_str(&case.netlist.to_spice()).unwrap();
        let stacks = |threads: usize| {
            lmmir_par::with_threads(threads, || {
                [
                    FeatureStack::basic_parts(&case.power, &netlist, dbu).content_hash(),
                    FeatureStack::extended_parts(&case.power, &netlist, dbu).content_hash(),
                    FeatureStack::comprehensive_parts(&case.power, &netlist, dbu).content_hash(),
                ]
            })
        };
        let mut spice = Fnv1a::new();
        spice.write(netlist.to_spice().as_bytes());
        let cloud = PointCloud::from_netlist(&netlist, dbu, side as f64, side as f64);
        let observed: Observed = (
            netlist.len(),
            netlist
                .iter()
                .filter(|e| e.kind == ElementKind::VoltageSource)
                .count(),
            spice.finish(),
            cloud_checksum(&cloud.subsample(512)),
            stacks(1),
        );
        assert_eq!(observed, pinned, "{side} um, observed {observed:#x?}");
        for threads in [2, 4] {
            assert_eq!(stacks(threads), pinned.4, "{side} um, {threads} threads");
        }
    }
}
