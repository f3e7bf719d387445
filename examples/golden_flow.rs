//! The golden analysis flow: generate a PDN, solve it exactly, and dump
//! every feature map plus the IR-drop ground truth as CSV/PGM files.
//!
//! ```bash
//! cargo run --release --example golden_flow
//! ```
//!
//! This is the "commercial tool" path of the paper's Fig. 1: the slow exact
//! analysis whose outputs become training data for the learned predictor.

use lmmir_features::io::{save_csv, save_pgm};
use lmmir_features::{ir_drop_map, FeatureStack};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_solver::stamp;
use std::path::PathBuf;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = PathBuf::from("bench_out/golden_flow");
    std::fs::create_dir_all(&out)?;

    // A pad-starved "real-style" design makes an interesting IR map.
    let spec = CaseSpec::new("golden_demo", 64, 64, 21, CaseKind::Real);
    println!(
        "generating {} ({}x{} um)...",
        spec.id, spec.width, spec.height
    );
    let case = spec.generate();
    let stats = case.stats();
    println!(
        "  netlist: {} elements, {} nodes, {} vias, {} pads",
        case.netlist.len(),
        stats.nodes,
        stats.vias,
        stats.voltage_sources
    );

    let t0 = Instant::now();
    let sys = stamp(&case.netlist)?;
    let factor = sys.factor()?;
    let ir = sys.solve(&factor)?;
    println!(
        "  golden solve: {} unknowns, nnz(L) {} in {:.2}s, worst drop {:.4} V ({:.1}% of VDD)",
        sys.unknown_count(),
        factor.nnz(),
        t0.elapsed().as_secs_f64(),
        ir.worst_drop(),
        100.0 * ir.worst_drop() / case.tech.vdd
    );

    let (w, h) = (case.power.width(), case.power.height());
    let dbu = case.tech.dbu_per_um;
    let truth = ir_drop_map(&ir, &case.netlist, w, h, dbu);
    save_csv(out.join("ir_drop.csv"), &truth)?;
    save_pgm(out.join("ir_drop.pgm"), &truth)?;

    for (kind, raster) in FeatureStack::extended(&case).iter() {
        save_csv(out.join(format!("{}.csv", kind.name())), raster)?;
        save_pgm(out.join(format!("{}.pgm", kind.name())), raster)?;
        println!(
            "  {:<16} min {:>10.4}  max {:>10.4}  mean {:>10.4}",
            kind.name(),
            raster.min(),
            raster.max(),
            raster.mean()
        );
    }
    println!("wrote CSV + PGM files to {}", out.display());
    Ok(())
}
