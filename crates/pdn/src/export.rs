//! Contest-style dataset export: writes a generated case to disk in the
//! layout the ICCAD-2023 contest distributed (SPICE netlist + CSV feature
//! maps + CSV golden IR map), so the generated benchmarks can feed other
//! tools and the original PyTorch implementations.

use crate::contest::{Case, CaseSpec};
use lmmir_solver::{solve_ir_drop, SolveIrDropError};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Error from dataset export.
#[derive(Debug)]
pub enum ExportError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Golden solve failed for the case.
    Solve(SolveIrDropError),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "export io error: {e}"),
            ExportError::Solve(e) => write!(f, "export solve error: {e}"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> Self {
        ExportError::Io(e)
    }
}

impl From<SolveIrDropError> for ExportError {
    fn from(e: SolveIrDropError) -> Self {
        ExportError::Solve(e)
    }
}

fn write_csv_f64(
    path: &Path,
    width: usize,
    height: usize,
    at: impl Fn(usize, usize) -> f64,
) -> Result<(), ExportError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for y in 0..height {
        let row: Vec<String> = (0..width).map(|x| format!("{}", at(x, y))).collect();
        writeln!(w, "{}", row.join(","))?;
    }
    Ok(())
}

/// Writes one case to `dir/<case-id>/` in the contest layout:
///
/// * `netlist.sp` — the SPICE PDN,
/// * `current_map.csv` — per-µm² drawn current,
/// * `ir_drop_map.csv` — golden per-µm² IR drop (from a fresh solve),
/// * `spec.txt` — the generating parameters for provenance.
///
/// Returns the case directory.
///
/// # Errors
///
/// Returns [`ExportError`] on filesystem failure or an unsolvable case.
pub fn export_case(case: &Case, dir: impl AsRef<Path>) -> Result<std::path::PathBuf, ExportError> {
    let case_dir = dir.as_ref().join(&case.spec.id);
    std::fs::create_dir_all(&case_dir)?;

    case.netlist.write_file(case_dir.join("netlist.sp"))?;

    let (w, h) = (case.power.width(), case.power.height());
    write_csv_f64(&case_dir.join("current_map.csv"), w, h, |x, y| {
        case.power.at(x, y)
    })?;

    // Golden IR map: nearest-node drop per pixel on the lowest layer.
    let ir = solve_ir_drop(&case.netlist)?;
    let dbu = case.tech.dbu_per_um;
    // Collect lowest-layer node drops into a per-pixel max grid.
    let mut grid = vec![0.0f64; w * h];
    let low = case
        .netlist
        .iter()
        .flat_map(|e| [e.a.name(), e.b.name()])
        .flatten()
        .map(|n| n.layer)
        .min()
        .unwrap_or(1);
    for (node, drop) in ir.iter_drops() {
        if node.layer != low {
            continue;
        }
        let x = (node.x as f64 / dbu as f64).floor() as isize;
        let y = (node.y as f64 / dbu as f64).floor() as isize;
        if x >= 0 && y >= 0 && (x as usize) < w && (y as usize) < h {
            let ix = y as usize * w + x as usize;
            grid[ix] = grid[ix].max(drop);
        }
    }
    write_csv_f64(&case_dir.join("ir_drop_map.csv"), w, h, |x, y| {
        grid[y * w + x]
    })?;

    let mut spec_file = std::fs::File::create(case_dir.join("spec.txt"))?;
    writeln!(spec_file, "{:#?}", case.spec)?;
    Ok(case_dir)
}

/// Exports a whole suite of specs under `dir`, returning the case paths.
///
/// # Errors
///
/// Returns the first failing export.
pub fn export_suite(
    specs: &[CaseSpec],
    dir: impl AsRef<Path>,
) -> Result<Vec<std::path::PathBuf>, ExportError> {
    specs
        .iter()
        .map(|s| export_case(&s.generate(), dir.as_ref()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contest::CaseKind;
    use lmmir_spice::Netlist;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("lmmir_export_test").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn export_writes_all_artifacts() {
        let case = CaseSpec::new("exp1", 12, 12, 3, CaseKind::Fake).generate();
        let dir = tmp_dir("a");
        let case_dir = export_case(&case, &dir).unwrap();
        for f in [
            "netlist.sp",
            "current_map.csv",
            "ir_drop_map.csv",
            "spec.txt",
        ] {
            assert!(case_dir.join(f).exists(), "missing {f}");
        }
        // The exported netlist parses back identically.
        let back = Netlist::parse_file(case_dir.join("netlist.sp")).unwrap();
        assert_eq!(back, case.netlist);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exported_current_map_round_trips() {
        let case = CaseSpec::new("exp2", 10, 10, 5, CaseKind::Fake).generate();
        let dir = tmp_dir("b");
        let case_dir = export_case(&case, &dir).unwrap();
        let text = std::fs::read_to_string(case_dir.join("current_map.csv")).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 10);
        let first: f64 = rows[0].split(',').next().unwrap().parse().unwrap();
        assert!((first - case.power.at(0, 0)).abs() < 1e-15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_suite_creates_one_dir_per_case() {
        let specs = vec![
            CaseSpec::new("s0", 8, 8, 1, CaseKind::Fake),
            CaseSpec::new("s1", 8, 8, 2, CaseKind::Fake),
        ];
        let dir = tmp_dir("c");
        let paths = export_suite(&specs, &dir).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("s0"));
        assert!(paths[1].ends_with("s1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
