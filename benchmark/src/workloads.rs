//! The workload frame: what every workload provides (set-up, a timed
//! repetition, output checks, a traced pass) and the runner that turns
//! those into the end-to-end metrics.
//!
//! An *op* is one completed, verified unit of work. A run measures for
//! `--seconds`, split into [`REPETITIONS`] back-to-back repetitions; op `k`
//! of a workload is a pure function of `(seed, k)`, so any prefix of the op
//! sequence can be checked against a reference or against another
//! repetition.

use crate::machine;
use crate::stats;
use lmm_ir::LmmIrConfig;
use lmmir_pdn::{CaseKind, CaseSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Back-to-back repetitions of the timed window. `ops_per_s` and
/// `cpu_ms_per_op` are medians over them, so a burst of interference that
/// hits fewer than half of them leaves both untouched; latencies are pooled.
pub const REPETITIONS: usize = 6;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Measured seconds in total (all repetitions).
    pub seconds: f64,
    /// Tiny designs, a couple of ops per repetition: exercises every code
    /// path and every output check in seconds (used by the unit test).
    pub smoke: bool,
    /// Where checkpoints, result files and trace files go.
    pub out: PathBuf,
}

impl Params {
    /// Side of the small designs in µm (= power-map pixels).
    pub fn small_um(&self) -> usize {
        if self.smoke {
            16
        } else {
            64
        }
    }

    /// Side of the `offline_large` designs in µm.
    pub fn large_um(&self) -> usize {
        if self.smoke {
            16
        } else {
            LARGE_UM
        }
    }

    /// Model input resolution in pixels.
    pub fn input_px(&self) -> usize {
        if self.smoke {
            16
        } else {
            32
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Op cap per repetition (the time budget applies as well).
    pub fn ops_cap(&self) -> Option<u64> {
        self.smoke.then_some(2)
    }

    /// Every how-many-th `serve_cold` reply is kept for the bitwise check.
    pub fn check_stride(&self) -> u64 {
        if self.smoke {
            1
        } else {
            20
        }
    }

    /// The served / trained model: LMM-IR `quick()` at the run's input size.
    pub fn model_config(&self) -> LmmIrConfig {
        LmmIrConfig {
            input_size: self.input_px(),
            ..LmmIrConfig::quick()
        }
    }

    /// The spec of design `index` of a workload: the RNG seed mixes the run
    /// seed, a per-workload tag and the index, so no two workloads of one
    /// run and no two runs share a design.
    pub fn design(&self, tag: u64, index: usize, um: usize, kind: CaseKind) -> CaseSpec {
        let seed = self.seed.wrapping_mul(10_007) + tag * 101 + index as u64;
        CaseSpec::new(format!("bench{tag}-{index}"), um, um, seed, kind)
    }
}

/// Side of the `offline_large` designs. ISSUE 11 sized them at 256 µm
/// (≈170 ms/op); 192 µm (≈150 k elements, 7 MB of SPICE) keeps the same
/// netlist-dominated mix while letting a 24 s window collect the ≥ 200
/// samples `latency_p95_ms` needs.
const LARGE_UM: usize = 192;

/// The factor op `k` scales its design's hottest power pixel by: distinct
/// for every `k` below 2^20, and close enough to 1 that the design stays
/// the same design. This is what makes every request a never-seen one.
pub fn perturbation(k: u64) -> f64 {
    1.0 + (k + 1) as f64 / 65_536.0
}

/// Index of the largest value (the pixel [`perturbation`] is applied to —
/// guaranteed non-zero in a generated power map).
pub fn hottest<T: PartialOrd + Copy>(values: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// What one repetition of the timed window observed.
#[derive(Debug, Default, Clone)]
pub struct RepOutput {
    /// Latency of every op that completed, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Ops that errored, were refused, or failed an in-window check.
    pub failed: u64,
}

/// Result of the output checks that run after the timed window.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops that failed a check (added to the in-window failures).
    pub failed: u64,
    /// What was checked, one line each (printed with the result).
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check over `total` ops of which `bad` failed.
    pub fn record(&mut self, what: &str, total: usize, bad: usize) {
        self.failed += bad as u64;
        self.notes.push(if bad == 0 {
            format!("ok    {what} ({total} checked)")
        } else {
            format!("FAIL  {what} ({bad} of {total})")
        });
    }
}

/// Result of a workload's traced pass.
#[derive(Debug, Default)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values that are not a span's median duration (counts,
    /// rates, derived figures).
    pub values: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Traced {
    /// Records one failed op of the traced pass with what went wrong.
    pub fn fail(&mut self, note: String) {
        self.notes.push(note);
        self.failed += 1;
    }
}

/// One workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Loop shape and sizes, printed with every result.
    const SHAPE: &'static str;

    /// Everything from nothing to ready-for-the-first-timed-op: input
    /// generation, golden solves, checkpoint, server start, warm-up ops.
    fn setup(p: &Params) -> Result<Self, String>;

    /// Runs ops for `budget` (or until the smoke cap).
    fn repetition(&mut self, p: &Params, budget: Duration) -> RepOutput;

    /// Output checks over what the repetitions produced.
    fn verify(&mut self, p: &Params, reps: &[RepOutput]) -> Checks;

    /// Replays a fixed sample of ops through the layers' public functions,
    /// one span per call.
    fn traced(&mut self, p: &Params) -> Traced;

    /// Stops what set-up started.
    fn teardown(self) {}
}

/// One repetition as reported.
#[derive(Debug, Clone)]
pub struct RepReport {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl RepReport {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Everything an end-to-end run measured.
#[derive(Debug)]
pub struct Report {
    pub reps: Vec<RepReport>,
    pub setups_s: Vec<f64>,
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub tail: stats::Tail,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setups_s)
    }
}

/// Sets the workload up `p.setups()` times (timing each, keeping the last).
fn set_up<W: Workload>(p: &Params) -> Result<(W, Vec<f64>), String> {
    let mut timings = Vec::new();
    let mut state: Option<W> = None;
    for _ in 0..p.setups() {
        if let Some(previous) = state.take() {
            previous.teardown();
        }
        let started = Instant::now();
        state = Some(W::setup(p)?);
        timings.push(started.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), timings))
}

/// The end-to-end run: tracing off.
pub fn run<W: Workload>(p: &Params) -> Result<Report, String> {
    let (mut workload, setups_s) = set_up::<W>(p)?;
    let budget = Duration::from_secs_f64(p.seconds / REPETITIONS as f64);
    let mut outputs = Vec::new();
    let mut reps = Vec::new();
    for _ in 0..REPETITIONS {
        let (cpu0, wall0) = (machine::cpu_seconds(), Instant::now());
        let out = workload.repetition(p, budget);
        reps.push(RepReport {
            attempted: out.attempted,
            failed: out.failed,
            wall_s: wall0.elapsed().as_secs_f64(),
            cpu_s: machine::cpu_seconds() - cpu0,
        });
        outputs.push(out);
    }
    // Before the checks: they load a second model and would raise the peak.
    let peak_rss_mib = machine::peak_rss_mib();
    let checks = workload.verify(p, &outputs);
    workload.teardown();

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum::<u64>() + checks.failed;
    let mut pooled: Vec<f64> = outputs
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    if pooled.is_empty() {
        return Err(format!("{}: no op completed", W::NAME));
    }
    stats::sort(&mut pooled);
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.succeeded() as f64 / r.wall_s)
        .collect();
    let cpu_ms: Vec<f64> = reps
        .iter()
        .filter(|r| r.succeeded() > 0)
        .map(|r| 1e3 * r.cpu_s / r.succeeded() as f64)
        .collect();
    Ok(Report {
        ops_per_s: stats::median(&rates),
        p50_ms: stats::percentile(&pooled, 0.5),
        tail: stats::tail_percentile(&pooled, 0.95),
        cpu_ms_per_op: stats::median(&cpu_ms),
        peak_rss_mib,
        attempted,
        failed,
        notes: checks.notes,
        reps,
        setups_s,
    })
}

/// The traced run: one set-up, then the workload's traced pass.
pub fn run_traced<W: Workload>(p: &Params) -> Result<Traced, String> {
    let mut workload = W::setup(p)?;
    // Set-up's warm-up ops go through the same code as the traced ones;
    // their spans would skew the medians.
    crate::trace::set_enabled(true);
    let traced = workload.traced(p);
    workload.teardown();
    Ok(traced)
}

/// Whether a repetition goes on: the budget has time left and the op cap
/// (if any) has ops left.
pub fn goes_on(deadline: Instant, issued: u64, cap: Option<u64>) -> bool {
    Instant::now() < deadline && cap.map_or(true, |cap| issued < cap)
}
