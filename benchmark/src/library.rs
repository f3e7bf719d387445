//! `offline_large` and `train_step`: the library driven directly, no server.
//!
//! `offline_large` is the paper's own axis — a large SPICE netlist and a
//! power map in, an IR-drop map out — where `spice`, `features` and the
//! point cloud outweigh the forward pass. `train_step` runs the same
//! `tensor`/`nn` kernels the other way (backward gemms, col2im, Adam), so a
//! kernel change that helps inference at the cost of training shows.

use crate::trace::span;
use crate::workloads::{
    goes_on, hottest, perturbation, Checks, Params, RepOutput, Traced, Workload,
};
use lmm_ir::{
    build_sample, hotspot_mask, prepare_parts, restore_prediction, train, InferenceSession, LmmIr,
    Lnt, PointCloud, Prediction, PreparedInput, Sample, TrainConfig, HOTSPOT_FRAC,
};
use lmmir_features::{FeatureStack, Fnv1a};
use lmmir_pdn::{CaseKind, PowerMap};
use lmmir_spice::Netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// `InferenceSession::predict` spelled out as forward + restore so each gets
/// a span; [`OfflineLarge::traced`] checks it still equals `predict` bit for
/// bit.
pub fn forward_restore(
    session: &InferenceSession<'_>,
    input: &PreparedInput,
) -> Result<Prediction, String> {
    let (raw, tat) =
        span("core.infer.forward", || session.forward(input)).map_err(|e| e.to_string())?;
    Ok(span("core.infer.restore", || {
        let map = restore_prediction(input.info, &raw);
        let (threshold, mask) = hotspot_mask(&map, HOTSPOT_FRAC);
        Prediction {
            map,
            threshold,
            mask,
            tat,
        }
    }))
}

/// SPICE text + power map → prediction, one span per layer call.
pub fn offline_chain(
    session: &InferenceSession<'_>,
    text: &str,
    power: &PowerMap,
    dbu_per_um: i64,
) -> Result<Prediction, String> {
    let netlist = span("spice.parse", || Netlist::parse_str(text)).map_err(|e| e.to_string())?;
    let input = span("core.infer.prepare_parts", || {
        prepare_parts(session.spec(), power, Some(&netlist), dbu_per_um)
    })
    .map_err(|e| e.to_string())?;
    forward_restore(session, &input)
}

/// Spans over the public functions `prepare_parts` and the forward pass
/// call internally, so their share is visible without a span inside any
/// crate. They run beside the chain (under a `detail` span), not in it.
pub struct Detail {
    lnt: Lnt,
    input_px: usize,
}

impl Detail {
    pub fn new(p: &Params) -> Detail {
        // A stand-alone LNT with the model's configuration: same shapes and
        // kernels as the model's own netlist branch, other weights.
        let cfg = p.model_config();
        Detail {
            lnt: Lnt::new(cfg.lnt, &mut StdRng::seed_from_u64(cfg.seed)),
            input_px: cfg.input_size,
        }
    }

    /// Records the detail spans for one design; returns (elements, points).
    pub fn spans(&self, text: &str, power: &PowerMap, dbu_per_um: i64) -> (usize, usize) {
        span("detail", || {
            let Ok(netlist) = Netlist::parse_str(text) else {
                return (0, 0);
            };
            let stack = span("features.extended_parts", || {
                FeatureStack::extended_parts(power, &netlist, dbu_per_um)
            });
            span("features.adjust_normalize", || {
                std::hint::black_box(stack.adjusted_normalized(self.input_px));
            });
            let cloud = span("core.pointcloud.from_netlist", || {
                PointCloud::from_netlist(
                    &netlist,
                    dbu_per_um,
                    power.width() as f64,
                    power.height() as f64,
                )
            });
            span("core.lnt.encode_cloud", || {
                if let Ok(tokens) = self.lnt.encode_cloud(&cloud) {
                    tokens.value().force();
                }
            });
            (netlist.len(), cloud.len())
        })
    }
}

/// The netlist-size figures of a traced pass that parses SPICE; call after
/// the pass recorded its `spice.parse` spans.
pub fn netlist_values(traced: &mut Traced, text_bytes: usize, elements: usize, points: usize) {
    let parse_s = crate::trace::median_ms("spice.parse") / 1e3;
    traced.values.extend([
        ("spice.elements", elements as f64),
        ("core.pointcloud.points", points as f64),
        (
            "spice.parse_mib_per_s",
            if parse_s > 0.0 {
                text_bytes as f64 / (1024.0 * 1024.0) / parse_s
            } else {
                0.0
            },
        ),
    ]);
}

/// FNV-1a over a prediction's output bits.
fn output_checksum(prediction: &Prediction) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_usize(prediction.map.width());
    hash.write_usize(prediction.map.height());
    hash.write_f32(prediction.threshold);
    for &v in prediction.map.data() {
        hash.write_f32(v);
    }
    hash.write(&prediction.mask);
    hash.finish()
}

/// Finite, right shape, mask consistent with the threshold.
fn well_formed(prediction: &Prediction, side: usize) -> bool {
    let map = &prediction.map;
    let max = map.max();
    map.width() == side
        && map.height() == side
        && prediction.mask.len() == side * side
        && prediction.threshold.is_finite()
        && map.data().iter().all(|v| v.is_finite())
        && map
            .data()
            .iter()
            .zip(&prediction.mask)
            .all(|(&v, &m)| m == u8::from(v >= prediction.threshold && max > 0.0))
}

/// Length of the longest common prefix of every repetition's per-op record,
/// and whether the repetitions agree on it.
fn common_prefix<T: PartialEq>(per_rep: &[Vec<T>]) -> (usize, bool) {
    let len = per_rep.iter().map(Vec::len).min().unwrap_or(0);
    let agree = per_rep
        .windows(2)
        .all(|pair| pair[0][..len] == pair[1][..len]);
    (len, agree)
}

// ---------------------------------------------------------------------------
// offline_large
// ---------------------------------------------------------------------------

struct LargeDesign {
    spice: String,
    power: PowerMap,
    hot: usize,
    dbu_per_um: i64,
}

impl LargeDesign {
    /// The power map of op `k`: the hottest pixel scaled, as in `serve_cold`.
    fn power_of(&self, k: u64) -> PowerMap {
        let mut data = self.power.data().to_vec();
        data[self.hot] *= perturbation(k);
        PowerMap::from_vec(self.power.width(), self.power.height(), data)
    }
}

pub struct OfflineLarge {
    designs: Vec<LargeDesign>,
    model: LmmIr,
    /// Per repetition: the output checksum of every op, in op order.
    checksums: Vec<Vec<u64>>,
}

impl Workload for OfflineLarge {
    const NAME: &'static str = "offline_large";
    const SHAPE: &'static str =
        "SPICE text + power map -> IR map by library calls (Netlist::parse_str -> prepare_parts \
         -> InferenceSession::predict), 4 bases of 192 um (~150 k elements), one power pixel \
         perturbed per op, LMM-IR quick() at 32 px, single caller thread";

    fn setup(p: &Params) -> Result<Self, String> {
        let designs = (0..4)
            .map(|i| {
                let case = p.design(3, i, p.large_um(), CaseKind::Hidden).generate();
                LargeDesign {
                    spice: case.netlist.to_spice(),
                    hot: hottest(case.power.data()),
                    power: case.power,
                    dbu_per_um: case.tech.dbu_per_um,
                }
            })
            .collect::<Vec<_>>();
        let workload = OfflineLarge {
            designs,
            model: LmmIr::new(p.model_config()),
            checksums: Vec::new(),
        };
        // Warm-up: one op per base design.
        let session = InferenceSession::new(&workload.model);
        for d in &workload.designs {
            offline_chain(&session, &d.spice, &d.power, d.dbu_per_um)?;
        }
        Ok(workload)
    }

    fn repetition(&mut self, p: &Params, budget: Duration) -> RepOutput {
        let deadline = Instant::now() + budget;
        let session = InferenceSession::new(&self.model);
        let spec = session.spec();
        let mut out = RepOutput::default();
        let mut checksums = Vec::new();
        // Every repetition replays the op sequence from op 0, so their
        // outputs can be compared.
        while goes_on(deadline, out.attempted, p.ops_cap()) {
            let k = out.attempted;
            let design = &self.designs[(k % self.designs.len() as u64) as usize];
            let power = design.power_of(k);
            out.attempted += 1;
            let called = Instant::now();
            let prediction = Netlist::parse_str(&design.spice)
                .map_err(|e| e.to_string())
                .and_then(|netlist| {
                    prepare_parts(spec, &power, Some(&netlist), design.dbu_per_um)
                        .map_err(|e| e.to_string())
                })
                .and_then(|input| session.predict(&input).map_err(|e| e.to_string()));
            let ms = called.elapsed().as_secs_f64() * 1e3;
            match prediction {
                Ok(prediction) if well_formed(&prediction, power.width()) => {
                    out.latencies_ms.push(ms);
                    checksums.push(output_checksum(&prediction));
                }
                Ok(_) => {
                    eprintln!("[offline_large] op {k}: malformed prediction");
                    out.failed += 1;
                    checksums.push(0);
                }
                Err(e) => {
                    eprintln!("[offline_large] op {k}: {e}");
                    out.failed += 1;
                    checksums.push(0);
                }
            }
        }
        self.checksums.push(checksums);
        out
    }

    fn verify(&mut self, _p: &Params, _reps: &[RepOutput]) -> Checks {
        let mut checks = Checks::default();
        let (len, agree) = common_prefix(&self.checksums);
        let mut all = Fnv1a::new();
        for &c in &self.checksums[0][..len] {
            all.write_u64(c);
        }
        checks.record(
            &format!(
                "output bits repeat across repetitions (FNV-1a of the first {len} ops: {:016x})",
                all.finish()
            ),
            len,
            if agree { 0 } else { len },
        );
        checks
    }

    fn traced(&mut self, p: &Params) -> Traced {
        let mut traced = Traced::default();
        let session = InferenceSession::new(&self.model);
        let detail = Detail::new(p);
        let sample = if p.smoke { 2 } else { 8 };
        for k in 0..sample {
            crate::trace::set_op(k);
            traced.attempted += 1;
            let design = &self.designs[(k % self.designs.len() as u64) as usize];
            let power = design.power_of(k);
            let chained = span("op", || {
                offline_chain(&session, &design.spice, &power, design.dbu_per_um)
            });
            let (elements, points) = detail.spans(&design.spice, &power, design.dbu_per_um);
            // The spelled-out chain must equal the calls the timed op makes.
            let direct = Netlist::parse_str(&design.spice).ok().and_then(|netlist| {
                let input =
                    prepare_parts(session.spec(), &power, Some(&netlist), design.dbu_per_um)
                        .ok()?;
                session.predict(&input).ok()
            });
            match (chained, direct) {
                (Ok(a), Some(b)) if output_checksum(&a) == output_checksum(&b) => {}
                _ => {
                    traced.fail(format!("op {k}: chain differs from predict"));
                }
            }
            if k == 0 {
                netlist_values(&mut traced, design.spice.len(), elements, points);
            }
        }
        traced
    }
}

// ---------------------------------------------------------------------------
// train_step
// ---------------------------------------------------------------------------

/// Samples set-up builds; call `k` trains on sample `k mod TRAIN_SAMPLES`.
const TRAIN_SAMPLES: usize = 8;

pub struct TrainStep {
    samples: Vec<Sample>,
    cfg: TrainConfig,
    /// Per repetition: the loss bits of every call, in call order.
    losses: Vec<Vec<u32>>,
}

impl TrainStep {
    /// Call `k`: one `train` on one sample.
    fn call(&self, model: &LmmIr, k: u64) -> Result<f32, String> {
        let which = (k % TRAIN_SAMPLES as u64) as usize;
        span("core.train.train", || {
            train(model, &self.samples[which..=which], &self.cfg)
        })
        .map(|report| report.final_loss())
        .map_err(|e| e.to_string())
    }
}

impl Workload for TrainStep {
    const NAME: &'static str = "train_step";
    const SHAPE: &'static str =
        "one lmm_ir::train call (1 epoch, 1 sample, batch 1, no pre-training, oversample (1,1)) on \
         LMM-IR quick() at 32 px, call k on sample k mod 8, fresh same-seed model per repetition; \
         set-up builds the 8 Fake 64 um samples (golden solves included)";

    fn setup(p: &Params) -> Result<Self, String> {
        let samples = (0..TRAIN_SAMPLES)
            .map(|i| {
                build_sample(&p.design(4, i, p.small_um(), CaseKind::Fake), p.input_px())
                    .map_err(|e| format!("golden solve: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let workload = TrainStep {
            samples,
            cfg: TrainConfig {
                epochs: 1,
                pretrain_epochs: 0,
                batch: 1,
                oversample: (1, 1),
                ..TrainConfig::quick()
            },
            losses: Vec::new(),
        };
        // Warm-up on a model that is then dropped.
        workload.call(&LmmIr::new(p.model_config()), 0)?;
        Ok(workload)
    }

    fn repetition(&mut self, p: &Params, budget: Duration) -> RepOutput {
        let deadline = Instant::now() + budget;
        let model = LmmIr::new(p.model_config());
        let mut out = RepOutput::default();
        let mut losses = Vec::new();
        while goes_on(deadline, out.attempted, p.ops_cap()) {
            out.attempted += 1;
            let called = Instant::now();
            let loss = self.call(&model, out.attempted - 1);
            let ms = called.elapsed().as_secs_f64() * 1e3;
            match loss {
                Ok(loss) if loss.is_finite() => {
                    out.latencies_ms.push(ms);
                    losses.push(loss.to_bits());
                }
                Ok(loss) => {
                    eprintln!("[train_step] call {}: loss {loss}", out.attempted - 1);
                    out.failed += 1;
                    losses.push(loss.to_bits());
                }
                Err(e) => {
                    eprintln!("[train_step] call {}: {e}", out.attempted - 1);
                    out.failed += 1;
                    losses.push(f32::NAN.to_bits());
                }
            }
        }
        self.losses.push(losses);
        out
    }

    fn verify(&mut self, _p: &Params, _reps: &[RepOutput]) -> Checks {
        let mut checks = Checks::default();
        let (len, agree) = common_prefix(&self.losses);
        checks.record(
            "loss bits repeat across repetitions",
            len,
            if agree { 0 } else { len },
        );
        // One round visits every sample once, so rounds compare like with
        // like. Too short a repetition (the smoke run) has nothing to compare.
        let round = |l: &[u32]| l.iter().map(|&b| f64::from(f32::from_bits(b))).sum::<f64>();
        let long: Vec<&Vec<u32>> = self
            .losses
            .iter()
            .filter(|l| l.len() >= 2 * TRAIN_SAMPLES)
            .collect();
        let rising = long
            .iter()
            .filter(|l| round(&l[l.len() - TRAIN_SAMPLES..]) >= round(&l[..TRAIN_SAMPLES]))
            .count();
        checks.record(
            "loss over the last 8 calls is below the loss over the first 8",
            long.len(),
            rising,
        );
        checks
    }

    fn traced(&mut self, p: &Params) -> Traced {
        let mut traced = Traced::default();
        let model = LmmIr::new(p.model_config());
        let sample = if p.smoke { 2 } else { 6 };
        let mut last = f32::NAN;
        for k in 0..sample {
            crate::trace::set_op(k);
            traced.attempted += 1;
            match span("op", || self.call(&model, k)) {
                Ok(loss) if loss.is_finite() => last = loss,
                _ => traced.failed += 1,
            }
        }
        traced.values.extend([
            (
                "core.train.ms_per_sample",
                crate::trace::median_ms("core.train.train"),
            ),
            ("core.train.final_loss", f64::from(last)),
        ]);
        traced
    }
}
