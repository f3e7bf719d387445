//! The inference path records no tape, so the buffer pool serves every
//! buffer of a steady-state forward: exact lazy-runtime counts of one
//! steady-state `InferenceSession::forward` of LMM-IR `quick()` at 32 px on
//! the 64 µm design of `forward_checksum.rs`, on one thread.
//!
//! Before `autograd::no_grad` wrapped the session forward, the same
//! forward read 85 fresh allocations and 16 pool hits: every intermediate
//! stayed alive on the tape until the forward returned, so the pool had
//! nothing to recycle. A change that puts the tape back on the inference
//! path fails here by count.

use lmm_ir::{InferenceSession, IrPredictor, Layer, LmmIr, LmmIrConfig};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_tensor::{lazy, Var};

/// `(programs, instructions)` of one forward. Each of the 9 attention
/// calls (2 LNT blocks × 4 chunks, plus the fusion cross-attention) used
/// to run its score scale as a one-instruction program; the fused
/// attention op scales in its softmax pass, so 101/284 became 92/275.
const PROGRAMS: usize = 92;
const INSTRUCTIONS: usize = 275;

#[test]
fn session_forward_allocates_nothing_and_training_still_records() {
    lmmir_par::with_threads(1, || {
        let model = LmmIr::new(LmmIrConfig {
            input_size: 32,
            ..LmmIrConfig::quick()
        });
        let session = InferenceSession::new(&model);
        let case = CaseSpec::new("checksum", 64, 64, 5, CaseKind::Hidden).generate();
        let input = session
            .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
            .unwrap();
        // Warm this thread's pool. Its 16 slots keep the largest buffers
        // they are offered, so it settles over two forwards (11, then 1,
        // then 0 fresh allocations from a cold pool).
        for _ in 0..2 {
            session.forward(&input).unwrap();
        }
        lazy::reset_stats();
        session.forward(&input).unwrap();
        let stats = lazy::stats();
        assert_eq!(stats.fresh_allocs, 0, "{stats:?}");
        assert_eq!(stats.pool_hits, stats.programs, "{stats:?}");
        assert_eq!(
            (stats.programs, stats.instructions),
            (PROGRAMS, INSTRUCTIONS),
            "{stats:?}"
        );

        // Training on the same thread still records the whole tape.
        model.set_training(true);
        let images = Var::constant(input.images.clone());
        model
            .forward(&images, input.cloud.as_ref())
            .unwrap()
            .sum()
            .backward();
        let missing = model
            .parameters()
            .iter()
            .filter(|p| p.grad().is_none())
            .count();
        assert_eq!(missing, 0, "every parameter gets a gradient");
    });
}
