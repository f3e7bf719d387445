//! The inference path records no tape, so the buffer pool serves every
//! buffer of a steady-state forward: exact lazy-runtime counts of one
//! steady-state `InferenceSession::forward` of LMM-IR `quick()` at 32 px on
//! the 64 µm design of `forward_checksum.rs`, at one and at two threads.
//!
//! Before `autograd::no_grad` wrapped the session forward, the same
//! forward read 85 fresh allocations and 16 pool hits: every intermediate
//! stayed alive on the tape until the forward returned, so the pool had
//! nothing to recycle. A change that puts the tape back on the inference
//! path fails here by count.
//!
//! Training the same model still records the tape, and at two threads,
//! where its backward runs the LNT's and the CNN encoder's parts side by
//! side, every parameter gets the one-thread gradient bits.

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
    let model = LmmIr::new(LmmIrConfig {
        input_size: 32,
        ..LmmIrConfig::quick()
    });
    let session = InferenceSession::new(&model);
    let case = CaseSpec::new("checksum", 64, 64, 5, CaseKind::Hidden).generate();
    let input = session
        .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
        .unwrap();
    // At two threads the CNN encoder runs on a forked worker. Its counts
    // join the caller's, and it runs on the caller's spare pool under the
    // caller's `no_grad`: a worker that records a tape or starts from a
    // cold pool fails here by count.
    for threads in [1, 2] {
        lmmir_par::with_threads(threads, || {
            // Warm this thread's pools. Their 16 slots keep the largest
            // buffers they are offered, and a program takes the smallest
            // one that fits, so they settle after one forward: 6, then 0
            // fresh allocations from a cold pool at one thread; 3, then 0
            // from a cold spare pool at two.
            for _ in 0..2 {
                session.forward(&input).unwrap();
            }
            lazy::reset_stats();
            session.forward(&input).unwrap();
            let stats = lazy::stats();
            assert_eq!(stats.fresh_allocs, 0, "{threads} threads: {stats:?}");
            assert_eq!(
                stats.pool_hits, stats.programs,
                "{threads} threads: {stats:?}"
            );
            assert_eq!(
                (stats.programs, stats.instructions),
                (PROGRAMS, INSTRUCTIONS),
                "{threads} threads: {stats:?}"
            );
        });
    }

    // Training on the same thread still records the whole tape, the
    // forked encoder's included. At two threads the backward runs the
    // LNT's and the encoder's parts side by side; every parameter gets
    // the one-thread gradient bits.
    model.set_training(true);
    let images = Var::constant(input.images.clone());
    let gradients = |threads: usize| {
        lmmir_par::with_threads(threads, || {
            model
                .forward(&images, input.cloud.as_ref())
                .unwrap()
                .sum()
                .backward();
        });
        let params = model.parameters();
        let bits = params
            .iter()
            .map(|p| {
                p.grad()
                    .map(|g| g.data().iter().map(|v| v.to_bits()).collect())
            })
            .collect::<Vec<Option<Vec<u32>>>>();
        params.iter().for_each(Var::zero_grad);
        bits
    };
    let sequential = gradients(1);
    let missing = sequential.iter().filter(|g| g.is_none()).count();
    assert_eq!(missing, 0, "every parameter gets a gradient");
    assert!(
        gradients(2) == sequential,
        "the forked backward changed a gradient"
    );
}
