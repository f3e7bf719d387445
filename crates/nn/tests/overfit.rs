//! Learning-capability tests: small networks must be able to overfit tiny
//! datasets — the classic end-to-end sanity check for a training stack.

use lmmir_nn::{Activation, BatchNorm2d, Conv2d, Layer, Linear, Module, Sequential};
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{Adam, Optimizer, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn mlp_overfits_xor() {
    let mut rng = StdRng::seed_from_u64(0);
    let mlp = Sequential::new()
        .push(Linear::new(2, 8, true, &mut rng))
        .push(Activation::Tanh)
        .push(Linear::new(8, 1, true, &mut rng));
    let x = Var::constant(
        Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap(),
    );
    let y = Var::constant(Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]).unwrap());
    let mut opt = Adam::new(mlp.parameters(), 0.05);
    let mut final_loss = f32::INFINITY;
    for _ in 0..400 {
        opt.zero_grad();
        let loss = mlp.forward(&x).unwrap().mse_loss(&y).unwrap();
        final_loss = loss.value().item();
        loss.backward();
        opt.step();
    }
    assert!(final_loss < 1e-2, "xor not learned: loss {final_loss}");
    let pred = mlp.forward(&x).unwrap().to_tensor();
    assert!(pred.data()[0] < 0.5 && pred.data()[1] > 0.5);
    assert!(pred.data()[2] > 0.5 && pred.data()[3] < 0.5);
}

#[test]
fn conv_net_learns_edge_detection() {
    // Target: horizontal gradient magnitude of the input — exactly
    // representable by a 3x3 kernel, so the conv must drive loss to ~0.
    let mut rng = StdRng::seed_from_u64(1);
    let conv = Conv2d::new(1, 1, 3, ConvSpec::new(1, 1), true, &mut rng);
    let mut images = Vec::new();
    let mut targets = Vec::new();
    for seed in 0..4u64 {
        let mut r2 = StdRng::seed_from_u64(seed);
        let img: Vec<f32> = (0..64).map(|_| r2.gen_range(-1.0..1.0)).collect();
        let t = Tensor::from_vec(img.clone(), &[1, 1, 8, 8]).unwrap();
        // target[y][x] = img[y][x+1] - img[y][x-1] (zero padded)
        let mut tgt = vec![0.0f32; 64];
        for y in 0..8 {
            for x in 0..8 {
                let right = if x + 1 < 8 { img[y * 8 + x + 1] } else { 0.0 };
                let left = if x > 0 { img[y * 8 + x - 1] } else { 0.0 };
                tgt[y * 8 + x] = right - left;
            }
        }
        images.push(Var::constant(t));
        targets.push(Var::constant(Tensor::from_vec(tgt, &[1, 1, 8, 8]).unwrap()));
    }
    let mut opt = Adam::new(conv.parameters(), 0.03);
    let mut final_loss = f32::INFINITY;
    for _ in 0..300 {
        for (x, y) in images.iter().zip(&targets) {
            opt.zero_grad();
            let loss = conv.forward(x).unwrap().mse_loss(y).unwrap();
            final_loss = loss.value().item();
            loss.backward();
            opt.step();
        }
    }
    assert!(final_loss < 1e-3, "edge filter not learned: {final_loss}");
}

#[test]
fn batchnorm_network_trains_stably() {
    // A conv + BN + conv regression stack must fit a constant-field mapping
    // without diverging (exercises BN backward through composed primitives).
    let mut rng = StdRng::seed_from_u64(2);
    let c1 = Conv2d::new(2, 4, 3, ConvSpec::new(1, 1), true, &mut rng);
    let bn = BatchNorm2d::new(4);
    let c2 = Conv2d::new(4, 1, 1, ConvSpec::new(1, 0), true, &mut rng);
    let x = Var::constant(lmmir_tensor::init::uniform(&[2, 2, 6, 6], 1.0, &mut rng));
    let y = Var::constant(Tensor::full(&[2, 1, 6, 6], 0.25));
    let params: Vec<Var> = c1
        .parameters()
        .into_iter()
        .chain(bn.parameters())
        .chain(c2.parameters())
        .collect();
    let mut opt = Adam::new(params, 0.02);
    let mut last = f32::INFINITY;
    for _ in 0..200 {
        opt.zero_grad();
        let h = bn.forward(&c1.forward(&x).unwrap()).unwrap().relu();
        let loss = c2.forward(&h).unwrap().mse_loss(&y).unwrap();
        last = loss.value().item();
        assert!(last.is_finite(), "training diverged");
        loss.backward();
        opt.step();
    }
    assert!(last < 1e-3, "constant field not fitted: {last}");
}

#[test]
fn attention_learns_token_selection() {
    // Cross-attention from a single query over 4 tokens must learn to copy
    // the value of the "marked" token (marker in the key features).
    use lmmir_nn::MultiHeadAttention;
    let mut rng = StdRng::seed_from_u64(3);
    let attn = MultiHeadAttention::new(4, 1, &mut rng);
    let mut opt = Adam::new(attn.parameters(), 0.02);
    let mut last = f32::INFINITY;
    for step in 0..600 {
        let marked = step % 4;
        // tokens: feature 0 = marker, feature 1 = payload
        let mut kv = vec![0.0f32; 4 * 4];
        for t in 0..4 {
            kv[t * 4] = if t == marked { 1.0 } else { 0.0 };
            kv[t * 4 + 1] = (t as f32 + 1.0) * 0.2;
        }
        let payload = (marked as f32 + 1.0) * 0.2;
        let kvv = Var::constant(Tensor::from_vec(kv, &[1, 4, 4]).unwrap());
        let q = Var::constant(Tensor::ones(&[1, 1, 4]));
        let target =
            Var::constant(Tensor::from_vec(vec![payload, 0.0, 0.0, 0.0], &[1, 1, 4]).unwrap());
        opt.zero_grad();
        let out = attn.forward_qkv(&q, &kvv, &kvv).unwrap();
        let loss = out.mse_loss(&target).unwrap();
        last = loss.value().item();
        loss.backward();
        opt.step();
    }
    assert!(last < 0.02, "attention selection not learned: {last}");
}
