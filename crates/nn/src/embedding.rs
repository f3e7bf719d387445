//! Embedding table (index → dense vector lookup).

use crate::module::Layer;
use lmmir_tensor::{init, Result, TensorError, Var};
use rand::Rng;

/// Learnable lookup table `[vocab, dim]`.
///
/// LMM-IR embeds discrete netlist attributes (element type R/I/V, metal
/// layer ids) with small embedding tables that are summed into the point
/// features.
#[derive(Debug)]
pub struct Embedding {
    weight: Var,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates an embedding with N(0, 0.02) initialization.
    #[must_use]
    pub fn new(vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            weight: Var::parameter(init::normal(&[vocab, dim], 0.02, rng)),
            vocab,
            dim,
        }
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a flat index list, returning `[indices.len(), dim]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an index ≥ vocab.
    pub fn lookup(&self, indices: &[usize]) -> Result<Var> {
        self.weight.gather_rows(indices)
    }

    /// Looks up a batch of token-index rows, returning `[b, n, dim]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn lookup_batch(&self, indices: &[Vec<usize>]) -> Result<Var> {
        let b = indices.len();
        let n = indices.first().map_or(0, Vec::len);
        for row in indices {
            if row.len() != n {
                return Err(TensorError::InvalidShape {
                    dims: vec![row.len()],
                    reason: "ragged index batch".to_string(),
                });
            }
        }
        let flat: Vec<usize> = indices.iter().flatten().copied().collect();
        self.weight.gather_rows(&flat)?.reshape(&[b, n, self.dim])
    }
}

/// A lookup (no GEMM): stays f32 under [`Layer::quantize`].
impl Layer for Embedding {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(10, 4, &mut rng);
        let v = e.lookup(&[0, 3, 9]).unwrap();
        assert_eq!(v.dims(), vec![3, 4]);
        let b = e.lookup_batch(&[vec![0, 1], vec![2, 3]]).unwrap();
        assert_eq!(b.dims(), vec![2, 2, 4]);
    }

    #[test]
    fn out_of_vocab_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(4, 2, &mut rng);
        assert!(e.lookup(&[4]).is_err());
    }

    #[test]
    fn ragged_batch_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(4, 2, &mut rng);
        assert!(e.lookup_batch(&[vec![0], vec![1, 2]]).is_err());
    }

    #[test]
    fn repeated_indices_accumulate_gradient() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(4, 2, &mut rng);
        e.lookup(&[1, 1, 2]).unwrap().sum().backward();
        let g = e.parameters()[0].grad().unwrap();
        assert_eq!(g.at(&[1, 0]), 2.0);
        assert_eq!(g.at(&[2, 0]), 1.0);
        assert_eq!(g.at(&[0, 0]), 0.0);
    }
}
