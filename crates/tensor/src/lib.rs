//! # lmmir-tensor
//!
//! A small, dependency-light CPU tensor library with reverse-mode automatic
//! differentiation. It is the deep-learning substrate of the LMM-IR
//! reproduction: the paper trains its models with PyTorch on an H100 GPU,
//! while this crate provides the same layer semantics (dense `f32` tensors,
//! broadcasting, `im2col` convolutions, batched matrix multiplication,
//! softmax attention, Adam) on commodity CPUs.
//!
//! The crate is split into two levels:
//!
//! * [`Tensor`] — a plain, contiguous, row-major `f32` n-d array with the raw
//!   numerical kernels (no graph, no gradients).
//! * [`Var`] — an autograd variable wrapping a [`Tensor`] in a dynamically
//!   built computation graph. Calling [`Var::backward`] runs reverse-mode
//!   differentiation and accumulates gradients on every parameter leaf.
//!
//! ```
//! use lmmir_tensor::{Tensor, Var};
//!
//! # fn main() -> Result<(), lmmir_tensor::TensorError> {
//! // f(x) = sum((x * x) + 3x)   =>   df/dx = 2x + 3
//! let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[2])?);
//! let y = x.mul(&x)?.add(&x.scale(3.0))?.sum();
//! y.backward();
//! let g = x.grad().expect("gradient");
//! assert_eq!(g.data(), &[5.0, 7.0]);
//! # Ok(())
//! # }
//! ```

pub mod autograd;
pub mod conv;
pub mod error;
pub mod init;
pub mod io;
pub mod lazy;
pub mod linalg;
pub mod ops;
pub mod optim;
pub mod shape;
pub mod tensor;

pub use autograd::Var;
pub use error::TensorError;
pub use optim::{Adam, GradClip, Optimizer, Sgd};
pub use tensor::Tensor;

/// Convenient alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
