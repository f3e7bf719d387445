//! # lmmir-nn
//!
//! Neural-network layers on top of [`lmmir_tensor`]: the `torch.nn`
//! equivalent used by the LMM-IR reproduction. Provides convolution,
//! batch/layer normalization, linear, embedding, multi-head self/cross
//! attention, the attention gate from Attention U-Net and WACA-UNet's
//! channel attention — every building block the paper's architecture and
//! its comparison families need (pooling is [`lmmir_tensor::Var::max_pool2d`]).
//!
//! Every layer implements [`Layer`] — the one walk over a model that
//! `parameters`, `buffers` and `set_training` derive from, and
//! that [`state_dict`] / [`load_state_dict`] save and restore — and those
//! with a single-input forward also [`Module`]; constructors take an
//! explicit RNG so weight initialization is reproducible under a fixed seed.
//!
//! ```
//! use lmmir_nn::{Linear, Module};
//! use lmmir_tensor::{Tensor, Var};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), lmmir_tensor::TensorError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(4, 2, true, &mut rng);
//! let x = Var::constant(Tensor::zeros(&[3, 4]));
//! let y = layer.forward(&x)?;
//! assert_eq!(y.dims(), vec![3, 2]);
//! # Ok(())
//! # }
//! ```

pub mod attention;
pub mod container;
pub mod conv;
pub mod embedding;
pub mod linear;
pub mod module;
pub mod norm;

pub use attention::{AttentionGate, ChannelAttention, MultiHeadAttention};
pub use container::Sequential;
pub use conv::{Conv2d, ConvTranspose2d};
pub use embedding::Embedding;
pub use linear::Linear;
pub use module::{load_state_dict, state_dict, Activation, Layer, Module};
pub use norm::{BatchNorm2d, LayerNorm};
