//! # ce-nn — neural-network substrate for learned cardinality estimation
//!
//! A deliberately small, dependency-light neural network library: dense
//! layers with explicit backpropagation, Adam, embeddings with sparse
//! updates, segment pooling for set-structured (MSCN-style) inputs, and a
//! softmax/cross-entropy head for autoregressive (Naru-style) conditionals.
//!
//! Everything is CPU-only and `f32`. The mat-mul kernel is register-blocked,
//! SIMD at the best level the host supports, and runs each product on the
//! calling thread; callers parallelize at coarser boundaries (fold fits,
//! queries of a batch). It keeps a strict **determinism contract**: the
//! same seed produces bit-identical weights and predictions at every kernel
//! level, because every floating-point reduction keeps a single accumulator
//! in fixed index order, with no fused multiply-add — SIMD lanes only
//! redistribute independent output elements.
//! See `DESIGN.md` ("Determinism contract") for the full argument.
//!
//! ```
//! use ce_nn::{Mlp, MlpConfig, Matrix, Mse};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(2, &MlpConfig::default(), &mut rng);
//! let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
//! mlp.fit(&x, &[1.0, -1.0], &Mse, 10, 2, 0);
//! let _pred = mlp.predict_one(&[0.0, 1.0]);
//! ```

#![warn(missing_docs)]

mod adam;
mod embedding;
mod init;
mod layer;
mod loss;
mod masked;
mod matrix;
mod mlp;
mod pooling;
mod softmax;
mod tape;

pub use adam::{Adam, AdamConfig};
pub use embedding::Embedding;
pub use init::Init;
pub use layer::{Activation, Dense};
pub use loss::{Huber, LogQError, Loss, Mse, Pinball};
pub use masked::{made_masks, MaskedCache, MaskedDense};
pub use matrix::{matmul_kernel_level, Matrix};
pub use mlp::{Mlp, MlpConfig};
pub use pooling::{segment_mean_backward_into, segment_mean_into};
pub use softmax::{class_probability, softmax_cross_entropy, softmax_rows};
pub use tape::Tape;
