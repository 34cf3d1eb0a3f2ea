//! Machine-learning substrate for the architecture-centric predictor.
//!
//! The paper's models are small and classical: multi-layer perceptrons with
//! one hidden layer of 10 neurons for the per-program predictors (§5.2),
//! and ordinary least-squares linear regression for the cross-program
//! combination (§5.3). Rust's ML ecosystem offers no canonical equivalents
//! of the exact classical stack, so this crate implements them from
//! scratch:
//!
//! * [`linalg`] — dense matrices, Cholesky and Gaussian solvers;
//! * [`scale`] — feature/target standardisation;
//! * [`mlp`] — feed-forward network, tanh hidden layer, linear output,
//!   mini-batch back-propagation with momentum (§5.2.1);
//! * [`tanh`] — its activation, a bit-exact port of glibc's tanh as a
//!   scalar reference and a branch-free lane kernel, so results do not
//!   depend on the host's libm;
//! * [`rbf`] — radial-basis-function networks, the alternative
//!   program-specific model the paper cites (Joseph et al., MICRO-39);
//! * [`linreg`] — OLS via the normal equations with a ridge fallback
//!   (§5.3.1, equation 5);
//! * [`stats`] — the paper's evaluation metrics: relative mean absolute
//!   error and the Pearson correlation coefficient (§6.1), plus quantiles
//!   for the design-space characterisation (§4.1);
//! * [`cluster`] — agglomerative hierarchical clustering with average
//!   linkage and a text dendrogram, as used for program similarity (§4.2).

#![warn(missing_docs)]

pub mod cluster;
mod isa;
pub mod linalg;
pub mod linreg;
pub mod mlp;
pub mod rbf;
pub mod scale;
pub mod stats;
pub mod tanh;

pub use cluster::{Dendrogram, Merge};
pub use linalg::Matrix;
pub use linreg::LinearRegression;
pub use mlp::{Mlp, MlpConfig};
pub use rbf::{RbfConfig, RbfNetwork};
pub use scale::Standardizer;
