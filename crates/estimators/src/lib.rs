//! # ce-estimators — learned cardinality estimators, from scratch
//!
//! The three models the paper evaluates, rebuilt on the `ce-nn` substrate,
//! plus the classical baseline:
//!
//! * [`Mscn`] — supervised, query-driven, set-based (per-predicate module +
//!   mean pooling + output net); handles single-table and star-join queries;
//!   doubles as CQR quantile heads via [`TrainLoss::Pinball`].
//! * [`Naru`] — unsupervised, data-driven autoregressive factorization with
//!   progressive sampling for range predicates; [`NaruMade`] is the same
//!   model over a MADE masked backbone (the original paper's architecture).
//! * [`LwNn`] — lightweight MLP over heuristic features (1-D histogram
//!   selectivities + AVI estimate).
//! * [`AviModel`] / [`PostgresEstimator`] — Postgres-style per-column
//!   histograms under attribute-value independence.
//! * [`SamplingEstimator`] — the traditional uniform-sample estimator with
//!   classical CLT confidence intervals (the paper's §I contrast).
//! * [`Spn`] — a DeepDB-style sum-product network (the other data-driven
//!   family in the paper's taxonomy), with exact conjunctive-query
//!   inference.
//!
//! All models implement [`ce_conformal::Regressor`] over the canonical flat
//! query encoding of [`SingleTableFeaturizer`] / [`StarFeaturizer`], so every
//! prediction-interval method can wrap every model unchanged.

#![warn(missing_docs)]

mod adapters;
mod featurize;
mod histogram;
mod lwnn;
mod made;
mod mscn;
mod naru;
mod sampling;
mod spn;

pub use adapters::{
    fit_difficulty_model, AviModel, EnsembleSpread, GbdtCardinality, GbdtModel,
};
pub use featurize::{SingleTableFeaturizer, StarFeaturizer, BLOCK};
pub use histogram::{ColumnHistogram, PostgresEstimator, TableStatistics};
pub use lwnn::{LwNn, LwNnConfig};
pub use made::{NaruMade, NaruMadeConfig};
pub use mscn::{Mscn, MscnConfig, MscnLayout, TrainLoss};
pub use naru::{Naru, NaruConfig};
pub use sampling::{normal_quantile, SamplingEstimator};
pub use spn::{Spn, SpnConfig};
