//! # ce-conformal — prediction intervals for learned cardinality estimation
//!
//! The subject of the reproduced paper: four practical, distribution-free
//! methods that wrap a *black-box* learned cardinality estimator and attach a
//! prediction interval `[low, high]` containing the true cardinality with
//! user-chosen probability `1 − α`:
//!
//! | method | struct | extra training | interval shape |
//! |---|---|---|---|
//! | Jackknife+ (leave-one-out) | [`JackknifePlus`] | n models | adaptive, 1−2α guarantee |
//! | CV+ / JK-CV+ (K-fold) | [`CvPlus`], [`JackknifeCv`] | K models | adaptive / symmetric |
//! | Split conformal | [`SplitConformal`] | none | constant per score |
//! | Locally weighted S-CP | [`LocallyWeightedConformal`] | one difficulty model | scales with U(X) |
//! | Conformalized quantile regression | [`ConformalizedQuantileRegression`] | two quantile heads | asymmetric, tightest |
//!
//! Plus the future-work directions §V-D sketches — localized conformal
//! prediction ([`LocalizedConformal`]) and group-conditional calibration
//! ([`MondrianConformal`]) — and the operational machinery the paper
//! discusses: online and sliding-window calibration
//! ([`OnlineConformal::new`], [`OnlineConformal::windowed`]), martingale
//! exchangeability testing ([`ExchangeabilityMartingale`]), alternative
//! scoring functions ([`AbsoluteResidual`], [`QErrorScore`],
//! [`RelativeErrorScore`]), and evaluation metrics.
//!
//! ```
//! use ce_conformal::{AbsoluteResidual, SplitConformal};
//!
//! // Any `Fn(&[f32]) -> f64` is a black-box model.
//! let model = |f: &[f32]| f[0] as f64;
//! let calib_x: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
//! let calib_y: Vec<f64> = (0..100).map(|i| i as f64 + ((i % 5) as f64 - 2.0)).collect();
//! let scp = SplitConformal::calibrate(model, AbsoluteResidual, &calib_x, &calib_y, 0.1);
//! let interval = scp.interval(&[50.0]);
//! assert!(interval.contains(50.0));
//! ```

#![warn(missing_docs)]

mod asymmetric;
mod chaos;
mod checkpoint;
mod cqr;
mod error;
mod exchangeability;
mod heal;
mod interval;
mod jackknife;
mod localized;
mod locally_weighted;
mod mondrian;
mod metrics;
mod monitor;
mod online;
mod quantile;
mod regressor;
mod resilient;
mod score;
mod service;
mod split;

pub use asymmetric::AsymmetricSplitConformal;
pub use chaos::{install_quiet_chaos_hook, ChaosConfig, ChaosPanic, ChaosRegressor, ChaosStats};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, read_checkpoint, write_checkpoint, Checkpoint,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use cqr::ConformalizedQuantileRegression;
pub use error::CardEstError;
pub use exchangeability::ExchangeabilityMartingale;
pub use heal::{HealConfig, HealEvent, HealReason, HealState, SelfHealingService};
pub use interval::PredictionInterval;
pub use jackknife::{assign_folds, CvPlus, JackknifeCv, JackknifePlus};
pub use localized::LocalizedConformal;
pub use locally_weighted::LocallyWeightedConformal;
pub use mondrian::MondrianConformal;
pub use metrics::{
    coverage, interval_report, mean_width, median_width, percentiles, q_error,
    width_ratio, IntervalReport, Percentiles,
};
pub use monitor::{CoverageDrift, CoverageMonitor, CoverageMonitorConfig};
pub use online::OnlineConformal;
pub use quantile::{
    conformal_quantile, conformal_quantile_lower, empirical_quantile, kth_smallest,
    try_conformal_quantile, try_conformal_quantile_lower,
};
pub use regressor::{FitRegressor, Regressor};
pub use resilient::{
    BreakerConfig, BreakerSnapshot, BreakerState, PiEstimator, ResilienceStats,
    ResilientService,
};
pub use score::{AbsoluteResidual, QErrorScore, RelativeErrorScore, ScoreFunction};
pub use service::{PiService, PiServiceConfig, ServiceMode};
pub use split::SplitConformal;
