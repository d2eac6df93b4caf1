//! Typed errors for the serving path.
//!
//! The calibration-time API panics on programmer errors (mismatched lengths,
//! nonsense α) because those are bugs in the harness, not runtime
//! conditions. The *serving* path is different: a production interval server
//! sits in front of a black-box learned model that can emit NaN, take
//! adversarial feature vectors, or outright panic — none of which may take
//! the process down. Every `try_*` method and the whole
//! [`crate::ResilientService`] layer report failures through
//! [`CardEstError`] instead.

use std::fmt;

/// A recoverable failure in the prediction-interval serving path.
#[derive(Debug, Clone, PartialEq)]
pub enum CardEstError {
    /// A conformal score or model prediction came out NaN/±∞.
    NonFiniteScore {
        /// The offending value (NaN or ±∞).
        value: f64,
        /// Which computation produced it.
        context: &'static str,
    },
    /// The calibration inputs have different lengths.
    LengthMismatch {
        /// Number of feature vectors.
        features: usize,
        /// Number of targets.
        targets: usize,
    },
    /// Miscoverage level outside `(0, 1)`.
    InvalidAlpha(
        /// The rejected α.
        f64,
    ),
    /// A structural parameter (window, fold count, neighbourhood size, …)
    /// is out of its valid range.
    InvalidParameter(
        /// Human-readable description of the violated constraint.
        &'static str,
    ),
    /// A query feature vector has the wrong dimensionality.
    DimensionMismatch {
        /// Dimensionality the estimator was built for.
        expected: usize,
        /// Dimensionality of the rejected query.
        actual: usize,
    },
    /// A query feature vector contains NaN/±∞.
    NonFiniteFeature {
        /// Index of the first non-finite component.
        index: usize,
    },
    /// The wrapped black-box model panicked; the panic was caught and
    /// isolated.
    ModelPanic(
        /// The panic payload rendered as text (best effort).
        String,
    ),
    /// An estimator is temporarily out of service (its circuit breaker is
    /// open after repeated failures).
    CircuitOpen {
        /// Name of the tripped estimator.
        estimator: String,
    },
    /// Every estimator in the fallback chain failed for this query.
    AllEstimatorsFailed {
        /// Number of estimators tried.
        tried: usize,
    },
    /// A score scheduled for eviction was not found in the calibration
    /// multiset. Evictions match exactly, so a score perturbed between
    /// insert and remove by even one ulp is not found.
    ScoreNotFound {
        /// The score that could not be located.
        score: f64,
    },
    /// A checkpoint file is structurally invalid (bad magic, truncated,
    /// checksum mismatch, or malformed payload); recovery must cold-start.
    CheckpointCorrupt(
        /// What failed while decoding.
        &'static str,
    ),
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// Reading or writing a checkpoint file failed at the filesystem level.
    CheckpointIo(
        /// The rendered I/O error.
        String,
    ),
}

impl fmt::Display for CardEstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CardEstError::NonFiniteScore { value, context } => {
                write!(f, "non-finite value {value} in {context}")
            }
            CardEstError::LengthMismatch { features, targets } => {
                write!(f, "calibration length mismatch: {features} features vs {targets} targets")
            }
            CardEstError::InvalidAlpha(a) => {
                write!(f, "alpha must be in (0,1), got {a}")
            }
            CardEstError::InvalidParameter(what) => write!(f, "{what}"),
            CardEstError::DimensionMismatch { expected, actual } => {
                write!(f, "feature dimension mismatch: expected {expected}, got {actual}")
            }
            CardEstError::NonFiniteFeature { index } => {
                write!(f, "non-finite feature at index {index}")
            }
            CardEstError::ModelPanic(msg) => write!(f, "model panicked: {msg}"),
            CardEstError::CircuitOpen { estimator } => {
                write!(f, "estimator `{estimator}` circuit breaker is open")
            }
            CardEstError::AllEstimatorsFailed { tried } => {
                write!(f, "all {tried} estimators in the fallback chain failed")
            }
            CardEstError::ScoreNotFound { score } => {
                write!(f, "score {score} not found in the calibration multiset")
            }
            CardEstError::CheckpointCorrupt(what) => {
                write!(f, "corrupt checkpoint: {what}")
            }
            CardEstError::CheckpointVersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} incompatible with expected {expected}")
            }
            CardEstError::CheckpointIo(msg) => write!(f, "checkpoint I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CardEstError {}

/// Validates `alpha ∈ (0, 1)`.
pub(crate) fn check_alpha(alpha: f64) -> Result<(), CardEstError> {
    if alpha > 0.0 && alpha < 1.0 {
        Ok(())
    } else {
        Err(CardEstError::InvalidAlpha(alpha))
    }
}

/// Passes a finite value through; reports NaN/±∞ as
/// [`CardEstError::NonFiniteScore`] from `context`.
pub(crate) fn finite_or_err(value: f64, context: &'static str) -> Result<f64, CardEstError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(CardEstError::NonFiniteScore { value, context })
    }
}

/// Validates matching calibration lengths.
pub(crate) fn check_lengths(features: usize, targets: usize) -> Result<(), CardEstError> {
    if features == targets {
        Ok(())
    } else {
        Err(CardEstError::LengthMismatch { features, targets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CardEstError::NonFiniteScore { value: f64::NAN, context: "model prediction" };
        assert!(e.to_string().contains("model prediction"));
        let e = CardEstError::DimensionMismatch { expected: 4, actual: 7 };
        assert!(e.to_string().contains("expected 4"));
        let e = CardEstError::AllEstimatorsFailed { tried: 3 };
        assert!(e.to_string().contains("all 3"));
    }

    #[test]
    fn validators_accept_good_and_reject_bad() {
        assert!(check_alpha(0.1).is_ok());
        assert_eq!(check_alpha(1.0), Err(CardEstError::InvalidAlpha(1.0)));
        assert!(matches!(check_alpha(f64::NAN), Err(CardEstError::InvalidAlpha(_))));
        assert!(check_lengths(3, 3).is_ok());
        assert_eq!(
            check_lengths(2, 5),
            Err(CardEstError::LengthMismatch { features: 2, targets: 5 })
        );
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(CardEstError::InvalidAlpha(2.0));
        assert!(e.to_string().contains("alpha"));
    }
}
