//! Regression losses.
//!
//! Each loss is elementwise over (prediction, target) pairs; batch reduction
//! is always the mean. The pinball loss is what turns an MSCN/LW-NN clone
//! into a quantile-regression head for CQR (paper §III-F).

/// An elementwise regression loss with its derivative w.r.t. the prediction.
pub trait Loss {
    /// Loss value for one (prediction, target) pair.
    fn loss(&self, prediction: f32, target: f32) -> f32;
    /// dLoss/dPrediction for one pair.
    fn grad(&self, prediction: f32, target: f32) -> f32;

    /// Mean loss over a batch.
    fn mean_loss(&self, predictions: &[f32], targets: &[f32]) -> f32 {
        assert_eq!(predictions.len(), targets.len(), "batch length mismatch");
        if predictions.is_empty() {
            return 0.0;
        }
        let sum: f32 =
            predictions.iter().zip(targets).map(|(&p, &t)| self.loss(p, t)).sum();
        sum / predictions.len() as f32
    }

    /// Batch gradient into `out`, one value per prediction, already divided
    /// by the batch size so downstream layers see the gradient of the
    /// *mean* loss.
    fn mean_grad_into(&self, predictions: &[f32], targets: &[f32], out: &mut [f32]) {
        assert_eq!(predictions.len(), targets.len(), "batch length mismatch");
        assert_eq!(out.len(), predictions.len(), "gradient length mismatch");
        let n = predictions.len().max(1) as f32;
        for ((o, &p), &t) in out.iter_mut().zip(predictions).zip(targets) {
            *o = self.grad(p, t) / n;
        }
    }
}

/// Mean squared error: (p - t)^2.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mse;

impl Loss for Mse {
    fn loss(&self, p: f32, t: f32) -> f32 {
        let d = p - t;
        d * d
    }
    fn grad(&self, p: f32, t: f32) -> f32 {
        2.0 * (p - t)
    }
}

/// Huber loss: quadratic near zero, linear beyond `delta`. Robust to the
/// heavy-tailed residuals learned estimators produce on hard queries.
#[derive(Debug, Clone, Copy)]
pub struct Huber {
    /// Transition point between quadratic and linear regimes.
    pub delta: f32,
}

impl Default for Huber {
    fn default() -> Self {
        Huber { delta: 1.0 }
    }
}

impl Loss for Huber {
    fn loss(&self, p: f32, t: f32) -> f32 {
        let d = p - t;
        if d.abs() <= self.delta {
            0.5 * d * d
        } else {
            self.delta * (d.abs() - 0.5 * self.delta)
        }
    }
    fn grad(&self, p: f32, t: f32) -> f32 {
        let d = p - t;
        if d.abs() <= self.delta {
            d
        } else {
            self.delta * d.signum()
        }
    }
}

/// Pinball (quantile) loss for quantile level `tau` in (0, 1):
/// `max(tau (t - p), (tau - 1)(t - p))`.
///
/// Minimizing it makes the model estimate the `tau`-quantile of `t | x`,
/// which is exactly the ingredient conformalized quantile regression needs.
#[derive(Debug, Clone, Copy)]
pub struct Pinball {
    /// Quantile level in (0, 1).
    pub tau: f32,
}

impl Pinball {
    /// Creates a pinball loss for quantile `tau`.
    ///
    /// # Panics
    /// Panics unless `0 < tau < 1`.
    pub fn new(tau: f32) -> Self {
        assert!(tau > 0.0 && tau < 1.0, "pinball tau must be in (0,1), got {tau}");
        Pinball { tau }
    }
}

impl Loss for Pinball {
    fn loss(&self, p: f32, t: f32) -> f32 {
        let d = t - p;
        if d >= 0.0 {
            self.tau * d
        } else {
            (self.tau - 1.0) * d
        }
    }
    fn grad(&self, p: f32, t: f32) -> f32 {
        // d/dp of pinball: -tau when under-predicting, (1 - tau) otherwise.
        if t > p {
            -self.tau
        } else if t < p {
            1.0 - self.tau
        } else {
            0.0
        }
    }
}

/// Smooth log-q-error loss used to train MSCN-style models.
///
/// Predictions and targets are log-selectivities, so `|p - t|` is the log of
/// the q-error; squaring it penalizes multiplicative error symmetrically the
/// way the mean-q-error objective in the MSCN paper does, while staying
/// smooth at zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogQError;

impl Loss for LogQError {
    fn loss(&self, p: f32, t: f32) -> f32 {
        let d = p - t;
        d * d
    }
    fn grad(&self, p: f32, t: f32) -> f32 {
        2.0 * (p - t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad<L: Loss>(loss: &L, p: f32, t: f32) -> f32 {
        let eps = 1e-3;
        (loss.loss(p + eps, t) - loss.loss(p - eps, t)) / (2.0 * eps)
    }

    #[test]
    fn mse_gradient_matches_numeric() {
        for &(p, t) in &[(0.0, 1.0), (2.5, -1.0), (3.0, 3.0)] {
            assert!((Mse.grad(p, t) - numeric_grad(&Mse, p, t)).abs() < 1e-2);
        }
    }

    #[test]
    fn huber_gradient_matches_numeric_both_regimes() {
        let h = Huber { delta: 1.0 };
        for &(p, t) in &[(0.2, 0.0), (5.0, 0.0), (-5.0, 0.0)] {
            assert!((h.grad(p, t) - numeric_grad(&h, p, t)).abs() < 1e-2);
        }
    }

    #[test]
    fn huber_is_linear_in_tails() {
        let h = Huber { delta: 1.0 };
        let l10 = h.loss(10.0, 0.0);
        let l11 = h.loss(11.0, 0.0);
        assert!((l11 - l10 - h.delta).abs() < 1e-5);
    }

    #[test]
    fn pinball_gradient_matches_numeric_away_from_kink() {
        let pb = Pinball::new(0.9);
        for &(p, t) in &[(0.0, 1.0), (1.0, 0.0)] {
            assert!((pb.grad(p, t) - numeric_grad(&pb, p, t)).abs() < 1e-2);
        }
    }

    #[test]
    fn pinball_minimizer_is_the_quantile() {
        // For samples 1..=100, the tau=0.9 pinball loss over candidate
        // constants is minimized near the 90th percentile.
        let pb = Pinball::new(0.9);
        let targets: Vec<f32> = (1..=100).map(|v| v as f32).collect();
        let mut best = (f32::INFINITY, 0.0f32);
        let mut c = 1.0f32;
        while c <= 100.0 {
            let loss: f32 = targets.iter().map(|&t| pb.loss(c, t)).sum();
            if loss < best.0 {
                best = (loss, c);
            }
            c += 1.0;
        }
        assert!((best.1 - 90.0).abs() <= 1.5, "pinball argmin {}", best.1);
    }

    #[test]
    #[should_panic(expected = "tau must be in")]
    fn pinball_rejects_invalid_tau() {
        Pinball::new(1.5);
    }

    #[test]
    fn mean_loss_and_grad_average_over_batch() {
        let preds = [1.0, 2.0];
        let targets = [0.0, 0.0];
        assert!((Mse.mean_loss(&preds, &targets) - 2.5).abs() < 1e-6);
        let mut g = [0.0; 2];
        Mse.mean_grad_into(&preds, &targets, &mut g);
        assert!((g[0] - 1.0).abs() < 1e-6);
        assert!((g[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_batch_mean_loss_is_zero() {
        assert_eq!(Mse.mean_loss(&[], &[]), 0.0);
    }
}
