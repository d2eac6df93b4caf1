//! Adam optimizer state.
//!
//! One [`Adam`] instance is kept per parameter tensor (weights, biases,
//! embedding tables). The update is the textbook Adam with bias correction.

/// Adam optimizer hyper-parameters shared across all parameter tensors.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdamConfig {
    /// Learning rate (alpha).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled L2 weight decay (AdamW-style); 0 disables it.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

impl AdamConfig {
    /// Convenience constructor overriding only the learning rate.
    pub fn with_lr(lr: f32) -> Self {
        AdamConfig { lr, ..Default::default() }
    }
}

/// Per-tensor Adam state (first/second moment estimates and step counter).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state for a parameter tensor of `len` scalars.
    pub fn new(len: usize, config: AdamConfig) -> Self {
        Adam { config, m: vec![0.0; len], v: vec![0.0; len], t: 0 }
    }

    /// Applies one Adam update: `params -= lr * m_hat / (sqrt(v_hat) + eps)`.
    ///
    /// One pass over the zipped slices, which the compiler vectorizes: each
    /// element gets the same separate multiplies and adds as the scalar
    /// loop (no fused multiply-add), and vector division and square root
    /// round exactly as the scalar ones do, so the result is bit-identical.
    ///
    /// # Panics
    /// Panics if `params` and `grads` differ in length from the state.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "parameter length changed under Adam");
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        let rule = self.advance();
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            rule.apply(p, g, m, v);
        }
    }

    /// Applies an update only to the listed rows of a `rows x cols` tensor.
    ///
    /// Used by embedding tables where a minibatch only touches a few rows.
    /// `grads` must be laid out as `touched.len() * cols`.
    pub fn step_rows(&mut self, params: &mut [f32], cols: usize, touched: &[usize], grads: &[f32]) {
        assert_eq!(grads.len(), touched.len() * cols, "sparse gradient layout mismatch");
        let rule = self.advance();
        for (gi, &row) in touched.iter().enumerate() {
            for c in 0..cols {
                let i = row * cols + c;
                rule.apply(&mut params[i], grads[gi * cols + c], &mut self.m[i], &mut self.v[i]);
            }
        }
    }

    /// Counts one step and returns its update rule.
    fn advance(&mut self) -> Rule {
        self.t += 1;
        let config = self.config;
        let bc1 = 1.0 - config.beta1.powi(self.t as i32);
        let bc2 = 1.0 - config.beta2.powi(self.t as i32);
        Rule { config, bc1, bc2 }
    }

    /// The number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// One step's update: the hyper-parameters and the bias corrections.
struct Rule {
    config: AdamConfig,
    bc1: f32,
    bc2: f32,
}

impl Rule {
    /// Updates one parameter `p` with gradient `g` and moments `m`, `v`.
    #[inline(always)]
    fn apply(&self, p: &mut f32, g: f32, m: &mut f32, v: &mut f32) {
        let AdamConfig { lr, beta1, beta2, eps, weight_decay } = self.config;
        *m = beta1 * *m + (1.0 - beta1) * g;
        *v = beta2 * *v + (1.0 - beta2) * g * g;
        let m_hat = *m / self.bc1;
        let v_hat = *v / self.bc2;
        let mut update = lr * m_hat / (v_hat.sqrt() + eps);
        if weight_decay > 0.0 {
            update += lr * weight_decay * *p;
        }
        *p -= update;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(x) = (x - 3)^2 starting from 0.
        let mut param = vec![0.0f32];
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.1));
        for _ in 0..500 {
            let grad = vec![2.0 * (param[0] - 3.0)];
            adam.step(&mut param, &grad);
        }
        assert!((param[0] - 3.0).abs() < 1e-2, "got {}", param[0]);
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut param = vec![0.0f32];
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.05));
        adam.step(&mut param, &[10.0]);
        assert!((param[0].abs() - 0.05).abs() < 1e-3, "got {}", param[0]);
    }

    #[test]
    fn step_rows_only_touches_listed_rows() {
        let cols = 2;
        let mut params = vec![1.0f32; 3 * cols];
        let mut adam = Adam::new(params.len(), AdamConfig::with_lr(0.1));
        adam.step_rows(&mut params, cols, &[1], &[1.0, 1.0]);
        assert_eq!(&params[0..2], &[1.0, 1.0], "row 0 must be untouched");
        assert_eq!(&params[4..6], &[1.0, 1.0], "row 2 must be untouched");
        assert!(params[2] < 1.0 && params[3] < 1.0, "row 1 must be updated");
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        let mut param = vec![1.0f32];
        let config = AdamConfig { weight_decay: 0.1, ..AdamConfig::with_lr(0.1) };
        let mut adam = Adam::new(1, config);
        for _ in 0..10 {
            adam.step(&mut param, &[0.0]);
        }
        assert!(param[0] < 1.0);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn step_rejects_wrong_gradient_length() {
        let mut param = vec![0.0f32; 2];
        let mut adam = Adam::new(2, AdamConfig::default());
        adam.step(&mut param, &[1.0]);
    }
}
