//! Multi-layer perceptron with minibatch Adam training.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::adam::AdamConfig;
use crate::layer::{Activation, Dense};
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::tape::Tape;

/// Architecture + optimizer settings for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Sizes of the hidden layers (all ReLU).
    pub hidden: Vec<usize>,
    /// Output width (1 for scalar regression).
    pub output_dim: usize,
    /// Activation on the output layer (Identity for regression).
    pub output_activation: Activation,
    /// Adam settings shared by every layer.
    pub adam: AdamConfig,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![64, 64],
            output_dim: 1,
            output_activation: Activation::Identity,
            adam: AdamConfig::default(),
        }
    }
}

/// A feed-forward network of [`Dense`] layers.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds a network `input_dim -> hidden.. -> output_dim`.
    pub fn new(input_dim: usize, config: &MlpConfig, rng: &mut StdRng) -> Self {
        let mut layers = Vec::with_capacity(config.hidden.len() + 1);
        let mut prev = input_dim;
        for &h in &config.hidden {
            layers.push(Dense::new(prev, h, Activation::Relu, config.adam, rng));
            prev = h;
        }
        layers.push(Dense::new(
            prev,
            config.output_dim,
            config.output_activation,
            config.adam,
            rng,
        ));
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("mlp has at least one layer").output_dim()
    }

    /// Training forward of the batch in `tape`'s input: every layer's
    /// output is written onto the tape, where it stays as the backward's
    /// cache. Returns the output rows. Bit-identical to [`Mlp::infer`].
    ///
    /// # Panics
    /// Panics if the input is not a whole number of rows.
    pub fn forward<'t>(&self, tape: &'t mut Tape) -> &'t [f32] {
        tape.forward(&self.layers)
    }

    /// Inference-only forward pass, on the calling thread.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("mlp has at least one layer");
        rest.iter().fold(first.infer(input), |x, layer| layer.infer(&x))
    }

    /// Inference over the row-major `input` rows, run serially on the
    /// calling thread for callers that split their own work into tasks. The
    /// hidden activations pass through `out` and `scratch`, which grow when
    /// they are too short and never shrink, so a caller that keeps the pair
    /// across calls stops allocating once they fit its largest input.
    /// Returns the output rows, a prefix of `out`. Bit-identical, row for
    /// row, to [`Mlp::infer`].
    ///
    /// # Panics
    /// Panics if `input` is not a whole number of rows.
    pub fn infer_rows<'o>(
        &self,
        input: &[f32],
        out: &'o mut Vec<f32>,
        scratch: &mut Vec<f32>,
    ) -> &'o [f32] {
        assert_eq!(input.len() % self.input_dim(), 0, "input is not a whole number of rows");
        let (last, hidden) = self.layers.split_last().expect("mlp has at least one layer");
        match hidden.split_first() {
            None => last.infer_rows(input, out),
            Some((first, rest)) => {
                let mut len = first.infer_rows(input, scratch).len();
                for layer in rest {
                    len = layer.infer_rows(&scratch[..len], out).len();
                    std::mem::swap(scratch, out);
                }
                last.infer_rows(&scratch[..len], out)
            }
        }
    }

    /// Predicts scalar outputs for a batch of feature rows.
    ///
    /// # Panics
    /// Panics if the network's output width is not 1.
    pub fn predict_scalar(&self, input: &Matrix) -> Vec<f32> {
        assert_eq!(self.output_dim(), 1, "predict_scalar needs an output width of 1");
        self.infer(input).data().to_vec()
    }

    /// Predicts a scalar output for one feature vector.
    pub fn predict_one(&self, features: &[f32]) -> f32 {
        self.predict_scalar(&Matrix::row_vector(features))[0]
    }

    /// Backpropagates the gradient the caller wrote into
    /// [`Tape::output_and_grad_mut`] after [`Mlp::forward`] on the same
    /// tape, updating every layer with Adam.
    ///
    /// With `input_grad`, also returns the gradient with respect to the
    /// network input, which is what lets composite models (Naru's
    /// embeddings) chain through this MLP. Without it, the first layer's
    /// input gradient, whose product is as large as the first layer's
    /// forward, is not computed, and the result is empty.
    pub fn backward<'t>(&mut self, tape: &'t mut Tape, input_grad: bool) -> &'t [f32] {
        tape.backward(&mut self.layers, input_grad)
    }

    /// One training step on the batch in `tape`'s input: forward, loss,
    /// backward, Adam update. Returns the mean loss before the update.
    ///
    /// # Panics
    /// Panics unless the network output width is 1 and `y` holds one target
    /// per input row.
    pub fn train_batch<L: Loss>(&mut self, tape: &mut Tape, y: &[f32], loss: &L) -> f32 {
        assert_eq!(self.output_dim(), 1, "train_batch expects scalar regression");
        self.forward(tape);
        let (preds, grad) = tape.output_and_grad_mut();
        assert_eq!(preds.len(), y.len(), "feature/target count mismatch");
        let value = loss.mean_loss(preds, y);
        loss.mean_grad_into(preds, y, grad);
        self.backward(tape, false);
        value
    }

    /// Full training loop: `epochs` passes of shuffled minibatches, through
    /// one [`Tape`] made for the fit. Returns the mean training loss of each
    /// epoch.
    pub fn fit<L: Loss>(
        &mut self,
        x: &Matrix,
        y: &[f32],
        loss: &L,
        epochs: usize,
        batch_size: usize,
        seed: u64,
    ) -> Vec<f32> {
        assert_eq!(x.rows(), y.len(), "feature/target count mismatch");
        assert!(batch_size > 0, "batch size must be positive");
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history = Vec::with_capacity(epochs);
        let mut tape = Tape::new();
        let mut yb = Vec::new();
        let epoch_hist =
            ce_telemetry::enabled().then(|| ce_telemetry::histogram("nn.epoch_ns"));
        for _ in 0..epochs {
            let start = epoch_hist.as_ref().map(|_| std::time::Instant::now());
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                let xb = tape.input_mut();
                xb.clear();
                for &i in chunk {
                    xb.extend_from_slice(x.row(i));
                }
                yb.clear();
                yb.extend(chunk.iter().map(|&i| y[i]));
                epoch_loss += self.train_batch(&mut tape, &yb, loss);
                batches += 1;
            }
            if let (Some(hist), Some(start)) = (&epoch_hist, start) {
                hist.record(start.elapsed().as_nanos() as u64);
            }
            history.push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
        }
        history
    }

    /// Number of trainable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.input_dim() * l.output_dim() + l.output_dim())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Mse, Pinball};

    fn xor_data() -> (Matrix, Vec<f32>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0.0, 1.0, 1.0, 0.0];
        (x, y)
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(42);
        let config = MlpConfig {
            hidden: vec![16],
            adam: AdamConfig::with_lr(0.01),
            ..Default::default()
        };
        let mut mlp = Mlp::new(2, &config, &mut rng);
        let (x, y) = xor_data();
        let history = mlp.fit(&x, &y, &Mse, 800, 4, 7);
        let final_loss = *history.last().unwrap();
        assert!(final_loss < 0.02, "xor did not converge: {final_loss}");
        for (i, &target) in y.iter().enumerate() {
            let p = mlp.predict_one(x.row(i));
            assert!((p - target).abs() < 0.25, "row {i}: {p} vs {target}");
        }
    }

    #[test]
    fn mlp_learns_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = MlpConfig {
            hidden: vec![8],
            adam: AdamConfig::with_lr(0.01),
            ..Default::default()
        };
        let mut mlp = Mlp::new(1, &config, &mut rng);
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32 / 50.0]).collect();
        let ys: Vec<f32> = xs.iter().map(|v| 3.0 * v[0] - 1.0).collect();
        let x = Matrix::from_rows(&xs);
        mlp.fit(&x, &ys, &Mse, 400, 16, 3);
        let p = mlp.predict_one(&[0.5]);
        assert!((p - 0.5).abs() < 0.1, "got {p}");
    }

    #[test]
    fn quantile_head_learns_conditional_quantile() {
        // Targets: y = x + noise uniform in [0, 1]. The 0.9-quantile of y|x
        // is x + 0.9. Train with pinball(0.9) and check the learned offset.
        let mut rng = StdRng::seed_from_u64(9);
        let config = MlpConfig {
            hidden: vec![16],
            adam: AdamConfig::with_lr(0.005),
            ..Default::default()
        };
        let mut mlp = Mlp::new(1, &config, &mut rng);
        use rand::Rng;
        let mut data_rng = StdRng::seed_from_u64(77);
        let xs: Vec<Vec<f32>> =
            (0..600).map(|_| vec![data_rng.gen_range(0.0..1.0f32)]).collect();
        let ys: Vec<f32> =
            xs.iter().map(|v| v[0] + data_rng.gen_range(0.0..1.0f32)).collect();
        let x = Matrix::from_rows(&xs);
        mlp.fit(&x, &ys, &Pinball::new(0.9), 300, 32, 5);
        let p = mlp.predict_one(&[0.5]);
        assert!((p - 1.4).abs() < 0.15, "0.9-quantile at x=0.5 should be ~1.4, got {p}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(10);
            let config = MlpConfig::default();
            let mut mlp = Mlp::new(3, &config, &mut rng);
            let x = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]]);
            let y = vec![1.0, -1.0];
            mlp.fit(&x, &y, &Mse, 5, 2, 99);
            mlp.predict_one(&[0.1, 0.2, 0.3])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = MlpConfig { hidden: vec![4], ..Default::default() };
        let mlp = Mlp::new(3, &config, &mut rng);
        // (3*4 + 4) + (4*1 + 1) = 21
        assert_eq!(mlp.parameter_count(), 21);
    }

    #[test]
    #[should_panic(expected = "feature/target count mismatch")]
    fn train_batch_rejects_mismatched_targets() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(2, &MlpConfig::default(), &mut rng);
        let mut tape = Tape::new();
        tape.input_mut().extend_from_slice(Matrix::zeros(3, 2).data());
        mlp.train_batch(&mut tape, &[1.0], &Mse);
    }
}
