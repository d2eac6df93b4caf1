//! Fully-connected layers with explicit backpropagation.

use rand::rngs::StdRng;

use crate::adam::{Adam, AdamConfig};
use crate::init::Init;
use crate::matrix::{gemm_rows, Matrix};

/// Elementwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x (linear output layer)
    Identity,
}

impl Activation {
    /// The activation of one pre-activation value. Layers apply it in the
    /// kernel's fused store, right after the bias.
    #[inline(always)]
    pub(crate) fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Identity => v,
        }
    }

    /// Derivative expressed in terms of the *post-activation* value `a`.
    #[inline]
    pub fn derivative_from_output(self, a: f32) -> f32 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// The natural weight initialization in front of this activation.
    pub fn default_init(self) -> Init {
        match self {
            Activation::Relu => Init::HeUniform,
            Activation::Identity => Init::XavierUniform,
        }
    }
}

/// A dense layer `y = act(x W + b)` with its own Adam state.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Dense {
    weights: Matrix, // in x out
    bias: Vec<f32>,  // out
    activation: Activation,
    opt_w: Adam,
    opt_b: Adam,
}

/// Per-batch cache needed to backpropagate through a [`Dense`] layer.
#[derive(Debug, Clone)]
pub struct DenseCache {
    /// Layer input (batch x in).
    pub input: Matrix,
    /// Post-activation output (batch x out).
    pub output: Matrix,
}

impl Dense {
    /// Creates a layer with `input_dim -> output_dim` and the activation's
    /// default initializer.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        config: AdamConfig,
        rng: &mut StdRng,
    ) -> Self {
        let weights = activation.default_init().sample(input_dim, output_dim, rng);
        Dense {
            weights,
            bias: vec![0.0; output_dim],
            activation,
            opt_w: Adam::new(input_dim * output_dim, config),
            opt_b: Adam::new(output_dim, config),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass returning the output and the cache for backward.
    pub fn forward(&self, input: &Matrix) -> (Matrix, DenseCache) {
        let out = self.infer(input);
        (out.clone(), DenseCache { input: input.clone(), output: out })
    }

    /// Forward pass without caching (inference), with the bias and
    /// activation fused into the kernel's store.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        input.matmul_bias_act(&self.weights, &self.bias, self.activation)
    }

    /// The forward of the row-major `input` rows on the calling thread, into
    /// a prefix of `out`, which grows when it is too short and never
    /// shrinks. Returns that prefix. Bit-identical to [`Dense::infer`].
    pub(crate) fn infer_rows<'o>(&self, input: &[f32], out: &'o mut Vec<f32>) -> &'o [f32] {
        let len = input.len() / self.input_dim() * self.output_dim();
        if out.len() < len {
            out.resize(len, 0.0);
        }
        let out = &mut out[..len];
        gemm_rows(input, &self.weights, &self.bias, self.activation, out);
        out
    }

    /// Backward pass: consumes `grad_output` (dL/dy), updates parameters with
    /// Adam, and returns dL/dx for the upstream layer.
    ///
    /// Gradients are averaged over the batch by the caller's loss gradient;
    /// this method just applies the chain rule.
    pub fn backward(&mut self, cache: &DenseCache, grad_output: &Matrix) -> Matrix {
        assert_eq!(grad_output.rows(), cache.output.rows(), "batch mismatch in backward");
        assert_eq!(grad_output.cols(), cache.output.cols(), "width mismatch in backward");
        // dL/dz = dL/dy * act'(z), using post-activation values.
        let mut grad_z = grad_output.clone();
        let act = self.activation;
        grad_z.zip_inplace(&cache.output, |g, a| g * act.derivative_from_output(a));

        // dL/dW = x^T dL/dz ; dL/db = column sums of dL/dz ; dL/dx = dL/dz W^T.
        let grad_w = cache.input.t_matmul(&grad_z);
        let grad_b = grad_z.column_sums();
        let grad_input = grad_z.matmul_t(&self.weights);

        self.opt_w.step(self.weights.data_mut(), grad_w.data());
        self.opt_b.step(&mut self.bias, &grad_b);
        grad_input
    }

    /// Gradients only (no parameter update) — used by gradient-check tests.
    pub fn backward_no_update(
        &self,
        cache: &DenseCache,
        grad_output: &Matrix,
    ) -> (Matrix, Vec<f32>, Matrix) {
        let mut grad_z = grad_output.clone();
        let act = self.activation;
        grad_z.zip_inplace(&cache.output, |g, a| g * act.derivative_from_output(a));
        let grad_w = cache.input.t_matmul(&grad_z);
        let grad_b = grad_z.column_sums();
        let grad_input = grad_z.matmul_t(&self.weights);
        (grad_w, grad_b, grad_input)
    }

    /// Immutable view of the weights (tests, serialization).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable view of the weights (gradient-check tests).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Immutable view of the bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn relu_forward_clamps_negatives() {
        let relu = |v| Activation::Relu.apply(v);
        assert_eq!([relu(-1.0), relu(0.5)], [0.0, 0.5]);
    }

    #[test]
    fn dense_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::new(4, 2, Activation::Relu, AdamConfig::default(), &mut rng);
        let x = Matrix::zeros(5, 4);
        let (y, cache) = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
        assert_eq!(cache.input.rows(), 5);
    }

    /// Finite-difference gradient check for a dense layer with relu. The
    /// weights and bias are set so that every pre-activation sits at least
    /// 0.05 from relu's kink, fifty times the probe step, with both active
    /// and inactive units.
    #[test]
    fn gradient_check_dense_relu() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Dense::new(3, 2, Activation::Relu, AdamConfig::default(), &mut rng);
        *layer.weights_mut() = Matrix::from_vec(3, 2, vec![0.5, -0.4, 0.3, 0.6, -0.2, 0.7]);
        layer.bias = vec![0.2, -0.1];
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.0, -0.4]);
        let z = x.matmul_bias_act(layer.weights(), layer.bias(), Activation::Identity);
        assert!(z.data().iter().all(|v| v.abs() >= 0.05), "pre-activations {:?}", z.data());
        assert!(z.data().iter().any(|&v| v > 0.0) && z.data().iter().any(|&v| v < 0.0));
        // Loss = sum of outputs, so dL/dy = 1 everywhere.
        let loss_of = |layer: &Dense, x: &Matrix| -> f32 { layer.infer(x).data().iter().sum() };

        let (_, cache) = layer.forward(&x);
        let grad_out = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let (grad_w, grad_b, grad_x) = layer.backward_no_update(&cache, &grad_out);

        let eps = 1e-3f32;
        // Check a few weight entries.
        for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = layer.weights().get(r, c);
            layer.weights_mut().set(r, c, orig + eps);
            let plus = loss_of(&layer, &x);
            layer.weights_mut().set(r, c, orig - eps);
            let minus = loss_of(&layer, &x);
            layer.weights_mut().set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad_w.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "weight ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient equals column sums of grad_z; sanity check finiteness
        // and a numeric probe for entry 0.
        {
            let probe = 0;
            let mut bias_probe = layer.clone();
            bias_probe.bias[probe] += eps;
            let plus = loss_of(&bias_probe, &x);
            bias_probe.bias[probe] -= 2.0 * eps;
            let minus = loss_of(&bias_probe, &x);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - grad_b[probe]).abs() < 1e-2);
        }
        // Input gradient probe.
        {
            let mut x2 = x.clone();
            let orig = x2.get(0, 1);
            x2.set(0, 1, orig + eps);
            let plus = loss_of(&layer, &x2);
            x2.set(0, 1, orig - eps);
            let minus = loss_of(&layer, &x2);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - grad_x.get(0, 1)).abs() < 1e-2);
        }
    }

    #[test]
    fn backward_reduces_simple_loss() {
        // Train y = 2x with a single linear unit.
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer =
            Dense::new(1, 1, Activation::Identity, AdamConfig::with_lr(0.05), &mut rng);
        let x = Matrix::column_vector(&[1.0, 2.0, 3.0, -1.0]);
        let y = Matrix::column_vector(&[2.0, 4.0, 6.0, -2.0]);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let (out, cache) = layer.forward(&x);
            let n = out.rows() as f32;
            let mut grad = out.clone();
            grad.zip_inplace(&y, |o, t| 2.0 * (o - t) / n);
            layer.backward(&cache, &grad);
            let mut diff = out;
            diff.zip_inplace(&y, |o, t| (o - t) * (o - t));
            last = diff.data().iter().sum::<f32>() / n;
        }
        assert!(last < 1e-3, "final mse {last}");
        assert!((layer.weights().get(0, 0) - 2.0).abs() < 0.1);
    }
}
