//! Fully-connected layers with explicit backpropagation.

use rand::rngs::StdRng;

use crate::adam::{Adam, AdamConfig};
use crate::init::Init;
use crate::matrix::{gemm_into, gemm_rows, prefix_mut, transpose_into, Matrix, Rhs};
use crate::tape::Scratch;

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
        let out = prefix_mut(out, len);
        gemm_rows(input, &self.weights, &self.bias, self.activation, out);
        out
    }

    /// The training forward of the row-major `input` rows into `out`, one
    /// row per input row, timed as [`Dense::infer`] is and bit-identical to
    /// it.
    pub(crate) fn forward_into(&self, input: &[f32], out: &mut [f32]) {
        let n = self.output_dim();
        let rhs = Rhs::new(self.weights.data(), n, self.weights.all_finite());
        gemm_into(input, self.input_dim(), rhs.then(&self.bias, self.activation), out);
    }

    /// Backward pass over one batch (see [`Dense::gradients`]), then one
    /// Adam step on the weights and the bias.
    pub(crate) fn backward(
        &mut self,
        input: &[f32],
        output: &[f32],
        grad: &mut [f32],
        grad_input: Option<&mut [f32]>,
        scratch: &mut Scratch,
    ) {
        self.gradients(input, output, grad, grad_input, scratch);
        let (k, n) = (self.input_dim(), self.output_dim());
        self.opt_w.step(self.weights.data_mut(), &scratch.grad_w[..k * n]);
        self.opt_b.step(&mut self.bias, &scratch.grad_b[..n]);
    }

    /// The chain rule through the layer for the row-major `input` rows and
    /// their post-activation `output`, without touching the parameters.
    /// `grad` holds dL/dy on entry and dL/dz (masked in place by the
    /// activation's derivative) on return; dL/dW and dL/db go into the
    /// leading values of `scratch.grad_w` and `scratch.grad_b`, and dL/dx
    /// into `grad_input` when one is given. Each product is the one
    /// `Matrix::t_matmul` and `Matrix::matmul_t` make, on a transposed
    /// operand built in `scratch`.
    ///
    /// Gradients are averaged over the batch by the caller's loss gradient;
    /// this method just applies the chain rule.
    ///
    /// # Panics
    /// Panics if the slices do not hold the same number of rows.
    pub(crate) fn gradients(
        &self,
        input: &[f32],
        output: &[f32],
        grad: &mut [f32],
        grad_input: Option<&mut [f32]>,
        scratch: &mut Scratch,
    ) {
        let (k, n) = (self.input_dim(), self.output_dim());
        let rows = output.len() / n;
        assert_eq!(grad.len(), output.len(), "gradient shape mismatch in backward");
        assert_eq!(input.len(), rows * k, "batch mismatch in backward");
        // dL/dz = dL/dy * act'(z), from the post-activation values, and
        // dL/db = the column sums of dL/dz, summed over rows in order, in
        // one pass, which also sees whether every dL/dz is finite.
        let act = self.activation;
        let grad_b = prefix_mut(&mut scratch.grad_b, n);
        grad_b.fill(0.0);
        let mut grad_finite = true;
        for (g_row, a_row) in grad.chunks_exact_mut(n).zip(output.chunks_exact(n)) {
            for ((g, &a), s) in g_row.iter_mut().zip(a_row).zip(grad_b.iter_mut()) {
                *g *= act.derivative_from_output(a);
                *s += *g;
                grad_finite &= g.is_finite();
            }
        }
        // dL/dW = x^T dL/dz ; dL/dx = dL/dz W^T.
        let input_t = transpose_into(input, k, &mut scratch.transposed);
        let grad_w = prefix_mut(&mut scratch.grad_w, k * n);
        gemm_into(input_t, rows, Rhs::new(grad, n, grad_finite), grad_w);
        if let Some(grad_input) = grad_input {
            let weights_t = transpose_into(self.weights.data(), n, &mut scratch.transposed);
            gemm_into(grad, n, Rhs::new(weights_t, k, self.weights.all_finite()), grad_input);
        }
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
        let x = Matrix::from_vec(5, 4, (0..20).map(|i| (i as f32 * 0.37).sin()).collect());
        let y = layer.infer(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
        let mut out = vec![f32::NAN; 10];
        layer.forward_into(x.data(), &mut out);
        assert_eq!(out, y.data(), "the training forward differs from inference");
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

        let y = layer.infer(&x);
        let mut grad_z = vec![1.0; 4];
        let mut grad_x = Matrix::zeros(2, 3);
        let mut scratch = Scratch::default();
        layer.gradients(x.data(), y.data(), &mut grad_z, Some(grad_x.data_mut()), &mut scratch);
        let grad_w = Matrix::from_vec(3, 2, scratch.grad_w[..6].to_vec());
        let grad_b = &scratch.grad_b[..2];

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
        let mut scratch = Scratch::default();
        for _ in 0..300 {
            let out = layer.infer(&x);
            let n = out.rows() as f32;
            let mut grad = out.clone();
            grad.zip_inplace(&y, |o, t| 2.0 * (o - t) / n);
            layer.backward(x.data(), out.data(), grad.data_mut(), None, &mut scratch);
            let mut diff = out;
            diff.zip_inplace(&y, |o, t| (o - t) * (o - t));
            last = diff.data().iter().sum::<f32>() / n;
        }
        assert!(last < 1e-3, "final mse {last}");
        assert!((layer.weights().get(0, 0) - 2.0).abs() < 0.1);
    }
}
