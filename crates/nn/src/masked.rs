//! Masked dense layers and MADE-style autoregressive masks (Germain et
//! al.), the architecture the original Naru builds on.
//!
//! A [`MaskedDense`] is a dense layer whose weight matrix is elementwise
//! multiplied by a fixed binary mask; MADE chooses the masks so that output
//! block `j` of the network depends only on input blocks `< j`, making one
//! shared network compute every autoregressive conditional in a single
//! forward pass.

use rand::rngs::StdRng;

use crate::adam::{Adam, AdamConfig};
use crate::init::Init;
use crate::layer::Activation;
use crate::matrix::Matrix;

/// A dense layer with a fixed binary connectivity mask.
///
/// Invariant: masked weights are exactly zero at all times — enforced at
/// construction and preserved by masking the gradient of every update.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MaskedDense {
    weights: Matrix, // in x out, masked entries zero
    mask: Matrix,    // in x out, 0/1
    bias: Vec<f32>,
    activation: Activation,
    opt_w: Adam,
    opt_b: Adam,
}

/// Forward cache of a [`MaskedDense`] batch.
#[derive(Debug, Clone)]
pub struct MaskedCache {
    input: Matrix,
    output: Matrix,
}

impl MaskedDense {
    /// Creates the layer with mask `mask` (shape `input_dim x output_dim`).
    ///
    /// # Panics
    /// Panics if the mask contains values other than 0/1.
    pub fn new(
        mask: Matrix,
        activation: Activation,
        config: AdamConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            mask.data().iter().all(|&v| v == 0.0 || v == 1.0),
            "mask must be binary"
        );
        let (input_dim, output_dim) = (mask.rows(), mask.cols());
        let mut weights = Init::HeUniform.sample(input_dim, output_dim, rng);
        weights.zip_inplace(&mask, |w, m| w * m);
        MaskedDense {
            weights,
            mask,
            bias: vec![0.0; output_dim],
            activation,
            opt_w: Adam::new(input_dim * output_dim, config),
            opt_b: Adam::new(output_dim, config),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Forward pass with cache.
    pub fn forward(&self, input: &Matrix) -> (Matrix, MaskedCache) {
        let out = self.infer(input);
        (out.clone(), MaskedCache { input: input.clone(), output: out })
    }

    /// Inference-only forward, with the bias and activation fused into the
    /// kernel's store.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        input.matmul_bias_act(&self.weights, &self.bias, self.activation)
    }

    /// Backward pass: masked gradient, Adam update, returns dL/dx.
    pub fn backward(&mut self, cache: &MaskedCache, grad_output: &Matrix) -> Matrix {
        let mut grad_z = grad_output.clone();
        let act = self.activation;
        grad_z.zip_inplace(&cache.output, |g, a| g * act.derivative_from_output(a));
        let mut grad_w = cache.input.t_matmul(&grad_z);
        grad_w.zip_inplace(&self.mask, |g, m| g * m);
        let grad_b = grad_z.column_sums();
        let grad_input = grad_z.matmul_t(&self.weights);
        self.opt_w.step(self.weights.data_mut(), grad_w.data());
        // Adam's weight-decay/eps arithmetic cannot resurrect a masked
        // weight whose gradient is zero, but keep the invariant airtight.
        let mask = self.mask.clone();
        self.weights.zip_inplace(&mask, |w, m| w * m);
        self.opt_b.step(&mut self.bias, &grad_b);
        grad_input
    }

    /// The layer's mask (tests).
    pub fn mask(&self) -> &Matrix {
        &self.mask
    }

    /// The layer's weights (tests).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

/// Builds the standard MADE masks for grouped inputs/outputs.
///
/// `block_sizes[i]` is the width of column `i`'s one-hot input block (and of
/// its output logit block); `hidden` lists the hidden-layer widths. Returns
/// `(input→h1, h1→h2.., h_last→output, direct input→output)` masks. Hidden
/// unit degrees cycle over `1..=D-1` (`D` = number of blocks); a connection
/// `a → b` is allowed when `degree(b) >= degree(a)` for hidden targets and
/// `degree(b) > degree(a)` for output targets, which makes output block `j`
/// a function of input blocks `< j` only.
pub fn made_masks(block_sizes: &[u32], hidden: &[usize]) -> (Vec<Matrix>, Matrix) {
    let d = block_sizes.len();
    assert!(d >= 1, "need at least one block");
    assert!(!hidden.is_empty(), "need at least one hidden layer");
    let total: usize = block_sizes.iter().map(|&b| b as usize).sum();

    // Degrees per unit.
    let input_degrees: Vec<usize> = block_sizes
        .iter()
        .enumerate()
        .flat_map(|(i, &b)| std::iter::repeat_n(i + 1, b as usize))
        .collect();
    let output_degrees = input_degrees.clone();
    let hidden_degrees: Vec<Vec<usize>> = hidden
        .iter()
        .map(|&h| {
            (0..h)
                .map(|k| {
                    if d == 1 {
                        1
                    } else {
                        1 + (k % (d - 1))
                    }
                })
                .collect()
        })
        .collect();

    let mut masks = Vec::with_capacity(hidden.len() + 1);
    // input -> first hidden: allow when hidden degree >= input degree.
    masks.push(degree_mask(&input_degrees, &hidden_degrees[0], |a, b| b >= a));
    // hidden -> hidden.
    for w in hidden_degrees.windows(2) {
        masks.push(degree_mask(&w[0], &w[1], |a, b| b >= a));
    }
    // last hidden -> output: strict.
    masks.push(degree_mask(
        hidden_degrees.last().expect("non-empty hidden"),
        &output_degrees,
        |a, b| b > a,
    ));
    // direct input -> output skip connections: strict.
    let direct = degree_mask(&input_degrees, &output_degrees, |a, b| b > a);
    let _ = total;
    (masks, direct)
}

fn degree_mask(
    from: &[usize],
    to: &[usize],
    allow: impl Fn(usize, usize) -> bool,
) -> Matrix {
    let mut m = Matrix::zeros(from.len(), to.len());
    for (i, &a) in from.iter().enumerate() {
        for (j, &b) in to.iter().enumerate() {
            if allow(a, b) {
                m.set(i, j, 1.0);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn masked_weights_stay_zero_through_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let mask = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let mut layer =
            MaskedDense::new(mask, Activation::Identity, AdamConfig::with_lr(0.05), &mut rng);
        for step in 0..50 {
            let x = Matrix::from_rows(&[vec![1.0, 2.0 + step as f32 * 0.01]]);
            let (_, cache) = layer.forward(&x);
            layer.backward(&cache, &Matrix::from_rows(&[vec![1.0, -1.0]]));
        }
        assert_eq!(layer.weights().get(0, 1), 0.0);
        assert_eq!(layer.weights().get(1, 0), 0.0);
        assert_ne!(layer.weights().get(0, 0), 0.0);
    }

    #[test]
    fn made_masks_enforce_autoregressive_property() {
        // Blocks of sizes [2, 3, 2]: output block j must be insensitive to
        // input blocks >= j. Verify via mask-product reachability.
        let (masks, direct) = made_masks(&[2, 3, 2], &[8, 8]);
        // Reachability = product of masks (nonzero entry = path exists).
        let mut reach = masks[0].clone();
        for m in &masks[1..] {
            reach = reach.matmul(m);
        }
        reach.zip_inplace(&direct, |a, b| a + b);
        let starts = [0usize, 2, 5]; // block offsets
        let sizes = [2usize, 3, 2];
        for (j, (&out_start, &out_size)) in starts.iter().zip(&sizes).enumerate() {
            for (i, (&in_start, &in_size)) in starts.iter().zip(&sizes).enumerate() {
                let connected = (0..in_size).any(|a| {
                    (0..out_size)
                        .any(|b| reach.get(in_start + a, out_start + b) != 0.0)
                });
                if i >= j {
                    assert!(
                        !connected,
                        "output block {j} must not see input block {i}"
                    );
                }
            }
        }
        // And the network is not degenerate: block 2 sees blocks 0 and 1.
        assert!(reach.get(0, 5) != 0.0 || reach.get(1, 5) != 0.0);
    }

    #[test]
    fn first_output_block_depends_on_nothing() {
        let (masks, direct) = made_masks(&[3, 3], &[6]);
        let mut reach = masks[0].matmul(&masks[1]);
        reach.zip_inplace(&direct, |a, b| a + b);
        for i in 0..6 {
            for o in 0..3 {
                assert_eq!(reach.get(i, o), 0.0, "block 0 output must be bias-only");
            }
        }
    }

    #[test]
    fn functional_autoregressive_check() {
        // Build a 2-layer masked net and verify numerically: changing input
        // block 1 never changes output block 0 or 1's... block 1 may change
        // block 2 outputs only.
        let mut rng = StdRng::seed_from_u64(5);
        let (masks, direct) = made_masks(&[2, 2, 2], &[10]);
        let adam = AdamConfig::default();
        let l1 = MaskedDense::new(masks[0].clone(), Activation::Relu, adam, &mut rng);
        let l2 =
            MaskedDense::new(masks[1].clone(), Activation::Identity, adam, &mut rng);
        let skip = MaskedDense::new(direct, Activation::Identity, adam, &mut rng);
        let forward = |x: &Matrix| {
            let mut out = l2.infer(&l1.infer(x));
            let s = skip.infer(x);
            out.zip_inplace(&s, |a, b| a + b);
            out
        };
        let base = Matrix::from_rows(&[vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.9]]);
        let mut poked = base.clone();
        poked.set(0, 2, 9.0); // perturb input block 1
        poked.set(0, 3, -9.0);
        let a = forward(&base);
        let b = forward(&poked);
        for o in 0..4 {
            assert_eq!(a.get(0, o), b.get(0, o), "output blocks 0/1 must be unchanged");
        }
    }

    #[test]
    #[should_panic(expected = "mask must be binary")]
    fn rejects_non_binary_mask() {
        let mut rng = StdRng::seed_from_u64(0);
        MaskedDense::new(
            Matrix::from_rows(&[vec![0.5]]),
            Activation::Identity,
            AdamConfig::default(),
            &mut rng,
        );
    }
}
