//! The training tape: the grow-only buffers a fit trains one network
//! through.

use crate::layer::Dense;
use crate::matrix::prefix_mut;

/// Grow-only training buffers for one [`Mlp`](crate::Mlp).
///
/// A fit makes one tape per network and drops it on return. Each step:
///
/// 1. the caller writes the batch's input rows into [`Tape::input_mut`];
/// 2. [`Mlp::forward`](crate::Mlp::forward) writes every layer's output onto
///    the tape, where it stays as that layer's backward cache;
/// 3. the caller writes the loss gradient into the second half of
///    [`Tape::output_and_grad_mut`];
/// 4. [`Mlp::backward`](crate::Mlp::backward) masks each layer's gradient in
///    place, and builds the transposed operands, the weight and bias
///    gradients and the gradient for the layer below in the tape's buffers.
///
/// Buffers grow to the largest batch seen and never shrink, so once they
/// fit, a step allocates nothing.
#[derive(Debug, Default)]
pub struct Tape {
    /// Rows in the batch of the last forward.
    rows: usize,
    /// The network's input width, then each layer's output width.
    widths: Vec<usize>,
    /// `acts[0]` is the batch input, exactly `rows` rows long; `acts[l + 1]`
    /// holds layer `l`'s post-activation output in its leading `rows` rows.
    acts: Vec<Vec<f32>>,
    /// `grads[l]` holds the loss gradient with respect to `acts[l]` in its
    /// leading `rows` rows; the backward masks it in place into the
    /// pre-activation gradient of the layer that wrote `acts[l]`.
    grads: Vec<Vec<f32>>,
    /// The layers' shared backward buffers.
    scratch: Scratch,
}

/// Buffers one layer's backward works in, shared by every layer in turn.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The transposed operand of the product being run: the layer's input
    /// for the weight gradient, then its weights for the input gradient.
    pub(crate) transposed: Vec<f32>,
    /// The weight gradient, `input_dim × output_dim`, in its leading values.
    pub(crate) grad_w: Vec<f32>,
    /// The bias gradient, `output_dim`, in its leading values.
    pub(crate) grad_b: Vec<f32>,
}

impl Tape {
    /// An empty tape; its buffers grow on first use.
    pub fn new() -> Self {
        Tape::default()
    }

    /// The batch input, which the caller fills with whole rows of the
    /// network's input width before [`Mlp::forward`](crate::Mlp::forward).
    /// Clearing it keeps its capacity.
    pub fn input_mut(&mut self) -> &mut Vec<f32> {
        if self.acts.is_empty() {
            self.acts.push(Vec::new());
        }
        &mut self.acts[0]
    }

    /// The output rows of the last forward and the gradient buffer the
    /// caller writes the loss gradient with respect to them into, one value
    /// per output value.
    ///
    /// # Panics
    /// Panics if no forward ran on this tape.
    pub fn output_and_grad_mut(&mut self) -> (&[f32], &mut [f32]) {
        let last = self.widths.len().checked_sub(1).expect("no forward ran on this tape");
        let len = self.rows * self.widths[last];
        (&self.acts[last][..len], &mut self.grads[last][..len])
    }

    /// Runs `layers` over the input rows, writing each layer's output onto
    /// the tape, and sizes every gradient buffer for the backward. Returns
    /// the output rows.
    pub(crate) fn forward(&mut self, layers: &[Dense]) -> &[f32] {
        let input_dim = layers[0].input_dim();
        let input_len = self.input_mut().len();
        assert_eq!(input_len % input_dim, 0, "tape input is not a whole number of rows");
        let rows = input_len / input_dim;
        self.rows = rows;
        self.widths.clear();
        self.widths.push(input_dim);
        self.widths.extend(layers.iter().map(Dense::output_dim));
        if self.acts.len() <= layers.len() {
            self.acts.resize_with(layers.len() + 1, Vec::new);
            self.grads.resize_with(layers.len() + 1, Vec::new);
        }
        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = self.acts.split_at_mut(l + 1);
            let out = prefix_mut(&mut rest[0], rows * layer.output_dim());
            layer.forward_into(&done[l][..rows * layer.input_dim()], out);
            prefix_mut(&mut self.grads[l + 1], rows * layer.output_dim());
        }
        self.output_and_grad_mut().0
    }

    /// Backpropagates the output gradient through `layers`, which must be
    /// the layers the last forward ran, updating each with Adam. With
    /// `input_grad`, the first layer's input gradient is computed too and
    /// returned; otherwise it is skipped and the result is empty.
    pub(crate) fn backward(&mut self, layers: &mut [Dense], input_grad: bool) -> &[f32] {
        let rows = self.rows;
        for (l, layer) in layers.iter_mut().enumerate().rev() {
            let (k, n) = (layer.input_dim(), layer.output_dim());
            let (below, above) = self.grads.split_at_mut(l + 1);
            let grad_input = (l > 0 || input_grad).then(|| prefix_mut(&mut below[l], rows * k));
            layer.backward(
                &self.acts[l][..rows * k],
                &self.acts[l + 1][..rows * n],
                &mut above[0][..rows * n],
                grad_input,
                &mut self.scratch,
            );
        }
        if input_grad {
            &self.grads[0][..rows * self.widths[0]]
        } else {
            &[]
        }
    }
}
