//! A multi-layer perceptron with exact-sparse manual backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distribution::allowed_actions;
use crate::Adam;

/// A fully connected network with tanh hidden activations and a linear output
/// layer, trained by explicit backpropagation.
///
/// DETERRENT's agent sees each state as a 0/1 membership vector over the
/// rare nets, and its policy matters only on the actions the mask allows.
/// The one forward/backward path, [`Mlp::forward_sparse`] and
/// [`Mlp::backward`], exploits both:
///
/// * the first layer sums only the input's nonzero columns, in index order;
/// * the output layer computes only the listed rows (the allowed actions);
/// * backpropagation visits only the listed output rows, and in the later
///   layers skips every row whose gradient is exactly zero.
///
/// The result is bit-identical to multiplying every entry. Each skipped term
/// is an exact zero (`w · 0` or `0 · x` for finite weights), and adding a
/// zero to a sum changes it only if the sum is `-0.0`. No sum here can be
/// `-0.0`: gradient accumulators start at `+0.0`, biases start at `+0.0` and
/// Adam's `p - step` never yields `-0.0`, and under round-to-nearest a sum
/// becomes `-0.0` only by adding `-0.0` to `-0.0`. An unlisted output row
/// feeds nothing but its own gradient, which a masked softmax leaves at zero.
/// The same argument lets the first layer's gradient add the term of every
/// row for each nonzero input, zero or not.
///
/// # Layout
///
/// The parameters are one flat vector and the gradients a second of the
/// same layout, so [`Adam`] steps the whole network in place. Each layer
/// holds its weights, then its biases. The first layer's weights are stored
/// input-major (`w[i · n_out + o]`), so a nonzero input reads, and its
/// gradient updates, one contiguous row of `n_out` weights; the other layers
/// are row-major (`w[o · n_in + i]`). [`Mlp::parameters`],
/// [`Mlp::gradients`], [`Mlp::from_parameters`] and [`Mlp::set_parameters`]
/// speak the *public order* instead, every layer row-major, which is also
/// the order of a [`crate::PolicySnapshot`].
#[derive(Debug, Clone)]
pub struct Mlp {
    layer_sizes: Vec<usize>,
    /// Every layer's weights then biases, the first layer input-major.
    params: Vec<f64>,
    /// Accumulated gradients, in the layout of `params`.
    grads: Vec<f64>,
}

/// What one forward pass keeps for [`Mlp::backward`]: the input's nonzero
/// columns, the output rows computed and every layer's output, plus the
/// buffers backpropagation reuses. Reuse one value across samples to reuse
/// them all.
#[derive(Debug, Clone, Default)]
pub struct Activations {
    /// The input's nonzero columns as `(index, value)`, in index order.
    input: Vec<(usize, f64)>,
    /// The output rows computed, in index order.
    rows: Vec<usize>,
    /// `layers[l]` is the output of layer `l`; the last holds one value per
    /// computed row.
    layers: Vec<Vec<f64>>,
    /// Backpropagation's gradient with respect to the current layer's output,
    /// and the one it accumulates for the layer below.
    grad: Vec<f64>,
    grad_below: Vec<f64>,
}

impl Activations {
    /// The network output of the last pass: one value per computed row, in
    /// the order of [`Activations::rows`].
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run yet.
    #[must_use]
    pub fn output(&self) -> &[f64] {
        self.layers.last().expect("a forward pass has run")
    }

    /// The output rows the last pass computed, in index order.
    #[must_use]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }
}

/// Appends `dense`'s nonzero entries to `out` as `(index, value)`, in index
/// order: the sparse input [`Mlp::forward_sparse`] takes.
pub(crate) fn nonzero_columns(dense: &[f64], out: &mut Vec<(usize, f64)>) {
    out.extend(
        dense
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x != 0.0)
            .map(|(i, &x)| (i, x)),
    );
}

/// Panics unless `layer_sizes` names at least an input and an output
/// layer, all of positive size.
fn check_layer_sizes(layer_sizes: &[usize]) {
    assert!(
        layer_sizes.len() >= 2,
        "need at least input and output sizes"
    );
    assert!(
        layer_sizes.iter().all(|&s| s > 0),
        "layer sizes must be positive"
    );
}

/// Layer `l`'s `(n_in, n_out, offset)`: its weights sit at
/// `offset..offset + n_in · n_out` of the flat vectors, its biases right
/// after.
fn layer_span(layer_sizes: &[usize], l: usize) -> (usize, usize, usize) {
    let offset = layer_sizes
        .windows(2)
        .take(l)
        .map(|w| w[0] * w[1] + w[1])
        .sum();
    (layer_sizes[l], layer_sizes[l + 1], offset)
}

/// Transposes the row-major `rows × cols` matrix in `block` in place,
/// through one copy of the block.
fn transpose(block: &mut [f64], rows: usize, cols: usize) {
    let copy = block.to_vec();
    for (c, column) in block.chunks_exact_mut(rows).enumerate() {
        for (r, x) in column.iter_mut().enumerate() {
            *x = copy[r * cols + c];
        }
    }
}

/// Rearranges a parameter-shaped vector from public order into the storage
/// layout of a network with `layer_sizes`, in place.
fn to_storage_order(layer_sizes: &[usize], flat: &mut [f64]) {
    let (n_in, n_out, _) = layer_span(layer_sizes, 0);
    transpose(&mut flat[..n_in * n_out], n_out, n_in);
}

/// The output sums `biases[row(j)] + Σ_i weights[row(j)][i] · x[i]` of a
/// row-major layer for `j < count`, each adding its terms in index order.
///
/// Four rows at a time: their sums are independent, so their additions
/// overlap. A short last chunk repeats its final row.
fn row_major_sums(
    weights: &[f64],
    biases: &[f64],
    x: &[f64],
    count: usize,
    row: impl Fn(usize) -> usize,
    out: &mut Vec<f64>,
) {
    let n_in = x.len();
    out.resize(count, 0.0);
    for start in (0..count).step_by(4) {
        let quad: [usize; 4] = std::array::from_fn(|k| (start + k).min(count - 1));
        let rows: [&[f64]; 4] = std::array::from_fn(|k| {
            let o = row(quad[k]);
            &weights[o * n_in..(o + 1) * n_in]
        });
        let mut sums: [f64; 4] = std::array::from_fn(|k| biases[row(quad[k])]);
        for (i, &xi) in x.iter().enumerate() {
            for (sum, w) in sums.iter_mut().zip(&rows) {
                *sum += w[i] * xi;
            }
        }
        for (j, sum) in quad.into_iter().zip(sums) {
            out[j] = sum;
        }
    }
}

impl Mlp {
    /// Creates a network with the given layer sizes, e.g. `&[4, 32, 32, 2]`
    /// for two hidden layers of 32 units. Weights use Xavier-style
    /// initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or any size is zero.
    #[must_use]
    pub fn new(layer_sizes: &[usize], seed: u64) -> Self {
        check_layer_sizes(layer_sizes);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Vec::new();
        for w in layer_sizes.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            let scale = (6.0 / (n_in + n_out) as f64).sqrt();
            params.extend((0..n_in * n_out).map(|_| rng.gen_range(-scale..scale)));
            params.resize(params.len() + n_out, 0.0);
        }
        Self::from_parameters(layer_sizes, params)
    }

    /// Rebuilds a network from its layer sizes and a flat parameter vector
    /// in [`Mlp::parameters`] order, drawing no initialization: the inverse
    /// of [`Mlp::layer_sizes`] and [`Mlp::parameters`]. The vector becomes
    /// the network's storage, rearranged in place.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given, any size is zero, or
    /// `params` does not hold exactly the parameters of those layers.
    #[must_use]
    pub fn from_parameters(layer_sizes: &[usize], mut params: Vec<f64>) -> Self {
        check_layer_sizes(layer_sizes);
        let count: usize = layer_sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        assert_eq!(params.len(), count, "parameter count mismatch");
        to_storage_order(layer_sizes, &mut params);
        Self {
            layer_sizes: layer_sizes.to_vec(),
            grads: vec![0.0; params.len()],
            params,
        }
    }

    /// The layer sizes the network was built with (input first, output
    /// last) — together with [`Mlp::parameters`] enough to reconstruct the
    /// network exactly.
    #[must_use]
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Output dimension.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        *self.layer_sizes.last().expect("at least two layers")
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        self.params.len()
    }

    /// Runs a forward pass and returns the output activations. Output rows
    /// that `mask` disallows are not computed and read `0.0`; an empty mask
    /// computes every row.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`] or a non-empty
    /// `mask` does not match [`Mlp::output_dim`].
    #[must_use]
    pub fn forward(&self, input: &[f64], mask: &[bool]) -> Vec<f64> {
        let mut acts = Activations::default();
        self.forward_into(input, mask, &mut acts);
        let mut out = vec![0.0; self.output_dim()];
        for (&o, &y) in acts.rows.iter().zip(acts.output()) {
            out[o] = y;
        }
        out
    }

    /// Runs a forward pass of a dense observation into `acts`: the entry
    /// point for rollouts. It lists `input`'s nonzero columns and the rows
    /// `mask` allows (every row for an empty mask), then runs the pass of
    /// [`Mlp::forward_sparse`].
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`] or a non-empty
    /// `mask` does not match [`Mlp::output_dim`].
    pub fn forward_into(&self, input: &[f64], mask: &[bool], acts: &mut Activations) {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        acts.input.clear();
        nonzero_columns(input, &mut acts.input);
        acts.rows.clear();
        allowed_actions(mask, self.output_dim(), &mut acts.rows);
        self.forward_pass(acts);
    }

    /// Runs a forward pass into `acts`, keeping what [`Mlp::backward`]
    /// needs. `input` lists the input's nonzero columns as `(index, value)`
    /// and `rows` the output rows to compute, both in index order; the
    /// output holds one value per row (see [`Activations::output`]).
    /// Reusing one [`Activations`] across samples reuses its buffers.
    ///
    /// # Panics
    ///
    /// Panics if an index in `input` or `rows` is out of range.
    pub fn forward_sparse(&self, input: &[(usize, f64)], rows: &[usize], acts: &mut Activations) {
        acts.input.clear();
        acts.input.extend_from_slice(input);
        acts.rows.clear();
        acts.rows.extend_from_slice(rows);
        self.forward_pass(acts);
    }

    /// The forward pass over `acts.input` and `acts.rows`.
    fn forward_pass(&self, acts: &mut Activations) {
        let Activations {
            input,
            rows,
            layers,
            ..
        } = acts;
        let num_layers = self.layer_sizes.len() - 1;
        layers.resize_with(num_layers, Vec::new);
        for l in 0..num_layers {
            let (n_in, n_out, offset) = layer_span(&self.layer_sizes, l);
            let (weights, biases) =
                self.params[offset..offset + n_in * n_out + n_out].split_at(n_in * n_out);
            let last = l + 1 == num_layers;
            let (below, rest) = layers.split_at_mut(l);
            let out = &mut rest[0];
            out.clear();
            if l == 0 {
                // Input-major: each nonzero input adds its contiguous row
                // of weights, so every sum still adds its terms in index
                // order.
                if last {
                    out.extend(rows.iter().map(|&o| biases[o]));
                    for &(i, x) in input.iter() {
                        let w = &weights[i * n_out..(i + 1) * n_out];
                        for (sum, &o) in out.iter_mut().zip(rows.iter()) {
                            *sum += w[o] * x;
                        }
                    }
                } else {
                    out.extend_from_slice(biases);
                    for &(i, x) in input.iter() {
                        for (sum, w) in out.iter_mut().zip(&weights[i * n_out..(i + 1) * n_out]) {
                            *sum += w * x;
                        }
                    }
                }
            } else if last {
                row_major_sums(weights, biases, &below[l - 1], rows.len(), |j| rows[j], out);
            } else {
                row_major_sums(weights, biases, &below[l - 1], n_out, |o| o, out);
            }
            // tanh on hidden layers, identity on the output layer.
            if !last {
                out.iter_mut().for_each(|sum| *sum = sum.tanh());
            }
        }
    }

    /// Accumulates gradients for one sample given the activations of its
    /// forward pass and the gradient of the loss with respect to the
    /// computed output rows (one value per row, in the order of
    /// [`Activations::rows`]). Gradients add up until [`Mlp::zero_grad`] is
    /// called.
    ///
    /// The first layer touches only the nonzero input columns, and the
    /// later layers skip every row whose gradient is exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `acts` does not come from this network's shape or
    /// `grad_output` does not hold one value per computed row.
    pub fn backward(&mut self, acts: &mut Activations, grad_output: &[f64]) {
        let num_layers = self.layer_sizes.len() - 1;
        assert_eq!(acts.layers.len(), num_layers, "activation count mismatch");
        assert_eq!(grad_output.len(), acts.rows.len(), "output grad mismatch");
        let Activations {
            input,
            rows,
            layers,
            grad,
            grad_below,
        } = acts;
        grad.clear();
        grad.extend_from_slice(grad_output);
        for l in (0..num_layers).rev() {
            let (n_in, n_out, offset) = layer_span(&self.layer_sizes, l);
            let last = l + 1 == num_layers;
            if !last {
                // Through the activation: d tanh(z)/dz = 1 - tanh(z)².
                for (g, a) in grad.iter_mut().zip(&layers[l]) {
                    *g *= 1.0 - a * a;
                }
            }
            let (grad_weights, grad_biases) =
                self.grads[offset..offset + n_in * n_out + n_out].split_at_mut(n_in * n_out);
            if l == 0 {
                if last {
                    for (&d, &o) in grad.iter().zip(rows.iter()) {
                        grad_biases[o] += d;
                    }
                    for &(i, x) in input.iter() {
                        let gw = &mut grad_weights[i * n_out..(i + 1) * n_out];
                        for (&d, &o) in grad.iter().zip(rows.iter()) {
                            gw[o] += d * x;
                        }
                    }
                } else {
                    for (gb, &d) in grad_biases.iter_mut().zip(grad.iter()) {
                        *gb += d;
                    }
                    for &(i, x) in input.iter() {
                        let gw = &mut grad_weights[i * n_out..(i + 1) * n_out];
                        for (gw, &d) in gw.iter_mut().zip(grad.iter()) {
                            *gw += d * x;
                        }
                    }
                }
            } else {
                let weights = &self.params[offset..offset + n_in * n_out];
                let x = &layers[l - 1];
                grad_below.clear();
                grad_below.resize(n_in, 0.0);
                for (j, &d) in grad.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let o = if last { rows[j] } else { j };
                    grad_biases[o] += d;
                    let span = o * n_in..(o + 1) * n_in;
                    for (gw, xi) in grad_weights[span.clone()].iter_mut().zip(x) {
                        *gw += d * xi;
                    }
                    // Gradient with respect to the previous layer's output.
                    for (gb, w) in grad_below.iter_mut().zip(&weights[span]) {
                        *gb += d * w;
                    }
                }
                std::mem::swap(grad, grad_below);
            }
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grads.fill(0.0);
    }

    /// Steps the parameters with the accumulated gradients through `opt`,
    /// in place. `opt`'s moments are in this network's storage layout.
    pub(crate) fn adam_step(&mut self, opt: &mut Adam) {
        opt.step(&mut self.params, &self.grads);
    }

    /// A copy of `flat`, a parameter-shaped vector in this network's storage
    /// layout, in public order.
    pub(crate) fn public_order(&self, flat: &[f64]) -> Vec<f64> {
        let (n_in, n_out, _) = layer_span(&self.layer_sizes, 0);
        let (first, rest) = flat.split_at(n_in * n_out);
        let mut out = Vec::with_capacity(flat.len());
        out.extend((0..n_out).flat_map(|o| (0..n_in).map(move |i| first[i * n_out + o])));
        out.extend_from_slice(rest);
        out
    }

    /// Rearranges `flat`, a parameter-shaped vector in public order, into
    /// this network's storage layout, in place.
    pub(crate) fn storage_order(&self, flat: &mut [f64]) {
        to_storage_order(&self.layer_sizes, flat);
    }

    /// The parameters as one vector in public order: layer by layer, the
    /// row-major weights (`w[o · n_in + i]`), then the biases.
    #[must_use]
    pub fn parameters(&self) -> Vec<f64> {
        self.public_order(&self.params)
    }

    /// The accumulated gradients in the order of [`Mlp::parameters`].
    #[must_use]
    pub fn gradients(&self) -> Vec<f64> {
        self.public_order(&self.grads)
    }

    /// Overwrites the parameters from a vector in [`Mlp::parameters`]
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter count mismatch"
        );
        self.params.copy_from_slice(params);
        to_storage_order(&self.layer_sizes, &mut self.params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaskedCategorical;

    fn activations_of(net: &Mlp, input: &[f64]) -> Activations {
        let mut acts = Activations::default();
        net.forward_into(input, &[], &mut acts);
        acts
    }

    #[test]
    fn shapes_and_parameter_count() {
        let net = Mlp::new(&[3, 8, 2], 1);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.num_parameters(), 3 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(net.forward(&[0.1, -0.2, 0.3], &[]).len(), 2);
    }

    #[test]
    fn parameters_round_trip() {
        let mut net = Mlp::new(&[2, 4, 1], 3);
        let p = net.parameters();
        let out_before = net.forward(&[0.5, -0.5], &[]);
        let mut p2 = p.clone();
        p2[0] += 0.1;
        net.set_parameters(&p2);
        assert_ne!(net.forward(&[0.5, -0.5], &[]), out_before);
        net.set_parameters(&p);
        assert_eq!(net.forward(&[0.5, -0.5], &[]), out_before);
    }

    #[test]
    fn from_parameters_round_trips_parameters() {
        let net = Mlp::new(&[3, 5, 4, 2], 11);
        let params = net.parameters();
        let rebuilt = Mlp::from_parameters(net.layer_sizes(), params.clone());
        assert_eq!(rebuilt.layer_sizes(), net.layer_sizes());
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt.parameters()), bits(&params));
        assert!(rebuilt.gradients().iter().all(|&g| g.to_bits() == 0));
        let input = [0.25, -1.0, 0.5];
        assert_eq!(rebuilt.forward(&input, &[]), net.forward(&input, &[]));
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn from_parameters_rejects_wrong_length() {
        let params = Mlp::new(&[2, 3, 1], 1).parameters();
        let _ = Mlp::from_parameters(&[2, 3, 1], params[1..].to_vec());
    }

    #[test]
    fn the_first_layer_is_stored_input_major() {
        for sizes in [&[3, 5, 4, 2][..], &[4, 3][..]] {
            let count = Mlp::new(sizes, 1).num_parameters();
            let public: Vec<f64> = (0..count).map(|k| k as f64).collect();
            let net = Mlp::from_parameters(sizes, public.clone());
            let (n_in, n_out) = (sizes[0], sizes[1]);
            for o in 0..n_out {
                for i in 0..n_in {
                    assert_eq!(net.params[i * n_out + o], public[o * n_in + i]);
                }
            }
            assert_eq!(net.params[n_in * n_out..], public[n_in * n_out..]);
            assert_eq!(net.parameters(), public);
            let mut moved = public.clone();
            net.storage_order(&mut moved);
            assert_eq!(moved, net.params);
            assert_eq!(net.public_order(&moved), public);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 2], 42);
        let input = [0.3, -0.7, 0.2];
        // Loss = sum of squared outputs.
        let mut acts = activations_of(&net, &input);
        let grad_out: Vec<f64> = acts.output().iter().map(|&o| 2.0 * o).collect();
        net.zero_grad();
        net.backward(&mut acts, &grad_out);
        let analytic = net.gradients();

        let params = net.parameters();
        let eps = 1e-6;
        let loss = |net: &Mlp| -> f64 { net.forward(&input, &[]).iter().map(|o| o * o).sum() };
        for idx in [0usize, 3, 10, params.len() - 1, params.len() / 2] {
            let mut plus = params.clone();
            plus[idx] += eps;
            let mut minus = params.clone();
            minus[idx] -= eps;
            let mut net_p = net.clone();
            net_p.set_parameters(&plus);
            let mut net_m = net.clone();
            net_m.set_parameters(&minus);
            let numeric = (loss(&net_p) - loss(&net_m)) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut net = Mlp::new(&[2, 3, 1], 5);
        let mut acts = activations_of(&net, &[1.0, -1.0]);
        net.backward(&mut acts, &[1.0]);
        let g1 = net.gradients();
        net.backward(&mut acts, &[1.0]);
        let g2 = net.gradients();
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
        net.zero_grad();
        assert!(net.gradients().iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dim_panics() {
        let net = Mlp::new(&[2, 2], 0);
        let _ = net.forward(&[1.0], &[]);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn wrong_mask_length_panics() {
        let net = Mlp::new(&[2, 3], 0);
        let _ = net.forward(&[1.0, 0.0], &[true, false]);
    }

    #[test]
    fn deterministic_init_given_seed() {
        let a = Mlp::new(&[4, 8, 3], 9);
        let b = Mlp::new(&[4, 8, 3], 9);
        assert_eq!(a.parameters(), b.parameters());
        let c = Mlp::new(&[4, 8, 3], 10);
        assert_ne!(a.parameters(), c.parameters());
    }

    /// The dense kernels the exact-sparse ones replaced, over a parameter
    /// vector in public order: every input column and every output row is
    /// multiplied. Kept as the bit-level reference.
    fn dense_forward_full(sizes: &[usize], params: &[f64], input: &[f64]) -> Vec<Vec<f64>> {
        let num_layers = sizes.len() - 1;
        let mut acts = vec![input.to_vec()];
        let mut offset = 0;
        for l in 0..num_layers {
            let (n_in, n_out) = (sizes[l], sizes[l + 1]);
            let (weights, biases) = params[offset..].split_at(n_in * n_out);
            let prev = &acts[l];
            let mut out = vec![0.0; n_out];
            for (o, out_val) in out.iter_mut().enumerate() {
                let row = &weights[o * n_in..(o + 1) * n_in];
                let mut sum = biases[o];
                for (w, x) in row.iter().zip(prev.iter()) {
                    sum += w * x;
                }
                *out_val = if l + 1 == num_layers { sum } else { sum.tanh() };
            }
            acts.push(out);
            offset += n_in * n_out + n_out;
        }
        acts
    }

    /// Adds one sample's gradients, in public order, to `grads`.
    fn dense_backward(
        sizes: &[usize],
        params: &[f64],
        activations: &[Vec<f64>],
        grad_output: &[f64],
        grads: &mut [f64],
    ) {
        let num_layers = sizes.len() - 1;
        let offsets: Vec<usize> = (0..num_layers)
            .scan(0, |at, l| {
                let start = *at;
                *at += sizes[l] * sizes[l + 1] + sizes[l + 1];
                Some(start)
            })
            .collect();
        let mut grad = grad_output.to_vec();
        for l in (0..num_layers).rev() {
            let (n_in, n_out) = (sizes[l], sizes[l + 1]);
            let weights = &params[offsets[l]..offsets[l] + n_in * n_out];
            let (grad_weights, grad_biases) =
                grads[offsets[l]..offsets[l] + n_in * n_out + n_out].split_at_mut(n_in * n_out);
            let mut delta = grad.clone();
            if l + 1 != num_layers {
                for (d, &a) in delta.iter_mut().zip(activations[l + 1].iter()) {
                    *d *= 1.0 - a * a;
                }
            }
            for (o, &d) in delta.iter().enumerate() {
                grad_biases[o] += d;
                let row = &mut grad_weights[o * n_in..(o + 1) * n_in];
                for (i, g) in row.iter_mut().enumerate() {
                    *g += d * activations[l][i];
                }
            }
            if l > 0 {
                let mut prev_grad = vec![0.0; n_in];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &weights[o * n_in..(o + 1) * n_in];
                    for (i, pg) in prev_grad.iter_mut().enumerate() {
                        *pg += d * row[i];
                    }
                }
                grad = prev_grad;
            }
        }
    }

    /// One sample's PPO policy gradient built the way the dense update built
    /// it: a full-length softmax, with `±0` at every masked row.
    fn dense_policy_grad(logits: &[f64], mask: &[bool], action: usize, scale: f64) -> Vec<f64> {
        let allowed = |k: usize| mask.is_empty() || mask[k];
        let max = (0..logits.len())
            .filter(|&k| allowed(k))
            .map(|k| logits[k])
            .fold(f64::NEG_INFINITY, f64::max);
        let mut probs = vec![0.0; logits.len()];
        let mut total = 0.0;
        for (k, p) in probs.iter_mut().enumerate() {
            if allowed(k) {
                *p = (logits[k] - max).exp();
                total += *p;
            }
        }
        probs.iter_mut().for_each(|p| *p /= total);
        let ln = |p: f64| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
        let entropy = -probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * ln(p))
            .sum::<f64>();
        (0..logits.len())
            .map(|k| {
                let p = probs[k];
                let glp = if k == action { 1.0 - p } else { -p };
                let ge = if p > 0.0 { -p * (ln(p) + entropy) } else { 0.0 };
                let mut d = 0.0;
                d += scale * glp;
                d += 0.5 * (-ge);
                d / 7.0
            })
            .collect()
    }

    /// The same gradient over the computed rows only, from the crate's
    /// [`MaskedCategorical`].
    fn sparse_policy_grad(logits: &[f64], rows: &[usize], action: usize, scale: f64) -> Vec<f64> {
        let mut dist = MaskedCategorical::default();
        dist.set(logits, rows);
        let glp = dist.grad_log_prob(action);
        let ge = dist.grad_entropy();
        glp.iter()
            .zip(&ge)
            .map(|(g, e)| {
                let mut d = 0.0;
                d += scale * g;
                d += 0.5 * (-e);
                d / 7.0
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn sparse_kernels_match_the_dense_reference_bit_for_bit() {
        const N: usize = 315;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let inputs: Vec<(&str, Vec<f64>)> = vec![
            ("all-zero", vec![0.0; N]),
            (
                "one-hot",
                (0..N).map(|i| f64::from(u8::from(i == 137))).collect(),
            ),
            ("all-ones", vec![1.0; N]),
            (
                "random 0/1",
                (0..N)
                    .map(|_| f64::from(u8::from(rng.gen_bool(0.05))))
                    .collect(),
            ),
            (
                "dense non-binary",
                (0..N).map(|_| rng.gen_range(-1.5..1.5)).collect(),
            ),
        ];
        let masks: Vec<(&str, Vec<bool>)> = vec![
            ("empty", Vec::new()),
            ("single", (0..N).map(|i| i == 42).collect()),
            ("random", (0..N).map(|_| rng.gen_bool(0.3)).collect()),
        ];

        for hidden in [&[64, 64][..], &[]] {
            let sizes = |out: usize| [&[N][..], hidden, &[out]].concat();
            // Random weights and biases, so no bias sits at its initial zero.
            let (policy_sizes, value_sizes) = (sizes(N), sizes(1));
            let mut random_net = |sizes: &[usize]| {
                let count = Mlp::new(sizes, 0).num_parameters();
                let params: Vec<f64> = (0..count).map(|_| rng.gen_range(-0.3..0.3)).collect();
                Mlp::from_parameters(sizes, params)
            };
            let (mut policy, mut value) = (random_net(&policy_sizes), random_net(&value_sizes));
            let (policy_params, value_params) = (policy.parameters(), value.parameters());
            let mut dense_policy_grads = vec![0.0; policy_params.len()];
            let mut dense_value_grads = vec![0.0; value_params.len()];

            let mut acts = Activations::default();
            for (input_name, input) in &inputs {
                for (mask_name, mask) in &masks {
                    let case = format!("{hidden:?} hidden, {input_name} input, {mask_name} mask");
                    let reference = dense_forward_full(&policy_sizes, &policy_params, input);
                    let logits = reference.last().expect("output layer");
                    policy.forward_into(input, mask, &mut acts);
                    for l in 0..acts.layers.len() - 1 {
                        assert_bits_eq(&acts.layers[l], &reference[l + 1], &case);
                    }
                    let rows = acts.rows().to_vec();
                    assert_eq!(rows.len(), acts.output().len(), "{case}");
                    for (&o, &s) in rows.iter().zip(acts.output()) {
                        assert!(mask.is_empty() || mask[o], "{case}: row {o} is masked");
                        assert_eq!(s.to_bits(), logits[o].to_bits(), "{case}: logit {o}");
                    }
                    let action = rows[rng.gen_range(0..rows.len())];
                    let scale = rng.gen_range(-2.0..2.0);
                    let dense_grad = dense_policy_grad(logits, mask, action, scale);
                    let sparse_grad = sparse_policy_grad(acts.output(), &rows, action, scale);
                    let gathered: Vec<f64> = rows.iter().map(|&o| dense_grad[o]).collect();
                    assert_bits_eq(&sparse_grad, &gathered, &case);
                    policy.backward(&mut acts, &sparse_grad);
                    dense_backward(
                        &policy_sizes,
                        &policy_params,
                        &reference,
                        &dense_grad,
                        &mut dense_policy_grads,
                    );
                    assert_bits_eq(&policy.gradients(), &dense_policy_grads, &case);
                }

                let reference = dense_forward_full(&value_sizes, &value_params, input);
                value.forward_into(input, &[], &mut acts);
                assert_bits_eq(acts.output(), &reference[reference.len() - 1], input_name);
                let grad = [0.5 * acts.output()[0] / 7.0];
                value.backward(&mut acts, &grad);
                dense_backward(
                    &value_sizes,
                    &value_params,
                    &reference,
                    &grad,
                    &mut dense_value_grads,
                );
                assert_bits_eq(&value.gradients(), &dense_value_grads, input_name);
            }
            assert!(policy.gradients().iter().any(|&g| g != 0.0));
        }
    }
}
