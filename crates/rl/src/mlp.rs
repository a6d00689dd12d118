//! A multi-layer perceptron with exact-sparse manual backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully connected network with tanh hidden activations and a linear output
/// layer, trained by explicit backpropagation.
///
/// DETERRENT's agent sees each state as a 0/1 membership vector over the
/// rare nets, and its policy matters only on the actions the mask allows.
/// The one forward/backward path exploits both:
///
/// * the first layer sums only the nonzero input columns, in index order;
/// * the output layer computes only the rows a mask allows;
/// * backpropagation skips every row whose gradient is exactly zero, when
///   accumulating both the parameter gradients and the previous layer's
///   gradient.
///
/// The result is bit-identical to multiplying every entry. Each skipped term
/// is an exact zero (`w · 0` or `0 · x` for finite weights), and adding a
/// zero to a sum changes it only if the sum is `-0.0`. No sum here can be
/// `-0.0`: gradient accumulators start at `+0.0`, biases start at `+0.0` and
/// Adam's `p - step` never yields `-0.0`, and under round-to-nearest a sum
/// becomes `-0.0` only by adding `-0.0` to `-0.0`. A masked output row feeds
/// nothing but its own gradient, which a masked softmax leaves at zero.
///
/// Parameters and gradients are stored as flat `f64` vectors per layer so the
/// [`crate::Adam`] optimizer can treat the whole network as one parameter
/// vector.
#[derive(Debug, Clone)]
pub struct Mlp {
    layer_sizes: Vec<usize>,
    /// weights[l] has shape (out, in) stored row-major; biases[l] has len out.
    weights: Vec<Vec<f64>>,
    biases: Vec<Vec<f64>>,
    grad_weights: Vec<Vec<f64>>,
    grad_biases: Vec<Vec<f64>>,
}

/// What one [`Mlp::forward_into`] pass keeps for [`Mlp::backward`]: the
/// input's nonzero columns and every layer's output. Reuse one value across
/// samples to reuse its buffers.
#[derive(Debug, Clone, Default)]
pub struct Activations {
    /// The input's nonzero columns as `(index, value)`, in index order.
    input: Vec<(usize, f64)>,
    /// `layers[l]` is the output of layer `l`; the last is the network's.
    layers: Vec<Vec<f64>>,
    /// The rows of the layer being computed (a reused buffer).
    rows: Vec<usize>,
}

impl Activations {
    /// The network output of the last pass; rows the mask excluded read
    /// `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run yet.
    #[must_use]
    pub fn output(&self) -> &[f64] {
        self.layers.last().expect("a forward pass has run")
    }
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
        let mut weights: Vec<Vec<f64>> = Vec::new();
        let mut biases: Vec<Vec<f64>> = Vec::new();
        for w in layer_sizes.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            let scale = (6.0 / (n_in + n_out) as f64).sqrt();
            weights.push(
                (0..n_in * n_out)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect(),
            );
            biases.push(vec![0.0; n_out]);
        }
        Self::from_layers(layer_sizes, weights, biases)
    }

    /// Rebuilds a network from its layer sizes and a flat parameter vector
    /// in [`Mlp::parameters`] order, drawing no initialization: the inverse
    /// of [`Mlp::layer_sizes`] and [`Mlp::parameters`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given, any size is zero, or
    /// `params` does not hold exactly the parameters of those layers.
    #[must_use]
    pub fn from_parameters(layer_sizes: &[usize], params: &[f64]) -> Self {
        check_layer_sizes(layer_sizes);
        let mut weights: Vec<Vec<f64>> = Vec::new();
        let mut biases: Vec<Vec<f64>> = Vec::new();
        let mut rest = params;
        for w in layer_sizes.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            assert!(
                rest.len() >= n_in * n_out + n_out,
                "parameter count mismatch"
            );
            let (layer_weights, tail) = rest.split_at(n_in * n_out);
            let (layer_biases, tail) = tail.split_at(n_out);
            weights.push(layer_weights.to_vec());
            biases.push(layer_biases.to_vec());
            rest = tail;
        }
        assert!(rest.is_empty(), "parameter count mismatch");
        Self::from_layers(layer_sizes, weights, biases)
    }

    /// A network with the given weights and biases and zeroed gradients.
    fn from_layers(layer_sizes: &[usize], weights: Vec<Vec<f64>>, biases: Vec<Vec<f64>>) -> Self {
        let grad_weights = weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let grad_biases = biases.iter().map(|b| vec![0.0; b.len()]).collect();
        Self {
            layer_sizes: layer_sizes.to_vec(),
            weights,
            biases,
            grad_weights,
            grad_biases,
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
        self.weights.iter().map(Vec::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
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
        acts.layers.pop().expect("at least one layer")
    }

    /// Runs a forward pass into `acts`, keeping what [`Mlp::backward`]
    /// needs. Reusing one [`Activations`] across samples reuses its buffers.
    ///
    /// The first layer sums only the nonzero input columns, in index order;
    /// the output layer computes only the rows `mask` allows (all rows for an
    /// empty mask), leaving the others at `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`] or a non-empty
    /// `mask` does not match [`Mlp::output_dim`].
    pub fn forward_into(&self, input: &[f64], mask: &[bool], acts: &mut Activations) {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        assert!(
            mask.is_empty() || mask.len() == self.output_dim(),
            "mask length mismatch"
        );
        acts.input.clear();
        acts.input.extend(
            input
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x != 0.0)
                .map(|(i, &x)| (i, x)),
        );
        let num_layers = self.weights.len();
        acts.layers.resize_with(num_layers, Vec::new);
        for l in 0..num_layers {
            let n_in = self.layer_sizes[l];
            let n_out = self.layer_sizes[l + 1];
            let last = l + 1 == num_layers;
            acts.rows.clear();
            if last && !mask.is_empty() {
                acts.rows.extend((0..n_out).filter(|&o| mask[o]));
            } else {
                acts.rows.extend(0..n_out);
            }
            let (below, rest) = acts.layers.split_at_mut(l);
            let out = &mut rest[0];
            out.clear();
            out.resize(n_out, 0.0);
            let weights = &self.weights[l];
            let biases = &self.biases[l];
            // Four rows at a time: their sums are independent, so their
            // additions overlap, while each row still adds its terms in
            // index order. A short last chunk repeats its final row.
            for chunk in acts.rows.chunks(4) {
                let quad: [usize; 4] = std::array::from_fn(|j| chunk[j.min(chunk.len() - 1)]);
                let rows: [&[f64]; 4] =
                    std::array::from_fn(|j| &weights[quad[j] * n_in..(quad[j] + 1) * n_in]);
                let mut sums: [f64; 4] = std::array::from_fn(|j| biases[quad[j]]);
                let mut add = |i: usize, x: f64| {
                    for (sum, row) in sums.iter_mut().zip(&rows) {
                        *sum += row[i] * x;
                    }
                };
                if l == 0 {
                    acts.input.iter().for_each(|&(i, x)| add(i, x));
                } else {
                    below[l - 1]
                        .iter()
                        .enumerate()
                        .for_each(|(i, &x)| add(i, x));
                }
                for (o, sum) in quad.into_iter().zip(sums) {
                    // tanh on hidden layers, identity on the output layer.
                    out[o] = if last { sum } else { sum.tanh() };
                }
            }
        }
    }

    /// Accumulates gradients for one sample given the activations from
    /// [`Mlp::forward_into`] and the gradient of the loss with respect to
    /// the network output. Gradients add up until [`Mlp::zero_grad`] is
    /// called.
    ///
    /// Rows whose gradient is exactly zero — in particular every output row
    /// a mask excluded, whose gradient the caller leaves at zero — are
    /// skipped, and the first layer touches only the nonzero input columns.
    ///
    /// # Panics
    ///
    /// Panics if `acts` does not come from this network's shape or
    /// `grad_output` does not match [`Mlp::output_dim`].
    pub fn backward(&mut self, acts: &Activations, grad_output: &[f64]) {
        let num_layers = self.weights.len();
        assert_eq!(acts.layers.len(), num_layers, "activation count mismatch");
        assert_eq!(grad_output.len(), self.output_dim(), "output grad mismatch");
        let mut grad = grad_output.to_vec();
        for l in (0..num_layers).rev() {
            let n_in = self.layer_sizes[l];
            let mut prev_grad = vec![0.0; if l > 0 { n_in } else { 0 }];
            for (o, &g) in grad.iter().enumerate() {
                // Derivative through the activation of layer l's output:
                // d tanh(z)/dz = 1 - tanh(z)^2 on hidden layers.
                let d = if l + 1 == num_layers {
                    g
                } else {
                    let a = acts.layers[l][o];
                    g * (1.0 - a * a)
                };
                if d == 0.0 {
                    continue;
                }
                self.grad_biases[l][o] += d;
                let grad_row = &mut self.grad_weights[l][o * n_in..(o + 1) * n_in];
                if l == 0 {
                    for &(i, x) in &acts.input {
                        grad_row[i] += d * x;
                    }
                } else {
                    for (gw, x) in grad_row.iter_mut().zip(&acts.layers[l - 1]) {
                        *gw += d * x;
                    }
                    // Gradient with respect to the previous layer's output.
                    let row = &self.weights[l][o * n_in..(o + 1) * n_in];
                    for (pg, w) in prev_grad.iter_mut().zip(row) {
                        *pg += d * w;
                    }
                }
            }
            grad = prev_grad;
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad_weights {
            g.iter_mut().for_each(|x| *x = 0.0);
        }
        for g in &mut self.grad_biases {
            g.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Flattens parameters into a single vector (weights then biases, layer by
    /// layer). Used by the optimizer.
    #[must_use]
    pub fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for (w, b) in self.weights.iter().zip(self.biases.iter()) {
            out.extend_from_slice(w);
            out.extend_from_slice(b);
        }
        out
    }

    /// Flattened gradients in the same order as [`Mlp::parameters`].
    #[must_use]
    pub fn gradients(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for (w, b) in self.grad_weights.iter().zip(self.grad_biases.iter()) {
            out.extend_from_slice(w);
            out.extend_from_slice(b);
        }
        out
    }

    /// Overwrites parameters from a flat vector produced by
    /// [`Mlp::parameters`] (after an optimizer step).
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
        let mut offset = 0;
        for (w, b) in self.weights.iter_mut().zip(self.biases.iter_mut()) {
            let w_len = w.len();
            w.copy_from_slice(&params[offset..offset + w_len]);
            offset += w_len;
            let b_len = b.len();
            b.copy_from_slice(&params[offset..offset + b_len]);
            offset += b_len;
        }
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
        let rebuilt = Mlp::from_parameters(net.layer_sizes(), &params);
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
        let _ = Mlp::from_parameters(&[2, 3, 1], &params[1..]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 2], 42);
        let input = [0.3, -0.7, 0.2];
        // Loss = sum of squared outputs.
        let acts = activations_of(&net, &input);
        let grad_out: Vec<f64> = acts.output().iter().map(|&o| 2.0 * o).collect();
        net.zero_grad();
        net.backward(&acts, &grad_out);
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
        let acts = activations_of(&net, &[1.0, -1.0]);
        net.backward(&acts, &[1.0]);
        let g1 = net.gradients();
        net.backward(&acts, &[1.0]);
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

    /// The dense kernels the exact-sparse ones replaced: every input column
    /// and every output row is multiplied. Kept as the bit-level reference.
    fn dense_forward_full(net: &Mlp, input: &[f64]) -> Vec<Vec<f64>> {
        let num_layers = net.weights.len();
        let mut acts = Vec::with_capacity(num_layers + 1);
        acts.push(input.to_vec());
        for l in 0..num_layers {
            let n_in = net.layer_sizes[l];
            let n_out = net.layer_sizes[l + 1];
            let prev = &acts[l];
            let mut out = vec![0.0; n_out];
            for (o, out_val) in out.iter_mut().enumerate() {
                let row = &net.weights[l][o * n_in..(o + 1) * n_in];
                let mut sum = net.biases[l][o];
                for (w, x) in row.iter().zip(prev.iter()) {
                    sum += w * x;
                }
                *out_val = if l + 1 == num_layers { sum } else { sum.tanh() };
            }
            acts.push(out);
        }
        acts
    }

    fn dense_backward(net: &mut Mlp, activations: &[Vec<f64>], grad_output: &[f64]) {
        let num_layers = net.weights.len();
        let mut grad = grad_output.to_vec();
        for l in (0..num_layers).rev() {
            let n_in = net.layer_sizes[l];
            let mut delta = grad.clone();
            if l + 1 != num_layers {
                for (d, &a) in delta.iter_mut().zip(activations[l + 1].iter()) {
                    *d *= 1.0 - a * a;
                }
            }
            for (o, &d) in delta.iter().enumerate() {
                net.grad_biases[l][o] += d;
                let row = &mut net.grad_weights[l][o * n_in..(o + 1) * n_in];
                for (i, g) in row.iter_mut().enumerate() {
                    *g += d * activations[l][i];
                }
            }
            if l > 0 {
                let mut prev_grad = vec![0.0; n_in];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &net.weights[l][o * n_in..(o + 1) * n_in];
                    for (i, pg) in prev_grad.iter_mut().enumerate() {
                        *pg += d * row[i];
                    }
                }
                grad = prev_grad;
            }
        }
    }

    /// The PPO policy-gradient of one sample, built the way the dense update
    /// built it: full-length vectors, with `±0` at every masked row.
    fn policy_grad(logits: &[f64], mask: &[bool], rng: &mut StdRng) -> Vec<f64> {
        let dist = MaskedCategorical::new(logits, (!mask.is_empty()).then_some(mask));
        let action = dist.sample(rng);
        let scale = rng.gen_range(-2.0..2.0);
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

        // Random weights and biases, so no bias sits at its initial zero.
        let mut policy = Mlp::new(&[N, 64, 64, N], 3);
        let params: Vec<f64> = (0..policy.num_parameters())
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        policy.set_parameters(&params);
        let mut value = Mlp::new(&[N, 64, 64, 1], 4);
        let params: Vec<f64> = (0..value.num_parameters())
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        value.set_parameters(&params);
        let (mut dense_policy, mut dense_value) = (policy.clone(), value.clone());

        let mut acts = Activations::default();
        for (input_name, input) in &inputs {
            for (mask_name, mask) in &masks {
                let case = format!("{input_name} input, {mask_name} mask");
                let reference = dense_forward_full(&dense_policy, input);
                policy.forward_into(input, mask, &mut acts);
                for l in 0..acts.layers.len() - 1 {
                    assert_bits_eq(&acts.layers[l], &reference[l + 1], &case);
                }
                for (o, (&s, &d)) in acts.output().iter().zip(&reference[3]).enumerate() {
                    if mask.is_empty() || mask[o] {
                        assert_eq!(s.to_bits(), d.to_bits(), "{case}: logit {o}");
                    }
                }
                let seed = rng.gen::<u64>();
                let sparse_grad =
                    policy_grad(acts.output(), mask, &mut StdRng::seed_from_u64(seed));
                let dense_grad = policy_grad(&reference[3], mask, &mut StdRng::seed_from_u64(seed));
                assert_bits_eq(&sparse_grad, &dense_grad, &case);
                policy.backward(&acts, &sparse_grad);
                dense_backward(&mut dense_policy, &reference, &dense_grad);
                assert_bits_eq(&policy.gradients(), &dense_policy.gradients(), &case);
            }

            let reference = dense_forward_full(&dense_value, input);
            value.forward_into(input, &[], &mut acts);
            assert_bits_eq(acts.output(), &reference[3], input_name);
            let grad = [0.5 * acts.output()[0] / 7.0];
            value.backward(&acts, &grad);
            dense_backward(&mut dense_value, &reference, &grad);
            assert_bits_eq(&value.gradients(), &dense_value.gradients(), input_name);
        }
        assert!(policy.gradients().iter().any(|&g| g != 0.0));
    }
}
