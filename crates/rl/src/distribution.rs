//! Masked categorical action distribution.

use rand::Rng;

/// A categorical distribution over discrete actions built from raw logits,
/// with an optional validity mask.
///
/// Masked (invalid) actions receive probability zero, matching DETERRENT's
/// action-masking architecture where nets that are incompatible with the
/// current state are removed from the agent's choices (Theorem 3.1 of the
/// paper shows this loses nothing).
///
/// The distribution keeps only the allowed actions, in index order, and
/// walks only them: the softmax, the entropy, sampling and both gradients.
/// [`MaskedCategorical::set`] rebuilds it in place, reusing its buffers.
/// The default value has no actions until it is set.
#[derive(Debug, Clone, Default)]
pub struct MaskedCategorical {
    /// The allowed actions, in index order.
    actions: Vec<usize>,
    /// `probs[j]` is the probability of `actions[j]`.
    probs: Vec<f64>,
    /// `log_probs[j]` is `ln probs[j]`, `-inf` where that is zero.
    log_probs: Vec<f64>,
}

/// Appends the actions `mask` allows to `out`, in index order: all of
/// `0..n` for an empty mask.
///
/// # Panics
///
/// Panics if a non-empty `mask` does not hold `n` entries.
pub(crate) fn allowed_actions(mask: &[bool], n: usize, out: &mut Vec<usize>) {
    if mask.is_empty() {
        out.extend(0..n);
    } else {
        assert_eq!(mask.len(), n, "mask length mismatch");
        out.extend((0..n).filter(|&i| mask[i]));
    }
}

impl MaskedCategorical {
    /// Builds the distribution from one logit per action, keeping only
    /// actions whose mask entry is `true`. Pass `None` to allow every action.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a different length than `logits` or if no action
    /// is allowed.
    #[must_use]
    pub fn new(logits: &[f64], mask: Option<&[bool]>) -> Self {
        let actions: Vec<usize> = match mask {
            Some(m) => {
                assert_eq!(m.len(), logits.len(), "mask length mismatch");
                (0..m.len()).filter(|&i| m[i]).collect()
            }
            None => (0..logits.len()).collect(),
        };
        let allowed: Vec<f64> = actions.iter().map(|&a| logits[a]).collect();
        let mut dist = Self::default();
        dist.set(&allowed, &actions);
        dist
    }

    /// Rebuilds the distribution in place over `actions`, the allowed
    /// actions in index order, with `logits[j]` the logit of `actions[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `logits` and `actions` differ in length or no action is
    /// allowed.
    pub fn set(&mut self, logits: &[f64], actions: &[usize]) {
        assert_eq!(logits.len(), actions.len(), "one logit per allowed action");
        assert!(!actions.is_empty(), "at least one action must be allowed");
        self.actions.clear();
        self.actions.extend_from_slice(actions);
        // Numerically stable softmax over the allowed logits.
        let max_logit = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.probs.clear();
        let mut total = 0.0;
        for &l in logits {
            let e = (l - max_logit).exp();
            self.probs.push(e);
            total += e;
        }
        for p in &mut self.probs {
            *p /= total;
        }
        self.log_probs.clear();
        self.log_probs.extend(self.probs.iter().map(|&p| {
            if p > 0.0 {
                p.ln()
            } else {
                f64::NEG_INFINITY
            }
        }));
    }

    /// The allowed actions, in index order: the order of
    /// [`MaskedCategorical::grad_log_prob`] and
    /// [`MaskedCategorical::grad_entropy`].
    #[must_use]
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    /// Probability of `action` (`0.0` for masked actions).
    #[must_use]
    pub fn prob(&self, action: usize) -> f64 {
        self.actions
            .binary_search(&action)
            .map_or(0.0, |j| self.probs[j])
    }

    /// Natural log-probability of `action` (`-inf` for masked actions).
    #[must_use]
    pub fn log_prob(&self, action: usize) -> f64 {
        self.actions
            .binary_search(&action)
            .map_or(f64::NEG_INFINITY, |j| self.log_probs[j])
    }

    /// Shannon entropy (natural log) of the distribution.
    #[must_use]
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .zip(&self.log_probs)
            .filter(|&(&p, _)| p > 0.0)
            .map(|(&p, &ln_p)| p * ln_p)
            .sum::<f64>()
    }

    /// Samples an action index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut last_allowed = 0;
        for (&a, &p) in self.actions.iter().zip(&self.probs) {
            if p > 0.0 {
                last_allowed = a;
                acc += p;
                if u < acc {
                    return a;
                }
            }
        }
        last_allowed
    }

    /// The most probable action (the last one among ties).
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.actions
            .iter()
            .zip(&self.probs)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(&a, _)| a)
    }

    /// Gradient of `log π(action)` with respect to the allowed logits, in
    /// the order of [`MaskedCategorical::actions`]: `onehot(action) - probs`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is masked or has probability zero.
    #[must_use]
    pub fn grad_log_prob(&self, action: usize) -> Vec<f64> {
        assert!(
            self.prob(action) > 0.0,
            "cannot take gradient of a masked action"
        );
        (0..self.actions.len())
            .map(|j| self.grad_log_prob_at(action, j))
            .collect()
    }

    /// Gradient of the entropy with respect to the allowed logits, in the
    /// order of [`MaskedCategorical::actions`]: `dH/dz_k = -p_k (ln p_k + H)`.
    #[must_use]
    pub fn grad_entropy(&self) -> Vec<f64> {
        let h = self.entropy();
        (0..self.actions.len())
            .map(|j| self.grad_entropy_at(j, h))
            .collect()
    }

    /// Entry `j` of [`MaskedCategorical::grad_log_prob`].
    pub(crate) fn grad_log_prob_at(&self, action: usize, j: usize) -> f64 {
        let p = self.probs[j];
        if self.actions[j] == action {
            1.0 - p
        } else {
            -p
        }
    }

    /// Entry `j` of [`MaskedCategorical::grad_entropy`], given the entropy
    /// `h`.
    pub(crate) fn grad_entropy_at(&self, j: usize, h: f64) -> f64 {
        let p = self.probs[j];
        if p > 0.0 {
            -p * (self.log_probs[j] + h)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let d = MaskedCategorical::new(&[0.0, 0.0, 0.0, 0.0], None);
        for i in 0..4 {
            assert!((d.prob(i) - 0.25).abs() < 1e-12);
        }
        assert!((d.entropy() - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(d.actions(), [0, 1, 2, 3]);
    }

    #[test]
    fn masked_actions_have_zero_probability() {
        let d = MaskedCategorical::new(&[1.0, 2.0, 3.0], Some(&[true, false, true]));
        assert_eq!(d.prob(1), 0.0);
        assert!(d.log_prob(1).is_infinite());
        assert!((d.prob(0) + d.prob(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_mask_and_distribution() {
        let d = MaskedCategorical::new(&[0.0, 5.0, 0.0], Some(&[true, false, true]));
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let a = d.sample(&mut rng);
            assert_ne!(a, 1, "masked action must never be sampled");
        }
    }

    #[test]
    fn argmax_finds_largest_logit() {
        let d = MaskedCategorical::new(&[0.1, 3.0, -1.0], None);
        assert_eq!(d.argmax(), 1);
        let d = MaskedCategorical::new(&[0.1, 3.0, -1.0], Some(&[true, false, true]));
        assert_eq!(d.argmax(), 0);
    }

    #[test]
    fn grad_log_prob_matches_finite_difference() {
        let logits = [0.3, -0.8, 1.2, 0.0];
        let d = MaskedCategorical::new(&logits, None);
        let action = 2;
        let analytic = d.grad_log_prob(action);
        let eps = 1e-6;
        for k in 0..logits.len() {
            let mut plus = logits;
            plus[k] += eps;
            let mut minus = logits;
            minus[k] -= eps;
            let numeric = (MaskedCategorical::new(&plus, None).log_prob(action)
                - MaskedCategorical::new(&minus, None).log_prob(action))
                / (2.0 * eps);
            assert!((numeric - analytic[k]).abs() < 1e-6, "k={k}");
        }
    }

    #[test]
    fn grad_entropy_matches_finite_difference() {
        let logits = [0.5, -0.2, 0.9];
        let d = MaskedCategorical::new(&logits, None);
        let analytic = d.grad_entropy();
        let eps = 1e-6;
        for k in 0..logits.len() {
            let mut plus = logits;
            plus[k] += eps;
            let mut minus = logits;
            minus[k] -= eps;
            let numeric = (MaskedCategorical::new(&plus, None).entropy()
                - MaskedCategorical::new(&minus, None).entropy())
                / (2.0 * eps);
            assert!((numeric - analytic[k]).abs() < 1e-6, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn all_masked_panics() {
        let _ = MaskedCategorical::new(&[0.0, 0.0], Some(&[false, false]));
    }

    #[test]
    fn extreme_logits_are_stable() {
        let d = MaskedCategorical::new(&[1000.0, -1000.0], None);
        assert!((d.prob(0) - 1.0).abs() < 1e-12);
        assert_eq!(d.prob(1), 0.0);
        assert!(d.entropy() >= 0.0);
    }
}
